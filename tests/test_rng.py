"""rng.search_draws against make_rng: a SearchStream's scalar draws
against the Generator calls they replay, value for value, and its
generator against the Generator's state."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GeneratorDraws
from sievelab.errors import DomainError
from sievelab.rng import derive_seed, derive_seeds, make_rng, search_draws

BOUNDS = (1, 2, 3, 17, 1000, 2**31 + 5, 2**32)


def test_draws_below_one_draws_nothing():
    draws, plain = search_draws(3), make_rng(3)
    # the second below(1) comes while a 32-bit half is held
    got = [draws.below(n) for n in (1, 3, 1, 1000, 1)]
    assert got == [0, int(plain.integers(0, 3)), 0, int(plain.integers(0, 1000)), 0]
    assert repr(draws.generator.bit_generator.state) == repr(plain.bit_generator.state)


def test_draws_refuse_bounds_outside_the_32_bit_range():
    draws = search_draws(3)
    for bad in (0, -1, 2**32 + 1, 2**40):
        with pytest.raises(DomainError):
            draws.below(bad)
    # a refusal draws nothing
    assert draws.below(2**32) == int(make_rng(3).integers(0, 2**32))


@pytest.mark.parametrize("index", [0, 1, 7, 2**63])
def test_search_draws_take_make_rngs_index(index):
    for seed in (0, 0x5EED, 2**64 - 1):
        assert search_draws(seed, index).generator.random(300).tolist() == \
            make_rng(seed, index).random(300).tolist()
    assert search_draws(5).below(1000) == search_draws(5, 0).below(1000)


def test_derive_seeds_match_derive_seed():
    indices = np.concatenate([[0, 1, 2**63 - 1],
                              make_rng(5).integers(0, 2**63 - 1, size=200, dtype=np.int64)])
    for master in (0, 1, 0x5EED, 2**64 - 1):
        assert derive_seeds(master, indices) == [derive_seed(master, int(i)) for i in indices]
        assert derive_seeds(master, np.array([], dtype=np.int64)) == []


# steps a search takes on its stream: scalar draws and the Generator calls
# the pair search's plant and the CLI's value lists make
SEARCH_STEP = st.one_of(
    st.tuples(st.just("below"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("uniform"), st.none()),
    st.tuples(st.just("choice"), st.tuples(st.integers(1, 300), st.integers(0, 5))),
    st.tuples(st.just("normal"), st.integers(1, 9)),
)


def _search_step(draws, name, arg):
    if name == "below":
        return draws.below(arg)
    if name == "uniform":
        return draws.uniform()
    if name == "choice":
        n, size = arg
        return draws.generator.choice(n, size=min(size, n), replace=False).tolist()
    return draws.generator.standard_normal(arg).tolist()


@given(
    prefix_seed=st.integers(0, 2**64 - 1),
    prefix=st.lists(SEARCH_STEP, max_size=20),
    seed=st.integers(0, 2**64 - 1),
    steps=st.lists(SEARCH_STEP, max_size=40),
)
def test_search_draws_restart_the_make_rng_stream(prefix_seed, prefix, seed, steps):
    shared = search_draws(prefix_seed)
    for name, arg in prefix:
        _search_step(shared, name, arg)
    if not shared.generator.bit_generator.state["has_uint32"]:
        shared.below(3)  # one 32-bit draw: half of a 64-bit output stays buffered
    assert shared.generator.bit_generator.state["has_uint32"] == 1

    draws, plain = search_draws(seed), GeneratorDraws(make_rng(seed))
    assert draws is shared  # the thread's one SearchStream, re-keyed
    for name, arg in steps:
        assert _search_step(draws, name, arg) == _search_step(plain, name, arg), (name, arg)
    assert repr(draws.generator.bit_generator.state) == repr(plain.generator.bit_generator.state)


def test_search_stream_replays_across_fetches_and_array_draws():
    # each stretch of scalar draws reads about 2,700 raw words, past the
    # stream's first fetches and more than one largest fetch, and every
    # stretch but the last ends in an array draw on the generator.  At seed
    # 17 the stream holds a 32-bit half before the second array draw and
    # after both, so the settle and the next stretch's first draw, a 32-bit
    # one that picks the half up, both meet one
    draws, plain = search_draws(17), GeneratorDraws(make_rng(17))
    held_before, held_after = [], []
    for array_step in (("choice", (1000, 5)), ("normal", 7), None):
        for n in BOUNDS[::-1] * 250:
            assert draws.below(n) == plain.below(n), n
            assert draws.uniform() == plain.uniform()
        if array_step is None:
            break
        held_before.append(plain.generator.bit_generator.state["has_uint32"])
        assert _search_step(draws, *array_step) == _search_step(plain, *array_step)
        held_after.append(plain.generator.bit_generator.state["has_uint32"])
    assert (held_before, held_after) == ([0, 1], [1, 1])
    assert repr(draws.generator.bit_generator.state) == repr(plain.generator.bit_generator.state)
