"""rng.Draws against the Generator whose stream it reads, and
rng.search_draws against make_rng."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab.errors import DomainError
from sievelab.rng import Draws, make_rng, search_draws

BOUNDS = (1, 2, 3, 17, 1000, 2**31 + 5, 2**32)
# (name, bound or None) steps; "below" and "uniform" go through Draws on
# one side, every other step is the same Generator call on both sides
STEP = st.one_of(
    st.tuples(st.sampled_from(("below", "integers", "integers3")), st.sampled_from(BOUNDS)),
    st.tuples(st.sampled_from(("uniform", "random", "random3")), st.none()),
)


def _generator_step(rng, name, n):
    if name in ("below", "integers"):
        return int(rng.integers(0, n))
    if name == "integers3":
        return rng.integers(0, n, size=3).tolist()
    if name in ("uniform", "random"):
        return float(rng.random())
    return rng.random(3).tolist()


@given(seed=st.integers(0, 2**64 - 1), steps=st.lists(STEP, max_size=60))
def test_draws_follow_the_generator_stream(seed, steps):
    mixed, plain = make_rng(seed), make_rng(seed)
    draws = Draws(mixed)
    for name, n in steps:
        if name == "below":
            got = draws.below(n)
        elif name == "uniform":
            got = draws.uniform()
        else:
            got = _generator_step(mixed, name, n)
        assert got == _generator_step(plain, name, n), (name, n)
    # the two states end where they started together
    assert repr(mixed.bit_generator.state) == repr(plain.bit_generator.state)


def test_draws_match_the_generator_at_every_bound():
    # 2**31 + 5 rejects about half of its 32-bit draws, so the rejection
    # loop runs here whatever the property above happens to draw
    mixed, plain = make_rng(5), make_rng(5)
    draws = Draws(mixed)
    for n in BOUNDS * 40:
        assert draws.below(n) == int(plain.integers(0, n)), n
        assert draws.uniform() == float(plain.random())


def test_draws_below_one_draws_nothing():
    rng = make_rng(3)
    before = repr(rng.bit_generator.state)
    assert Draws(rng).below(1) == 0
    assert repr(rng.bit_generator.state) == before


def test_draws_refuse_bounds_outside_the_32_bit_range():
    draws = Draws(make_rng(3))
    for bad in (0, -1, 2**32 + 1, 2**40):
        with pytest.raises(DomainError):
            draws.below(bad)
    # a refusal draws nothing
    assert draws.below(2**32) == int(make_rng(3).integers(0, 2**32))


# steps a search takes on its stream: Draws calls and the Generator calls
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

    draws, plain = search_draws(seed), Draws(make_rng(seed))
    assert draws is shared  # the thread's one Draws, re-keyed
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
    draws, plain = search_draws(17), Draws(make_rng(17))
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
