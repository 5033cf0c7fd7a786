"""rng.Draws against the Generator whose stream it reads."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab.errors import DomainError
from sievelab.rng import Draws, make_rng

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
