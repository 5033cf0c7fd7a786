"""Emulated query counts vs the collision / preimage cost equations."""

import math

import numpy as np
import pytest

from sievelab import exponents, symkey
from sievelab.errors import DomainError, GuardError, RangeError
from sievelab.rng import make_rng


def _collision_bits(n, l, r, gamma, seed=0x5EED, trials=10):
    plan = symkey.EmulationPlan(n=n, l=l, r=r, gamma=gamma, trials=trials, seed=seed)
    return math.log2(symkey.emulate_collision_queries(plan))


def _mtps_bits(n, t, r, gamma, seed=0x5EED, trials=10):
    plan = symkey.EmulationPlan(n=n, t=t, r=r, gamma=gamma, trials=trials, seed=seed)
    return math.log2(symkey.emulate_mtps_queries(plan))


# --- plan validation ---------------------------------------------------------------


def test_plan_guard_and_missing_fields():
    with pytest.raises(GuardError):
        symkey.emulate_collision_queries(symkey.EmulationPlan(n=23, l=4, r=8))
    with pytest.raises(GuardError):
        symkey.emulate_mtps_queries(symkey.EmulationPlan(n=23, t=9, r=6))
    with pytest.raises(DomainError):
        symkey.emulate_collision_queries(symkey.EmulationPlan(n=16, r=6.4))
    with pytest.raises(DomainError):
        symkey.emulate_collision_queries(symkey.EmulationPlan(n=16, l=3.2))
    with pytest.raises(DomainError):
        symkey.emulate_mtps_queries(symkey.EmulationPlan(n=16, r=4))
    with pytest.raises(DomainError):
        symkey.emulate_collision_queries(symkey.EmulationPlan(n=16, l=3, r=6, trials=0))
    with pytest.raises(DomainError):
        symkey.emulate_collision_queries(symkey.EmulationPlan(n=16, l=9, r=8))  # l+r > n


def test_plan_memory_bounds_enforced():
    with pytest.raises(RangeError):
        symkey.emulate_collision_queries(symkey.EmulationPlan(n=16, l=3, r=6, gamma=3.5))
    with pytest.raises(RangeError):
        symkey.emulate_mtps_queries(symkey.EmulationPlan(n=16, t=6, r=4, gamma=2.5))
    # boundary values run
    symkey.emulate_collision_queries(symkey.EmulationPlan(n=16, l=3, r=6, gamma=3.0, trials=2))
    symkey.emulate_mtps_queries(symkey.EmulationPlan(n=16, t=6, r=4, gamma=2.0, trials=2))


# --- collision counts ---------------------------------------------------------------


def test_collision_tracks_equation_at_optima():
    for n in (10, 14, 16, 20, 22):
        for frac in (0.0, 0.3, 0.6, 1.0):
            gamma = frac * n / 3.0
            opt = exponents.collision_optimize(n, gamma)
            eq = exponents.collision_cost(n, opt.l, opt.r, gamma)
            assert abs(_collision_bits(n, opt.l, opt.r, gamma) - eq) <= 1.0


def test_collision_tracks_equation_off_optimum():
    rng = make_rng(7)
    for _ in range(30):
        n = float(rng.integers(8, 23))
        l = float(rng.uniform(0.5, n / 2))
        r = float(rng.uniform(0.0, n - l))
        gamma = float(rng.uniform(0.0, l))
        eq = exponents.collision_cost(n, l, r, gamma)
        assert abs(_collision_bits(n, l, r, gamma) - eq) <= 1.0


def test_collision_no_memory_matches_terminal_form():
    # gamma = 0 leaves the full stored list in the membership term
    n = 16.0
    opt = exponents.collision_optimize(n, 0.0)
    eq = exponents.collision_cost(n, opt.l, opt.r, 0.0)
    assert abs(_collision_bits(n, opt.l, opt.r, 0.0) - eq) <= 1.0


def test_collision_gamma_equal_l_boundary():
    # membership collapses to a single probe per iteration
    n, l, r = 12.0, 4.0, 4.0
    eq = exponents.collision_cost(n, l, r, l)
    assert abs(_collision_bits(n, l, r, l) - eq) <= 1.0
    assert exponents.log2_sum(r / 2.0, 0.0) == pytest.approx(
        math.log2(2 ** (r / 2.0) + 1.0)
    )


def test_collision_memory_drop_at_n16():
    # closed forms differ by gamma/5 = 1 bit between gamma = 5 and gamma = 0
    p0 = exponents.collision_optimize(16.0, 0.0)
    p5 = exponents.collision_optimize(16.0, 5.0)
    assert p0.time_bits - p5.time_bits == pytest.approx(1.0)
    drop = _collision_bits(16.0, p0.l, p0.r, 0.0) - _collision_bits(16.0, p5.l, p5.r, 5.0)
    assert abs(drop - 1.0) <= 0.5


# --- preimage counts ----------------------------------------------------------------


def test_mtps_tracks_equation():
    rng = make_rng(8)
    for _ in range(30):
        n = float(rng.integers(8, 23))
        t = float(rng.uniform(1.0, n / 2))
        r = float(rng.uniform(0.0, t))
        gamma = float(rng.uniform(0.0, t - r))
        eq = exponents.mtps_cost(n, t, r, gamma)
        assert abs(_mtps_bits(n, t, r, gamma) - eq) <= 1.0


def test_mtps_balanced_point_structure():
    # at t = 3n/7, r = 2t/3, gamma = 0 the three cost terms coincide, so the
    # equation sits exactly log2(3) above the 3n/7 exponent and the emulated
    # count tracks the equation, not the bare exponent
    for n in (14.0, 21.0):
        t = 3.0 * n / 7.0
        r = 2.0 * t / 3.0
        eq = exponents.mtps_cost(n, t, r, 0.0)
        assert eq == pytest.approx(t + math.log2(3.0), abs=1e-12)
        assert abs(_mtps_bits(n, t, r, 0.0) - eq) <= 1.0


def test_mtps_closed_form_point():
    n, t, gamma = 21.0, 6.0, 3.0
    opt = exponents.mtps_optimize(n, t, gamma)
    assert opt.time_bits == pytest.approx(8.5)
    assert abs(_mtps_bits(n, t, opt.r, gamma) - opt.time_bits) <= 1.0


# --- gamma structure ----------------------------------------------------------------


def test_counts_monotone_and_bracketed_in_gamma():
    n, l, r = 18.0, 5.0, 6.0
    cvals = [_collision_bits(n, l, r, g) for g in np.linspace(0.0, l, 11)]
    assert all(a >= b - 1e-9 for a, b in zip(cvals, cvals[1:]))
    assert all(cvals[-1] - 1e-9 <= v <= cvals[0] + 1e-9 for v in cvals)

    n, t, r = 18.0, 6.0, 2.0
    mvals = [_mtps_bits(n, t, r, g) for g in np.linspace(0.0, t - r, 9)]
    assert all(a >= b - 1e-9 for a, b in zip(mvals, mvals[1:]))
    assert all(mvals[-1] - 1e-9 <= v <= mvals[0] + 1e-9 for v in mvals)


# --- optimizer agreement ------------------------------------------------------------


def test_closed_form_is_grid_argmin_of_exponent_objective():
    step = 0.1
    for n, gamma in [(20.0, 0.0), (20.0, 3.0), (22.0, 6.0)]:
        opt = exponents.collision_optimize(n, gamma)
        best, arg = None, None
        for l in np.arange(gamma, n / 2.0 + 1e-9, step):
            for r in np.arange(0.0, n - l + 1e-9, step):
                v = max(l + r / 2.0, (n - r - l) / 2.0 + max(r / 2.0, l - gamma))
                if best is None or v < best - 1e-12:
                    best, arg = v, (l, r)
        assert abs(arg[0] - opt.l) <= step + 1e-9
        assert abs(arg[1] - opt.r) <= step + 1e-9
        assert best == pytest.approx(opt.time_bits, abs=step)


def test_closed_form_nearly_minimizes_emulated_counts():
    # the closed form balances exponents; at desk-scale n the sum's argmin
    # drifts along a flat valley, so assert near-optimality of the value
    for n, gamma in [(16.0, 2.0), (20.0, 0.0)]:
        opt = exponents.collision_optimize(n, gamma)
        at_opt = _collision_bits(n, opt.l, opt.r, gamma, trials=6)
        grid_min = min(
            _collision_bits(n, l, r, gamma, trials=6)
            for l in np.arange(max(gamma, 0.5), n / 2.0 + 1e-9, 0.5)
            for r in np.arange(0.0, n - l + 1e-9, 0.5)
        )
        assert at_opt - grid_min <= 0.6

    n, gamma = 21.0, 0.0
    opt = exponents.mtps_optimize(n, n, gamma)
    at_opt = _mtps_bits(n, opt.t_effective, opt.r, gamma, trials=6)
    grid_min = min(
        _mtps_bits(n, t, r, gamma, trials=6)
        for t in np.arange(1.0, n / 2.0 + 1e-9, 0.5)
        for r in np.arange(0.0, t + 1e-9, 0.5)
    )
    assert at_opt - grid_min <= 0.6


# --- determinism and tables ---------------------------------------------------------


def test_emulation_deterministic_in_seed():
    plan = symkey.EmulationPlan(n=18, l=4.0, r=7.2, gamma=1.5, trials=25, seed=42)
    assert symkey.emulate_collision_queries(plan) == symkey.emulate_collision_queries(plan)
    other = symkey.EmulationPlan(n=18, l=4.0, r=7.2, gamma=1.5, trials=25, seed=43)
    assert symkey.emulate_collision_queries(plan) != symkey.emulate_collision_queries(other)


def test_emulation_means_are_pinned():
    # recorded before the two emulators shared one trial loop: the same
    # draws, in the same order, give the same means
    P = symkey.EmulationPlan
    assert symkey.emulate_collision_queries(
        P(n=16, l=4.0, r=5.0, gamma=2.0, trials=25, seed=3)) == 153.8
    assert symkey.emulate_collision_queries(
        P(n=12, l=3.0, r=4.5, gamma=0.0, trials=7, seed=11)) == 74.85714285714286
    assert symkey.emulate_mtps_queries(P(n=21, t=6.0, r=2.0, gamma=3.0, trials=25, seed=3)) == 571.84
    assert symkey.emulate_mtps_queries(P(n=15, t=5.5, r=1.5, gamma=0.5, trials=7, seed=11)) == 318.0


def test_collision_table_rows():
    rows = symkey.collision_table(16.0, [0.0, 2.0, 4.0], trials=8, seed=3)
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {
            "n", "gamma", "l", "r", "T_bits_formula", "T_bits_emulated", "mem_bits",
        }
        assert abs(row["T_bits_emulated"] - row["T_bits_formula"]) <= 1.0
        assert row["mem_bits"] == pytest.approx(row["l"])
    assert rows[0]["T_bits_formula"] > rows[-1]["T_bits_formula"]


def test_mtps_table_rows():
    rows = symkey.mtps_table(21.0, 21.0, [0.0, 1.5, 3.0], trials=8, seed=4)
    assert len(rows) == 3
    for row in rows:
        assert row["t"] == row["mem_bits"]
        assert abs(row["T_bits_emulated"] - row["T_bits_formula"]) <= 1.0
    # t saturates below n and shrinks as gamma grows
    assert rows[0]["t"] == pytest.approx(9.0)
    assert rows[-1]["t"] < rows[0]["t"]
