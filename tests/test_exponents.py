"""Cost models and the trade-off optimizer.

Reference values are either closed forms evaluated independently here
(log identities) or small brute-force grid optimizations that bound the
claimed optima from below.  The scalar minimisers are checked against
scipy.optimize, which they port, for bit-equal results.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from sievelab import exponents as E
from sievelab.errors import DomainError, RangeError
from sievelab.geometry import cap_rate, t_rate

CLASSICAL = 0.5 * math.log2(1.5)  # 0.2924813
T1_CONST = 0.5 * math.log2(13.0 / 9.0)  # 0.2652574


# --- model_terms -----------------------------------------------------------


def test_classical_terms_equal_at_half():
    terms = E.model_terms("classical", 0.5, 0.5)
    assert len(terms) == 3
    for v in terms:
        assert v == pytest.approx(CLASSICAL, abs=1e-12)


def test_t2_at_gamma_one_is_classical():
    a = math.sqrt(1.0 - 0.75)  # alpha = beta = sqrt(1 - 3*gamma/4), gamma = 1
    terms = E.model_terms("t2", a, a, 0.0)
    assert max(terms) == pytest.approx(CLASSICAL, abs=1e-12)


def test_t4_terms_pinned():
    terms = E.model_terms("t4", 0.4434, 0.5)
    assert max(terms) == pytest.approx(0.2571, abs=5e-4)


def test_model_terms_rejects_unknown_model():
    with pytest.raises(DomainError):
        E.model_terms("t9", 0.5, 0.5)


def test_model_terms_range_error_carries_bound():
    with pytest.raises(RangeError) as ei:
        E.model_terms("t2", 0.5, 0.5, 5.0)
    bound = ei.value.bound
    assert 0.0 < bound < 5.0
    # the bound itself is admissible
    E.model_terms("t2", 0.5, 0.5, bound)


def test_model_terms_gamma_free_models_reject_budget():
    for m in ("classical", "t1", "t4", "noqram"):
        with pytest.raises(RangeError):
            E.model_terms(m, 0.5, 0.5, 0.1)


# --- optimize --------------------------------------------------------------


def _point_rates(p):
    """(t, ca, cb) at an optimize() point, as optimize computes them."""
    return t_rate(p.alpha, p.beta), cap_rate(p.alpha), cap_rate(p.beta)


def test_optimize_classical():
    p = E.optimize("classical")
    assert p.alpha == pytest.approx(0.5, abs=1e-3)
    assert p.beta == pytest.approx(0.5, abs=1e-3)
    assert p.time_rate == pytest.approx(CLASSICAL, abs=1e-4)


def test_optimize_t1():
    p = E.optimize("t1")
    assert p.alpha == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-3)
    assert p.beta == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-3)
    assert p.time_rate == pytest.approx(T1_CONST, abs=1e-4)
    # t1 addresses all that t2's bound allows at its optimum
    assert p.qram_rate == E._gamma_bound("t2", *_point_rates(p))


def test_optimize_t4():
    p = E.optimize("t4")
    assert p.alpha == pytest.approx(0.4434, abs=2e-3)
    assert p.beta == pytest.approx(0.5, abs=2e-3)
    assert p.time_rate == pytest.approx(0.2571, abs=5e-4)
    # t4 addresses all that t5's bound allows at its optimum
    assert p.qram_rate == E._gamma_bound("t5", *_point_rates(p))


def test_optimize_equalizes_active_terms():
    cases = [
        ("classical", 0.0),
        ("t1", 0.0),
        ("t2", 0.05),
        ("t2", 0.2),  # past saturation
        ("t3", 0.03),
        ("t4", 0.0),
        ("t5", 0.07),
    ]
    for model, s in cases:
        p = E.optimize(model, s)
        top = sorted(p.term_rates, reverse=True)
        assert top[0] - top[1] <= 1e-5, (model, s, p.term_rates)
        assert p.time_rate == pytest.approx(max(p.term_rates), abs=1e-12)


def test_optimize_never_beats_model_envelope():
    floors = {"t2": T1_CONST, "t3": T1_CONST, "t5": 0.2571}
    for model, floor in floors.items():
        for s in (0.0, 0.02, 0.05, 0.1, 0.2, 0.5):
            r = E.optimize(model, s).time_rate
            assert r <= CLASSICAL + 1e-6
            assert r >= floor - 1e-3


def test_optimize_qram_rate_capped():
    # budget beyond the saturation point is reported as unused
    p = E.optimize("t2", 0.5)
    assert p.qram_rate <= math.log2(13.0 / 12.0) + 1e-6


def test_term_table_agrees_on_floats_and_arrays():
    # one table serves the Nelder-Mead objective (floats) and the seeding
    # grid (arrays); the float path must return Python floats
    a = np.array([0.2, 0.35, 0.5, 0.6])
    b = np.array([0.3, 0.5, 0.45, 0.7])
    ts = np.array([t_rate(x, y) for x, y in zip(a, b)])
    ca, cb = 0.5 * np.log2(1.0 - a * a), 0.5 * np.log2(1.0 - b * b)
    for model in E.MODELS:
        for sigma in ((0.0, 0.03, 0.2) if model in ("t2", "t3", "t5") else (0.0,)):
            s_arr = np.minimum(sigma, E._gamma_bound(model, ts, ca, cb))
            grid = E._terms(model, ts, ca, cb, s_arr)
            for i in range(a.size):
                args = (float(ts[i]), float(ca[i]), float(cb[i]))
                s_eff = min(sigma, E._gamma_bound(model, *args))
                terms = E._terms(model, *args, s_eff)
                assert all(type(x) is float for x in terms)
                assert terms == tuple(float(g[i]) for g in grid)


# --- closed forms ----------------------------------------------------------


def test_closed_form_t2_endpoint():
    assert E.closed_form_rate("t2", 13.0 / 12.0) == pytest.approx(T1_CONST, abs=1e-9)
    assert E.closed_form_rate("t2", 1.0) == pytest.approx(CLASSICAL, abs=1e-12)


def test_closed_form_t5_endpoints():
    assert E.closed_form_rate("t5", 1.0) == pytest.approx(CLASSICAL, abs=1e-12)
    assert E.closed_form_rate("t5", E.T5_GAMMA_MAX) == pytest.approx(0.2571, abs=1e-3)


def test_closed_form_out_of_range():
    for model, gamma in (("t2", 1.2), ("t3", 1.1), ("t5", 1.2), ("t2", 0.9)):
        with pytest.raises(RangeError):
            E.closed_form_rate(model, gamma)
    with pytest.raises(DomainError):
        E.closed_form_rate("classical", 1.0)


def test_gamma_max_names_the_budgeted_models():
    assert E.GAMMA_MAX == {"t2": E.T2_GAMMA_MAX, "t3": E.T3_GAMMA_MAX, "t5": E.T5_GAMMA_MAX}
    for model in E.MODELS:
        if model in E.GAMMA_MAX:
            E.optimize(model, 0.05)
        else:
            with pytest.raises(RangeError):
                E.optimize(model, 0.05)
    # one range check for the three closed forms, with the messages and
    # bounds each of them stated before
    for model, gmax in E.GAMMA_MAX.items():
        for gamma in (0.9, 1.0 - 1e-8, gmax + 1e-8, math.nan):
            with pytest.raises(RangeError) as info:
                E.closed_form_rate(model, gamma)
            assert str(info.value) == f"{model} needs gamma in [1, {gmax}]"
            assert info.value.bound == gmax
        E.closed_form_rate(model, 1.0 - 1e-10)
        E.closed_form_rate(model, gmax + 1e-10)


def test_closed_form_matches_optimizer_on_grids():
    grids = {
        "t2": np.linspace(1.0, E.T2_GAMMA_MAX, 50),
        "t3": np.linspace(1.0, E.T3_GAMMA_MAX, 50),
        "t5": np.linspace(1.0, E.T5_GAMMA_MAX, 50),
    }
    for model, gammas in grids.items():
        for g in gammas:
            cf = E.closed_form_rate(model, float(g))
            opt = E.optimize(model, math.log2(g)).time_rate
            assert abs(cf - opt) <= 1e-4, (model, g)


# --- curves ----------------------------------------------------------------


def test_curve_monotone_and_flat_past_saturation():
    grid = np.linspace(0.0, 0.18, 25)
    pts = E.tradeoff_curve("t2", grid)
    times = [p.time_rate for p in pts]
    for a, b in zip(times, times[1:]):
        assert b <= a + 1e-9
    assert times[-1] == pytest.approx(T1_CONST, abs=1e-6)


def test_curve_saturation_knees():
    # smallest budget reaching the floor, found by bisection on optimize
    def knee(model, floor):
        lo, hi = 0.0, 0.3
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if E.optimize(model, mid).time_rate <= floor + 1e-7:
                hi = mid
            else:
                lo = mid
        return hi

    assert knee("t2", T1_CONST) == pytest.approx(math.log2(13.0 / 12.0), abs=5e-4)
    assert knee("t3", T1_CONST) == pytest.approx(0.5 * math.log2(13.0 / 12.0), abs=5e-4)


@pytest.mark.parametrize("model", sorted(E.GAMMA_MAX))
def test_curve_is_its_points_one_by_one(model):
    # a curve builds the seeding grid's sigma-free arrays once; its points
    # are still optimize()'s, from no budget to the saturation end
    rates = [0.0, 0.5 * math.log2(E.GAMMA_MAX[model]), math.log2(E.GAMMA_MAX[model])]
    assert E.tradeoff_curve(model, rates) == [E.optimize(model, r) for r in rates]


def test_every_curve_starts_classical():
    for model in ("t2", "t3", "t5"):
        assert E.optimize(model, 0.0).time_rate == pytest.approx(CLASSICAL, abs=1e-4)


# --- lower bound and blocked search ----------------------------------------


def test_lower_bound_rate():
    assert E.lower_bound_rate(0.0) == pytest.approx(CLASSICAL, abs=1e-9)
    assert E.lower_bound_rate(0.14624063) == pytest.approx(0.0, abs=1e-6)
    assert E.lower_bound_rate(0.05) == pytest.approx(CLASSICAL - 0.1, abs=1e-9)
    assert E.lower_bound_rate(0.2) == 0.0
    with pytest.raises(DomainError):
        E.lower_bound_rate(-0.1)


def test_blocked_search_rate_interpolates():
    m = 0.5
    assert E.blocked_search_rate(m, 0.0) == m
    assert E.blocked_search_rate(m, m) == m / 2.0
    assert E.blocked_search_rate(0.5, 0.2) == pytest.approx(0.4, abs=1e-12)
    # linear in s
    s = np.linspace(0.0, m, 7)
    vals = [E.blocked_search_rate(m, x) for x in s]
    assert np.allclose(np.diff(vals, 2), 0.0, atol=1e-12)
    with pytest.raises(DomainError):
        E.blocked_search_rate(0.3, 0.4)


# --- no-QRAM curve ----------------------------------------------------------


def test_noqram_endpoints():
    p0 = E.noqram_point(0.0)
    assert p0.time_rate == pytest.approx(2.0 * E.N_RATE, abs=1e-9)
    p1 = E.noqram_point(0.2075)
    assert p1.time_rate == pytest.approx(0.279, abs=3e-3)


def test_noqram_fit():
    taus = np.linspace(0.0, E.N_RATE, 40)
    slope, intercept = E.fit_noqram_curve(E.noqram_curve(taus))
    assert slope == pytest.approx(-0.655, abs=0.02)
    assert intercept == pytest.approx(0.414, abs=0.005)


def test_noqram_point_respects_constraint():
    for tau in (0.05, 0.12, 0.2):
        p = E.noqram_point(tau)
        assert t_rate(p.alpha, p.beta) == pytest.approx(tau, abs=1e-9)


def test_noqram_grid_is_the_scalar_branch():
    # the bracket grid as one array pass must give the scalar branch's bits
    # (an ulp can move the argmin, and with it Brent's bracket); betas past
    # the grid's ends reach every mask: disc < 0, a outside (0, 1), beta
    # outside (0, 1)
    taus = np.concatenate([[1e-6, 0.001], np.linspace(0.0, E.N_RATE, 500)[1:]])  # ends at N_RATE
    wide = np.linspace(-0.2, 1.2, 57)
    for tau in taus.tolist():
        c = 0.75 * (1.0 - 2.0 ** (-2.0 * tau))
        grid = np.linspace(1e-6, math.sqrt(4.0 * c / 3.0) - 1e-12, 600)
        betas = np.concatenate([grid, wide])
        for sign in (1.0, -1.0):
            want = [E._noqram_branch(b, c, tau, sign) for b in betas.tolist()]
            assert E._noqram_grid(betas, c, tau, sign).tolist() == want, (tau, sign)


def test_noqram_domain():
    with pytest.raises(DomainError):
        E.noqram_point(0.3)
    with pytest.raises(DomainError):
        E.noqram_point(-0.01)


# --- block-reduction comparison ---------------------------------------------


def test_enum_rate_formula():
    k = 700.0
    expect = (k * math.log(k) / (8 * math.log(2)) - 0.547 * k + 10.4) / (2 * k)
    assert E.enum_rate(k) == pytest.approx(expect, abs=1e-12)
    with pytest.raises(DomainError):
        E.enum_rate(69)


def test_bkz_rows_carry_constants():
    rows = E.bkz_curves([100, 300, 900])
    for k, en, s_no, s_full in rows:
        assert s_no == 0.2925
        assert s_full == 0.2563
        assert en == pytest.approx(E.enum_rate(k), abs=1e-15)


def test_bkz_crossover_is_a_root():
    for target in (E.SIEVE_RATE_NOQRAM, E.SIEVE_RATE_FULLQRAM):
        k = E.bkz_crossover(target)
        assert E.enum_rate(k) == pytest.approx(target, abs=1e-6)
        assert E.enum_rate(k - 1.0) < target


# --- symmetric-key trade-offs ------------------------------------------------


def test_log2_sum_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.uniform(0.0, 40.0, size=2)
        direct = math.log2(2.0**a + 2.0**b)
        assert E.log2_sum(a, b) == pytest.approx(direct, abs=1e-9)


def test_collision_cost_matches_direct_sum():
    # n <= 40 keeps 2^x exactly representable territory for the oracle
    n, l, r, g = 20.0, 6.0, 2.0, 5.0
    direct = math.log2(2.0 ** (l + r / 2) + 2.0 ** ((n - r - l) / 2) * (2.0 ** (r / 2) + 2.0 ** (l - g)))
    assert E.collision_cost(n, l, r, g) == pytest.approx(direct, abs=1e-9)


def test_collision_cost_degenerate_boundary():
    v = E.collision_cost(20.0, 0.0, 20.0, 0.0)
    assert math.isfinite(v)


def test_collision_optimize_closed_form():
    plan = E.collision_optimize(20.0, 5.0)
    assert plan.l == pytest.approx(6.0, abs=1e-12)
    assert plan.r == pytest.approx(2.0, abs=1e-12)
    assert plan.time_bits == pytest.approx(7.0, abs=1e-12)
    assert plan.memory_bits == pytest.approx(6.0, abs=1e-12)


def test_collision_optimize_no_memory():
    n = 128.0
    plan = E.collision_optimize(n, 0.0)
    assert plan.time_bits == pytest.approx(2 * n / 5, abs=1e-9)
    assert plan.memory_bits == pytest.approx(n / 5, abs=1e-9)


def test_collision_plan_beats_grid():
    # the closed form minimizes the dominant exponent; a brute grid over
    # (l, r) containing the plan point must agree within 0.01 bits
    n, g = 40.0, 6.0
    plan = E.collision_optimize(n, g)

    L, R = np.meshgrid(np.arange(g, 20.0001, 0.05), np.arange(0.0, 20.0001, 0.05))
    obj = np.maximum(
        L + R / 2,
        np.maximum((n - R - L) / 2 + R / 2, (n - R - L) / 2 + L - g),
    )
    obj[L + R > n] = np.inf
    assert abs(float(obj.min()) - plan.time_bits) <= 0.01


def test_collision_guards():
    with pytest.raises(RangeError):
        E.collision_cost(20.0, 5.0, 5.0, 6.0)  # gamma > l
    with pytest.raises(DomainError):
        E.collision_cost(20.0, 15.0, 10.0, 0.0)  # l + r > n
    with pytest.raises(RangeError):
        E.collision_optimize(30.0, 11.0)  # gamma > n/3


def test_mtps_cost_matches_direct_sum():
    n, t, r, g = 30.0, 9.0, 4.0, 2.0
    direct = math.log2(2.0**t + 2.0 ** ((n - t) / 2) * (2.0 ** (r / 2) + 2.0 ** (t - r - g)))
    assert E.mtps_cost(n, t, r, g) == pytest.approx(direct, abs=1e-9)


def test_mtps_optimize_saturated():
    n = 70.0
    plan = E.mtps_optimize(n, n / 2.0, 0.0)  # t beyond 3n/7
    assert plan.time_bits == pytest.approx(3 * n / 7, abs=1e-9)
    assert plan.t_effective == pytest.approx(3 * n / 7, abs=1e-9)


def test_mtps_optimize_scarce_targets():
    n, t = 70.0, 12.0
    plan = E.mtps_optimize(n, t, 0.0)
    assert plan.time_bits == pytest.approx(n / 2 - t / 6, abs=1e-9)
    assert plan.r == pytest.approx(2 * t / 3, abs=1e-9)


def test_mtps_optimize_with_memory():
    n, t, g = 70.0, 12.0, 3.0
    plan = E.mtps_optimize(n, t, g)
    assert plan.time_bits == pytest.approx(n / 2 - t / 6 - g / 3, abs=1e-9)


def test_mtps_plan_beats_grid():
    n, t, g = 40.0, 10.0, 2.0
    plan = E.mtps_optimize(n, t, g)
    r = np.arange(0.0, t - g + 1e-9, 0.005)
    obj = np.maximum(t, np.maximum((n - t) / 2 + r / 2, (n - t) / 2 + t - r - g))
    assert abs(float(obj.min()) - plan.time_bits) <= 0.01


def test_mtps_guards():
    with pytest.raises(RangeError):
        E.mtps_cost(30.0, 10.0, 6.0, 5.0)  # gamma > t - r
    with pytest.raises(DomainError):
        E.mtps_cost(30.0, 10.0, 12.0, 0.0)  # r > t


# --- the Nelder-Mead port against scipy.optimize -----------------------------
#
# _nelder_mead_2d is a port of scipy 1.17's Nelder-Mead method; scipy is
# the oracle here, and every result must agree bit for bit (==, NaN
# matching NaN).

def _same(u, v):
    return u == v or (u != u and v != v)


def _logged(f, calls):
    """f, appending each point it is called at to calls."""
    def g(a, b):
        calls.append((float(a), float(b)))
        return f(a, b)

    return g


def _scipy_nelder_mead(f, x0):
    # the port's options, maxiter read at call time; maxfev is left unset,
    # which scipy reads as inf once maxiter is given
    caps = dict(xatol=E._NM_XATOL, fatol=E._NM_FATOL, maxiter=E._NM_MAXITER)
    with np.errstate(invalid="ignore"):  # inf - inf in scipy's stopping test
        res = minimize(lambda x: f(x[0], x[1]), np.asarray(x0, dtype=float),
                       method="Nelder-Mead", options=caps)
    return (float(res.x[0]), float(res.x[1])), float(res.fun), res.nit


def _assert_nelder_mead_matches(f, x0):
    # the same result bits, and f called at the same points in the same order
    got_calls, want_calls = [], []
    got = E._nelder_mead_2d(_logged(f, got_calls), x0)
    want = _scipy_nelder_mead(_logged(f, want_calls), x0)
    assert got[0] == want[0] and _same(got[1], want[1]) and got[2] == want[2], (got, want)
    assert got_calls == want_calls
    return got


_BUDGETS = [("classical", 0.0), ("t1", 0.0), ("t4", 0.0), ("noqram", 0.0)] + [
    (m, s) for m in ("t2", "t3", "t5") for s in (0.0, 0.02, 0.05)
]


@pytest.mark.parametrize("model, sigma", _BUDGETS)
def test_nelder_mead_matches_scipy_on_model_objectives(model, sigma):
    # both runs of optimize(): from the grid seed, then the restart
    f = E._objective(model, sigma)
    x = E._grid_seed(model, sigma)
    for _ in range(2):
        x = _assert_nelder_mead_matches(f, x)[0]
    p = E.optimize(model, sigma)
    assert (p.alpha, p.beta) == x


def test_sort3_is_a_stable_argsort():
    # ties, signed zeros and inf ties keep their positions; NaN goes last
    values = (-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, math.nan)
    for fs in itertools.product(values, repeat=3):
        verts = [[i, 0.0, f] for i, f in enumerate(fs)]
        got = [v[0] for v in E._sort3(*verts)]
        assert got == np.argsort(fs, kind="stable").tolist(), fs


def _half_plane_nan(a, b):
    return (a - 0.3) ** 2 + (b + 0.2) ** 2 if a < 0.5 else math.nan


@pytest.mark.parametrize("f, x0", [
    (lambda a, b: 1.0, (0.3, 0.4)),  # ties everywhere: only shrinks
    (lambda a, b: 1.0, (0.0, 0.0)),  # zero start coordinates step by 0.00025
    (E._objective("t2", 0.0), (0.95, 0.1)),  # every vertex inf; inf - inf never stops
    (E._objective("t3", 0.0), (0.8, 0.65)),  # start inf, neighbours finite
    (_half_plane_nan, (0.49, 0.1)),  # a NaN vertex in the first simplex
    (_half_plane_nan, (0.6, 0.1)),  # every vertex NaN
], ids=["constant", "constant-at-zero", "inf-region", "inf-start", "nan-edge", "nan-region"])
def test_nelder_mead_matches_scipy_on_awkward_objectives(f, x0):
    _assert_nelder_mead_matches(f, x0)


@pytest.mark.parametrize("maxiter", [1, 2, 3, 5], ids=lambda k: f"maxiter{k}")
@pytest.mark.parametrize("f, x0", [
    (E._objective("t5", 0.03), (0.45, 0.5)),
    (lambda a, b: 1.0, (0.3, 0.4)),
    (_half_plane_nan, (0.49, 0.1)),  # stops with a NaN vertex: fun is NaN
], ids=["t5", "constant", "nan-edge"])
def test_nelder_mead_matches_scipy_under_small_caps(f, x0, maxiter, monkeypatch):
    monkeypatch.setattr(E, "_NM_MAXITER", maxiter)
    assert _assert_nelder_mead_matches(f, x0)[2] == maxiter


def test_optimize_never_nears_the_iteration_cap(monkeypatch):
    # _nelder_mead_2d keeps no evaluation cap, and _NM_MAXITER only ends a
    # simplex that never meets the tolerances: every refinement optimize
    # runs, on every budget's clamped objective, stops far below it
    nits = []
    refine = E._nelder_mead_2d

    def recording(f, x0):
        out = refine(f, x0)
        nits.append(out[2])
        return out

    monkeypatch.setattr(E, "_nelder_mead_2d", recording)
    for model in ("t2", "t3", "t5"):
        E.tradeoff_curve(model, np.linspace(0.0, 0.25, 201).tolist())
    for model in ("classical", "t1", "t4", "noqram"):
        E.optimize(model)
    assert len(nits) == 2 * (3 * 201 + 4)
    assert max(nits) <= E._NM_MAXITER // 4


def _max_of_affine_plus_quadratic(planes, q):
    def f(a, b):
        return max(c0 + c1 * a + c2 * b for c0, c1, c2 in planes) + q * (a * a + b * b)

    return f


_coef = st.floats(-2.0, 2.0, allow_nan=False)


@given(
    planes=st.lists(st.tuples(_coef, _coef, _coef), min_size=1, max_size=4),
    q=st.floats(0.01, 1.0),  # bounded below, so no run diverges to overflow
    x0=st.tuples(_coef, _coef),
)
def test_nelder_mead_matches_scipy_on_random_objectives(planes, q, x0):
    _assert_nelder_mead_matches(_max_of_affine_plus_quadratic(planes, q), x0)


# --- _brent_bounded against scipy's minimize_scalar(method="bounded") ------


def _scipy_bounded(f, lo, hi):
    # the port's options, maxiter read at call time
    with np.errstate(invalid="ignore"):  # inf - inf in the parabola fit
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": E._BR_XATOL, "maxiter": E._BR_MAXITER})
    return float(res.x), float(res.fun), res.nfev


def _assert_brent_matches(f, lo, hi):
    got = E._brent_bounded(f, lo, hi)
    want = _scipy_bounded(f, lo, hi)
    assert got[0] == want[0] and _same(got[1], want[1]) and got[2] == want[2], (got, want)
    return got


_TAUS = (0.001, 0.01, 0.05, 0.1, 0.15, 0.2, E.N_RATE)


def _noqram_brackets():
    """(branch, lo, hi) as noqram_point brackets each branch's grid argmin."""
    out = []
    for tau in _TAUS:
        c = 0.75 * (1.0 - 2.0 ** (-2.0 * tau))
        grid = np.linspace(1e-6, math.sqrt(4.0 * c / 3.0) - 1e-12, 600).tolist()
        for sign in (1.0, -1.0):
            def g(b, c=c, tau=tau, sign=sign):
                return E._noqram_branch(b, c, tau, sign)
            k = int(np.argmin([g(b) for b in grid]))
            out.append((g, grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]))
    return out


@pytest.mark.parametrize("g, lo, hi", _noqram_brackets())
def test_brent_matches_scipy_on_noqram_branches(g, lo, hi):
    _assert_brent_matches(g, lo, hi)


def _nan_above(x):
    return (x - 0.3) ** 2 if x < 0.45 else math.nan


@pytest.mark.parametrize("g, lo, hi", [
    (lambda x: 2.0, 0.0, 1.0),  # flat: every comparison ties
    (lambda x: (x - 0.4) ** 2, 0.25, 0.25),  # lo == hi: one call
    (lambda x: x, 0.2, 0.7),  # minimum at the lower bound
    (lambda x: -x * x, -0.3, 0.9),  # minimum at the upper bound
    (lambda x: math.nan, 0.0, 1.0),  # NaN everywhere
    (_nan_above, 0.0, 1.0),  # NaN on part of the interval
    (lambda x: math.inf if x > 0.6 else abs(x - 0.55), 0.0, 1.0),  # an inf region
], ids=["flat", "lo-eq-hi", "lower-bound", "upper-bound", "nan", "nan-part", "inf-part"])
def test_brent_matches_scipy_on_awkward_functions(g, lo, hi):
    _assert_brent_matches(g, lo, hi)


@pytest.mark.parametrize("maxiter", [1, 2, 3, 6, 10])
def test_brent_matches_scipy_under_a_maxiter_cap(maxiter, monkeypatch):
    monkeypatch.setattr(E, "_BR_MAXITER", maxiter)
    got = _assert_brent_matches(lambda x: math.sin(40.0 * x) + 0.1 * x, 0.0, 1.0)
    assert got[2] == max(2, maxiter)  # the first call always runs, then one per pass


def _scipy_noqram_point(tau):
    """noqram_point as it read with scipy's bounded minimize_scalar."""
    c = 0.75 * (1.0 - 2.0 ** (-2.0 * tau))
    grid = np.linspace(1e-6, math.sqrt(4.0 * c / 3.0) - 1e-12, 600)
    best = None
    for sign in (1.0, -1.0):
        k = int(np.argmin([E._noqram_branch(b, c, tau, sign) for b in grid]))
        res = minimize_scalar(lambda b: E._noqram_branch(b, c, tau, sign),
                              bounds=(grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]),
                              method="bounded", options=dict(xatol=1e-12))
        cand = (float(res.fun), float(res.x), sign)
        if best is None or cand[0] < best[0]:
            best = cand
    val, b, sign = best
    a = (b + sign * math.sqrt(max(0.0, 4.0 * c - 3.0 * b * b))) / 2.0
    return E.NoQRAMPoint(tau, a, b, val)


@pytest.mark.parametrize("tau", _TAUS)
def test_noqram_point_matches_the_scipy_version(tau):
    assert E.noqram_point(tau) == _scipy_noqram_point(tau)


@pytest.mark.parametrize("call", [
    lambda v: E.optimize("t2", v),
    lambda v: E.model_terms("t5", 0.5, 0.5, v),
    E.lower_bound_rate,
    E.enum_rate,
], ids=["optimize", "model_terms", "lower_bound_rate", "enum_rate"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_rates_are_rejected(call, value):
    with pytest.raises(DomainError):
        call(value)
