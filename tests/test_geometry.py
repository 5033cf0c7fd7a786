"""Geometry layer: rates, exact cap volumes, Monte Carlo estimators.

Low-dimensional closed forms (circle arcs, the linear d=3 cap) serve as
oracles computed independently of the implementation under test.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import sievelab

from sievelab import geometry as G
from sievelab.errors import DomainError
from sievelab.rng import DEFAULT_SEED, make_rng


def arc_cap(alpha):
    # d=2: fraction of the circle with x[0] >= alpha
    return math.acos(alpha) / math.pi


def arc_wedge(alpha, beta, theta):
    # d=2: x = (cos phi, sin phi); cap around angle 0 and around theta.
    # The arc around theta can reach past the antipode pi, where it meets
    # the cap around 0 again from below: overlap it shifted by -2pi, 0, 2pi
    a = math.acos(alpha)
    b = math.acos(beta)
    overlap = 0.0
    for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
        overlap += max(0.0, min(a, theta + b + shift) - max(-a, theta - b + shift))
    return overlap / (2.0 * math.pi)


# --- rates -----------------------------------------------------------------


def test_list_size_rate_value():
    assert G.LIST_SIZE_RATE == pytest.approx(0.5 * math.log2(4.0 / 3.0), abs=1e-15)
    assert G.LIST_SIZE_RATE == pytest.approx(0.2075187, abs=1e-6)


def test_cap_rate_values():
    assert G.cap_rate(0.5) == pytest.approx(0.5 * math.log2(0.75), abs=1e-15)
    assert G.cap_rate(0.0) == 0.0
    assert G.cap_rate(-0.5) == G.cap_rate(0.5)  # rate ignores the o(d) half


def test_cap_rate_domain():
    for bad in (-1.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            G.cap_rate(bad)


def test_wedge_rate_pinned():
    # gamma^2 = 1/3 at alpha = beta = 1/2, theta = pi/3
    assert G.wedge_rate(0.5, 0.5, math.pi / 3) == pytest.approx(
        0.5 * math.log2(2.0 / 3.0), abs=1e-15
    )


def test_wedge_rate_empty_is_minus_inf():
    # two deep caps at a right angle cannot intersect
    assert G.wedge_rate(0.9, 0.9, math.pi / 2) == -math.inf


def test_t_rate_pinned_and_sentinel():
    assert G.t_rate(0.5, 0.5) == pytest.approx(0.5 * math.log2(1.5), abs=1e-15)
    assert G.t_rate(0.95, 0.95) == math.inf


def test_t_rate_matches_wedge_at_pi_3():
    rng = make_rng(DEFAULT_SEED, 1)
    for _ in range(50):
        a, b = rng.uniform(0.05, 0.7, size=2)
        w = G.wedge_rate(a, b, math.pi / 3)
        t = G.t_rate(a, b)
        if math.isinf(w):
            assert t == math.inf
        else:
            assert t == pytest.approx(-w, abs=1e-14)


# --- exact cap volumes -----------------------------------------------------


def test_reg_inc_beta_against_scipy():
    rng = make_rng(DEFAULT_SEED, 2)
    for _ in range(300):
        a = rng.uniform(0.5, 250.0)
        b = rng.uniform(0.4, 5.0)
        x = rng.uniform(0.0, 1.0)
        ours = G.reg_inc_beta(a, b, x)
        ref = sps.betainc(a, b, x)
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-14)


# The scalar continued fraction and reg_inc_beta as they stood before the
# array kernel took over both callers: Python floats, stop at 1e-12.
def _ref_betacf(a, b, x):
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _ref_reg_inc_beta(a, b, x):
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _ref_betacf(a, b, x) / a
    return 1.0 - front * _ref_betacf(b, a, 1.0 - x) / b


def _ref_cap_volume(d, alpha):
    if alpha < 0.0:
        return 1.0 - _ref_cap_volume(d, -alpha)
    if alpha == 1.0:
        return 0.0
    return 0.5 * _ref_reg_inc_beta((d - 1) / 2.0, 0.5, 1.0 - alpha * alpha)


@st.composite
def _beta_args(draw):
    a = draw(st.floats(0.05, 300.0))
    b = draw(st.one_of(st.just(0.5), st.floats(0.05, 6.0)))
    switch = (a + 1.0) / (a + b + 2.0)
    x = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [switch, math.nextafter(switch, 0.0), math.nextafter(switch, 1.0),
         1e-300, 1e-12, 1.0 - 1e-12])))
    return a, b, x


@given(args=_beta_args())
def test_reg_inc_beta_bit_equal_to_scalar_reference(args):
    # the array kernel on one entry gives the scalar fraction's very float
    assert G.reg_inc_beta(*args) == _ref_reg_inc_beta(*args)


def test_cap_volume_exact_bit_equal_to_scalar_reference():
    for d in range(2, 65):
        for alpha in np.linspace(-1.0, 1.0, 41).tolist():
            assert G.cap_volume_exact(d, alpha) == _ref_cap_volume(d, alpha), (d, alpha)


def test_array_incomplete_beta_against_scipy():
    # the wedge cross-section's form: b = 1/2 and a = (d2 - 1) / 2 for every
    # d2 up to 64, at the ends, near them and between
    x = np.array([0.0, 1.0, 1e-300, 1e-100, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99,
                  1 - 1e-6, 1 - 1e-10])
    for a in np.arange(0.5, 32.0, 0.5):
        ours = G._reg_inc_beta_array(a, 0.5, x)
        ref = sps.betainc(a, 0.5, x)
        assert ours[0] == 0.0 and ours[1] == 1.0
        # below the least normal double (x^a at x = 1e-12, a >= 26) no value
        # has 11 digits, and scipy flushes to 0 where the fraction keeps a few
        assert ours == pytest.approx(ref, rel=1e-11, abs=np.finfo(float).tiny), a
    # one ulp below 1, where scipy keeps only 9 digits at a = 1/2: the closed
    # forms I_x(1/2, 1/2) = (2/pi) asin(sqrt(x)) and I_x(1, 1/2) = 1 - sqrt(1 - x)
    x = np.array([1.0 - 2.0**-53])
    assert G._reg_inc_beta_array(0.5, 0.5, x)[0] == pytest.approx(
        1.0 - 2.0 / math.pi * math.asin(math.sqrt(2.0**-53)), rel=1e-15)
    assert G._reg_inc_beta_array(1.0, 0.5, x)[0] == pytest.approx(1.0 - 2.0**-26.5, rel=1e-15)


def test_cap_volume_exact_arc_oracle():
    for alpha in (-0.75, -0.5, 0.0, 0.25, 0.5, 0.9):
        assert G.cap_volume_exact(2, alpha) == pytest.approx(arc_cap(alpha), rel=1e-11)


def test_cap_volume_exact_d3_linear():
    # d=3 cap fraction is exactly (1 - alpha)/2
    for alpha in (-0.6, 0.0, 0.3, 0.8):
        assert G.cap_volume_exact(3, alpha) == pytest.approx((1 - alpha) / 2, rel=1e-12)


def test_cap_volume_exact_edges():
    assert G.cap_volume_exact(10, -1.0) == 1.0
    assert G.cap_volume_exact(10, 0.0) == pytest.approx(0.5, rel=1e-12)
    assert G.cap_volume_exact(10, 1.0) == 0.0


def test_cap_volume_exact_reflection():
    for d in (4, 17, 60):
        for alpha in (0.2, 0.45, 0.7):
            s = G.cap_volume_exact(d, alpha) + G.cap_volume_exact(d, -alpha)
            assert s == pytest.approx(1.0, rel=1e-11)


def test_cap_volume_rate_convergence():
    # per-dimension exponent approaches cap_rate; the o(d) defect at
    # d=400 is about (log2 d)/(2d), comfortably below 0.012
    d = 400
    slope = math.log2(G.cap_volume_exact(d, 0.5)) / d
    assert abs(slope - G.cap_rate(0.5)) <= 0.012


def test_cap_volume_exact_domain():
    with pytest.raises(DomainError):
        G.cap_volume_exact(1, 0.5)
    with pytest.raises(DomainError):
        G.cap_volume_exact(8, 1.5)


# --- Monte Carlo -----------------------------------------------------------


def test_sample_sphere_norms_and_determinism():
    rng = make_rng(DEFAULT_SEED, 3)
    x = G.sample_sphere(12, rng, size=500)
    assert x.shape == (500, 12)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
    y = G.sample_sphere(12, make_rng(DEFAULT_SEED, 3), size=500)
    assert np.array_equal(x, y)


def test_cap_volume_mc_matches_exact():
    for d, alpha in ((2, 0.5), (6, 0.3), (24, 0.5), (48, 0.2)):
        exact = G.cap_volume_exact(d, alpha)
        est = G.cap_volume_mc(d, alpha, samples=200_000, seed=DEFAULT_SEED)
        assert est.stderr > 0
        assert abs(est.estimate - exact) <= 4 * est.stderr


def test_cap_volume_mc_one_dimension():
    # S^0 = {-1, +1}: C(alpha) is 1/2 for 0 < alpha <= 1
    est = G.cap_volume_mc(1, 0.3, samples=20_000, seed=1)
    assert abs(est.estimate - 0.5) <= 4 * est.stderr


def test_cap_volume_mc_deterministic():
    a = G.cap_volume_mc(8, 0.4, samples=70_000, seed=123)
    b = G.cap_volume_mc(8, 0.4, samples=70_000, seed=123)
    c = G.cap_volume_mc(8, 0.4, samples=70_000, seed=124)
    assert a == b
    assert a != c


def test_wedge_volume_mc_arc_oracle():
    # d=2 wedge fractions have an exact arc-intersection formula
    cases = [
        (0.5, 0.5, math.pi / 3),
        (0.3, 0.6, math.pi / 3),
        (0.2, 0.2, math.pi / 2),
    ]
    for alpha, beta, theta in cases:
        exact = arc_wedge(alpha, beta, theta)
        est = G.wedge_volume_mc(2, alpha, beta, theta, samples=300_000, seed=DEFAULT_SEED)
        assert abs(est.estimate - exact) <= 4 * est.stderr + 1e-12


def test_wedge_volume_mc_symmetry():
    # roles are normalised internally, so the estimate is exactly symmetric
    e1 = G.wedge_volume_mc(10, 0.5, 0.3, math.pi / 3, samples=50_000, seed=7)
    e2 = G.wedge_volume_mc(10, 0.3, 0.5, math.pi / 3, samples=50_000, seed=7)
    assert e1 == e2


# Oracle values: 1-D quadrature of the conditional-cap integral
# W(d) = int_alpha^1 f_d(t) C_{d-1}((beta - t cos th)/(sqrt(1-t^2) sin th)) dt
# with f_d the cosine marginal, evaluated to rel. 1e-11 (scipy quad).
WEDGE_HALF_PI3 = {
    6: 3.904424e-02,
    24: 3.869398e-04,
    64: 5.159055e-08,
    200: 1.9253577e-20,
}


def test_wedge_volume_mc_matches_quadrature():
    for d, exact in WEDGE_HALF_PI3.items():
        est = G.wedge_volume_mc(d, 0.5, 0.5, math.pi / 3, samples=400_000, seed=DEFAULT_SEED)
        assert est.stderr > 0
        assert abs(est.estimate - exact) <= 5 * est.stderr + 1e-7 * exact


def test_wedge_volume_mc_deep_slope():
    # at d=200 the volume is near 2^{-65.5}: slope -0.3275, which is the
    # asymptotic rate -0.29248 plus a log2(d)-sized prefactor defect;
    # the estimator must resolve the true value, not the asymptote
    d = 200
    est = G.wedge_volume_mc(d, 0.5, 0.5, math.pi / 3, samples=1_000_000, seed=DEFAULT_SEED)
    assert est.estimate > 0
    assert est.stderr / est.estimate < 0.005
    slope = math.log2(est.estimate) / d
    assert abs(slope - (-0.327468)) <= 0.001


def test_wedge_slope_defect_shrinks_with_dimension():
    # quadrature slopes at d = 100, 200, 400 approach the rate from below
    rate = G.wedge_rate(0.5, 0.5, math.pi / 3)
    slopes = {100: -0.35314, 200: -0.32747, 400: -0.31238}
    defects = [abs(slopes[d] - rate) for d in (100, 200, 400)]
    assert defects[0] > defects[1] > defects[2]


def test_wedge_volume_mc_identical_hemispheres():
    est = G.wedge_volume_mc(40, 0.0, 0.0, 1e-6, samples=10_000, seed=1)
    assert abs(est.estimate - 0.5) <= 3 * est.stderr + 1e-9


def test_wedge_within_each_cap():
    for d, a, b in ((8, 0.4, 0.2), (16, 0.5, 0.5), (24, 0.1, 0.6)):
        w = G.wedge_volume_mc(d, a, b, math.pi / 3, samples=50_000, seed=11)
        ca = G.cap_volume_mc(d, a, samples=50_000, seed=11)
        cb = G.cap_volume_mc(d, b, samples=50_000, seed=11)
        cap_min = min(ca.estimate, cb.estimate)
        assert w.estimate <= cap_min + 3 * (w.stderr + ca.stderr + cb.stderr)


def test_cap_rate_is_wedge_rate_at_vanishing_angle():
    for alpha in (0.2, 0.5, 0.7):
        assert abs(G.cap_rate(alpha) - G.wedge_rate(alpha, alpha, 1e-4)) <= 1e-6


def test_wedge_volume_mc_deterministic():
    a = G.wedge_volume_mc(6, 0.4, 0.4, math.pi / 3, samples=50_000, seed=9)
    b = G.wedge_volume_mc(6, 0.4, 0.4, math.pi / 3, samples=50_000, seed=9)
    assert a == b


# --- wedge quadrature -------------------------------------------------------


def test_wedge_volume_quad_matches_quadrature_oracle():
    for d, exact in WEDGE_HALF_PI3.items():
        assert abs(G.wedge_volume_quad(d, 0.5, 0.5, math.pi / 3) - exact) <= 1e-6 * exact


def test_wedge_volume_quad_arc_oracle():
    cases = [
        (0.5, 0.5, math.pi / 3),
        (0.3, 0.6, math.pi / 3),
        (0.2, 0.2, math.pi / 2),
        (-0.5, 0.9, 2.5),
        (0.9, -0.3, 0.4),
        (0.99, 0.99, 3.0),  # caps too far apart: empty wedge
    ]
    for alpha, beta, theta in cases:
        exact = arc_wedge(alpha, beta, theta)
        assert G.wedge_volume_quad(2, alpha, beta, theta) == pytest.approx(exact, abs=1e-12)


def test_wedge_volume_quad_arc_oracle_past_the_antipode():
    # the CLI's default thresholds alpha = beta = cos theta: past theta =
    # 2 pi / 3 the cross-section is the whole circle again near phi = theta
    for theta in (2.2, 2.5128520972937682, 3.0):
        c = math.cos(theta)
        exact = arc_wedge(c, c, theta)
        assert exact == pytest.approx((2.0 * theta - math.pi) / math.pi, abs=1e-15)
        assert G.wedge_volume_quad(2, c, c, theta) == pytest.approx(exact, abs=1e-12)
    assert G.wedge_volume_quad(2, -0.3, 0.6, 2.2) == pytest.approx(arc_wedge(-0.3, 0.6, 2.2),
                                                                   abs=1e-12)


def _scipy_wedge(d, alpha, beta, theta):
    """W by scipy.integrate.quad on the pieces wedge_volume_quad cuts."""
    alpha, beta = max(alpha, beta), min(alpha, beta)
    a, b = math.acos(alpha), math.acos(beta)
    lo, hi = max(0.0, theta - b), min(a, theta + b)
    if hi <= lo:
        return 0.0
    cuts = sorted({lo, hi} | {c for c in (b - theta, 2 * math.pi - theta - b) if lo < c < hi})

    def integrand(phi):
        s = math.sin(phi)
        h = (beta - math.cos(phi) * math.cos(theta)) / (s * math.sin(theta))
        if h <= -1.0 or h >= 1.0:
            cross = float(h <= -1.0)
        elif d == 2:
            cross = 0.5
        else:
            half = 0.5 * sps.betainc((d - 2) / 2.0, 0.5, 1.0 - h * h)
            cross = half if h >= 0.0 else 1.0 - half
        return s ** (d - 2) * cross

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        total = sum(quad(integrand, x, y, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for x, y in zip(cuts, cuts[1:]))
    return total / sps.beta((d - 1) / 2.0, 0.5)


@given(d=st.integers(2, 64), alpha=st.floats(-0.95, 0.95), beta=st.floats(-0.95, 0.95),
       theta=st.floats(0.05, math.pi - 0.05))
@example(d=36, alpha=0.29675421248255907, beta=0.29675421248255907, theta=0.5940528019962904)
def test_wedge_volume_quad_matches_scipy_quad(d, alpha, beta, theta):
    # scipy's quad can drift past the bound (at the example, by 1.03e-12
    # relative); there 30-digit mpmath decides, at the same bound
    got, ref = G.wedge_volume_quad(d, alpha, beta, theta), _scipy_wedge(d, alpha, beta, theta)
    if got != pytest.approx(ref, rel=1e-12, abs=0.0):
        ref = _mpmath_wedge(pytest.importorskip("mpmath"), d, alpha, beta, theta)
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def _mpmath_wedge(mpmath, d, alpha, beta, theta):
    """_scipy_wedge's integral by 30-digit mpmath.quad."""
    with mpmath.workdps(30):
        alpha, beta = max(alpha, beta), min(alpha, beta)
        beta, theta = mpmath.mpf(beta), mpmath.mpf(theta)
        a, b = mpmath.acos(alpha), mpmath.acos(beta)
        lo, hi = max(mpmath.mpf(0), theta - b), min(a, theta + b)
        cuts = sorted({lo, hi} | {c for c in (b - theta, 2 * mpmath.pi - theta - b) if lo < c < hi})

        def integrand(phi):
            s = mpmath.sin(phi)
            h = (beta - mpmath.cos(phi) * mpmath.cos(theta)) / (s * mpmath.sin(theta))
            if h <= -1 or h >= 1:
                cross = int(h <= -1)
            elif d == 2:
                cross = mpmath.mpf(0.5)
            else:
                half = mpmath.betainc((d - 2) / mpmath.mpf(2), 0.5, 0, 1 - h * h,
                                      regularized=True) / 2
                cross = half if h >= 0 else 1 - half
            return s ** (d - 2) * cross

        return float(mpmath.quad(integrand, cuts) / mpmath.beta((d - 1) / mpmath.mpf(2), 0.5))


def test_wedge_volume_quad_matches_mpmath_where_scipy_quad_drifts():
    # here the scipy-quad reference is off by 1.03e-12 relative, past the
    # property test's bound, whatever its epsrel; wedge_volume_quad is right
    mpmath = pytest.importorskip("mpmath")
    d, c, theta = 36, 0.29675421248255907, 0.5940528019962904
    assert G.wedge_volume_quad(d, c, c, theta) == pytest.approx(
        _mpmath_wedge(mpmath, d, c, c, theta), rel=1e-13, abs=0.0)


def test_import_raises_no_warning():
    # the tanh-sinh node table is built at import
    src = Path(sievelab.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-W", "error", "-c", "import sievelab"],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_wedge_volume_quad_is_exactly_symmetric():
    for d, a, b, theta in ((10, 0.5, 0.3, math.pi / 3), (24, 0.45, 0.55, 1.1), (3, -0.2, 0.7, 2.0)):
        assert G.wedge_volume_quad(d, a, b, theta) == G.wedge_volume_quad(d, b, a, theta)


def test_wedge_volume_quad_agrees_with_monte_carlo():
    for d, a, b, theta in ((3, 0.2, 0.4, 1.0), (8, 0.4, 0.5, math.pi / 3), (16, 0.1, 0.3, 2.0)):
        est = G.wedge_volume_mc(d, a, b, theta, samples=200_000, seed=DEFAULT_SEED)
        assert abs(G.wedge_volume_quad(d, a, b, theta) - est.estimate) <= 4 * est.stderr + 1e-9


def test_wedge_volume_quad_never_exceeds_one():
    # the caps miss at most 3e-17 of the sphere, and the unclamped sum
    # read 1 + 7e-16
    w = G.wedge_volume_quad(52, -0.9389358568328889, -0.867779482853561, 0.09682992843833851)
    assert 0.0 <= w <= 1.0
    assert w == pytest.approx(1.0, abs=1e-12)


def test_wedge_volume_quad_degenerate_caps():
    # two hemispheres at angle theta overlap in a lune of (pi - theta) / (2 pi)
    for d, theta in ((3, 0.7), (40, 1e-6), (64, 2.5)):
        assert G.wedge_volume_quad(d, 0.0, 0.0, theta) == pytest.approx(
            (math.pi - theta) / (2 * math.pi), rel=1e-10
        )
    assert G.wedge_volume_quad(12, 1.0, 0.3, 1.0) == 0.0
    assert G.wedge_volume_quad(12, -1.0, -1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert G.wedge_volume_quad(12, -1.0, 0.5, 1.0) == pytest.approx(
        G.cap_volume_exact(12, 0.5), rel=1e-10
    )


@pytest.mark.parametrize(
    "d, alpha, beta, theta",
    [
        (1, 0.5, 0.5, 1.0),
        (0, 0.5, 0.5, 1.0),
        (8, 0.5, 0.5, 0.0),
        (8, 0.5, 0.5, math.pi),
        (8, 0.5, 0.5, -1.0),
        (8, 1.5, 0.5, 1.0),
        (8, 0.5, -1.01, 1.0),
    ],
)
def test_wedge_volume_quad_rejects_what_monte_carlo_rejects(d, alpha, beta, theta):
    with pytest.raises(DomainError):
        G.wedge_volume_mc(d, alpha, beta, theta, samples=100, seed=1)
    with pytest.raises(DomainError):
        G.wedge_volume_quad(d, alpha, beta, theta)
