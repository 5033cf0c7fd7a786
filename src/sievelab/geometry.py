"""Sphere-cap and wedge geometry on the unit sphere S^{d-1}.

Two layers live here.  The rate layer works with per-dimension base-2
exponents: a family of sets whose measure scales as 2^{r d + o(d)} is
represented by the single float r, so costs compose by addition and
nothing exponential is ever materialised.  The volume layer gives exact
and Monte-Carlo values of the same measures at concrete d, which is
what the rate tests calibrate against.

Conventions: caps and wedges are measured as fractions of the sphere,
so every volume sits in [0, 1].  C(alpha) is the cap {x : <x,v> >=
alpha}; W(alpha, beta, theta) is the intersection of an alpha-cap and a
beta-cap whose axes are at angle theta.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, GuardError
from .rng import make_rng

# Rate of the list size n = (4/3)^{d/2}: the fixed point of sieving.
LIST_SIZE_RATE = 0.5 * math.log2(4.0 / 3.0)

_MC_SHARD = 1 << 16
# Monte-Carlo samples per estimate; the largest count in use is 10^6
MC_SAMPLES_GUARD = 10**7


class MCEstimate(NamedTuple):
    estimate: float
    stderr: float


def cap_rate(alpha: float) -> float:
    """Per-dimension exponent of C(alpha): 0.5*log2(1 - alpha^2)."""
    if not -1.0 < alpha < 1.0:
        raise DomainError(f"cap_rate needs |alpha| < 1, got {alpha}")
    return 0.5 * math.log2(1.0 - alpha * alpha)


def wedge_rate(alpha: float, beta: float, theta: float) -> float:
    """Per-dimension exponent of W(alpha, beta, theta).

    Equals 0.5*log2(1 - gamma^2) with
    gamma^2 = (alpha^2 + beta^2 - 2 alpha beta cos theta) / sin^2 theta.
    Returns -inf when gamma >= 1 (the wedge is asymptotically empty).
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"wedge_rate needs theta in (0, pi), got {theta}")
    if not (-1.0 < alpha < 1.0 and -1.0 < beta < 1.0):
        raise DomainError("wedge_rate needs |alpha| < 1 and |beta| < 1")
    s2 = math.sin(theta) ** 2
    g2 = (alpha * alpha + beta * beta - 2.0 * alpha * beta * math.cos(theta)) / s2
    if g2 >= 1.0:
        return float("-inf")
    return 0.5 * math.log2(1.0 - g2)


def t_rate(alpha: float, beta: float) -> float:
    """Exponent of the filter count t = 1/W(alpha, beta, pi/3).

    Positive for nontrivial filters; +inf when the pi/3 wedge is
    asymptotically empty (no filter family can serve that pair).
    """
    r = wedge_rate(alpha, beta, math.pi / 3.0)
    if r == float("-inf"):
        return float("inf")
    return -r


# ---------------------------------------------------------------------------
# Exact cap volume via the regularized incomplete beta function: one
# continued fraction (modified Lentz), two stops.  reg_inc_beta, behind
# cap_volume_exact, stops at 1e-12 with math's front factor; the wedge
# cross-sections stop at 1e-14, where their quadrature came within 1e-14
# of scipy's betainc (3.4e-13 at 1e-12) for a tenth more time.  Sharing
# one front and one stop would move the exact cap volumes in the output.

_BETA_TOL = 1e-12
_FPMIN = 1e-300
_BETA_ARRAY_TOL = 1e-14


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError("reg_inc_beta needs a, b > 0")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_inc_beta needs x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # symmetry switch keeps the continued fraction in its fast region
    low = x < (a + 1.0) / (a + b + 2.0)
    p, q, y = (np.array([v], float) for v in ((a, b, x) if low else (b, a, 1.0 - x)))
    cf = float(_betacf(p, q, y, _BETA_TOL)[0])
    return front * cf / a if low else 1.0 - front * cf / b


def _betacf(a: np.ndarray, b: np.ndarray, x: np.ndarray, tol: float) -> np.ndarray:
    """The continued fraction of I_x(a, b), entrywise, each entry run
    until its own step changes the value by less than tol relative.

    Only +, -, *, / and comparisons touch the values, so an entry comes
    out as the same float that Python scalars would give.  Converged
    entries leave the working arrays, so each step costs only the
    entries still open.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[np.abs(d) < _FPMIN] = _FPMIN
    d = 1.0 / d
    h = d.copy()
    out = np.empty_like(x)
    at = np.arange(x.size)
    for m in range(1, 400):
        if not at.size:
            return out
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d[np.abs(d) < _FPMIN] = _FPMIN
            c = 1.0 + aa / c
            c[np.abs(c) < _FPMIN] = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        done = np.abs(delta - 1.0) < tol
        if done.any():
            out[at[done]] = h[done]
            at, a, b, x, qab, qap, qam, c, d, h = (
                v[~done] for v in (at, a, b, x, qab, qap, qam, c, d, h))
    if at.size:
        raise ArithmeticError("incomplete beta continued fraction did not converge")
    return out


def _reg_inc_beta_array(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """reg_inc_beta(a, b, .) on each entry of an array x in [0, 1].

    The same symmetry switch and continued fraction as the scalar form,
    with numpy's front factor and a tighter stop, so the two agree to
    about 1e-12 relative, though not bit for bit.
    """
    out = np.where(x == 1.0, 1.0, 0.0)
    inner = (0.0 < x) & (x < 1.0)
    xi = x[inner]
    front = np.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                   + a * np.log(xi) + b * np.log1p(-xi))
    low = xi < (a + 1.0) / (a + b + 2.0)
    # the continued fraction runs at (a, b, x) below the switch and at
    # (b, a, 1 - x) above it
    ca, cb = np.where(low, a, b), np.where(low, b, a)
    cf = _betacf(ca, cb, np.where(low, xi, 1.0 - xi), _BETA_ARRAY_TOL)
    out[inner] = np.where(low, front * cf / a, 1.0 - front * cf / b)
    return out


def cap_volume_exact(d: int, alpha: float) -> float:
    """Exact fractional volume of C(alpha) on S^{d-1}.

    C_d(alpha) = 0.5 * I_{1-alpha^2}((d-1)/2, 1/2) for alpha >= 0 and
    1 - C_d(-alpha) below the equator.
    """
    if d < 2 or d != int(d):
        raise DomainError(f"cap_volume_exact needs integer d >= 2, got {d}")
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"cap_volume_exact needs alpha in [-1, 1], got {alpha}")
    if alpha < 0.0:
        return 1.0 - cap_volume_exact(d, -alpha)
    if alpha == 1.0:
        return 0.0
    return 0.5 * reg_inc_beta((d - 1) / 2.0, 0.5, 1.0 - alpha * alpha)


# ---------------------------------------------------------------------------
# Monte Carlo.


def sample_sphere(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform points on S^{d-1}: normalized Gaussians."""
    if d < 1:
        raise DomainError(f"sample_sphere needs d >= 1, got {d}")
    m = 1 if size is None else size
    x = rng.standard_normal((m, d))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms == 0.0):  # probability ~0, but keep the contract exact
        bad = norms == 0.0
        x[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(x, axis=1)
    x /= norms[:, None]
    return x[0] if size is None else x


def check_mc_samples(samples: int) -> None:
    """Refuse a Monte-Carlo sample count past MC_SAMPLES_GUARD."""
    if samples > MC_SAMPLES_GUARD:
        raise GuardError(f"{samples} samples exceed the Monte-Carlo guard {MC_SAMPLES_GUARD}")


def _shards(samples: int, seed: int):
    """(size, rng) for each shard of at most _MC_SHARD samples.

    Shard i always draws from make_rng(seed, i), so an estimate is
    bit-stable regardless of how shards are run.
    """
    check_mc_samples(samples)
    for i, lo in enumerate(range(0, samples, _MC_SHARD)):
        yield min(_MC_SHARD, samples - lo), make_rng(seed, i)


def cap_volume_mc(d: int, alpha: float, samples: int, seed: int) -> MCEstimate:
    """Direct Monte-Carlo cap volume: the fraction of uniform sphere
    samples with first coordinate >= alpha."""
    if d < 1:
        raise DomainError("cap_volume_mc needs d >= 1")
    if samples < 1:
        raise DomainError("cap_volume_mc needs samples >= 1")
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"cap_volume_mc needs alpha in [-1, 1], got {alpha}")
    hits = 0
    for m, rng in _shards(samples, seed):
        x = rng.standard_normal((m, d))
        t = x[:, 0] / np.linalg.norm(x, axis=1)
        hits += int(np.count_nonzero(t >= alpha))
    p = hits / samples
    return MCEstimate(p, math.sqrt(p * (1.0 - p) / samples))


def _truncated_cap_cosines(
    d: int, alpha: float, q0: float, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Cosines <x,v> of uniform samples from the cap C(alpha).

    Inverts the Beta((d-1)/2, (d-1)/2) marginal of (1+t)/2 through its
    lower tail: cap mass q0 sits near y = 0 where doubles still have
    full resolution, whereas quantile arguments packed against 1 would
    collapse onto a handful of representable values once the cap drops
    below ~1e-13.
    """
    from scipy.special import betaincinv  # scipy loads only for Monte Carlo wedges

    a = (d - 1) / 2.0
    v = q0 * rng.random(m)
    y = betaincinv(a, a, v)
    return 1.0 - 2.0 * y


def _cross_section_volume(d2: int, h: np.ndarray) -> np.ndarray:
    """Cap fractions C_{d2}(h) for an array of thresholds, h in [-inf, inf]."""
    out = np.empty_like(h)
    out[h <= -1.0] = 1.0
    out[h >= 1.0] = 0.0
    mid = (h > -1.0) & (h < 1.0)
    if d2 == 1:
        out[mid] = 0.5  # S^0: only the +1 endpoint clears a threshold in (-1,1)
        return out
    hm = h[mid]
    half = 0.5 * _reg_inc_beta_array((d2 - 1) / 2.0, 0.5, 1.0 - hm * hm)
    out[mid] = np.where(hm >= 0.0, half, 1.0 - half)
    return out


def _check_wedge(name: str, d: int, alpha: float, beta: float, theta: float) -> tuple[float, float]:
    """Validate wedge arguments; return (alpha, beta) with alpha >= beta.

    Conditioning on the smaller cap is free because the wedge is
    symmetric under the swap, and it makes both evaluators exactly
    symmetric in their arguments.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"{name} needs theta in (0, pi), got {theta}")
    if d < 2:
        raise DomainError(f"{name} needs d >= 2, got {d}")
    if not (-1.0 <= alpha <= 1.0 and -1.0 <= beta <= 1.0):
        raise DomainError(f"{name} needs alpha, beta in [-1, 1]")
    return (beta, alpha) if alpha < beta else (alpha, beta)


# Tanh-sinh quadrature (Takahasi and Mori, 1974): t runs over [-4, 4] in
# steps of 2^-3, halved down to at most 2^-8 until two successive sums
# agree to _TANH_SINH_TOL.  A node is placed from the nearer end of its
# piece, so the nodes crowding an end keep their resolution, and its
# weight is built from exp(-2|u|), where cosh(u)^2 would overflow.
_TANH_SINH_TOL = 1e-14


def _tanh_sinh_levels() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per level, its new nodes: (in the left half, distance to the
    nearer end as a fraction of the piece, weight times the step)."""
    coarse, fine = 3, 8
    j = np.arange(-4 << fine, (4 << fine) + 1)
    t = j / float(1 << fine)
    e = np.exp(-math.pi * np.abs(np.sinh(t)))  # exp(-2|u|), u = (pi/2) sinh t
    frac = e / (1.0 + e)
    weight = math.pi * np.cosh(t) * e / (1.0 + e) ** 2  # (pi/4) cosh t sech^2 u
    levels = []
    for k in range(fine - coarse + 1):
        stride = 1 << (fine - coarse - k)
        new = (j % stride == 0) & ((k == 0) | (j % (2 * stride) != 0))
        levels.append((j[new] < 0, frac[new], weight[new] / float(1 << (coarse + k))))
    return levels


_TANH_SINH_LEVELS = _tanh_sinh_levels()


def _tanh_sinh(f: Callable[[np.ndarray, np.ndarray], np.ndarray], cuts: list[float]) -> float:
    """Integral from cuts[0] to cuts[-1], one tanh-sinh rule on each piece
    between successive cuts.  f(nodes, weights) returns the weights times
    the integrand at the nodes; it is called once per level, on every
    piece's nodes at once.  The integrand should be smooth between the
    cuts.  It may be singular at a cut, but the nodes stop about 1e-37
    of a piece's width short of its ends: x^-0.9 on (0, 1] loses the
    2e-3 of its integral that lies below them."""
    x, y = np.array(cuts[:-1])[:, None], np.array(cuts[1:])[:, None]
    width = y - x
    total = 0.0
    for k, (left, frac, weight) in enumerate(_TANH_SINH_LEVELS):
        level = float(np.sum(f(np.where(left, x + width * frac, y - width * frac), width * weight)))
        prev, total = total, 0.5 * total + level
        if k and abs(total - prev) <= _TANH_SINH_TOL * abs(total):
            break
    return total


def wedge_volume_quad(d: int, alpha: float, beta: float, theta: float) -> float:
    """Wedge volume W(alpha, beta, theta) by 1-D quadrature.

    With phi the angle to the alpha-cap axis, the cosine marginal is
    sin^{d-2}(phi) / B((d-1)/2, 1/2) on [0, pi], and the points at
    angle phi that also lie in the beta-cap form a cap of S^{d-2} with
    threshold h(phi) = (beta - cos phi cos theta) / (sin phi sin theta).
    So W = int_0^{acos alpha} sin^{d-2}(phi) C_{d-1}(h(phi)) dphi / B.
    The integrand vanishes where h >= 1, i.e. outside theta -+ acos
    beta, and the cross-section is the whole sphere where h <= -1,
    i.e. below acos beta - theta and above 2 pi - theta - acos beta.
    The interval is cut at those points, so every piece is smooth (for
    d = 2 the cross-section is a step), and all pieces run one
    tanh-sinh rule whose levels each evaluate the integrand once.
    """
    alpha, beta = _check_wedge("wedge_volume_quad", d, alpha, beta, theta)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    a, b = math.acos(alpha), math.acos(beta)
    lo, hi = max(0.0, theta - b), min(a, theta + b)
    if hi <= lo:
        return 0.0
    log_norm = math.lgamma(d / 2.0) - math.lgamma((d - 1) / 2.0) - math.lgamma(0.5)
    cuts = sorted({lo, hi} | {c for c in (b - theta, 2.0 * math.pi - theta - b) if lo < c < hi})

    def integrand(phi: np.ndarray, weight: np.ndarray) -> np.ndarray:
        s = np.sin(phi)
        h = (beta - np.cos(phi) * cos_t) / (s * sin_t)
        return weight * s ** (d - 2) * _cross_section_volume(d - 1, h)

    # the rule's rounding can carry a wedge of nearly the whole sphere a few
    # ulps past 1
    return min(1.0, math.exp(log_norm) * _tanh_sinh(integrand, cuts))


def wedge_volume_mc(
    d: int, alpha: float, beta: float, theta: float, samples: int, seed: int
) -> MCEstimate:
    """Monte-Carlo wedge volume W(alpha, beta, theta).

    Two-stage estimator: draw the cosine t along the first cap axis
    from its exact in-cap marginal, then average the exact volume of
    the residual cross-section cap instead of counting hits.  Each
    sample contributes a value in [0,1], so the estimate stays unbiased
    for the plain sphere-sampling fraction while the relative error
    remains workable even when the wedge itself is far below
    1/samples, which is the regime the rate checks need.
    """
    alpha, beta = _check_wedge("wedge_volume_mc", d, alpha, beta, theta)
    if samples < 1:
        raise DomainError("wedge_volume_mc needs samples >= 1")
    if alpha == 1.0:
        return MCEstimate(0.0, 0.0)
    scale = cap_volume_exact(d, alpha)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    total = 0.0
    total_sq = 0.0
    for m, rng in _shards(samples, seed):
        t = _truncated_cap_cosines(d, alpha, scale, m, rng)
        den = np.sqrt(np.maximum(0.0, 1.0 - t * t)) * sin_t
        num = beta - t * cos_t
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.where(num <= 0.0, -np.inf, np.inf))
        g = _cross_section_volume(d - 1, h)
        total += float(np.sum(g))
        total_sq += float(np.sum(g * g))
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / max(1, samples - 1))
    return MCEstimate(scale * mean, scale * math.sqrt(var / samples))
