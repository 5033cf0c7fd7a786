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
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc, betaincinv

from .errors import DomainError
from .rng import make_rng

# Rate of the list size n = (4/3)^{d/2}: the fixed point of sieving.
LIST_SIZE_RATE = 0.5 * math.log2(4.0 / 3.0)

_MC_SHARD = 1 << 16


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
# Exact cap volume via the regularized incomplete beta function.
# Continued fraction (modified Lentz), relative tolerance 1e-12.

_BETA_TOL = 1e-12
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


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
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


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


def cap_volume_mc(d: int, alpha: float, samples: int, seed: int) -> MCEstimate:
    """Direct Monte-Carlo cap volume: the fraction of uniform sphere
    samples with first coordinate >= alpha.

    Sampling is sharded into fixed blocks with per-shard derived seeds,
    so the estimate is bit-stable regardless of how shards are run.
    """
    if samples < 1:
        raise DomainError("cap_volume_mc needs samples >= 1")
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"cap_volume_mc needs alpha in [-1, 1], got {alpha}")
    hits = 0
    done = 0
    shard = 0
    while done < samples:
        m = min(_MC_SHARD, samples - done)
        x = make_rng(seed, shard).standard_normal((m, d))
        t = x[:, 0] / np.linalg.norm(x, axis=1)
        hits += int(np.count_nonzero(t >= alpha))
        done += m
        shard += 1
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
    half = 0.5 * betainc((d2 - 1) / 2.0, 0.5, 1.0 - hm * hm)
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


def wedge_volume_quad(d: int, alpha: float, beta: float, theta: float) -> float:
    """Wedge volume W(alpha, beta, theta) by 1-D quadrature.

    With phi the angle to the alpha-cap axis, the cosine marginal is
    sin^{d-2}(phi) / B((d-1)/2, 1/2) on [0, pi], and the points at
    angle phi that also lie in the beta-cap form a cap of S^{d-2} with
    threshold h(phi) = (beta - cos phi cos theta) / (sin phi sin theta).
    So W = int_0^{acos alpha} sin^{d-2}(phi) C_{d-1}(h(phi)) dphi / B.
    The integrand vanishes where h >= 1, i.e. outside theta -+ acos
    beta, and the cross-section is the whole sphere where h <= -1,
    i.e. below acos beta - theta; splitting there keeps quad on smooth
    pieces (for d = 2 the cross-section is a step).
    """
    alpha, beta = _check_wedge("wedge_volume_quad", d, alpha, beta, theta)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    a, b = math.acos(alpha), math.acos(beta)
    lo, hi = max(0.0, theta - b), min(a, theta + b)
    if hi <= lo:
        return 0.0
    log_norm = math.lgamma(d / 2.0) - math.lgamma((d - 1) / 2.0) - math.lgamma(0.5)

    def integrand(phi: float) -> float:
        s = math.sin(phi)
        h = (beta - math.cos(phi) * cos_t) / (s * sin_t)
        return s ** (d - 2) * float(_cross_section_volume(d - 1, np.array([h]))[0])

    full = b - theta  # below this angle the cross-section is all of S^{d-2}
    pieces = [(lo, full), (full, hi)] if lo < full < hi else [(lo, hi)]
    total = sum(
        quad(integrand, x, y, epsabs=0.0, epsrel=1e-11, limit=200)[0] for x, y in pieces
    )
    return math.exp(log_norm) * total


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
    done = 0
    shard = 0
    while done < samples:
        m = min(_MC_SHARD, samples - done)
        rng = make_rng(seed, shard)
        t = _truncated_cap_cosines(d, alpha, scale, m, rng)
        den = np.sqrt(np.maximum(0.0, 1.0 - t * t)) * sin_t
        num = beta - t * cos_t
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.where(num <= 0.0, -np.inf, np.inf))
        g = _cross_section_volume(d - 1, h)
        total += float(np.sum(g))
        total_sq += float(np.sum(g * g))
        done += m
        shard += 1
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / max(1, samples - 1))
    return MCEstimate(scale * mean, scale * math.sqrt(var / samples))
