"""Asymptotic cost models for filtered sieving, in rate space.

A "rate" is the per-dimension base-2 exponent of a quantity scaling as
2^{r d + o(d)}.  All models below are expressed as a small list of term
rates whose maximum is the running-time rate; products of exponential
quantities become sums of rates and sums become maxima, so nothing
exponential is ever materialised.

Fixed ingredients, with n = 0.20752 the list-size rate:

    classical   n t C(beta) + n t C(alpha) + n^2 t C(alpha) C(beta)
    t1          third term amplified: n sqrt(n t C(alpha) C(beta))
    t2          third term divided by sqrt(memory) gamma^{d/2}
    t3          third term divided by gamma^d, falling back to the
                square-root form once memory saturates
    t4          bucket phase amplified as one bracket: n sqrt(t C(alpha)
                + n t C(alpha) C(beta))
    t5          the t4 bracket divided by gamma^{d/2}
    noqram      bucket phase amplified with a circuit-style filter
                oracle and no addressable memory at all

gamma_rate is log2(gamma) for memory budget gamma^d.  Admissible
budgets never exceed the search space the model actually touches;
optimize() treats excess budget as unused, which is what makes the
trade-off curves saturate and go flat.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, RangeError
from .geometry import LIST_SIZE_RATE, cap_rate, t_rate

N_RATE = LIST_SIZE_RATE

MODELS = ("classical", "t1", "t2", "t3", "t4", "t5", "noqram")

# saturation ends of the closed-form curves (gamma, not gamma_rate);
# GAMMA_MAX's keys are the models that take a memory budget
T2_GAMMA_MAX = 13.0 / 12.0
T3_GAMMA_MAX = math.sqrt(13.0 / 12.0)
T5_GAMMA_MAX = 1.07122
GAMMA_MAX = {"t2": T2_GAMMA_MAX, "t3": T3_GAMMA_MAX, "t5": T5_GAMMA_MAX}

# reference sieve-time rates used by the block-reduction plots
SIEVE_RATE_NOQRAM = 0.2925
SIEVE_RATE_FULLQRAM = 0.2563


@dataclass(frozen=True)
class TradeoffPoint:
    model: str
    gamma_rate: float
    alpha: float
    beta: float
    t_rate: float
    time_rate: float
    qram_rate: float
    term_rates: tuple[float, ...]


def _check_budget(model: str, gamma_rate: float) -> None:
    if model not in MODELS:
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")
    if not gamma_rate >= 0.0 or math.isinf(gamma_rate):
        raise DomainError(f"gamma_rate must be finite and >= 0, got {gamma_rate}")
    if model not in GAMMA_MAX and gamma_rate != 0.0:
        raise RangeError(
            f"model {model!r} takes no memory budget; gamma_rate must be 0", bound=0.0
        )


def _select(cond, a, b):
    return a if cond else b


def _ops(x):
    """(max, select) for the term table: builtins on floats, so the
    Nelder-Mead objective stays cheap and returns Python floats, and
    numpy ufuncs on the seeding grid's arrays."""
    if isinstance(x, np.ndarray):
        return np.maximum, np.where
    return max, _select


def _gamma_bound(model: str, t, ca, cb):
    """Largest useful memory rate for the model at this (alpha, beta);
    0 for the models that take no budget."""
    space = N_RATE + t + ca + cb
    mx = _ops(t)[0]
    if model == "t2":
        return mx(space, 0.0)
    if model == "t3":
        return mx(space / 2.0, 0.0)
    if model == "t5":
        return mx(mx(t + ca, space), 0.0)
    return 0.0


def _terms(model: str, t, ca, cb, sigma) -> tuple:
    """Term rates at filter rate t, cap rates ca, cb and used budget sigma
    (floats, or arrays of one shape)."""
    n = N_RATE
    space = n + t + ca + cb
    mx, select = _ops(t)
    if model == "classical":
        return (n + t + cb, n + t + ca, n + space)
    if model == "t1":
        return (n + t + cb, n + t + ca, n + space / 2.0)
    if model == "t2":
        return (n + t + cb, n + t + ca, n + space - sigma / 2.0)
    if model == "t3":
        third = select(sigma <= space / 2.0, n + space - sigma, n + space / 2.0)
        return (n + t + cb, n + t + ca, third)
    if model == "t4":
        return (n + t + cb, n + (t + ca) / 2.0, n + space / 2.0)
    if model == "t5":
        return (n + t + cb, n + t + ca - sigma / 2.0, n + space - sigma / 2.0)
    if model == "noqram":
        return (n + t + cb, n + (t + ca) / 2.0 + mx(0.0, n + cb))
    raise DomainError(f"unknown model {model!r}")


def model_terms(
    model: str, alpha: float, beta: float, gamma_rate: float = 0.0
) -> tuple[float, ...]:
    """Term rates of the model at (alpha, beta) and memory rate gamma_rate.

    The running-time rate is max(terms).  Raises RangeError when
    gamma_rate exceeds what the model can address at this point; the
    error carries the admissible bound.
    """
    _check_budget(model, gamma_rate)
    t = t_rate(alpha, beta)
    if math.isinf(t):
        raise DomainError(f"no admissible filters at alpha={alpha}, beta={beta}")
    ca, cb = cap_rate(alpha), cap_rate(beta)
    bound = _gamma_bound(model, t, ca, cb)
    # t3 falls back to the square-root form once memory saturates
    if model in ("t2", "t5") and gamma_rate > bound + 1e-12:
        raise RangeError(
            f"gamma_rate {gamma_rate} exceeds admissible bound {bound} "
            f"for model {model!r} at alpha={alpha}, beta={beta}",
            bound=bound,
        )
    return _terms(model, t, ca, cb, gamma_rate)


def _objective(model: str, sigma: float) -> Callable[[float, float], float]:
    def f(a: float, b: float) -> float:
        if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
            return math.inf
        u = 1.0 - (4.0 / 3.0) * (a * a - a * b + b * b)
        if u <= 0.0:
            return math.inf
        t = -0.5 * math.log2(u)
        ca = 0.5 * math.log2(1.0 - a * a)
        cb = 0.5 * math.log2(1.0 - b * b)
        return max(_terms(model, t, ca, cb, min(sigma, _gamma_bound(model, t, ca, cb))))

    return f


def _seed_grid() -> tuple[np.ndarray, ...]:
    """The 0.01 seeding grid over [0.05, 0.95]^2 with its filter and cap
    rates (T is inf where no filter fits); read-only, built once."""
    a = np.arange(0.05, 0.9501, 0.01)
    A, B = np.meshgrid(a, a, indexing="ij")
    U = 1.0 - (4.0 / 3.0) * (A * A - A * B + B * B)
    ok = U > 0.0
    T = np.full_like(A, np.inf)
    T[ok] = -0.5 * np.log2(U[ok])
    CA = 0.5 * np.log2(1.0 - A * A)
    CB = 0.5 * np.log2(1.0 - B * B)
    grid = (A, B, ok, T, CA, CB)
    for arr in grid:
        arr.flags.writeable = False
    return grid


_SEED_A, _SEED_B, _SEED_OK, _SEED_T, _SEED_CA, _SEED_CB = _seed_grid()


def _grid_seed(model: str, sigma: float) -> tuple[float, float]:
    S = np.minimum(sigma, _gamma_bound(model, _SEED_T, _SEED_CA, _SEED_CB))
    val = functools.reduce(np.maximum, _terms(model, _SEED_T, _SEED_CA, _SEED_CB, S))
    val[~_SEED_OK] = np.inf
    i, j = np.unravel_index(int(np.argmin(val)), val.shape)
    return float(_SEED_A[i, j]), float(_SEED_B[i, j])


# ---------------------------------------------------------------------------
# Scalar port of scipy 1.17's minimize(method="Nelder-Mead") for N = 2
# (non-adaptive, unbounded).  It runs the same float operations in the
# same order, so it returns the same bits, without scipy's per-iteration
# numpy bookkeeping on 3x2 arrays.

_NM_XATOL = 1e-10
_NM_FATOL = 1e-12
_NM_MAXITER = 4000
_NM_MAXFEV = 8000


class _MaxFevReached(Exception):
    """The next objective call would exceed maxfev (scipy aborts the
    iteration in progress and keeps what it had already assigned)."""


def _before(u: float, v: float) -> bool:
    """u sorts strictly before v in np.argsort's order: ascending, NaN last."""
    return u < v or (v != v and u == u)


def _sort3(p: list, q: list, r: list) -> tuple[list, list, list]:
    """Stable sort of three [x, y, f] vertices by f, as np.argsort orders
    them (ties, inf ties included, keep their positions; NaN goes last)."""
    if _before(q[2], p[2]):
        p, q = q, p
    if _before(r[2], q[2]):
        return (r, p, q) if _before(r[2], p[2]) else (p, r, q)
    return p, q, r


def _nelder_mead_2d(
    f: Callable[[float, float], float],
    x0: tuple[float, float],
    maxiter: int = _NM_MAXITER,
    maxfev: int = _NM_MAXFEV,
) -> tuple[tuple[float, float], float, int, int]:
    """Minimise f(x, y) from x0 by scipy's Nelder-Mead; returns
    ((x, y), fun, nfev, nit) equal to scipy's res.x, fun, nfev and nit.

    Coefficients rho, chi, psi, sigma = 1, 2, 1/2, 1/2, written out in
    scipy's operand order; the initial simplex moves each nonzero
    coordinate by 5 % and each zero one to 0.00025.
    """
    nfev = 0

    def call(x: float, y: float) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFevReached
        nfev += 1
        return f(x, y)

    a, b = x0
    v0 = [a, b, math.inf]
    v1 = [(1 + 0.05) * a if a != 0 else 0.00025, b, math.inf]
    v2 = [a, (1 + 0.05) * b if b != 0 else 0.00025, math.inf]
    try:
        for v in (v0, v1, v2):
            v[2] = call(v[0], v[1])
    except _MaxFevReached:
        pass
    v0, v1, v2 = _sort3(v0, v1, v2)
    nit = 1
    while nfev < maxfev and nit < maxiter:
        bx, by, bf = v0
        # a NaN anywhere (inf - inf included) fails the test, as in
        # scipy's np.max(...) <= tol
        if (abs(v1[0] - bx) <= _NM_XATOL and abs(v1[1] - by) <= _NM_XATOL
                and abs(v2[0] - bx) <= _NM_XATOL and abs(v2[1] - by) <= _NM_XATOL
                and abs(bf - v1[2]) <= _NM_FATOL and abs(bf - v2[2]) <= _NM_FATOL):
            break
        try:
            mx, my = (bx + v1[0]) / 2, (by + v1[1]) / 2
            wx, wy, wf = v2
            xr, yr = 2 * mx - wx, 2 * my - wy  # reflect
            fxr = call(xr, yr)
            if fxr < bf:
                xe, ye = 3 * mx - 2 * wx, 3 * my - 2 * wy  # expand
                fxe = call(xe, ye)
                v2 = [xe, ye, fxe] if fxe < fxr else [xr, yr, fxr]
            elif fxr < v1[2]:
                v2 = [xr, yr, fxr]
            else:
                if fxr < wf:
                    xc, yc = 1.5 * mx - 0.5 * wx, 1.5 * my - 0.5 * wy  # contract
                    fxc = call(xc, yc)
                    shrink = not fxc <= fxr
                else:
                    xc, yc = 0.5 * mx + 0.5 * wx, 0.5 * my + 0.5 * wy  # contract inside
                    fxc = call(xc, yc)
                    shrink = not fxc < wf
                if not shrink:
                    v2 = [xc, yc, fxc]
                else:
                    for v in (v1, v2):  # shrink towards the best vertex
                        v[0] = bx + 0.5 * (v[0] - bx)
                        v[1] = by + 0.5 * (v[1] - by)
                        v[2] = call(v[0], v[1])
            nit += 1
        except _MaxFevReached:
            pass
        v0, v1, v2 = _sort3(v0, v1, v2)
    # scipy reports np.min(fsim), which is NaN when any vertex is, and a
    # NaN vertex sorts last
    fun = v2[2] if v2[2] != v2[2] else v0[2]
    return (v0[0], v0[1]), fun, nfev, nit


# ---------------------------------------------------------------------------
# Scalar port of scipy 1.17's minimize_scalar(method="bounded")
# (_minimize_scalar_bounded): Brent's golden-section search with
# parabolic steps on a closed interval, in the same float operations.

_BR_XATOL = 1e-12
_BR_MAXITER = 500


def _sign_up(v: float) -> float:
    """np.sign(v) + (v == 0): -1 below zero, +1 at or above it, NaN for NaN."""
    return -1.0 if v < 0.0 else 1.0 if v >= 0.0 else v


def _brent_bounded(
    func: Callable[[float], float], lo: float, hi: float,
    maxiter: int = _BR_MAXITER,
) -> tuple[float, float, int]:
    """Minimise func on [lo, hi] by scipy's bounded Brent method with
    xatol = _BR_XATOL; returns (x, fun, nfev) equal to scipy's res.x,
    fun and nfev.  maxiter caps the calls, as scipy's option of that
    name does; scipy's status flag is not reproduced."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + _BR_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_up(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        # scipy takes np.maximum; max() agrees because rat is never NaN
        # between finite bounds
        x = xf + _sign_up(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _BR_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx, num


def optimize(model: str, gamma_rate: float = 0.0) -> TradeoffPoint:
    """Minimise the running-time rate over (alpha, beta).

    Coarse 0.01 grid over (0.05, 0.95)^2 seeds a Nelder-Mead refinement
    of the max-of-terms objective down to 1e-8 in rate.  The refinement
    is _nelder_mead_2d, an in-package port of scipy 1.17's Nelder-Mead
    that returns the same bits.  Budget beyond what the model can
    address at a point is simply left unused, so the returned qram_rate
    never exceeds the admissible bound.
    """
    _check_budget(model, gamma_rate)
    f = _objective(model, gamma_rate)
    best = _grid_seed(model, gamma_rate)
    for _ in range(2):  # restart once; max() objectives can stall a simplex
        best = _nelder_mead_2d(f, best)[0]
    a, b = best
    t = t_rate(a, b)
    ca, cb = cap_rate(a), cap_rate(b)
    s_eff = min(gamma_rate, _gamma_bound(model, t, ca, cb))
    terms = _terms(model, t, ca, cb, s_eff)
    if model == "t1":
        qram = N_RATE + t + ca + cb
    elif model == "t4":
        qram = max(t + ca, N_RATE + t + ca + cb)
    else:
        qram = s_eff
    return TradeoffPoint(
        model=model,
        gamma_rate=gamma_rate,
        alpha=a,
        beta=b,
        t_rate=t,
        time_rate=max(terms),
        qram_rate=qram,
        term_rates=terms,
    )


def tradeoff_curve(model: str, gamma_rates: Iterable[float]) -> list[TradeoffPoint]:
    """optimize() along a memory-rate grid."""
    return [optimize(model, s) for s in gamma_rates]


def closed_form_rate(model: str, gamma: float) -> float:
    """Closed-form optimum time rate at memory gamma^d, for the three
    memory-bounded models.  gamma runs over the model's admissible
    interval starting at 1 (no memory)."""
    if model not in GAMMA_MAX:
        raise DomainError(f"no closed form for model {model!r}")
    gmax = GAMMA_MAX[model]
    if not 1.0 - 1e-9 <= gamma <= gmax + 1e-9:
        raise RangeError(f"{model} needs gamma in [1, {gmax}]", bound=gmax)
    if model == "t2":
        return 0.5 * math.log2(3.0 * gamma / (3.0 * gamma - 1.0))
    if model == "t3":
        g2 = gamma * gamma
        return 0.5 * math.log2(3.0 * g2 / (3.0 * g2 - 1.0))
    return -0.5 * math.log2(gamma - 2.0 / 3.0 + (2.0 / 3.0) * math.sqrt(1.0 - 0.75 * gamma))


def lower_bound_rate(s_rate: float) -> float:
    """Query lower bound for sieving with memory rate s_rate;
    max(0, 0.29248 - 2 s)."""
    if not s_rate >= 0.0 or math.isinf(s_rate):
        raise DomainError(f"s_rate must be finite and >= 0, got {s_rate}")
    return max(0.0, 0.5 * math.log2(1.5) - 2.0 * s_rate)


def blocked_search_rate(m_rate: float, s_rate: float) -> float:
    """Rate of blocked search over 2^{m d} items with memory 2^{s d}:
    m - s/2 for 0 <= s <= m."""
    if not 0.0 <= s_rate <= m_rate:
        raise DomainError(f"need 0 <= s_rate <= m_rate, got s={s_rate}, m={m_rate}")
    return m_rate - s_rate / 2.0


# ---------------------------------------------------------------------------
# No-QRAM curve: minimise the noqram model at a fixed filter rate.


@dataclass(frozen=True)
class NoQRAMPoint:
    t_rate: float
    alpha: float
    beta: float
    time_rate: float


def _noqram_time(a: float, b: float, tau: float) -> float:
    return max(_terms("noqram", tau, cap_rate(a), cap_rate(b), 0.0))


def _noqram_branch(beta: float, c: float, tau: float, sign: float) -> float:
    disc = 4.0 * c - 3.0 * beta * beta
    if disc < 0.0:
        return math.inf
    a = (beta + sign * math.sqrt(disc)) / 2.0
    if not 0.0 < a < 1.0 or not 0.0 < beta < 1.0:
        return math.inf
    return _noqram_time(a, beta, tau)


def noqram_point(tau: float) -> NoQRAMPoint:
    """Best (alpha, beta) for the noqram model at filter rate tau.

    On each branch of the tau constraint a 600-point grid in beta
    brackets the minimum, and _brent_bounded, an in-package port of
    scipy 1.17's bounded minimize_scalar that returns the same bits,
    refines it to 1e-12.
    """
    if not 0.0 <= tau <= N_RATE + 1e-12:
        raise DomainError(f"t_rate must lie in [0, {N_RATE:.6f}], got {tau}")
    if tau == 0.0:
        # only alpha = beta = 0 gives a single filter
        return NoQRAMPoint(0.0, 0.0, 0.0, 2.0 * N_RATE)
    c = 0.75 * (1.0 - 2.0 ** (-2.0 * tau))
    bmax = math.sqrt(4.0 * c / 3.0)
    best: tuple[float, float, float] | None = None
    grid = np.linspace(1e-6, bmax - 1e-12, 600).tolist()
    for sign in (1.0, -1.0):
        vals = [_noqram_branch(b, c, tau, sign) for b in grid]
        k = int(np.argmin(vals))
        lo = grid[max(0, k - 1)]
        hi = grid[min(len(grid) - 1, k + 1)]
        x, fun, _ = _brent_bounded(lambda b: _noqram_branch(b, c, tau, sign), lo, hi)
        cand = (fun, x, sign)
        if best is None or cand[0] < best[0]:
            best = cand
    val, b, sign = best
    a = (b + sign * math.sqrt(max(0.0, 4.0 * c - 3.0 * b * b))) / 2.0
    return NoQRAMPoint(tau, a, b, val)


def noqram_curve(t_rates: Iterable[float]) -> list[NoQRAMPoint]:
    return [noqram_point(float(tau)) for tau in t_rates]


def fit_noqram_curve(points: Sequence[NoQRAMPoint]) -> tuple[float, float]:
    """Least-squares (slope, intercept) of time_rate against t_rate."""
    x = np.array([p.t_rate for p in points])
    y = np.array([p.time_rate for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# Block-reduction context: enumeration vs sieve cost per dimension.


def enum_rate(k: float) -> float:
    """Per-dimension enumeration exponent at block size k (k >= 70)."""
    if not k >= 70 or math.isinf(k):
        raise DomainError(f"enum_rate needs a finite k >= 70, got {k}")
    return (k * math.log(k) / (8.0 * math.log(2.0)) - 0.547 * k + 10.4) / (2.0 * k)


def bkz_crossover(target_rate: float, k_lo: float = 70.0, k_hi: float = 4000.0) -> float:
    """Smallest k >= 70 with enum_rate(k) >= target_rate (bisection)."""
    if enum_rate(k_lo) >= target_rate:
        return k_lo
    if enum_rate(k_hi) < target_rate:
        raise DomainError(f"enum_rate stays below {target_rate} up to k={k_hi}")
    lo, hi = k_lo, k_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if enum_rate(mid) >= target_rate:
            hi = mid
        else:
            lo = mid
    return hi


def bkz_curves(ks: Iterable[float]) -> list[tuple[float, float, float, float]]:
    """Rows (k, enum_rate, sieve rate without QRAM, with full QRAM)."""
    return [(float(k), enum_rate(k), SIEVE_RATE_NOQRAM, SIEVE_RATE_FULLQRAM) for k in ks]


# ---------------------------------------------------------------------------
# Symmetric-key trade-offs (collision search and multi-target preimage),
# in bits rather than rates: n here is the key length in bits.


def log2_sum(a: float, b: float) -> float:
    """log2(2^a + 2^b), computed stably as max + log2(1 + 2^{min-max})."""
    return float(np.logaddexp2(a, b))


def collision_cost(n: float, l: float, r: float, gamma: float) -> float:
    """Bits of work for collision search with list 2^l, prefix 2^r and
    memory 2^gamma: log2(2^{l+r/2} + 2^{(n-r-l)/2}(2^{r/2} + 2^{l-gamma}))."""
    if min(n, l, r) < 0 or l + r > n:
        raise DomainError("collision_cost needs l, r >= 0 and l + r <= n")
    if not 0.0 <= gamma <= l:
        raise RangeError(f"collision memory gamma must be in [0, l={l}]", bound=l)
    setup = l + r / 2.0
    probe = (n - r - l) / 2.0 + log2_sum(r / 2.0, l - gamma)
    return log2_sum(setup, probe)


@dataclass(frozen=True)
class CollisionPlan:
    l: float
    r: float
    time_bits: float
    memory_bits: float


def collision_optimize(n: float, gamma: float) -> CollisionPlan:
    """Balanced parameters: l = (n+2g)/5, r = (2n-6g)/5, T = (2n-g)/5."""
    if n <= 0:
        raise DomainError(f"collision_optimize needs n > 0, got {n}")
    if not 0.0 <= gamma <= n / 3.0:
        raise RangeError(f"collision memory gamma must be in [0, n/3]", bound=n / 3.0)
    l = (n + 2.0 * gamma) / 5.0
    r = (2.0 * n - 6.0 * gamma) / 5.0
    return CollisionPlan(l=l, r=r, time_bits=(2.0 * n - gamma) / 5.0, memory_bits=l)


def mtps_cost(n: float, t: float, r: float, gamma: float) -> float:
    """Bits of work for preimage search against 2^t targets:
    log2(2^t + 2^{(n-t)/2}(2^{r/2} + 2^{t-r-gamma}))."""
    if min(n, t, r) < 0 or t > n or r > t:
        raise DomainError("mtps_cost needs 0 <= r <= t <= n")
    if not 0.0 <= gamma <= t - r:
        raise RangeError(f"mtps memory gamma must be in [0, t-r={t - r}]", bound=t - r)
    return log2_sum(t, (n - t) / 2.0 + log2_sum(r / 2.0, t - r - gamma))


@dataclass(frozen=True)
class MTPSPlan:
    r: float
    t_effective: float
    time_bits: float


def mtps_optimize(n: float, t: float, gamma: float) -> MTPSPlan:
    """Balanced prefix r = 2(t-gamma)/3, ignoring targets beyond the
    saturation point t = 3n/7 - 2 gamma / 7."""
    if n <= 0 or not 0.0 <= t <= n:
        raise DomainError(f"mtps_optimize needs 0 <= t <= n, n > 0")
    if not 0.0 <= gamma <= min(t, n / 3.0):
        raise RangeError("mtps memory gamma must be in [0, min(t, n/3)]", bound=min(t, n / 3.0))
    t_cap = 3.0 * n / 7.0 - 2.0 * gamma / 7.0
    if t >= t_cap:
        t_eff = t_cap
        time_bits = t_cap
    else:
        t_eff = t
        time_bits = n / 2.0 - t / 6.0 - gamma / 3.0
    return MTPSPlan(r=2.0 * (t_eff - gamma) / 3.0, t_effective=t_eff, time_bits=time_bits)
