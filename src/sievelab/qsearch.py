"""Amplitude-amplification search emulators with query accounting.

The simulators never build qubit tensor products: every routine here
works on the S-dimensional amplitude vector of the current block (or a
success/failure summary of it, which is exact for the two-class states
these algorithms produce).  What is measured and reported is the
*algorithm's* cost, oracle evaluations and QRAM reloads, not the
simulator's backstage work, which is allowed to peek at the marked set
to compute rotation angles.

Accounting convention: a QAA attempt with j Grover iterations costs
max(1, j) oracle evaluations; the classical check of the measured
candidate is folded into the final iteration (a bare j=0 measurement
costs the one evaluation the check spends).

One BBHT loop, _bbht, serves every search: it runs on the space's size
and marked count alone and names its hit as a rank among the marks,
which each caller maps to its own index.  The QRAM ledger counts one
reload per block (or block pair) loaded.  A window of S = 1 is the
classical scan, worked out in closed form from the first mark.

Every scalar search draw gives what numpy's Generator.integers(0, n) and
Generator.random() give, value for value, at a fraction of their call
cost.  Each search (bbht_search, blocked_search, blocked_pair_search and
min_find_with_cost) takes one rng.search_draws stream (the thread's
Philox, re-keyed to make_rng(seed)'s stream) and reuses it for every
block, block pair and descent step; its scalar draws are replayed in
Python from raw Philox words fetched in bulk, so a draw pays no C call.
A search with no marked element draws nothing: every attempt hits with
chance sin^2(0) = 0, so _bbht charges its whole cap at once, and the
pair search skips every empty block pair.  What such a search would
have drawn cannot change its charge, so a later block, block pair or
descent step reads those stream words instead, and the law of every
reported statistic is the one of drawing through.  Minimum finding
searches a flat list or a run list (values with counts of copies),
keeping only the candidates below its current value, so each descent
step filters a shrinking list.  The BBHT loop reads its attempt sizes
from a cached schedule per space size, and it and the sparse pair probe
read their hit probabilities from one cached row per (size, marked
count), which computes each entry the first time it is read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .rng import SearchStream, derive_seed, search_draws

# per-block cap inside blocked_search; the proof caps at O(sqrt(S))
BLOCK_CAP_FACTOR = 3.0
# dense-regime budget in blocked_pair_search: S sqrt(E) scaled by a
# headroom factor, plus a linear per-solution surcharge so a block pair
# can be swept clean even when most of it is marked (the +E term is
# subsumed by the O(sqrt(M1 M2 K)) total since K <= M1 M2)
PAIR_BUDGET_FACTOR = 1.7
PAIR_SWEEP_SURCHARGE = 1.5
# total-evaluation budget for minimum finding, in units of sqrt(N)
MINFIND_BUDGET_FACTOR = 8.0
# least chance of a mark planted_instance accepts: its loop takes ~1/chance rounds
PLANTED_MIN_MARK_CHANCE = 1e-3
# BBHT caches: space sizes with a schedule, and (size, marked count) keys
# with a hit row
SCHEDULE_CACHE_SIZE = 64
HIT_CACHE_SIZE = 256


@dataclass
class SearchReport:
    found: int | None
    oracle_evals: int
    qram_reloads: int
    success: bool
    solutions: frozenset[tuple[int, int]] | None = None


def qaa_iterations(theta: float) -> int:
    """Iteration count N = floor(pi/(4 theta) - 1/2), at least 0."""
    if not 0.0 < theta <= math.pi / 2.0:
        raise DomainError(f"qaa_iterations needs theta in (0, pi/2], got {theta}")
    return max(0, math.floor(math.pi / (4.0 * theta) - 0.5))


def qaa_run(S: int, marked: Iterable[int], N: int) -> tuple[float, np.ndarray]:
    """Apply N rounds of (flip marked, reflect about uniform) to the
    uniform state over S indices; returns (marked mass, state vector)."""
    if S < 1:
        raise DomainError(f"qaa_run needs S >= 1, got {S}")
    if N < 0:
        raise DomainError(f"qaa_run needs N >= 0, got {N}")
    idx = np.asarray(sorted(set(marked)), dtype=np.int64)
    if idx.size and (idx[0] < 0 or idx[-1] >= S):
        raise DomainError("marked indices out of range")
    psi = np.full(S, 1.0 / math.sqrt(S))
    for _ in range(N):
        psi[idx] *= -1.0
        psi = psi - 2.0 * psi.sum() / S  # Ref = I - 2|u><u|
    mass = float(np.sum(psi[idx] ** 2)) if idx.size else 0.0
    return mass, psi


def bbht_search(flags: np.ndarray, seed: int, cap: int) -> tuple[int | None, int]:
    """Search a flags.size-element space whose solutions, of unknown
    number, are the indices where flags is True.

    Schedule: attempt sizes m grow by 6/5 per failure from m=1, each
    attempt runs j ~ Uniform[0, ceil(m)) Grover iterations and measures.
    Stops at the first verified solution or when the evaluation cap is
    exhausted; returns (index or None, oracle evaluations spent).  A hit
    names one marked index, drawn uniformly.  Like the other searches it
    draws from search_draws(seed), restarting the calling thread's stream.
    A cap that is not an integer of at least 0 is refused before any draw.
    """
    flags = np.asarray(flags, dtype=bool)
    if flags.ndim != 1 or flags.size < 1:
        raise DomainError(f"bbht_search needs a nonempty flag vector, got shape {flags.shape}")
    try:
        cap = operator.index(cap)
    except TypeError:
        raise DomainError(f"bbht_search needs an integer cap, got {cap!r}") from None
    if cap < 0:
        raise DomainError(f"bbht_search needs cap >= 0, got {cap}")
    rank, evals = _bbht(flags.size, int(np.count_nonzero(flags)), search_draws(seed), cap)
    return (None if rank is None else int(np.flatnonzero(flags)[rank])), evals


@lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _bbht_schedule(S: int) -> tuple[int, ...]:
    """ceil(m) for bbht_search's attempt sizes m = 1, then min(1.2 m,
    sqrt(S)) per failure, up to the first m that reaches sqrt(S); every
    later attempt repeats the last entry."""
    m = 1.0
    m_max = math.sqrt(S)
    sched = [math.ceil(m)]
    while m < m_max:
        m = min(m * 1.2, m_max)
        sched.append(math.ceil(m))
    return tuple(sched)


@lru_cache(maxsize=HIT_CACHE_SIZE)
def _hit_table(S: int, k: int) -> dict[int, float]:
    """The hit chances of k marked of S read so far, by iteration count j.
    _hit_fill adds each on its first read, so a row holds only the entries
    searches have read, whatever S.  A plain dict read under try, not a
    dict subclass with __missing__, keeps the loop's reads on the
    interpreter's fast dict path."""
    return {}


def _hit_fill(hit: dict[int, float], S: int, k: int, j: int) -> float:
    """Chance that a j-iteration attempt hits, k marked of S, stored in
    its row hit: sin((2j+1) theta)^2 with theta = asin(sqrt(k/S)), exact
    for the uniform two-class state."""
    # k = 0 gives probability 0 at every j, and k = S, theta = pi/2, gives
    # exactly 1 at every j < ceil(sqrt(S))
    p = hit[j] = math.sin((2 * j + 1) * math.asin(math.sqrt(k / S))) ** 2
    return p


def _bbht(S: int, k: int, draws: SearchStream, cap: int) -> tuple[int | None, int]:
    """bbht_search over a space summarized by (size, marked count): (rank,
    evaluations spent).  A verified hit names the rank-th mark, drawn as
    draws.below(k) right after the hit; rank is None when the cap runs out.
    With k = 0 no attempt can hit, so it returns (None, cap), what the loop
    returns for any cap >= 0, without drawing."""
    if not k:
        return None, cap
    below, uniform = draws.below, draws.uniform
    sched = _bbht_schedule(S)
    hit = _hit_table(S, k)
    last = len(sched) - 1
    i = 0
    evals = 0
    while evals < cap:
        j = below(sched[i])
        evals += j or 1
        if evals > cap:
            evals = cap  # truncated attempt burns the remaining budget
            break
        try:
            p = hit[j]
        except KeyError:
            p = _hit_fill(hit, S, k, j)
        if uniform() < p:
            return below(k), evals
        # measured an unmarked element; grow the iteration range
        if i < last:
            i += 1
    return None, evals


def _check_window(M: int, S: int) -> None:
    """blocked_search's window rule: 1 <= S <= M."""
    if not 1 <= S <= M:
        raise DomainError(f"blocked_search needs 1 <= S <= M={M}, got S={S}")


def blocked_search(
    M: int, f: Sequence[bool] | np.ndarray, S: int, seed: int
) -> SearchReport:
    """Find a marked element of [M] using QRAM that holds only S items.

    Scans blocks in index order; each block is loaded once (one QRAM
    reload), searched with an evaluation cap of ceil(3 sqrt(S)), and the
    whole search halts at the first verified solution.  A block with no
    mark is charged its cap without a draw.  S=1 degenerates
    to the classical scan: one reload and one evaluation per element up
    to the first mark, so it spends no random draws.  The window holds
    at most the whole list: S > M is refused.
    """
    flags = np.asarray(f, dtype=bool)
    if flags.shape != (M,):
        raise DomainError(f"f must have length M={M}")
    _check_window(M, S)
    if S == 1:
        marks = np.flatnonzero(flags)
        if marks.size:
            i = int(marks[0])
            return SearchReport(i, i + 1, i + 1, True)
        return SearchReport(None, M, M, False)
    draws = search_draws(seed)
    cap = math.ceil(BLOCK_CAP_FACTOR * math.sqrt(S))
    # the ragged tail is padded with unmarked dummies, so a hit is always < M
    blocks = np.zeros((-(-M // S), S), dtype=bool)
    blocks.flat[:M] = flags
    evals = 0
    for b, k in enumerate(np.count_nonzero(blocks, axis=1).tolist()):
        rank, spent = _bbht(S, k, draws, cap)
        evals += spent
        if rank is not None:
            return SearchReport(b * S + int(np.flatnonzero(blocks[b])[rank]), evals, b + 1, True)
    return SearchReport(None, evals, len(blocks), False)


def pair_search_plan(M1: int, M2: int, K_planted: int, S: int) -> tuple[bool, int, int, int, int]:
    """blocked_pair_search's schedule, fixed before any draw, and its
    closed-form evaluation count: (dense, budget, probe, reloads, evals).

    Dense regime (S^2 >= M1 M2 / K): each of the reloads block pairs
    spends a budget of ceil(1.7 S sqrt(max(E, 1)) + 1.5 E) evaluations,
    E = K S^2/(M1 M2) being its expected solution count.  Sparse regime:
    one probe of `probe` iterations, sized for one solution, charged
    max(1, probe).  Refuses what blocked_pair_search refuses.
    """
    if min(M1, M2) < 1 or S < 1:
        raise DomainError("blocked_pair_search needs M1, M2, S >= 1")
    if S > max(M1, M2):
        raise DomainError(f"S={S} exceeds both list sizes")
    if not 0 <= K_planted <= M1 * M2:
        raise DomainError(f"K_planted must lie in [0, M1*M2], got {K_planted}")
    dense = S * S * max(K_planted, 1) >= M1 * M2
    expected_per_bp = K_planted * S * S / (M1 * M2)
    budget = math.ceil(
        PAIR_BUDGET_FACTOR * S * math.sqrt(max(expected_per_bp, 1.0))
        + PAIR_SWEEP_SURCHARGE * expected_per_bp
    )
    probe = qaa_iterations(math.asin(1.0 / S))
    reloads = -(-M1 // S) * -(-M2 // S)
    return dense, budget, probe, reloads, reloads * (budget if dense else max(1, probe))


def blocked_pair_search(
    M1: int, M2: int, K_planted: int, S: int, seed: int
) -> SearchReport:
    """Collect planted solution pairs from [M1] x [M2] through S-sized
    QRAM windows.

    Plants K_planted distinct pairs uniformly, then searches every block
    pair (X_i, Y_j) in row-major order, one QRAM reload each, on
    pair_search_plan's schedule.  Dense regime: repeated searches with
    already-found pairs excluded until the block pair's budget is spent.
    Sparse regime: a single amplitude-amplification probe.  Every found
    pair is verified and recorded once.  A block pair with no live pair
    left draws nothing: it is charged its budget or probe as planned, so
    only the block pairs holding a planted pair are visited, at most
    K_planted of them.
    """
    dense, budget, probe, reloads, evals = pair_search_plan(M1, M2, K_planted, S)
    draws = search_draws(seed)
    chosen = draws.generator.choice(M1 * M2, size=K_planted, replace=False)
    planted = frozenset((int(c) // M2, int(c) % M2) for c in chosen)
    # each planted pair lies in exactly one block pair, so none is found
    # before its block pair is searched; lists keep the set's order
    live_in: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pair in planted:
        live_in.setdefault((pair[0] // S, pair[1] // S), []).append(pair)

    space = S * S  # padded block pair
    found: set[tuple[int, int]] = set()
    # row-major order; a block pair with no pair to find draws nothing
    for _, live in sorted(live_in.items()):
        if dense:
            remaining = budget
            while remaining > 0:
                rank, spent = _bbht(space, len(live), draws, remaining)
                remaining -= spent
                if rank is not None:
                    found.add(live.pop(rank))
        else:
            k = len(live)
            hit = _hit_table(space, k)
            try:
                p = hit[probe]
            except KeyError:
                p = _hit_fill(hit, space, k, probe)
            if draws.uniform() < p:
                found.add(live.pop(draws.below(k)))
    return SearchReport(
        None, evals, reloads, len(found) >= max(1, K_planted) // 4,
        solutions=frozenset(found),
    )


def _check_runs(
    values: Sequence[float], counts: Sequence[int]
) -> tuple[Sequence[float], Sequence[int], int]:
    """min_find_with_cost's run form, arrays read as lists, and its space
    size; refused before any draw unless every run has a value and an
    integer count of at least 1.  The values are compared as given."""
    vals = values.tolist() if isinstance(values, np.ndarray) else values
    counts = counts.tolist() if isinstance(counts, np.ndarray) else counts
    if len(counts) != len(vals):
        raise DomainError(f"min_find_with_cost got {len(counts)} counts for {len(vals)} values")
    if not vals:
        raise DomainError("min_find_with_cost needs a nonempty list")
    # a run's weight takes few distinct values; a float among them, even one
    # equal to an int count the set kept, makes the sum a float
    try:
        n = operator.index(sum(counts))
        least = min(map(operator.index, set(counts)))
    except TypeError:
        raise DomainError("min_find_with_cost needs integer counts") from None
    if least < 1:
        raise DomainError(f"min_find_with_cost needs counts >= 1, got {least}")
    return vals, counts, n


def _runs_below(
    vals: Sequence[float], counts: Sequence[int], among: Iterable[int], v: float
) -> tuple[list[int], int]:
    """The runs of among whose value lies below v, in order, and their copies."""
    below, k = [], 0
    for i in among:
        if vals[i] < v:
            below.append(i)
            k += counts[i]
    return below, k


def min_find_with_cost(
    values: Sequence[float], seed: int, counts: Sequence[int] | None = None
) -> tuple[int, int]:
    """Index of the minimum by quantum threshold descent, and the oracle
    evaluations spent.

    Starts at index 0, repeatedly searches for a strictly smaller
    element and moves the threshold there until the ceil(8 sqrt(N))
    budget is spent: it cannot tell when it holds the minimum, and a
    miss (as past the minimum) burns what is left.  Single-run success
    is probabilistic (better than even); ties resolve to the earliest
    index reached.

    With counts, the space is a run list: counts[i] copies of values[i],
    in order, N = sum(counts), and the index returned points into values.
    The search and its draws are those over np.repeat(values, counts),
    its index mapped to its run.  The descent keeps the indices whose
    value lies strictly below the current one, in index order: a hit
    draws a rank among their copies and moves to the run holding it, and
    the list is filtered to the new, smaller value.  Flat, the list is a
    numpy index array; in run form it is a Python list, which is faster
    on the few runs a pipeline query has.

    The search from a least value has no marked element, so it misses
    and burns the rest of the budget whatever it draws.  _bbht would
    charge it without drawing; the descent stops before it, so that
    search_draws is called only before the first search that can hit.
    """
    if counts is None:
        vals = np.asarray(values, dtype=float)
        n = vals.size
        if n == 0:
            raise DomainError("min_find_with_cost needs a nonempty list")
        below = np.flatnonzero(vals < vals[0])  # empty at a least value, or at NaN
        k = below.size
    else:
        vals, counts, n = _check_runs(values, counts)
        below, k = _runs_below(vals, counts, range(len(vals)), vals[0])
    budget = math.ceil(MINFIND_BUDGET_FACTOR * math.sqrt(n))
    remaining = budget
    best = 0
    draws = None
    while remaining > 0 and k:
        if draws is None:
            draws = search_draws(seed)
        rank, spent = _bbht(n, k, draws, remaining)
        remaining -= spent  # a miss spends all that remains
        if rank is None:
            break
        if counts is None:
            best = int(below[rank])
            below = below[vals[below] < vals[best]]
            k = below.size
        else:
            for best in below:  # the run holding the rank-th marked copy
                rank -= counts[best]
                if rank < 0:
                    break
            below, k = _runs_below(vals, counts, below, vals[best])
    return best, budget


# ---------------------------------------------------------------------------
# Experiment drivers shared by the test suite and the CLI.


@dataclass(frozen=True)
class ScalingRow:
    M: int
    S: int
    p: float
    trials: int
    mean_evals: float
    success_rate: float
    mean_reloads: float


def planted_instance(M: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(p) marks conditioned on at least one solution; refuses
    (M, p) whose chance of a mark is below PLANTED_MIN_MARK_CHANCE."""
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {p}")
    chance = -math.expm1(M * math.log1p(-p)) if p < 1.0 else 1.0
    if chance < PLANTED_MIN_MARK_CHANCE:
        raise DomainError(f"M={M}, p={p}: chance of a mark {chance:.3g} < {PLANTED_MIN_MARK_CHANCE}")
    while True:
        flags = rng.random(M) < p
        if flags.any():
            return flags


def blocked_search_scaling(
    M: int, S_values: Sequence[int], p: float, trials: int, seed: int
) -> list[ScalingRow]:
    """Mean cost of blocked_search across S on a shared instance set, every S checked first."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    for S in S_values:
        _check_window(M, S)
    instances = [planted_instance(M, p, search_draws(seed, t).generator) for t in range(trials)]
    rows = []
    for S in S_values:
        evals = []
        reloads = []
        hits = 0
        for t, flags in enumerate(instances):
            rep = blocked_search(M, flags, S, derive_seed(seed, 7_000_000 + t * 1000 + S))
            evals.append(rep.oracle_evals)
            reloads.append(rep.qram_reloads)
            hits += int(rep.success and bool(flags[rep.found]))
        rows.append(
            ScalingRow(
                M=M,
                S=S,
                p=p,
                trials=trials,
                mean_evals=float(np.mean(evals)),
                success_rate=hits / trials,
                mean_reloads=float(np.mean(reloads)),
            )
        )
    return rows


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float)), 1)[0])
