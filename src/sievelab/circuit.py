"""Closest-vector comparator circuits and the QRAM-free pipeline.

A bucketed list can be burned into hardware: per bucket, a chain of
comparators that sweeps the hardcoded vectors in insertion order and
keeps the one closest to the query, then a multiplexer tree that picks
the requested chain's output.  No addressable memory is involved, which
is the whole point; the price is paid in circuit size.

Cost units are fixed so the counts are exactly testable: one comparator
is one depth stage, the first chain element is free (it is hardcoded,
not compared), and the multiplexer is a balanced binary tree over t
lanes with t - 1 selector nodes.  The circuit itself is evaluated
classically here; quantum behavior enters only through the minimum-
finding emulator driving it.

The pipeline takes one batched pass per step.  rpc.sample_leaves lists
the qualifying leaves of every query at once, in each query's leaf rank
order, and every (query, leaf) chain is evaluated together, in chunks of
bounded size, into one leaf table; each chunk's gathers fill two
workspaces made once per step.  The batch keeps circuit_eval_index's
first-minimum rule and np.linalg.norm's bits.  Exhaustive mode reads the
leaves: coin_rank is nondecreasing and onto, so a query's first least
leaf is what its first least coin string selects.  Only minimum finding
searches coin strings, up to PIPELINE_COIN_GUARD of them per query;
beyond the guard it searches the leaves themselves.  It never lists the
strings: each leaf is a run of the coin strings that select it, its
coin_rank preimage, so a query's few leaves with their weights are the
run form min_find_with_cost searches, and its draws and result are
those of the search over the strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .qsearch import min_find_with_cost
from .rng import DEFAULT_SEED, derive_seeds
from .rpc import (
    FilterFamily, SampleTree, _row_norms, coin_count, sample_alpha_close, sample_leaves, spans)
from .sieve import Mask, QueryLedger, SieveInstance, preprocess

# largest coin space the pipeline searches per query; beyond this the
# qualifying leaves are the search space (there are at most 2^R / 16)
PIPELINE_COIN_GUARD = 2**14
# chain coordinates one chunk of the pipeline's batched evaluation gathers
# into each of its two per-call workspaces; on the pipeline benchmark 2^15
# and 2^17 read the same first pass as 2^16, at 0.1 MB less and 1.3 MB more
# peak RSS
_GATHER_FLOATS = 1 << 16


@dataclass(frozen=True, eq=False)
class ComparatorCircuit:
    chains: tuple[np.ndarray, ...]  # bucket contents, insertion order
    d: int

    @property
    def t(self) -> int:
        return len(self.chains)


@dataclass(frozen=True)
class CircuitCost:
    depth: int
    size: int
    width: int


def build_circuit(buckets: Sequence[np.ndarray], d: int | None = None) -> ComparatorCircuit:
    """Hardcode bucket contents into comparator chains.

    Empty buckets are kept as empty chains; they evaluate to the zero
    sentinel.  d is inferred from the first nonempty bucket unless
    given.
    """
    if len(buckets) < 1:
        raise DomainError("build_circuit needs at least one bucket")
    if d is not None and d < 1:
        raise DomainError(f"build_circuit needs d >= 1, got {d}")
    chains = []
    for b in buckets:
        arr = np.asarray(b, dtype=float)
        if arr.size == 0:
            chains.append(None)  # fixed up once d is known
            continue
        if arr.ndim != 2:
            raise DomainError("buckets must be (k, d) arrays")
        if d is None:
            d = arr.shape[1]
        elif arr.shape[1] != d:
            raise DomainError("buckets disagree on dimension")
        chains.append(arr)
    if d is None:
        raise DomainError("all buckets empty; pass d explicitly")
    fixed = tuple(np.empty((0, d)) if c is None else c for c in chains)
    return ComparatorCircuit(fixed, d)


def circuit_eval_index(circuit: ComparatorCircuit, i: int, w: np.ndarray) -> int | None:
    """Chain position of the closest hardcoded vector, None when empty.

    The incumbent survives ties, so the earliest position wins.
    """
    if not 0 <= i < circuit.t:
        raise DomainError(f"chain index {i} outside [0, {circuit.t})")
    chain = circuit.chains[i]
    if chain.shape[0] == 0:
        return None
    w = np.asarray(w, dtype=float)
    d2 = np.sum((chain - w) ** 2, axis=1)
    return int(np.argmin(d2))  # argmin returns the first minimum


def circuit_eval(circuit: ComparatorCircuit, i: int, w: np.ndarray) -> np.ndarray:
    """Closest vector to w in chain i; zero sentinel for an empty chain."""
    pos = circuit_eval_index(circuit, i, w)
    if pos is None:
        return np.zeros(circuit.d)
    return circuit.chains[i][pos].copy()


def chain_cost(sizes: Sequence[int]) -> CircuitCost:
    """Exact stage/node/lane counts of chains of these lengths under the
    fixed accounting units; the vectors in them do not matter."""
    if not sizes:
        raise DomainError("a circuit needs at least one chain")
    t = len(sizes)
    comparators = [max(k - 1, 0) for k in sizes]
    mux_depth = math.ceil(math.log2(t)) if t > 1 else 0
    return CircuitCost(
        depth=max(comparators) + mux_depth,
        size=sum(comparators) + (t - 1),
        width=t,
    )


def circuit_cost(circuit: ComparatorCircuit) -> CircuitCost:
    """Exact stage/node/lane counts under the fixed accounting units."""
    return chain_cost([c.shape[0] for c in circuit.chains])


def oracle_prime(
    circuit: ComparatorCircuit, tree: SampleTree, w: np.ndarray, coins
) -> np.ndarray:
    """Coin-driven closest-vector oracle: sample a qualifying filter
    from the tree, then evaluate its chain at w.

    Pure in (circuit, tree, w, coins).  The tree must have been built
    for this same query vector.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (circuit.d,):
        raise DomainError(f"w must have shape ({circuit.d},)")
    if not np.array_equal(tree.v, w):
        raise DomainError("tree was built for a different query vector")
    return circuit_eval(circuit, sample_alpha_close(tree, coins), w)


# --- QRAM-free sieving pipeline ----------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    pairs: frozenset[tuple[int, int]]
    oracle_calls: int
    max_calls_per_query: int
    mode: str

    def as_dict(self) -> dict:
        return {
            "pairs": sorted(self.pairs),
            "oracle_calls": self.oracle_calls,
            "max_calls_per_query": self.max_calls_per_query,
            "mode": self.mode,
        }


def _first_least(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index of the first least entry of each run of values, run k being
    values[starts[k]:starts[k + 1]] and the last run ending with values:
    np.argmin's rule, run by run, for nonempty runs."""
    low = np.minimum.reduceat(values, starts)
    hit = np.flatnonzero(values == np.repeat(low, np.diff(starts, append=values.size)))
    return hit[np.searchsorted(hit, starts)]


def _leaf_table(
    instance: SieveInstance, family: FilterFamily, alpha: float, members: Mask
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every qualifying leaf of every query, from one rpc.sample_leaves
    call: the ascending query index, the distance from its vector w to
    what the leaf's chain reports, and that partner's list index.  Each
    query's leaves come in its leaf rank order.

    Chain j holds the rows of bucket column j of members, the CSC insert
    mask, in insertion order.  Its output is circuit_eval_index's: the
    first position at the least np.sum((chain - w) ** 2, axis=1).  The
    entries are evaluated in spans chunks against _GATHER_FLOATS, an entry
    weighing the d coordinates of each row of its chain.  The chain rows
    and the repeated query rows of a chunk are gathered into two
    workspaces made once per call, sized by the largest chunk, so no chunk
    asks the allocator for fresh pages; the gathers clip rather than
    raise (a raising np.take buffers out= through a fresh array), so a
    row index outside [0, n) is refused with IndexError first.  Partner
    distances come from _row_norms.
    Self-hits and empty chains are lifted to +inf with partner -1: the
    oracle returned nothing usable for reduction there.
    """
    query, leaf = np.divmod(sample_leaves(family, instance.directions(), alpha), family.t)
    vectors, ptr, rows = instance.vectors, members.indptr, members.indices
    n, d = vectors.shape
    # every gathered row is an entry of rows or of query
    for idx in (rows, query):
        if not (0 <= idx.min(initial=0) and idx.max(initial=-1) < n):
            raise IndexError(f"row index outside [0, {n}) in the leaf table's gathers")
    sizes = np.diff(ptr)[leaf]
    values = np.full(query.size, math.inf)
    partner = np.full(query.size, -1, dtype=np.int64)
    live = np.flatnonzero(sizes)  # entries whose chain is not empty
    runs = spans(sizes[live] * d, _GATHER_FLOATS)
    counts = [int(sizes[live[run]].sum()) for run in runs]  # chain rows per chunk
    most = max(counts, default=0)
    chain_space, query_space = np.empty((most, d)), np.empty((most, d))
    for run, k in zip(runs, counts):
        entry = live[run]
        size = sizes[entry]
        starts = np.cumsum(size) - size
        at = np.arange(k) + np.repeat(ptr[leaf[entry]] - starts, size)
        chain_rows = rows[at]
        diff = np.take(vectors, chain_rows, axis=0, out=chain_space[:k], mode="clip")
        w = np.take(vectors, np.repeat(query[entry], size), axis=0,
                    out=query_space[:k], mode="clip")
        diff -= w
        diff *= diff
        u = chain_rows[_first_least(np.sum(diff, axis=1), starts)].astype(np.int64)
        dist = _row_norms(vectors[u] - vectors[query[entry]])
        keep = dist > 1e-12  # a self-hit is a zero difference
        values[entry[keep]], partner[entry[keep]] = dist[keep], u[keep]
    return query, values, partner


def pipeline_step(
    instance: SieveInstance,
    family: FilterFamily,
    alpha: float,
    beta: float,
    mode: str = "exhaustive",
    seed: int = DEFAULT_SEED,
    minfind_runs: int = 1,
) -> PipelineReport:
    """One reduction pass of the memory-free sieve.

    Buckets the whole list at beta; each bucket is a comparator chain of
    the circuit.  Per query vector w, the qualifying-filter tree at alpha
    defines the search space: its 2^R coin strings, or past the guard its
    leaves.  Exhaustive mode charges the whole space and reports the
    first least leaf; minfind mode reports what min_find_with_cost lands
    on, searching the query's leaves as runs weighted by their coin_rank
    preimages (the coin strings that select each), with the seeds of
    every query's minfind_runs taken from one derive_seeds pass.  A pair
    qualifies when 0 < ||w - u|| <= shrink_factor * radius.  The list's
    directions are checked once per threshold, and an empty list gives
    an empty report.
    """
    if instance.mode != "norm":
        raise DomainError("pipeline_step needs a norm-mode instance")
    if mode not in ("exhaustive", "minfind"):
        raise DomainError(f"mode must be exhaustive or minfind, got {mode}")
    if minfind_runs < 1:
        raise DomainError("minfind_runs must be >= 1")
    members = preprocess(instance, family, beta, QueryLedger()).members
    bound = instance.shrink_factor * instance.radius

    query, values, partner = _leaf_table(instance, family, alpha, members)
    roots = np.bincount(query, minlength=instance.n)
    qs = np.flatnonzero(roots)
    roots = roots[qs]
    starts = np.cumsum(roots) - roots
    # a query searches its 2^coins coin strings; past the guard its leaves
    # are the search space
    spaces = [2**c if 2**c <= PIPELINE_COIN_GUARD else root
              for root, c in zip(roots.tolist(), map(coin_count, roots.tolist()))]
    if mode == "exhaustive":
        # coin_rank is nondecreasing and onto, so the first least coin
        # string selects the query's first least leaf
        calls = spaces
        best = _first_least(values, starts)
    else:
        # leaf r's weight, ceil((r + 1) N / root) - ceil(r N / root), is its
        # coin_rank preimage: the strings x < N with floor(x root / N) = r,
        # so min finding on the leaf runs is min finding on the coin strings
        # (N = root past the guard gives 1)
        size = np.repeat(np.asarray(spaces, dtype=np.int64), roots)
        root = np.repeat(roots, roots)
        r = np.arange(query.size) - np.repeat(starts, roots)
        weight = (-r * size) // root - (-(r + 1) * size) // root
        vals, weights, runs = values.tolist(), weight.tolist(), minfind_runs
        seeds = derive_seeds(seed, (qs * 131)[:, None] + np.arange(runs))
        calls, best = [], []
        for i, (lo, hi) in enumerate(zip(starts.tolist(), (starts + roots).tolist())):
            seen = vals[lo:hi]
            ends = [min_find_with_cost(seen, s, weights[lo:hi])
                    for s in seeds[i * runs:(i + 1) * runs]]
            calls.append(sum(spent for _, spent in ends))
            best.append(lo + min((idx for idx, _ in ends), key=lambda j: (seen[j], j)))
        best = np.asarray(best, dtype=np.int64)
    found = values[best] <= bound + 1e-9  # a missing partner is +inf
    pairs = frozenset(zip(qs[found].tolist(), partner[best[found]].tolist()))
    return PipelineReport(pairs, int(sum(calls)), int(max(calls, default=0)), mode)
