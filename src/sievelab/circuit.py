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

The pipeline evaluates each qualifying filter of a query once, in leaf
rank order, into a per-filter table.  A coin string indexes that table
through the rank it selects, so up to PIPELINE_COIN_GUARD coin strings
form the search space; beyond the guard the search space switches to
the leaves themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .qsearch import min_find_with_cost
from .rng import DEFAULT_SEED, derive_seed
from .rpc import FilterFamily, SampleTree, build_sample_tree, leaf_index, sample_alpha_close
from .sieve import QueryLedger, SieveInstance, preprocess

# largest coin space the pipeline searches per query; beyond this the
# qualifying leaves are the search space (there are at most 2^R / 16)
PIPELINE_COIN_GUARD = 2**14


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


def circuit_cost(circuit: ComparatorCircuit) -> CircuitCost:
    """Exact stage/node/lane counts under the fixed accounting units."""
    sizes = [c.shape[0] for c in circuit.chains]
    comparators = [max(k - 1, 0) for k in sizes]
    mux_depth = math.ceil(math.log2(circuit.t)) if circuit.t > 1 else 0
    return CircuitCost(
        depth=max(comparators) + mux_depth,
        size=sum(comparators) + (circuit.t - 1),
        width=circuit.t,
    )


def cost_report(circuit: ComparatorCircuit) -> dict:
    cost = circuit_cost(circuit)
    return {
        "t": circuit.t,
        "bucket_sizes": [int(c.shape[0]) for c in circuit.chains],
        "depth": cost.depth,
        "size": cost.size,
        "width": cost.width,
    }


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


def _query_values(
    circuit: ComparatorCircuit,
    tree: SampleTree,
    bucket_indices: Sequence[np.ndarray],
    vectors: np.ndarray,
    q: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Distance seen by each point of the search space, with the list
    index of the partner it would report.

    Every qualifying leaf is unranked and evaluated once; below the coin
    guard each coin string then reads the entry of the rank it selects.
    Self-hits and empty chains are lifted to +inf with partner -1: the
    oracle returned nothing usable for reduction there.
    """
    w = vectors[q]
    values = np.full(tree.root_count, math.inf)
    partner = np.full(tree.root_count, -1, dtype=np.int64)
    for rank in range(tree.root_count):
        j = leaf_index(tree, rank)
        chain_pos = circuit_eval_index(circuit, j, w)
        if chain_pos is None:
            continue
        u_idx = int(bucket_indices[j][chain_pos])
        dist = float(np.linalg.norm(vectors[u_idx] - w))
        if u_idx != q and dist > 1e-12:
            values[rank], partner[rank] = dist, u_idx
    if 2**tree.coin_count > PIPELINE_COIN_GUARD:
        return values, partner
    ranks = tree.coin_rank(np.arange(2**tree.coin_count, dtype=np.int64))
    return values[ranks], partner[ranks]


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

    Buckets the whole list at beta and hardcodes it into a circuit.
    Per query vector w, the qualifying-filter tree at alpha defines the
    coin space; the reported candidate is the reducing pair of smallest
    distance over all coins (exhaustive mode) or the one min_find_with_cost
    lands on (minfind mode, simulated on the materialized value list).  A
    pair qualifies when 0 < ||w - u|| <= shrink_factor * radius.
    """
    if instance.mode != "norm":
        raise DomainError("pipeline_step needs a norm-mode instance")
    if mode not in ("exhaustive", "minfind"):
        raise DomainError(f"mode must be exhaustive or minfind, got {mode}")
    if minfind_runs < 1:
        raise DomainError("minfind_runs must be >= 1")
    ledger = QueryLedger()
    bucket_indices = preprocess(instance, family, beta, ledger).B
    circ = build_circuit([instance.vectors[idx] for idx in bucket_indices], d=instance.d)
    dirs = instance.directions()
    bound = instance.shrink_factor * instance.radius

    pairs: set[tuple[int, int]] = set()
    total_calls = 0
    max_calls = 0
    for q in range(instance.n):
        tree = build_sample_tree(family, dirs[q], alpha)
        if tree.root_count == 0:
            continue
        values, partner = _query_values(circ, tree, bucket_indices, instance.vectors, q)
        if mode == "exhaustive":
            calls = values.size
            best = int(np.argmin(values))
        else:
            runs = [min_find_with_cost(values, derive_seed(seed, q * 131 + r))
                    for r in range(minfind_runs)]
            calls = sum(spent for _, spent in runs)
            best = min((idx for idx, _ in runs), key=lambda i: (values[i], i))
        total_calls += int(calls)
        max_calls = max(max_calls, int(calls))
        if values[best] <= bound + 1e-9:  # a missing partner is +inf
            pairs.add((q, int(partner[best])))
    return PipelineReport(frozenset(pairs), total_calls, max_calls, mode)
