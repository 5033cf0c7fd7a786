"""Bucketed near-neighbor search over sphere vectors, with query ledgers.

Two interchangeable drivers find all pairs at angle <= theta through a
filter family.  query_method inserts every vector into its beta-close
buckets and then, per query vector, tests the contents of its
alpha-close buckets.  The buckets are the CSC columns of the (n, t)
insert mask, which preprocess returns as Buckets.members.  fas_method
materializes both bucket sides first and tests every A_i x B_i
product.  Both return the same ordered pair set: (x, y) with x
alpha-covered and y beta-covered by a shared filter and
<x, y> >= cos theta.  query_keys, fas_keys and brute_force_keys
give the same pairs as ascending int64 keys x * n + y, which is what
the set-returning functions wrap.

Every probe is charged to a QueryLedger: filter enumerations cost
1 + |result|, each inner-product test costs 1, insertions are counted
as they happen.  sieve_step turns found pairs into difference vectors
below a shrinking norm bound, which is one round of a list sieve.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse

from .binfile import BinaryReader
from .errors import DomainError, GuardError
from .geometry import cap_volume_exact, sample_sphere
from .rng import make_rng
from .rpc import FilterFamily, check_queries, relevant_filters

BRUTE_FORCE_GUARD = 10**5

_MAGIC = b"SLSI"
_MODE_CODES = {"unit": 0, "norm": 1}


@dataclass(frozen=True, eq=False)
class SieveInstance:
    d: int
    vectors: np.ndarray  # (n, d)
    mode: str  # "unit": all norms 1; "norm": all norms <= radius
    radius: float = 1.0
    theta: float = math.pi / 3
    shrink_factor: float = 1.0

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def directions(self) -> np.ndarray:
        """Row-normalized view; filter predicates live on the sphere."""
        if self.mode == "unit":
            return self.vectors
        norms = np.linalg.norm(self.vectors, axis=1)
        return self.vectors / norms[:, None]


def make_instance(
    vectors: np.ndarray,
    mode: str = "unit",
    radius: float = 1.0,
    theta: float = math.pi / 3,
    shrink_factor: float = 1.0,
) -> SieveInstance:
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise DomainError("vectors must be a 2-d array")
    n, d = vectors.shape
    if d < 1:
        raise DomainError("vectors need at least one coordinate")
    if not np.isfinite(vectors).all():
        raise DomainError("vectors must be finite")
    if mode not in _MODE_CODES:
        raise DomainError(f"mode must be unit or norm, got {mode!r}")
    if not 0.0 < theta <= math.pi:
        raise DomainError(f"theta must lie in (0, pi], got {theta}")
    if not 0.0 < shrink_factor <= 1.0:
        raise DomainError(f"shrink_factor must lie in (0, 1], got {shrink_factor}")
    norms = np.linalg.norm(vectors, axis=1)
    if n and norms.min() < 1e-12:
        raise DomainError("zero vectors are not sievable")
    if mode == "unit":
        if n and np.abs(norms - 1.0).max() > 1e-9:
            raise DomainError("unit mode needs all norms within 1e-9 of 1")
    else:
        if not 0.0 < radius < math.inf:
            raise DomainError(f"radius must be finite and positive, got {radius}")
        if n and norms.max() > radius + 1e-9:
            raise DomainError("norm mode needs all norms <= radius")
    return SieveInstance(d, vectors, mode, radius, theta, shrink_factor)


def random_instance(
    d: int,
    n: int,
    seed: int,
    mode: str = "unit",
    radius: float = 1.0,
    theta: float = math.pi / 3,
    shrink_factor: float = 1.0,
) -> SieveInstance:
    """n uniform sphere points, scaled to the radius in norm mode."""
    pts = sample_sphere(d, make_rng(seed), size=n)
    if mode == "norm":
        pts = pts * radius
    return make_instance(pts, mode, radius, theta, shrink_factor)


@dataclass
class QueryLedger:
    filter_queries: int = 0
    inner_product_queries: int = 0
    insertions: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Buckets:
    """Insert-side buckets at the beta threshold: column j of members,
    the (n, t) CSC insert mask, is bucket j, rows in ascending order."""

    members: sparse.csc_array

    @property
    def B(self) -> tuple[np.ndarray, ...]:
        """Per bucket, its ascending int64 row indices."""
        return tuple(np.split(self.members.indices.astype(np.int64), self.members.indptr[1:-1]))


def _check_family(instance: SieveInstance, family: FilterFamily) -> None:
    if family.d != instance.d:
        raise DomainError(f"family dimension {family.d} != instance dimension {instance.d}")


# --- bucket engine -------------------------------------------------------------
#
# Bucket membership is an (n, t) boolean CSR mask: row x lists the
# filters close to x.  Its CSC columns are the buckets.  Pairs are int64
# keys x * n + y, ascending, so (x, y) order is key order.  Score and
# Gram blocks are built a row chunk at a time and hold at most
# _BLOCK_FLOATS doubles (2 MB), which keeps the peak memory of a run
# flat in n and t.

_BLOCK_FLOATS = 1 << 18


def _row_step(width: int) -> int:
    return max(1, _BLOCK_FLOATS // max(1, width))


def _mask(keys: np.ndarray, n: int, t: int) -> sparse.csr_array:
    """The (n, t) mask whose entries are the ascending keys x * t + j."""
    rows, cols = np.divmod(keys, t)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_array((np.ones(keys.size, dtype=bool), cols, indptr), shape=(n, t))


def _close_masks(
    instance: SieveInstance, family: FilterFamily, thresholds: tuple[float, ...]
) -> list[sparse.csr_array]:
    """Per threshold, the mask of <x, c_j> >= threshold over the list.

    Explicit families score a row chunk against every center at once,
    and one score block serves all thresholds.  Product codes keep their
    per-vector branch-and-bound, one threshold after the other.
    """
    dirs = instance.directions()
    n, t = instance.n, family.t
    keys: list[list[np.ndarray]] = [[np.empty(0, dtype=np.int64)] for _ in thresholds]
    if family.kind == "explicit":
        if n:
            for thr in thresholds:
                check_queries(family, dirs, thr)
        step = _row_step(t)
        for lo in range(0, n, step):
            scores = dirs[lo : lo + step] @ family.centers.T
            for k, thr in enumerate(thresholds):
                keys[k].append(np.flatnonzero(scores >= thr) + lo * t)
    else:
        for k, thr in enumerate(thresholds):
            flat = [
                x * t + j for x, v in enumerate(dirs) for j in relevant_filters(family, v, thr)
            ]
            keys[k].append(np.array(flat, dtype=np.int64))
    return [_mask(np.concatenate(parts), n, t) for parts in keys]


def _charge_filters(ledger: QueryLedger, mask: sparse.csr_array, insert: bool) -> None:
    """One enumeration per list vector, 1 + |result| each."""
    ledger.filter_queries += mask.shape[0] + mask.nnz
    if insert:
        ledger.insertions += mask.nnz


def _covered_close_keys(
    instance: SieveInstance,
    query_mask: sparse.csr_array,
    bucket_mask: sparse.csc_array,
    ledger: QueryLedger,
) -> np.ndarray:
    """Keys of (x, y), x != y, sharing a filter and at angle <= theta.

    Each x is charged one inner product per entry of each of its
    buckets, duplicates included.  Candidates come from the sparse
    product of a row chunk of the query mask with the bucket mask, and
    are tested against the Gram block of the same chunk.
    """
    dirs = instance.directions()
    n = instance.n
    sizes = np.diff(bucket_mask.indptr)
    ledger.inner_product_queries += int(sizes[query_mask.indices].sum())
    cos_theta = math.cos(instance.theta)
    members = bucket_mask.T  # (t, n) CSR view of the same arrays
    out = [np.empty(0, dtype=np.int64)]
    step = _row_step(n)
    for lo in range(0, n, step):
        cand = query_mask[lo : lo + step] @ members
        rows = np.repeat(np.arange(cand.shape[0]), np.diff(cand.indptr))
        cols = cand.indices.astype(np.int64)
        gram = dirs[lo : lo + step] @ dirs.T
        keep = (gram[rows, cols] >= cos_theta) & (rows + lo != cols)
        out.append(np.sort((rows[keep] + lo) * n + cols[keep]))
    return np.concatenate(out)


def keys_to_pairs(keys: np.ndarray, n: int) -> set[tuple[int, int]]:
    """The ordered pair set {(x, y)} of int64 keys x * n + y."""
    x, y = np.divmod(keys, n)
    return set(zip(x.tolist(), y.tolist()))


def preprocess(
    instance: SieveInstance, family: FilterFamily, beta: float, ledger: QueryLedger
) -> Buckets:
    """Insert every vector into the buckets of its beta-close filters."""
    _check_family(instance, family)
    (mask,) = _close_masks(instance, family, (beta,))
    _charge_filters(ledger, mask, insert=True)
    return Buckets(mask.tocsc())  # row indices come out ascending within each column


def query_keys(
    instance: SieveInstance,
    family: FilterFamily,
    alpha: float,
    buckets: Buckets,
    ledger: QueryLedger,
) -> np.ndarray:
    """query_method as ascending int64 keys x * n + y."""
    _check_family(instance, family)
    if buckets.members.shape != (instance.n, family.t):
        raise DomainError("buckets were built for a different list or family")
    (mask,) = _close_masks(instance, family, (alpha,))
    _charge_filters(ledger, mask, insert=False)
    return _covered_close_keys(instance, mask, buckets.members, ledger)


def query_method(
    instance: SieveInstance,
    family: FilterFamily,
    alpha: float,
    buckets: Buckets,
    ledger: QueryLedger,
) -> set[tuple[int, int]]:
    """Per query vector, test the contents of its alpha-close buckets.

    Returns ordered pairs (x, y), x != y, that share a covering filter
    and pass <x, y> >= cos theta.  Duplicate coverage is de-duplicated
    in the output but every individual test is still charged.
    """
    return keys_to_pairs(query_keys(instance, family, alpha, buckets, ledger), instance.n)


def fas_keys(
    instance: SieveInstance,
    family: FilterFamily,
    alpha: float,
    beta: float,
    ledger: QueryLedger,
) -> np.ndarray:
    """fas_method as ascending int64 keys x * n + y."""
    _check_family(instance, family)
    insert_mask, query_mask = _close_masks(instance, family, (beta, alpha))
    _charge_filters(ledger, insert_mask, insert=True)
    _charge_filters(ledger, query_mask, insert=True)
    return _covered_close_keys(instance, query_mask, insert_mask.tocsc(), ledger)


def fas_method(
    instance: SieveInstance,
    family: FilterFamily,
    alpha: float,
    beta: float,
    ledger: QueryLedger,
) -> set[tuple[int, int]]:
    """Bucket both sides first, then test every A_i x B_i product.

    Same pair set as query_method on the same family; the ledger follows
    the two-sided loop structure instead (both preparations, then
    sum_i |A_i| * |B_i| inner products).
    """
    return keys_to_pairs(fas_keys(instance, family, alpha, beta, ledger), instance.n)


def brute_force_keys(instance: SieveInstance, theta: float | None = None) -> np.ndarray:
    """brute_force_pairs as ascending int64 keys x * n + y."""
    if instance.n > BRUTE_FORCE_GUARD:
        raise GuardError(f"brute force refuses n > {BRUTE_FORCE_GUARD}")
    cos_theta = math.cos(instance.theta if theta is None else theta)
    dirs = instance.directions()
    n = instance.n
    out = [np.empty(0, dtype=np.int64)]
    step = _row_step(n)
    for lo in range(0, n, step):
        gram = dirs[lo : lo + step] @ dirs.T
        own = np.arange(gram.shape[0])
        gram[own, own + lo] = -np.inf  # a vector is never its own pair
        out.append(np.flatnonzero(gram >= cos_theta) + lo * n)
    return np.concatenate(out)


def brute_force_pairs(
    instance: SieveInstance, theta: float | None = None
) -> set[tuple[int, int]]:
    """Exact ordered close-pair set by full scan over normalized vectors."""
    return keys_to_pairs(brute_force_keys(instance, theta), instance.n)


def sieve_step(
    instance: SieveInstance,
    family: FilterFamily,
    alpha: float,
    beta: float,
    ledger: QueryLedger | None = None,
) -> np.ndarray:
    """One list-sieve round: emit differences of found reducing pairs.

    Pairs come from query_method at the instance angle; a pair counts
    as reducing when ||v - w|| <= instance.shrink_factor * radius.  Zero
    differences are dropped, so identical inputs produce nothing.
    """
    if instance.mode != "norm":
        raise DomainError("sieve_step needs a norm-mode instance")
    if ledger is None:
        ledger = QueryLedger()
    buckets = preprocess(instance, family, beta, ledger)
    keys = query_keys(instance, family, alpha, buckets, ledger)
    bound = instance.shrink_factor * instance.radius
    out = []
    for x, y in zip(*np.divmod(keys, instance.n)):
        diff = instance.vectors[x] - instance.vectors[y]
        norm = float(np.linalg.norm(diff))
        if 1e-12 < norm <= bound + 1e-9:
            out.append(diff)
    if not out:
        return np.empty((0, instance.d))
    return np.asarray(out)


@dataclass(frozen=True)
class ExpectedLedger:
    insert_coverage: float  # n t C(beta): bucket insertions
    query_coverage: float  # n t C(alpha): query-side filter hits
    inner_products: float  # n^2 t C(alpha) C(beta): pairwise tests

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.insert_coverage, self.query_coverage, self.inner_products)


def expected_ledger(n: int, t: int, alpha: float, beta: float, d: int) -> ExpectedLedger:
    """Mean-field counter forecast from exact cap volumes."""
    ca = cap_volume_exact(d, alpha)
    cb = cap_volume_exact(d, beta)
    return ExpectedLedger(n * t * cb, n * t * ca, float(n) * n * t * ca * cb)


# --- serialization -----------------------------------------------------------


def save_instance(instance: SieveInstance, path: str) -> None:
    """Header (mode, d, n, radius, theta, shrink) then '<f8' vectors."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<BIIddd",
                _MODE_CODES[instance.mode],
                instance.d,
                instance.n,
                instance.radius,
                instance.theta,
                instance.shrink_factor,
            )
        )
        fh.write(np.ascontiguousarray(instance.vectors, dtype="<f8").tobytes())


def load_instance(path: str) -> SieveInstance:
    """Read a save_instance file; the result passes make_instance's checks."""
    reader = BinaryReader(path, _MAGIC, "sieve-instance")
    code, d, n, radius, theta, shrink = reader.unpack("<BIIddd")
    mode = {v: k for k, v in _MODE_CODES.items()}.get(code)
    if mode is None:
        raise DomainError(f"unknown mode code {code}")
    vectors = reader.floats(n, d)
    reader.finish()
    return make_instance(vectors, mode, radius, theta, shrink)
