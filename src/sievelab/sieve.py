"""Bucketed near-neighbor search over sphere vectors, with query ledgers.

Two interchangeable drivers find all pairs at angle <= theta through a
filter family.  query_method inserts every vector into its beta-close
buckets and then, per query vector, tests the contents of its
alpha-close buckets.  The buckets are the CSC columns of the (n, t)
insert mask, which preprocess returns as Buckets.members.  fas_method
materializes both bucket sides first and tests every A_i x B_i
product.  Both return the same ordered pair set: (x, y) with x
alpha-covered and y beta-covered by a shared filter and
<x, y> >= cos theta.  pair_keys and brute_force_keys give their
pairs as ascending int64 keys x * n + y, which is what the
set-returning functions wrap.  pair_keys runs either method with one
scoring pass of the list for both thresholds.

Every probe is charged to a QueryLedger: filter enumerations cost
1 + |result|, each inner-product test costs 1, insertions are counted
as they happen.  The ledger charges every bucket entry a method would
test, but the engine finds the pairs the other way round: one Gram
scan gives the close pairs, and a method keeps those whose rows share
a filter.  sieve_step turns found pairs into difference vectors below
a shrinking norm bound, which is one round of a list sieve.  run is the
whole sieve command, its checks and guards included, as a SieveRun.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import geometry, rpc
from .binfile import BinaryReader
from .errors import DomainError, GuardError
from .geometry import cap_volume_exact, sample_sphere
from .rng import derive_seed, make_rng
# relevant_filters is bound, not called: the bench tracer patches it under this name
from .rpc import (  # noqa: F401
    FilterFamily, _row_norms, check_queries, relevant_filters, scan, spans)

# the list whose close pairs are computed: brute_force_keys and run
BRUTE_FORCE_GUARD = 10**5
SIEVE_D_GUARD = 64
FAMILY_GUARD = 10**6
# forecast keys of one run (mask entries and ordered close pairs); a
# d = 2 run of 6.0e7 close pairs peaked at 1.76 GB RSS, about 29 bytes a pair
SIEVE_KEYS_GUARD = 6 * 10**7

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


class Mask(NamedTuple):
    """A boolean matrix of this shape as compressed arrays: indptr cuts
    indices into ascending runs, one per row (CSR) or one per column
    (CSC).  The close masks are CSR, row x listing the filters close to
    x; Buckets.members is CSC, column j listing the rows in bucket j."""

    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.indices.size


@dataclass(frozen=True, eq=False)
class Buckets:
    """Insert-side buckets at the beta threshold: column j of members,
    the (n, t) insert mask in CSC form, is bucket j, rows in ascending
    order."""

    members: Mask

    def __post_init__(self) -> None:
        # a malformed mask would send the engine's gathers out of bounds
        members = self.members
        if not isinstance(members, Mask):
            raise DomainError("bucket members must be a CSC Mask")
        (n, t), ptr, rows = members.shape, members.indptr, members.indices
        if not (isinstance(ptr, np.ndarray) and isinstance(rows, np.ndarray)
                and ptr.dtype.kind in "iu" and rows.dtype.kind in "iu"
                and ptr.shape == (t + 1,) and rows.ndim == 1
                and ptr[0] == 0 and ptr[-1] == rows.size and (ptr[:-1] <= ptr[1:]).all()
                and 0 <= rows.min(initial=0) and rows.max(initial=-1) < n):
            raise DomainError("bucket members are not valid CSC arrays")

    @property
    def B(self) -> tuple[np.ndarray, ...]:
        """Per bucket, its ascending int64 row indices."""
        return tuple(np.split(self.members.indices.astype(np.int64), self.members.indptr[1:-1]))


def _check_family(instance: SieveInstance, family: FilterFamily) -> None:
    if family.d != instance.d:
        raise DomainError(f"family dimension {family.d} != instance dimension {instance.d}")


# --- bucket engine -------------------------------------------------------------
#
# Bucket membership is an (n, t) boolean mask held as plain CSR arrays
# (Mask: indptr, indices, shape): row x lists the filters close to x,
# ascending.  Its CSC columns, the same arrays regrouped by filter, are
# the buckets.  Pairs are int64 keys x * n + y, ascending, so (x, y) order
# is key order.  The masks come from rpc.scan, which owns the tile layout
# (R rows by a span of centers once a row of scores exceeds rpc's
# budget).  The close pairs come from a scan of the list against itself
# over the upper triangle only: a row chunk [lo, hi) is scored against
# rows lo onwards, and the keys with y > x are kept.  The close set is
# those keys and their mirrors, so it is symmetric by construction.
# Both products are only compared with a threshold, so both are screened
# in float32 by rpc._at_least, whose every decision is still the float64
# product's: a score near the threshold is re-scored in float64, and one
# within float64's own error of it is read from the float64 tile itself.
# Every chunk is cut by rpc.spans at rpc's budget: a score block holds at
# most 2^18 doubles (2 MB), keeping peak memory flat in n and t.  A
# triangle chunk also scores the corner below its diagonal, which its row
# weights leave out: at most as much again.  The sharing test of the pair
# pass ANDs each close pair's two mask rows as 64-bit words, over tiles
# of filters whose row bitsets hold at most the budget's words; a pair
# that shares a filter leaves the later tiles.  When one mask serves both
# sides (alpha = beta), the pair pass tests each unordered close pair once
# and mirrors the answers.


def _compress(keys: np.ndarray, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of the ascending keys r * cols + c, c < cols."""
    r, c = np.divmod(keys, cols)
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=rows), out=indptr[1:])
    return indptr, c


def _transposed(mask: Mask) -> Mask:
    """The same mask in the other form: CSR arrays to CSC or back, each
    run ascending.  Sorting the distinct keys index * runs + run orders
    the entries as a stable sort by index would."""
    runs = mask.indptr.size - 1
    keys = mask.indices.astype(np.int64) * runs + np.repeat(np.arange(runs), np.diff(mask.indptr))
    keys.sort()
    return Mask(*_compress(keys, sum(mask.shape) - runs, runs), mask.shape)


def _close_masks(
    instance: SieveInstance, family: FilterFamily, thresholds: dict[str, float]
) -> list[Mask]:
    """Per named threshold, the mask of <x, c_j> >= threshold over the list.

    Every family goes through one rpc.scan of the list: a product code's
    tiles are decoded, and an explicit family's are thresholded by rpc's
    float32 screen, whose every decision is the float64 product's.  Equal
    thresholds are compared once and share one mask; thresholds are checked
    in the order given, and one out of range is reported under its name.
    """
    dirs = instance.directions()
    named: dict[float, str] = {}  # each distinct threshold under its first name
    for name, thr in thresholds.items():
        named.setdefault(thr, name)
    if instance.n:
        for thr, name in named.items():
            check_queries(family, dirs, thr, name)
    distinct = list(named)
    shape = (instance.n, family.t)
    masks = [Mask(*_compress(k, *shape), shape) for k in scan(dirs, family, distinct)[0]]
    return [masks[distinct.index(thr)] for thr in thresholds.values()]


def _charge_filters(ledger: QueryLedger, mask: Mask, insert: bool) -> None:
    """One enumeration per list vector, 1 + |result| each."""
    ledger.filter_queries += mask.shape[0] + mask.nnz
    if insert:
        ledger.insertions += mask.nnz


def _upper_close_keys(instance: SieveInstance) -> np.ndarray:
    """Ascending keys of the pairs (x, y), x < y, at angle <= theta.

    Each spans chunk [lo, hi) of the list is scored against the rows from
    lo onwards only, a row x weighing its n - x scores, and thresholded by
    rpc._at_least: a float32 screen of dirs[lo:hi] @ dirs[lo:].T whose
    every decision is that float64 product's.
    """
    dirs = instance.directions()
    n = instance.n
    cos_theta = math.cos(instance.theta)
    dirs32, norm = dirs.astype(np.float32), rpc._max_norm(dirs)
    keys = [np.empty(0, dtype=np.int64)]
    for run in spans(n - np.arange(n)):
        lo = run.start
        (got,) = rpc._at_least(dirs[run], dirs[lo:], dirs32[run], dirs32[lo:], norm, [cos_theta])
        r, c = np.divmod(got, n - lo)
        above = c > r  # the diagonal and below are other chunks' keys, or self pairs
        keys.append((r[above] + lo) * n + c[above] + lo)
    return np.concatenate(keys)


def _with_mirrors(upper: np.ndarray, n: int) -> np.ndarray:
    """The ascending keys (x, y) and (y, x) of the keys x * n + y, x < y."""
    x, y = np.divmod(upper, n)
    both = np.concatenate((upper, y * n + x))
    both.sort()
    return both


def _covered_close_keys(
    upper: np.ndarray, query_mask: Mask, insert_mask: Mask, ledger: QueryLedger
) -> np.ndarray:
    """Of the close keys, the upper keys x * n + y (x < y) and their
    mirrors, the ascending keys whose query row x and insert row y share a
    filter.

    Each x is charged one inner product per entry of each of its
    buckets, duplicates included: that is what a query tests.  When one
    mask serves both sides, (x, y) shares a filter exactly when (y, x)
    does, so each upper key is tested once and its answer mirrored;
    otherwise both orientations are tested in one pass.
    """
    n, t = insert_mask.shape
    sizes = np.bincount(insert_mask.indices, minlength=t)
    ledger.inner_product_queries += int(sizes[query_mask.indices].sum())
    x, y = np.divmod(upper, n)
    if query_mask is insert_mask:
        return _with_mirrors(upper[_shares_filter(x, y, query_mask, insert_mask)], n)
    x, y = np.concatenate((x, y)), np.concatenate((y, x))
    found = (x * n + y)[_shares_filter(x, y, query_mask, insert_mask)]
    found.sort()
    return found


def _tile_bits(
    mask: Mask, lo: np.ndarray, hi: np.ndarray, c0: int, words: int
) -> np.ndarray:
    """The (n, words) uint64 bitsets of a CSR mask's rows over the filters
    [c0, c0 + 64 words), where row x has the entries lo[x]:hi[x].  The rows
    are read in spans chunks, a row weighing its entries in the tile."""
    bits = np.zeros(lo.size * words, dtype=np.uint64)
    for run in spans(hi - lo):
        count = hi[run] - lo[run]
        at = np.arange(int(count.sum())) + np.repeat(lo[run] - (np.cumsum(count) - count), count)
        cols = mask.indices[at] - c0
        word = np.repeat(np.arange(run.start, run.stop) * words, count) + (cols >> 6)
        if word.size:
            first = np.flatnonzero(np.diff(word, prepend=-1))  # word is nondecreasing
            bit = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
            bits[word[first]] = np.bitwise_or.reduceat(bit, first)
    return bits.reshape(lo.size, words)


def _tile_bounds(mask: Mask, span: int, tiles: int) -> np.ndarray:
    """(n, tiles + 1) entry bounds: row x's entries in filter tile k, the
    filters [k span, (k + 1) span), are mask.indices[b[x, k]:b[x, k + 1]].
    The rows are read in spans chunks, a row weighing its entries."""
    ptr = mask.indptr
    bounds = np.empty((ptr.size - 1, tiles + 1), dtype=np.int64)
    bounds[:, 0] = ptr[:-1]
    for run in spans(np.diff(ptr)):
        size = np.diff(ptr[run.start:run.stop + 1])
        tile = (np.repeat(np.arange(size.size, dtype=np.int64) * tiles, size)
                + mask.indices[ptr[run.start]:ptr[run.stop]] // span)
        np.cumsum(np.bincount(tile, minlength=size.size * tiles).reshape(-1, tiles),
                  axis=1, out=bounds[run, 1:])
    bounds[:, 1:] += bounds[:, :1]
    return bounds


def _shares_filter(
    x: np.ndarray, y: np.ndarray, query_mask: Mask, insert_mask: Mask
) -> np.ndarray:
    """Per pair (x, y), whether query row x and insert row y share a filter.

    The filters' 64-bit word columns, each weighing one word per list row,
    are cut into tiles by rpc.spans.  Per tile, both masks' rows become
    bitsets, each read from its entry bounds in that tile, and each pair
    still open ANDs its two rows' words; a pair that shares a filter leaves
    the later tiles.  The open pairs are tested in spans chunks, a pair
    weighing its tile's words.
    """
    n, t = query_mask.shape
    tiles = spans(np.broadcast_to(max(1, n), -(-t // 64)))  # word columns of n words
    span = 64 * tiles[0].stop  # filters per tile
    masks = [query_mask] if insert_mask is query_mask else [query_mask, insert_mask]
    bounds = [_tile_bounds(mask, span, len(tiles)) for mask in masks]
    out = np.zeros(x.size, dtype=bool)
    open_ = np.arange(x.size)
    for k, tile in enumerate(tiles):
        if not open_.size:
            break
        words = tile.stop - tile.start
        bits = [_tile_bits(mask, b[:, k], b[:, k + 1], 64 * tile.start, words)
                for mask, b in zip(masks, bounds)]
        qbits, ibits = bits[0], bits[-1]
        chunks = (open_[run] for run in spans(np.broadcast_to(words, open_.size)))
        hit = np.concatenate([(qbits[x[pairs]] & ibits[y[pairs]]).any(axis=1) for pairs in chunks])
        out[open_[hit]] = True
        open_ = open_[~hit]
    return out


def keys_to_pairs(keys: np.ndarray, n: int) -> set[tuple[int, int]]:
    """The ordered pair set {(x, y)} of int64 keys x * n + y."""
    x, y = np.divmod(keys, n)
    return set(zip(x.tolist(), y.tolist()))


def preprocess(
    instance: SieveInstance, family: FilterFamily, beta: float, ledger: QueryLedger
) -> Buckets:
    """Insert every vector into the buckets of its beta-close filters."""
    _check_family(instance, family)
    (mask,) = _close_masks(instance, family, {"beta": beta})
    _charge_filters(ledger, mask, insert=True)
    return Buckets(_transposed(mask))


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
    in the output but every individual test is still charged.  Buckets
    whose shape is not (n, t) for this list and family are refused.
    """
    _check_family(instance, family)
    if buckets.members.shape != (instance.n, family.t):
        raise DomainError("buckets were built for a different list or family")
    (mask,) = _close_masks(instance, family, {"alpha": alpha})
    _charge_filters(ledger, mask, insert=False)
    insert_mask = _transposed(buckets.members)
    keys = _covered_close_keys(_upper_close_keys(instance), mask, insert_mask, ledger)
    return keys_to_pairs(keys, instance.n)


def _check_method(method: str) -> None:
    if method not in ("query", "fas"):
        raise DomainError(f"method must be query or fas, got {method!r}")


def pair_keys(
    instance: SieveInstance,
    family: FilterFamily,
    alpha: float,
    beta: float,
    method: str,
    ledger: QueryLedger,
) -> tuple[np.ndarray, np.ndarray]:
    """One run of method "query" or "fas": its pairs and the close pairs
    (brute_force_keys, unguarded), both as ascending int64 keys x * n + y.

    The list is scored once for both thresholds.  "query" charges the
    ledger what preprocess at beta and then query_method at alpha would;
    "fas" charges both sides as insertions, as fas_method does.  Beta
    is checked before alpha.
    """
    _check_method(method)
    _check_family(instance, family)
    insert_mask, query_mask = _close_masks(instance, family, {"beta": beta, "alpha": alpha})
    _charge_filters(ledger, insert_mask, insert=True)
    _charge_filters(ledger, query_mask, insert=method == "fas")
    upper = _upper_close_keys(instance)
    found = _covered_close_keys(upper, query_mask, insert_mask, ledger)
    return found, _with_mirrors(upper, instance.n)


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
    return keys_to_pairs(pair_keys(instance, family, alpha, beta, "fas", ledger)[0], instance.n)


def brute_force_keys(instance: SieveInstance) -> np.ndarray:
    """brute_force_pairs as ascending int64 keys x * n + y."""
    if instance.n > BRUTE_FORCE_GUARD:
        raise GuardError(f"brute force refuses n > {BRUTE_FORCE_GUARD}")
    return _with_mirrors(_upper_close_keys(instance), instance.n)


def brute_force_pairs(instance: SieveInstance) -> set[tuple[int, int]]:
    """Exact ordered close-pair set by full scan over normalized vectors."""
    return keys_to_pairs(brute_force_keys(instance), instance.n)


def sieve_step(
    instance: SieveInstance, family: FilterFamily, alpha: float, beta: float
) -> np.ndarray:
    """One list-sieve round: emit differences of found reducing pairs.

    Pairs come from the query method at the instance angle; a pair counts
    as reducing when ||v - w|| <= instance.shrink_factor * radius.  Zero
    differences are dropped, so identical inputs produce nothing.
    """
    if instance.mode != "norm":
        raise DomainError("sieve_step needs a norm-mode instance")
    keys, _ = pair_keys(instance, family, alpha, beta, "query", QueryLedger())
    x, y = np.divmod(keys, instance.n)
    diff = instance.vectors[x]
    diff -= instance.vectors[y]
    norm = _row_norms(diff)
    return diff[(1e-12 < norm) & (norm <= instance.shrink_factor * instance.radius + 1e-9)]


@dataclass(frozen=True)
class ExpectedLedger:
    insert_coverage: float  # n t C(beta): bucket insertions
    query_coverage: float  # n t C(alpha): query-side filter hits
    inner_products: float  # t (n (n-1) C(alpha) C(beta) + n C(max(alpha, beta))): pairwise tests

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.insert_coverage, self.query_coverage, self.inner_products)


def expected_ledger(n: int, t: int, alpha: float, beta: float, d: int) -> ExpectedLedger:
    """Mean-field counter forecast from exact cap volumes.

    A query x tests every entry of its alpha-close buckets, itself
    included wherever it was inserted too: for the n (n - 1) ordered
    pairs of distinct vectors a filter covers both with probability
    C(alpha) C(beta), and it covers x at both thresholds with
    probability C(max(alpha, beta)).
    """
    ca = cap_volume_exact(d, alpha)
    cb = cap_volume_exact(d, beta)
    both = min(ca, cb)  # C(max(alpha, beta)): the cap shrinks as its threshold grows
    return ExpectedLedger(n * t * cb, n * t * ca, t * (float(n) * (n - 1) * ca * cb + n * both))


@dataclass(frozen=True)
class SieveRun:
    d: int
    n: int
    method: str
    theta: float
    alpha: float
    beta: float
    t: int
    wedge_estimate: float | None  # None when t was given
    pairs_found: int
    pairs_brute: int
    recall: float
    filter_queries: int
    inner_product_queries: int
    insertions: int
    expected_insert_coverage: float
    expected_query_coverage: float
    expected_inner_products: float
    ratio_inner_products: float | None  # None when nothing was forecast
    seed: int


def run(d: int, n: int, seed: int, method: str, theta: float, alpha: float | None,
        beta: float | None, t: int | None, wedge_samples: int | None) -> SieveRun | None:
    """The sieve command: pair_keys by method on n unit vectors in dimension d
    and an explicit family of t filters, t = ceil(3 / W) by default.  Every
    input is checked before the list is drawn, in messages that name the
    command's flags.  The report holds the command's columns, in order; an
    empty list has none."""
    if n < 0:
        raise DomainError(f"--n must be >= 0, got {n}")
    if d < 2:
        raise DomainError(f"--d must be >= 2, got {d}")
    if d > SIEVE_D_GUARD:
        raise GuardError(f"d={d} exceeds the dimension guard {SIEVE_D_GUARD}")
    if n > BRUTE_FORCE_GUARD:
        raise GuardError(f"n={n} exceeds the list-size guard {BRUTE_FORCE_GUARD}")
    _check_method(method)

    # before the cosine, which refuses +-inf; the wedge needs theta < pi
    if not 0.0 < theta < math.pi:
        raise DomainError(f"--theta must lie in (0, pi), got {theta}")
    cos_theta = math.cos(theta)
    # before the wedge, in pair_keys' order
    for name, given in (("beta", beta), ("alpha", alpha)):
        thr = cos_theta if given is None else given
        if not -1.0 <= thr < 1.0:
            if given is None:  # cos(theta) leaves [-1, 1) only by rounding to 1 at a tiny theta
                raise DomainError(f"{name} defaults to cos(--theta) = {thr}, outside [-1, 1): "
                                  f"--theta {theta} is too small")
            raise DomainError(f"{name} must lie in [-1, 1), got {thr}")
    alpha = cos_theta if alpha is None else alpha
    beta = cos_theta if beta is None else beta
    for flag, count in (("--t", t), ("--wedge-samples", wedge_samples)):
        if count is not None and count < 1:
            raise DomainError(f"{flag} must be >= 1, got {count}")
    if wedge_samples is not None:
        geometry.check_mc_samples(wedge_samples)

    # t = ceil(3 / W) covers a close pair with probability about 1 - e^-3; a 3 / W
    # within 1e-12 relative of an integer is that integer, whatever W's last ulp.
    # An empty list skips the wedge: it needs no t.
    wedge_est = None
    if t is None and n > 0:
        if wedge_samples is None:
            wedge_est = geometry.wedge_volume_quad(d, alpha, beta, theta)
        else:
            wedge_est = geometry.wedge_volume_mc(
                d, alpha, beta, theta, wedge_samples, derive_seed(seed, 2)).estimate
        if wedge_est <= 0.0:
            raise GuardError("wedge estimate vanished; pass --t explicitly")
        ratio = 3.0 / wedge_est
        t = round(ratio) if abs(ratio - round(ratio)) <= 1e-12 * ratio else math.ceil(ratio)
    if t is not None and t > FAMILY_GUARD:
        raise GuardError(f"filter count {t} exceeds the family guard {FAMILY_GUARD}")
    if n == 0:
        return None
    expected = expected_ledger(n, t, alpha, beta, d)
    keys = (expected.insert_coverage + expected.query_coverage
            + n * (n - 1) * cap_volume_exact(d, cos_theta))
    if keys > SIEVE_KEYS_GUARD:
        raise GuardError(f"forecast of {keys:.3g} keys exceeds the sieve key guard {SIEVE_KEYS_GUARD}")

    instance = random_instance(d, n, seed, mode="unit", theta=theta)
    family = rpc.build_family("explicit", d, derive_seed(seed, 1), t=t)
    ledger = QueryLedger()
    pairs, close = pair_keys(instance, family, alpha, beta, method, ledger)
    products = ledger.inner_product_queries
    return SieveRun(
        d, n, method, theta, alpha, beta, t, wedge_est,
        pairs.size, close.size, pairs.size / close.size if close.size else 1.0,
        ledger.filter_queries, products, ledger.insertions, *expected.as_tuple(),
        products / expected.inner_products if expected.inner_products else None, seed)


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
