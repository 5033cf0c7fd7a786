"""Spherical filter families, all stored as random product codes.

A filter family is a set of t unit vectors ("centers") on S^{d-1}, kept
as B blocks of m short vectors of norm 1/sqrt(B) each.  Center i is the
concatenation of one vector per block, picked by the base-m digits of
i, so t = m^B codewords exist without ever materializing them.  An
explicit family of t random centers is the one-block case, m = t, B = 1.

Two queries matter downstream.  decode(scores, alpha) finds, for a batch
of rows, every codeword reaching alpha by one branch-and-bound over the
block scores, in one loop for any B.  score_tiles walks a batch's score
tiles in one flat sequence, scan decodes a product code's tiles at
several thresholds, and relevant_filters(v, alpha) is its one-row case.
A one-block family's tiles are only ever compared with a threshold, so
scan screens them in float32 (_at_least) instead: a proved margin sends
the few scores near a threshold to a float64 re-score, and a re-score
within float64's own error of the threshold to the float64 tile itself,
so every decision is the float64 product's.  The screen needs unit
codewords, which build_family makes and load_family checks.
sample_alpha_close draws a near-uniform qualifying center from a
bounded string of random coins, using a dynamic-programming tree over
discretized block scores.  The discretization only ever widens the
qualifying set, so a sampled center is guaranteed (alpha -
epsilon)-close with the documented epsilon.  sample_levels puts a batch
of rows on that grid with one product per block and score tile;
build_sample_tree is its one-row case, and sample_leaves lists every
row's qualifying leaves, in rank order, by one decode of the levels.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .binfile import BinaryReader
from .errors import DomainError
from .geometry import sample_sphere
from .rng import make_rng

# levels per block in the sampling tree; epsilon = 2 sqrt(B) / GRID_SIZE
GRID_SIZE = 64
# headroom coins beyond ceil(log2(root count)), keeps the coin-to-leaf
# map within ~1% of uniform instead of the worst-case factor 2
COIN_MARGIN = 4

# spans' default budget: a chunk of scores, partial sums or mask entries holds
# at most this many (2 MB of doubles, or a float32 screen tile of 1 MB beside
# its candidates), keeping peak memory flat in rows and prefixes
_BLOCK_FLOATS = 1 << 18

_MAGIC = b"SLF1"
_KIND_CODES = {"explicit": 0, "rpc": 1}


@dataclass(frozen=True, eq=False)
class FilterFamily:
    """B blocks of m vectors, blocks[b] of shape (m, d // B); t = m^B.
    m, B and t are read off the arrays, so they cannot disagree with them."""

    kind: str  # "explicit" (one block of t centers) or "rpc": how it was drawn and is saved
    d: int
    seed: int
    blocks: tuple[np.ndarray, ...]

    @property
    def m(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def B(self) -> int:
        return len(self.blocks)

    @property
    def t(self) -> int:
        return self.m**self.B

    def center(self, i: int) -> np.ndarray:
        """Center i as a full d-vector, materialized on demand."""
        if not 0 <= i < self.t:
            raise DomainError(f"center index {i} outside [0, {self.t})")
        digits = np.unravel_index(i, (self.m,) * self.B)
        return np.concatenate([blk[j] for blk, j in zip(self.blocks, digits)])

    def all_centers(self) -> np.ndarray:
        """Full (t, d) center matrix; the brute-force view of the family."""
        digits = np.indices((self.m,) * self.B).reshape(self.B, -1)
        return np.concatenate([blk[j] for blk, j in zip(self.blocks, digits)], axis=1)

    @cached_property
    def screen(self) -> tuple[np.ndarray, float]:
        """The first block in float32 and its largest vector norm: scan's
        float32 screen of a one-block family, made once per family."""
        return self.blocks[0].astype(np.float32), _max_norm(self.blocks[0])


def _check_counts(kind: str, d: int, m: int | None, B: int | None) -> None:
    if d < 1:
        raise DomainError(f"filter families need d >= 1, got {d}")
    if kind not in ("explicit", "rpc"):
        raise DomainError(f"unknown family kind {kind!r}")
    if m is None or B is None or m < 1 or B < 1:
        need = "t >= 1" if kind == "explicit" else "m >= 1 and B >= 1"
        raise DomainError(f"{kind} family needs {need}")
    if d % B != 0:
        raise DomainError(f"block count B={B} must divide d={d}")
    if m > 1 and (B >= 63 or m**B >= 2**63):  # indices and tree counts are int64
        raise DomainError(f"t = {m}^{B} codewords must stay below 2^63")


def build_family(
    kind: str,
    d: int,
    seed: int,
    *,
    t: int | None = None,
    m: int | None = None,
    B: int | None = None,
) -> FilterFamily:
    """Draw a deterministic filter family of the requested kind.

    explicit needs t and draws the one-block code m = t, B = 1; rpc
    needs m and B with B | d.  Block vectors are Gaussian draws scaled
    to norm 1/sqrt(B), which makes every codeword a unit vector by
    construction (the scale is exactly 1.0 for one block).
    """
    if kind == "explicit":
        m, B = t, 1
    _check_counts(kind, d, m, B)
    rng = make_rng(seed)
    blocks = tuple(sample_sphere(d // B, rng, size=m) for _ in range(B))
    for block in blocks:
        block *= 1.0 / math.sqrt(B)  # in place: no second copy of the centers
    return FilterFamily(kind, d, seed, blocks)


# --- relevant-filter enumeration --------------------------------------------


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of x, bit for bit: norm takes the sqrt of
    a dot, and a stacked (1, d) @ (d, 1) matmul is that same dot.  A NaN or
    inf coordinate makes its row's norm so."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0, 0]


def check_queries(
    family: FilterFamily, V: np.ndarray, alpha: float, name: str = "alpha"
) -> None:
    """The relevant_filters argument checks for a batch of query rows;
    a threshold out of range is reported under ``name``."""
    if V.ndim != 2 or V.shape[1] != family.d:
        raise DomainError(f"query rows must have {family.d} coordinates")
    norms = _row_norms(V).tolist()  # NaN and inf fail <=
    if not all(abs(x - 1.0) <= 1e-6 for x in norms):
        raise DomainError("v must be a unit vector")
    if not -1.0 <= alpha < 1.0:
        raise DomainError(f"{name} must lie in [-1, 1), got {alpha}")


def spans(weights: np.ndarray, budget: int | None = None) -> list[slice]:
    """The filter engine's one chunk rule: consecutive slices of range(len(weights)),
    each the longest whose weights sum to at most budget (_BLOCK_FLOATS, read at
    call time, by default) or one heavier item; for a uniform weight m, max(1,
    budget // m) items.  Stride-0 weights (np.broadcast_to of one weight) are
    cut so in closed form; others by running sums, returned as a list so that
    the sums are freed before any chunk."""
    budget = _BLOCK_FLOATS if budget is None else budget
    if weights.size and weights.strides == (0,):
        w = int(weights[0])
        step = max(1, budget // w) if w else weights.size
        return [slice(lo, min(lo + step, weights.size)) for lo in range(0, weights.size, step)]
    before = np.concatenate(([0], np.cumsum(weights)))  # before[i]: weight of items < i
    cuts, lo = [], 0
    while lo < before.size - 1:
        hi = max(lo + 1, int(before.searchsorted(before[lo] + budget, side="right")) - 1)
        cuts.append(slice(lo, hi))
        lo = hi
    return cuts


def _tiles(rows: np.ndarray, blocks: Sequence[np.ndarray]) -> Iterator[tuple[slice, slice]]:
    """score_tiles' tiles as (row run, vector cut) slices, in its order."""
    m = len(blocks[0])
    tiled = len(blocks) == 1 and m > _BLOCK_FLOATS
    if tiled:
        runs = spans(np.broadcast_to(1, len(rows)), math.isqrt(_BLOCK_FLOATS))
    else:
        runs = spans(np.broadcast_to(m, len(rows)))
    for run in runs:
        for cut in spans(np.broadcast_to(run.stop - run.start, m)) if tiled else [slice(0, m)]:
            yield run, cut


def score_tiles(
    rows: np.ndarray, blocks: Sequence[np.ndarray]
) -> Iterator[tuple[int, int, list[np.ndarray]]]:
    """The rows' scores, one tile at a time: per tile, its first row r0, its
    first vector index c0 and the (tile rows, width) score matrix against each
    block's vectors c0 onwards, one product each.  Tiles come in row order.

    A row weighs its m scores, and each spans chunk of rows is one full-width
    tile.  One block whose row of scores exceeds the budget (m > _BLOCK_FLOATS)
    is cut into R = isqrt(budget) rows instead, and its vectors by spans, each
    weighing one score per row of the chunk: a score matrix then stays within
    the budget, and the centers are read once per R rows.  scan screens an
    explicit family over the same tiles (_tiles) without scoring them here."""
    w = rows.shape[1] // len(blocks)
    for run, cut in _tiles(rows, blocks):
        chunk = rows[run]
        yield run.start, cut.start, [chunk[:, b * w : (b + 1) * w] @ blk[cut].T
                                     for b, blk in enumerate(blocks)]


def scan(
    rows: np.ndarray, family: FilterFamily, thresholds: Sequence[float]
) -> tuple[list[np.ndarray], list[int]]:
    """Per threshold, decode's ascending keys x * t + i over the rows and the
    family's codewords, and its node count.  A product code decodes each
    score_tiles tile at every threshold.  A one-block family thresholds each
    of _tiles' tiles by _at_least instead, a float32 screen whose every
    decision is the tile's own float64 product's, at decode's t nodes a row.
    The keys are sorted once, in place, only when the block was cut into
    tiles narrower than m, whose keys interleave."""
    m, t = family.m, family.t
    keys: list[list[np.ndarray]] = [[np.empty(0, dtype=np.int64)] for _ in thresholds]
    if family.B > 1:
        nodes = [0] * len(thresholds)
        for r0, _, scores in score_tiles(rows, family.blocks):
            for k, thr in enumerate(thresholds):
                got, expanded = decode(scores, thr)
                nodes[k] += expanded
                keys[k].append(got + r0 * t)
        return [np.concatenate(part) for part in keys], nodes
    centers, (centers32, norm) = family.blocks[0], family.screen
    rows32, norm = rows.astype(np.float32), float(np.maximum(norm, _max_norm(rows)))
    narrow = False
    for run, cut in _tiles(rows, family.blocks):
        width = cut.stop - cut.start
        narrow |= width < m
        found = _at_least(rows[run], centers[cut], rows32[run], centers32[cut], norm, thresholds)
        for k, got in enumerate(found):
            if width == m:
                keys[k].append(got + run.start * t)
            else:  # a tile of the centers cut.start .. cut.stop
                r, c = np.divmod(got, width)
                keys[k].append((r + run.start) * t + c + cut.start)
    out = [np.concatenate(part) for part in keys]
    if narrow:
        for got in out:
            got.sort()
    return out, [len(rows) * t] * len(thresholds)


def _max_norm(x: np.ndarray) -> float:
    """The largest row norm of x, 0 for no rows; NaN when a row holds a NaN."""
    return float(_row_norms(x).max(initial=0.0))


def _screen_bounds(d: int, norm: float) -> tuple[float, float] | None:
    """The float32 margin and the float64 tie bound of _at_least, for rows
    of d coordinates whose norms are at most norm; None when no bound holds.

    Proof.  Let u = 2^-24, g(x) = d x / (1 - d x), N = norm^2 and p the
    exact inner product of a row pair.  Rounding the pair to float32 moves
    each term a_k b_k by at most (2u + u^2)|a_k b_k|, and a float32 dot
    product in any order, with FMA or without, errs by at most g(u) times
    its terms' absolute sum; by Cauchy-Schwarz the screen score s lies
    within (2u + u^2 + g(u)(1 + u)^2) N of p.  The float64 product S lies
    within g(2^-53) N of p, so |s - S| <= (d + 2) u N to first order.  The
    margin is twice that, (d + 2) 2^-23 N.  For d < 2^22 (d u < 1/4) its
    second half covers the rest: the higher-order terms, below
    (d + 2) u N (d u / (1 - d u) + 2^-24); the float64 rounding of norm;
    and rounding thr -+ margin to float32.  Every s and S lies within
    1.5 N of zero, so a bound beyond 2.5 N in size and its rounding put
    every entry on the same side; within it the rounding errs by under
    2.6 u N.  Hence S >= thr gives s >= thr - margin, and s >= thr +
    margin gives S >= thr.  A float64 re-score r also lies within
    g(2^-53) N of p, so within 2 g(2^-53) N of S, and the tie bound
    (d + 2) 2^-52 N covers that and the rounding of thr -+ tie the same
    way: r >= thr + tie gives S >= thr, and r < thr - tie gives S < thr.
    Underflow: below float32's normal range a rounding errs by up to
    2^-150 absolute, in all under d 2^-108 while norm <= 2^40, which the
    margin's absolute (d + 2) 2^-100 covers; the tie bound's
    (d + 2) 2^-1000 covers float64's.  norm <= 2^40 also keeps every
    float32 value below 2^81, far from overflow.  A larger norm, inf or
    NaN (a NaN coordinate makes its row's norm NaN) fails that cap, as
    does d >= 2^22: no bound."""
    if not (d < 1 << 22 and norm <= 2.0**40):
        return None
    scale = (d + 2) * norm * norm
    return scale * 2.0**-23 + (d + 2) * 2.0**-100, scale * 2.0**-52 + (d + 2) * 2.0**-1000


def _exact_tile(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The float64 tile a @ b.T, whose decisions _at_least reproduces."""
    return a @ b.T


def _at_least(
    a: np.ndarray,
    b: np.ndarray,
    a32: np.ndarray,
    b32: np.ndarray,
    norm: float,
    thresholds: Sequence[float],
) -> list[np.ndarray]:
    """Per threshold thr, np.flatnonzero(a @ b.T >= thr), with exactly the
    float64 product's decisions, screened in float32.

    a32 and b32 are a and b rounded to float32, and norm is at least every
    row norm of a and b.  With _screen_bounds' margin and tie bound: a
    float32 score s below thr - margin is out; s at thr + margin or above
    is in.  The candidates between are re-scored in float64 by an einsum
    over their rows, r: r at thr + tie or above is in, r below thr - tie
    is out.  Only an entry whose r lies within the tie bound of thr reads
    its bit from _exact_tile(a, b), computed at most once a call, so even
    a true tie gets the float64 product's bit.  Without bounds (a norm
    past 2^40, inf or NaN) every bit comes from _exact_tile."""
    bounds = _screen_bounds(a.shape[1], norm)
    if bounds is None:
        tile = _exact_tile(a, b)
        return [np.flatnonzero(tile >= thr) for thr in thresholds]
    margin, tie = bounds
    s = (a32 @ b32.T).ravel()
    cand = np.flatnonzero(s >= np.float32(np.fmin.reduce(thresholds, initial=math.inf) - margin))
    s = s[cand]
    exact = None
    out = []
    for thr in thresholds:
        keep = s >= np.float32(thr + margin)
        band = np.flatnonzero(~keep & (s >= np.float32(thr - margin)))
        if band.size:
            i, j = np.divmod(cand[band], len(b))
            r = np.einsum("ij,ij->i", a[i], b[j])
            keep[band] = r >= thr + tie
            tied = band[(r < thr + tie) & (r >= thr - tie)]
            if tied.size:
                if exact is None:
                    exact = _exact_tile(a, b).ravel()
                keep[tied] = exact[cand[tied]] >= thr
        out.append(cand[keep])
    return out


def relevant_filters(family: FilterFamily, v: np.ndarray, alpha: float) -> list[int]:
    """Sorted indices of every center with <v, c_i> >= alpha."""
    return relevant_filters_with_cost(family, v, alpha)[0]


def relevant_filters_with_cost(
    family: FilterFamily, v: np.ndarray, alpha: float
) -> tuple[list[int], int]:
    """relevant_filters plus the search nodes visited: scan on v as one row.
    A one-block family is a plain scan of t nodes; the count never exceeds t*B."""
    V = np.asarray(v, dtype=float)[None]
    check_queries(family, V, alpha)
    (keys,), (nodes,) = scan(V, family, [alpha])
    return keys.tolist(), nodes


def decode(scores: Sequence[np.ndarray], alpha: float) -> tuple[np.ndarray, int]:
    """The ascending keys x * m^B + i of the codewords i whose block-order
    sum ((0.0 + s_0) + s_1) + ... of the (rows, m) scores[b] reaches alpha
    for row x, and the nodes expanded: m per kept prefix, the root
    included.  A prefix is dropped when its partial sum plus its row's best
    remaining block scores (none after the last block) falls short, so one
    block, where 0.0 + s compares like s, is a plain threshold at m nodes a
    row.  Every block tests the kept prefixes in spans runs, each prefix
    weighing its m sums, so no test holds more than _BLOCK_FLOATS sums
    however many survive."""
    rows, m = scores[0].shape
    tails = [np.zeros(rows)]  # tails[b]: per row, best scores of blocks b + 1.. summed
    for s in scores[:0:-1]:
        tails.append(tails[-1] + s.max(axis=1))
    tails[0] = None  # after the last block nothing is left to add
    tails.reverse()
    row, prefix, partial = np.arange(rows), np.zeros(rows, dtype=np.int64), np.zeros(rows)
    nodes = 0
    for s, tail in zip(scores, tails):
        nodes += row.size * m
        kept = [(row[:0], prefix[:0], partial[:0])]
        for run in spans(np.broadcast_to(m, row.size)):
            at = row[run]
            sums = partial[run, None] + s[at]
            r, j = np.nonzero((sums if tail is None else sums + tail[at, None]) >= alpha)
            kept.append((at[r], prefix[run][r] * m + j, sums[r, j]))
        row, prefix, partial = (np.concatenate(part) for part in zip(*kept))
    return row * m ** len(scores) + prefix, nodes


# --- bounded-coin sampling of alpha-close centers ----------------------------


def coin_count(root: int) -> int:
    """Coins that index root_count leaves: ceil(log2(root)) + COIN_MARGIN,
    none for an empty tree."""
    return (root - 1).bit_length() + COIN_MARGIN if root > 0 else 0


def coin_rank(x, root: int, coins: int):
    """Leaf rank that coin integer x selects among root leaves: [0, 2^coins)
    scaled onto [0, root), rounded down.

    x is a Python int or an int64 array; the array form is exact while
    x * root stays below 2^63.
    """
    return (x * root) >> coins


@dataclass(frozen=True, eq=False)
class SampleTree:
    """DP tables for drawing near-uniform qualifying product codewords.

    Block scores are floored onto a grid of GRID_SIZE levels spanning
    [-1/sqrt(B), 1/sqrt(B)], so a codeword's discretized score
    underestimates the true one by less than epsilon = 2 sqrt(B) /
    GRID_SIZE.  Leaves counted at the root are the pseudo-close set:
    it contains every alpha-close center and only (alpha -
    epsilon)-close ones.
    """

    family: FilterFamily
    v: np.ndarray
    epsilon: float
    level_min: int
    levels: tuple[np.ndarray, ...]  # per block, per vector integer level
    tails: tuple[np.ndarray, ...]  # tails[b][L] = completions of blocks b.. with sum >= L
    root_count: int
    coin_count: int


def _tail_lookup(tail: np.ndarray, need: int) -> int:
    if need <= 0:
        return int(tail[0])
    if need >= tail.size:
        return 0
    return int(tail[need])


def sample_levels(
    family: FilterFamily, V: np.ndarray, alpha: float
) -> tuple[list[np.ndarray], int, float]:
    """The sample-tree grid for a batch of query rows: per block, the
    (rows, m) integer levels of the rows' block scores, the least level sum
    level_min that qualifies at alpha, and epsilon.

    The rows are checked once, as one check_queries call, and scored by
    score_tiles, one product per block and score tile.  A codeword
    qualifies for a row when its level sum reaches level_min, i.e. when
    step * sum - sqrt(B) > alpha - epsilon.
    """
    if family.kind != "rpc":
        raise DomainError("sample trees need a product-code family")
    V = np.asarray(V, dtype=float)
    check_queries(family, V, alpha)
    B = family.B
    step = (2.0 / math.sqrt(B)) / GRID_SIZE
    epsilon = B * step
    smin = -1.0 / math.sqrt(B)
    levels = [np.empty((len(V), family.m), dtype=np.int64) for _ in range(B)]
    for r0, c0, scores in score_tiles(V, family.blocks):
        for out, s in zip(levels, scores):
            lv = np.floor((s - smin) / step + 1e-12).astype(np.int64)
            out[r0 : r0 + len(s), c0 : c0 + s.shape[1]] = np.clip(lv, 0, GRID_SIZE)
    level_min = int(math.floor((alpha - epsilon + math.sqrt(B)) / step + 1e-12)) + 1
    return levels, level_min, epsilon


def sample_leaves(family: FilterFamily, V: np.ndarray, alpha: float) -> np.ndarray:
    """Ascending keys x * t + i of every leaf build_sample_tree(family,
    V[x], alpha) counts: for each row, its codewords in leaf_index's rank
    order, found by one decode of the levels.  Level sums of small
    integers are exact in floats, so decode's test is the tree's."""
    levels, level_min, _ = sample_levels(family, V, alpha)
    return decode([lv.astype(float) for lv in levels], level_min)[0]


def build_sample_tree(family: FilterFamily, v: np.ndarray, alpha: float) -> SampleTree:
    """Precompute leaf counts for qualifying codewords under v, alpha:
    sample_levels for v as one row, then per block a histogram of its
    levels convolved into the completion counts."""
    v = np.asarray(v, dtype=float)
    levels, level_min, epsilon = sample_levels(family, v[None], alpha)
    levels = [lv[0] for lv in levels]
    counts = np.ones(1, dtype=np.int64)
    tails: list[np.ndarray] = [np.ones(1, dtype=np.int64)]
    for b in range(family.B - 1, -1, -1):
        hist = np.bincount(levels[b], minlength=GRID_SIZE + 1).astype(np.int64)
        counts = np.convolve(hist, counts)
        tails.append(np.cumsum(counts[::-1])[::-1])
    tails.reverse()

    root = _tail_lookup(tails[0], level_min)
    return SampleTree(
        family=family,
        v=v,
        epsilon=epsilon,
        level_min=level_min,
        levels=tuple(levels),
        tails=tuple(tails),
        root_count=root,
        coin_count=coin_count(root),
    )


def sample_alpha_close(tree: SampleTree, coins: str | Sequence[int]) -> int:
    """Map a coin string of length tree.coin_count to a qualifying center.

    The coins form an integer x; rank u = coin_rank(x, root_count,
    coin_count) selects a leaf, which the DP tables unrank to a codeword
    index.  Every leaf receives an equal share of coin strings up to one, so
    the worst-case hit-count ratio between leaves is 2 and shrinks as
    COIN_MARGIN adds headroom.
    """
    if tree.root_count == 0:
        raise DomainError("sample tree has no qualifying centers")
    try:
        bits = [int(c) for c in coins]
    except (TypeError, ValueError):
        raise DomainError("coins must be a sequence of 0/1 bits") from None
    if len(bits) != tree.coin_count or any(b not in (0, 1) for b in bits):
        raise DomainError(f"coins must be {tree.coin_count} bits")
    x = 0
    for b in bits:
        x = (x << 1) | b
    return leaf_index(tree, coin_rank(x, tree.root_count, tree.coin_count))


def leaf_index(tree: SampleTree, rank: int) -> int:
    """Codeword index of the rank-th qualifying leaf, 0 <= rank < root_count."""
    if not 0 <= rank < tree.root_count:
        raise DomainError(f"rank {rank} outside [0, {tree.root_count})")
    m, B = tree.family.m, tree.family.B
    u = rank
    need = tree.level_min
    index = 0
    for b in range(B):
        for j in range(m):
            under = _tail_lookup(tree.tails[b + 1], need - int(tree.levels[b][j]))
            if u < under:
                index = index * m + j
                need -= int(tree.levels[b][j])
                break
            u -= under
        else:  # pragma: no cover - tables and rank are consistent by construction
            raise AssertionError("rank exhausted the leaf count")
    return index


# --- serialization -----------------------------------------------------------


def save_family(family: FilterFamily, path: str) -> None:
    """Binary dump: header (kind, d, seed, then t or m and B) and the
    blocks as '<f8' vectors."""
    counts = (family.m,) if family.kind == "explicit" else (family.m, family.B)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BIQ", _KIND_CODES[family.kind], family.d, family.seed))
        fh.write(struct.pack(f"<{len(counts)}I", *counts))
        for block in family.blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_family(path: str) -> FilterFamily:
    """Read a save_family file, with build_family's checks on its counts.
    Every block vector must be finite with norm 1/sqrt(B) within 1e-6
    (check_queries' tolerance), so every codeword is a unit vector, as
    build_family makes them and scan's float32 screen assumes."""
    reader = BinaryReader(path, _MAGIC, "filter-family")
    code, d, seed = reader.unpack("<BIQ")
    kind = {v: k for k, v in _KIND_CODES.items()}.get(code)
    if kind is None:
        raise DomainError(f"unknown family kind code {code}")
    m, B = reader.unpack("<II") if kind == "rpc" else (*reader.unpack("<I"), 1)
    _check_counts(kind, d, m, B)
    blocks = tuple(reader.floats(m, d // B) for _ in range(B))
    reader.finish()
    for block in blocks:
        if not np.all(np.abs(_row_norms(block) - 1.0 / math.sqrt(B)) <= 1e-6):  # NaN and inf fail
            raise DomainError(f"{path} holds a block vector that is not finite "
                              f"with norm 1/sqrt({B})")
    return FilterFamily(kind, d, seed, blocks)
