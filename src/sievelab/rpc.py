"""Spherical filter families: explicit random centers and product codes.

A filter family is a set of t unit vectors ("centers") on S^{d-1}.  The
explicit kind stores them as rows of a matrix.  The product-code kind
stores B blocks of m short vectors of norm 1/sqrt(B) each; center i is
the concatenation of one vector per block, picked by the base-m digits
of i, so t = m^B codewords exist without ever materializing them.

Two queries matter downstream.  relevant_filters(v, alpha) returns every
center with <v, c> >= alpha; for product codes this runs as a
branch-and-bound over blocks instead of a scan.  sample_alpha_close
draws a near-uniform qualifying center from a bounded string of random
coins, using a dynamic-programming tree over discretized block scores.
The discretization only ever widens the qualifying set, so a sampled
center is guaranteed (alpha - epsilon)-close with the documented
epsilon.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .binfile import BinaryReader
from .errors import DomainError
from .geometry import sample_sphere
from .rng import make_rng

# levels per block in the sampling tree; epsilon = 2 sqrt(B) / grid_size
DEFAULT_GRID_SIZE = 64
# headroom coins beyond ceil(log2(root count)), keeps the coin-to-leaf
# map within ~1% of uniform instead of the worst-case factor 2
COIN_MARGIN = 4

_MAGIC = b"SLF1"
_KIND_CODES = {"explicit": 0, "rpc": 1}


@dataclass(frozen=True, eq=False)
class FilterFamily:
    kind: str
    d: int
    t: int
    seed: int
    centers: np.ndarray | None = None  # explicit: (t, d) unit rows
    blocks: tuple[np.ndarray, ...] | None = None  # rpc: B arrays (m, d//B)
    m: int | None = None
    B: int | None = None

    def center(self, i: int) -> np.ndarray:
        """Center i as a full d-vector (materialized on demand for rpc)."""
        if not 0 <= i < self.t:
            raise DomainError(f"center index {i} outside [0, {self.t})")
        if self.kind == "explicit":
            return self.centers[i]
        digits = _digits(i, self.m, self.B)
        return np.concatenate([self.blocks[b][digits[b]] for b in range(self.B)])

    def all_centers(self) -> np.ndarray:
        """Full (t, d) center matrix; the brute-force view of the family."""
        if self.kind == "explicit":
            return self.centers
        return np.stack([self.center(i) for i in range(self.t)])


def _digits(i: int, m: int, B: int) -> list[int]:
    out = [0] * B
    for b in range(B - 1, -1, -1):
        out[b] = i % m
        i //= m
    return out


def _check_counts(
    kind: str, d: int, *, t: int | None = None, m: int | None = None, B: int | None = None
) -> None:
    if d < 1:
        raise DomainError(f"filter families need d >= 1, got {d}")
    if kind == "explicit" and (t is None or t < 1):
        raise DomainError("explicit family needs t >= 1")
    if kind == "rpc":
        if m is None or B is None or m < 1 or B < 1:
            raise DomainError("rpc family needs m >= 1 and B >= 1")
        if d % B != 0:
            raise DomainError(f"block count B={B} must divide d={d}")


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

    explicit needs t; rpc needs m and B with B | d.  Block vectors are
    Gaussian draws scaled to norm 1/sqrt(B), which makes every codeword
    a unit vector by construction.
    """
    _check_counts(kind, d, t=t, m=m, B=B)
    rng = make_rng(seed)
    if kind == "explicit":
        centers = sample_sphere(d, rng, size=t)
        return FilterFamily(kind, d, t, seed, centers=centers)
    if kind == "rpc":
        scale = 1.0 / math.sqrt(B)
        blocks = tuple(
            sample_sphere(d // B, rng, size=m) * scale for _ in range(B)
        )
        return FilterFamily(kind, d, m**B, seed, blocks=blocks, m=m, B=B)
    raise DomainError(f"unknown family kind {kind!r}")


# --- relevant-filter enumeration --------------------------------------------


def _check_query(family: FilterFamily, v: np.ndarray, alpha: float) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    check_queries(family, v[None], alpha)
    return v


def check_queries(family: FilterFamily, V: np.ndarray, alpha: float) -> None:
    """The relevant_filters argument checks for a batch of query rows."""
    if V.ndim != 2 or V.shape[1] != family.d:
        raise DomainError(f"query rows must have {family.d} coordinates")
    # np.linalg.norm's sum as Python floats, cheap for one row; NaN and inf fail <=
    norms = np.sqrt(np.add.reduce(V * V, axis=1)).tolist()
    if not all(abs(x - 1.0) <= 1e-6 for x in norms):
        raise DomainError("v must be a unit vector")
    if not -1.0 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [-1, 1), got {alpha}")


def relevant_filters(family: FilterFamily, v: np.ndarray, alpha: float) -> list[int]:
    """Sorted indices of every center with <v, c_i> >= alpha."""
    return relevant_filters_with_cost(family, v, alpha)[0]


def relevant_filters_with_cost(
    family: FilterFamily, v: np.ndarray, alpha: float
) -> tuple[list[int], int]:
    """relevant_filters plus the number of search nodes visited.

    Explicit families scan (t nodes).  Product codes run a depth-first
    branch-and-bound over blocks: a child is pruned when its partial
    score plus the best achievable remaining block scores cannot reach
    alpha.  Node count never exceeds t*B.
    """
    v = _check_query(family, v, alpha)
    if family.kind == "explicit":
        scores = family.centers @ v
        return [int(i) for i in np.flatnonzero(scores >= alpha)], family.t

    m, B = family.m, family.B
    w = family.d // B
    scores = [family.blocks[b] @ v[b * w : (b + 1) * w] for b in range(B)]
    best_tail = np.zeros(B + 1)
    for b in range(B - 1, -1, -1):
        best_tail[b] = best_tail[b + 1] + float(np.max(scores[b]))

    out: list[int] = []
    nodes = 0

    def descend(b: int, partial: float, prefix: int) -> None:
        nonlocal nodes
        for j in range(m):
            nodes += 1
            s = partial + scores[b][j]
            if s + best_tail[b + 1] < alpha:
                continue
            if b + 1 == B:
                if s >= alpha:
                    out.append(prefix * m + j)
            else:
                descend(b + 1, s, prefix * m + j)

    descend(0, 0.0, 0)
    return out, nodes


# --- bounded-coin sampling of alpha-close centers ----------------------------


@dataclass(frozen=True, eq=False)
class SampleTree:
    """DP tables for drawing near-uniform qualifying product codewords.

    Block scores are floored onto a grid of grid_size levels spanning
    [-1/sqrt(B), 1/sqrt(B)], so a codeword's discretized score
    underestimates the true one by less than epsilon = 2 sqrt(B) /
    grid_size.  Leaves counted at the root are the pseudo-close set:
    it contains every alpha-close center and only (alpha -
    epsilon)-close ones.
    """

    family: FilterFamily
    v: np.ndarray
    alpha: float
    grid_size: int
    epsilon: float
    level_min: int
    levels: tuple[np.ndarray, ...]  # per block, per vector integer level
    tails: tuple[np.ndarray, ...]  # tails[b][L] = completions of blocks b.. with sum >= L
    root_count: int
    coin_count: int

    def coin_rank(self, x):
        """Leaf rank that coin integer x selects: [0, 2^R) scaled onto
        [0, root_count), rounded down.

        x is a Python int or an int64 array; the array form is exact
        while x * root_count stays below 2^63.
        """
        return (x * self.root_count) >> self.coin_count


def _tail_lookup(tail: np.ndarray, need: int) -> int:
    if need <= 0:
        return int(tail[0])
    if need >= tail.size:
        return 0
    return int(tail[need])


def build_sample_tree(
    family: FilterFamily,
    v: np.ndarray,
    alpha: float,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> SampleTree:
    """Precompute leaf counts for qualifying codewords under v, alpha."""
    if family.kind != "rpc":
        raise DomainError("sample trees need a product-code family")
    if grid_size < 2:
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")
    v = _check_query(family, v, alpha)
    m, B = family.m, family.B
    w = family.d // B
    step = (2.0 / math.sqrt(B)) / grid_size
    epsilon = B * step
    smin = -1.0 / math.sqrt(B)

    levels = []
    for b in range(B):
        s = family.blocks[b] @ v[b * w : (b + 1) * w]
        lv = np.floor((s - smin) / step + 1e-12).astype(np.int64)
        levels.append(np.clip(lv, 0, grid_size))
    # qualify iff the level sum L satisfies step*L - sqrt(B) > alpha - epsilon
    level_min = int(math.floor((alpha - epsilon + math.sqrt(B)) / step + 1e-12)) + 1

    counts = np.ones(1, dtype=np.int64)
    tails: list[np.ndarray] = [np.ones(1, dtype=np.int64)]
    for b in range(B - 1, -1, -1):
        hist = np.bincount(levels[b], minlength=grid_size + 1).astype(np.int64)
        counts = np.convolve(hist, counts)
        tails.append(np.cumsum(counts[::-1])[::-1])
    tails.reverse()

    root = _tail_lookup(tails[0], level_min)
    coins = (root - 1).bit_length() + COIN_MARGIN if root > 0 else 0
    return SampleTree(
        family=family,
        v=v,
        alpha=alpha,
        grid_size=grid_size,
        epsilon=epsilon,
        level_min=level_min,
        levels=tuple(levels),
        tails=tuple(tails),
        root_count=root,
        coin_count=coins,
    )


def sample_alpha_close(tree: SampleTree, coins: str | Sequence[int]) -> int:
    """Map a coin string of length tree.coin_count to a qualifying center.

    The coins form an integer x; rank u = tree.coin_rank(x) selects a
    leaf, which the DP tables unrank to a codeword index.
    Every leaf receives an equal share of coin strings up to one, so
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
    return leaf_index(tree, tree.coin_rank(x))


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
    """Binary dump: header (kind, d, counts, seed) then '<f8' vectors."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BIQ", _KIND_CODES[family.kind], family.d, family.seed))
        if family.kind == "explicit":
            fh.write(struct.pack("<I", family.t))
            fh.write(np.ascontiguousarray(family.centers, dtype="<f8").tobytes())
        else:
            fh.write(struct.pack("<II", family.m, family.B))
            for block in family.blocks:
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_family(path: str) -> FilterFamily:
    """Read a save_family file, with build_family's checks on its counts."""
    reader = BinaryReader(path, _MAGIC, "filter-family")
    code, d, seed = reader.unpack("<BIQ")
    if code == _KIND_CODES["explicit"]:
        (t,) = reader.unpack("<I")
        _check_counts("explicit", d, t=t)
        centers = reader.floats(t, d)
        reader.finish()
        return FilterFamily("explicit", d, t, seed, centers=centers)
    if code == _KIND_CODES["rpc"]:
        m, B = reader.unpack("<II")
        _check_counts("rpc", d, m=m, B=B)
        blocks = tuple(reader.floats(m, d // B) for _ in range(B))
        reader.finish()
        return FilterFamily("rpc", d, m**B, seed, blocks=blocks, m=m, B=B)
    raise DomainError(f"unknown family kind code {code}")
