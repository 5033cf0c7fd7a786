"""Filter families: enumeration exactness, sampler uniformity, serialization."""

import itertools
import math
import os
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab import geometry, rpc, sieve
from sievelab.errors import DomainError
from sievelab.rng import make_rng


def test_explicit_family_unit_centers():
    fam = rpc.build_family("explicit", 8, 5, t=100)
    assert (fam.t, fam.m, fam.B) == (100, 100, 1) and fam.blocks[0].shape == (100, 8)
    assert np.allclose(np.linalg.norm(fam.all_centers(), axis=1), 1.0, atol=1e-12)


def test_rpc_family_codewords_unit_norm():
    fam = rpc.build_family("rpc", 12, 7, m=5, B=3)
    assert fam.t == 125
    norms = np.linalg.norm(fam.all_centers(), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


def test_family_determinism():
    a = rpc.build_family("rpc", 12, 99, m=4, B=2)
    b = rpc.build_family("rpc", 12, 99, m=4, B=2)
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))


def test_family_validation():
    with pytest.raises(DomainError):
        rpc.build_family("rpc", 10, 1, m=3, B=3)  # B does not divide d
    with pytest.raises(DomainError):
        rpc.build_family("explicit", 8, 1)  # t missing
    with pytest.raises(DomainError):
        rpc.build_family("fancy", 8, 1, t=4)
    # a 2^64-codeword code once built, and its sample tree counted 0 leaves
    for m, B in ((2, 63), (2, 64), (2**21, 3), (2**63, 1)):
        with pytest.raises(DomainError, match="below 2"):
            rpc.build_family("rpc", B, 1, m=m, B=B)
    assert rpc.build_family("rpc", 62, 1, m=2, B=62).t == 2**62
    assert rpc.build_family("rpc", 3, 1, m=2**21 - 1, B=3).t < 2**63


def test_center_materialization_matches_blocks():
    fam = rpc.build_family("rpc", 6, 3, m=3, B=2)
    # index digits are base-m, most significant block first
    c = fam.center(5)  # digits (1, 2)
    assert np.array_equal(c, np.concatenate([fam.blocks[0][1], fam.blocks[1][2]]))
    with pytest.raises(DomainError):
        fam.center(9)


def test_relevant_filters_alpha_minus_one_returns_all():
    fam = rpc.build_family("rpc", 8, 2, m=3, B=2)
    v = geometry.sample_sphere(8, make_rng(4))
    assert rpc.relevant_filters(fam, v, -1.0) == list(range(9))


def test_relevant_filters_matches_brute_force():
    rng, batch_rng = make_rng(0xABC), make_rng(0xDEF)
    worst_ratio, total_nodes = 0.0, 0
    for trial in range(100):
        if trial % 2 == 0:
            d = int(rng.integers(4, 17))
            fam = rpc.build_family(
                "explicit", d, int(rng.integers(0, 2**32)), t=int(rng.integers(1, 401))
            )
        else:
            B = int(rng.integers(1, 4))
            d = B * int(rng.integers(2, 7))
            fam = rpc.build_family(
                "rpc", d, int(rng.integers(0, 2**32)), m=int(rng.integers(2, 9)), B=B
            )
        v = geometry.sample_sphere(fam.d, rng)
        alpha = float(rng.uniform(-0.2, 0.8))
        got, nodes = rpc.relevant_filters_with_cost(fam, v, alpha)
        want = [int(i) for i in np.flatnonzero(fam.all_centers() @ v >= alpha)]
        assert got == want
        assert nodes <= fam.t * fam.B
        if fam.B == 1:
            assert nodes == fam.t  # a one-block family is a plain scan
        worst_ratio = max(worst_ratio, nodes / fam.t)
        total_nodes += nodes
        # one batched decode of several rows; its own generator keeps the pin below
        V = geometry.sample_sphere(fam.d, batch_rng, size=int(batch_rng.integers(2, 8)))
        w = fam.d // fam.B
        scores = [V[:, b * w : (b + 1) * w] @ blk.T for b, blk in enumerate(fam.blocks)]
        dots = V @ fam.all_centers().T
        for thr in (alpha, -1.0, 0.999):  # -1 keeps every codeword, 0.999 (nearly) none
            keys, nodes = rpc.decode(scores, thr)
            assert np.array_equal(keys, np.flatnonzero(dots >= thr))
            assert nodes <= len(V) * fam.t * fam.B
        assert rpc.decode(scores, -1.0)[0].size == len(V) * fam.t
    assert worst_ratio <= 3.0  # pruning keeps the walk near scan cost
    assert total_nodes == 12330  # the walk's cost is pinned, not only bounded


def _runs(weights, budget=None):
    # rpc.spans, checked against its contract: the runs partition [0, n) in
    # order; each sums to at most the budget or is one item; none could take
    # the next item
    budget_used = rpc._BLOCK_FLOATS if budget is None else budget
    runs = rpc.spans(np.asarray(weights, dtype=np.int64), budget)
    assert [0] + [r.stop for r in runs] == [r.start for r in runs] + [len(weights)]
    for r in runs:
        total = sum(weights[r])
        assert r.stop - r.start == 1 or (r.stop > r.start and total <= budget_used)
        if r.stop < len(weights):
            assert total + weights[r.stop] > budget_used
    return [(r.start, r.stop) for r in runs]


@given(st.lists(st.integers(0, 40), max_size=60), st.integers(1, 120))
def test_spans_are_maximal_runs_within_the_budget(weights, budget):
    _runs(weights, budget)


def test_spans_edge_cases():
    assert _runs([], 5) == []
    assert _runs([0, 0, 0], 1) == [(0, 3)]  # weightless items all fit
    assert _runs([0, 0, 5, 0, 2], 3) == [(0, 2), (2, 3), (3, 5)]  # a heavy item alone
    assert _runs([1, 1, 1], 1) == [(0, 1), (1, 2), (2, 3)]
    assert _runs([0, 1, 0, 1, 1], 1) == [(0, 3), (3, 4), (4, 5)]
    assert _runs([7, 2], 1) == [(0, 1), (1, 2)]


def test_spans_of_a_uniform_weight(monkeypatch):
    # m floats to an item: max(1, budget // m) items to a run, the last one
    # holding the rest; the default budget is rpc's, read at call time
    for n, m, budget in [(10, 3, 10), (7, 5, 4), (9, 1, 9), (100, 7, 1 << 18), (5, 2, 1)]:
        step = max(1, budget // m)
        want = [(lo, min(n, lo + step)) for lo in range(0, n, step)]
        assert _runs([m] * n, budget) == want
        monkeypatch.setattr(rpc, "_BLOCK_FLOATS", budget)
        assert _runs([m] * n) == want
        assert rpc.spans(np.broadcast_to(m, n)) == [slice(*r) for r in want]
        monkeypatch.undo()
    # a stride-0 np.broadcast_to weight is cut in closed form, with int
    # bounds, exactly as its materialised copy is by running sums
    for n, m, budget in itertools.product(range(40), (0, 1, 2, 3, 7, 50, 300),
                                          (1, 2, 5, 49, 50, 51, 100, 1 << 18)):
        got = rpc.spans(np.broadcast_to(m, n), budget)
        assert got == rpc.spans(np.array(np.broadcast_to(m, n)), budget), (n, m, budget)
        assert all(type(r.start) is int and type(r.stop) is int for r in got)


@pytest.mark.parametrize("B", [2, 3])
def test_decode_keys_do_not_depend_on_the_budget(monkeypatch, B):
    # kept prefixes are tested in spans runs of _BLOCK_FLOATS // m; the runs
    # must concatenate to the one-array keys, in the same ascending order
    rng = make_rng(0xDEC0 + B)
    for _ in range(20):
        rows, m = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        scores = [rng.uniform(-1.0, 1.0, size=(rows, m)) / math.sqrt(B) for _ in range(B)]
        alpha = float(rng.uniform(-0.5, 0.6))
        want = rpc.decode(scores, alpha)
        for block_floats in (1, 3, 2 * m + 1):
            monkeypatch.setattr(rpc, "_BLOCK_FLOATS", block_floats)
            keys, nodes = rpc.decode(scores, alpha)
            assert keys.tobytes() == want[0].tobytes() and nodes == want[1]
        monkeypatch.undo()
        assert np.all(np.diff(want[0]) > 0)


@pytest.mark.parametrize("kind, counts, budget", [
    ("explicit", {"t": 300}, None),
    ("rpc", {"m": 7, "B": 2}, 100),  # rows in chunks of 14
    ("rpc", {"m": 5, "B": 3}, None),
    ("explicit", {"t": 1000}, 900),  # one block past the budget: tiles of 30 rows
])
def test_scan_is_the_per_row_queries(monkeypatch, kind, counts, budget):
    # one batch of rows at two thresholds gives each row's
    # relevant_filters_with_cost keys shifted by x * t, and per threshold the
    # sum of the rows' node counts, whatever the row chunks and tiles
    fam = rpc.build_family(kind, 12, 13, **counts)
    V = geometry.sample_sphere(12, make_rng(14), size=70)
    thresholds = [0.3, -0.1]
    want = [[rpc.relevant_filters_with_cost(fam, v, thr) for v in V] for thr in thresholds]
    if budget is not None:
        monkeypatch.setattr(rpc, "_BLOCK_FLOATS", budget)
    keys, nodes = rpc.scan(V, fam, thresholds)
    for got, count, per_row in zip(keys, nodes, want):
        shifted = [np.asarray(k, dtype=np.int64) + x * fam.t for x, (k, _) in enumerate(per_row)]
        assert got.dtype == np.int64 and np.array_equal(got, np.concatenate(shifted))
        assert count == sum(c for _, c in per_row)
    assert 0 < keys[0].size < keys[1].size < len(V) * fam.t


@pytest.mark.parametrize("kind", ["explicit", "rpc"])
def test_one_block_past_the_budget_is_scored_in_tiles(monkeypatch, kind):
    # at 900 floats a row of m = 1000 scores does not fit: score_tiles cuts
    # R = 30 rows, and tiles of 900 // rows vectors, 30 for a full chunk and
    # 90 for the last 10 rows (the last tile 10 wide either way), in row
    # order; every one-block caller reads the tiles back into the full-width
    # answer
    kw = {"t": 1000} if kind == "explicit" else {"m": 1000, "B": 1}
    fam = rpc.build_family(kind, 8, 11, **kw)
    V = geometry.sample_sphere(8, make_rng(12), size=70)
    want_scores = V @ fam.blocks[0].T
    want_filters = [rpc.relevant_filters_with_cost(fam, v, 0.3) for v in V[:3]]
    want_levels = rpc.sample_levels(fam, V, 0.3) if kind == "rpc" else None
    monkeypatch.setattr(rpc, "_BLOCK_FLOATS", 900)
    got = np.full_like(want_scores, np.nan)
    widths: dict[int, list[int]] = {}
    order = []
    for r0, c0, (s,) in rpc.score_tiles(V, fam.blocks):
        rows = min(30, 70 - r0)
        assert s.shape[0] == rows and s.size <= 900
        assert c0 == sum(widths.setdefault(r0, []))  # a chunk's tiles left to right
        got[r0 : r0 + rows, c0 : c0 + s.shape[1]] = s
        widths[r0].append(s.shape[1])
        order.append((r0, c0))
    assert order == sorted(order) and list(widths) == [0, 30, 60]
    for r0, row_widths in widths.items():
        rows = min(30, 70 - r0)
        assert row_widths == [900 // rows] * (990 // (900 // rows)) + [10]
    assert np.array_equal(got, want_scores)
    assert [rpc.relevant_filters_with_cost(fam, v, 0.3) for v in V[:3]] == want_filters
    assert all(nodes == 1000 and len(keys) > 0 for keys, nodes in want_filters)
    if kind == "rpc":
        levels, level_min, epsilon = rpc.sample_levels(fam, V, 0.3)
        assert (level_min, epsilon) == want_levels[1:]
        assert np.array_equal(levels[0], want_levels[0][0])


def _unscreened_scan(rows, fam, thresholds):
    # scan's one-block keys before the float32 screen: per score_tiles tile,
    # flatnonzero(chunk @ blk[cut].T >= thr), mapped back to x * t + i
    keys = [[np.empty(0, dtype=np.int64)] for _ in thresholds]
    for r0, c0, (s,) in rpc.score_tiles(rows, fam.blocks):
        for k, thr in enumerate(thresholds):
            r, c = np.divmod(np.flatnonzero(s >= thr), s.shape[1])
            keys[k].append((r + r0) * fam.t + c + c0)
    return [np.sort(np.concatenate(part)) for part in keys]


@given(st.integers(1, 9), st.integers(0, 12), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["-1", "0.999", "0", "score", "below", "above"]),
                min_size=1, max_size=3),
       st.booleans())
def test_screened_scan_keeps_every_float64_decision(d, n, t, seed, picks, unit):
    # random rows and centers, unit or not, at thresholds that include -1,
    # 0.999 and computed float64 scores (a tie) or their neighbours; once
    # with full-width tiles and once at a 7-float budget, which tiles the
    # centers whenever t > 7
    rng = make_rng(seed)
    rows, centers = rng.normal(size=(n, d)), rng.normal(size=(t, d))
    if unit:
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        centers /= np.linalg.norm(centers, axis=1)[:, None]
    fam = rpc.FilterFamily("explicit", d, 0, (centers,))
    scores = np.concatenate([np.empty(0)] + [s.ravel() for _, _, (s,) in rpc.score_tiles(rows, fam.blocks)])
    score = float(scores[rng.integers(scores.size)]) if scores.size else 0.5
    near = {"score": score, "below": np.nextafter(score, -2.0), "above": np.nextafter(score, 2.0)}
    thresholds = [float(near.get(p, p)) for p in picks]
    for budget in (None, 7):
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(rpc, "_BLOCK_FLOATS", budget)
            keys, nodes = rpc.scan(rows, fam, thresholds)
            want = _unscreened_scan(rows, fam, thresholds)
        assert all(got.tobytes() == w.tobytes() for got, w in zip(keys, want))
        assert nodes == [n * t] * len(thresholds)


def _spy_exact_tile(monkeypatch):
    calls = []
    real = rpc._exact_tile

    def spy(a, b):
        calls.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(rpc, "_exact_tile", spy)
    return calls


def test_a_score_float32_rounds_below_alpha_is_re_scored(monkeypatch):
    # <e1, c> is alpha + 1e-9 for center 0 and alpha - 1e-9 for center 1:
    # float32 rounds both to one value below alpha, so only the float64
    # re-score tells them apart, and no tie reaches the exact tile
    alpha = float(np.float32(0.3)) + 0.4 * 2.0**-25  # 0.4 float32 spacings above one
    firsts = [alpha + 1e-9, alpha - 1e-9]
    centers = np.array([[c, math.sqrt(1.0 - c * c), 0.0] for c in firsts])
    assert all(float(np.float32(c)) < alpha for c in firsts)
    fam = rpc.FilterFamily("explicit", 3, 0, (centers,))
    calls = _spy_exact_tile(monkeypatch)
    assert rpc.relevant_filters(fam, np.array([1.0, 0.0, 0.0]), alpha) == [0]
    assert calls == []


def test_an_exact_tie_reads_the_float64_tile(monkeypatch):
    # <e1, c_0> equals alpha exactly: the re-score lies within the tie bound,
    # so the bit comes from the tile product, once per call
    alpha = 0.3
    centers = np.array([[alpha, math.sqrt(1.0 - alpha * alpha), 0.0], [0.0, 0.0, 1.0]])
    fam = rpc.FilterFamily("explicit", 3, 0, (centers,))
    calls = _spy_exact_tile(monkeypatch)
    x = np.array([1.0, 0.0, 0.0])
    assert rpc.relevant_filters(fam, x, alpha) == [0]
    assert rpc.relevant_filters(fam, x, math.nextafter(alpha, 1.0)) == []
    assert calls == [(1, 2), (1, 2)]


@pytest.mark.parametrize("bad", ["nan", "inf", "huge"])
def test_unboundable_norms_read_every_bit_from_the_tile(monkeypatch, bad):
    # no margin holds past a norm of 2^40, at inf or at NaN: the float64 tile decides
    rows = np.array([[1.0, 0.0], [0.6, 0.8]])
    rows[1, 0] = {"nan": math.nan, "inf": math.inf, "huge": 2.0**41}[bad]
    centers = np.array([[1.0, 0.0], [0.0, 1.0]])
    calls = _spy_exact_tile(monkeypatch)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in both products
        got = rpc._at_least(rows, centers, rows.astype(np.float32), centers.astype(np.float32),
                            rpc._max_norm(rows), [0.5, -1.0])
        exact = rows @ centers.T
    assert [g.tolist() for g in got] == [np.flatnonzero(exact >= thr).tolist() for thr in (0.5, -1.0)]
    assert calls == [(2, 2)]


def test_one_row_queries_keep_the_family_screen():
    # the per-query API reads the float32 centers made once with the family
    fam = rpc.build_family("explicit", 6, 4, t=50)
    v = geometry.sample_sphere(6, make_rng(5))
    rpc.relevant_filters(fam, v, 0.2)
    centers32, norm = fam.screen
    rpc.relevant_filters(fam, v, 0.2)
    assert fam.screen[0] is centers32 and centers32.dtype == np.float32
    assert abs(norm - 1.0) < 1e-12


def test_relevant_filters_expected_count():
    # over random unit v the qualifying count has mean t * cap fraction,
    # whatever the family structure; 200 draws land within factor 2
    fam = rpc.build_family("rpc", 12, 7, m=5, B=3)
    expect = 125 * geometry.cap_volume_exact(12, 0.5)
    vr = make_rng(0xDEF)
    mean = np.mean(
        [len(rpc.relevant_filters(fam, geometry.sample_sphere(12, vr), 0.5)) for _ in range(200)]
    )
    assert expect / 2 <= mean <= expect * 2


def test_relevant_filters_validation():
    fam = rpc.build_family("explicit", 8, 5, t=10)
    v = geometry.sample_sphere(8, make_rng(1))
    with pytest.raises(DomainError):
        rpc.relevant_filters(fam, v, 1.0)
    with pytest.raises(DomainError):
        rpc.relevant_filters(fam, v[:4], 0.3)
    with pytest.raises(DomainError):
        rpc.relevant_filters(fam, 2.0 * v, 0.3)


@pytest.mark.parametrize("kind", ["explicit", "rpc"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_relevant_filters_rejects_non_finite_queries(kind, bad):
    # abs(nan - 1) > 1e-6 is False, so a NaN query once passed the norm test
    fam = (rpc.build_family("explicit", 8, 5, t=10) if kind == "explicit"
           else rpc.build_family("rpc", 8, 5, m=3, B=2))
    v = geometry.sample_sphere(8, make_rng(1))
    for w in (np.full(8, bad), np.where(np.arange(8) == 3, bad, v)):
        with pytest.raises(DomainError):
            rpc.relevant_filters(fam, w, 0.3)
        with pytest.raises(DomainError):
            rpc.check_queries(fam, np.vstack([v, w]), 0.3)
        if kind == "rpc":
            with pytest.raises(DomainError):
                rpc.build_sample_tree(fam, w, 0.3)


# --- sample tree --------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_family():
    return rpc.build_family("rpc", 8, 11, m=4, B=2)


def test_tree_counts_bracketed_by_enumeration(tiny_family):
    br = make_rng(0x123)
    for _ in range(50):
        v = geometry.sample_sphere(8, br)
        alpha = float(br.uniform(-0.1, 0.6))
        tree = rpc.build_sample_tree(tiny_family, v, alpha)
        lo = len(rpc.relevant_filters(tiny_family, v, alpha))
        assert lo <= tree.root_count <= len(
            rpc.relevant_filters(tiny_family, v, alpha - tree.epsilon)
        )


def test_tree_epsilon_formula(tiny_family):
    v = geometry.sample_sphere(8, make_rng(2))
    tree = rpc.build_sample_tree(tiny_family, v, 0.3)
    assert tree.epsilon == pytest.approx(2 * math.sqrt(2) / 64, rel=1e-12)


def test_tree_empty_when_nothing_qualifies(tiny_family):
    v = geometry.sample_sphere(8, make_rng(3))
    tree = rpc.build_sample_tree(tiny_family, v, 0.999999)
    assert tree.root_count == 0
    with pytest.raises(DomainError):
        rpc.sample_alpha_close(tree, "")


def test_tree_requires_rpc_kind():
    fam = rpc.build_family("explicit", 8, 5, t=10)
    v = geometry.sample_sphere(8, make_rng(1))
    with pytest.raises(DomainError):
        rpc.build_sample_tree(fam, v, 0.3)


@pytest.mark.parametrize("alpha", [0.3, 0.6, -1.0, 0.95])
def test_sample_leaves_of_a_one_block_code(alpha):
    # a B = 1 product code reaches decode with one block: its leaves are the
    # levels at level_min or above, row by row, in each tree's rank order
    fam = rpc.build_family("rpc", 8, 21, m=40, B=1)
    dirs = sieve.random_instance(8, 30, seed=21, mode="norm", radius=2.0).directions()
    levels, level_min, _ = rpc.sample_levels(fam, dirs, alpha)
    keys = rpc.sample_leaves(fam, dirs, alpha)
    assert keys.tolist() == np.flatnonzero(levels[0] >= level_min).tolist()
    for q, v in enumerate(dirs):
        tree = rpc.build_sample_tree(fam, v, alpha)
        leaves = keys[keys // fam.t == q] % fam.t
        assert leaves.tolist() == [rpc.leaf_index(tree, r) for r in range(tree.root_count)]


def _six_leaf_tree(fam):
    sr = make_rng(0x777)
    v = geometry.sample_sphere(8, sr)
    for alpha in np.linspace(0.1, 0.7, 25):
        tree = rpc.build_sample_tree(fam, v, float(alpha))
        if tree.root_count == 6:
            return v, float(alpha), tree
    raise AssertionError("pinned seed no longer yields a 6-leaf tree")


def test_sampler_exhaustive_coins_near_uniform(tiny_family):
    v, alpha, tree = _six_leaf_tree(tiny_family)
    R = tree.coin_count
    assert R == 7  # ceil(log2 6) + 4
    hits = Counter()
    for x in range(2**R):
        idx = rpc.sample_alpha_close(tree, format(x, f"0{R}b"))
        assert tiny_family.center(idx) @ v >= alpha - tree.epsilon - 1e-9
        hits[idx] += 1
    assert len(hits) == 6  # every qualifying leaf is reachable
    probs = np.array(list(hits.values())) / 2**R
    assert 0.5 * np.sum(np.abs(probs - 1 / 6)) <= 0.05
    assert max(hits.values()) <= 2 * min(hits.values())


def test_sampler_output_in_widened_enumeration(tiny_family):
    v, alpha, tree = _six_leaf_tree(tiny_family)
    wide = set(rpc.relevant_filters(tiny_family, v, alpha - tree.epsilon))
    for x in range(0, 2**tree.coin_count, 7):
        assert rpc.sample_alpha_close(tree, format(x, f"0{tree.coin_count}b")) in wide


def test_sampler_single_leaf_constant(tiny_family):
    sr = make_rng(0x778)
    for _ in range(300):
        v = geometry.sample_sphere(8, sr)
        for alpha in np.linspace(0.3, 0.85, 40):
            tree = rpc.build_sample_tree(tiny_family, v, float(alpha))
            if tree.root_count == 1:
                outs = {
                    rpc.sample_alpha_close(tree, format(x, f"0{tree.coin_count}b"))
                    for x in range(2**tree.coin_count)
                }
                assert len(outs) == 1
                return
    raise AssertionError("no single-leaf tree found")


def test_sampler_coin_validation(tiny_family):
    v, _, tree = _six_leaf_tree(tiny_family)
    with pytest.raises(DomainError):
        rpc.sample_alpha_close(tree, "01")  # wrong length
    with pytest.raises(DomainError):
        rpc.sample_alpha_close(tree, "012010x")


def test_sampler_accepts_bit_sequences(tiny_family):
    _, _, tree = _six_leaf_tree(tiny_family)
    s = rpc.sample_alpha_close(tree, "0110001")
    assert rpc.sample_alpha_close(tree, [0, 1, 1, 0, 0, 0, 1]) == s


# --- serialization -------------------------------------------------------------


def test_family_roundtrip(tmp_path):
    for fam in (
        rpc.build_family("rpc", 12, 7, m=5, B=3),
        rpc.build_family("explicit", 6, 3, t=17),
    ):
        path = os.fspath(tmp_path / f"{fam.kind}.bin")
        rpc.save_family(fam, path)
        back = rpc.load_family(path)
        assert (back.kind, back.d, back.t, back.seed) == (fam.kind, fam.d, fam.t, fam.seed)
        assert (back.m, back.B) == (fam.m, fam.B)
        assert all(np.array_equal(a, b) for a, b in zip(back.blocks, fam.blocks))


def test_load_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DomainError):
        rpc.load_family(os.fspath(p))


def test_load_family_rejects_truncated_and_padded_files(tmp_path):
    p = tmp_path / "fam.bin"
    for fam in (rpc.build_family("rpc", 4, 7, m=2, B=2), rpc.build_family("explicit", 3, 3, t=2)):
        rpc.save_family(fam, os.fspath(p))
        raw = p.read_bytes()
        for bad in [raw[:k] for k in range(len(raw))] + [raw + b"\x00"]:
            p.write_bytes(bad)
            with pytest.raises(DomainError):
                rpc.load_family(os.fspath(p))


@pytest.mark.parametrize(
    "kind, d, counts",
    [
        ("rpc", 6, (3, 0)),  # B = 0
        ("rpc", 6, (0, 2)),  # m = 0
        ("rpc", 6, (3, 4)),  # B does not divide d
        ("explicit", 6, (0,)),  # t = 0
        ("explicit", 0, (2,)),  # d = 0
    ],
)
def test_load_family_rejects_bad_counts(tmp_path, kind, d, counts):
    p = tmp_path / "fam.bin"
    code = {"explicit": 0, "rpc": 1}[kind]
    header = b"SLF1" + struct.pack("<BIQ", code, d, 5)
    header += struct.pack("<" + "I" * len(counts), *counts)
    p.write_bytes(header + b"\x00" * 8 * 12)
    with pytest.raises(DomainError):
        rpc.load_family(os.fspath(p))


def test_load_family_rejects_unknown_kind(tmp_path):
    p = tmp_path / "fam.bin"
    p.write_bytes(b"SLF1" + struct.pack("<BIQ", 9, 4, 5))
    with pytest.raises(DomainError):
        rpc.load_family(os.fspath(p))


@pytest.mark.parametrize("bad", ["nan", "inf", "norm-5"])
def test_load_family_rejects_centers_off_the_sphere(tmp_path, bad):
    # scan's float32 screen takes every codeword to be a unit vector
    centers = rpc.build_family("explicit", 4, 3, t=6).blocks[0].copy()
    if bad == "norm-5":
        centers[2] *= 5.0
    else:
        centers[2, 1] = float(bad)
    path = os.fspath(tmp_path / "fam.bin")
    rpc.save_family(rpc.FilterFamily("explicit", 4, 3, (centers,)), path)
    with pytest.raises(DomainError, match="norm 1/sqrt"):
        rpc.load_family(path)


def test_load_family_holds_block_vectors_to_norm_one_over_root_b(tmp_path):
    # B = 2: block vectors of norm 1/sqrt(2) round-trip; unit ones do not
    fam = rpc.build_family("rpc", 8, 4, m=5, B=2)
    path = os.fspath(tmp_path / "fam.bin")
    rpc.save_family(fam, path)
    assert all(np.array_equal(a, b) for a, b in zip(rpc.load_family(path).blocks, fam.blocks))
    unit = tuple(blk * math.sqrt(2.0) for blk in fam.blocks)
    rpc.save_family(rpc.FilterFamily("rpc", 8, 4, unit), path)
    with pytest.raises(DomainError, match="norm 1/sqrt"):
        rpc.load_family(path)
