"""Bucket engine against a per-vector reference built on relevant_filters.

The reference below is the loop form of the engine: one
relevant_filters call per list vector and threshold, buckets as Python
lists, pair sets grown one candidate at a time.  The engine must match
it exactly: the same buckets, the same pair sets and the same ledgers.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

import sievelab
from sievelab import rpc, sieve
from sievelab.errors import DomainError


def ref_buckets(inst, fam, thr, led):
    dirs = inst.directions()
    lists = [[] for _ in range(fam.t)]
    for i in range(inst.n):
        close = rpc.relevant_filters(fam, dirs[i], thr)
        led.filter_queries += 1 + len(close)
        led.insertions += len(close)
        for j in close:
            lists[j].append(i)
    return [np.asarray(b, dtype=np.int64) for b in lists]


def ref_query(inst, fam, alpha, buckets, led):
    dirs = inst.directions()
    cos_theta = math.cos(inst.theta)
    pairs = set()
    for q in range(inst.n):
        close = rpc.relevant_filters(fam, dirs[q], alpha)
        led.filter_queries += 1 + len(close)
        if not close:
            continue
        cand = np.concatenate([buckets[i] for i in close])
        led.inner_product_queries += int(cand.size)
        if not cand.size:
            continue
        hits = cand[dirs[cand] @ dirs[q] >= cos_theta]
        pairs.update((q, int(y)) for y in hits if int(y) != q)
    return pairs


def ref_fas(inst, fam, alpha, beta, led):
    dirs = inst.directions()
    b_side = ref_buckets(inst, fam, beta, led)
    a_side = ref_buckets(inst, fam, alpha, led)
    cos_theta = math.cos(inst.theta)
    pairs = set()
    for a, b in zip(a_side, b_side):
        led.inner_product_queries += int(a.size * b.size)
        if not a.size or not b.size:
            continue
        dots = dirs[a] @ dirs[b].T
        for ai, bi in zip(*np.nonzero(dots >= cos_theta)):
            if a[ai] != b[bi]:
                pairs.add((int(a[ai]), int(b[bi])))
    return pairs


def scipy_csr(mask):
    """A CSR sieve.Mask as a scipy CSR array."""
    return sparse.csr_array((np.ones(mask.nnz, dtype=bool), mask.indices, mask.indptr),
                            shape=mask.shape)


def scipy_csc(members):
    """Buckets.members, a CSC sieve.Mask, as a scipy CSC array."""
    return sparse.csc_array((np.ones(members.nnz, dtype=bool), members.indices, members.indptr),
                            shape=members.shape)


def ref_shares_filter(x, y, query_mask, insert_mask):
    # the engine's earlier sharing test: the scipy product of the two
    # gathered rows of each pair, in spans chunks of their mask entries
    query_mask, insert_mask = scipy_csr(query_mask), scipy_csr(insert_mask)
    row_sizes = np.diff(query_mask.indptr)[x] + np.diff(insert_mask.indptr)[y]
    out = [np.empty(0, dtype=bool)]
    for run in rpc.spans(row_sizes):
        out.append(np.diff(query_mask[x[run]].multiply(insert_mask[y[run]]).indptr) > 0)
    return np.concatenate(out)


def ref_covered_close_keys(inst, query_mask, bucket_mask, led):
    # the engine's earlier pair pass: every candidate from the sparse
    # product of a row chunk of the query mask with the buckets, then a
    # gather from the Gram block of the same chunk; the query mask is a
    # sieve.Mask, the buckets a scipy CSC array
    query_mask = scipy_csr(query_mask)
    dirs = inst.directions()
    n = inst.n
    sizes = np.diff(bucket_mask.indptr)
    led.inner_product_queries += int(sizes[query_mask.indices].sum())
    cos_theta = math.cos(inst.theta)
    members = bucket_mask.T
    out = [np.empty(0, dtype=np.int64)]
    step = max(1, rpc._BLOCK_FLOATS // max(1, n))  # Gram rows of n floats each
    for lo in range(0, n, step):
        cand = query_mask[lo : lo + step] @ members
        rows = np.repeat(np.arange(cand.shape[0]), np.diff(cand.indptr))
        cols = cand.indices.astype(np.int64)
        gram = dirs[lo : lo + step] @ dirs.T
        keep = (gram[rows, cols] >= cos_theta) & (rows + lo != cols)
        out.append(np.sort((rows[keep] + lo) * n + cols[keep]))
    return np.concatenate(out)


def ref_fas_keys(inst, fam, alpha, beta, led):
    # one scoring call per threshold, both sides charged as insertions
    masks = [sieve._close_masks(inst, fam, {name: thr})[0]
             for name, thr in (("beta", beta), ("alpha", alpha))]
    for mask in masks:
        led.filter_queries += inst.n + mask.nnz
        led.insertions += mask.nnz
    return ref_covered_close_keys(inst, masks[1], scipy_csr(masks[0]).tocsc(), led)


def _instance(seed, n, d=12):
    # odd seeds: unit sphere; even seeds: norm mode, so directions() rescales
    if seed % 2:
        return sieve.random_instance(d, n, seed=seed, theta=1.2)
    return sieve.random_instance(d, n, seed=seed, mode="norm", radius=2.0, theta=1.2)


ALPHA, BETA = 0.35, 0.45


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("t", [1, 50, 2000])
def test_engine_matches_per_vector_reference(seed, t):
    fam = rpc.build_family("explicit", 12, 100 + seed, t=t)
    for n in (0, 1, 300):
        inst = _instance(seed, n)
        led_ref, led = sieve.QueryLedger(), sieve.QueryLedger()
        want_b = ref_buckets(inst, fam, BETA, led_ref)
        got = sieve.preprocess(inst, fam, BETA, led)
        assert len(got.B) == t
        assert all(np.array_equal(g, w) and g.dtype == np.int64 for g, w in zip(got.B, want_b))
        want = ref_query(inst, fam, ALPHA, want_b, led_ref)
        assert sieve.query_method(inst, fam, ALPHA, got, led) == want
        assert led == led_ref

        led_ref, led = sieve.QueryLedger(), sieve.QueryLedger()
        assert sieve.fas_method(inst, fam, ALPHA, BETA, led) == ref_fas(
            inst, fam, ALPHA, BETA, led_ref
        ) == want
        assert led == led_ref
        if n == 300 and t == 2000:
            assert len(want) > 100  # the comparison is not vacuous


def test_engine_matches_reference_on_one_row_blocks(monkeypatch):
    # the list holds vector 40 twice; its close pairs come from one full
    # Gram matrix, so (40, 120) is kept both ways and no (x, x) is
    base = _instance(7, 120)
    inst = sieve.make_instance(np.vstack([base.vectors, base.vectors[40]]), theta=base.theta)
    n = inst.n
    families = [
        rpc.build_family("explicit", 12, 70, t=300),
        rpc.build_family("rpc", 12, 71, m=5, B=2),
        rpc.build_family("rpc", 12, 72, m=3, B=3),
    ]
    gram = inst.vectors @ inst.vectors.T
    x, y = np.nonzero((gram >= math.cos(inst.theta)) & ~np.eye(n, dtype=bool))
    assert {(40, 120), (120, 40)} <= set(zip(x.tolist(), y.tolist()))
    # a block cap below one row forces one row per score and Gram block;
    # 100 floats give 20-row and 33-row product-code chunks; 2100 floats
    # give 7-row score and 17-row Gram blocks; all ragged at n = 121
    for block_floats in (1, 100, 2100):
        monkeypatch.setattr(rpc, "_BLOCK_FLOATS", block_floats)
        for fam in families:
            led_ref, led = sieve.QueryLedger(), sieve.QueryLedger()
            want_b = ref_buckets(inst, fam, BETA, led_ref)
            want = ref_query(inst, fam, ALPHA, want_b, led_ref)
            got = sieve.preprocess(inst, fam, BETA, led)
            assert all(np.array_equal(g, w) for g, w in zip(got.B, want_b))
            assert sieve.query_method(inst, fam, ALPHA, got, led) == want
            assert led == led_ref
            assert sieve.fas_method(inst, fam, ALPHA, BETA, sieve.QueryLedger()) == want
        assert np.array_equal(sieve.brute_force_keys(inst), x * n + y)


def test_product_code_family_matches_reference():
    inst = _instance(9, 150)
    fam = rpc.build_family("rpc", 12, 9, m=5, B=2)
    led_ref, led = sieve.QueryLedger(), sieve.QueryLedger()
    want_b = ref_buckets(inst, fam, BETA, led_ref)
    got = sieve.preprocess(inst, fam, BETA, led)
    assert all(np.array_equal(g, w) for g, w in zip(got.B, want_b))
    assert sieve.query_method(inst, fam, ALPHA, got, led) == ref_query(
        inst, fam, ALPHA, want_b, led_ref
    )
    assert led == led_ref


def test_keys_are_ascending_and_match_the_pair_sets():
    inst = _instance(11, 200)
    fam = rpc.build_family("explicit", 12, 12, t=400)
    keys, _ = sieve.pair_keys(inst, fam, ALPHA, BETA, "fas", sieve.QueryLedger())
    assert keys.dtype == np.int64 and np.all(np.diff(keys) > 0)
    assert sieve.keys_to_pairs(keys, inst.n) == sieve.fas_method(
        inst, fam, ALPHA, BETA, sieve.QueryLedger()
    )
    brute = sieve.brute_force_keys(inst)
    assert np.all(np.diff(brute) > 0)
    assert sieve.keys_to_pairs(brute, inst.n) == {
        (x, y)
        for x in range(inst.n)
        for y in range(inst.n)
        if x != y and inst.vectors[x] @ inst.vectors[y] >= math.cos(inst.theta)
    }


def test_engine_keeps_the_query_checks():
    fam = rpc.build_family("explicit", 12, 1, t=20)
    inst = sieve.random_instance(12, 10, seed=1)
    led = sieve.QueryLedger()
    with pytest.raises(DomainError):
        sieve.preprocess(inst, fam, 1.0, led)  # alpha outside [-1, 1)
    with pytest.raises(DomainError):
        sieve.preprocess(inst, fam, -1.5, led)
    off_sphere = sieve.SieveInstance(12, inst.vectors * (1 + 1e-5), "unit")
    with pytest.raises(DomainError):
        sieve.preprocess(off_sphere, fam, 0.5, led)
    with pytest.raises(DomainError):
        sieve.query_method(off_sphere, fam, 0.5, sieve.preprocess(inst, fam, 0.5, led), led)
    with pytest.raises(DomainError):
        sieve.preprocess(inst, rpc.build_family("explicit", 8, 1, t=20), 0.5, led)
    other = sieve.preprocess(inst, rpc.build_family("explicit", 12, 1, t=21), 0.5, led)
    with pytest.raises(DomainError):
        sieve.query_method(inst, fam, 0.5, other, led)


def test_thresholds_are_inclusive():
    # scores and dots that land exactly on a threshold count as close
    theta = 1.1
    c = math.cos(theta)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([c, math.sqrt(1.0 - c * c), 0.0, 0.0])  # <x, y> == cos theta exactly
    inst = sieve.SieveInstance(4, np.vstack([x, y]), "unit", theta=theta)
    fam = rpc.FilterFamily("explicit", 4, 0, (np.array([[0.6, 0.0, 0.8, 0.0]]),))
    for method in ("query", "fas"):
        led = sieve.QueryLedger()
        if method == "query":
            bk = sieve.preprocess(inst, fam, 0.0, led)
            got = sieve.query_method(inst, fam, 0.0, bk, led)
        else:
            got = sieve.fas_method(inst, fam, 0.0, 0.0, led)
        assert got == {(0, 1), (1, 0)}
    led = sieve.QueryLedger()
    bk = sieve.preprocess(inst, fam, 0.6, led)  # <x, center> == 0.6 exactly
    assert bk.B[0].tolist() == [0]
    assert rpc.relevant_filters(fam, x, 0.6) == [0]
    assert sieve.brute_force_pairs(inst) == {(0, 1), (1, 0)}


# buckets built for another list once sent the sparse product out of
# bounds: an IndexError and then a corrupted heap that killed the
# process, or, for a smaller list, a silent answer; a subprocess keeps a
# crash from taking pytest down with it
_MISMATCH = """
import sys
from sievelab import rpc, sieve
from sievelab.errors import DomainError
fam = rpc.build_family("explicit", 12, 1, t=200)
inst = sieve.random_instance(12, 300, seed=1)
refused = 0
for n in (600, 100):  # buckets of a larger and of a smaller list
    buckets = sieve.preprocess(sieve.random_instance(12, n, seed=2), fam, 0.3, sieve.QueryLedger())
    try:
        sieve.query_method(inst, fam, 0.3, buckets, sieve.QueryLedger())
    except DomainError:
        refused += 1
sys.exit(0 if refused == 2 else f"refused {refused} of 2")
"""


def _assert_exits_cleanly(script):
    src = Path(sievelab.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])


def test_buckets_of_another_list_are_refused():
    _assert_exits_cleanly(_MISMATCH)


# a hand-built Buckets is checked too: row indices past n once
# corrupted the heap, and a CSR mask of the right shape silently
# dropped inner products
_MALFORMED = """
import sys
import numpy as np
from sievelab import rpc, sieve
from sievelab.errors import DomainError
fam = rpc.build_family("explicit", 12, 1, t=200)
inst = sieve.random_instance(12, 300, seed=1)
good = sieve.preprocess(inst, fam, 0.5, sieve.QueryLedger()).members
rows, ptr = good.indices, good.indptr
falling = ptr.copy()
falling[1] = ptr[-1]  # column 0 claims every entry, then indptr falls
(csr,) = sieve._close_masks(inst, fam, {"beta": 0.5})
dense = np.zeros((300, 200), dtype=bool)
dense[rows, np.repeat(np.arange(200), np.diff(ptr))] = True
bad = [
    sieve.Mask(ptr, rows * 3, (300, 200)),  # rows past n
    sieve.Mask(ptr, rows - 1, (300, 200)),  # a row -1
    sieve.Mask(falling, rows, (300, 200)),
    csr,  # the right shape in the wrong orientation
    dense,
]
refused = 0
for members in bad:
    kept = members.indices.copy() if isinstance(members, sieve.Mask) else None
    try:
        sieve.query_method(inst, fam, 0.5, sieve.Buckets(members), sieve.QueryLedger())
    except DomainError:
        refused += 1
    if isinstance(members, sieve.Mask):  # the check neither casts nor sorts
        assert members.indices.dtype == kept.dtype
        assert np.array_equal(members.indices, kept)
sys.exit(0 if refused == len(bad) else f"refused {refused} of {len(bad)}")
"""


def test_malformed_bucket_matrices_are_refused():
    _assert_exits_cleanly(_MALFORMED)


@pytest.mark.parametrize("kind", ["explicit", "rpc"])
@pytest.mark.parametrize("mode", ["unit", "norm"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_preprocess_rejects_non_finite_vectors(kind, mode, bad):
    # a directly built instance skips make_instance's finiteness check
    fam = (rpc.build_family("explicit", 12, 3, t=40) if kind == "explicit"
           else rpc.build_family("rpc", 12, 3, m=4, B=2))
    vectors = sieve.random_instance(12, 20, seed=3).vectors.copy()
    vectors[7, 2] = bad
    inst = sieve.SieveInstance(12, vectors, mode, radius=2.0)
    with pytest.raises(DomainError):
        sieve.preprocess(inst, fam, BETA, sieve.QueryLedger())


@given(
    seed=st.integers(0, 2**20),
    n=st.integers(0, 30),
    kind=st.sampled_from(["explicit", "rpc"]),
    mode=st.sampled_from(["unit", "norm"]),
    t=st.integers(1, 60),
    alpha=st.floats(-0.4, 0.8),
    beta=st.floats(-0.4, 0.8),
    theta=st.floats(0.3, 2.8),
)
def test_engine_property(seed, n, kind, mode, t, alpha, beta, theta):
    # explicit families of t centers and product codes of m^2 codewords,
    # over unit lists and norm lists of radius 2
    if kind == "explicit":
        fam = rpc.build_family("explicit", 6, seed, t=t)
    else:
        fam = rpc.build_family("rpc", 6, seed, m=1 + t % 5, B=2)
    inst = sieve.random_instance(6, n, seed=seed + 1, mode=mode, radius=2.0, theta=theta)
    led = sieve.QueryLedger()
    buckets = sieve.preprocess(inst, fam, beta, led)
    members = buckets.members
    assert isinstance(members, sieve.Mask) and members.shape == (n, fam.t)
    assert members.indptr.shape == (fam.t + 1,)  # CSC: one run per bucket
    assert led.insertions == buckets.members.nnz
    assert sieve.query_method(inst, fam, alpha, buckets, led) <= sieve.brute_force_pairs(inst)
    led, led_ref = sieve.QueryLedger(), sieve.QueryLedger()
    got = sieve.keys_to_pairs(sieve.pair_keys(inst, fam, alpha, beta, "fas", led)[0], inst.n)
    assert got == ref_fas(inst, fam, alpha, beta, led_ref)
    assert led == led_ref


@given(
    seed=st.integers(0, 2**20),
    n=st.one_of(st.sampled_from([1, 2]), st.integers(3, 30)),
    duplicates=st.booleans(),
    kind=st.sampled_from(["explicit", "rpc"]),
    mode=st.sampled_from(["unit", "norm"]),
    t=st.integers(1, 60),
    alpha=st.floats(-0.4, 0.8),
    beta=st.one_of(st.none(), st.floats(-0.4, 0.8)),
    theta=st.floats(0.3, 2.8),
)
def test_pair_keys_property(seed, n, duplicates, kind, mode, t, alpha, beta, theta):
    # beta None is the default alpha == beta, where one mask serves both
    # sides; duplicate vectors are close pairs that share every filter
    beta = alpha if beta is None else beta
    if kind == "explicit":
        fam = rpc.build_family("explicit", 6, seed, t=t)
    else:
        fam = rpc.build_family("rpc", 6, seed, m=1 + t % 5, B=2)
    vectors = sieve.random_instance(6, n, seed=seed + 1, mode=mode, radius=2.0).vectors
    if duplicates:
        vectors = vectors[np.random.default_rng(seed).integers(0, n, size=n + 3)]
    inst = sieve.make_instance(vectors, mode, radius=2.0, theta=theta)

    led, led_ref = sieve.QueryLedger(), sieve.QueryLedger()
    got, close = sieve.pair_keys(inst, fam, alpha, beta, "query", led)
    # the close keys are the brute-force answer, the pairs a sorted subset
    assert np.array_equal(close, sieve.brute_force_keys(inst))
    assert np.all(np.diff(got) > 0) and np.isin(got, close).all()
    buckets = sieve.preprocess(inst, fam, beta, led_ref)
    pairs = sieve.query_method(inst, fam, alpha, buckets, led_ref)
    assert sieve.keys_to_pairs(got, inst.n) == pairs
    assert led == led_ref
    (query_mask,) = sieve._close_masks(inst, fam, {"alpha": alpha})
    assert np.array_equal(
        got, ref_covered_close_keys(inst, query_mask, scipy_csc(buckets.members),
                                    sieve.QueryLedger())
    )

    led, led_ref = sieve.QueryLedger(), sieve.QueryLedger()
    got, fas_close = sieve.pair_keys(inst, fam, alpha, beta, "fas", led)
    assert np.array_equal(fas_close, close) and np.isin(got, close).all()
    assert got.dtype == np.int64 and np.all(np.diff(got) > 0)
    assert np.array_equal(got, ref_fas_keys(inst, fam, alpha, beta, led_ref))
    assert led == led_ref


def _one_mask_and_two(upper, mask):
    # one mask object on both sides takes the path that tests each
    # unordered pair once; an equal copy takes the two-sided path
    led_one, led_two = sieve.QueryLedger(), sieve.QueryLedger()
    one = sieve._covered_close_keys(upper, mask, mask, led_one)
    copy = sieve.Mask(mask.indptr.copy(), mask.indices.copy(), mask.shape)
    two = sieve._covered_close_keys(upper, mask, copy, led_two)
    assert one.dtype == two.dtype == np.int64
    assert np.array_equal(one, two)
    assert led_one == led_two
    return one


def _duplicated_list():
    # a dense list whose last 30 vectors repeat its first 30
    base = sieve.random_instance(12, 150, seed=5, theta=1.5)
    return sieve.make_instance(np.vstack([base.vectors, base.vectors[:30]]), theta=1.5)


def test_one_mask_on_both_sides_gives_the_two_sided_answer():
    inst = _duplicated_list()
    n = inst.n
    fam = rpc.build_family("explicit", 12, 5, t=60)
    (mask,) = sieve._close_masks(inst, fam, {"alpha": 0.45})
    upper, close = sieve._upper_close_keys(inst), sieve.brute_force_keys(inst)
    full = _one_mask_and_two(upper, mask)
    assert 0 < full.size < close.size  # some close pairs share a filter, some do not
    covered = np.flatnonzero(np.diff(mask.indptr[:31]))
    assert np.isin(covered * n + covered + 150, full).all()  # a duplicate shares its filters
    # the answer is every close key, either way round, whose two rows share a filter
    x, y = np.divmod(close, n)
    shares = ref_shares_filter(x, y, mask, mask)
    assert np.array_equal(full, close[shares])

    assert _one_mask_and_two(np.empty(0, dtype=np.int64), mask).size == 0


@pytest.mark.parametrize("block_floats", [None, 2100, 1])
def test_close_keys_are_the_symmetric_full_gram_set(monkeypatch, block_floats):
    # the upper-triangle scan at the default budget (one chunk), at ragged
    # multi-row chunks that start past row 0, and at one row per chunk
    inst = _duplicated_list()
    n = inst.n
    dirs = inst.directions()
    gram = dirs @ dirs.T
    want = np.flatnonzero((gram >= math.cos(inst.theta)) & ~np.eye(n, dtype=bool))
    if block_floats is not None:
        monkeypatch.setattr(rpc, "_BLOCK_FLOATS", block_floats)
    close = sieve.brute_force_keys(inst)
    x, y = np.divmod(close, n)
    assert close.dtype == np.int64 and np.all(np.diff(close) > 0)
    assert np.array_equal(np.sort(y * n + x), close)  # the set is its own mirror
    assert not (x == y).any()  # and has no self pair
    assert np.array_equal(close, want)
    assert np.array_equal(sieve._upper_close_keys(inst), close[x < y])
    assert {(0, 150), (150, 0)} <= sieve.keys_to_pairs(close, n)  # a repeated vector


@pytest.mark.parametrize("seed, n", [(1, 1), (2, 20), (3, 301)])
def test_tiled_center_scan_gives_the_full_width_masks(monkeypatch, seed, n):
    # a budget of 900 floats is below t = 2000, so a row of scores no longer
    # fits: score_tiles cuts R = 30 rows and tiles of 900 // rows centers,
    # and 2000 is no multiple of 30; n = 20 < R is one short row chunk with
    # 45-center tiles, n = 301 ends in a one-row chunk, and alpha != beta
    # gives two masks per tile
    fam = rpc.build_family("explicit", 12, 90 + seed, t=2000)
    inst = _instance(seed, n)
    thresholds = {"beta": BETA, "alpha": ALPHA}
    want = sieve._close_masks(inst, fam, thresholds)
    monkeypatch.setattr(rpc, "_BLOCK_FLOATS", 900)
    tiles = rpc.score_tiles(inst.directions(), fam.blocks)
    width = 900 // min(30, n)
    assert [(r0, c0) for r0, c0, _ in itertools.islice(tiles, 3)] == [
        (0, 0), (0, width), (0, 2 * width)]
    got = sieve._close_masks(inst, fam, thresholds)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.indptr, w.indptr) and np.array_equal(g.indices, w.indices)
    assert want[0].nnz > n and want[1].nnz > want[0].nnz  # both masks are populated


def test_pair_keys_refuses_an_unknown_method():
    inst = _instance(1, 10)
    with pytest.raises(DomainError):
        sieve.pair_keys(inst, rpc.build_family("explicit", 12, 1, t=20), 0.3, 0.3, "brute",
                        sieve.QueryLedger())


def _check_sharing(inst, fam, alpha, beta, block_floats=None):
    # the word-AND test against the scipy product on every close pair, both
    # ways round, with one mask object on both sides when alpha == beta; a
    # block_floats budget is set for the sharing test alone
    insert_mask, query_mask = sieve._close_masks(inst, fam, {"beta": beta, "alpha": alpha})
    assert (query_mask is insert_mask) == (alpha == beta)
    x, y = np.divmod(sieve._upper_close_keys(inst), inst.n)
    x, y = np.concatenate((x, y)), np.concatenate((y, x))
    want = ref_shares_filter(x, y, query_mask, insert_mask)
    with pytest.MonkeyPatch.context() as patch:
        if block_floats is not None:
            patch.setattr(rpc, "_BLOCK_FLOATS", block_floats)
        got = sieve._shares_filter(x, y, query_mask, insert_mask)
    assert got.dtype == bool
    assert np.array_equal(got, want)
    return got


@pytest.mark.parametrize("d, n, t, alpha, beta", [
    (24, 4000, 7754, 0.5, 0.5),  # the README run
    (24, 4000, 13677, 0.4, 0.6),  # alpha != beta, both orientations
    (24, 4000, 13677, 0.6, 0.4),
    (40, 2000, 299813, 0.5, 0.5),  # 36 tiles of filters
])
def test_sharing_test_matches_the_scipy_product(d, n, t, alpha, beta):
    from sievelab.rng import derive_seed

    inst = sieve.random_instance(d, n, 1, theta=math.pi / 3)
    fam = rpc.build_family("explicit", d, derive_seed(1, 1), t=t)
    got = _check_sharing(inst, fam, alpha, beta)
    assert 0 < got.sum() < got.size


@pytest.mark.parametrize("t", [1, 50, 64, 130, 200])
@pytest.mark.parametrize("block_floats", [None, 180, 1])
def test_sharing_test_on_small_and_ragged_filter_counts(t, block_floats):
    # t below one word, one full word and ragged last words; a budget of 180
    # floats is one word per row of the 180-vector list, so filters are cut
    # into 64-filter tiles and pairs that share drop out between them, and a
    # budget of 1 keeps one word per tile and tests one pair per chunk
    inst = _duplicated_list()  # duplicates share every filter of their rows
    fam = rpc.build_family("explicit", 12, 7, t=t)
    for alpha, beta in ((0.45, 0.45), (0.3, 0.6), (0.6, 0.3)):
        _check_sharing(inst, fam, alpha, beta, block_floats)


def test_sharing_test_with_empty_rows():
    # at threshold 0.8 most rows have no filter, and at -1 every row has all
    inst = sieve.random_instance(12, 200, seed=3, theta=1.4)
    fam = rpc.build_family("explicit", 12, 8, t=300)
    (sparse_mask,) = sieve._close_masks(inst, fam, {"alpha": 0.8})
    assert (np.diff(sparse_mask.indptr) == 0).mean() > 0.5
    for alpha, beta in ((0.8, 0.8), (0.8, -1.0), (-1.0, 0.8), (-1.0, -1.0)):
        _check_sharing(inst, fam, alpha, beta)
    x = y = np.empty(0, dtype=np.int64)  # no pairs at all
    assert sieve._shares_filter(x, y, sparse_mask, sparse_mask).size == 0
