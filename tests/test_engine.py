"""Bucket engine against a per-vector reference built on relevant_filters.

The reference below is the loop form of the engine: one
relevant_filters call per list vector and threshold, buckets as Python
lists, pair sets grown one candidate at a time.  The engine must match
it exactly: the same buckets, the same pair sets and the same ledgers.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    # a block cap below one row forces one row per score and Gram block
    monkeypatch.setattr(sieve, "_BLOCK_FLOATS", 1)
    inst = _instance(7, 120)
    fam = rpc.build_family("explicit", 12, 70, t=300)
    led_ref, led = sieve.QueryLedger(), sieve.QueryLedger()
    want_b = ref_buckets(inst, fam, BETA, led_ref)
    want = ref_query(inst, fam, ALPHA, want_b, led_ref)
    got = sieve.preprocess(inst, fam, BETA, led)
    assert all(np.array_equal(g, w) for g, w in zip(got.B, want_b))
    assert sieve.query_method(inst, fam, ALPHA, got, led) == want
    assert led == led_ref
    assert sieve.fas_method(inst, fam, ALPHA, BETA, sieve.QueryLedger()) == want
    assert sieve.brute_force_keys(inst).size == len(sieve.brute_force_pairs(inst))


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
    keys = sieve.fas_keys(inst, fam, ALPHA, BETA, sieve.QueryLedger())
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
    fam = rpc.FilterFamily("explicit", 4, 1, 0, centers=np.array([[0.6, 0.0, 0.8, 0.0]]))
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
    for query in (sieve.query_keys, sieve.query_method):
        try:
            query(inst, fam, 0.3, buckets, sieve.QueryLedger())
        except DomainError:
            refused += 1
sys.exit(0 if refused == 4 else f"refused {refused} of 4")
"""


def test_buckets_of_another_list_are_refused():
    src = Path(sievelab.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _MISMATCH],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])


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
    assert buckets.members.format == "csc" and buckets.members.shape == (n, fam.t)
    assert led.insertions == buckets.members.nnz
    keys = sieve.query_keys(inst, fam, alpha, buckets, led)
    assert np.isin(keys, sieve.brute_force_keys(inst)).all()
    led, led_ref = sieve.QueryLedger(), sieve.QueryLedger()
    got = sieve.keys_to_pairs(sieve.fas_keys(inst, fam, alpha, beta, led), inst.n)
    assert got == ref_fas(inst, fam, alpha, beta, led_ref)
    assert led == led_ref
