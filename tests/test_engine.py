"""Bucket engine against a per-vector reference built on relevant_filters.

The reference below is the loop form of the engine: one
relevant_filters call per list vector and threshold, buckets as Python
lists, pair sets grown one candidate at a time.  The engine must match
it exactly: the same buckets, the same pair sets and the same ledgers.
"""

import math

import numpy as np
import pytest

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
