"""Near-neighbor engine: exactness vs brute force, ledgers, sieve yield."""

import math
import os
import struct

import numpy as np
import pytest

from sievelab import geometry, rpc, sieve
from sievelab.errors import DomainError, GuardError
from sievelab.rng import make_rng


def test_make_instance_validation():
    good = geometry.sample_sphere(8, make_rng(1), size=5)
    sieve.make_instance(good)
    with pytest.raises(DomainError):
        sieve.make_instance(2.0 * good)  # not unit
    with pytest.raises(DomainError):
        sieve.make_instance(2.0 * good, mode="norm", radius=1.5)  # norms > R
    sieve.make_instance(2.0 * good, mode="norm", radius=2.0)
    with pytest.raises(DomainError):
        sieve.make_instance(np.zeros((3, 8)), mode="norm", radius=1.0)
    with pytest.raises(DomainError):
        sieve.make_instance(good, theta=0.0)
    with pytest.raises(DomainError):
        sieve.make_instance(good, shrink_factor=1.5)


def test_make_instance_needs_a_finite_radius():
    # the pipeline's bound test is what keeps a partner-less query out of
    # its pairs, and an infinite bound would let one through
    good = geometry.sample_sphere(8, make_rng(1), size=5)
    for radius in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            sieve.make_instance(good, mode="norm", radius=radius)


def test_preprocess_empty_instance():
    inst = sieve.make_instance(np.empty((0, 8)))
    fam = rpc.build_family("explicit", 8, 1, t=20)
    led = sieve.QueryLedger()
    bk = sieve.preprocess(inst, fam, 0.5, led)
    assert all(b.size == 0 for b in bk.B)
    assert led.as_dict() == {"filter_queries": 0, "inner_product_queries": 0, "insertions": 0}


def test_preprocess_bucket_membership_is_exact():
    inst = sieve.random_instance(12, 60, seed=5)
    fam = rpc.build_family("explicit", 12, 6, t=80)
    led = sieve.QueryLedger()
    bk = sieve.preprocess(inst, fam, 0.4, led)
    rng = make_rng(9)
    for _ in range(100):
        i = int(rng.integers(0, 60))
        j = int(rng.integers(0, 80))
        member = i in bk.B[j]
        assert member == (inst.vectors[i] @ fam.centers[j] >= 0.4)
    assert led.insertions == sum(b.size for b in bk.B)
    assert led.filter_queries == 60 + led.insertions


def test_preprocess_bucket_sizes_near_expectation():
    inst = sieve.random_instance(24, 500, seed=42)
    fam = rpc.build_family("explicit", 24, 43, t=400)
    led = sieve.QueryLedger()
    bk = sieve.preprocess(inst, fam, 0.5, led)
    expect = 500 * 400 * geometry.cap_volume_exact(24, 0.5)
    total = sum(b.size for b in bk.B)
    assert expect / 2 <= total <= expect * 2


def test_query_theta_pi_returns_every_covered_pair():
    inst = sieve.random_instance(10, 40, seed=3, theta=math.pi)
    fam = rpc.build_family("explicit", 10, 4, t=50)
    led = sieve.QueryLedger()
    got = sieve.query_method(inst, fam, 0.3, sieve.preprocess(inst, fam, 0.3, led), led)
    covered = [rpc.relevant_filters(fam, v, 0.3) for v in inst.vectors]
    want = {
        (x, y)
        for x in range(40)
        for y in range(40)
        if x != y and set(covered[x]) & set(covered[y])
    }
    assert got == want


def test_query_soundness_and_coverage_completeness():
    inst = sieve.random_instance(12, 60, seed=8)
    fam = rpc.build_family("explicit", 12, 80, t=120)
    led = sieve.QueryLedger()
    got = sieve.query_method(inst, fam, 0.45, sieve.preprocess(inst, fam, 0.45, led), led)
    covered = [set(rpc.relevant_filters(fam, v, 0.45)) for v in inst.vectors]
    for x in range(60):
        for y in range(60):
            in_p = (
                x != y
                and inst.vectors[x] @ inst.vectors[y] >= math.cos(inst.theta)
                and bool(covered[x] & covered[y])
            )
            assert ((x, y) in got) == in_p


def test_planted_pair_with_midpoint_filter_is_found():
    rng = make_rng(11)
    x = geometry.sample_sphere(24, rng)
    u = geometry.sample_sphere(24, rng)
    u -= (u @ x) * x
    u /= np.linalg.norm(u)
    y = math.cos(math.pi / 4) * x + math.sin(math.pi / 4) * u
    mid = (x + y) / np.linalg.norm(x + y)
    centers = np.vstack([mid, geometry.sample_sphere(24, rng, size=49)])
    fam = rpc.FilterFamily("explicit", 24, 50, 0, centers=centers)
    inst = sieve.make_instance(np.vstack([x, y, geometry.sample_sphere(24, rng, size=30)]))
    led = sieve.QueryLedger()
    got = sieve.query_method(inst, fam, 0.7, sieve.preprocess(inst, fam, 0.7, led), led)
    assert (0, 1) in got and (1, 0) in got


@pytest.fixture(scope="module")
def recall_run():
    # filter count sized so a close pair is covered w.p. about 1 - e^-3
    W = geometry.wedge_volume_mc(24, 0.5, 0.5, math.pi / 3, 10**6, seed=0x5EED)
    t = math.ceil(3.0 / W.estimate)
    inst = sieve.random_instance(24, 500, seed=101)
    fam = rpc.build_family("explicit", 24, 202, t=t)
    led = sieve.QueryLedger()
    buckets = sieve.preprocess(inst, fam, 0.5, led)
    found = sieve.query_method(inst, fam, 0.5, buckets, led)
    return inst, fam, led, found


def test_recall_against_brute_force(recall_run):
    inst, _, _, found = recall_run
    truth = sieve.brute_force_pairs(inst)
    assert len(truth) > 500  # enough mass for the ratio to mean something
    assert len(found & truth) / len(truth) >= 0.85
    assert found <= truth  # soundness: threshold rechecked exactly


def test_recall_run_ledger_within_factor_two(recall_run):
    inst, fam, led, _ = recall_run
    exp = sieve.expected_ledger(inst.n, fam.t, 0.5, 0.5, 24)
    assert exp.insert_coverage / 2 <= led.insertions <= exp.insert_coverage * 2
    query_cov = led.filter_queries - 2 * inst.n - led.insertions
    assert exp.query_coverage / 2 <= query_cov <= exp.query_coverage * 2
    assert exp.inner_products / 2 <= led.inner_product_queries <= exp.inner_products * 2


def test_fas_equals_query_on_both_family_kinds():
    inst = sieve.random_instance(12, 80, seed=7)
    for fam in (
        rpc.build_family("explicit", 12, 9, t=150),
        rpc.build_family("rpc", 12, 9, m=5, B=2),
    ):
        l1, l2 = sieve.QueryLedger(), sieve.QueryLedger()
        p1 = sieve.query_method(inst, fam, 0.45, sieve.preprocess(inst, fam, 0.45, l1), l1)
        p2 = sieve.fas_method(inst, fam, 0.45, 0.45, l2)
        assert p1 == p2
        assert len(p1) > 0  # the comparison is not vacuous


def test_fas_single_global_bucket():
    inst = sieve.random_instance(12, 80, seed=7)
    fam = rpc.FilterFamily(
        "explicit", 12, 1, 0, centers=geometry.sample_sphere(12, make_rng(1), size=1)
    )
    led = sieve.QueryLedger()
    got = sieve.fas_method(inst, fam, -1.0, -1.0, led)
    assert got == sieve.brute_force_pairs(inst)
    assert led.inner_product_queries == 80 * 80


def test_methods_are_deterministic():
    inst = sieve.random_instance(12, 50, seed=13)
    fam = rpc.build_family("explicit", 12, 14, t=100)
    runs = []
    for _ in range(2):
        led = sieve.QueryLedger()
        p = sieve.query_method(inst, fam, 0.4, sieve.preprocess(inst, fam, 0.4, led), led)
        runs.append((p, led.as_dict()))
    assert runs[0] == runs[1]


# --- brute force ----------------------------------------------------------------


def test_brute_force_trivial_geometry():
    orth = sieve.make_instance(np.eye(4)[:2])
    assert sieve.brute_force_pairs(orth, math.pi / 3) == set()
    close = sieve.make_instance(
        np.array([[1.0, 0.0], [math.cos(math.pi / 6), math.sin(math.pi / 6)]])
    )
    assert sieve.brute_force_pairs(close, math.pi / 3) == {(0, 1), (1, 0)}


def test_brute_force_count_matches_cap_probability():
    # each ordered pair is close w.p. C_24(cos pi/3); measured spread
    # across seeds is about 1.3% so a 10% window is a hard assertion
    inst = sieve.random_instance(24, 1000, seed=55)
    count = len(sieve.brute_force_pairs(inst))
    expect = 1000 * 999 * geometry.cap_volume_exact(24, 0.5)
    assert abs(count - expect) <= 0.10 * expect


def test_brute_force_size_guard():
    angles = np.linspace(0.0, 2 * math.pi, 100001, endpoint=False)
    big = sieve.make_instance(np.column_stack([np.cos(angles), np.sin(angles)]))
    with pytest.raises(GuardError):
        sieve.brute_force_pairs(big)


# --- sieve step -----------------------------------------------------------------


def test_sieve_step_identical_inputs_give_nothing():
    v = geometry.sample_sphere(8, make_rng(2))
    inst = sieve.make_instance(np.tile(v, (6, 1)), mode="norm", radius=1.0)
    fam = rpc.build_family("explicit", 8, 3, t=40)
    out = sieve.sieve_step(inst, fam, -1.0, -1.0)
    assert out.shape == (0, 8)


def test_sieve_step_norm_condition_is_the_angle_condition():
    # on a sphere of radius R with shrink 1, ||v-w|| <= R iff angle <= pi/3
    inst = sieve.random_instance(16, 200, seed=21, mode="norm", radius=2.5)
    for x, y in sieve.brute_force_pairs(inst):
        diff = np.linalg.norm(inst.vectors[x] - inst.vectors[y])
        assert diff <= 2.5 + 1e-9
    fam = rpc.build_family("explicit", 16, 22, t=300)
    led = sieve.QueryLedger()
    found = sieve.query_method(inst, fam, 0.55, sieve.preprocess(inst, fam, 0.55, led), led)
    out = sieve.sieve_step(inst, fam, 0.55, 0.55)
    assert out.shape[0] == len(found)  # every found pair reduces at shrink 1


def test_sieve_step_yield_and_norm_contract():
    W = geometry.wedge_volume_mc(24, 0.5, 0.5, math.pi / 3, 10**6, seed=0x5EED)
    inst = sieve.random_instance(24, 4000, seed=303, mode="norm", radius=1.0)
    fam = rpc.build_family("explicit", 24, 404, t=math.ceil(3.0 / W.estimate))
    out = sieve.sieve_step(inst, fam, 0.5, 0.5)
    assert out.shape[0] >= 0.4 * len(sieve.brute_force_pairs(inst))
    assert np.linalg.norm(out, axis=1).max() <= 1.0 + 1e-9
    assert np.linalg.norm(out, axis=1).min() > 0.0


def test_sieve_step_requires_norm_mode():
    inst = sieve.random_instance(8, 10, seed=1)
    fam = rpc.build_family("explicit", 8, 2, t=10)
    with pytest.raises(DomainError):
        sieve.sieve_step(inst, fam, 0.5, 0.5)


# --- expected ledger -------------------------------------------------------------


def test_expected_ledger_vacuous_thresholds():
    exp = sieve.expected_ledger(30, 1, -1.0, -1.0, 12)
    assert exp.as_tuple() == (30.0, 30.0, 900.0)


def test_expected_ledger_linear_in_t():
    a = sieve.expected_ledger(100, 50, 0.5, 0.4, 16)
    b = sieve.expected_ledger(100, 100, 0.5, 0.4, 16)
    assert b.as_tuple() == tuple(2 * x for x in a.as_tuple())


# --- serialization ---------------------------------------------------------------


def test_instance_roundtrip(tmp_path):
    for inst in (
        sieve.random_instance(10, 25, seed=4),
        sieve.random_instance(6, 12, seed=5, mode="norm", radius=3.0, theta=1.1, shrink_factor=0.9),
    ):
        path = os.fspath(tmp_path / f"{inst.mode}.bin")
        sieve.save_instance(inst, path)
        back = sieve.load_instance(path)
        assert (back.d, back.mode, back.radius, back.theta, back.shrink_factor) == (
            inst.d,
            inst.mode,
            inst.radius,
            inst.theta,
            inst.shrink_factor,
        )
        assert np.array_equal(back.vectors, inst.vectors)


def test_load_instance_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"WHAT" + b"\x00" * 64)
    with pytest.raises(DomainError):
        sieve.load_instance(os.fspath(p))


def _corruptions(raw):
    """Every proper prefix, plus the file with one trailing byte."""
    yield from (raw[:k] for k in range(len(raw)))
    yield raw + b"\x00"


def test_load_instance_rejects_truncated_and_padded_files(tmp_path):
    p = tmp_path / "inst.bin"
    sieve.save_instance(sieve.random_instance(3, 4, seed=2), os.fspath(p))
    raw = p.read_bytes()
    for bad in _corruptions(raw):
        p.write_bytes(bad)
        with pytest.raises(DomainError):
            sieve.load_instance(os.fspath(p))


def test_load_instance_applies_make_instance_checks(tmp_path):
    p = tmp_path / "inst.bin"
    long = sieve.random_instance(6, 5, seed=3, mode="norm", radius=14.0)
    sieve.save_instance(long, os.fspath(p))
    raw = bytearray(p.read_bytes())
    for code, tail in ((0, None), (7, None), (1, float("nan"))):
        # 0: the norm-14 vectors relabelled as a unit-mode list; 7: no such mode
        raw[4] = code
        if tail is not None:
            raw[-8:] = struct.pack("<d", tail)
        p.write_bytes(raw)
        with pytest.raises(DomainError):
            sieve.load_instance(os.fspath(p))
    unit = sieve.random_instance(6, 5, seed=3)
    sieve.save_instance(sieve.SieveInstance(6, unit.vectors, "unit", theta=0.0), os.fspath(p))
    with pytest.raises(DomainError):
        sieve.load_instance(os.fspath(p))


def test_empty_instance_roundtrip(tmp_path):
    p = os.fspath(tmp_path / "empty.bin")
    sieve.save_instance(sieve.make_instance(np.empty((0, 5))), p)
    back = sieve.load_instance(p)
    assert (back.n, back.d) == (0, 5)
