"""Filter families: enumeration exactness, sampler uniformity, serialization."""

import math
import os
import struct
from collections import Counter

import numpy as np
import pytest

from sievelab import geometry, rpc
from sievelab.errors import DomainError
from sievelab.rng import make_rng


def test_explicit_family_unit_centers():
    fam = rpc.build_family("explicit", 8, 5, t=100)
    assert fam.t == 100 and fam.centers.shape == (100, 8)
    assert np.allclose(np.linalg.norm(fam.centers, axis=1), 1.0, atol=1e-12)


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
    rng = make_rng(0xABC)
    worst_ratio = 0.0
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
        assert nodes <= fam.t * (fam.B or 1)
        worst_ratio = max(worst_ratio, nodes / fam.t)
    assert worst_ratio <= 3.0  # pruning keeps the walk near scan cost


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
        t64 = rpc.build_sample_tree(tiny_family, v, alpha, grid_size=64)
        t128 = rpc.build_sample_tree(tiny_family, v, alpha, grid_size=128)
        lo = len(rpc.relevant_filters(tiny_family, v, alpha))
        assert lo <= t64.root_count <= len(
            rpc.relevant_filters(tiny_family, v, alpha - t64.epsilon)
        )
        assert lo <= t128.root_count <= len(
            rpc.relevant_filters(tiny_family, v, alpha - t128.epsilon)
        )
        # doubling the grid halves epsilon and never widens the count
        assert t128.epsilon == pytest.approx(t64.epsilon / 2, rel=1e-12)
        assert t128.root_count <= t64.root_count


def test_tree_epsilon_formula(tiny_family):
    v = geometry.sample_sphere(8, make_rng(2))
    tree = rpc.build_sample_tree(tiny_family, v, 0.3, grid_size=64)
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
        if fam.kind == "explicit":
            assert np.array_equal(back.centers, fam.centers)
        else:
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
