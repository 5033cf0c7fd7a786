"""Comparator circuits: exact costs, argmin semantics, pipeline recovery."""

import hashlib
import json
import math

import numpy as np
import pytest

from sievelab import circuit as ccirc
from sievelab import geometry, rpc, sieve
from sievelab.errors import DomainError
from sievelab.rng import make_rng


def _random_circuit(seed, t=30, d=8, kmax=20):
    rng = make_rng(seed)
    sizes = [int(rng.integers(0, kmax + 1)) for _ in range(t)]
    return (
        ccirc.build_circuit(
            [geometry.sample_sphere(d, rng, size=k) if k else np.empty((0, d)) for k in sizes],
            d=d,
        ),
        sizes,
    )


# --- costs ---------------------------------------------------------------------


def test_cost_mixed_profile():
    circ = ccirc.build_circuit(
        [np.ones((3, 4)), np.ones((5, 4)), np.ones((2, 4)), np.empty((0, 4))]
    )
    cost = ccirc.circuit_cost(circ)
    assert (cost.depth, cost.size, cost.width) == (6, 10, 4)


def test_cost_single_trivial_chain():
    cost = ccirc.circuit_cost(ccirc.build_circuit([np.ones((1, 4))]))
    assert (cost.depth, cost.size, cost.width) == (0, 0, 1)


def test_cost_uniform_buckets_formula():
    for t, M in [(1, 5), (3, 1), (7, 4), (16, 9)]:
        cost = ccirc.circuit_cost(ccirc.build_circuit([np.ones((M, 3))] * t))
        assert cost.depth == M - 1 + (math.ceil(math.log2(t)) if t > 1 else 0)
        assert cost.size == t * (M - 1) + t - 1
        assert cost.width == t


def test_cost_depth_grows_one_per_doubling():
    depths = [
        ccirc.circuit_cost(ccirc.build_circuit([np.ones((8, 3))] * t)).depth
        for t in (2, 4, 8, 16, 32, 64, 128, 256)
    ]
    assert np.all(np.diff(depths) == 1)


def test_cost_matches_closed_form_on_random_profiles():
    for seed in range(5):
        circ, sizes = _random_circuit(seed)
        cost = ccirc.circuit_cost(circ)
        comparators = [max(k - 1, 0) for k in sizes]
        assert cost.depth == max(comparators) + math.ceil(math.log2(len(sizes)))
        assert cost.size == sum(comparators) + len(sizes) - 1
        assert cost.width == len(sizes)


def test_cost_report_shape():
    circ, sizes = _random_circuit(3, t=5)
    rep = ccirc.cost_report(circ)
    assert rep["t"] == 5 and rep["bucket_sizes"] == sizes
    assert set(rep) == {"t", "bucket_sizes", "depth", "size", "width"}


# --- construction ----------------------------------------------------------------


def test_build_requires_a_bucket_and_consistent_dim():
    with pytest.raises(DomainError):
        ccirc.build_circuit([])
    with pytest.raises(DomainError):
        ccirc.build_circuit([np.ones((2, 3)), np.ones((2, 4))])
    with pytest.raises(DomainError):
        ccirc.build_circuit([np.empty((0, 4)), []])  # no dimension anywhere
    circ = ccirc.build_circuit([[], []], d=6)
    assert circ.d == 6 and all(c.shape == (0, 6) for c in circ.chains)
    for d in (0, -3):
        with pytest.raises(DomainError):
            ccirc.build_circuit([[], []], d=d)


def test_rebuild_is_identical():
    rng = make_rng(8)
    buckets = [geometry.sample_sphere(5, rng, size=k) for k in (3, 1, 4)]
    a = ccirc.build_circuit(buckets)
    b = ccirc.build_circuit(buckets)
    assert all(np.array_equal(x, y) for x, y in zip(a.chains, b.chains))
    assert (a.t, a.d) == (b.t, b.d)


# --- evaluation ------------------------------------------------------------------


def test_eval_member_query_returns_itself():
    circ, _ = _random_circuit(10)
    chain = next(c for c in circ.chains if c.shape[0] >= 3)
    i = [idx for idx, c in enumerate(circ.chains) if c is chain][0]
    w = chain[2]
    assert np.array_equal(ccirc.circuit_eval(circ, i, w), w)


def test_eval_matches_direct_argmin_property():
    circ, _ = _random_circuit(11)
    rng = make_rng(12)
    for _ in range(10_000):
        i = int(rng.integers(0, circ.t))
        w = geometry.sample_sphere(circ.d, rng)
        got = ccirc.circuit_eval(circ, i, w)
        chain = circ.chains[i]
        if chain.shape[0] == 0:
            assert np.array_equal(got, np.zeros(circ.d))
            continue
        best, best_d = 0, float(np.linalg.norm(chain[0] - w))
        for k in range(1, chain.shape[0]):
            dk = float(np.linalg.norm(chain[k] - w))
            if dk < best_d:  # incumbent survives ties
                best, best_d = k, dk
        assert np.array_equal(got, chain[best])


def test_eval_tie_goes_to_earliest_position():
    # positions 2 and 5 are equidistant from the origin query
    chain = np.array(
        [[3.0, 0], [0, 2.0], [1.0, 0], [4.0, 0], [0, 5.0], [-1.0, 0], [2.0, 2.0]]
    )
    circ = ccirc.build_circuit([chain])
    assert ccirc.circuit_eval_index(circ, 0, np.zeros(2)) == 2
    assert np.array_equal(ccirc.circuit_eval(circ, 0, np.zeros(2)), [1.0, 0])
    dup = np.array([[0, 2.0], [5.0, 0], [1.0, 0], [3.0, 0], [0, 4.0], [1.0, 0]])
    assert ccirc.circuit_eval_index(ccirc.build_circuit([dup]), 0, np.zeros(2)) == 2


def test_eval_empty_chain_zero_sentinel():
    circ = ccirc.build_circuit([np.empty((0, 3)), np.ones((2, 3))])
    assert np.array_equal(ccirc.circuit_eval(circ, 0, np.ones(3)), np.zeros(3))


def test_eval_index_out_of_range():
    circ = ccirc.build_circuit([np.ones((2, 3))])
    with pytest.raises(DomainError):
        ccirc.circuit_eval(circ, 1, np.ones(3))
    with pytest.raises(DomainError):
        ccirc.circuit_eval(circ, -1, np.ones(3))


# --- coin-driven oracle ------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_setup():
    fam = rpc.build_family("rpc", 8, 11, m=4, B=2)
    inst = sieve.random_instance(8, 40, seed=17, mode="norm", radius=1.0)
    led = sieve.QueryLedger()
    buckets = sieve.preprocess(inst, fam, 0.3, led)
    circ = ccirc.build_circuit([inst.vectors[idx] for idx in buckets.B], d=8)
    sr = make_rng(0x51)
    for _ in range(200):
        w = geometry.sample_sphere(8, sr)
        tree = rpc.build_sample_tree(fam, w, 0.35)
        if 4 <= tree.root_count <= 10:
            return fam, inst, buckets, circ, w, tree
    raise AssertionError("pinned seed no longer yields a small qualifying set")


def test_oracle_prime_selects_balanced_close_filters(oracle_setup):
    fam, inst, buckets, circ, w, tree = oracle_setup
    R = tree.coin_count
    filt_hits = {}
    for x in range(2**R):
        coins = format(x, f"0{R}b")
        u = ccirc.oracle_prime(circ, tree, w, coins)
        j = rpc.sample_alpha_close(tree, coins)
        # the output is the chain evaluation of an (alpha - eps)-close filter
        assert fam.center(j) @ w >= 0.35 - tree.epsilon - 1e-9
        assert np.array_equal(u, ccirc.circuit_eval(circ, j, w))
        filt_hits[j] = filt_hits.get(j, 0) + 1
    assert len(filt_hits) == tree.root_count
    assert max(filt_hits.values()) <= 2 * min(filt_hits.values())


def test_oracle_prime_single_filter_constant(oracle_setup):
    fam, inst, buckets, circ, _, _ = oracle_setup
    sr = make_rng(0x52)
    for _ in range(400):
        w = geometry.sample_sphere(8, sr)
        tree = rpc.build_sample_tree(fam, w, 0.5)
        if tree.root_count == 1:
            outs = {
                ccirc.oracle_prime(circ, tree, w, format(x, f"0{tree.coin_count}b")).tobytes()
                for x in range(2**tree.coin_count)
            }
            assert len(outs) == 1
            return
    raise AssertionError("no single-filter query found")


def test_oracle_prime_rejects_mismatched_query(oracle_setup):
    _, _, _, circ, w, tree = oracle_setup
    other = np.roll(w, 1)
    with pytest.raises(DomainError):
        ccirc.oracle_prime(circ, tree, other, "0" * tree.coin_count)


def test_query_values_match_the_coin_oracle(oracle_setup):
    _, inst, buckets, circ, w, tree = oracle_setup
    q = inst.n  # w joins the list as its last vector
    values, partner = ccirc._query_values(circ, tree, buckets.B, np.vstack([inst.vectors, w]), q)
    R = tree.coin_count
    assert values.size == partner.size == 2**R
    assert partner.dtype == np.int64
    assert np.array_equal(partner == -1, values == math.inf)
    assert np.any(partner >= 0)
    for x in range(2**R):
        j = rpc.sample_alpha_close(tree, format(x, f"0{R}b"))
        pos = ccirc.circuit_eval_index(circ, j, w)
        if pos is None:
            assert values[x] == math.inf and partner[x] == -1
        else:
            u = int(buckets.B[j][pos])
            assert values[x] == float(np.linalg.norm(inst.vectors[u] - w))
            assert partner[x] == u


def test_query_values_mark_missing_partners_with_minus_one(oracle_setup):
    fam, inst, buckets, circ, _, _ = oracle_setup
    dirs = inst.directions()
    missing = 0
    for q in range(inst.n):  # list vectors see themselves in their own buckets
        tree = rpc.build_sample_tree(fam, dirs[q], 0.35)
        if tree.root_count == 0:
            continue
        values, partner = ccirc._query_values(circ, tree, buckets.B, inst.vectors, q)
        assert np.array_equal(partner == -1, values == math.inf)
        assert np.all(partner != q)
        missing += int(np.sum(partner == -1))
    assert missing > 0


def test_pipeline_adds_no_pair_without_a_partner():
    # two copies of one vector: every chain holds a self-hit or a zero
    # difference, so every value is +inf and no pair qualifies
    fam = rpc.build_family("rpc", 8, 11, m=4, B=2)
    v = geometry.sample_sphere(8, make_rng(3))
    inst = sieve.make_instance(np.vstack([v, v]), mode="norm", radius=1.0)
    for mode in ("exhaustive", "minfind"):
        rep = ccirc.pipeline_step(inst, fam, -0.5, -0.5, mode=mode)
        assert rep.oracle_calls > 0
        assert rep.pairs == frozenset()


# --- pipeline ----------------------------------------------------------------------


def test_pipeline_finds_planted_pair_exhaustively():
    fam = rpc.build_family("rpc", 12, 31, m=5, B=2)
    cvec = fam.center(7)
    rng = make_rng(99)
    u = geometry.sample_sphere(12, rng)
    u -= (u @ cvec) * cvec
    u /= np.linalg.norm(u)
    y = math.cos(0.2) * cvec + math.sin(0.2) * u  # insert-side covered
    x = math.cos(0.7) * cvec + math.sin(0.7) * u  # query-side covered only
    vecs = np.vstack([x, y, geometry.sample_sphere(12, rng, size=30)])
    inst = sieve.make_instance(vecs, mode="norm", radius=1.0)
    rep = ccirc.pipeline_step(inst, fam, 0.7, 0.9, mode="exhaustive")
    assert (0, 1) in rep.pairs


@pytest.fixture(scope="module")
def pipeline_runs():
    fam = rpc.build_family("rpc", 12, 31, m=5, B=2)
    inst = sieve.random_instance(12, 128, seed=404, mode="norm", radius=1.0)
    exh = ccirc.pipeline_step(inst, fam, 0.40, 0.55, mode="exhaustive")
    mf1 = ccirc.pipeline_step(inst, fam, 0.40, 0.55, mode="minfind", seed=1)
    mf3 = ccirc.pipeline_step(inst, fam, 0.40, 0.55, mode="minfind", seed=1, minfind_runs=3)
    return fam, inst, exh, mf1, mf3


def test_pipeline_minfind_recovery(pipeline_runs):
    _, _, exh, mf1, mf3 = pipeline_runs
    assert len(exh.pairs) >= 30  # enough mass for the ratios to bind
    assert len(exh.pairs & mf1.pairs) / len(exh.pairs) >= 0.5
    assert len(exh.pairs & mf3.pairs) / len(exh.pairs) >= 0.9


def test_pipeline_minfind_budget(pipeline_runs):
    fam, inst, _, mf1, _ = pipeline_runs
    dirs = inst.directions()
    worst = max(
        2 ** rpc.build_sample_tree(fam, dirs[q], 0.40).coin_count for q in range(inst.n)
    )
    assert worst <= 2**14  # desk-scale guard headroom
    assert mf1.max_calls_per_query <= math.ceil(8.0 * math.sqrt(worst))


def test_pipeline_pairs_are_reducing(pipeline_runs):
    _, inst, exh, _, mf3 = pipeline_runs
    for i, j in exh.pairs | mf3.pairs:
        assert i != j
        d = np.linalg.norm(inst.vectors[i] - inst.vectors[j])
        assert 1e-12 < d <= inst.shrink_factor * inst.radius + 1e-9


def test_pipeline_deterministic(pipeline_runs):
    fam, inst, _, mf1, _ = pipeline_runs
    again = ccirc.pipeline_step(inst, fam, 0.40, 0.55, mode="minfind", seed=1)
    assert again.pairs == mf1.pairs
    assert again.oracle_calls == mf1.oracle_calls


def _digest(report):
    return hashlib.sha256(json.dumps(report.as_dict(), sort_keys=True).encode()).hexdigest()


# sha256 of each report's sorted-key JSON: how _query_values lays out
# the search space must not move the pairs or the call counts
def test_pipeline_golden_reports(pipeline_runs):
    _, _, exh, mf1, mf3 = pipeline_runs
    assert [_digest(rep) for rep in (exh, mf1, mf3)] == [
        "a73db500eeef467149a01fb031b604fe2e1d664c83deac89c6ba4612b631f397",
        "017fd60525f5e5068782dd4a981e4b8fc5fad2e09410d9681547ff781ccf8e12",
        "ca9ea718d87ed0a4a457cf01ce919c0538e58de3bee7520374d0b6589fdee0e5",
    ]


@pytest.fixture(scope="module")
def guard_family():
    fam = rpc.build_family("rpc", 8, 21, m=48, B=2)
    inst = sieve.random_instance(8, 8, seed=22, mode="norm", radius=1.0)
    return fam, inst


# at alpha = -0.3 every tree has more than 2^10 leaves, so 2^R exceeds the
# coin guard and the leaves are the search space; at alpha = 0.1 half of
# the trees have exactly PIPELINE_COIN_GUARD coin strings and search them
@pytest.mark.parametrize("alpha, mode, digest", [
    (-0.3, "exhaustive", "976439e53b487cddee1325aeac068a1512e4b0bf04dd904caabd866daabedef2"),
    (-0.3, "minfind", "b3e2bc49a1de917edaacc10c1bd3205620c8979ad1da3ac361f2c835b93a6668"),
    (0.1, "exhaustive", "60ed825983c49eb21176426801a79dd7913abd16eefbd51e0a3eb4fec8ffa512"),
    (0.1, "minfind", "66a934ac289dd1794bdb9aa561d408ea567378150ecb9e9ef08de85b69229367"),
])
def test_pipeline_golden_around_the_guard(guard_family, alpha, mode, digest):
    fam, inst = guard_family
    coin_spaces = {
        2 ** rpc.build_sample_tree(fam, v, alpha).coin_count for v in inst.directions()
    }
    if alpha < 0:
        assert min(coin_spaces) > ccirc.PIPELINE_COIN_GUARD
    else:
        assert coin_spaces == {ccirc.PIPELINE_COIN_GUARD, 2 * ccirc.PIPELINE_COIN_GUARD}
    rep = ccirc.pipeline_step(inst, fam, alpha, 0.3, mode=mode, seed=5)
    assert _digest(rep) == digest


def test_pipeline_validation():
    fam = rpc.build_family("rpc", 8, 1, m=3, B=2)
    unit = sieve.random_instance(8, 6, seed=2)
    with pytest.raises(DomainError):
        ccirc.pipeline_step(unit, fam, 0.3, 0.3)  # needs norm mode
    norm = sieve.random_instance(8, 6, seed=2, mode="norm", radius=1.0)
    with pytest.raises(DomainError):
        ccirc.pipeline_step(norm, fam, 0.3, 0.3, mode="other")
    with pytest.raises(DomainError):
        ccirc.pipeline_step(norm, fam, 0.3, 0.3, mode="minfind", minfind_runs=0)
