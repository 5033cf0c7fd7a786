"""Comparator circuits: exact costs, argmin semantics, pipeline recovery."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab import circuit as ccirc
from sievelab import geometry, qsearch, rpc, sieve
from sievelab.errors import DomainError
from sievelab.rng import derive_seed, make_rng


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
    fam, inst, buckets, circ, w, tree = oracle_setup
    q = inst.n  # w joins the list as its last vector; the buckets stay as they are
    grown = sieve.make_instance(np.vstack([inst.vectors, w]), mode="norm", radius=1.0)
    query, values, partner = ccirc._leaf_table(grown, fam, 0.35, buckets.members)
    values, partner = values[query == q], partner[query == q]  # in leaf rank order
    R = tree.coin_count
    assert values.size == partner.size == tree.root_count
    assert partner.dtype == np.int64
    assert np.array_equal(partner == -1, values == math.inf)
    assert np.any(partner >= 0)
    # every coin string reaches oracle_prime's chain through its coin rank
    for x in range(2**R):
        coins = format(x, f"0{R}b")
        rank = rpc.coin_rank(x, tree.root_count, R)
        j = rpc.sample_alpha_close(tree, coins)
        assert j == rpc.leaf_index(tree, rank)
        pos = ccirc.circuit_eval_index(circ, j, w)
        if pos is None:
            assert values[rank] == math.inf and partner[rank] == -1
        else:
            u = int(buckets.B[j][pos])
            assert np.array_equal(ccirc.oracle_prime(circ, tree, w, coins), inst.vectors[u])
            assert values[rank] == float(np.linalg.norm(inst.vectors[u] - w))
            assert partner[rank] == u


def test_query_values_mark_missing_partners_with_minus_one(oracle_setup):
    fam, inst, buckets, _, _, _ = oracle_setup
    # list vectors see themselves in their own buckets
    query, values, partner = ccirc._leaf_table(inst, fam, 0.35, buckets.members)
    assert np.array_equal(partner == -1, values == math.inf)
    assert np.all(partner != query)
    assert np.sum(partner == -1) > 0


def _reference_spaces(inst, fam, alpha, buckets):
    # the per-query walk the batched pass replaced: one sample tree per
    # query, every leaf unranked and its chain evaluated on its own
    bucket_rows = buckets.B
    circ = ccirc.build_circuit([inst.vectors[idx] for idx in bucket_rows], d=inst.d)
    for q, v in enumerate(inst.directions()):
        tree = rpc.build_sample_tree(fam, v, alpha)
        if tree.root_count == 0:
            continue
        w = inst.vectors[q]
        values = np.full(tree.root_count, math.inf)
        partner = np.full(tree.root_count, -1, dtype=np.int64)
        for rank in range(tree.root_count):
            j = rpc.leaf_index(tree, rank)
            pos = ccirc.circuit_eval_index(circ, j, w)
            if pos is None:
                continue
            u = int(bucket_rows[j][pos])
            dist = float(np.linalg.norm(inst.vectors[u] - w))
            if u != q and dist > 1e-12:
                values[rank], partner[rank] = dist, u
        yield q, values, partner


@given(st.integers(1, 2**11), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_first_least_coin_string_selects_the_first_least_leaf(root, levels, seed):
    # why exhaustive mode reads leaves: coin_rank is nondecreasing and onto
    coins = rpc.coin_count(root)
    ranks = rpc.coin_rank(np.arange(2**coins, dtype=np.int64), root, coins)
    assert np.all(np.diff(ranks) >= 0)
    assert np.array_equal(np.unique(ranks), np.arange(root))
    # tie-heavy values, +inf standing for a missing partner
    values = make_rng(seed).integers(0, levels, size=root).astype(float)
    values[values == levels - 1] = math.inf
    assert ranks[np.argmin(values[ranks])] == np.argmin(values)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
def test_first_least_is_argmin_run_by_run(sizes, seed):
    values = make_rng(seed).integers(0, 3, size=sum(sizes)).astype(float)
    values[values == 2] = math.inf
    starts = np.cumsum(sizes) - sizes
    want = [s + int(np.argmin(values[s:s + k])) for s, k in zip(starts, sizes)]
    assert ccirc._first_least(values, starts).tolist() == want


def _tie_instance():
    # every vector three times: each chain holding one holds its copies,
    # so chain minima tie and the first position must win
    base = sieve.random_instance(8, 20, seed=23, mode="norm", radius=1.0).vectors
    return sieve.make_instance(np.vstack([base, base[::-1], base]), mode="norm", radius=1.0)


@pytest.mark.parametrize("case", ["m5B2", "m5B3", "guard-0.3", "guard0.1", "ties"])
def test_search_spaces_match_the_per_query_walk(monkeypatch, case):
    fam, inst, alpha, beta = {
        "m5B2": lambda: (rpc.build_family("rpc", 12, 31, m=5, B=2),
                         sieve.random_instance(12, 60, seed=404, mode="norm", radius=1.0),
                         0.40, 0.55),
        "m5B3": lambda: (rpc.build_family("rpc", 12, 33, m=5, B=3),
                         sieve.random_instance(12, 60, seed=405, mode="norm", radius=1.0),
                         0.40, 0.55),
        "guard-0.3": lambda: (rpc.build_family("rpc", 8, 21, m=48, B=2),
                              sieve.random_instance(8, 8, seed=22, mode="norm", radius=1.0),
                              -0.3, 0.3),
        "guard0.1": lambda: (rpc.build_family("rpc", 8, 21, m=48, B=2),
                             sieve.random_instance(8, 8, seed=22, mode="norm", radius=1.0),
                             0.1, 0.3),
        "ties": lambda: (rpc.build_family("rpc", 8, 11, m=4, B=2), _tie_instance(), 0.1, 0.4),
    }[case]()
    buckets = sieve.preprocess(inst, fam, beta, sieve.QueryLedger())
    want = list(_reference_spaces(inst, fam, alpha, buckets))
    if case == "ties":
        assert sum(np.isfinite(v).sum() for _, v, _ in want) > 0
    want_query = np.concatenate([np.full(v.size, q) for q, v, _ in want])
    want_values = np.concatenate([v for _, v, _ in want])
    want_partner = np.concatenate([p for _, _, p in want])
    # small budgets make the score, decode and gather chunks ragged; one
    # float forces one row, one prefix and one chain per chunk
    for block_floats, gather_floats in [(None, None), (50, 40), (1, 1)]:
        if block_floats is not None:
            monkeypatch.setattr(rpc, "_BLOCK_FLOATS", block_floats)
            monkeypatch.setattr(ccirc, "_GATHER_FLOATS", gather_floats)
        query, values, partner = ccirc._leaf_table(inst, fam, alpha, buckets.members)
        assert query.tolist() == want_query.tolist()
        assert values.tobytes() == want_values.tobytes()
        assert partner.tobytes() == want_partner.tobytes()
    monkeypatch.undo()
    # the batched grid is each query's own tree, leaf for leaf
    dirs = inst.directions()
    levels, level_min, epsilon = rpc.sample_levels(fam, dirs, alpha)
    keys = rpc.sample_leaves(fam, dirs, alpha)
    roots = np.bincount(keys // fam.t, minlength=inst.n)
    for q, v in enumerate(dirs):
        tree = rpc.build_sample_tree(fam, v, alpha)
        assert (level_min, epsilon) == (tree.level_min, tree.epsilon)
        assert all(np.array_equal(lv[q], t_lv) for lv, t_lv in zip(levels, tree.levels))
        assert roots[q] == tree.root_count
        assert rpc.coin_count(int(roots[q])) == tree.coin_count
        leaves = keys[keys // fam.t == q] % fam.t
        assert leaves.tolist() == [rpc.leaf_index(tree, r) for r in range(tree.root_count)]


@pytest.fixture(scope="module")
def workspace_case():
    fam = rpc.build_family("rpc", 12, 31, m=5, B=2)
    inst = sieve.random_instance(12, 60, seed=404, mode="norm", radius=1.0)
    members = sieve.preprocess(inst, fam, 0.55, sieve.QueryLedger()).members
    return fam, inst, members


def test_leaf_table_workspace_reuse_across_ragged_chunks(monkeypatch, workspace_case):
    # the two gather workspaces are sized by the largest chunk; a smaller
    # chunk after it fills only their front and leaves a stale tail behind
    fam, inst, members = workspace_case
    alpha = 0.40
    query, leaf = np.divmod(rpc.sample_leaves(fam, inst.directions(), alpha), fam.t)
    # per entry: circuit_eval_index on the bucket's chain, np.linalg.norm's bits
    chains = [members.indices[members.indptr[j]:members.indptr[j + 1]] for j in range(fam.t)]
    circ = ccirc.build_circuit([inst.vectors[rows] for rows in chains], d=inst.d)
    want_values = np.full(query.size, math.inf)
    want_partner = np.full(query.size, -1, dtype=np.int64)
    empty = self_hits = 0
    for e, (q, j) in enumerate(zip(query.tolist(), leaf.tolist())):
        pos = ccirc.circuit_eval_index(circ, j, inst.vectors[q])
        if pos is None:
            empty += 1
            continue
        u = int(chains[j][pos])
        dist = float(np.linalg.norm(inst.vectors[u] - inst.vectors[q]))
        if u == q:
            self_hits += 1
        elif dist > 1e-12:
            want_values[e], want_partner[e] = dist, u
    assert empty > 0 and self_hits > 0
    default = ccirc._leaf_table(inst, fam, alpha, members)
    sizes = np.diff(members.indptr)[leaf]
    weights = sizes[sizes > 0] * inst.d
    for gather_floats in (1, 40, 97, 500):
        rows = [int(weights[run].sum()) for run in rpc.spans(weights, gather_floats)]
        assert any(a > b for a, b in zip(rows, rows[1:]))  # a chunk smaller than one before it
        monkeypatch.setattr(ccirc, "_GATHER_FLOATS", gather_floats)
        got = ccirc._leaf_table(inst, fam, alpha, members)
        for a, b, c in zip(got, default, (query, want_values, want_partner)):
            assert a.dtype == b.dtype == c.dtype
            assert a.tobytes() == b.tobytes() == c.tobytes()


@pytest.mark.parametrize("bad", [-1, "n"])
def test_leaf_table_refuses_a_row_outside_the_list(workspace_case, bad):
    # the gathers clip, so a bad row must be refused before it is read
    fam, inst, members = workspace_case
    rows = members.indices.copy()
    rows[rows.size // 2] = inst.n if bad == "n" else bad
    with pytest.raises(IndexError):
        ccirc._leaf_table(inst, fam, 0.40, sieve.Mask(members.indptr, rows, members.shape))


def test_pipeline_on_an_empty_list():
    fam = rpc.build_family("rpc", 8, 1, m=3, B=2)
    empty = sieve.make_instance(np.empty((0, 8)), mode="norm", radius=1.0)
    for mode in ("exhaustive", "minfind"):
        rep = ccirc.pipeline_step(empty, fam, 0.3, 0.3, mode=mode)
        assert (rep.pairs, rep.oracle_calls, rep.max_calls_per_query) == (frozenset(), 0, 0)


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


# sha256 of each report's sorted-key JSON: how the leaf table and the
# coin strings lay out the search space must not move the pairs or the
# call counts
def test_pipeline_golden_reports(pipeline_runs):
    _, _, exh, mf1, mf3 = pipeline_runs
    assert [_digest(rep) for rep in (exh, mf1, mf3)] == [
        "a73db500eeef467149a01fb031b604fe2e1d664c83deac89c6ba4612b631f397",
        "017fd60525f5e5068782dd4a981e4b8fc5fad2e09410d9681547ff781ccf8e12",
        "ca9ea718d87ed0a4a457cf01ce919c0538e58de3bee7520374d0b6589fdee0e5",
    ]


# a three-block code, with 9 of the 96 queries qualifying nowhere; recorded
# from the per-query walk before the batched pass replaced it
def test_pipeline_golden_reports_three_blocks():
    fam = rpc.build_family("rpc", 12, 33, m=5, B=3)
    inst = sieve.random_instance(12, 96, seed=405, mode="norm", radius=1.0)
    exh = ccirc.pipeline_step(inst, fam, 0.40, 0.55, mode="exhaustive")
    mf = ccirc.pipeline_step(inst, fam, 0.40, 0.55, mode="minfind", seed=3, minfind_runs=2)
    assert [_digest(rep) for rep in (exh, mf)] == [
        "2724298e8ae7643a7931e5e04b60e44265ec2f67f5f830f1b5c97fa24abe6501",
        "fae097f0a762a7c941d44abe57c2a80c8e5de5eabfd81311f08703a622ba128f",
    ]


# the bench `pipeline` instance: both reports' sorted-key JSON lines,
# hashed in one stream as the bench hashes its result
def test_pipeline_golden_bench_instance():
    fam = rpc.build_family("rpc", 16, derive_seed(1, 1), m=6, B=2)
    inst = sieve.random_instance(16, 2000, derive_seed(1, 2), mode="norm", radius=1.0)
    h = hashlib.sha256()
    for mode, kwargs in (("exhaustive", {}),
                         ("minfind", {"seed": derive_seed(1, 3), "minfind_runs": 3})):
        rep = ccirc.pipeline_step(inst, fam, 0.40, 0.55, mode=mode, **kwargs)
        h.update((json.dumps(rep.as_dict(), sort_keys=True) + "\n").encode())
    assert h.hexdigest() == "3656486c727f828e947e5f77a9187ad88bed3b413c66ac5b4f0209adde89277d"


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


# the pins compare pairs, which minimum finding mostly gets right whatever
# the run weights; this holds each call to the coin strings it searches
@pytest.mark.parametrize("alpha", [0.40, -0.3, 0.1])
def test_minfind_weighs_each_leaf_by_its_coin_strings(monkeypatch, pipeline_runs, guard_family,
                                                       alpha):
    fam, inst = pipeline_runs[:2] if alpha == 0.40 else guard_family
    beta = 0.55 if alpha == 0.40 else 0.3
    calls = []

    def spy(values, seed, counts=None):
        calls.append((seed, list(counts)))
        return qsearch.min_find_with_cost(values, seed, counts)

    monkeypatch.setattr(ccirc, "min_find_with_cost", spy)
    ccirc.pipeline_step(inst, fam, alpha, beta, mode="minfind", seed=5, minfind_runs=2)
    members = sieve.preprocess(inst, fam, beta, sieve.QueryLedger()).members
    roots = np.bincount(ccirc._leaf_table(inst, fam, alpha, members)[0], minlength=inst.n)
    want = []
    for q in np.flatnonzero(roots).tolist():
        root = int(roots[q])
        coins = rpc.coin_count(root)
        if 2**coins <= ccirc.PIPELINE_COIN_GUARD:
            strings = rpc.coin_rank(np.arange(2**coins, dtype=np.int64), root, coins)
            counts = np.bincount(strings, minlength=root).tolist()
        else:
            counts = [1] * root
        want += [(derive_seed(5, q * 131 + r), counts) for r in range(2)]
    assert calls == want


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
