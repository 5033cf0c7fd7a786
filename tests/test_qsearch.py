"""Search emulators: closed-form agreement, cost envelopes, counters.

Statistical assertions run on pinned seeds, so every number here is
reproducible; windows come from the closed forms they shadow.
"""

import functools
import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GeneratorDraws
from sievelab import qsearch as Q
from sievelab.cli import main
from sievelab.errors import DomainError
from sievelab.rng import DEFAULT_SEED, derive_seed, make_rng, search_draws


# --- QAA -------------------------------------------------------------------


def test_qaa_iterations_pinned():
    assert Q.qaa_iterations(math.pi / 2) == 0
    assert Q.qaa_iterations(math.pi / 6) == 1
    assert Q.qaa_iterations(math.asin(0.25)) == 2


def test_qaa_iterations_domain():
    for bad in (0.0, -0.2, math.pi):
        with pytest.raises(DomainError):
            Q.qaa_iterations(bad)


def test_qaa_run_closed_form_grid():
    rng = make_rng(DEFAULT_SEED, 21)
    for _ in range(60):
        S = int(rng.integers(2, 1025))
        k = int(rng.integers(1, S + 1))
        N = int(rng.integers(0, 51))
        marked = rng.choice(S, size=k, replace=False)
        mass, psi = Q.qaa_run(S, marked, N)
        theta = math.asin(math.sqrt(k / S))
        assert mass == pytest.approx(math.sin((2 * N + 1) * theta) ** 2, abs=1e-9)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_qaa_run_edge_cases():
    mass, psi = Q.qaa_run(16, [], 7)
    assert mass == 0.0
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    mass, _ = Q.qaa_run(8, range(8), 0)
    assert mass == pytest.approx(1.0, abs=1e-12)
    # S=16, one marked, N=2: the standard two-iteration example
    mass, _ = Q.qaa_run(16, [5], 2)
    assert mass == pytest.approx(math.sin(5 * math.asin(0.25)) ** 2, abs=1e-12)


# --- BBHT ------------------------------------------------------------------


def test_bbht_all_marked_is_immediate():
    found, evals = Q.bbht_search(np.ones(32, bool), 1, 51)
    assert found is not None
    assert evals <= 2


def test_bbht_no_marked_caps_out():
    cap = math.ceil(9 * math.sqrt(64))
    found, evals = Q.bbht_search(np.zeros(64, bool), 2, cap)
    assert found is None
    assert evals == cap  # no mark: the whole cap is spent


def test_bbht_rejects_an_empty_space():
    with pytest.raises(DomainError):
        Q.bbht_search(np.zeros(0, bool), 2, 1)


def test_bbht_refuses_a_bad_cap_before_drawing(monkeypatch):
    def refuse(seed):
        raise AssertionError("drew before refusing the cap")

    monkeypatch.setattr(Q, "search_draws", refuse)
    for bad in (-5, 2.5):
        with pytest.raises(DomainError, match="cap"):
            Q.bbht_search(np.ones(8, bool), 2, bad)
    monkeypatch.undo()
    # a zero cap spends nothing, marked or not
    for flags in (np.ones(8, bool), np.zeros(8, bool)):
        assert Q.bbht_search(flags, 2, 0) == (None, 0)
    assert Q.bbht_search(np.ones(8, bool), 2, np.int64(3))[1] <= 3


def test_bbht_single_solution_statistics():
    hits = 0
    costs = []
    for t in range(500):
        found, evals = Q.bbht_search(np.arange(64) == 17, derive_seed(DEFAULT_SEED, t), 72)
        hits += found == 17
        costs.append(evals)
    assert hits / 500 >= 0.95
    assert np.mean(costs) <= 9 * math.sqrt(64)


def test_bbht_returns_only_marked():
    for t in range(50):
        found, _ = Q.bbht_search(np.arange(33) % 7 == 3, derive_seed(3, t), 52)
        if found is not None:
            assert found % 7 == 3


def _bbht_replay(flags, rng, cap):
    """bbht_search's loop as written before its schedule and hit caches, on
    Generator calls: float attempt sizes, each hit chance computed when drawn."""
    S, k = flags.size, int(np.count_nonzero(flags))
    theta = math.asin(math.sqrt(k / S))
    m, evals = 1.0, 0
    while evals < cap:
        j = int(rng.integers(0, math.ceil(m)))
        cost = max(1, j)
        if evals + cost > cap:
            return None, cap
        evals += cost
        if rng.random() < math.sin((2 * j + 1) * theta) ** 2:
            return int(np.flatnonzero(flags)[rng.integers(0, k)]), evals
        m = min(m * 1.2, math.sqrt(S))
    return None, evals


def test_bbht_search_replays_the_generator_loop():
    for t in range(80):
        case = make_rng(11, t)
        S = int(case.integers(1, 400))
        flags = case.random(S) < (0.0, 1.0 / S, 0.1, 1.0)[t % 4]
        cap = int(case.integers(1, 120))
        seed = derive_seed(12, t)
        assert Q.bbht_search(flags, seed, cap) == _bbht_replay(flags, make_rng(seed), cap), t


def test_bbht_search_restarts_the_threads_stream():
    flags = np.arange(300) % 97 == 5
    fresh = Q.bbht_search(flags, 7, 60)
    stream = search_draws(8)
    stream.below(3)  # leaves a 32-bit half held
    stream.generator.random(5)
    assert Q.bbht_search(flags, 7, 60) == fresh


def test_bbht_search_pinned():
    # sha256 recorded while bbht_search still read a caller's Generator,
    # as bbht_search(flags, make_rng(seed), cap)
    rows = []
    for t in range(500):
        case = make_rng(34, t)
        S = int(case.integers(1, 3001))
        flags = case.random(S) < (0.0, 1.0 / S, 0.01, 0.3, 1.0)[t % 5]
        cap = int(case.integers(1, 401))
        rows.append(Q.bbht_search(flags, derive_seed(35, t), cap))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "cd24b997442c944433a37cef46d3580bacb17e2092dbd10912702f810f9d2fdd"


def _ref_bbht_two_class(S, k, draws, cap):
    """The BBHT loop as it stood before it named its own hit: True on a
    verified hit, None on cap exhaustion; the caller then drew the rank."""
    below, uniform = draws.below, draws.uniform
    sched = Q._bbht_schedule(S)
    theta = math.asin(math.sqrt(k / S))
    last = len(sched) - 1
    i = 0
    evals = 0
    while evals < cap:
        j = below(sched[i])
        cost = j or 1
        if evals + cost > cap:
            evals = cap  # truncated attempt burns the remaining budget
            break
        evals += cost
        if uniform() < math.sin((2 * j + 1) * theta) ** 2:
            return True, evals
        # measured an unmarked element; grow the iteration range
        if i < last:
            i += 1
    return None, evals


def _stream_state(draws):
    state = draws.generator.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


@given(
    # spaces past 10**6 too, which only the pair search reaches
    S=st.one_of(st.integers(1, 5000), st.integers(10**6 + 1, 10**9)),
    marks=st.sampled_from(["none", "one", "all"]),
    cap=st.integers(1, 500),
    seed=st.integers(0, 2**64 - 1),
)
def test_bbht_names_the_hit_its_callers_drew(S, marks, cap, seed):
    k = {"none": 0, "one": 1, "all": S}[marks]
    draws = search_draws(seed)
    if k == 0:  # charged its cap without a draw
        assert Q._bbht(S, k, draws, cap) == (None, cap)
        state = _stream_state(draws)  # read before the restart moves draws
        assert state == _stream_state(search_draws(seed))
        return
    twin = GeneratorDraws(make_rng(seed))
    hit, evals = _ref_bbht_two_class(S, k, twin, cap)
    assert Q._bbht(S, k, draws, cap) == (None if hit is None else twin.below(k), evals)
    assert _stream_state(draws) == _stream_state(twin)


def _float_sizes(S, attempts):
    m, sizes = 1.0, []
    for _ in range(attempts):
        sizes.append(m)
        m = min(m * 1.2, math.sqrt(S))
    return sizes


def test_bbht_schedule_replays_the_float_loop():
    for S in [*range(1, 5001), 10**6]:
        sched = Q._bbht_schedule(S)
        sizes = _float_sizes(S, len(sched) + 3)
        assert [sched[min(i, len(sched) - 1)] for i in range(len(sizes))] == \
            [math.ceil(m) for m in sizes], S
        # it ends at the first saturated size
        assert sizes[len(sched) - 1] == math.sqrt(S) > max(sizes[:len(sched) - 1], default=0.0), S


@pytest.mark.parametrize("S", [1, 2, 3, 64, 1000, 65536, 10**6, 10**6 + 1, 10**10])
def test_hit_table_matches_the_loop_expression(S):
    n = math.ceil(math.sqrt(S))
    for k in sorted({k for k in (0, 1, 2, S // 3, S - 1, S) if k <= S}):
        theta = math.asin(math.sqrt(k / S))
        row = Q._hit_table(S, k)
        for j in range(n) if n <= 2000 else (0, 1, n // 2, n - 1):
            assert Q._hit_fill(row, S, k, j) == row[j] == math.sin((2 * j + 1) * theta) ** 2, (k, j)
    # the sparse pair probe reads these rows at any j < n, full block pairs
    # included; it skips an empty block pair, as _bbht skips k = 0, but the
    # empty row still holds the loop expression's zeros
    full, empty = Q._hit_table(S, S), Q._hit_table(S, 0)
    assert all(Q._hit_fill(full, S, S, j) == 1.0 and Q._hit_fill(empty, S, 0, j) == 0.0
               for j in range(n))


def test_bbht_caches_are_bounded():
    for cache in (Q._bbht_schedule, Q._hit_table):
        assert cache.cache_parameters()["maxsize"] is not None


def test_hit_row_holds_no_more_entries_than_attempts():
    # a row stores only what a search reads, so its size follows the
    # work done, even where ceil(sqrt(S)) is 10**6 entries
    class Counted:  # the stream, counting measurements: one per attempt
        def __init__(self, draws):
            self.below, self.draw, self.attempts = draws.below, draws.uniform, 0

        def uniform(self):
            self.attempts += 1
            return self.draw()

    Q._hit_table.cache_clear()
    draws = Counted(search_draws(5))
    assert Q._bbht(10**12, 1, draws, 300) == (None, 300)  # one mark in 10**12 is missed
    assert 0 < len(Q._hit_table(10**12, 1)) <= draws.attempts


def test_searches_in_threads_match_their_serial_runs():
    values = [make_rng(31, t).standard_normal(2000) for t in range(200)]

    def scaling():
        return [Q.blocked_search_scaling(256, [4, 16, 64], 6 / 256, 60, seed) for seed in range(6)]

    def minfind():
        return [Q.min_find_with_cost(v, t) for t, v in enumerate(values)]

    jobs = (scaling, minfind) * 2  # four threads, two running each search
    serial = [fn() for fn in jobs]
    results = [None] * len(jobs)
    barrier = threading.Barrier(len(jobs))

    def run(i, fn):
        barrier.wait()
        results[i] = fn()

    threads = [threading.Thread(target=run, args=(i, fn)) for i, fn in enumerate(jobs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside single searches
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == serial


# --- blocked search ----------------------------------------------------------


def test_blocked_search_s1_is_classical_scan():
    flags = np.zeros(100, bool)
    flags[37] = True
    rep = Q.blocked_search(100, flags, 1, seed=9)
    assert rep.success and rep.found == 37
    assert rep.oracle_evals == 38  # one evaluation per scanned element
    assert rep.qram_reloads == 38


def test_blocked_search_s1_no_solution():
    rep = Q.blocked_search(50, np.zeros(50, bool), 1, seed=9)
    assert not rep.success and rep.found is None
    assert rep.oracle_evals == 50


def test_blocked_search_full_block_grover_window():
    # S=M, one solution: mean cost within [0.5, 2] x (pi/4) sqrt(M)
    M = 256
    costs = []
    for t in range(300):
        flags = np.zeros(M, bool)
        flags[100] = True
        rep = Q.blocked_search(M, flags, M, derive_seed(1, t))
        assert rep.found == 100 or not rep.success
        costs.append(rep.oracle_evals)
    mid = (math.pi / 4) * math.sqrt(M)
    assert 0.5 * mid <= np.mean(costs) <= 2 * mid


def test_blocked_search_verifies_and_counts():
    flags = np.zeros(64, bool)
    flags[[9, 40, 41]] = True
    rep = Q.blocked_search(64, flags, 16, seed=5)
    assert rep.success and flags[rep.found]
    assert rep.qram_reloads <= math.ceil(64 / 16)
    assert rep.oracle_evals >= 1


def test_blocked_search_ragged_tail_padding():
    flags = np.zeros(10, bool)
    flags[9] = True
    rep = Q.blocked_search(10, flags, 4, seed=11)
    assert rep.success and rep.found == 9
    # dummy padding indices are unmarked and can never be returned
    assert rep.found < 10


def test_blocked_search_no_solution_burns_caps():
    M, S = 32, 4
    rep = Q.blocked_search(M, np.zeros(M, bool), S, seed=3)
    assert not rep.success
    cap = math.ceil(3 * math.sqrt(S))
    assert rep.oracle_evals <= (M // S) * cap
    assert rep.qram_reloads == M // S


def _reference_scan(flags):
    """The S = 1 classical scan, one element at a time."""
    for i, marked in enumerate(flags):
        if marked:
            return Q.SearchReport(i, i + 1, i + 1, True)
    return Q.SearchReport(None, len(flags), len(flags), False)


@given(
    MS=st.integers(1, 64).flatmap(lambda M: st.tuples(st.just(M), st.integers(1, M))),
    p=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32),
)
def test_blocked_search_ledger_invariants(MS, p, seed):
    M, S = MS
    flags = make_rng(seed).random(M) < p  # may hold no mark at all
    rep = Q.blocked_search(M, flags, S, seed)
    blocks = math.ceil(M / S)
    assert rep.qram_reloads <= blocks
    if S == 1:
        assert rep.oracle_evals <= M
        assert rep == _reference_scan(flags)
    else:
        assert rep.oracle_evals <= rep.qram_reloads * math.ceil(3 * math.sqrt(S))
    assert rep.success == (rep.found is not None)
    if rep.found is None:
        assert rep.qram_reloads == blocks  # a miss loads every block
    else:
        assert flags[rep.found]


@given(
    MS=st.integers(2, 64).flatmap(lambda M: st.tuples(st.just(M), st.integers(2, M))),
    B=st.integers(1, 4),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_markless_blocks_in_front_only_add_their_caps(MS, B, p, seed):
    # a markless block draws nothing, so B of them ahead of the flags leave
    # the search's draws, and so its hit, as they were
    M, S = MS
    flags = make_rng(seed).random(M) < p
    rep = Q.blocked_search(M, flags, S, seed)
    padded = Q.blocked_search(M + B * S, np.concatenate([np.zeros(B * S, bool), flags]), S, seed)
    cap = math.ceil(3 * math.sqrt(S))
    assert padded == Q.SearchReport(
        None if rep.found is None else rep.found + B * S,
        rep.oracle_evals + B * cap, rep.qram_reloads + B, rep.success)


def test_blocked_search_deterministic():
    flags = np.zeros(128, bool)
    flags[[7, 77]] = True
    a = Q.blocked_search(128, flags, 16, seed=42)
    b = Q.blocked_search(128, flags, 16, seed=42)
    assert a == b


# (M, S) with S >= 2: whole blocks, ragged tails, S = M and a lone pair
BLOCKED_GRID = [
    (2, 2), (10, 3), (10, 4), (17, 5), (33, 32), (64, 16),
    (64, 64), (100, 7), (256, 16), (256, 256), (300, 64),
]


def test_blocked_search_pinned_reports():
    # sha256 re-recorded when a block with no mark stopped drawing;
    # no-mark, sparse and dense flag vectors
    rows = []
    for M, S in BLOCKED_GRID:
        for seed in range(6):
            draws = make_rng(seed, M).random(M)
            for p in (0.0, 2.0 / M, 0.25):
                rep = Q.blocked_search(M, draws < p, S, derive_seed(seed, S))
                rows.append((rep.found, rep.oracle_evals, rep.qram_reloads, rep.success))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "0208314e3b14fe7ae91d8fc87bda1d84bc9cc86610b77b4e34820f03af6300cc"


def test_blocked_search_scaling_structure():
    rows = Q.blocked_search_scaling(256, [1, 4, 16, 64, 256], 6 / 256, 100, DEFAULT_SEED)
    by_s = {r.S: r for r in rows}
    # success stays high everywhere on planted instances
    for r in rows:
        assert r.success_rate >= 0.99, r
    # the S=1 scan is structurally capped at M evaluations
    assert by_s[1].mean_evals <= 256
    # from S=4 on, cost declines with the QRAM size
    means = [by_s[s].mean_evals for s in (4, 16, 64, 256)]
    assert means == sorted(means, reverse=True)
    # and never falls under the query floor 0.1 M / sqrt(S)
    for s in (4, 16, 64, 256):
        assert by_s[s].mean_evals >= 0.1 * 256 / math.sqrt(s)


@functools.lru_cache(maxsize=None)
def _bbht_block_law(S, k, cap):
    """Exact law of one capped BBHT search, k marked of S, by a forward
    pass over (evaluations spent, schedule index) on _bbht_schedule and
    the hit chances sin((2j+1) theta)^2: (chance of a miss, mean
    evaluations, mean squared evaluations).  A miss spends the whole cap."""
    sched, theta = Q._bbht_schedule(S), math.asin(math.sqrt(k / S))
    hit = [math.sin((2 * j + 1) * theta) ** 2 for j in range(sched[-1])]
    last = len(sched) - 1
    mass = [[0.0] * len(sched) for _ in range(cap)]
    mass[0][0] = 1.0
    miss = mean = square = 0.0
    for e in range(cap):
        for i, q in enumerate(mass[e]):
            if q == 0.0:
                continue
            q /= sched[i]
            for j in range(sched[i]):
                spent = e + max(1, j)
                h = q * hit[j] if spent <= cap else 0.0  # a truncated attempt cannot hit
                mean, square, fail = mean + h * spent, square + h * spent * spent, q - h
                if spent >= cap:  # a miss that reaches the cap burns all of it
                    miss, mean, square = miss + fail, mean + fail * cap, square + fail * cap * cap
                else:
                    mass[spent][min(i + 1, last)] += fail
    return miss, mean, square


def _blocked_search_law(flags, S):
    """Mean and variance of blocked_search's evaluations on one instance.

    S = 1 is the first-mark position plus one.  Otherwise each block b
    adds its mean evaluations times the chance that every block before it
    missed; the variance runs the same recursion on second moments,
    backwards from the last block."""
    if S == 1:
        return float(np.flatnonzero(flags)[0] + 1), 0.0
    cap = math.ceil(Q.BLOCK_CAP_FACTOR * math.sqrt(S))
    blocks = np.zeros((-(-flags.size // S), S), dtype=bool)
    blocks.flat[:flags.size] = flags
    mean = square = 0.0  # first two moments of the evaluations from block b on
    for k in reversed(np.count_nonzero(blocks, axis=1).tolist()):
        miss, m1, m2 = _bbht_block_law(S, k, cap)
        mean, square = m1 + miss * mean, m2 + 2.0 * cap * miss * mean + miss * square
    return mean, square - mean * mean


def test_blocked_search_means_follow_the_exact_bbht_law():
    # test_04_blocked_search_scaling's 300 instances and its measured means:
    # the exact law of the emulator's own schedule and hit tables accounts
    # for them, so the slope that test_04 finds is the emulator's, not noise
    S_values, p, trials = [1, 4, 16, 64, 256], 6.0 / 256.0, 300
    instances = [Q.planted_instance(256, p, make_rng(DEFAULT_SEED, t)) for t in range(trials)]
    rows = Q.blocked_search_scaling(256, S_values, p, trials, DEFAULT_SEED)
    for row in rows:
        laws = [_blocked_search_law(flags, row.S) for flags in instances]
        mean = float(np.mean([m for m, _ in laws]))
        if row.S == 1:  # the classical scan has no randomness at all
            assert row.mean_evals == mean
            continue
        se = math.sqrt(sum(v for _, v in laws)) / trials
        assert abs(row.mean_evals - mean) <= 3.0 * se, (row.S, row.mean_evals, mean, se)


def test_planted_instance_domain():
    # p <= 0, NaN p and M = 0 used to loop forever; tests/test_cli.py runs
    # those through the CLI in a subprocess with a timeout
    rng = make_rng(1)
    with pytest.raises(DomainError):
        Q.planted_instance(16, 1.5, rng)
    with pytest.raises(DomainError):
        Q.planted_instance(-1, 0.5, rng)
    assert Q.planted_instance(8, 1.0, rng).all()
    # a mark too rare to draw: refused instead of a near-endless loop
    for M, p in ((16, 1e-300), (1, 1e-10), (1000, 1e-9), (1, 9e-4)):
        with pytest.raises(DomainError):
            Q.planted_instance(M, p, rng)
    assert Q.planted_instance(1, 2e-3, make_rng(5)).all()
    with pytest.raises(DomainError):
        Q.blocked_search_scaling(16, [4], 0.5, 0, DEFAULT_SEED)


def test_blocked_scaling_checks_every_window_before_drawing(monkeypatch, capsys):
    # S = 300 > M used to be refused only after every S = 1 trial had run
    def refuse(*args):
        raise AssertionError("drew an instance before checking every window")

    monkeypatch.setattr(Q, "planted_instance", refuse)
    for S_values in ([1, 300], [4, 0]):
        with pytest.raises(DomainError, match=f"got S={S_values[1]}"):
            Q.blocked_search_scaling(256, S_values, 6 / 256, 2, DEFAULT_SEED)
    assert main("qsearch --experiment blocked --M 256 --S 1,300".split()) == 2
    assert "S=300" in capsys.readouterr().err


# --- blocked pair search ------------------------------------------------------


def test_pair_search_complete_sweep():
    # everything marked: every pair must be recovered
    for s in range(5):
        rep = Q.blocked_pair_search(16, 16, 256, 8, derive_seed(DEFAULT_SEED, s))
        assert len(rep.solutions) == 256
        assert rep.success


def test_pair_search_dense_window():
    # S^2 >= M1 M2 / K: budget regime O(sqrt(M1 M2 K)) = 256
    evs, found = [], []
    for t in range(100):
        rep = Q.blocked_pair_search(64, 64, 16, 32, derive_seed(5, t))
        evs.append(rep.oracle_evals)
        found.append(len(rep.solutions))
    assert 128 <= np.mean(evs) <= 512
    assert min(found) >= 4  # K/4


def test_pair_search_sparse_window():
    # S^2 < M1 M2 / K: probe regime O(M1 M2 / S) = 512
    evs, found = [], []
    for t in range(100):
        rep = Q.blocked_pair_search(64, 64, 4, 8, derive_seed(6, t))
        evs.append(rep.oracle_evals)
        found.append(len(rep.solutions))
    assert 256 <= np.mean(evs) <= 1024
    assert min(found) >= 1  # K/4 rounded up to at least one


def test_pair_search_solutions_are_planted_pairs():
    rep = Q.blocked_pair_search(32, 48, 20, 16, seed=77)
    assert rep.qram_reloads == math.ceil(32 / 16) * math.ceil(48 / 16)
    for i, j in rep.solutions:
        assert 0 <= i < 32 and 0 <= j < 48
    # frozenset output makes double-reporting impossible by construction,
    # and the count never exceeds what was planted
    assert len(rep.solutions) <= 20


@pytest.mark.parametrize("M1, M2, S", [(16, 16, 8), (16, 16, 16), (33, 17, 4), (1, 1, 1)])
def test_pair_search_without_plants_draws_nothing_after_its_plant(monkeypatch, M1, M2, S):
    streams = []

    def spy(seed):
        streams.append(search_draws(seed))
        return streams[-1]

    monkeypatch.setattr(Q, "search_draws", spy)
    rep = Q.blocked_pair_search(M1, M2, 0, S, 9)
    assert rep.solutions == frozenset() and rep.oracle_evals == _pair_evals(M1, M2, 0, S)
    plant = make_rng(9)
    plant.choice(M1 * M2, size=0, replace=False)
    assert _stream_state(streams[0]) == _stream_state(GeneratorDraws(plant))


def test_pair_search_deterministic():
    a = Q.blocked_pair_search(64, 64, 16, 32, seed=123)
    b = Q.blocked_pair_search(64, 64, 16, 32, seed=123)
    assert a == b


# (M1, M2, K, S): dense, sparse, ragged both ways, K = 0 in both regimes,
# K = M1 M2, and the one-element space
PAIR_GRID = [
    (64, 64, 16, 32), (64, 64, 4, 8), (33, 17, 5, 17), (33, 17, 5, 4),
    (16, 16, 0, 8), (16, 16, 0, 16), (16, 16, 256, 8), (5, 7, 35, 3),
    (1, 1, 1, 1), (1, 1, 0, 1), (40, 9, 12, 6), (10, 30, 300, 7),
]


def test_pair_search_pinned_reports():
    # sha256 re-recorded when a block pair with no live pair stopped
    # drawing; oracle_evals is the closed form the per-draw sum gave
    rows = []
    for M1, M2, K, S in PAIR_GRID:
        for seed in range(6):
            rep = Q.blocked_pair_search(M1, M2, K, S, seed)
            rows.append((rep.oracle_evals, rep.qram_reloads, rep.success, sorted(rep.solutions)))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "1ad6406205d8c9460e3647e8323879a28c33be5ede47491ae27d6c006e59a7a1"


def _pair_evals(M1, M2, K, S):
    """The fixed per-block-pair spend times the block pairs loaded."""
    E = K * S * S / (M1 * M2)
    if S * S * max(K, 1) >= M1 * M2:
        per = math.ceil(Q.PAIR_BUDGET_FACTOR * S * math.sqrt(max(E, 1.0))
                        + Q.PAIR_SWEEP_SURCHARGE * E)
    else:
        per = max(1, Q.qaa_iterations(math.asin(1.0 / S)))
    return math.ceil(M1 / S) * math.ceil(M2 / S) * per


@given(
    M=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    data=st.data(),
    seed=st.integers(0, 2**32),
)
def test_pair_search_evals_closed_form(M, data, seed):
    M1, M2 = M
    S = data.draw(st.integers(1, max(M1, M2)))
    K = data.draw(st.integers(0, M1 * M2))
    rep = Q.blocked_pair_search(M1, M2, K, S, seed)
    assert rep.oracle_evals == _pair_evals(M1, M2, K, S)
    # the plan the CLI guard reads is the one the search reports
    assert Q.pair_search_plan(M1, M2, K, S)[-2:] == (rep.qram_reloads, rep.oracle_evals)


# --- minimum finding ----------------------------------------------------------


def test_min_find_constant_list():
    assert Q.min_find_with_cost(np.ones(50), seed=1)[0] == 0


def test_min_find_sorted_list():
    assert Q.min_find_with_cost(np.arange(17.0), seed=1)[0] == 0


def test_min_find_statistics():
    # best-of-runs is pipeline_step(minfind_runs=...); test_circuit covers it
    vals_rng = make_rng(DEFAULT_SEED, 99)
    single = 0
    trials = 200
    for t in range(trials):
        vals = vals_rng.permutation(256).astype(float)
        single += Q.min_find_with_cost(vals, derive_seed(2, t))[0] == int(np.argmin(vals))
    assert single / trials >= 0.5


def test_min_find_pinned_on_ties():
    # sha256 recorded while the cost was still summed search by search
    rng = make_rng(2024)
    rows = []
    for t in range(120):
        n = int(rng.integers(1, 300))
        vals = rng.integers(0, max(2, n // 3), size=n).astype(float)
        rows.append(Q.min_find_with_cost(vals, t))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "6412523706e0a6a0448cff941d3a48f48c56f10826be5a8b8919f54ffc39cd84"


@given(
    values=st.lists(st.integers(0, 6), min_size=1, max_size=400),
    seed=st.integers(0, 2**32),
)
def test_min_find_spends_its_whole_budget(values, seed):
    idx, cost = Q.min_find_with_cost(values, seed)
    assert cost == math.ceil(8 * math.sqrt(len(values)))
    assert 0 <= idx < len(values)


def _min_find_replay(values, seed):
    """min_find_with_cost's descent as written before the early stop: the
    search from a least value runs and burns the rest of the budget."""
    vals = np.asarray(values, dtype=float)
    draws = GeneratorDraws(make_rng(seed))
    budget = math.ceil(8 * math.sqrt(vals.size))
    remaining, best = budget, 0
    while remaining > 0:
        below = vals < vals[best]
        rank, spent = Q._bbht(vals.size, int(np.count_nonzero(below)), draws, remaining)
        remaining -= spent
        if rank is not None:
            best = int(np.flatnonzero(below)[rank])
    return best, budget


@given(
    values=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan]),
                    min_size=1, max_size=400),
    seed=st.integers(0, 2**64 - 1),
)
def test_min_find_stops_where_the_old_descent_burned_its_budget(values, seed):
    assert Q.min_find_with_cost(values, seed) == _min_find_replay(values, seed)


def test_min_find_from_a_least_value_draws_nothing(monkeypatch):
    def refuse(seed):
        raise AssertionError("drew for a search with no marked element")

    monkeypatch.setattr(Q, "search_draws", refuse)
    assert Q.min_find_with_cost(np.ones(50), seed=1) == (0, math.ceil(8 * math.sqrt(50)))
    assert Q.min_find_with_cost(np.arange(17.0), seed=1) == (0, math.ceil(8 * math.sqrt(17)))


def test_min_find_empty_rejected():
    with pytest.raises(DomainError):
        Q.min_find_with_cost([], seed=0)


@pytest.mark.parametrize("values, counts", [
    ([1.0, 2.0], [1]),  # a count short
    ([1.0], [1, 1]),  # a count over
    ([2.0, 1.0], [1, 0]),
    ([2.0, 1.0], [-1, 3]),
    ([2.0, 1.0], [1, 1.5]),
    ([2.0, 1.0], [2.0, 1]),
    ([2.0, 1.0], [1, 1.0]),  # a float equal to an int count before it
    ([2.0, 1.0], [1, None]),
    ([], []),
])
def test_min_find_refuses_bad_runs_before_drawing(monkeypatch, values, counts):
    def refuse(seed):
        raise AssertionError("drew before refusing the runs")

    monkeypatch.setattr(Q, "search_draws", refuse)
    with pytest.raises(DomainError):
        Q.min_find_with_cost(values, 0, counts)


RUN_VALUE = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.5, math.inf, -math.inf])


@given(
    runs=st.lists(st.tuples(RUN_VALUE, st.integers(1, 40)), min_size=1, max_size=40),
    nan_at=st.sampled_from([None, 0, -1, 3]),
    seed=st.integers(0, 2**64 - 1),
)
def test_min_find_on_runs_is_min_find_on_their_copies(runs, nan_at, seed):
    values = [v for v, _ in runs]
    counts = [c for _, c in runs]
    if nan_at is not None and nan_at < len(values):
        values[nan_at] = math.nan
    flat_idx, flat_budget = Q.min_find_with_cost(np.repeat(values, counts), seed)
    run_of = np.repeat(np.arange(len(values)), counts)
    assert Q.min_find_with_cost(values, seed, counts) == (int(run_of[flat_idx]), flat_budget)
    # numpy counts and values read as their lists do
    assert Q.min_find_with_cost(np.array(values), seed, np.array(counts)) == \
        (int(run_of[flat_idx]), flat_budget)
