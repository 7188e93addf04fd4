import dataclasses
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tripletkit import evalkit
from tripletkit.evalkit import (EvalProtocol, EvalResult, ProtocolError,
                                average_precision, combine_embeddings_max,
                                combine_embeddings_mean, evaluate,
                                inject_distractors, rank_gallery)
from tripletkit.sampling import LabeledDataset

from oracles import oracle_average_precision, oracle_first_correct_rank


def embset(feats, pids, cams=None):
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    n = len(feats)
    if cams is None:
        cams = np.zeros(n)
    return LabeledDataset(feats, pids, cams, np.arange(n))


class TestRankGallery:
    def test_orders_by_distance(self):
        order = rank_gallery(np.array([0.0, 0.0]),
                             np.array([[5.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
        assert order.tolist() == [1, 2, 0]

    def test_self_first(self):
        g = np.array([[2.0, 2.0], [1.0, 1.0], [0.0, 3.0]])
        order = rank_gallery(np.array([1.0, 1.0]), g)
        assert order[0] == 1

    def test_tie_lower_index_first(self):
        g = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        order = rank_gallery(np.zeros(2), g)
        assert order.tolist() == [0, 1, 2]

    def test_empty_gallery(self):
        with pytest.raises(ProtocolError):
            rank_gallery(np.zeros(2), np.zeros((0, 2)))


class TestAveragePrecision:
    def test_reference_example(self):
        assert average_precision([1, 0, 1, 0], 2) == \
            pytest.approx(0.833333, abs=1e-6)

    def test_perfect_prefix(self):
        assert average_precision([1, 1, 1], 3) == 1.0

    def test_relevant_last(self):
        n = 7
        rel = [0] * (n - 1) + [1]
        assert average_precision(rel, 1) == pytest.approx(1 / n, abs=1e-12)

    def test_matches_oracle_on_all_small_patterns(self):
        # every binary relevance pattern for galleries of size <= 6
        for size in range(1, 7):
            for bits in itertools.product([0, 1], repeat=size):
                num_rel = sum(bits)
                if num_rel == 0:
                    continue
                got = average_precision(list(bits), num_rel)
                want = oracle_average_precision(bits, num_rel)
                assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_zero_relevant(self):
        with pytest.raises(ProtocolError):
            average_precision([0, 0], 0)


class TestEvaluate:
    def test_perfect_model_distinct_cameras(self):
        feats = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]])
        q = embset(feats, [0, 0, 1, 1], cams=[0, 0, 1, 1])
        g = embset(feats, [0, 0, 1, 1], cams=[2, 2, 3, 3])
        res = evaluate(q, g, EvalProtocol(cmc_ranks=(1, 5)))
        assert res.map == 1.0
        assert res.cmc[1] == 1.0

    def test_exhaustive_toy_vs_oracle(self):
        # 6-item gallery on a line; brute-force AP/CMC from definitions
        g_feats = [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]
        g_pids = [0, 1, 0, 1, 0, 1]
        q = embset([[0.2]], [0], cams=[9])
        g = embset(g_feats, g_pids, cams=[0, 0, 0, 0, 0, 0])
        res = evaluate(q, g, EvalProtocol(cmc_ranks=(1, 2, 3)))
        # ranked order by distance from 0.2: [0,1,2,3,4,5] -> relevance 1,0,1,0,1,0
        rel = [1, 0, 1, 0, 1, 0]
        assert res.map == pytest.approx(oracle_average_precision(rel, 3), abs=1e-12)
        assert res.cmc[1] == 1.0
        assert oracle_first_correct_rank(rel) == 1

    def test_camera_filter_removes_self(self):
        feats = np.array([[0.0], [1.0], [5.0], [6.0]])
        pids = [0, 0, 1, 1]
        cams = [0, 1, 0, 1]
        q = embset(feats, pids, cams)
        res_filtered = evaluate(q, q, EvalProtocol(cmc_ranks=(1,)))
        res_raw = evaluate(q, q, EvalProtocol(
            exclude_same_camera_same_id=False, cmc_ranks=(1,)))
        # without filtering every query finds itself at distance 0
        assert res_raw.cmc[1] == 1.0
        assert res_filtered.map <= 1.0
        assert res_raw.cmc[1] >= res_filtered.cmc[1]

    def test_skipped_queries_counted(self):
        q = embset([[0.0], [1.0]], [0, 7], cams=[0, 0])
        g = embset([[0.0], [2.0]], [0, 1], cams=[1, 1])
        res = evaluate(q, g, EvalProtocol(cmc_ranks=(1,)))
        assert res.num_skipped == 1
        assert res.num_queries == 1

    def test_map_is_mean_of_per_query_aps(self):
        rng = np.random.default_rng(0)
        q = embset(rng.standard_normal((8, 3)), np.arange(8) % 4, cams=np.full(8, 9))
        g = embset(rng.standard_normal((20, 3)), np.arange(20) % 4,
                   cams=np.zeros(20))
        res = evaluate(q, g, EvalProtocol(cmc_ranks=(1, 5)))
        assert res.map == pytest.approx(np.mean(res.per_query_ap), abs=1e-15)

    def test_cmc_monotone(self):
        rng = np.random.default_rng(1)
        q = embset(rng.standard_normal((10, 3)), np.arange(10) % 5,
                   cams=np.full(10, 9))
        g = embset(rng.standard_normal((30, 3)), np.arange(30) % 5,
                   cams=np.zeros(30))
        res = evaluate(q, g, EvalProtocol(cmc_ranks=(1, 2, 3, 5, 10, 20)))
        vals = [res.cmc[k] for k in sorted(res.cmc)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("ranks", [(1, 1), (1, 5, 5), (5, 1), (0, 1)])
    def test_cmc_ranks_must_be_strictly_ascending(self, ranks):
        # a repeated rank would be listed twice in the protocol but
        # reported once among the CMC values
        with pytest.raises(ProtocolError, match="strictly ascending"):
            EvalProtocol(cmc_ranks=ranks)

    def test_multi_query_pools_by_identity_camera(self):
        # two noisy queries of the same (pid, cam) pool into one clean query
        q = embset([[0.0, 2.0], [0.0, -2.0]], [0, 0], cams=[5, 5])
        g = embset([[0.0, 0.0], [1.0, 0.0]], [0, 1], cams=[0, 0])
        res = evaluate(q, g, EvalProtocol(mode="multi_query", cmc_ranks=(1,)))
        assert res.num_queries == 1
        assert res.cmc[1] == 1.0

    def test_width_mismatch(self):
        with pytest.raises(ProtocolError):
            evaluate(embset([[0.0]], [0]), embset([[0.0, 1.0]], [0]))

    def test_non_finite_embeddings_rejected(self):
        g = embset([[0.0], [1.0]], [0, 1], cams=[1, 1])
        for bad in (np.nan, np.inf):
            with pytest.raises(ProtocolError):
                evaluate(embset([[bad]], [0]), g)
            with pytest.raises(ProtocolError):
                evaluate(embset([[0.0]], [0]), embset([[bad], [1.0]], [0, 1]))

    def test_overflowing_embeddings_rejected(self):
        # squared distances past the float range would turn into NaN
        g = embset([[-1e200], [3.0]], [0, 1], cams=[1, 1])
        with pytest.raises(ProtocolError):
            evaluate(embset([[1e200]], [0]), g)


class TestEvaluateMemory:
    # many identities with few rows each, and few with many rows each
    @pytest.mark.parametrize("identities", [2000, 10])
    def test_memory_stays_blocked(self, identities):
        # a full 2000 x 20000 float64 distance matrix would take 320 MB
        rng = np.random.default_rng(3)
        q = embset(rng.standard_normal((2000, 8)), np.arange(2000) % identities,
                   cams=np.arange(2000) % 4)
        g = embset(rng.standard_normal((20000, 8)),
                   np.arange(20000) % identities,
                   cams=(np.arange(20000) // identities) % 4)
        tracemalloc.start()
        try:
            res = evaluate(q, g, EvalProtocol(cmc_ranks=(1,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.num_queries == 2000
        assert peak < 32 * 2**20, peak


def threaded_gallery():
    """900 queries against 1000 gallery rows: at 2**18 elements per block
    that is three full blocks and a shorter tail. The last 100 gallery rows
    repeat rows 0-99 (identities 0-19); half of the copies keep their
    identity and half take another, so exact ties send those identities'
    queries to the tie fallback."""
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((900, 6))
    pids = np.arange(900) % 20 + 20 * (np.arange(900) // 180)
    copies = np.where(np.arange(100) % 2, pids[:100], (pids[:100] + 1) % 20)
    gallery = embset(np.concatenate([feats, feats[:100]]),
                     np.concatenate([pids, copies]), cams=np.arange(1000) % 3)
    # every fifth query sits exactly on a gallery row; identities 100-109
    # have no gallery rows, so their queries are skipped
    q_feats = rng.standard_normal((900, 6))
    q_feats[::5] = feats[rng.integers(0, 900, 180)]
    queries = embset(q_feats, np.arange(900) % 110, cams=np.arange(900) % 4)
    return queries, gallery


class TestWorkerCount:
    PROTOCOLS = [EvalProtocol(),
                 EvalProtocol(exclude_same_camera_same_id=False),
                 EvalProtocol(mode="multi_query"),
                 EvalProtocol(mode="multi_query",
                              exclude_same_camera_same_id=False)]

    @staticmethod
    def run(monkeypatch, workers, block_elements, *args):
        monkeypatch.setattr(evalkit, "_available_cpus", lambda: workers)
        monkeypatch.setattr(evalkit, "_BLOCK_ELEMENTS", block_elements)
        return evaluate(*args)

    @pytest.mark.parametrize("block_elements", [1, 17, 1 << 18])
    def test_results_do_not_depend_on_workers(self, monkeypatch,
                                              block_elements):
        queries, gallery = threaded_gallery()
        switch = sys.getswitchinterval()
        for protocol in self.PROTOCOLS:
            args = (queries, gallery, protocol)
            want = dataclasses.astuple(
                self.run(monkeypatch, 1, block_elements, *args))
            assert 0 < want[3] < 900      # num_queries: some answered
            for workers in (2, 3):
                # more workers than this suite may have CPUs, switching often
                sys.setswitchinterval(1e-5)
                try:
                    got = self.run(monkeypatch, workers, block_elements, *args)
                finally:
                    sys.setswitchinterval(switch)
                assert dataclasses.astuple(got) == want, (protocol, workers)

    def test_default_blocks_use_every_worker(self, monkeypatch):
        """One worker ranks on the calling thread, w workers on w pool
        threads that are joined on return, and fewer than two full-size
        blocks stay serial."""
        queries, gallery = threaded_gallery()
        seen = []
        relevant_ranks = evalkit._relevant_ranks

        def recording(dist, query, flat, refill):
            seen.append((threading.get_ident(), len(dist)))
            return relevant_ranks(dist, query, flat, refill)

        monkeypatch.setattr(evalkit, "_relevant_ranks", recording)
        before = threading.active_count()
        for workers in (1, 2, 3):
            seen.clear()
            self.run(monkeypatch, workers, 1 << 18, queries, gallery,
                     EvalProtocol())
            threads = {ident for ident, _ in seen}
            assert len(threads) == workers
            assert (threading.get_ident() in threads) == (workers == 1)
            assert threading.active_count() == before
            # the element budget is shared: 262, 131 or 87 rows per block
            assert max(rows for _, rows in seen) == \
                (1 << 18) // workers // 1000
        seen.clear()
        self.run(monkeypatch, 8, 1 << 18, queries.subset(np.arange(400)),
                 gallery, EvalProtocol())
        assert {ident for ident, _ in seen} == {threading.get_ident()}

    @pytest.mark.parametrize("num_queries", [525, 787, 900])
    def test_distances_do_not_depend_on_the_split(self, monkeypatch,
                                                  num_queries):
        """Bitwise-equal distance rows for any worker count. 525 and 787
        queries leave one query over at 1 and 2 workers; a one-row block
        would take another BLAS routine and round differently."""
        queries, gallery = threaded_gallery()
        queries = queries.subset(np.arange(num_queries))
        rows = []
        relevant_ranks = evalkit._relevant_ranks

        def recording(dist, query, flat, refill):
            rows.extend(row.tobytes() for row in dist)
            assert len(dist) > 1
            return relevant_ranks(dist, query, flat, refill)

        monkeypatch.setattr(evalkit, "_relevant_ranks", recording)
        seen = []
        for workers in (1, 2, 3):
            rows.clear()
            self.run(monkeypatch, workers, 1 << 18, queries, gallery,
                     EvalProtocol())
            assert len(rows) == num_queries
            seen.append(sorted(rows))
        assert seen[0] == seen[1] == seen[2]

    def test_distances_computed_again_only_for_a_tie(self, monkeypatch):
        """`_block_distances` runs once per block, and once more, writing
        the same bits, in a block where a relevant row is exactly as close
        as another row of its query."""
        queries, gallery = threaded_gallery()
        events = []
        block_distances = evalkit._block_distances
        relevant_ranks = evalkit._relevant_ranks

        def distances(*args):
            block_distances(*args)
            events.append(args[-1].tobytes())

        def recording(dist, query, flat, refill):
            values = dist.ravel()[flat]
            events.append(bool(
                ((dist[query] == values[:, None]).sum(axis=1) > 1).any()))
            return relevant_ranks(dist, query, flat, refill)

        monkeypatch.setattr(evalkit, "_block_distances", distances)
        monkeypatch.setattr(evalkit, "_relevant_ranks", recording)
        # 17 rows per block: 53 blocks
        self.run(monkeypatch, 1, 17000, queries, gallery, EvalProtocol())
        tied = []
        while events:
            first, tie, *events = events
            tied.append(tie)
            if tie:
                again, *events = events
                assert again == first
        assert len(tied) == 53
        assert 0 < sum(tied) < len(tied)

    def test_blocks_reuse_one_buffer_set_per_worker(self, monkeypatch):
        """Within one call every block's distances are written into one of
        `workers` arrays, allocated once: no block allocates its own."""
        queries, gallery = threaded_gallery()
        dists = []
        relevant_ranks = evalkit._relevant_ranks

        def recording(dist, query, flat, refill):
            # held until the check, so no two blocks' arrays could share
            # memory by the allocator reusing a freed one
            dists.append(dist)
            return relevant_ranks(dist, query, flat, refill)

        monkeypatch.setattr(evalkit, "_relevant_ranks", recording)
        for workers in (1, 2, 3):
            dists.clear()
            # 17, 8 or 5 rows per block: 53 to 180 blocks
            self.run(monkeypatch, workers, 17000, queries, gallery,
                     EvalProtocol())
            assert len(dists) > 50
            owners = []
            for dist in dists:
                shared = [o for o in owners if np.shares_memory(o, dist)]
                assert len(shared) <= 1
                if not shared:
                    owners.append(dist)
            assert len(owners) == workers

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="CPU affinity and /proc/self/task are Linux's")
    def test_threads_python_did_not_start_keep_one_worker(self):
        """Every CPU while only Python's threads run; one while another
        thread runs, as a multithreaded BLAS's pool would."""
        script = (
            "import _thread, os\n"
            "from tripletkit import evalkit\n"
            "print(evalkit._available_cpus(), len(os.sched_getaffinity(0)))\n"
            "lock = _thread.allocate_lock()\n"
            "lock.acquire()\n"
            "_thread.start_new_thread(lock.acquire, ())\n"
            "evalkit._available_cpus.cache_clear()\n"
            "print(evalkit._available_cpus())\n"
            "lock.release()\n")
        one_blas_thread = {var: "1" for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        src = os.path.join(os.path.dirname(evalkit.__file__), os.pardir)
        out = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, timeout=60,
            env={**os.environ, **one_blas_thread, "PYTHONPATH": src}).stdout
        (workers, cpus), (with_other,) = (map(int, line.split())
                                          for line in out.splitlines())
        assert (workers, with_other) == (cpus, 1)

    @pytest.mark.parametrize("failing", ["every", "one_early"])
    def test_failing_block_stops_the_rest(self, monkeypatch, failing):
        queries, gallery = threaded_gallery()
        calls, lock = [], threading.Lock()
        relevant_ranks = evalkit._relevant_ranks

        def failing_ranks(dist, query, flat, refill):
            with lock:
                calls.append(1)
                call = len(calls)
            # "one_early": only the fifth call fails, with blocks before and
            # after it in flight
            if failing == "every" or call == 5:
                raise MemoryError("block failed")
            return relevant_ranks(dist, query, flat, refill)

        monkeypatch.setattr(evalkit, "_relevant_ranks", failing_ranks)
        before = threading.active_count()
        # two-row blocks: 450 of them
        with pytest.raises(MemoryError, match="block failed"):
            self.run(monkeypatch, 2, 1, queries, gallery, EvalProtocol())
        assert len(calls) < 100
        assert threading.active_count() == before   # the threads were joined


class TestCombine:
    def test_mean(self):
        assert combine_embeddings_mean(
            [np.array([0.0, 0.0]), np.array([2.0, 0.0])]).tolist() == [1.0, 0.0]
        assert combine_embeddings_mean([np.array([3.0, 4.0])]).tolist() == [3.0, 4.0]

    def test_max(self):
        assert combine_embeddings_max(
            [np.array([0.0, 1.0]), np.array([2.0, 0.0])]).tolist() == [2.0, 1.0]
        assert combine_embeddings_max([np.array([3.0, 4.0])]).tolist() == [3.0, 4.0]

    def test_mean_within_convex_hull_distance(self, rng):
        for _ in range(50):
            xs = [rng.standard_normal(4) for _ in range(5)]
            y = rng.standard_normal(4)
            mean = combine_embeddings_mean(xs)
            d_mean = np.linalg.norm(mean - y)
            d_max = max(np.linalg.norm(x - y) for x in xs)
            assert d_mean <= d_max + 1e-12


class TestDistractors:
    def _base(self):
        rng = np.random.default_rng(2)
        q = embset(rng.standard_normal((6, 3)), np.arange(6) % 3,
                   cams=np.full(6, 9))
        g = embset(rng.standard_normal((12, 3)), np.arange(12) % 3,
                   cams=np.zeros(12))
        return q, g

    def test_zero_distractors_unchanged(self):
        q, g = self._base()
        empty = LabeledDataset(np.zeros((0, 3)), np.zeros(0), np.zeros(0),
                               np.zeros(0))
        before = evaluate(q, g, EvalProtocol(cmc_ranks=(1,)))
        after = evaluate(q, inject_distractors(g, empty, q.pids),
                         EvalProtocol(cmc_ranks=(1,)))
        assert before.map == after.map

    def test_ap_never_increases(self, rng):
        q, g = self._base()
        proto = EvalProtocol(cmc_ranks=(1,))
        before = evaluate(q, g, proto)
        for num in (5, 20, 100):
            dis = embset(rng.standard_normal((num, 3)), np.full(num, 100),
                         cams=np.zeros(num))
            after = evaluate(q, inject_distractors(g, dis, q.pids), proto)
            for a, b in zip(after.per_query_ap, before.per_query_ap):
                assert a <= b + 1e-12
            assert after.map <= before.map + 1e-12

    def test_identity_collision_rejected(self):
        q, g = self._base()
        dis = embset(np.zeros((2, 3)), [0, 100], cams=[0, 0])
        with pytest.raises(ProtocolError):
            inject_distractors(g, dis, q.pids)

    def test_width_mismatch_rejected_naming_both(self):
        q, g = self._base()
        dis = embset(np.zeros((2, 4)), [100, 101], cams=[0, 0])
        with pytest.raises(ProtocolError, match="gallery embedding width 3 "
                           "differs from distractor embedding width 4"):
            inject_distractors(g, dis, q.pids)

    def test_prepended_twin_distractor_kills_rank1(self):
        q = embset([[0.0, 0.0]], [0], cams=[9])
        g = embset([[0.0, 0.0], [5.0, 0.0]], [0, 1], cams=[0, 0])
        proto = EvalProtocol(cmc_ranks=(1,))
        assert evaluate(q, g, proto).cmc[1] == 1.0
        # a distance tie goes to the earlier gallery row
        twin_first = embset([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]], [42, 0, 1],
                            cams=[0, 0, 0])
        assert evaluate(q, twin_first, proto).cmc[1] == 0.0
        twin = embset([[0.0, 0.0]], [42], cams=[0])
        appended = inject_distractors(g, twin, q.pids)
        assert evaluate(q, appended, proto).cmc[1] == 1.0
