"""The cached identity index, the samplers that read it, the log's reuse of
the loss's distances, and the train log writer kept open across rows
(property-based; needs hypothesis, see the `test` extra)."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletkit.diagnostics import (LOG_HEADER, PERCENTILES, TrainLogRecord,
                                    TrainLogWriter, batch_stats)
from tripletkit.losses import BatchLabels, MarginMode, batch_hard_loss
from tripletkit.sampling import (LabeledDataset, PKBatch, SamplingError,
                                 _scaled, sample_pk_batch,
                                 sample_random_triplets)


def dataset_with(pids):
    n = len(pids)
    return LabeledDataset(np.zeros((n, 2)), pids, np.zeros(n), np.arange(n))


def brute_index(pids):
    return {int(p): np.flatnonzero(pids == p) for p in np.unique(pids)}


# Replays of the samplers' per-batch draws, identity by identity and triplet
# by triplet, from an index rebuilt from the labels on every call.

def reference_pk_batch(dataset, P, K, rng):
    index = {pid: rows for pid, rows in brute_index(dataset.pids).items()
             if len(rows) >= 2}
    if len(index) < P:
        raise SamplingError("too few usable identities")
    pids = sorted(index)
    chosen = np.argpartition(rng.random(len(pids)), P - 1)[:P]
    groups = [index[pids[c]] for c in chosen]
    keys = rng.random((P, max(K, *map(len, groups))))
    picked = [list(rows[np.argsort(keys[i, :len(rows)])[:K]])
              for i, rows in enumerate(groups)]
    replicated = sum(K - len(p) for p in picked)
    if replicated:
        fill = iter(rng.random(replicated))
        for p, rows in zip(picked, groups):
            while len(p) < K:
                p.append(rows[int(next(fill) * len(rows))])
    return PKBatch(np.array(picked, dtype=np.int64).ravel(), P, K)


def reference_random_triplets(dataset, B, rng):
    pids = dataset.pids
    index = brute_index(pids)
    anchor_pool = np.concatenate(
        [rows for rows in index.values() if len(rows) >= 2])
    triplets = []
    for ua, up, un in rng.random((3, B)).T:
        a = anchor_pool[int(ua * len(anchor_pool))]
        same = index[int(pids[a])]
        same = same[same != a]
        other = np.concatenate([rows for pid, rows in index.items()
                                if pid != pids[a]])
        triplets.append((a, same[int(up * len(same))],
                         other[int(un * len(other))]))
    return np.array(triplets, dtype=np.int64).reshape(-1, 3)


labels = st.lists(st.integers(-5, 40), min_size=0, max_size=60)


def usable(index, pids):
    """The usable identities of `pids`, in ascending order, read from the
    index's `order` and `starts`."""
    return pids[index.order[index.starts]].tolist()


def rows_of(index, pids, pid):
    """The rows of usable identity `pid`, read from `order`, `starts` and
    `counts`."""
    i = usable(index, pids).index(pid)
    return index.order[index.starts[i]:index.starts[i] + index.counts[i]]


class TestIdentityIndex:
    @settings(max_examples=200, deadline=None)
    @given(labels)
    def test_matches_brute_force(self, pid_list):
        pids = np.array(pid_list, dtype=np.int64)
        index = dataset_with(pids).identity_index()
        want = brute_index(pids)
        assert np.array_equal(index.order, np.concatenate(
            [*want.values(), np.array([], int)]))
        assert index.identities == len(want)
        assert usable(index, pids) == [p for p, r in want.items()
                                       if len(r) >= 2]
        for pid in usable(index, pids):
            assert np.array_equal(rows_of(index, pids, pid), want[pid])
        assert np.array_equal(index.anchor_ends, np.cumsum(index.counts))
        assert index.fewest == min(index.counts, default=len(pids))

    def test_built_once(self):
        ds = dataset_with(np.array([3, 1, 3, 1]))
        assert ds.identity_index() is ds.identity_index()

    def test_reassigning_pids_refreshes_index(self):
        ds = dataset_with(np.array([0, 0, 1, 1]))
        before = ds.identity_index()
        ds.pids = np.array([5, 6, 6, 5])
        after = ds.identity_index()
        assert after is not before
        assert usable(after, ds.pids) == [5, 6]
        assert np.array_equal(rows_of(after, ds.pids, 5), [0, 3])
        assert np.array_equal(rows_of(after, ds.pids, 6), [1, 2])

    def test_labels_cannot_be_written_in_place(self):
        ds = dataset_with(np.array([0, 0, 1, 1]))
        for column in (ds.pids, ds.cams, ds.item_ids, ds.pids[1:]):
            with pytest.raises(ValueError):
                column[0] = 7

    def test_caller_array_stays_separate(self):
        pids = np.array([0, 0, 1, 1])
        ds = dataset_with(pids)
        ds.identity_index()
        pids[0] = 1
        assert np.array_equal(rows_of(ds.identity_index(), ds.pids, 0),
                              [0, 1])
        assert pids.flags.writeable

    def test_index_is_read_only(self):
        ds = dataset_with(np.array([0, 0, 1, 1]))
        index = ds.identity_index()
        for column in (index.order, index.starts, index.counts,
                       index.anchor_ends, rows_of(index, ds.pids, 0)):
            with pytest.raises(ValueError):
                column[0] = 3


class TestSamplersMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("P, K", [(3, 4), (2, 2), (5, 9)])
    def test_pk_batch(self, seed, P, K):
        gen = np.random.default_rng(seed)
        # gaps, negative pids, singletons and identities shorter than K
        pids = gen.choice([-7, -1, 0, 2, 3, 9, 10, 11, 40], size=50)
        pids[:3] = [77, 8, 8]
        ds = dataset_with(pids)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            a = sample_pk_batch(ds, P, K, ours)
            b = reference_pk_batch(ds, P, K, ref)
            assert np.array_equal(a.rows, b.rows)
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_triplets(self, seed):
        gen = np.random.default_rng(seed)
        pids = gen.choice([-3, 0, 1, 5, 6, 8], size=40)
        pids[0] = 99                                  # one singleton
        ds = dataset_with(pids)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for B in [7] * 100 + [1, 250]:
            a = sample_random_triplets(ds, B, ours)
            b = reference_random_triplets(ds, B, ref)
            assert np.array_equal(a, b)
        assert ours.random() == ref.random()


class CountingGenerator:
    """A Generator that counts the calls made to its methods."""

    def __init__(self, seed):
        self._gen = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


class TestDrawsPerBatch:
    """The samplers draw per batch, not per identity, row or triplet."""

    # 30 usable identities of 2 to 11 rows, and two singletons
    pids = np.concatenate([np.repeat(np.arange(30), np.arange(30) % 10 + 2),
                           [100, 101]])

    @pytest.mark.parametrize("P", [2, 18])
    @pytest.mark.parametrize("K", [2, 4, 9])
    def test_pk_batch_at_most_three_calls(self, P, K):
        ds = dataset_with(self.pids)
        rng = CountingGenerator(P * K)
        seen = set()
        for _ in range(50):
            rng.calls = 0
            sample_pk_batch(ds, P, K, rng)
            seen.add(rng.calls)
        assert seen <= {2, 3}
        if K > 2:           # some chosen identity has fewer than K rows
            assert 3 in seen

    @pytest.mark.parametrize("B", [1, 3, 12])
    def test_random_triplets_one_call(self, B):
        ds = dataset_with(self.pids)
        rng = CountingGenerator(B)
        for _ in range(20):
            rng.calls = 0
            sample_random_triplets(ds, B, rng)
            assert rng.calls == 1


def test_scaled_uniform_stays_below_n():
    # the largest double below 1 and the integers, powers of 2 among them
    top = np.nextafter(1.0, 0.0)
    n = np.concatenate([np.arange(1, 200_001), 2 ** np.arange(54),
                        2 ** np.arange(1, 54) - 1, 2 ** np.arange(1, 53) + 1,
                        np.random.default_rng(0).integers(1, 2 ** 53, 10_000)])
    assert np.array_equal(_scaled(np.full(len(n), top), n), n - 1)
    assert not _scaled(np.zeros(len(n)), n).any()


def record(iteration):
    return TrainLogRecord(iteration, 0.5, 0.1, 0.5, (1.0,) * 5, (2.0,) * 5,
                          1e-3)


class TestTrainLogWriter:
    def test_rows_readable_before_close(self, tmp_path):
        path = tmp_path / "log.csv"
        with TrainLogWriter(path) as w:
            for t in (1, 2, 3):
                w.append(record(t))
                with open(path) as f:
                    rows = list(csv.reader(f))
                assert rows[0] == LOG_HEADER
                assert [r[0] for r in rows[1:]] == [str(i)
                                                    for i in range(1, t + 1)]

    def test_close_ends_appends(self, tmp_path):
        w = TrainLogWriter(tmp_path / "log.csv")
        w.append(record(1))
        w.close()
        with pytest.raises(ValueError):
            w.append(record(2))


class TestBatchStatsReusesLossDistances:
    @pytest.mark.parametrize("metric", ["euclidean", "squared_euclidean"])
    def test_logged_distances_are_the_losses(self, rng, metric):
        x = rng.standard_normal((12, 5))
        labels = BatchLabels(np.repeat(np.arange(4), 3))
        report = batch_hard_loss(x, labels, metric, MarginMode.soft())
        rec = batch_stats(x, report, 1, 1e-3)
        iu = np.triu_indices(12, k=1)
        seen = np.sqrt(report.distances.squared[iu])
        assert rec.pair_dist_percentiles == tuple(
            np.percentile(seen, PERCENTILES))
        direct = np.linalg.norm(x[iu[0]] - x[iu[1]], axis=1)
        np.testing.assert_allclose(seen, direct, rtol=1e-12)
