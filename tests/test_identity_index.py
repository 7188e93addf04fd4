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
                                 sample_pk_batch, sample_random_triplets)


def dataset_with(pids):
    n = len(pids)
    return LabeledDataset(np.zeros((n, 2)), pids, np.zeros(n), np.arange(n))


def brute_index(pids):
    return {int(p): np.flatnonzero(pids == p) for p in np.unique(pids)}


# Reference copies of the samplers as they were before the index was cached:
# the index is rebuilt from the labels on every call.

def reference_pk_batch(dataset, P, K, rng):
    index = {pid: rows for pid, rows in brute_index(dataset.pids).items()
             if len(rows) >= 2}
    if len(index) < P:
        raise SamplingError("too few usable identities")
    pids = sorted(index)
    chosen = rng.choice(len(pids), size=P, replace=False)
    all_rows = []
    for c in chosen:
        rows = index[pids[c]]
        if len(rows) >= K:
            picked = rng.choice(rows, size=K, replace=False)
        else:
            extra = rng.choice(rows, size=K - len(rows), replace=True)
            picked = np.concatenate([rng.permutation(rows), extra])
        all_rows.append(picked)
    return PKBatch(np.concatenate(all_rows), P, K)


def reference_random_triplets(dataset, B, rng):
    index = brute_index(dataset.pids)
    anchor_pool = np.concatenate(
        [rows for rows in index.values() if len(rows) >= 2])
    triplets = []
    for _ in range(B):
        a = int(rng.choice(anchor_pool))
        same = index[int(dataset.pids[a])]
        p = int(rng.choice(same[same != a]))
        n = int(rng.choice(np.flatnonzero(dataset.pids != dataset.pids[a])))
        triplets.append((a, p, n))
    return np.array(triplets, dtype=np.int64).reshape(-1, 3)


labels = st.lists(st.integers(-5, 40), min_size=0, max_size=60)


class TestIdentityIndex:
    @settings(max_examples=200, deadline=None)
    @given(labels)
    def test_matches_brute_force(self, pid_list):
        pids = np.array(pid_list, dtype=np.int64)
        index = dataset_with(pids).identity_index()
        want = brute_index(pids)
        assert list(index) == list(want)
        for pid, rows in want.items():
            assert np.array_equal(index[pid], rows)
        assert list(index.usable) == [p for p, r in want.items()
                                      if len(r) >= 2]
        assert np.array_equal(index.anchor_rows, np.concatenate(
            [r for r in want.values() if len(r) >= 2] + [np.array([], int)]))

    def test_built_once(self):
        ds = dataset_with(np.array([3, 1, 3, 1]))
        assert ds.identity_index() is ds.identity_index()

    def test_reassigning_pids_refreshes_index(self):
        ds = dataset_with(np.array([0, 0, 1, 1]))
        before = ds.identity_index()
        ds.pids = np.array([5, 6, 6, 5])
        after = ds.identity_index()
        assert after is not before
        assert list(after) == [5, 6]
        assert np.array_equal(after[5], [0, 3])
        assert np.array_equal(after[6], [1, 2])

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
        assert np.array_equal(ds.identity_index()[0], [0, 1])
        assert pids.flags.writeable

    def test_index_is_read_only(self):
        index = dataset_with(np.array([0, 0, 1, 1])).identity_index()
        with pytest.raises(TypeError):
            index[2] = np.array([0])
        with pytest.raises(ValueError):
            index[0][0] = 3
        with pytest.raises(ValueError):
            index.anchor_rows[0] = 3


class TestSamplersMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pk_batch(self, seed):
        gen = np.random.default_rng(seed)
        # gaps, negative pids, singletons and identities shorter than K
        pids = gen.choice([-7, -1, 0, 2, 3, 9, 10, 11, 40], size=50)
        pids[:3] = [77, 8, 8]
        ds = dataset_with(pids)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            a = sample_pk_batch(ds, 3, 4, ours)
            b = reference_pk_batch(ds, 3, 4, ref)
            assert np.array_equal(a.rows, b.rows)
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_triplets(self, seed):
        gen = np.random.default_rng(seed)
        pids = gen.choice([-3, 0, 1, 5, 6, 8], size=40)
        pids[0] = 99                                  # one singleton
        ds = dataset_with(pids)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            a = sample_random_triplets(ds, 7, ours)
            b = reference_random_triplets(ds, 7, ref)
            assert np.array_equal(a, b)
        assert ours.random() == ref.random()


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
