import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from tripletkit import sampling, training
from tripletkit.losses import (BatchLabels, MarginMode, margin_apply,
                               pairwise_distances)
from tripletkit.numcore import MlpParams, init_params, mlp_forward
from tripletkit.sampling import (LabeledDataset, SamplingError,
                                 mine_hard_offline, read_dataset_csv,
                                 sample_pk_batch, sample_random_triplets,
                                 write_dataset_csv)


def make_dataset(num_ids=10, per_id=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    n = num_ids * per_id
    return LabeledDataset(rng.standard_normal((n, dim)),
                          np.repeat(np.arange(num_ids), per_id),
                          np.arange(n) % 3, np.arange(n))


def check_pk_invariants(batch, dataset):
    assert len(batch.rows) == batch.P * batch.K
    blocks = batch.rows.reshape(batch.P, batch.K)
    block_ids = dataset.pids[blocks]
    assert all(len(set(row)) == 1 for row in block_ids.tolist())
    assert len({row[0] for row in block_ids.tolist()}) == batch.P


class TestPKBatch:
    def test_basic(self):
        ds = make_dataset()
        rng = np.random.default_rng(1)
        batch = sample_pk_batch(ds, P=4, K=4, rng=rng)
        assert len(batch.rows) == 16
        check_pk_invariants(batch, ds)
        # no duplicate item within a block when the identity has enough items
        for block in batch.rows.reshape(4, 4):
            assert len(set(block.tolist())) == 4

    def test_replication_when_short(self):
        # one identity has only 2 items; K=4 must replicate exactly those two
        feats = np.zeros((10, 2))
        pids = np.array([0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
        ds = LabeledDataset(feats, pids, np.zeros(10), np.arange(10))
        rng = np.random.default_rng(2)
        for _ in range(20):
            batch = sample_pk_batch(ds, P=3, K=4, rng=rng)
            check_pk_invariants(batch, ds)
            for block in batch.rows.reshape(3, 4):
                pid = ds.pids[block[0]]
                if pid == 0:
                    assert set(block.tolist()) == {0, 1}

    def test_never_replicates_when_enough(self):
        ds = make_dataset(per_id=6)
        rng = np.random.default_rng(3)
        for _ in range(100):
            batch = sample_pk_batch(ds, P=3, K=4, rng=rng)
            for block in batch.rows.reshape(3, 4):
                assert len(set(block.tolist())) == 4

    def test_identity_uniformity_chisquare(self):
        ds = make_dataset(num_ids=10)
        rng = np.random.default_rng(4)
        counts = np.zeros(10)
        draws = 10_000
        for _ in range(draws):
            batch = sample_pk_batch(ds, P=4, K=2, rng=rng)
            for pid in np.unique(ds.pids[batch.rows]):
                counts[pid] += 1
        _, p = chisquare(counts)
        assert p > 0.001

    def test_too_few_identities(self):
        ds = make_dataset(num_ids=3)
        with pytest.raises(SamplingError):
            sample_pk_batch(ds, P=4, K=2, rng=np.random.default_rng(0))

    def test_single_item_identities_excluded(self):
        feats = np.zeros((5, 2))
        pids = np.array([0, 1, 1, 2, 2])
        ds = LabeledDataset(feats, pids, np.zeros(5), np.arange(5))
        rng = np.random.default_rng(5)
        for _ in range(20):
            batch = sample_pk_batch(ds, P=2, K=2, rng=rng)
            assert 0 not in ds.pids[batch.rows]

    def test_determinism(self):
        ds = make_dataset()
        a = sample_pk_batch(ds, 4, 4, np.random.default_rng(42))
        b = sample_pk_batch(ds, 4, 4, np.random.default_rng(42))
        assert np.array_equal(a.rows, b.rows)


class TestRandomTriplets:
    def test_constraints(self):
        ds = make_dataset(num_ids=2, per_id=2)
        rng = np.random.default_rng(6)
        ts = sample_random_triplets(ds, 50, rng)
        for a, p, n in ts:
            assert a != p
            assert ds.pids[a] == ds.pids[p]
            assert ds.pids[a] != ds.pids[n]

    def test_count_and_materialization(self):
        ds = make_dataset()
        ts = sample_random_triplets(ds, 42, np.random.default_rng(7))
        assert ts.shape == (42, 3) and ts.dtype == np.int64
        assert len(ts.ravel()) == 126

    def test_singleton_never_anchor(self):
        feats = np.zeros((5, 2))
        pids = np.array([0, 1, 1, 2, 2])
        ds = LabeledDataset(feats, pids, np.zeros(5), np.arange(5))
        ts = sample_random_triplets(ds, 100, np.random.default_rng(8))
        assert (ts[:, 0] != 0).all()

    def test_impossible_dataset(self):
        ds = LabeledDataset(np.zeros((2, 2)), [0, 1], [0, 0], [0, 1])
        with pytest.raises(SamplingError):
            sample_random_triplets(ds, 5, np.random.default_rng(9))


def identity_embedding_model(dim):
    return MlpParams([(np.eye(dim), np.zeros(dim))])


class TestOfflineHardMining:
    def test_full_fraction_matches_exhaustive_ranking(self):
        ds = make_dataset(num_ids=5, per_id=4, dim=3, seed=10)
        model = identity_embedding_model(3)
        mode = MarginMode.hard(0.2)
        mined = mine_hard_offline(model, ds, 1.0, B=10, margin_mode=mode,
                                  rng=np.random.default_rng(11))
        emb, _ = mlp_forward(model, ds.features)
        d = pairwise_distances(emb, "euclidean").values
        # brute-force all valid triplets, rank by loss term
        terms = []
        n = len(ds)
        for a in range(n):
            for p in range(n):
                if p == a or ds.pids[p] != ds.pids[a]:
                    continue
                for j in range(n):
                    if ds.pids[j] != ds.pids[a]:
                        terms.append((float(margin_apply(d[a, p] - d[a, j], mode)),
                                      (a, p, j)))
        terms.sort(key=lambda t: -t[0])
        want = [t[1] for t in terms[:10]]
        got_losses = [float(margin_apply(d[a, p] - d[a, j], mode))
                      for a, p, j in mined]
        want_losses = [t[0] for t in terms[:10]]
        assert got_losses == pytest.approx(want_losses, abs=1e-12)
        assert tuple(mined[0]) == want[0]

    def test_planted_impostor_tops_ranking(self):
        # 4 identities, two of them mapped nearly together in feature space
        rng = np.random.default_rng(12)
        centers = np.array([[0.0, 0.0], [0.05, 0.0], [10.0, 0.0], [0.0, 10.0]])
        feats = np.concatenate([c + 0.01 * rng.standard_normal((3, 2))
                                for c in centers])
        ds = LabeledDataset(feats, np.repeat(np.arange(4), 3),
                            np.zeros(12), np.arange(12))
        mined = mine_hard_offline(identity_embedding_model(2), ds, 1.0, B=1,
                                  margin_mode=MarginMode.hard(0.2),
                                  rng=np.random.default_rng(13))
        a, p, n = mined[0]
        assert {int(ds.pids[a]), int(ds.pids[n])} == {0, 1}

    def test_separated_model_still_returns_b(self):
        ds = make_dataset(num_ids=4, per_id=3, dim=2, seed=14)
        ds = LabeledDataset(ds.features + 100 * ds.pids[:, None],
                            ds.pids, ds.cams, ds.item_ids)
        mined = mine_hard_offline(identity_embedding_model(2), ds, 1.0, B=7,
                                  margin_mode=MarginMode.hard(0.2),
                                  rng=np.random.default_rng(15))
        assert len(mined) == 7

    @pytest.mark.parametrize("mode", [MarginMode.hard(1.0), MarginMode.soft()])
    def test_blocks_rank_like_one_stable_sort(self, monkeypatch, mode):
        # integer points on a line: many triplets share a loss term exactly
        rng = np.random.default_rng(21)
        ds = LabeledDataset(rng.integers(0, 4, size=(20, 1)).astype(float),
                            np.repeat(np.arange(5), 4), np.zeros(20),
                            np.arange(20))
        emb, _ = mlp_forward(identity_embedding_model(1), ds.features)
        d = pairwise_distances(emb, "euclidean").values
        everything = [(a, p, j) for a in range(20) for p in range(20)
                      for j in range(20) if p != a and
                      ds.pids[p] == ds.pids[a] and ds.pids[j] != ds.pids[a]]
        terms = [float(margin_apply(d[a, p] - d[a, j], mode))
                 for a, p, j in everything]
        assert len(set(terms)) < len(terms) / 10
        ranked = [everything[i] for i in
                  sorted(range(len(terms)), key=lambda i: -terms[i])]
        # each anchor has 3 positives x 16 negatives; 3 anchors per block:
        # seven blocks, the last one short
        monkeypatch.setattr(sampling, "_BLOCK_ELEMENTS", 3 * 3 * 16 + 5)
        for B in (1, 7, 40, 333, 10 ** 6):
            mined = mine_hard_offline(identity_embedding_model(1), ds, 1.0,
                                      B, mode, np.random.default_rng(B))
            assert mined.tolist() == [list(t) for t in ranked[:B]]

    def test_bad_fraction(self):
        ds = make_dataset()
        with pytest.raises(SamplingError):
            mine_hard_offline(identity_embedding_model(3), ds, 0.0, 5,
                              MarginMode.hard(0.2), np.random.default_rng(0))

    def test_memory_stays_blocked(self):
        # loss_grid's mining call: the whole 176-row benchmark split
        train_set, _ = training.default_benchmark_sets()
        assert len(train_set) == 176
        params = init_params([16, 64, 8], 7)
        mine = lambda: mine_hard_offline(params, train_set, 1.0, 3,  # noqa: E731
                                         MarginMode.soft(),
                                         np.random.default_rng(0))
        mine()      # first-call set-up is not the blocks' memory
        tracemalloc.start()
        try:
            mine()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


@pytest.mark.parametrize("B", [0, -1, -2])
@pytest.mark.parametrize("sampler", ["random", "mined"])
def test_b_below_one_is_refused(sampler, B):
    ds = make_dataset()
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingError, match=r"^B must be >= 1$"):
        if sampler == "random":
            sample_random_triplets(ds, B, rng)
        else:
            mine_hard_offline(identity_embedding_model(3), ds, 1.0, B,
                              MarginMode.soft(), rng)


def reference_mined(model, ds, fraction, B, mode, rng):
    """The subset `mine_hard_offline` draws, every valid triplet of it in
    (a, p, n) order, and the first B of one stable sort by loss term."""
    n = len(ds)
    size = max(2, int(round(fraction * n)))
    for _ in range(2):
        rows = np.sort(rng.choice(n, size=size, replace=False))
        if len(set(ds.pids[rows].tolist())) >= 2:
            break
    else:
        raise SamplingError("mined subset degenerated to one identity")
    emb, _ = mlp_forward(model, ds.features[rows])
    d = pairwise_distances(emb, "euclidean").values
    ids = ds.pids[rows].tolist()
    triplets = [(a, p, j) for a in range(size) for p in range(size)
                for j in range(size)
                if p != a and ids[p] == ids[a] and ids[j] != ids[a]]
    if not triplets:
        raise SamplingError("subset contains no valid triplet")
    terms = margin_apply(np.array([d[a, p] - d[a, j]
                                   for a, p, j in triplets]), mode)
    ranked = sorted(range(len(triplets)), key=lambda i: -terms[i])
    return rows[np.array([triplets[i] for i in ranked[:B]])]


@st.composite
def mining_cases(draw):
    """A dataset of ragged identities, singletons among them, on an integer
    grid or spread out; a fraction, B (up to past the number of valid
    triplets), margin and block size."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, dim = sum(sizes), draw(st.integers(1, 3))
    pids = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    if draw(st.booleans()):
        feats = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    else:
        feats = rng.standard_normal((n, dim))
    ds = LabeledDataset(feats, pids, np.zeros(n), np.arange(n))
    fraction = draw(st.sampled_from([1.0, 0.8, 0.5, 0.3]))
    B = draw(st.sampled_from([1, 2, 3, 12, 50, 10 ** 4]))
    mode = draw(st.sampled_from([MarginMode.soft(), MarginMode.hard(0.0),
                                 MarginMode.hard(0.2), MarginMode.hard(1.0)]))
    block = draw(st.sampled_from([1, 7, 50, sampling._BLOCK_ELEMENTS]))
    return ds, dim, fraction, B, mode, block, draw(st.integers(0, 1000))


@settings(max_examples=120, deadline=None)
@given(mining_cases())
def test_mining_matches_brute_force_ranking(case):
    ds, dim, fraction, B, mode, block, seed = case
    model = identity_embedding_model(dim)
    try:
        want = reference_mined(model, ds, fraction, B, mode,
                               np.random.default_rng(seed))
    except SamplingError as exc:
        with pytest.raises(SamplingError, match=f"^{exc}$"):
            mine_hard_offline(model, ds, fraction, B, mode,
                              np.random.default_rng(seed))
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_BLOCK_ELEMENTS", block)
        got = mine_hard_offline(model, ds, fraction, B, mode,
                                np.random.default_rng(seed))
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = make_dataset(seed=16)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ds)
        loaded = read_dataset_csv(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.pids, ds.pids)
        assert np.array_equal(loaded.cams, ds.cams)
        assert np.array_equal(loaded.item_ids, ds.item_ids)

    def test_header_and_line_endings(self, tmp_path):
        ds = make_dataset(num_ids=2, per_id=2, dim=2)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ds)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.split(b"\n")[0] == b"item_id,pid,cam,f0,f1"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)


# Property-based invariants of the samplers (needs hypothesis, see the
# `test` extra): identity-blocked layout, no single-row identity, every
# distinct row before any repeat, and uniform rows within an identity; for
# random triplets, the labels of positives and negatives and uniform draws.


@st.composite
def pk_cases(draw):
    """A label column, P and K with at least P identities of >= 2 rows;
    when K > 2, one of them has fewer than K rows."""
    K = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=12))
    if K > 2:
        sizes.append(draw(st.integers(2, K - 1)))
    usable = sum(s >= 2 for s in sizes)
    if usable < 2:
        sizes += [2, 2]
        usable += 2
    pids = np.repeat(draw(st.permutations(range(len(sizes)))), sizes)
    pids = draw(st.permutations(pids.tolist()))
    P = draw(st.integers(2, usable))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.array(pids), P, K, seed


class TestPKBatchProperties:
    @settings(max_examples=200, deadline=None)
    @given(pk_cases())
    def test_invariants(self, case):
        pids, P, K, seed = case
        n = len(pids)
        ds = LabeledDataset(np.zeros((n, 2)), pids, np.zeros(n), np.arange(n))
        batch = sample_pk_batch(ds, P, K, np.random.default_rng(seed))
        blocks = batch.rows.reshape(P, K)
        block_pids = pids[blocks]
        # identity-blocked: each block is one identity, and no identity twice
        assert (block_pids == block_pids[:, :1]).all()
        assert len(set(block_pids[:, 0].tolist())) == P
        # so the labels `train` builds once per run fit every batch
        run_labels = BatchLabels(np.repeat(np.arange(P), K), P, K)
        assert (BatchLabels(block_pids.ravel()).same_label()
                == run_labels.same_label()).all()
        for block, pid in zip(blocks, block_pids[:, 0]):
            own = np.flatnonzero(pids == pid)
            assert len(own) >= 2            # no single-row identity
            distinct = min(len(own), K)     # every distinct row first,
            assert len(set(block[:distinct].tolist())) == distinct
            assert set(block.tolist()) <= set(own.tolist())  # then repeats

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.integers(2, 7), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_rows_uniform_within_identity(self, size, K, seed):
        # identity 0 has `size` rows; P=2 of three identities, so it is
        # chosen in about 2/3 of the batches
        pids = np.repeat([0, 1, 2], [size, 3, 5])
        n = len(pids)
        ds = LabeledDataset(np.zeros((n, 2)), pids, np.zeros(n), np.arange(n))
        rng = np.random.default_rng(seed)
        blocks = np.concatenate([sample_pk_batch(ds, 2, K, rng).rows
                                 for _ in range(2000)]).reshape(-1, K)
        own = blocks[pids[blocks[:, 0]] == 0]
        # its first slot, and (when short) its replicated slots
        for slots in (own[:, :1], own[:, size:]):
            if slots.size:
                counts = np.bincount(slots.ravel(), minlength=size)
                assert len(counts) == size
                assert_uniform(counts)


@st.composite
def triplet_cases(draw):
    """A label column with two identities or more, one of them usable."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=10))
    if max(sizes) < 2:
        sizes[0] = 2
    pids = np.repeat(draw(st.permutations(range(len(sizes)))), sizes)
    pids = draw(st.permutations(pids.tolist()))
    return np.array(pids), draw(st.integers(0, 2**32 - 1))


def assert_uniform(counts):
    """Counts of equally likely outcomes pass a chi-square test."""
    assert len(counts) == 1 or chisquare(counts).pvalue > 0.001, counts


class TestRandomTripletProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(triplet_cases())
    def test_labels_and_uniformity(self, case):
        pids, seed = case
        n = len(pids)
        ds = LabeledDataset(np.zeros((n, 2)), pids, np.zeros(n), np.arange(n))
        a, p, neg = sample_random_triplets(
            ds, 20_000, np.random.default_rng(seed)).T
        assert (a != p).all() and (pids[a] == pids[p]).all()
        assert (pids[a] != pids[neg]).all()
        sizes = np.bincount(pids)
        anchors = np.flatnonzero(sizes[pids] >= 2)
        counts = np.bincount(a, minlength=n)
        assert not counts[sizes[pids] < 2].any()    # no singleton anchors
        assert_uniform(counts[anchors])
        # given the anchor's identity: ordered (anchor, positive) pairs
        # and negatives, each uniform
        ident = pids[a[0]]
        own = np.flatnonzero(pids == ident)
        mine = pids[a] == ident
        pairs = np.bincount(a[mine] * n + p[mine], minlength=n * n)
        pairs = pairs.reshape(n, n)[np.ix_(own, own)]
        assert_uniform(pairs[~np.eye(len(own), dtype=bool)])
        others = np.bincount(neg[mine], minlength=n)[pids != ident]
        assert_uniform(others)
