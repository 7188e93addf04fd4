import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tripletkit import cli, losses
from tripletkit.losses import (BatchContractError, BatchLabels, MarginMode,
                               batch_all_loss, batch_hard_loss,
                               classic_triplet_loss, lifted_generalized_loss,
                               lifted_loss, lmnn_loss, margin_apply,
                               pairwise_distances, parse_margin)

from conftest import random_pk_batch
from oracles import (fd_gradient, oracle_batch_all, oracle_batch_hard,
                     oracle_classic_triplet, oracle_lifted,
                     oracle_lifted_gen, oracle_lmnn)

HARD02 = MarginMode.hard(0.2)
SOFT = MarginMode.soft()


def mode_tuple(mode):
    return (mode.kind, mode.m if mode.kind == "hard" else None)


class TestPairwiseDistances:
    def test_three_four_five(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_distances(x, "euclidean").values
        assert d[0, 1] == pytest.approx(5.0, abs=1e-12)
        d2 = pairwise_distances(x, "squared_euclidean").values
        assert d2[0, 1] == pytest.approx(25.0, abs=1e-12)

    def test_single_row(self):
        d = pairwise_distances(np.array([[1.0, 2.0]]), "euclidean").values
        assert d.shape == (1, 1) and d[0, 0] == 0.0

    def test_invariants_random(self, rng):
        for _ in range(20):
            x = rng.standard_normal((10, 4))
            d = pairwise_distances(x, "euclidean").values
            assert np.allclose(d, d.T)
            assert np.all(np.diag(d) == 0)
            assert np.all(d >= 0)
            # triangle inequality on sampled triples
            for _ in range(50):
                i, j, k = rng.integers(0, 10, 3)
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_homogeneity(self, rng):
        x = rng.standard_normal((6, 3))
        d1 = pairwise_distances(x, "euclidean").values
        d2 = pairwise_distances(3.0 * x, "euclidean").values
        assert np.allclose(d2, 3.0 * d1, atol=1e-10)


class TestMarginApply:
    def test_hard_clipped(self):
        assert margin_apply(-0.5, HARD02) == 0.0

    def test_soft_at_zero(self):
        assert float(margin_apply(0.0, SOFT)) == pytest.approx(math.log(2), abs=1e-12)

    def test_hard_active(self):
        assert float(margin_apply(0.3, HARD02)) == pytest.approx(0.5, abs=1e-15)

    def test_soft_overflow_safe(self):
        big = float(margin_apply(1e4, SOFT))
        assert np.isfinite(big) and big == pytest.approx(1e4)
        # value and slope at the extremes; a RuntimeWarning fails the suite
        x = np.array([-1e4, -800.0, 800.0, 1e4])
        assert np.array_equal(margin_apply(x, SOFT), [0.0, 0.0, 800.0, 1e4])
        assert np.array_equal(losses.margin_apply_grad(x, SOFT),
                              [0.0, 0.0, 1.0, 1.0])

    def test_soft_dominates_hinge(self, rng):
        x = rng.uniform(-50, 50, 1000)
        soft = margin_apply(x, SOFT)
        hinge = np.maximum(0.0, x)
        # strict dominance holds wherever the gap is representable in f64
        strict = np.abs(x) < 30
        assert np.all(soft[strict] > hinge[strict])
        assert np.all(soft >= hinge)
        tail = x[x > 15]
        assert np.all(margin_apply(tail, SOFT) - np.maximum(0, tail) < 1e-6)

    def test_parse_margin(self):
        assert parse_margin("soft").kind == "soft"
        assert parse_margin("0.2") == MarginMode.hard(0.2)
        with pytest.raises(ValueError):
            parse_margin("-1")
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match=f"margin '{text}'"):
                parse_margin(text)
            with pytest.raises(ValueError):
                MarginMode.hard(float(text))

    @pytest.mark.parametrize("kind, m", [("Hard", 0.2), ("softplus", 0.0),
                                         ("", 0.0), ("soft", 3.0),
                                         ("soft", -1.0)])
    def test_margin_mode_rejects_values_it_would_ignore(self, kind, m):
        """An unknown kind would train as softplus, and a soft margin's m
        is never read."""
        with pytest.raises(ValueError):
            MarginMode(kind, m)


ONE_D_BATCH = np.array([[0.0], [1.0], [1.5], [2.5]])
ONE_D_LABELS = BatchLabels(np.array([0, 0, 1, 1]))


class TestHandComputedCells:
    def test_batch_hard_separated(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        r = batch_hard_loss(x, ONE_D_LABELS, "euclidean", HARD02)
        assert r.loss == 0.0
        assert np.all(r.grad_embeddings == 0)

    def test_batch_hard_035(self):
        r = batch_hard_loss(ONE_D_BATCH, ONE_D_LABELS, "euclidean", HARD02)
        assert r.loss == pytest.approx(0.35, abs=1e-12)
        assert sorted(r.per_term.tolist()) == pytest.approx([0.0, 0.0, 0.7, 0.7])

    def test_batch_all_0175_and_nonzero_07(self):
        r_all = batch_all_loss(ONE_D_BATCH, ONE_D_LABELS, "euclidean", HARD02, "all")
        r_nnz = batch_all_loss(ONE_D_BATCH, ONE_D_LABELS, "euclidean", HARD02, "nonzero")
        assert r_all.loss == pytest.approx(0.175, abs=1e-12)
        assert r_all.num_terms == 8
        assert r_nnz.loss == pytest.approx(0.7, abs=1e-12)
        assert r_nnz.num_active == 2

    def test_batch_all_separated_zero_grad(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        r = batch_all_loss(x, ONE_D_LABELS, "euclidean", HARD02, "nonzero")
        assert r.loss == 0.0
        assert np.all(r.grad_embeddings == 0)

    @pytest.mark.parametrize("averaging", ["all", "nonzero"])
    @pytest.mark.parametrize("mode", [SOFT, HARD02], ids=["soft", "hinge"])
    @pytest.mark.parametrize("P, K, cubes", [(18, 4, 0.5), (2, 64, 2.04)])
    def test_batch_all_holds_no_cube(self, P, K, cubes, mode, averaging):
        # no (n, n, n) array: at the paper's P=18, K=4 the peak stays under
        # half of one; at P=2, K=64, where the valid triplets are a quarter
        # of the cube, it is no higher than with the cube it replaced
        n = P * K
        labels = BatchLabels(np.repeat(np.arange(P), K), P, K)
        x = np.random.default_rng(3).standard_normal((n, 128))
        batch_all_loss(x, labels, "euclidean", mode, averaging)
        tracemalloc.start()
        try:
            report = batch_all_loss(x, labels, "euclidean", mode, averaging)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.num_terms == n * (K - 1) * (n - K)
        assert peak <= cubes * n ** 3 * 8

    def test_classic_triplet_cells(self):
        # rows (a, p, n); distances are 1-D gaps
        x = np.array([[0.0], [0.5], [1.0]])
        assert classic_triplet_loss(x, "euclidean", HARD02).loss == 0.0
        x2 = np.array([[0.0], [1.0], [0.5]])
        assert classic_triplet_loss(x2, "euclidean", HARD02).loss == \
            pytest.approx(0.7, abs=1e-12)

    def test_classic_rejects_non_triple(self):
        with pytest.raises(BatchContractError):
            classic_triplet_loss(np.zeros((4, 2)))

    def test_lifted_symmetric_plugin(self):
        # D(a,p)=0, two negatives each at distance exactly m from both ends
        m = 0.7
        x = np.array([[0.0, 0.0], [0.0, 0.0], [m, 0.0], [-m, 0.0]])
        r = lifted_loss(x, [(0, 1)], "euclidean", m, MarginMode.hard(0.0))
        assert r.loss == pytest.approx(math.log(4), abs=1e-9)

    def test_lifted_far_negatives(self):
        x = np.array([[0.0], [0.0], [100.0], [-100.0]])
        r = lifted_loss(x, [(0, 1)], "euclidean", 0.2, MarginMode.hard(0.0))
        assert r.loss == 0.0

    @pytest.mark.parametrize("mode", [HARD02, SOFT], ids=["0.2", "soft"])
    @pytest.mark.parametrize("loss", [batch_hard_loss, batch_all_loss])
    def test_nnz_without_active_terms_is_zero(self, loss, mode):
        """Two clusters 50 apart leave no term active, so the nonzero
        average has no term to divide by: loss and gradient are exactly 0,
        not 0/0."""
        x = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 0.0], [50.1, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = loss(x, BatchLabels([0, 0, 1, 1], 2, 2), "euclidean", mode,
                     "nonzero")
        assert r.num_active == 0
        assert r.loss == 0.0
        assert r.grad_embeddings.shape == x.shape
        assert not r.grad_embeddings.any()

    def test_lifted_needs_three_rows(self):
        """One pair and one negative is the smallest lifted batch."""
        x = np.array([[0.0], [1.0], [1.5]])
        r = lifted_loss(x, [(0, 1)], "euclidean", 0.2, MarginMode.hard(0.0))
        want = 1.0 + math.log(math.exp(0.2 - 1.5) + math.exp(0.2 - 0.5))
        assert r.loss == pytest.approx(want, abs=1e-12)
        with pytest.raises(BatchContractError, match="at least one negative"):
            lifted_loss(x[:2], [(0, 1)])

    def test_lifted_gen_collapsed(self):
        x = np.zeros((4, 3))
        labels = BatchLabels(np.array([0, 0, 1, 1]))
        r = lifted_generalized_loss(x, labels, "euclidean", 0.0)
        assert r.loss == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_lmnn_pull_only(self, mu):
        """One identity has no push pair: the push half of the loss and
        of the gradient is 0, not 0/0."""
        x = np.array([[0.0], [3.0]])
        labels = BatchLabels(np.array([5, 5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = lmnn_loss(x, labels, {0: 1, 1: 0}, mu=mu, m=0.2)
        assert r.loss == pytest.approx((1 - mu) * 3.0, abs=1e-12)
        np.testing.assert_allclose(r.grad_embeddings,
                                   [[mu - 1], [1 - mu]], atol=1e-12)

    def test_lmnn_push_vacuous(self):
        x = np.array([[0.0], [0.1], [50.0], [50.1]])
        labels = BatchLabels(np.array([0, 0, 1, 1]))
        r = lmnn_loss(x, labels, {0: 1, 1: 0, 2: 3, 3: 2}, mu=1.0, m=0.2)
        assert r.loss == 0.0

    def test_lmnn_rejects_cross_class_target(self):
        labels = BatchLabels(np.array([0, 1]))
        with pytest.raises(BatchContractError):
            lmnn_loss(np.zeros((2, 2)), labels, {0: 1})

    # past the batch NumPy raises IndexError; a negative index wraps to a
    # valid row (-1 is row 3, which shares row 2's identity)
    @pytest.mark.parametrize("pairing", [[(0, 9)], [(9, 0)], [(0, 4)],
                                         [(2, -1)], [(-4, 1)],
                                         [(0, 1), (4, 5)]])
    def test_lifted_rejects_pair_outside_batch(self, pairing):
        with pytest.raises(BatchContractError, match="not a row of the 4-row"):
            lifted_loss(np.zeros((4, 2)), pairing)
        with pytest.raises(BatchContractError, match="not a row of the 4-row"):
            lifted_loss(np.zeros((4, 2)), pairing,
                        labels=BatchLabels([0, 0, 1, 1]))

    @pytest.mark.parametrize("targets", [{0: 9}, {9: 0}, {0: 4}, {2: -1},
                                         {-1: 2}, {0: 1, 4: 5}])
    def test_lmnn_rejects_target_outside_batch(self, targets):
        with pytest.raises(BatchContractError, match="not a row of the 4-row"):
            lmnn_loss(np.zeros((4, 2)), BatchLabels([0, 0, 1, 1]), targets)


class TestBatchContracts:
    def test_k1_rejected(self):
        with pytest.raises(BatchContractError):
            batch_hard_loss(np.zeros((2, 2)), BatchLabels(np.array([0, 1])))

    def test_p1_rejected(self):
        with pytest.raises(BatchContractError):
            batch_hard_loss(np.zeros((3, 2)), BatchLabels(np.array([0, 0, 0])))

    def test_uneven_counts_rejected(self):
        with pytest.raises(BatchContractError):
            batch_all_loss(np.zeros((5, 2)),
                           BatchLabels(np.array([0, 0, 0, 1, 1])))

    # With 3 or 5 rows against 4 labels NumPy raised ValueError or
    # IndexError; a float index was truncated to a row and accepted.
    @pytest.mark.parametrize("call, rows, match", [
        *((call, rows, f"4 labels for the {rows} rows")
          for call in ("batch_hard", "batch_all", "lifted_gen", "lmnn",
                       "lmnn_targets", "lifted", "lifted_pairing")
          for rows in (3, 5)),
        *((call, 4, "must be integers")
          for call in ("lmnn_float_target", "lmnn_float_anchor",
                       "lifted_float_pairing")),
    ])
    def test_labels_and_indices_must_fit_the_batch(self, call, rows, match):
        calls = {
            "batch_hard": lambda x, lab: batch_hard_loss(x, lab),
            "batch_all": lambda x, lab: batch_all_loss(x, lab),
            "lifted_gen": lambda x, lab: lifted_generalized_loss(x, lab),
            "lmnn": lambda x, lab: lmnn_loss(x, lab),
            "lmnn_targets": lambda x, lab: lmnn_loss(x, lab, {0: 1, 2: 3}),
            "lifted": lambda x, lab: lifted_loss(x, labels=lab),
            "lifted_pairing": lambda x, lab: lifted_loss(x, [(0, 1)],
                                                         labels=lab),
            "lmnn_float_target": lambda x, lab: lmnn_loss(x, lab, {0: 1.7}),
            "lmnn_float_anchor": lambda x, lab: lmnn_loss(x, lab, {0.0: 1}),
            "lifted_float_pairing": lambda x, lab: lifted_loss(
                x, [(0, 1.0)], labels=lab),
        }
        x = np.random.default_rng(rows).standard_normal((rows, 2))
        with pytest.raises(BatchContractError, match=match):
            calls[call](x, BatchLabels([0, 0, 1, 1]))


MODES = [MarginMode.hard(0.1), MarginMode.hard(0.2), MarginMode.hard(0.5),
         MarginMode.hard(1.0), MarginMode.soft()]
METRICS = ["euclidean", "squared_euclidean"]


class TestOracleAgreement:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_batch_hard_exact(self, metric, mode, rng):
        for _ in range(50):
            x, labels = random_pk_batch(rng)
            got = batch_hard_loss(x, labels, metric, mode).loss
            want = oracle_batch_hard(x.tolist(), labels.identities.tolist(),
                                     metric, mode_tuple(mode))
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("averaging", ["all", "nonzero"])
    def test_batch_all(self, averaging, rng):
        for _ in range(50):
            x, labels = random_pk_batch(rng)
            mode = MODES[int(rng.integers(len(MODES)))]
            metric = METRICS[int(rng.integers(2))]
            got = batch_all_loss(x, labels, metric, mode, averaging).loss
            want = oracle_batch_all(x.tolist(), labels.identities.tolist(),
                                    metric, mode_tuple(mode), averaging)
            assert got == pytest.approx(want, abs=1e-9)

    def test_classic_triplet(self, rng):
        for _ in range(50):
            b = int(rng.integers(1, 5))
            x = rng.standard_normal((3 * b, 4))
            mode = MODES[int(rng.integers(len(MODES)))]
            got = classic_triplet_loss(x, "euclidean", mode).loss
            want = oracle_classic_triplet(x.tolist(), "euclidean",
                                          mode_tuple(mode))
            assert got == pytest.approx(want, abs=1e-12)

    def test_classic_agrees_with_batch_all_single_triplet(self, rng):
        # one triple is the degenerate all-triplet batch with that anchor
        x = rng.standard_normal((3, 4))
        got = classic_triplet_loss(x, "euclidean", HARD02).loss
        d = pairwise_distances(x, "euclidean").values
        want = max(0.0, 0.2 + d[0, 1] - d[0, 2])
        assert got == pytest.approx(want, abs=1e-12)

    def test_lifted(self, rng):
        for _ in range(50):
            x, labels = random_pk_batch(rng)
            pairing = [(0, 1)] if labels.K == 2 else [(0, 1), (1, 2)]
            m = float(rng.uniform(0.1, 1.0))
            got = lifted_loss(x, pairing, "euclidean", m,
                              MarginMode.hard(0.0), labels=None).loss
            want = oracle_lifted(x.tolist(), pairing, "euclidean", m,
                                 ("hard", 0.0))
            assert got == pytest.approx(want, abs=1e-9)

    def test_lifted_gen(self, rng):
        for _ in range(50):
            x, labels = random_pk_batch(rng)
            m = float(rng.uniform(0.1, 1.0))
            got = lifted_generalized_loss(x, labels, "euclidean", m).loss
            want = oracle_lifted_gen(x.tolist(), labels.identities.tolist(),
                                     "euclidean", m, ("hard", 0.0))
            assert got == pytest.approx(want, abs=1e-9)

    def test_lifted_gen_single_positive_reduces(self, rng):
        x, labels = random_pk_batch(rng, p_max=2, k_max=2)
        d = pairwise_distances(x, "euclidean").values
        r = lifted_generalized_loss(x, labels, "euclidean", 100.0,
                                    MarginMode.hard(0.0))
        # with K=2 the positive log-sum-exp is exactly D(a, p)
        a = 0
        p = 1 if labels.identities[1] == labels.identities[0] else None
        assert p is not None
        # huge m forces everything active; check the positive part via per_term
        neg = np.flatnonzero(labels.identities != labels.identities[a])
        expected = d[a, p] + (100.0 + np.log(np.sum(np.exp(-d[a, neg]))))
        assert r.per_term[a] == pytest.approx(expected, rel=1e-9)

    def test_lmnn(self, rng):
        for _ in range(50):
            x, labels = random_pk_batch(rng)
            ids = labels.identities
            targets = {}
            for i in range(len(ids)):
                same = [j for j in range(len(ids)) if j != i and ids[j] == ids[i]]
                targets[i] = same[int(rng.integers(len(same)))]
            mu = float(rng.uniform(0, 1))
            m = float(rng.uniform(0.05, 1.0))
            got = lmnn_loss(x, labels, targets, mu, m, "euclidean").loss
            want = oracle_lmnn(x.tolist(), ids.tolist(), targets, mu, m,
                               "euclidean")
            assert got == pytest.approx(want, abs=1e-12)


def _min_offdiag(x):
    d = pairwise_distances(x, "euclidean").values
    return np.min(d + np.eye(len(x)) * 1e9)


def safe_for_fd(per_term, mode, extra_margins=()):
    """Reject configurations near hinge boundaries or activity threshold."""
    if mode.kind == "hard" and np.any(np.abs(per_term) < 1e-3) and \
            np.any(per_term > 0):
        # a strictly-zero hinge term is fine; one barely active is not
        if np.any((per_term > 0) & (per_term < 1e-3)):
            return False
    if np.any(np.abs(per_term - 1e-5) < 1e-3) and np.any(per_term > 1e-5):
        # terms straddling the activity threshold make nonzero averaging jumpy
        pass
    for m in extra_margins:
        if abs(m) < 1e-3:
            return False
    return True


def check_gradient(loss_fn, x, rel_tol=1e-4, step=1e-5):
    report = loss_fn(x)
    fd = fd_gradient(lambda z: loss_fn(z).loss, x, step)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(report.grad_embeddings)),
                       1e-6)
    rel = np.abs(fd - report.grad_embeddings) / denom
    assert np.max(rel) < rel_tol, f"max rel err {np.max(rel)}"


class TestGradients:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_batch_hard_grad(self, metric, mode, rng):
        done = 0
        while done < 3:
            x, labels = random_pk_batch(rng, spread=1.5)
            if _min_offdiag(x) < 1e-2:
                continue
            r = batch_hard_loss(x, labels, metric, mode)
            if mode.kind == "hard" and np.any((r.per_term > 0) & (r.per_term < 1e-3)):
                continue
            check_gradient(lambda z: batch_hard_loss(z, labels, metric, mode), x)
            done += 1

    @pytest.mark.parametrize("averaging", ["all", "nonzero"])
    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_batch_all_grad(self, averaging, mode, rng):
        done = 0
        while done < 3:
            x, labels = random_pk_batch(rng, spread=1.5)
            if _min_offdiag(x) < 1e-2:
                continue
            r = batch_all_loss(x, labels, "euclidean", mode, averaging)
            if np.any(np.abs(r.per_term - 1e-5) < 1e-3):
                continue
            check_gradient(
                lambda z: batch_all_loss(z, labels, "euclidean", mode, averaging), x)
            done += 1

    @pytest.mark.parametrize("mode", MODES, ids=str)
    def test_classic_grad(self, mode, rng):
        done = 0
        while done < 3:
            x = rng.standard_normal((9, 4))
            if _min_offdiag(x) < 1e-2:
                continue
            r = classic_triplet_loss(x, "euclidean", mode)
            if mode.kind == "hard" and np.any((r.per_term > 0) & (r.per_term < 1e-3)):
                continue
            check_gradient(lambda z: classic_triplet_loss(z, "euclidean", mode), x)
            done += 1

    def test_lifted_grad(self, rng):
        for outer in (MarginMode.hard(0.0), SOFT):
            done = 0
            while done < 3:
                x, labels = random_pk_batch(rng, spread=1.5)
                if _min_offdiag(x) < 1e-2:
                    continue
                pairing = [(0, 1)]
                r = lifted_loss(x, pairing, "euclidean", 0.5, outer)
                if outer.kind == "hard" and np.any(np.abs(r.per_term) < 1e-3):
                    continue
                check_gradient(
                    lambda z: lifted_loss(z, pairing, "euclidean", 0.5, outer), x)
                done += 1

    def test_lifted_gen_grad(self, rng):
        for outer in (MarginMode.hard(0.0), SOFT):
            done = 0
            while done < 3:
                x, labels = random_pk_batch(rng, spread=1.5)
                if _min_offdiag(x) < 1e-2:
                    continue
                r = lifted_generalized_loss(x, labels, "euclidean", 0.5, outer)
                if outer.kind == "hard" and np.any(np.abs(r.per_term) < 1e-3):
                    continue
                check_gradient(
                    lambda z: lifted_generalized_loss(z, labels, "euclidean",
                                                      0.5, outer), x)
                done += 1

    def test_lmnn_grad(self, rng):
        done = 0
        while done < 3:
            x, labels = random_pk_batch(rng, spread=1.5)
            if _min_offdiag(x) < 1e-2:
                continue
            ids = labels.identities
            targets = {i: [j for j in range(len(ids))
                           if j != i and ids[j] == ids[i]][0]
                       for i in range(len(ids))}
            r = lmnn_loss(x, labels, targets, 0.5, 0.3)
            push = r.per_term[len(targets):]
            if np.any((push > 0) & (push < 1e-3)):
                continue
            check_gradient(
                lambda z: lmnn_loss(z, labels, targets, 0.5, 0.3), x)
            done += 1

    def test_inactive_batch_zero_grad(self):
        x = np.array([[0.0], [0.1], [100.0], [100.1]])
        labels = BatchLabels(np.array([0, 0, 1, 1]))
        for fn in (batch_hard_loss, batch_all_loss):
            r = fn(x, labels, "euclidean", HARD02)
            assert np.all(r.grad_embeddings == 0)


class TestProperties:
    def test_nonzero_averaging_inflates(self, rng):
        for _ in range(30):
            x, labels = random_pk_batch(rng)
            r_all = batch_all_loss(x, labels, "euclidean", HARD02, "all")
            r_nnz = batch_all_loss(x, labels, "euclidean", HARD02, "nonzero")
            if r_nnz.num_active >= 1:
                assert r_nnz.loss >= r_all.loss - 1e-12
                if r_nnz.num_active == r_all.num_terms:
                    assert r_nnz.loss == pytest.approx(r_all.loss, abs=1e-12)

    def test_batch_hard_is_max_triplet(self, rng):
        for _ in range(30):
            x, labels = random_pk_batch(rng)
            r = batch_hard_loss(x, labels, "euclidean", SOFT)
            want = oracle_batch_hard(x.tolist(), labels.identities.tolist(),
                                     "euclidean", ("soft", None))
            assert r.loss == pytest.approx(want, abs=1e-12)

    def test_permutation_equivariance(self, rng):
        x, labels = random_pk_batch(rng)
        perm = rng.permutation(len(x))
        r1 = batch_all_loss(x, labels, "euclidean", SOFT)
        r2 = batch_all_loss(x[perm], BatchLabels(labels.identities[perm]),
                            "euclidean", SOFT)
        assert r1.loss == pytest.approx(r2.loss, abs=1e-12)
        assert np.allclose(r1.grad_embeddings[perm], r2.grad_embeddings,
                           atol=1e-12)

    def test_translation_invariance(self, rng):
        shift = rng.standard_normal(5)
        x, labels = random_pk_batch(rng, d_max=5)
        shift = rng.standard_normal(x.shape[1])
        for fn in (lambda z: batch_hard_loss(z, labels, "euclidean", SOFT),
                   lambda z: batch_all_loss(z, labels, "euclidean", HARD02),
                   lambda z: lifted_generalized_loss(z, labels, "euclidean", 0.3)):
            r1, r2 = fn(x), fn(x + shift)
            assert r1.loss == pytest.approx(r2.loss, abs=1e-10)
            assert np.allclose(r1.grad_embeddings, r2.grad_embeddings,
                               atol=1e-10)


class TestRegistry:
    def test_loss_names_pinned(self):
        assert losses.LOSS_NAMES == (
            "triplet", "triplet_ohm", "batch_hard", "batch_hard_nnz",
            "batch_all", "batch_all_nnz", "lifted", "lifted_gen", "lmnn")
        assert losses.LOSS_NAMES == tuple(losses.LOSSES)
        assert all(name == spec.name for name, spec in losses.LOSSES.items())

    def test_cli_loss_choices_come_from_registry(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["train", "--help"])
        assert "{" + ",".join(losses.LOSSES) + "}" in capsys.readouterr().out
