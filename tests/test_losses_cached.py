"""One `BatchLabels` reused across batches against a fresh one per call.

`training.train` builds the labels of a PK run once and passes the same
object to every step, so every structure the losses derive from it is
built on the first step and reused. Each PK loss must report bit for bit
what it reports with fresh labels, and what the frozen copies in
`test_losses_reference.py` report.
"""

import types

import numpy as np
import pytest

from test_losses_reference import REFERENCE, _embeddings, _same_bits
from tripletkit import losses
from tripletkit.losses import (BatchContractError, BatchLabels, MarginMode,
                               batch_all_loss, lifted_loss, lmnn_loss)

PK_LOSSES = [name for name in losses.LOSS_NAMES
             if losses.LOSSES[name].batch == "pk"]


def assert_same_report(got, want):
    assert _same_bits(got.loss, want.loss)
    assert _same_bits(got.grad_embeddings, want.grad_embeddings)
    assert _same_bits(got.per_term, want.per_term)
    assert (got.num_terms, got.num_active) == (want.num_terms,
                                               want.num_active)
    assert _same_bits(got.distances.values, want.distances.values)
    assert _same_bits(got.distances.squared, want.distances.squared)


def layouts(rng):
    """(identities, P, K): the blocked layout `train` builds, and shuffled
    layouts of arbitrary identity values."""
    yield np.repeat(np.arange(4), 2), 4, 2
    for _ in range(3):
        p, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        yield rng.permutation(np.repeat(rng.permutation(50)[:p], k)), p, k


@pytest.mark.parametrize("margin", [MarginMode.hard(0.2), MarginMode.soft()],
                         ids=["hinge", "soft"])
@pytest.mark.parametrize("metric", losses.METRICS)
@pytest.mark.parametrize("name", PK_LOSSES)
def test_reused_labels_match_fresh_and_reference(name, metric, margin):
    spec = losses.LOSSES[name]
    cfg = types.SimpleNamespace(metric=metric, margin=margin)
    rng = np.random.default_rng([PK_LOSSES.index(name), len(metric),
                                 len(margin.kind)])
    for identities, p, k in layouts(rng):
        reused = BatchLabels(identities, p, k)
        for i in range(12):
            x = _embeddings(rng, p * k, ["plain", "repeats", "ties"][i % 3])
            got = spec.call(x, reused, *spec.reads(cfg))
            assert_same_report(got, spec.call(
                x, BatchLabels(identities, p, k), *spec.reads(cfg)))
            assert_same_report(got, REFERENCE[name](
                x, BatchLabels(identities, p, k), cfg))


def test_labels_are_an_immutable_copy():
    ids = np.array([3, 3, 1, 1])
    labels = BatchLabels(ids)
    ids[0] = 1
    assert labels.identities.tolist() == [3, 3, 1, 1]
    derived = [labels.identities, labels.same_label(), *labels.masks,
               *labels.lifted_pairs, *labels.lmnn_targets]
    for a in derived:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    with pytest.raises(AttributeError):
        labels.identities = ids
    assert labels.masks is labels.masks     # derived once
    assert labels.validate_pk() == (2, 2)


def test_explicit_pairing_and_targets_keep_their_checks():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 3))
    labels = BatchLabels(np.repeat([7, 8, 9], 2), 3, 2)
    derived_lifted = lifted_loss(x, labels=labels)
    derived_lmnn = lmnn_loss(x, labels)
    # the derived pairs and targets, given explicitly
    assert_same_report(derived_lifted, lifted_loss(
        x, [(0, 1), (2, 3), (4, 5)], labels=labels))
    assert_same_report(derived_lmnn, lmnn_loss(
        x, labels, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}))
    for pairing, message in (([(0, 2)], "not same-class"),
                             ([(1, 1)], "must differ"),
                             ([], "at least one")):
        with pytest.raises(BatchContractError, match=message):
            lifted_loss(x, pairing, labels=labels)
    for targets, message in (({0: 2}, "distinct same-class"),
                             ({3: 3}, "distinct same-class"),
                             ({}, "at least one")):
        with pytest.raises(BatchContractError, match=message):
            lmnn_loss(x, labels, targets)
    with pytest.raises(BatchContractError, match="pairing or labels"):
        lifted_loss(x)
    # the failed calls left the derived structures as they were
    assert_same_report(derived_lifted, lifted_loss(x, labels=labels))
    assert_same_report(derived_lmnn, lmnn_loss(x, labels))


def test_labels_without_pairs_or_targets_are_refused():
    x = np.zeros((3, 2))
    labels = BatchLabels([0, 1, 2])
    with pytest.raises(BatchContractError, match="at least one"):
        lifted_loss(x, labels=labels)
    with pytest.raises(BatchContractError, match="at least one target"):
        lmnn_loss(x, labels)
    with pytest.raises(BatchContractError, match="at least one negative"):
        lifted_loss(np.zeros((2, 2)), labels=BatchLabels([0, 0]))


def test_batch_all_keeps_no_triplet_indices():
    """Two identities of 64 rows hold 516096 triplets. What a batch-all
    call leaves on its labels is O(n**2) bytes: the labels and their
    (n, n) masks, under 64 KB where per-triplet indices took 6.2 MB."""
    P, K = 2, 64
    labels = BatchLabels(np.repeat(np.arange(P), K), P, K)
    x = np.random.default_rng(0).standard_normal((P * K, 4))
    batch_all_loss(x, labels, "euclidean", MarginMode.hard(0.2), "nonzero")
    cached = [a for v in vars(labels).values()
              for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert any(a is labels.same_label() for a in cached)   # cached ones seen
    assert sum(a.nbytes for a in cached) < 64 * 1024
