"""Every registered loss against a frozen copy of the losses it replaced.

The functions below are the loss module's distance kernel, PK check and six
losses as they were before their NumPy slow paths were cut (`np.unique`,
`np.add.at` onto zeros, `np.fill_diagonal`, out-of-place temporaries). The
rewrite kept every operation's order, so results must match bit for bit:
loss, gradient, per-term values, term counts and both distance matrices.

One line was re-pinned since: batch-hard's loss sums the active terms,
`np.sum(per_term[active])`, as batch-all's does, where it first summed
`np.sum(per_term * active)`, which rounds differently when a term is
inactive. Both losses now share one margin-and-mean kernel.
"""

import types

import numpy as np
import pytest

from tripletkit import losses
from tripletkit.losses import (ACTIVE_THRESHOLD, EUCLID_GRAD_FLOOR,
                               EUCLID_SQ_FLOOR, BatchContractError,
                               BatchLabels, DistanceMatrix, LossReport,
                               MarginMode)


# ---- reference copies -----------------------------------------------------

def margin_apply(x, mode):
    x = np.asarray(x, dtype=np.float64)
    if mode.kind == "hard":
        return np.maximum(0.0, mode.m + x)
    return np.logaddexp(0.0, x)


def margin_apply_grad(x, mode):
    x = np.asarray(x, dtype=np.float64)
    if mode.kind == "hard":
        return np.where(mode.m + x > 0, 1.0, 0.0)
    return np.exp(-np.logaddexp(0.0, -x))


def pairwise_distances(embeddings, metric="euclidean"):
    x = np.asarray(embeddings, dtype=np.float64)
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    d2 = 0.5 * (d2 + d2.T)
    if metric == "squared_euclidean":
        return DistanceMatrix(d2, metric, d2)
    if metric == "euclidean":
        d = np.sqrt(np.maximum(d2, EUCLID_SQ_FLOOR))
        np.fill_diagonal(d, 0.0)
        return DistanceMatrix(d, metric, d2)
    raise ValueError(f"unknown metric {metric!r}")


def _chain_through_metric(embeddings, dist, coeff):
    x = np.asarray(embeddings, dtype=np.float64)
    w = coeff + coeff.T
    if dist.metric == "squared_euclidean":
        k = 2.0 * w
    else:
        denom = np.maximum(dist.values, EUCLID_GRAD_FLOOR)
        k = w / denom
    np.fill_diagonal(k, 0.0)
    return k.sum(axis=1)[:, None] * x - k @ x


def validate_pk(labels):
    ids, counts = np.unique(labels.identities, return_counts=True)
    p = len(ids)
    if p < 2:
        raise BatchContractError("PK batch needs at least 2 identities")
    k = counts[0]
    if k < 2 or not np.all(counts == k):
        raise BatchContractError(
            "PK batch needs every identity exactly K >= 2 times")
    if labels.P is not None and labels.P != p:
        raise BatchContractError(f"declared P={labels.P}, found {p}")
    if labels.K is not None and labels.K != k:
        raise BatchContractError(f"declared K={labels.K}, found {k}")
    return p, int(k)


def _masks(labels):
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(len(labels), dtype=bool)
    return pos, ~same


def triplet_differences(d, ids):
    same = ids[:, None] == ids[None, :]
    pos = same & (np.arange(len(d))[:, None] != np.arange(len(d)))
    return d[:, :, None] - d[:, None, :], pos[:, :, None] & ~same[:, None, :]


def _logsumexp_softmax(a):
    top = a.max(axis=1, keepdims=True)
    e = np.exp(a - top)
    total = e.sum(axis=1, keepdims=True)
    return np.log(total[:, 0]) + top[:, 0], e / total


def _finish(loss, per_term, coeff, embeddings, dist):
    grad = _chain_through_metric(embeddings, dist, coeff)
    num_active = int(np.sum(np.asarray(per_term) > ACTIVE_THRESHOLD))
    return LossReport(float(loss), grad, num_active,
                      np.asarray(per_term, dtype=np.float64), dist)


def batch_hard_loss(embeddings, labels, metric, mode, averaging="all"):
    validate_pk(labels)
    x = np.asarray(embeddings, dtype=np.float64)
    dist = pairwise_distances(x, metric)
    d = dist.values
    n = len(x)
    pos, neg = _masks(labels.identities)
    hardest_pos = np.argmax(np.where(pos, d, -np.inf), axis=1)
    hardest_neg = np.argmin(np.where(neg, d, np.inf), axis=1)
    rows = np.arange(n)
    xvals = d[rows, hardest_pos] - d[rows, hardest_neg]
    per_term = margin_apply(xvals, mode)
    if averaging == "nonzero":
        divisor = int(np.sum(per_term > ACTIVE_THRESHOLD))
    else:
        divisor = n
    g = margin_apply_grad(xvals, mode)
    coeff = np.zeros((n, n))
    if divisor > 0:
        active = ((per_term > ACTIVE_THRESHOLD) if averaging == "nonzero"
                  else np.ones(n, bool))
        scale = g * active / divisor
        np.add.at(coeff, (rows, hardest_pos), scale)
        np.add.at(coeff, (rows, hardest_neg), -scale)
        loss = float(np.sum(per_term[active]) / divisor)
    else:
        loss = 0.0
    return _finish(loss, per_term, coeff, x, dist)


def batch_all_loss(embeddings, labels, metric, mode, averaging="all"):
    validate_pk(labels)
    x = np.asarray(embeddings, dtype=np.float64)
    dist = pairwise_distances(x, metric)
    d = dist.values
    n = len(x)
    xvals, valid = triplet_differences(d, labels.identities)
    applied = margin_apply(xvals, mode)
    per_term = applied[valid]
    if averaging == "nonzero":
        divisor = int(np.sum(per_term > ACTIVE_THRESHOLD))
    else:
        divisor = len(per_term)
    coeff = np.zeros((n, n))
    loss = 0.0
    if divisor > 0:
        g = margin_apply_grad(xvals, mode) * valid
        if averaging == "nonzero":
            g = g * (applied > ACTIVE_THRESHOLD)
            loss = float(np.sum(per_term[per_term > ACTIVE_THRESHOLD]) / divisor)
        else:
            loss = float(per_term.sum() / divisor)
        g = g / divisor
        coeff += g.sum(axis=2)
        coeff -= g.sum(axis=1)
    return _finish(loss, per_term, coeff, x, dist)


def classic_triplet_loss(embeddings, metric, mode):
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    if n == 0 or n % 3 != 0:
        raise BatchContractError("row count must be a positive multiple of 3")
    b = n // 3
    dist = pairwise_distances(x, metric)
    d = dist.values
    a_idx = np.arange(0, n, 3)
    p_idx = a_idx + 1
    n_idx = a_idx + 2
    xvals = d[a_idx, p_idx] - d[a_idx, n_idx]
    per_term = margin_apply(xvals, mode)
    g = margin_apply_grad(xvals, mode) / b
    coeff = np.zeros((n, n))
    np.add.at(coeff, (a_idx, p_idx), g)
    np.add.at(coeff, (a_idx, n_idx), -g)
    return _finish(per_term.mean(), per_term, coeff, x, dist)


def lmnn_loss(embeddings, labels, target_neighbors, m, metric, mu=0.5):
    x = np.asarray(embeddings, dtype=np.float64)
    ids = labels.identities
    n = len(x)
    dist = pairwise_distances(x, metric)
    d = dist.values
    anchors, targets = np.array(sorted(target_neighbors.items()),
                                dtype=np.intp).T
    coeff = np.zeros((n, n))
    pull_terms = d[anchors, targets]
    n_pull = len(anchors)
    coeff[anchors, targets] = (1 - mu) / n_pull
    push_pairs = ids[anchors, None] != ids[None, :]
    v = m + pull_terms[:, None] - d[anchors]
    push_terms = np.maximum(0.0, v[push_pairs])
    n_push = max(len(push_terms), 1)
    hinged = mu * ((v > 0) & push_pairs) / n_push
    coeff[anchors] -= hinged
    coeff[anchors, targets] += hinged.sum(axis=1)
    loss = (1 - mu) * (pull_terms.sum() / n_pull) + mu * (push_terms.sum() / n_push)
    return _finish(loss, np.concatenate([pull_terms, push_terms]), coeff, x,
                   dist)


def lifted_loss(embeddings, pairing, metric, m, mode):
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    pairs = np.asarray(pairing, dtype=np.intp).reshape(-1, 2)
    a, p = pairs.T
    dist = pairwise_distances(x, metric)
    d = dist.values
    outer = MarginMode.hard(0.0) if mode.kind == "hard" else mode
    terms = np.arange(len(pairs))
    negative = np.ones((len(pairs), n), dtype=bool)
    negative[terms, a] = negative[terms, p] = False
    exps = np.where(np.tile(negative, 2), m - np.hstack([d[a], d[p]]), -np.inf)
    lse, weights = _logsumexp_softmax(exps)
    inner = d[a, p] + lse
    per_term = margin_apply(inner, outer)
    g = margin_apply_grad(inner, outer) / len(pairs)
    rows = -g[:, None] * weights
    rows[terms, p] += g
    coeff = np.zeros((n, n))
    np.add.at(coeff, pairs.ravel(), rows.reshape(-1, n))
    return _finish(per_term.mean(), per_term, coeff, x, dist)


def lifted_generalized_loss(embeddings, labels, metric, m, mode):
    validate_pk(labels)
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    dist = pairwise_distances(x, metric)
    d = dist.values
    pos, neg = _masks(labels.identities)
    outer = MarginMode.hard(0.0) if mode.kind == "hard" else mode
    lse_pos, soft_pos = _logsumexp_softmax(np.where(pos, d, -np.inf))
    lse_neg, soft_neg = _logsumexp_softmax(np.where(neg, m - d, -np.inf))
    inner = lse_pos + lse_neg
    per_term = margin_apply(inner, outer)
    g = margin_apply_grad(inner, outer)[:, None] / n
    coeff = g * soft_pos - g * soft_neg
    return _finish(per_term.mean(), per_term, coeff, x, dist)


def _inner_margin(cfg, soft_m):
    return cfg.margin.m if cfg.margin.kind == "hard" else soft_m


def _reference_lifted(emb, labels, cfg):
    pos, _ = _masks(labels.identities)
    return lifted_loss(emb, np.argwhere(np.triu(pos)), cfg.metric,
                       _inner_margin(cfg, 1.0), cfg.margin)


def _reference_lmnn(emb, labels, cfg):
    pos, _ = _masks(labels.identities)
    anchors = np.flatnonzero(pos.any(axis=1))
    targets = dict(zip(anchors.tolist(), pos.argmax(axis=1)[anchors].tolist()))
    return lmnn_loss(emb, labels, targets, _inner_margin(cfg, 0.2), cfg.metric)


REFERENCE = {
    "triplet": lambda e, l, c: classic_triplet_loss(e, c.metric, c.margin),
    "triplet_ohm": lambda e, l, c: classic_triplet_loss(e, c.metric, c.margin),
    "batch_hard": lambda e, l, c: batch_hard_loss(e, l, c.metric, c.margin),
    "batch_hard_nnz": lambda e, l, c: batch_hard_loss(e, l, c.metric, c.margin,
                                                      "nonzero"),
    "batch_all": lambda e, l, c: batch_all_loss(e, l, c.metric, c.margin),
    "batch_all_nnz": lambda e, l, c: batch_all_loss(e, l, c.metric, c.margin,
                                                    "nonzero"),
    "lifted": _reference_lifted,
    "lifted_gen": lambda e, l, c: lifted_generalized_loss(
        e, l, c.metric, _inner_margin(c, 1.0), c.margin),
    "lmnn": _reference_lmnn,
}


# ---- batches --------------------------------------------------------------

def _embeddings(rng, n, variant):
    d = int(rng.integers(2, 9))
    if variant == "ties":       # small integer grid: many exactly equal distances
        return rng.integers(-1, 2, size=(n, d)).astype(np.float64)
    x = rng.standard_normal((n, d)) * rng.choice([0.05, 1.0, 4.0])
    if variant == "repeats":    # copies of rows, within and across identities
        for _ in range(int(rng.integers(1, n // 2 + 2))):
            x[rng.integers(n)] = x[rng.integers(n)]
    return x


def _pk_batch(rng, variant):
    p, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
    ids = rng.permutation(50)[:p]
    identities = np.repeat(ids, k)
    if rng.random() < 0.5:      # rows of an identity need not be adjacent
        identities = rng.permutation(identities)
    return _embeddings(rng, p * k, variant), BatchLabels(identities, p, k)


def _triplet_batch(rng, variant):
    x, labels = _pk_batch(rng, variant)
    ids = labels.identities
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        a = int(rng.integers(len(ids)))
        rows += [a, int(rng.choice(np.flatnonzero(ids == ids[a]))),
                 int(rng.choice(np.flatnonzero(ids != ids[a])))]
    return x[rows], BatchLabels(ids[rows])


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ---- tests ----------------------------------------------------------------

@pytest.mark.parametrize("variant", ["plain", "repeats", "ties"])
@pytest.mark.parametrize("margin", [MarginMode.hard(0.2), MarginMode.soft()],
                         ids=["hinge", "soft"])
@pytest.mark.parametrize("metric", ["euclidean", "squared_euclidean"])
@pytest.mark.parametrize("name", losses.LOSS_NAMES)
def test_loss_matches_reference_bit_for_bit(name, metric, margin, variant):
    spec = losses.LOSSES[name]
    cfg = types.SimpleNamespace(metric=metric, margin=margin)
    rng = np.random.default_rng([losses.LOSS_NAMES.index(name),
                                 len(metric), len(variant), len(margin.kind)])
    make = _pk_batch if spec.batch == "pk" else _triplet_batch
    for _ in range(12):
        x, labels = make(rng, variant)
        got = spec.call(x, labels, *spec.reads(cfg))
        want = REFERENCE[name](x, labels, cfg)
        assert _same_bits(got.loss, want.loss)
        assert _same_bits(got.grad_embeddings, want.grad_embeddings)
        assert _same_bits(got.per_term, want.per_term)
        assert (got.num_terms, got.num_active) == (want.num_terms,
                                                   want.num_active)
        assert got.per_term.dtype == np.float64
        assert got.distances.metric == want.distances.metric
        assert _same_bits(got.distances.values, want.distances.values)
        assert _same_bits(got.distances.squared, want.distances.squared)


@pytest.mark.parametrize("metric", ["euclidean", "squared_euclidean"])
def test_distances_match_reference_bit_for_bit(metric):
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 17):
        for variant in ("plain", "repeats", "ties"):
            x = _embeddings(rng, n, variant)
            got, want = losses.pairwise_distances(x, metric), \
                pairwise_distances(x, metric)
            assert _same_bits(got.values, want.values)
            assert _same_bits(got.squared, want.squared)


@pytest.mark.parametrize("identities, P, K", [
    ([], None, None),
    ([4, 4, 4], None, None),
    ([0, 0, 1], None, None),
    ([0, 1, 1], None, None),
    ([0, 1, 2], None, None),
    ([2, 2, 1, 1, 1], None, None),
    ([5, 5, 3, 3, 3, 3], None, None),
    ([0, 0, 1, 1], 3, None),
    ([0, 0, 1, 1], None, 3),
    ([0, 0, 1, 1], 3, 3),
    ([3, 1, 3, 1], None, None),
    ([3, 1, 3, 1, 2, 2], 3, 2),
])
def test_validate_pk_matches_reference(identities, P, K):
    labels = BatchLabels(np.array(identities, dtype=np.int64), P, K)
    try:
        want = validate_pk(labels)
    except BatchContractError as exc:
        with pytest.raises(BatchContractError) as got:
            labels.validate_pk()
        assert str(got.value) == str(exc)
        if len(identities) >= 2:    # PK losses raise the same message
            x = np.zeros((len(identities), 2))
            for loss in (losses.batch_hard_loss, losses.batch_all_loss,
                         losses.lifted_generalized_loss):
                with pytest.raises(BatchContractError) as got:
                    loss(x, labels)
                assert str(got.value) == str(exc)
    else:
        got = labels.validate_pk()
        assert got == want
        assert all(type(v) is int for v in got)


def test_classic_row_count_message_unchanged():
    for n in (0, 4):
        with pytest.raises(BatchContractError) as got:
            losses.classic_triplet_loss(np.zeros((n, 2)))
        with pytest.raises(BatchContractError) as want:
            classic_triplet_loss(np.zeros((n, 2)), "euclidean",
                                 MarginMode.hard(0.2))
        assert str(got.value) == str(want.value)
