"""Pairwise distances, margin modes, and the triplet-loss design space.

Every loss returns a LossReport carrying the scalar loss, the analytic
gradient with respect to the embedding batch, per-term bookkeeping, and the
distance matrix it was computed from.
Gradients are assembled by accumulating d(loss)/d(D[a,b]) coefficients into
an N x N matrix and chaining through the distance metric once at the end.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.special import expit, log1p, logsumexp, softmax

ACTIVE_THRESHOLD = 1e-5

Metric = Literal["euclidean", "squared_euclidean"]

EUCLID_SQ_FLOOR = 1e-24
EUCLID_GRAD_FLOOR = 1e-12


class BatchContractError(ValueError):
    """Batch labels or layout violate a loss precondition."""


@dataclass
class MarginMode:
    """Hard hinge with additive margin m, or the margin-free softplus."""

    kind: Literal["hard", "soft"]
    m: float = 0.0

    def __post_init__(self):
        if self.kind == "hard" and self.m < 0:
            raise ValueError("hard margin must be nonnegative")

    @classmethod
    def hard(cls, m: float) -> "MarginMode":
        return cls("hard", m)

    @classmethod
    def soft(cls) -> "MarginMode":
        return cls("soft")


def margin_apply(x, mode: MarginMode):
    """hard(m): max(0, m + x); soft: softplus(x), overflow-safe."""
    x = np.asarray(x, dtype=np.float64)
    if mode.kind == "hard":
        return np.maximum(0.0, mode.m + x)
    # stable softplus: max(x, 0) + log1p(exp(-|x|))
    return np.maximum(x, 0.0) + log1p(np.exp(-np.abs(x)))


def margin_apply_grad(x, mode: MarginMode):
    x = np.asarray(x, dtype=np.float64)
    if mode.kind == "hard":
        return np.where(mode.m + x > 0, 1.0, 0.0)
    return expit(x)


@dataclass
class DistanceMatrix:
    values: np.ndarray
    metric: Metric
    squared: np.ndarray     # clamped squared euclidean distances


def pairwise_distances(embeddings: np.ndarray, metric: Metric = "euclidean") -> DistanceMatrix:
    """All pairwise distances among rows; euclidean uses a clamped sqrt."""
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


def _chain_through_metric(embeddings: np.ndarray, dist: DistanceMatrix,
                          coeff: np.ndarray) -> np.ndarray:
    """Turn d(loss)/d(D[a,b]) coefficients into a gradient on the rows.

    coeff[a, b] is the accumulated derivative of the loss w.r.t. D(a, b),
    anchor-first indexing. D is symmetric so both rows of a pair receive
    opposite-signed contributions.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    w = coeff + coeff.T
    if dist.metric == "squared_euclidean":
        k = 2.0 * w
    else:
        denom = np.maximum(dist.values, EUCLID_GRAD_FLOOR)
        k = w / denom
    np.fill_diagonal(k, 0.0)
    return k.sum(axis=1)[:, None] * x - k @ x


@dataclass
class BatchLabels:
    """Per-row identity labels, optionally carrying the (P, K) structure."""

    identities: np.ndarray
    P: int | None = None
    K: int | None = None

    def __post_init__(self):
        self.identities = np.asarray(self.identities)

    def validate_pk(self) -> tuple[int, int]:
        ids, counts = np.unique(self.identities, return_counts=True)
        p = len(ids)
        if p < 2:
            raise BatchContractError("PK batch needs at least 2 identities")
        k = counts[0]
        if k < 2 or not np.all(counts == k):
            raise BatchContractError(
                "PK batch needs every identity exactly K >= 2 times")
        if self.P is not None and self.P != p:
            raise BatchContractError(f"declared P={self.P}, found {p}")
        if self.K is not None and self.K != k:
            raise BatchContractError(f"declared K={self.K}, found {k}")
        return p, int(k)


@dataclass
class LossReport:
    loss: float
    grad_embeddings: np.ndarray
    num_terms: int
    num_active: int
    per_term: np.ndarray
    distances: DistanceMatrix   # the matrix the loss was computed from

    @property
    def active_fraction(self) -> float:
        return self.num_active / self.num_terms if self.num_terms else 0.0


def _masks(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(len(labels), dtype=bool)
    neg = ~same
    return pos, neg


def triplet_differences(d: np.ndarray, ids: np.ndarray, lo: int = 0,
                        hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """xvals[a, p, n] = D(a,p) - D(a,n) for the anchors in rows lo..hi-1 of
    `d`, and the mask of valid triplets (p != a shares a's label, n does not).
    """
    rows = d[lo:hi]
    same = ids[lo:lo + len(rows), None] == ids[None, :]
    pos = same & (np.arange(lo, lo + len(rows))[:, None] != np.arange(len(d)))
    return rows[:, :, None] - rows[:, None, :], pos[:, :, None] & ~same[:, None, :]


def _finish(loss: float, per_term: np.ndarray, coeff: np.ndarray,
            embeddings: np.ndarray, dist: DistanceMatrix) -> LossReport:
    grad = _chain_through_metric(embeddings, dist, coeff)
    num_active = int(np.sum(np.asarray(per_term) > ACTIVE_THRESHOLD))
    return LossReport(float(loss), grad, len(per_term), num_active,
                      np.asarray(per_term, dtype=np.float64), dist)


def batch_hard_loss(embeddings: np.ndarray, labels: BatchLabels,
                    metric: Metric = "euclidean",
                    mode: MarginMode = MarginMode.hard(0.2),
                    averaging: Literal["all", "nonzero"] = "all") -> LossReport:
    """Hardest-positive minus hardest-negative per anchor, averaged.

    Ties in the max/min are broken toward the lowest row index so the
    gradient is deterministic.
    """
    labels.validate_pk()
    x = np.asarray(embeddings, dtype=np.float64)
    dist = pairwise_distances(x, metric)
    d = dist.values
    n = len(x)
    pos, neg = _masks(labels.identities)

    dpos = np.where(pos, d, -np.inf)
    dneg = np.where(neg, d, np.inf)
    hardest_pos = np.argmax(dpos, axis=1)   # argmax/argmin take the first tie
    hardest_neg = np.argmin(dneg, axis=1)
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
        active = (per_term > ACTIVE_THRESHOLD) if averaging == "nonzero" else np.ones(n, bool)
        scale = g * active / divisor
        np.add.at(coeff, (rows, hardest_pos), scale)
        np.add.at(coeff, (rows, hardest_neg), -scale)
        loss = float(np.sum(per_term * active) / divisor)
    else:
        loss = 0.0
    return _finish(loss, per_term, coeff, x, dist)


def batch_all_loss(embeddings: np.ndarray, labels: BatchLabels,
                   metric: Metric = "euclidean",
                   mode: MarginMode = MarginMode.hard(0.2),
                   averaging: Literal["all", "nonzero"] = "all") -> LossReport:
    """Sum over every valid (a, p, n) triplet in the PK batch."""
    labels.validate_pk()
    x = np.asarray(embeddings, dtype=np.float64)
    dist = pairwise_distances(x, metric)
    d = dist.values
    n = len(x)
    xvals, valid = triplet_differences(d, labels.identities)
    per_term = margin_apply(xvals, mode)[valid]
    num_terms = int(valid.sum())

    if averaging == "nonzero":
        divisor = int(np.sum(per_term > ACTIVE_THRESHOLD))
    else:
        divisor = num_terms

    coeff = np.zeros((n, n))
    loss = 0.0
    if divisor > 0:
        g = margin_apply_grad(xvals, mode) * valid
        if averaging == "nonzero":
            g = g * (margin_apply(xvals, mode) > ACTIVE_THRESHOLD)
            loss = float(np.sum(per_term[per_term > ACTIVE_THRESHOLD]) / divisor)
        else:
            loss = float(per_term.sum() / divisor)
        g = g / divisor
        coeff += g.sum(axis=2)          # d/dD(a,p)
        coeff -= g.sum(axis=1)          # d/dD(a,n)
    report = _finish(loss, per_term, coeff, x, dist)
    report.num_terms = num_terms
    return report


def classic_triplet_loss(embeddings: np.ndarray,
                         metric: Metric = "euclidean",
                         mode: MarginMode = MarginMode.hard(0.2)) -> LossReport:
    """Rows grouped as (anchor, positive, negative) triples; mean over triples."""
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


def lmnn_loss(embeddings: np.ndarray, labels: BatchLabels,
              target_neighbors: dict[int, int], mu: float = 0.5,
              m: float = 0.2, metric: Metric = "euclidean") -> LossReport:
    """Pull toward fixed target neighbors, push differently labeled points.

    Pull and push sums are normalized by their own term counts before the
    (1-mu)/mu weighting. Pull terms come in anchor order, then the push
    terms of each anchor in row order.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must be in [0, 1]")
    x = np.asarray(embeddings, dtype=np.float64)
    ids = labels.identities
    n = len(x)
    dist = pairwise_distances(x, metric)
    d = dist.values
    if not target_neighbors:
        raise BatchContractError("need at least one target neighbor")
    anchors, targets = np.array(sorted(target_neighbors.items()),
                                dtype=np.intp).T
    bad = (ids[anchors] != ids[targets]) | (anchors == targets)
    if bad.any():
        i = int(np.argmax(bad))
        raise BatchContractError(
            f"target neighbor {targets[i]} of anchor {anchors[i]} must be a "
            "distinct same-class item")

    coeff = np.zeros((n, n))
    pull_terms = d[anchors, targets]
    n_pull = len(anchors)
    coeff[anchors, targets] = (1 - mu) / n_pull

    # push term over (a, n) pairs with differing labels
    push_pairs = ids[anchors, None] != ids[None, :]
    v = m + pull_terms[:, None] - d[anchors]
    push_terms = np.maximum(0.0, v[push_pairs])
    n_push = max(len(push_terms), 1)    # no push pairs: the push sum is 0
    hinged = mu * ((v > 0) & push_pairs) / n_push
    coeff[anchors] -= hinged
    coeff[anchors, targets] += hinged.sum(axis=1)

    loss = (1 - mu) * (pull_terms.sum() / n_pull) + mu * (push_terms.sum() / n_push)
    return _finish(loss, np.concatenate([pull_terms, push_terms]), coeff, x,
                   dist)


def lifted_loss(embeddings: np.ndarray, pairing: np.ndarray | list,
                metric: Metric = "euclidean", m: float = 0.2,
                mode: MarginMode = MarginMode.hard(0.0),
                labels: BatchLabels | None = None) -> LossReport:
    """One-positive lifted loss: every non-pair row is a negative for both ends.

    `pairing` lists (anchor, positive) pairs, as tuples or an (n, 2) array.
    `mode` selects the outer clamp only (plain hinge or softplus); the margin
    m lives inside the exponentials. When labels are given the same-class
    pairing precondition is checked.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    pairs = np.asarray(pairing, dtype=np.intp).reshape(-1, 2)
    if len(pairs) == 0:
        raise BatchContractError("need at least one (anchor, positive) pair")
    a, p = pairs.T
    if np.any(a == p):
        raise BatchContractError("anchor and positive must differ")
    cross = labels is not None and labels.identities[a] != labels.identities[p]
    if np.any(cross):
        i = np.argmax(cross)
        raise BatchContractError(f"pair ({a[i]}, {p[i]}) is not same-class")
    if n < 3:
        raise BatchContractError("lifted loss needs at least one negative")
    dist = pairwise_distances(x, metric)
    d = dist.values
    outer = MarginMode.hard(0.0) if mode.kind == "hard" else mode

    # row i: m - D(a_i, .) then m - D(p_i, .), both ends of the pair masked
    terms = np.arange(len(pairs))
    negative = np.ones((len(pairs), n), dtype=bool)
    negative[terms, a] = negative[terms, p] = False
    exps = np.where(np.tile(negative, 2), m - np.hstack([d[a], d[p]]), -np.inf)
    inner = d[a, p] + logsumexp(exps, axis=1)
    per_term = margin_apply(inner, outer)
    g = margin_apply_grad(inner, outer) / len(pairs)
    # d/dD(a_i, .) then d/dD(p_i, .); the a_i half also holds +g at p_i.
    # Reshaped, the rows go a_0, p_0, a_1, p_1, ... as `pairs.ravel()`.
    rows = -g[:, None] * softmax(exps, axis=1)
    rows[terms, p] += g
    coeff = np.zeros((n, n))
    np.add.at(coeff, pairs.ravel(), rows.reshape(-1, n))
    return _finish(per_term.mean(), per_term, coeff, x, dist)


def lifted_generalized_loss(embeddings: np.ndarray, labels: BatchLabels,
                            metric: Metric = "euclidean", m: float = 0.2,
                            mode: MarginMode = MarginMode.hard(0.0)) -> LossReport:
    """PK generalization of the lifted loss using all positives per anchor."""
    labels.validate_pk()
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    dist = pairwise_distances(x, metric)
    d = dist.values
    pos, neg = _masks(labels.identities)
    outer = MarginMode.hard(0.0) if mode.kind == "hard" else mode

    pos_exps = np.where(pos, d, -np.inf)
    neg_exps = np.where(neg, m - d, -np.inf)
    inner = logsumexp(pos_exps, axis=1) + logsumexp(neg_exps, axis=1)
    per_term = margin_apply(inner, outer)
    g = margin_apply_grad(inner, outer)[:, None] / n
    coeff = g * softmax(pos_exps, axis=1) - g * softmax(neg_exps, axis=1)
    return _finish(per_term.mean(), per_term, coeff, x, dist)


@dataclass(frozen=True)
class LossSpec:
    """One registry entry: the batch the trainer feeds the loss ("random"
    or offline-"mined" triplets, or a "pk" batch), and `apply(embeddings,
    labels, cfg)`, which calls the loss as a `training.RunConfig` asks."""

    name: str
    batch: Literal["random", "mined", "pk"]
    apply: Callable[..., LossReport]


def _inner_margin(cfg, soft_m: float) -> float:
    """The hinge margin m, or `soft_m` when a loss that keeps its margin
    inside (lifted, LMNN) is run with the soft margin."""
    return cfg.margin.m if cfg.margin.kind == "hard" else soft_m


def _lifted(emb, labels, cfg):
    pos, _ = _masks(labels.identities)
    return lifted_loss(emb, np.argwhere(np.triu(pos)), cfg.metric,
                       _inner_margin(cfg, 1.0), cfg.margin, labels)


def _lmnn(emb, labels, cfg):
    # the target neighbor of each anchor is its first same-class row
    pos, _ = _masks(labels.identities)
    anchors = np.flatnonzero(pos.any(axis=1))
    targets = dict(zip(anchors.tolist(), pos.argmax(axis=1)[anchors].tolist()))
    return lmnn_loss(emb, labels, targets, m=_inner_margin(cfg, 0.2),
                     metric=cfg.metric)


# Closed loss enumeration for the trainer, the CLI and the benchmark grid.
# Entries call the losses through the module globals, so that a wrapper
# put in their place (a tracer, a test double) is what runs.
LOSSES = {spec.name: spec for spec in (
    LossSpec("triplet", "random", lambda emb, labels, cfg:
             classic_triplet_loss(emb, cfg.metric, cfg.margin)),
    LossSpec("triplet_ohm", "mined", lambda emb, labels, cfg:
             classic_triplet_loss(emb, cfg.metric, cfg.margin)),
    LossSpec("batch_hard", "pk", lambda emb, labels, cfg: batch_hard_loss(
        emb, labels, cfg.metric, cfg.margin)),
    LossSpec("batch_hard_nnz", "pk", lambda emb, labels, cfg: batch_hard_loss(
        emb, labels, cfg.metric, cfg.margin, "nonzero")),
    LossSpec("batch_all", "pk", lambda emb, labels, cfg: batch_all_loss(
        emb, labels, cfg.metric, cfg.margin)),
    LossSpec("batch_all_nnz", "pk", lambda emb, labels, cfg: batch_all_loss(
        emb, labels, cfg.metric, cfg.margin, "nonzero")),
    LossSpec("lifted", "pk", _lifted),
    LossSpec("lifted_gen", "pk", lambda emb, labels, cfg:
             lifted_generalized_loss(emb, labels, cfg.metric,
                                     _inner_margin(cfg, 1.0), cfg.margin)),
    LossSpec("lmnn", "pk", _lmnn),
)}
LOSS_NAMES = tuple(LOSSES)


def parse_margin(text: str) -> MarginMode:
    """Parse a CLI margin value: 'soft' or any nonnegative real."""
    if text == "soft":
        return MarginMode.soft()
    m = float(text)
    return MarginMode.hard(m)
