"""Pairwise distances, margin modes, and the triplet-loss design space.

Every loss returns a LossReport carrying the scalar loss, the analytic
gradient with respect to the embedding batch, per-term bookkeeping, and the
distance matrix it was computed from.
Gradients are assembled by accumulating d(loss)/d(D[a,b]) coefficients into
an N x N matrix and chaining through the distance metric once at the end.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, get_args

import numpy as np

ACTIVE_THRESHOLD = 1e-5

Metric = Literal["euclidean", "squared_euclidean"]
METRICS: tuple[Metric, ...] = get_args(Metric)

EUCLID_SQ_FLOOR = 1e-24
EUCLID_GRAD_FLOOR = 1e-12


class BatchContractError(ValueError):
    """Batch labels or layout violate a loss precondition."""


@dataclass(frozen=True)
class MarginMode:
    """Hard hinge with additive margin m, or the margin-free softplus."""

    kind: Literal["hard", "soft"]
    m: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise ValueError(f"margin must be finite, got {self.m}")
        if self.kind == "hard" and self.m < 0:
            raise ValueError("hard margin must be nonnegative")

    @classmethod
    def hard(cls, m: float) -> "MarginMode":
        return cls("hard", m)

    @classmethod
    def soft(cls) -> "MarginMode":
        return cls("soft")


def margin_apply(x, mode: MarginMode):
    """hard(m): max(0, m + x); soft: softplus(x) = log(1 + e^x), overflow-safe."""
    x = np.asarray(x, dtype=np.float64)
    if mode.kind == "hard":
        return np.maximum(0.0, mode.m + x)
    return np.logaddexp(0.0, x)


def margin_apply_grad(x, mode: MarginMode):
    """The slope of `margin_apply`: a step, or the logistic 1 / (1 + e^-x)."""
    x = np.asarray(x, dtype=np.float64)
    if mode.kind == "hard":
        return np.where(mode.m + x > 0, 1.0, 0.0)
    return np.exp(-np.logaddexp(0.0, -x))     # no overflow for x << 0


@dataclass
class DistanceMatrix:
    values: np.ndarray
    metric: Metric
    squared: np.ndarray     # clamped squared euclidean distances


def pairwise_distances(embeddings: np.ndarray, metric: Metric = "euclidean") -> DistanceMatrix:
    """All pairwise distances among rows; euclidean uses a clamped sqrt."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    sq = np.add.reduce(x * x, axis=1)
    # (|a|^2 + |b|^2) - 2 a.b, clamped at 0, zero diagonal; symmetric as
    # it is, since NumPy computes x @ x.T as one symmetric product
    gram = x @ x.T
    gram *= 2.0
    d2 = sq[:, None] + sq
    d2 -= gram
    np.maximum(d2, 0.0, out=d2)
    d2.ravel()[::n + 1] = 0.0
    if metric == "squared_euclidean":
        return DistanceMatrix(d2, metric, d2)
    if metric == "euclidean":
        d = np.maximum(d2, EUCLID_SQ_FLOOR)
        np.sqrt(d, out=d)
        d.ravel()[::n + 1] = 0.0
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
    k = coeff + coeff.T
    if dist.metric == "squared_euclidean":
        k *= 2.0
    else:
        k /= np.maximum(dist.values, EUCLID_GRAD_FLOOR)
    k.ravel()[::len(k) + 1] = 0.0
    return np.add.reduce(k, axis=1)[:, None] * x - k @ x


def _read_only(*arrays: np.ndarray) -> None:
    """Make arrays that are cached and shared refuse writes."""
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class BatchLabels:
    """Per-row identity labels, optionally carrying the (P, K) structure.

    An immutable value: `identities` is a read-only copy, and each
    structure the losses derive from it is built on first use and kept,
    read-only. A training run whose batches share one label layout builds
    one object and derives its masks, pairs and targets once.
    """

    identities: np.ndarray
    P: int | None = None
    K: int | None = None

    def __post_init__(self):
        identities = np.array(self.identities)
        _read_only(identities)
        object.__setattr__(self, "identities", identities)

    def same_label(self) -> np.ndarray:
        """same[i, j] is True when rows i and j carry one identity."""
        return self._same

    @cached_property
    def _same(self) -> np.ndarray:
        same = self.identities[:, None] == self.identities[None, :]
        _read_only(same)
        return same

    def validate_pk(self) -> tuple[int, int]:
        """(P, K) of a PK batch, or BatchContractError."""
        return self._pk

    @cached_property
    def _pk(self) -> tuple[int, int]:
        # rows sharing each row's identity
        counts = self.same_label().sum(axis=1).tolist()
        n = len(counts)
        if n == 0 or counts[0] == n:
            raise BatchContractError("PK batch needs at least 2 identities")
        k = counts[0]
        if k < 2 or counts.count(k) != n:
            raise BatchContractError(
                "PK batch needs every identity exactly K >= 2 times")
        p = n // k
        if self.P is not None and self.P != p:
            raise BatchContractError(f"declared P={self.P}, found {p}")
        if self.K is not None and self.K != k:
            raise BatchContractError(f"declared K={self.K}, found {k}")
        return p, k

    @cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Positive (same identity, other row) and negative masks."""
        same = self.same_label()
        pos = same.copy()
        pos.flat[::len(pos) + 1] = False
        neg = ~same
        _read_only(pos, neg)
        return pos, neg

    @cached_property
    def lifted_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every same-identity pair (a, p) with a < p, in row-major order,
        and the `_lifted_negatives` mask of those pairs."""
        pos, _ = self.masks
        pairs = np.argwhere(pos)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        negative = _lifted_negatives(pairs, len(pos))
        _read_only(pairs, negative)
        return pairs, negative

    @cached_property
    def lmnn_targets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The anchors that have a same-identity row, in row order, the
        first such row of each (its target neighbor), and the mask of
        each anchor's differently labeled rows."""
        pos, _ = self.masks
        anchors = np.flatnonzero(pos.any(axis=1))
        targets = pos.argmax(axis=1)[anchors]
        push = _push_pairs(self.identities, anchors)
        _read_only(anchors, targets, push)
        return anchors, targets, push


@dataclass
class LossReport:
    loss: float
    grad_embeddings: np.ndarray
    num_active: int
    per_term: np.ndarray
    distances: DistanceMatrix   # the matrix the loss was computed from

    @property
    def num_terms(self) -> int:
        return len(self.per_term)

    @property
    def active_fraction(self) -> float:
        return self.num_active / self.num_terms if self.num_terms else 0.0


def _logsumexp_softmax(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-sum-exp of `a` and its softmax, from one shifted exp.

    Masked entries are -inf; every row needs at least one finite entry.
    """
    top = a.max(axis=1, keepdims=True)
    e = np.exp(a - top)
    total = e.sum(axis=1, keepdims=True)
    return np.log(total[:, 0]) + top[:, 0], e / total


def _mean(a: np.ndarray) -> np.float64:
    """`a.mean()` of a non-empty vector, without its Python-level wrapper."""
    return a.sum() / len(a)


def _finish(loss: float, per_term: np.ndarray, coeff: np.ndarray,
            embeddings: np.ndarray, dist: DistanceMatrix) -> LossReport:
    """The report of a loss whose float64 `per_term` is built."""
    grad = _chain_through_metric(embeddings, dist, coeff)
    num_active = int(np.count_nonzero(per_term > ACTIVE_THRESHOLD))
    return LossReport(float(loss), grad, num_active, per_term, dist)


def _triplet_terms(x: np.ndarray, dist: DistanceMatrix, ap: np.ndarray,
                   an: np.ndarray, mode: MarginMode,
                   averaging: Literal["all", "nonzero"]) -> LossReport:
    """The loss over triplets (a, p, n) of rows of `x`, given as the flat
    indices ap = a*N + p and an = a*N + n of D(a,p) and D(a,n) in the
    (N, N) distances: the margin of D(a,p) - D(a,n), averaged over every
    term or over the active ones. No (a, p) or (a, n) pair occurs twice,
    so each coefficient is set once and needs no accumulation."""
    d = dist.values.ravel()
    xvals = d[ap] - d[an]
    per_term = margin_apply(xvals, mode)
    g = margin_apply_grad(xvals, mode)
    kept = per_term
    divisor = len(per_term)
    if averaging == "nonzero":
        active = per_term > ACTIVE_THRESHOLD
        divisor = int(np.count_nonzero(active))
        g, kept = g * active, per_term * active
    coeff = np.zeros((len(x), len(x)))
    loss = 0.0
    if divisor > 0:
        g = g / divisor
        flat = coeff.ravel()
        flat[ap] = g
        flat[an] = -g
        loss = kept.sum() / divisor
    return _finish(loss, per_term, coeff, x, dist)


def batch_hard_loss(embeddings: np.ndarray, labels: BatchLabels,
                    metric: Metric = "euclidean",
                    mode: MarginMode = MarginMode.hard(0.2),
                    averaging: Literal["all", "nonzero"] = "all") -> LossReport:
    """Hardest-positive minus hardest-negative per anchor, averaged.

    Ties in the max/min are broken toward the lowest row index so the
    gradient is deterministic.
    """
    labels.validate_pk()
    pos, neg = labels.masks
    x = np.asarray(embeddings, dtype=np.float64)
    _check_labels(labels, len(x))
    dist = pairwise_distances(x, metric)
    d = dist.values
    # argmax/argmin take the first tie
    hardest_pos = np.where(pos, d, -np.inf).argmax(axis=1)
    hardest_neg = np.where(neg, d, np.inf).argmin(axis=1)
    anchors = np.arange(0, d.size, len(d))     # flat index of D(a, 0)
    return _triplet_terms(x, dist, anchors + hardest_pos,
                          anchors + hardest_neg, mode, averaging)


def batch_all_loss(embeddings: np.ndarray, labels: BatchLabels,
                   metric: Metric = "euclidean",
                   mode: MarginMode = MarginMode.hard(0.2),
                   averaging: Literal["all", "nonzero"] = "all") -> LossReport:
    """Sum over every valid (a, p, n) triplet in the PK batch.

    The terms are D(a, p) - D(a, q) over each anchor a, its K-1 positives
    p and its n-K negatives q, in ascending (a, p, q) order. Row (a, j) of
    an (n, K-1, n) array takes their gradient as row (a, p_j) of the whole
    (n, n, n) cube holds it, p_j the j-th positive of a, zeros included;
    the cube's other rows are all zero. So its two axis sums add the
    coefficients up in the order a sum over that cube takes.
    """
    labels.validate_pk()
    pos, neg = labels.masks
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    _check_labels(labels, n)
    dist = pairwise_distances(x, metric)
    d = dist.values
    d_ap = d[pos].reshape(n, -1, 1)
    xvals = (d_ap - d[neg].reshape(n, 1, -1)).ravel()
    per_term = margin_apply(xvals, mode)

    if averaging == "nonzero":
        active = per_term > ACTIVE_THRESHOLD
        divisor = int(np.count_nonzero(active))
    else:
        divisor = len(per_term)

    coeff = np.zeros((n, n))
    loss = 0.0
    if divisor > 0:
        g = margin_apply_grad(xvals, mode)
        if averaging == "nonzero":
            g *= active
            loss = float(per_term[active].sum() / divisor)
        else:
            loss = float(per_term.sum() / divisor)
        g /= divisor
        rows = np.zeros((d_ap.size, n))
        rows[np.repeat(neg, d_ap.shape[1], axis=0)] = g
        coeff[pos] = np.add.reduce(rows, axis=1)      # d/dD(a,p)
        coeff -= np.add.reduce(rows.reshape(n, -1, n), axis=1)     # d/dD(a,q)
    return _finish(loss, per_term, coeff, x, dist)


def classic_triplet_loss(embeddings: np.ndarray,
                         metric: Metric = "euclidean",
                         mode: MarginMode = MarginMode.hard(0.2)) -> LossReport:
    """Rows grouped as (anchor, positive, negative) triples; mean over triples."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    if n == 0 or n % 3 != 0:
        raise BatchContractError("row count must be a positive multiple of 3")
    ap = np.arange(0, n, 3) * (n + 1) + 1       # flat index of D(a, a+1)
    return _triplet_terms(x, pairwise_distances(x, metric), ap, ap + 1,
                          mode, "all")


def _push_pairs(identities: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """push[i, j]: row j's identity differs from that of row anchors[i]."""
    return identities[anchors, None] != identities[None, :]


def lmnn_loss(embeddings: np.ndarray, labels: BatchLabels,
              target_neighbors: dict[int, int] | None = None, mu: float = 0.5,
              m: float = 0.2, metric: Metric = "euclidean") -> LossReport:
    """Pull toward fixed target neighbors, push differently labeled points.

    `target_neighbors` maps anchors to distinct same-class rows; None
    takes each row's first same-class row, derived once per `labels`.
    Pull and push sums are normalized by their own term counts before the
    (1-mu)/mu weighting. Pull terms come in anchor order, then the push
    terms of each anchor in row order.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must be in [0, 1]")
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    _check_labels(labels, n)
    dist = pairwise_distances(x, metric)
    d = dist.values
    if target_neighbors is None:
        anchors, targets, push_pairs = labels.lmnn_targets
        if len(anchors) == 0:
            raise BatchContractError("need at least one target neighbor")
    else:
        anchors, targets = _checked_targets(labels.identities,
                                            target_neighbors, n)
        push_pairs = _push_pairs(labels.identities, anchors)

    coeff = np.zeros((n, n))
    pulled = anchors * n + targets      # flat index of D(a, t)
    flat = coeff.ravel()
    pull_terms = d.ravel()[pulled]
    n_pull = len(anchors)
    flat[pulled] = (1 - mu) / n_pull

    # push term over (a, n) pairs with differing labels
    v = m + pull_terms[:, None] - d[anchors]
    push_terms = np.maximum(0.0, v[push_pairs])
    n_push = max(len(push_terms), 1)    # no push pairs: the push sum is 0
    hinged = mu * ((v > 0) & push_pairs) / n_push
    coeff[anchors] -= hinged
    flat[pulled] += hinged.sum(axis=1)

    loss = (1 - mu) * (pull_terms.sum() / n_pull) + mu * (push_terms.sum() / n_push)
    return _finish(loss, np.concatenate([pull_terms, push_terms]), coeff, x,
                   dist)


def _check_labels(labels: BatchLabels, n: int) -> None:
    """BatchContractError unless `labels` has one entry per embedding row."""
    if len(labels.identities) != n:
        raise BatchContractError(f"{len(labels.identities)} labels for the "
                                 f"{n} rows of the batch")


def _rows(index, n: int) -> np.ndarray:
    """`index` as an intp array, or BatchContractError unless every entry
    is an integer row of an n-row batch: NumPy would truncate a float,
    raise IndexError past the end and wrap a negative."""
    index = np.asarray(index)
    if index.size and index.dtype.kind not in "iu":
        raise BatchContractError(
            f"row indices must be integers, got {index.dtype} values")
    index = index.astype(np.intp)
    outside = (index < 0) | (index >= n)
    if outside.any():
        raise BatchContractError(
            f"index {index[outside][0]} is not a row of the {n}-row batch")
    return index


def _checked_targets(ids: np.ndarray, target_neighbors: dict[int, int],
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchors in ascending order and their target neighbors, each a
    distinct row of the anchor's identity, or BatchContractError."""
    if not target_neighbors:
        raise BatchContractError("need at least one target neighbor")
    pairs = _rows(sorted(target_neighbors.items()), n)
    anchors, targets = pairs.T
    bad = (ids[anchors] != ids[targets]) | (anchors == targets)
    if bad.any():
        i = int(np.argmax(bad))
        raise BatchContractError(
            f"target neighbor {targets[i]} of anchor {anchors[i]} must be a "
            "distinct same-class item")
    return anchors, targets


def _lifted_negatives(pairs: np.ndarray, n: int) -> np.ndarray:
    """(len(pairs), 2n) mask: row i holds every row but a_i and p_i, once
    for the a_i half of the lifted terms and once for the p_i half."""
    terms = np.arange(len(pairs))
    negative = np.ones((len(pairs), n), dtype=bool)
    negative[terms, pairs[:, 0]] = negative[terms, pairs[:, 1]] = False
    return np.concatenate((negative, negative), axis=1)


def lifted_loss(embeddings: np.ndarray,
                pairing: np.ndarray | list | None = None,
                metric: Metric = "euclidean", m: float = 0.2,
                mode: MarginMode = MarginMode.hard(0.0),
                labels: BatchLabels | None = None) -> LossReport:
    """One-positive lifted loss: every non-pair row is a negative for both ends.

    `pairing` lists (anchor, positive) pairs, as tuples or an (n, 2) array;
    None takes every same-class pair (a, p) with a < p of `labels`, derived
    once per `labels`. `mode` selects the outer clamp only (plain hinge or
    softplus); the margin m lives inside the exponentials. When both
    `pairing` and labels are given the same-class precondition is checked.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    if labels is not None:
        _check_labels(labels, n)
    if pairing is None:
        if labels is None:
            raise BatchContractError("lifted loss needs a pairing or labels")
        pairs, negative = labels.lifted_pairs
    else:
        pairs = _checked_pairs(pairing, labels, n)
        negative = None
    if len(pairs) == 0:
        raise BatchContractError("need at least one (anchor, positive) pair")
    if n < 3:
        raise BatchContractError("lifted loss needs at least one negative")
    if negative is None:
        negative = _lifted_negatives(pairs, n)
    a, p = pairs.T
    dist = pairwise_distances(x, metric)
    d = dist.values
    outer = MarginMode.hard(0.0) if mode.kind == "hard" else mode

    # row i: m - D(a_i, .) then m - D(p_i, .), both ends of the pair masked
    exps = np.where(negative, m - np.concatenate((d[a], d[p]), axis=1),
                    -np.inf)
    lse, weights = _logsumexp_softmax(exps)
    inner = d[a, p] + lse
    per_term = margin_apply(inner, outer)
    g = margin_apply_grad(inner, outer) / len(pairs)
    # d/dD(a_i, .) then d/dD(p_i, .); the a_i half also holds +g at p_i.
    # Reshaped, the rows go a_0, p_0, a_1, p_1, ... as `pairs.ravel()`.
    rows = -g[:, None] * weights
    rows[np.arange(len(pairs)), p] += g
    coeff = np.zeros((n, n))
    np.add.at(coeff, pairs.ravel(), rows.reshape(-1, n))
    return _finish(_mean(per_term), per_term, coeff, x, dist)


def _checked_pairs(pairing: np.ndarray | list, labels: BatchLabels | None,
                   n: int) -> np.ndarray:
    """`pairing` as a (pairs, 2) index array, or BatchContractError if an
    index is not a row of the n-row batch, a pair repeats a row or, when
    `labels` are given, a pair spans two identities."""
    pairs = _rows(pairing, n).reshape(-1, 2)
    a, p = pairs.T
    if (a == p).any():
        raise BatchContractError("anchor and positive must differ")
    if labels is not None:
        cross = labels.identities[a] != labels.identities[p]
        if cross.any():
            i = cross.argmax()
            raise BatchContractError(f"pair ({a[i]}, {p[i]}) is not same-class")
    return pairs


def lifted_generalized_loss(embeddings: np.ndarray, labels: BatchLabels,
                            metric: Metric = "euclidean", m: float = 0.2,
                            mode: MarginMode = MarginMode.hard(0.0)) -> LossReport:
    """PK generalization of the lifted loss using all positives per anchor."""
    labels.validate_pk()
    pos, neg = labels.masks
    x = np.asarray(embeddings, dtype=np.float64)
    n = len(x)
    _check_labels(labels, n)
    dist = pairwise_distances(x, metric)
    d = dist.values
    outer = MarginMode.hard(0.0) if mode.kind == "hard" else mode

    pos_exps = np.where(pos, d, -np.inf)
    neg_exps = np.where(neg, m - d, -np.inf)
    lse_pos, soft_pos = _logsumexp_softmax(pos_exps)
    lse_neg, soft_neg = _logsumexp_softmax(neg_exps)
    inner = lse_pos + lse_neg
    per_term = margin_apply(inner, outer)
    g = margin_apply_grad(inner, outer)[:, None] / n
    coeff = g * soft_pos - g * soft_neg
    return _finish(_mean(per_term), per_term, coeff, x, dist)


@dataclass(frozen=True)
class LossSpec:
    """One registry entry: the batch the trainer feeds the loss ("random"
    or offline-"mined" triplets, or a "pk" batch), `reads(cfg)`, the values
    the loss takes from a `training.RunConfig`, and `call(embeddings,
    labels, *values)`, which calls the loss with them. Two configurations
    whose values are equal give the loss the same arguments."""

    name: str
    batch: Literal["random", "mined", "pk"]
    reads: Callable[..., tuple]
    call: Callable[..., LossReport]

    def apply(self, embeddings: np.ndarray, labels: BatchLabels | None,
              cfg) -> LossReport:
        """The loss of one batch as `cfg` asks for it."""
        return self.call(embeddings, labels, *self.reads(cfg))


def _metric_margin(cfg) -> tuple[str, MarginMode]:
    return cfg.metric, cfg.margin


def _inner_margin(cfg, soft_m: float) -> float:
    """The hinge margin m, or `soft_m` when a loss that keeps its margin
    inside (lifted, LMNN) is run with the soft margin."""
    return cfg.margin.m if cfg.margin.kind == "hard" else soft_m


def _lifted_reads(cfg) -> tuple[str, float, MarginMode]:
    """The metric, the inner margin and the outer clamp, which is all the
    lifted losses read of the margin mode: its kind."""
    return cfg.metric, _inner_margin(cfg, 1.0), MarginMode(cfg.margin.kind)


def _classic(emb, labels, metric, mode):
    return classic_triplet_loss(emb, metric, mode)


# Closed loss enumeration for the trainer, the CLI and the benchmark grid.
# Entries call the losses through the module globals, so that a wrapper
# put in their place (a tracer, a test double) is what runs.
LOSSES = {spec.name: spec for spec in (
    LossSpec("triplet", "random", _metric_margin, _classic),
    LossSpec("triplet_ohm", "mined", _metric_margin, _classic),
    LossSpec("batch_hard", "pk", _metric_margin, lambda emb, labels, metric,
             mode: batch_hard_loss(emb, labels, metric, mode)),
    LossSpec("batch_hard_nnz", "pk", _metric_margin, lambda emb, labels,
             metric, mode: batch_hard_loss(emb, labels, metric, mode,
                                           "nonzero")),
    LossSpec("batch_all", "pk", _metric_margin, lambda emb, labels, metric,
             mode: batch_all_loss(emb, labels, metric, mode)),
    LossSpec("batch_all_nnz", "pk", _metric_margin, lambda emb, labels,
             metric, mode: batch_all_loss(emb, labels, metric, mode,
                                          "nonzero")),
    LossSpec("lifted", "pk", _lifted_reads, lambda emb, labels, metric, m,
             mode: lifted_loss(emb, metric=metric, m=m, mode=mode,
                               labels=labels)),
    LossSpec("lifted_gen", "pk", _lifted_reads, lambda emb, labels, metric, m,
             mode: lifted_generalized_loss(emb, labels, metric, m, mode)),
    LossSpec("lmnn", "pk", lambda cfg: (cfg.metric, _inner_margin(cfg, 0.2)),
             lambda emb, labels, metric, m: lmnn_loss(emb, labels, m=m,
                                                      metric=metric)),
)}
LOSS_NAMES = tuple(LOSSES)


def parse_margin(text: str) -> MarginMode:
    """Parse a CLI margin value: 'soft' or a finite nonnegative real."""
    if text == "soft":
        return MarginMode.soft()
    try:
        return MarginMode.hard(float(text))
    except ValueError:
        raise ValueError(f"bad margin {text!r}: expected 'soft' or a finite "
                         "nonnegative real") from None
