"""Per-iteration training statistics and the collapse alarm."""

from __future__ import annotations

import csv
import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .losses import LossReport

LOG_HEADER = ("iter,loss_mean,loss_p5,active_frac,"
              "norm_p0,norm_p5,norm_p50,norm_p95,norm_p100,"
              "dist_p0,dist_p5,dist_p50,dist_p95,dist_p100,lr").split(",")

PERCENTILES = (0, 5, 50, 95, 100)

# Invented operational constants; the underlying failure mode is only
# described qualitatively.
COLLAPSE_DIST_RATIO = 1e-3
COLLAPSE_ACTIVITY = 0.99
COLLAPSE_WINDOW = 200


@dataclass
class TrainLogRecord:
    iteration: int
    loss_mean: float
    loss_p5: float
    active_fraction: float
    emb_norm_percentiles: tuple[float, ...]
    pair_dist_percentiles: tuple[float, ...]
    lr: float

    def to_row(self) -> list:
        return ([self.iteration, repr(float(self.loss_mean)),
                 repr(float(self.loss_p5)), repr(float(self.active_fraction))]
                + [repr(float(v)) for v in self.emb_norm_percentiles]
                + [repr(float(v)) for v in self.pair_dist_percentiles]
                + [repr(float(self.lr))])


def batch_stats(embeddings: np.ndarray, report: LossReport,
                iteration: int, lr: float) -> TrainLogRecord:
    """Loss, activity, and percentile panels for one training batch.

    Pair distances are those the loss saw: the square roots of the upper
    triangle of its clamped squared distance matrix. Percentiles use linear
    interpolation between closest ranks.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1))    # np.linalg.norm's own formula
    upper = _upper_triangle(len(x))
    dists = np.sqrt(report.distances.squared.take(upper)) if len(upper) \
        else np.zeros(1)
    values = _percentiles_of((report.per_term, norms, dists),
                             ((5,), PERCENTILES, PERCENTILES)).tolist()
    return TrainLogRecord(
        iteration=iteration,
        loss_mean=float(report.loss),
        loss_p5=values[0],
        active_fraction=report.active_fraction,
        emb_norm_percentiles=tuple(values[1:6]),
        pair_dist_percentiles=tuple(values[6:]),
        lr=lr,
    )


@functools.lru_cache(maxsize=16)
def _upper_triangle(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix."""
    i, j = np.triu_indices(n, k=1)
    return _read_only(i * n + j)


def percentiles(values: np.ndarray, percents: tuple) -> np.ndarray:
    """`np.percentile(values, percents)` from one sort, bit for bit as long
    as `values` do not hold both signed zeros (NumPy's partition leaves
    their order open)."""
    return _percentiles_of((np.asarray(values),), (tuple(percents),))


def _percentiles_of(arrays: tuple, percents: tuple) -> np.ndarray:
    """`percentiles(arrays[i], percents[i])` for every i, concatenated:
    one sort per array, then one gather and one interpolation for all."""
    sizes = tuple(a.size for a in arrays)
    if 0 in sizes:
        raise ValueError("percentiles of an empty array")
    lo, hi, gamma, rest, from_hi, last, group, segments = _interpolation(
        sizes, percents)
    s = np.concatenate(arrays, axis=None)
    for segment in segments:
        s[segment].sort()
    a, b = s[lo], s[hi]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * rest, out=out, where=from_hi)
    nan = np.isnan(s[last])     # a NaN, sorted last, makes every percentile
    if nan.any():               # of its array NaN
        out[nan[group]] = np.nan
    return out


@functools.lru_cache(maxsize=64)
def _interpolation(sizes: tuple, percents: tuple) -> tuple[np.ndarray, ...]:
    """NumPy's linear-method neighbours and weights for arrays of `sizes`
    sorted values laid end to end, `percents[i]` taken of array i: lower
    and upper indices (both the array's last one at or past its end), the
    weights of the upper and of the lower, where the value is taken from
    the upper, each array's last index, each value's array, and the
    arrays' slices."""
    parts, segments = [], []
    start = 0
    for n, pcts in zip(sizes, percents):
        segments.append(slice(start, start + n))
        virtual = (n - 1) * np.true_divide(pcts, 100)
        past = virtual >= n - 1
        lo = np.where(past, -1, np.floor(virtual)).astype(np.intp)
        hi = np.where(past, -1, lo + 1)
        gamma = virtual - lo
        parts.append((np.where(lo < 0, lo + n, lo) + start,
                      np.where(hi < 0, hi + n, hi) + start, gamma))
        start += n
    lo, hi, gamma = (np.concatenate(p) for p in zip(*parts))
    last = np.cumsum(sizes) - 1
    group = np.repeat(np.arange(len(sizes)), [len(p) for p in percents])
    return (*map(_read_only, (lo, hi, gamma, 1 - gamma, gamma >= 0.5, last,
                              group)), tuple(segments))


def _read_only(a: np.ndarray) -> np.ndarray:
    """Cached arrays are shared by every caller, so none may write them."""
    a.flags.writeable = False
    return a


def collapse_alarm(initial_median: float, recent: Sequence) -> bool:
    """True when the last COLLAPSE_WINDOW of `recent`, the records after
    the first in order, all have a median pairwise distance below 1e-3 of
    the first's (`initial_median`) and nearly every term active."""
    window = COLLAPSE_WINDOW
    if len(recent) < window:
        return False
    threshold = COLLAPSE_DIST_RATIO * initial_median
    # newest first, so a healthy run stops at its last record
    return all(r.pair_dist_percentiles[2] < threshold
               and r.active_fraction > COLLAPSE_ACTIVITY
               for r in itertools.islice(reversed(recent), window))


class TrainLogWriter:
    """Append-only CSV writer with the fixed diagnostics header.

    The file stays open until `close()` (or the end of a `with` block);
    every row is flushed, so readers see it as soon as `append` returns.
    """

    def __init__(self, path):
        self.path = path
        self._last_iter = -1
        self._file = open(path, "w", encoding="utf-8", newline="\n")
        self._csv = csv.writer(self._file, lineterminator="\n")
        self._write(LOG_HEADER)

    def _write(self, row: list) -> None:
        self._csv.writerow(row)
        self._file.flush()

    def append(self, record: TrainLogRecord) -> None:
        if record.iteration <= self._last_iter:
            raise ValueError("records must be strictly increasing in iteration")
        self._last_iter = record.iteration
        self._write(record.to_row())

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "TrainLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
