"""Per-iteration training statistics and the collapse alarm."""

from __future__ import annotations

import csv
import functools
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
    triangle of its clamped squared distance matrix, whose median is
    `median_pair_distance`'s. Percentiles use linear interpolation between
    closest ranks.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1))    # np.linalg.norm's own formula
    norms.sort()
    return TrainLogRecord(
        iteration=iteration,
        loss_mean=float(report.loss),
        loss_p5=_sorted_percentiles(np.sort(report.per_term), (5,))[0],
        active_fraction=report.active_fraction,
        emb_norm_percentiles=_sorted_percentiles(norms, PERCENTILES),
        pair_dist_percentiles=_sorted_percentiles(
            _pair_distances(report.distances.squared), PERCENTILES),
        lr=lr,
    )


def median_pair_distance(squared: np.ndarray) -> float:
    """The median of a batch's pair distances, given the loss's clamped
    squared distance matrix: `batch_stats`' `pair_dist_percentiles[2]`,
    the collapse alarm's input, without the other panels."""
    return _sorted_percentiles(_pair_distances(squared), (50,))[0]


def _pair_distances(squared: np.ndarray) -> np.ndarray:
    """The square roots of the strict upper triangle of `squared`, sorted;
    one zero for a one-row batch."""
    upper = _upper_triangle(len(squared))
    if not len(upper):
        return np.zeros(1)
    d = squared.take(upper)
    np.sqrt(d, out=d)
    d.sort()
    return d


@functools.lru_cache(maxsize=16)
def _upper_triangle(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix."""
    i, j = np.triu_indices(n, k=1)
    upper = i * n + j
    upper.flags.writeable = False   # the cached array is every caller's
    return upper


def _sorted_percentiles(s: np.ndarray, percents: tuple) -> tuple[float, ...]:
    """`np.percentile(s, percents)` of an already sorted, flat `s`, one
    Python float at a time, bit for bit as long as `s` does not hold both
    signed zeros (NumPy's partition leaves their order open): a NaN,
    sorted last, makes each of them NaN."""
    if not s.size:
        raise ValueError("percentiles of an empty array")
    last = s.item(-1)
    if last != last:
        return (last,) * len(percents)
    out = []
    for lo, hi, gamma, rest, from_hi in _interpolation(s.size, percents):
        a, b = s.item(lo), s.item(hi)
        diff = b - a
        out.append(b - diff * rest if from_hi else a + diff * gamma)
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _interpolation(n: int, percents: tuple) -> tuple[tuple, ...]:
    """NumPy's linear-method neighbours and weights for `percents` of n
    sorted values, one tuple per percent: the lower and upper indices
    (both the last one at or past the end), the weights of the upper and
    of the lower, and whether the value is taken from the upper."""
    virtual = (n - 1) * np.true_divide(percents, 100)
    past = virtual >= n - 1
    lo = np.where(past, -1, np.floor(virtual)).astype(np.intp)
    hi = np.where(past, -1, lo + 1)
    gamma = virtual - lo
    return tuple(zip(lo.tolist(), hi.tolist(), gamma.tolist(),
                     (1 - gamma).tolist(), (gamma >= 0.5).tolist()))


def collapse_alarm(initial_median: float, streak: AlarmTrigger | None,
                   median: float, active: float) -> AlarmTrigger | None:
    """The run of collapsed steps that ends at this one, or None if this
    step is healthy. A step is collapsed when its median pair distance is
    below 1e-3 of the first step's (`initial_median`) and nearly every
    term is active; `streak` is the run that ended at the step before (None
    if there was none), and the result extends it by this step. The first
    step is never collapsed against its own median."""
    if not (median < COLLAPSE_DIST_RATIO * initial_median
            and active > COLLAPSE_ACTIVITY):
        return None
    ratio = median / initial_median
    if streak is None:
        return AlarmTrigger(initial_median, ratio, active, 1)
    return AlarmTrigger(initial_median, max(ratio, streak.max_median_ratio),
                        min(active, streak.min_active_fraction),
                        streak.window + 1)


@dataclass(frozen=True)
class AlarmTrigger:
    """A run of collapsed steps: the first step's median pair distance
    and, over the `window` steps of the run, the largest median as a share
    of that one and the smallest active fraction."""

    initial_median: float
    max_median_ratio: float
    min_active_fraction: float
    window: int

    def __str__(self) -> str:
        return (f"over the last {self.window} steps the median pair "
                f"distance was at most {self.max_median_ratio:.6g} of the "
                f"first step's {self.initial_median:.6g} (alarm below "
                f"{COLLAPSE_DIST_RATIO:g}) and the active fraction at least "
                f"{self.min_active_fraction:.6g} (alarm above "
                f"{COLLAPSE_ACTIVITY:g})")


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
