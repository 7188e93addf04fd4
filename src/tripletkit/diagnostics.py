"""Per-iteration training statistics and the collapse alarm."""

from __future__ import annotations

import csv
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
DEFAULT_COLLAPSE_WINDOW = 200


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
    norms = np.linalg.norm(x, axis=1)
    iu = np.triu_indices(len(x), k=1)
    dists = np.sqrt(report.distances.squared[iu]) if len(iu[0]) \
        else np.zeros(1)
    return TrainLogRecord(
        iteration=iteration,
        loss_mean=float(report.loss),
        loss_p5=float(np.percentile(report.per_term, 5)),
        active_fraction=report.active_fraction,
        emb_norm_percentiles=tuple(np.percentile(norms, PERCENTILES)),
        pair_dist_percentiles=tuple(np.percentile(dists, PERCENTILES)),
        lr=lr,
    )


def collapse_alarm(history: list[TrainLogRecord],
                   window: int = DEFAULT_COLLAPSE_WINDOW) -> bool:
    """True when the median pairwise distance has stayed below 1e-3 of its
    initial value for a full window while nearly every term is active."""
    if window < 2:
        raise ValueError("window must be >= 2")
    if len(history) < window + 1:
        return False
    initial_median = history[0].pair_dist_percentiles[2]
    threshold = COLLAPSE_DIST_RATIO * initial_median
    recent = history[-window:]
    return all(r.pair_dist_percentiles[2] < threshold
               and r.active_fraction > COLLAPSE_ACTIVITY
               for r in recent)


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
