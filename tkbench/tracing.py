"""Span tracer for the traced benchmark run.

The tracer wraps tripletkit's public functions from outside the program.
Every module attribute bound to a wrapped function is replaced, so calls
made through `from`-imports (such as `sampling.mlp_forward` or
`sampling.pairwise_distances`) are traced as well. Spans stay in memory as
(parent id, name, tag, start, end) records and are written out when the run
ends.

Training steps have no function of their own. `optim.lr_at` is the first
call of every step inside `training.train`, so the tracer uses it as the
step boundary: each call closes the open `training.step` span and opens the
next one.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from tripletkit import (cli, datagen, diagnostics, evalkit, losses, numcore,
                        optim, sampling, training)

MODULES = (cli, datagen, diagnostics, evalkit, losses, numcore, optim,
           sampling, training)

ROOT = "bench.op"
STEP = "training.step"
TRAIN = "training.train"

LOSS_FUNCTIONS = ("classic_triplet_loss", "batch_hard_loss", "batch_all_loss",
                  "lifted_loss", "lifted_generalized_loss", "lmnn_loss")

# (owner, attribute, span name, take the span tag from the first argument)
TRACED = (
    (cli, "run_bench_cell", "cli.bench_cell", True),
    (training, "train", TRAIN, False),
    (training, "validation_map", "training.validation", False),
    (training, "embed_dataset", "training.embed", False),
    (sampling, "sample_pk_batch", "sampling.pk_batch", False),
    (sampling.LabeledDataset, "identity_index", "sampling.identity_index", False),
    (sampling, "sample_random_triplets", "sampling.random_triplets", False),
    (sampling, "mine_hard_offline", "sampling.mine", False),
    (sampling, "read_dataset_csv", "sampling.csv_read", False),
    (numcore, "mlp_forward", "numcore.forward", False),
    (numcore, "mlp_backward", "numcore.backward", False),
    (numcore, "save_checkpoint", "numcore.checkpoint_io", False),
    (numcore, "load_checkpoint", "numcore.checkpoint_io", False),
    (losses, "pairwise_distances", "losses.distances", False),
    *((losses, fn, f"losses.{fn}", False) for fn in LOSS_FUNCTIONS),
    (optim, "adam_step", "optim.adam", False),
    (diagnostics, "batch_stats", "diagnostics.batch_stats", False),
    (diagnostics, "collapse_alarm", "diagnostics.collapse_alarm", False),
    (diagnostics.TrainLogWriter, "append", "diagnostics.log_append", False),
    (evalkit, "evaluate", "evalkit.evaluate", False),
    (evalkit, "rank_gallery", "evalkit.rank", False),
    (evalkit, "average_precision", "evalkit.ap", False),
    (evalkit, "inject_distractors", "evalkit.inject", False),
)

# Per-call timings: (metric stem, span name, "dur" or "self", unit scale).
TIMINGS = (
    ("training.step_self_us", STEP, "self", 1e6),
    ("training.validation_ms", "training.validation", "dur", 1e3),
    ("training.embed_ms", "training.embed", "dur", 1e3),
    ("sampling.pk_batch_us", "sampling.pk_batch", "dur", 1e6),
    ("sampling.identity_index_us", "sampling.identity_index", "dur", 1e6),
    ("sampling.random_triplets_us", "sampling.random_triplets", "dur", 1e6),
    ("sampling.mine_ms", "sampling.mine", "dur", 1e3),
    ("sampling.mine_self_ms", "sampling.mine", "self", 1e3),
    ("sampling.csv_read_ms", "sampling.csv_read", "dur", 1e3),
    ("numcore.forward_us", "numcore.forward", "dur", 1e6),
    ("numcore.backward_us", "numcore.backward", "dur", 1e6),
    ("numcore.checkpoint_io_ms", "numcore.checkpoint_io", "dur", 1e3),
    ("losses.distances_us", "losses.distances", "dur", 1e6),
    *((f"losses.loss_self_us.{fn}", f"losses.{fn}", "self", 1e6)
      for fn in LOSS_FUNCTIONS),
    ("optim.adam_us", "optim.adam", "dur", 1e6),
    ("diagnostics.batch_stats_us", "diagnostics.batch_stats", "dur", 1e6),
    ("diagnostics.collapse_alarm_us", "diagnostics.collapse_alarm", "dur", 1e6),
    ("diagnostics.log_append_us", "diagnostics.log_append", "dur", 1e6),
    ("evalkit.evaluate_self_ms", "evalkit.evaluate", "self", 1e3),
    ("evalkit.rank_us", "evalkit.rank", "dur", 1e6),
    ("evalkit.ap_us", "evalkit.ap", "dur", 1e6),
    ("evalkit.inject_ms", "evalkit.inject", "dur", 1e3),
)

# Calls per training step, counted only inside `training.step` spans.
PER_STEP = (
    ("sampling.identity_index_calls_per_step", "sampling.identity_index"),
    ("losses.distance_calls_per_step", "losses.distances"),
)

# Calls per benchmark operation.
PER_OP = (
    ("sampling.mine_calls", "sampling.mine"),
    ("evalkit.rank_calls", "evalkit.rank"),
)

PARENT, NAME, TAG, START, END = range(5)

SCALE_UNITS = {1e6: "us", 1e3: "ms"}


def layer_units() -> dict[str, str]:
    """Every metric `layer_metrics` reports, with its unit."""
    units = {f"{stem}.{p}": SCALE_UNITS[scale]
             for stem, _, _, scale in TIMINGS for p in ("p50", "p99")}
    units.update({metric: "calls/step" for metric, _ in PER_STEP})
    units.update({metric: "calls/op" for metric, _ in PER_OP})
    units.update({f"cli.bench_cell_s.{loss}": "s" for loss in losses.LOSS_NAMES})
    return units


class Tracer:
    """Records nested spans; span ids are indices into `spans`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, tag=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([parent, name, tag, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def _close_through(self, sid: int) -> None:
        """Close every open span down to and including `sid`."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][END] = now
            if top == sid:
                return

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        sid = self._open(name, tag)
        try:
            yield
        finally:
            self._close_through(sid)

    def wrap(self, fn, name: str, tagged: bool = False):
        open_, close = self._open, self._close_through

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(name, args[0] if tagged else None)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)
        return traced

    def _step_marker(self, lr_at):
        spans, stack = self.spans, self._stack
        open_, close = self._open, self._close_through

        @functools.wraps(lr_at)
        def marked(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == STEP:
                close(stack[-1])
            if stack and spans[stack[-1]][NAME] == TRAIN:
                open_(STEP)
            return lr_at(*args, **kwargs)
        return marked

    def _patch(self, owner, attr: str, original, replacement) -> None:
        """Rebind a method on its class, or a function under every module
        name bound to it."""
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            bindings = [(m, name) for m in MODULES
                        for name, value in vars(m).items() if value is original]
        for target, name in bindings:
            self._patches.append((target, name, original))
            setattr(target, name, replacement)

    def install(self) -> None:
        for owner, attr, name, tagged in TRACED:
            original = vars(owner)[attr]
            self._patch(owner, attr, original, self.wrap(original, name, tagged))
        self._patch(optim, "lr_at", optim.lr_at, self._step_marker(optim.lr_at))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def merge(span_lists: list[list[list]]) -> list[list]:
    """Concatenate the spans of several tracers, renumbering parent ids."""
    out: list[list] = []
    for spans in span_lists:
        offset = len(out)
        out += [[p + offset if p >= 0 else -1, *rest] for p, *rest in spans]
    return out


def write_spans(path, spans: list[list]) -> None:
    """Tab-separated spans: id, parent, name, tag, and start and duration
    in us. Starts count from the start of the span's root."""
    root_start = 0.0
    with open(path, "w", encoding="utf-8") as f:
        f.write("id\tparent\tname\ttag\tstart_us\tdur_us\n")
        for sid, (parent, name, tag, start, end) in enumerate(spans):
            if parent < 0:
                root_start = start
            f.write(f"{sid}\t{parent}\t{name}\t{tag or ''}\t"
                    f"{(start - root_start) * 1e6:.3f}\t{(end - start) * 1e6:.3f}\n")


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.array([s[END] - s[START] for s in spans])
    own = dur.copy()
    for sid, s in enumerate(spans):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= dur[sid]
    return own


def _inside(spans: list[list], sid: int, name: str) -> bool:
    parent = spans[sid][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `ops` traced operations.

    A timing is reported per call as .p50 and .p99; a layer that made no
    call on the workload reports 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for sid, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(sid)

    out: dict[str, float] = {}
    for stem, name, measure, scale in TIMINGS:
        ids = by_name.get(name, [])
        vals = np.array([own[i] if measure == "self"
                         else spans[i][END] - spans[i][START] for i in ids]) * scale
        p50, p99 = np.percentile(vals, (50, 99)) if len(vals) else (0.0, 0.0)
        out[f"{stem}.p50"] = float(p50)
        out[f"{stem}.p99"] = float(p99)

    steps = len(by_name.get(STEP, []))
    for metric, name in PER_STEP:
        inside = sum(_inside(spans, i, STEP) for i in by_name.get(name, []))
        out[metric] = inside / steps if steps else 0.0
    for metric, name in PER_OP:
        out[metric] = len(by_name.get(name, [])) / ops

    cells: dict[str, list[float]] = {}
    for i in by_name.get("cli.bench_cell", []):
        cells.setdefault(spans[i][TAG], []).append(spans[i][END] - spans[i][START])
    for loss in losses.LOSS_NAMES:
        vals = cells.get(loss)
        out[f"cli.bench_cell_s.{loss}"] = float(np.median(vals)) if vals else 0.0
    return out


def root_accounting(spans: list[list]) -> tuple[float, float, float]:
    """(root duration, self-time sum over all spans, root self time), summed
    over every root span."""
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    root_dur = sum(spans[i][END] - spans[i][START] for i in roots)
    return root_dur, float(own.sum()), float(sum(own[i] for i in roots))
