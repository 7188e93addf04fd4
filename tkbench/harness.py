"""Runs one workload, checks its outputs and reports its metrics.

Each operation runs in a fresh process, as one CLI command would, and
operations follow each other in a closed loop for `--seconds`. An untraced
run (`--trace 0`) reports the end-to-end metrics: medians over operations of
phase times scaled by the calibration probe (see calibration.py); the
unscaled values are printed as well. A traced run (`--trace 1`) first times
one unprobed, untraced operation, then repeats operations under the span
tracer and reports the per-layer metrics, the tracing overhead, and how much
of the wall time the layers' self times account for.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from tripletkit import training

from . import PINNED_ENV, calibration, tracing
from .workloads import WORKLOADS, Clock, OpResult, Workload, split_training

DEFAULT_SECONDS = 30
SETUP_REPS = 5
# An operation's process is started as `python3 LAUNCHER OPERATION_FLAG ...`.
LAUNCHER = Path(__file__).resolve().parent / "run.py"
OPERATION_FLAG = "--operation"
OP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "eval_ms_per_query": "ms/query",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

# Printed by name but not bounded. val_map and val_rank1 are exact for a
# seed, but on loss_grid their quartile distance over ten seeds is 12-17%
# and 15-25% of the median, which no bound of at most 25% holds with a
# margin. failed_frac is 0 on every passing run; the result carries it as
# `failed` over `attempted`.
UNBOUNDED_UNITS = {"val_map": "fraction", "val_rank1": "fraction",
                   "failed_frac": "fraction"}

TRACE_UNITS = {
    "trace.untraced_train_steps_per_s": "steps/s",
    "trace.traced_train_steps_per_s": "steps/s",
    "trace.untraced_eval_ms_per_query": "ms/query",
    "trace.traced_eval_ms_per_query": "ms/query",
    "trace.overhead_frac": "fraction",
    "trace.layer_self_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


PER_LAYER_UNITS = {**tracing.layer_units(), **TRACE_UNITS}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


@dataclass
class Op:
    wall: float
    phases: dict[str, float]        # raw wall time per phase
    scaled: dict[str, float]        # scaled by the calibration probe
    probes: list[float]
    result: OpResult
    peak_rss_mb: float = 0.0
    spans: list | None = None


def run_op(wl: Workload, tracer: tracing.Tracer | None = None,
           probe=None) -> Op:
    """One operation, then its checks with the tracer off. Under a tracer
    the operation is one root span; with a probe, its phases are also
    scaled to the probed machine speed."""
    clock = Clock(probe)
    span = tracer.span(tracing.ROOT) if tracer else contextlib.nullcontext()
    split = split_training(clock) if probe else contextlib.nullcontext()
    with span, split:
        try:
            with clock.phase("setup"):
                state = wl.setup()
            res = wl.run(state, clock)
        except Exception:       # the run reports the failure and stops
            res = OpResult(attempted=wl.operations,
                           errors=[traceback.format_exc()] * wl.operations)
    if res.check is not None:
        if tracer:
            tracer.uninstall()
        res.errors += res.check()
        res.check = None
    return Op(sum(clock.phases.values()), clock.phases, clock.scaled,
              clock.probes, res)


def _operation(kind: str, workload: str, seed: int, workdir: str,
               tiny: bool) -> Op:
    """Body of one operation's process. `kind` is "op" (probed),
    "baseline" (unprobed), "traced", or "setup" (one stand-alone
    repetition of the setup phases, probed)."""
    wl = WORKLOADS[workload](seed, workdir, tiny)
    if kind == "setup":
        clock = Clock(calibration.probe)
        with clock.phase("setup"):
            wl.setup_rep()
        op = Op(clock.phases["setup"], clock.phases, clock.scaled,
                clock.probes, OpResult())
    elif kind == "traced":
        tracer = tracing.Tracer()
        with tracer.installed():
            op = run_op(wl, tracer)
        op.spans = tracer.spans
    else:
        op = run_op(wl, probe=calibration.probe if kind == "op" else None)
    op.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return op


def operation_main(argv: list[str]) -> int:
    """Entry point of an operation's process (see `spawn_op`): runs the
    operation and pickles its Op to the file named last."""
    kind, workload, seed, workdir, tiny, out = argv
    op = _operation(kind, workload, int(seed), workdir, tiny == "1")
    with open(out + ".part", "wb") as f:
        pickle.dump(op, f)
    os.replace(out + ".part", out)
    return 0


def spawn_op(kind: str, workload: str, seed: int, workdir: Path,
             tiny: bool) -> Op:
    """Run one operation in a fresh process, as one CLI command would, and
    wait for that process to end. A process that fails or outlives
    OP_TIMEOUT_S is killed and its operations count as failed."""
    out = Path(workdir) / f"op-{kind}.pickle"
    cmd = [sys.executable, str(LAUNCHER), OPERATION_FLAG, kind, workload,
           str(seed), str(workdir), "1" if tiny else "0", str(out)]
    code = None
    try:
        code = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              timeout=OP_TIMEOUT_S).returncode
        with open(out, "rb") as f:
            return pickle.load(f)
    except subprocess.TimeoutExpired:
        error = f"operation process ran longer than {OP_TIMEOUT_S} s"
    except (OSError, EOFError, pickle.UnpicklingError):
        error = f"operation process exited with code {code}"
    finally:
        out.unlink(missing_ok=True)
    n = WORKLOADS[workload].operations
    return Op(0.0, {}, {}, [], OpResult(attempted=n, errors=[error] * n))


def measure(seconds: float, *op_args) -> list[Op]:
    """Operations back to back, each in its own process, until the next
    would end past `seconds`; always at least one. Stops at the first
    failed operation."""
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        ops.append(spawn_op(*op_args))
        now = time.perf_counter()
        if ops[-1].result.errors or now - start + (now - before) > seconds:
            return ops


def end_to_end(ops: list[Op], setup_ops: list[Op] = (),
               scaled: bool = True) -> dict[str, float]:
    """Medians over the successful operations of scaled (or raw) phase
    times; empty when none succeeded."""
    ok = [op for op in ops if not op.result.errors]
    if not ok:
        return {}
    times = [op.scaled if scaled else op.phases for op in ok]
    setups = [op.scaled if scaled else op.phases for op in setup_ops]
    median = statistics.median
    return {
        "setup_s": median(t["setup"] for t in times + setups),
        "train_steps_per_s": median(op.result.steps / t["train"]
                                    for op, t in zip(ok, times)),
        "eval_ms_per_query": median(1e3 * t["eval"] / op.result.queries
                                    for op, t in zip(ok, times)),
        "run_s": median(sum(t.values()) for t in times),
        "peak_rss_mb": max(op.peak_rss_mb for op in ok),
    }


def trace_metrics(untraced: list[Op], traced: list[Op],
                  spans: list[list]) -> tuple[dict[str, float], list[str]]:
    base = end_to_end(untraced, scaled=False)
    under = end_to_end(traced, scaled=False)
    if not (base and under):
        return {}, []
    base_wall = statistics.median(op.wall for op in untraced)
    root_dur, self_sum, root_self = tracing.root_accounting(spans)
    errors = []
    if abs(self_sum - root_dur) > 1e-6 * root_dur:
        errors.append(f"span self times sum to {self_sum} s, roots last {root_dur} s")
    metrics = tracing.layer_metrics(spans, len(traced))
    metrics.update({
        "trace.untraced_train_steps_per_s": base["train_steps_per_s"],
        "trace.traced_train_steps_per_s": under["train_steps_per_s"],
        "trace.untraced_eval_ms_per_query": base["eval_ms_per_query"],
        "trace.traced_eval_ms_per_query": under["eval_ms_per_query"],
        "trace.overhead_frac": statistics.median(op.wall for op in traced) / base_wall - 1,
        "trace.layer_self_frac": (root_dur - root_self) / len(traced) / base_wall,
        "trace.unattributed_frac": root_self / root_dur,
    })
    return metrics, errors


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "pinned_env": {var: os.environ.get(var) for var in PINNED_ENV},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="tkbench")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=training.BENCHMARK_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str], root: Path, tiny: bool = False) -> int:
    """Run one workload; `tiny` shrinks its inputs for the benchmark's tests."""
    args = parse_args(argv)
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = root / ".bench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    op_args = (args.workload, args.seed, workdir, tiny)
    try:
        WORKLOADS[args.workload](args.seed, str(workdir), tiny).make_inputs()
        errors: list[str] = []
        unscaled: dict[str, float] = {}
        if args.trace:
            untraced = measure(0, "baseline", *op_args)
            traced = measure(args.seconds - untraced[0].wall, "traced", *op_args)
            ops = untraced + traced
            spans = tracing.merge([op.spans for op in traced])
            metrics, errors = trace_metrics(untraced, traced, spans)
            tracing.write_spans(outdir / f"spans-{args.workload}-{args.seed}.tsv",
                                spans)
        else:
            ops = measure(args.seconds, "op", *op_args)
            setup_ops = [spawn_op("setup", *op_args)
                         for _ in range(max(0, SETUP_REPS - len(ops)))]
            metrics = end_to_end(ops, setup_ops)
            unscaled = {k: v for k, v in
                        end_to_end(ops, setup_ops, scaled=False).items()
                        if v != metrics[k]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok_ops = [op for op in ops if not op.result.errors]
    if len({(op.result.val_map, op.result.val_rank1) for op in ok_ops}) > 1:
        errors.append("identical operations gave different val_map/val_rank1")
    for op in ops:
        errors += op.result.errors
    attempted = sum(op.result.attempted for op in ops)
    failed = sum(op.result.failed for op in ops)
    correct = not errors
    unbounded = {"failed_frac": failed / attempted}
    if ok_ops:
        unbounded["val_map"] = ok_ops[-1].result.val_map
        unbounded["val_rank1"] = ok_ops[-1].result.val_rank1

    doc = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(),
        "operations": [{"wall_s": op.wall, "phases_s": op.phases,
                        "scaled_phases_s": op.scaled, "probes_s": op.probes,
                        "steps": op.result.steps, "queries": op.result.queries,
                        "val_map": op.result.val_map,
                        "attempted": op.result.attempted,
                        "failed": op.result.failed} for op in ops],
        "errors": errors,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "unscaled_metrics": unscaled,
        "unbounded_metrics": unbounded,
    }
    with open(outdir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)

    print(f"tkbench {args.workload} seed={args.seed} trace={args.trace} "
          f"operations={len(ops)}")
    for err in errors:
        print(f"CHECK FAILED: {err.strip()}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {UNITS[name]}")
    for name, value in unscaled.items():
        print(f"  (unscaled) {name:<33} {value:>14.6g} {UNITS[name]}")
    for name, value in unbounded.items():
        print(f"  {name:<44} {value:>14.6g} {UNBOUNDED_UNITS[name]}")
    print("environment " + json.dumps(doc["environment"]))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": doc["metrics"],
    }))
    return 0 if correct and failed == 0 else 1
