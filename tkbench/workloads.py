"""The benchmark's three workloads.

Each workload replays the public calls one tripletkit command makes, split
into phases that the harness times:

- setup: everything before the first training step or `evaluate` call
  (CSV read, config build, checkpoint load, embedding),
- train: `training.train`,
- eval: `evaluate` and `inject_distractors` calls,
- teardown: writing the checkpoint, log and report.

One operation of a workload is one pass of its command sequence. Inputs are
generated from the seed by `make_inputs`, before any timing starts.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tripletkit import (cli, datagen, diagnostics, evalkit, losses, numcore,
                        optim, sampling, training)

from . import calibration, reference


class Clock:
    """Wall time per phase of one operation: raw, and scaled by the
    calibration probe (see calibration.py). The probe runs at every phase
    boundary and wherever `split` cuts a long phase into segments; each
    segment is scaled by the mean of the probes on either side of it."""

    def __init__(self, probe: Callable[[], float] | None = None):
        self.phases: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.probes: list[float] = []
        self._probe = probe
        if probe:
            probe()     # first calls in a fresh process run cold
        self._speed = self._measure()
        self._name = ""
        self._start = 0.0
        self._carved: dict[str, float] = {}

    def _measure(self) -> float:
        if not self._probe:
            return calibration.PROBE_REF_S
        self.probes.append(self._probe())
        return self.probes[-1]

    def _begin(self) -> None:
        self._carved = {}
        self._start = time.perf_counter()

    def _end_segment(self) -> None:
        total = time.perf_counter() - self._start
        speed = self._measure()
        factor = 2 * calibration.PROBE_REF_S / (self._speed + speed)
        self._speed = speed
        parts = {**self._carved, self._name: total - sum(self._carved.values())}
        for part, seconds in parts.items():
            self.phases[part] = self.phases.get(part, 0.0) + seconds
            self.scaled[part] = self.scaled.get(part, 0.0) + seconds * factor

    @contextlib.contextmanager
    def phase(self, name: str):
        self._name = name
        self._begin()
        try:
            yield
        finally:
            self._end_segment()

    def split(self) -> None:
        """Probe inside the running phase; the probe's time is not counted."""
        self._end_segment()
        self._begin()

    def carve(self, name: str, seconds: float) -> None:
        """Count `seconds` of the current segment as phase `name`."""
        self._carved[name] = self._carved.get(name, 0.0) + seconds


SPLIT_STEPS = 500


@contextlib.contextmanager
def split_training(clock: Clock):
    """Split the running phase every SPLIT_STEPS training steps, found as
    calls to `optim.lr_at`, the first call of each step in `train`."""
    inner = optim.lr_at
    steps = 0

    def counted(*args, **kwargs):
        nonlocal steps
        steps += 1
        if steps % SPLIT_STEPS == 0:
            clock.split()
        return inner(*args, **kwargs)

    optim.lr_at = counted
    try:
        yield
    finally:
        optim.lr_at = inner


@dataclass
class OpResult:
    """What one operation did, and which of its checks failed."""

    steps: int = 0
    queries: int = 0
    val_map: float = float("nan")
    val_rank1: float = float("nan")
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    # checks that call into the program run after the operation, untimed
    check: Callable[[], list[str]] | None = None

    @property
    def failed(self) -> int:
        """Each error fails one operation, up to all that were attempted."""
        return min(self.attempted, len(self.errors))


def _subseed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _shifted(ds: sampling.LabeledDataset, pid_offset: int,
             item_offset: int) -> sampling.LabeledDataset:
    return sampling.LabeledDataset(ds.features, ds.pids + pid_offset, ds.cams,
                                   ds.item_ids + item_offset)


class Workload:
    name = ""
    operations = 0      # operations one pass attempts

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self):
        """Setup phase of an operation; returns the state `run` needs."""
        raise NotImplementedError

    def setup_rep(self) -> None:
        """One stand-alone repetition of everything an operation's setup
        phases do, for the setup_s median."""
        self.setup()

    def run(self, state, clock: Clock) -> OpResult:
        raise NotImplementedError


@contextlib.contextmanager
def _timed_validation(clock: Clock, queries: list[int]):
    """Count `training.validation_map` calls made inside `cli.run_bench_cell`
    as the eval phase, and count their queries."""
    inner = training.validation_map

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            ev = inner(*args, **kwargs)
        finally:
            clock.carve("eval", time.perf_counter() - start)
        queries.append(ev.num_queries + ev.num_skipped)
        return ev

    training.validation_map = timed
    try:
        yield
    finally:
        training.validation_map = inner


class LossGrid(Workload):
    """All nine losses at soft margin on the paper's frozen comparison:
    `default_benchmark_sets`, `benchmark_config` (P=4, K=2, B=3, widths
    16,64,8, schedule 1500/2500) and OHM mining over the whole split."""

    name = "loss_grid"
    operations = len(losses.LOSS_NAMES)     # one per grid cell

    def make_inputs(self) -> None:
        train_set, val_set = training.default_benchmark_sets(self.seed)
        sampling.write_dataset_csv(self.path("train.csv"), train_set)
        sampling.write_dataset_csv(self.path("val.csv"), val_set)

    def setup(self):
        train_set = sampling.read_dataset_csv(self.path("train.csv"))
        val_set = sampling.read_dataset_csv(self.path("val.csv"))
        base = training.benchmark_config("batch_hard", losses.MarginMode.soft(),
                                         self.seed)
        base.ohm_sample_fraction = 1.0
        if self.tiny:
            base.schedule = optim.Schedule(1e-3, 4, 8)
        return train_set, val_set, base

    def run(self, state, clock: Clock) -> OpResult:
        train_set, val_set, base = state
        res = OpResult()
        cells = []
        for loss in losses.LOSS_NAMES:
            queries: list[int] = []
            with clock.phase("train"), _timed_validation(clock, queries):
                cell = cli.run_bench_cell(loss, "soft", train_set, val_set, base)
            cells.append(cell)
            res.attempted += 1
            if cell["status"] != "ok":
                res.errors.append(f"cell {loss}: status {cell['status']!r}")
                continue
            res.steps += base.schedule.t1
            res.queries += sum(queries)
            if not 0.0 <= float(cell["map"]) <= 1.0:
                res.errors.append(f"cell {loss}: mAP {cell['map']} outside [0, 1]")
        with clock.phase("teardown"):
            _write_grid_csv(self.path("bench_losses.csv"), cells)
        ok = [c for c in cells if c["status"] == "ok"]
        if ok:
            res.val_map = float(np.mean([float(c["map"]) for c in ok]))
            res.val_rank1 = float(np.mean([float(c["rank1"]) for c in ok]))
        return res


def _write_grid_csv(path: str, cells: list[dict]) -> None:
    """The report `tripletkit bench-losses` writes."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        w = csv.DictWriter(f, fieldnames=["loss", "margin", "map", "rank1",
                                          "status"], lineterminator="\n")
        w.writeheader()
        w.writerows(cells)


class PaperPK(Workload):
    """`tripletkit train` at the paper's batch shape: batch-hard soft margin,
    P=18, K=4, widths 64,256,128, with a train log and a checkpoint, then
    mAP on an identity-disjoint held-out 20%."""

    name = "paper_pk"
    operations = 2      # the training run and the validation evaluate call

    def make_inputs(self) -> None:
        ids = 60 if self.tiny else 750
        data = datagen.generate(datagen.GenSpec(
            num_identities=ids, items_per_identity=8, feature_dim=64,
            identity_spread=1.0, intra_spread=1.0, outlier_rate=0.05,
            seed=self.seed))
        train_set, val_set = training.identity_disjoint_split(data, 0.2, self.seed)
        sampling.write_dataset_csv(self.path("train.csv"), train_set)
        sampling.write_dataset_csv(self.path("val.csv"), val_set)

    def setup(self):
        dataset = sampling.read_dataset_csv(self.path("train.csv"))
        val_set = sampling.read_dataset_csv(self.path("val.csv"))
        t0, t1 = (4, 8) if self.tiny else (300, 500)
        cfg = training.RunConfig(
            loss="batch_hard", margin=losses.MarginMode.soft(), P=18, K=4,
            layer_widths=[64, 256, 128], schedule=optim.Schedule(1e-3, t0, t1),
            seed=self.seed)
        out = self.path("run")
        os.makedirs(out, exist_ok=True)
        writer = diagnostics.TrainLogWriter(os.path.join(out, "train_log.csv"))
        return cfg, dataset, val_set, writer

    def run(self, state, clock: Clock) -> OpResult:
        cfg, dataset, val_set, writer = state
        res = OpResult(attempted=self.operations)
        ckpt = self.path("run/checkpoint.json")
        try:
            with clock.phase("train"):
                result = training.train(cfg, dataset, writer)
        except training.CollapseError as exc:
            # the validation call never runs, so both operations fail
            res.errors += [f"training collapsed: {exc}"] * res.attempted
            return res
        with clock.phase("teardown"):
            numcore.save_checkpoint(ckpt, result.params, result.state.to_dict())
        res.steps = cfg.schedule.t1
        with clock.phase("eval"):
            ev = training.validation_map(result.params, val_set)
        res.queries = ev.num_queries + ev.num_skipped
        res.val_map, res.val_rank1 = ev.map, ev.cmc[1]

        def check() -> list[str]:
            errors = []
            if not reference.checkpoint_is_finite(ckpt):
                errors.append("checkpoint holds a non-finite value")
            with open(writer.path, encoding="utf-8") as f:
                rows = sum(1 for _ in f) - 1
            if rows != cfg.schedule.t1:
                errors.append(f"train log has {rows} rows for "
                              f"{cfg.schedule.t1} steps")
            if not 0.0 <= ev.map <= 1.0:
                errors.append(f"validation mAP {ev.map} outside [0, 1]")
            return errors
        res.check = check
        return res


class EvalGallery(Workload):
    """`tripletkit train` for a short run from `init_params([16,64,32],
    seed)`, then `tripletkit evaluate --distractors` with the checkpoint it
    wrote: 1000 queries against a 3000-row gallery of the same identities,
    then again after 8000 rows of disjoint identities are injected, with the
    camera filter on."""

    name = "eval_gallery"
    operations = 3      # the training run and two evaluate calls
    PER_ID = 16         # 4 queries (one per camera) + 12 gallery rows
    QUERIES_PER_ID = 4

    def _sizes(self) -> tuple[int, int, int]:
        """(gallery identities, distractor identities, fit identities)."""
        return (12, 40, 20) if self.tiny else (250, 1000, 100)

    def make_inputs(self) -> None:
        ids, distractor_ids, fit_ids = self._sizes()
        spec = dict(feature_dim=16, identity_spread=1.0, intra_spread=1.0)
        people = datagen.generate(datagen.GenSpec(
            num_identities=ids, items_per_identity=self.PER_ID,
            seed=self.seed, **spec))
        is_query = np.arange(len(people)) % self.PER_ID < self.QUERIES_PER_ID
        distractors = datagen.generate(datagen.GenSpec(
            num_identities=distractor_ids, items_per_identity=8,
            seed=_subseed(self.seed, 1), **spec))
        fit = datagen.generate(datagen.GenSpec(
            num_identities=fit_ids, items_per_identity=8,
            seed=_subseed(self.seed, 2), **spec))
        sampling.write_dataset_csv(self.path("queries.csv"),
                                   people.subset(np.flatnonzero(is_query)))
        sampling.write_dataset_csv(self.path("gallery.csv"),
                                   people.subset(np.flatnonzero(~is_query)))
        sampling.write_dataset_csv(self.path("distractors.csv"),
                                   _shifted(distractors, ids, len(people)))
        sampling.write_dataset_csv(self.path("fit.csv"),
                                   _shifted(fit, ids + distractor_ids,
                                            len(people) + len(distractors)))
        numcore.save_checkpoint(self.path("init.json"),
                                numcore.init_params([16, 64, 32], self.seed))

    def setup(self):
        fit = sampling.read_dataset_csv(self.path("fit.csv"))
        t0, t1 = (4, 8) if self.tiny else (2000, 3000)
        cfg = training.RunConfig(
            loss="batch_hard", margin=losses.MarginMode.soft(), P=8, K=4,
            layer_widths=[16, 64, 32], schedule=optim.Schedule(1e-3, t0, t1),
            seed=self.seed)
        return cfg, fit

    def _eval_setup(self, ckpt: str):
        params, _ = numcore.load_checkpoint(ckpt)
        sets = [sampling.read_dataset_csv(self.path(f"{n}.csv"))
                for n in ("queries", "gallery", "distractors")]
        return [training.embed_dataset(params, s) for s in sets]

    def setup_rep(self) -> None:
        self.setup()
        self._eval_setup(self.path("init.json"))

    def run(self, state, clock: Clock) -> OpResult:
        cfg, fit = state
        res = OpResult(attempted=self.operations)
        ckpt = self.path("checkpoint.json")
        try:
            with clock.phase("train"):
                result = training.train(cfg, fit)
        except training.CollapseError as exc:
            # neither evaluate call runs, so all three operations fail
            res.errors += [f"training collapsed: {exc}"] * res.attempted
            return res
        res.steps = cfg.schedule.t1
        with clock.phase("teardown"):
            numcore.save_checkpoint(ckpt, result.params, result.state.to_dict())
        with clock.phase("setup"):
            q_emb, g_emb, d_emb = self._eval_setup(ckpt)
        protocol = evalkit.EvalProtocol(cmc_ranks=(1, 5, 10))
        with clock.phase("eval"):
            before = evalkit.evaluate(q_emb, g_emb, protocol)
        with clock.phase("eval"):
            injected = evalkit.inject_distractors(g_emb, d_emb, q_emb.pids)
            after = evalkit.evaluate(q_emb, injected, protocol)
        with clock.phase("teardown"):
            doc = before.to_dict(protocol)
            doc["with_distractors"] = after.to_dict()
            with open(self.path("eval_report.json"), "w", encoding="utf-8") as f:
                json.dump(doc, f, indent=2)
        res.queries = 2 * len(q_emb)
        res.val_map, res.val_rank1 = after.map, after.cmc[1]


        def check() -> list[str]:
            sample = reference.query_sample(len(q_emb), self.seed)
            errors = [f"{tag}-distractor: {err}"
                      for tag, gallery, ev in (("pre", g_emb, before),
                                               ("post", injected, after))
                      for err in reference.check_eval(ev, q_emb, gallery,
                                                      protocol, sample)]
            if after.map > before.map:
                errors.append(f"distractors raised mAP from {before.map} "
                              f"to {after.map}")
            return errors
        res.check = check
        return res


WORKLOADS = {w.name: w for w in (LossGrid, PaperPK, EvalGallery)}
