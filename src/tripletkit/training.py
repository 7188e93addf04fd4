"""Training loop wiring sampling, losses, backprop, Adam, and diagnostics."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import datagen, diagnostics, evalkit, losses, numcore, optim, sampling


class CollapseError(RuntimeError):
    """Training aborted because the collapse alarm fired; `trigger` holds
    the values it fired on, and the message prints them."""

    def __init__(self, iteration: int, reason: str = "collapse alarm fired",
                 trigger: diagnostics.AlarmTrigger | None = None):
        detail = "" if trigger is None else f": {trigger}"
        super().__init__(f"{reason} at iteration {iteration}{detail}")
        self.iteration = iteration
        self.trigger = trigger


class NonFiniteLossError(CollapseError):
    """Training aborted because the loss became NaN or infinite."""


ConfigError = numcore.ConfigError      # an inconsistent run configuration

# The most elements a training step's largest array may hold, checked
# before anything is allocated: 2**27 float64 values are 1 GiB. For a PK
# batch of n = P*K rows that array is batch-all's (n, K-1, n) gradient
# layout, checked against its bound n**3, so n <= 512; for B triplets it
# is the (3B, 3B) distance matrix, so B <= 3861. Both are checked
# whatever the loss, so `bench-losses` rejects a count before its first
# cell. Each layer width past the input's is capped by the (width, width)
# weight it could take: at most 11585.
MAX_STEP_ELEMENTS = 2 ** 27


@dataclass
class RunConfig:
    loss: str = "batch_hard"
    margin: losses.MarginMode = field(default_factory=losses.MarginMode.soft)
    metric: str = "euclidean"
    P: int = 8
    K: int = 4
    B: int = 12
    layer_widths: list[int] = field(default_factory=lambda: [16, 32, 32])
    schedule: optim.Schedule = field(
        default_factory=lambda: optim.Schedule(1e-3, 1500, 2500))
    seed: int = 0
    ohm_sample_fraction: float = 0.25
    ohm_refresh_every: int = 500

    def __post_init__(self):
        if self.loss not in losses.LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.metric not in losses.METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        batch = losses.LOSSES[self.loss].batch
        if batch == "pk" and (self.P < 2 or self.K < 2):
            raise ConfigError("PK losses need P >= 2 and K >= 2")
        if batch != "pk" and self.B < 1:
            raise ConfigError("triplet losses need B >= 1")
        for flags, rows, dims in (("--P/--K", self.P * self.K, 3),
                                  ("--B", 3 * self.B, 2)):
            if rows ** dims > MAX_STEP_ELEMENTS:
                raise ConfigError(f"{flags}: {rows} batch rows need a step "
                                  f"array of {rows}**{dims} elements, past "
                                  f"the cap of {MAX_STEP_ELEMENTS}")
        if batch == "mined" and not 0.0 < self.ohm_sample_fraction <= 1.0:
            raise ConfigError("ohm_sample_fraction must be in (0, 1]")
        if len(self.layer_widths) < 2 or min(self.layer_widths) < 1:
            raise ConfigError("layer_widths needs input and output widths, "
                              f"all >= 1, got {self.layer_widths}")
        widest = max(self.layer_widths[1:])
        if widest ** 2 > MAX_STEP_ELEMENTS:
            raise ConfigError(f"--widths: a layer {widest} wide is past the "
                              f"cap of {MAX_STEP_ELEMENTS} weights")
        if self.ohm_refresh_every < 1:
            raise ConfigError("ohm_refresh_every must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class Run:
    """One training run: the params, Adam state, grads buffer and rng, the
    loss's registry entry and PK labels, the mined triplets and the
    collapse alarm's state. Adam's step count is the only counter: `step()`
    runs iteration t = `state.step_count + 1`, and the learning rate, the
    beta1 drop, the OHM refresh, the log and the alarm all read that t."""

    def __init__(self, cfg: RunConfig, dataset: sampling.LabeledDataset,
                 log_writer: diagnostics.TrainLogWriter | None = None):
        self.cfg, self.dataset, self.log_writer = cfg, dataset, log_writer
        widths = [dataset.feature_dim, *cfg.layer_widths[1:]]
        self.params = numcore.init_params(widths, cfg.seed)
        self.state = optim.AdamState.for_params(self.params)
        self.grads = numcore.MlpParams(self.params.layers)  # backward's output
        self.rng = np.random.default_rng(cfg.seed)
        self.spec = spec = losses.LOSSES[cfg.loss]
        # every PK batch holds P distinct identities, K rows each, in identity
        # blocks, so one labels object serves every step; the triplet losses
        # read no labels
        self.labels = None if spec.batch != "pk" else losses.BatchLabels(
            np.repeat(np.arange(cfg.P), cfg.K), cfg.P, cfg.K)
        self.mined: np.ndarray | None = None    # mined at the last refresh
        # the alarm's state: the first median, set at t = 1, and the run of
        # collapsed steps that ends at the last one
        self.initial_median: float | None = None
        self.streak: diagnostics.AlarmTrigger | None = None

    def step(self) -> None:
        """Run iteration t; raises CollapseError if the alarm fires, or its
        subclass NonFiniteLossError, before the update, on a NaN/inf loss,
        and ScheduleError past the schedule's t1."""
        cfg, spec, params, state = self.cfg, self.spec, self.params, self.state
        dataset, rng, t = self.dataset, self.rng, state.step_count + 1
        lr = optim.lr_at(cfg.schedule, t)
        optim.beta1_drop(state, t, cfg.schedule)

        # overflow and NaN from a diverging step are reported by the guard below
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.batch == "mined" and (t - 1) % cfg.ohm_refresh_every == 0:
                self.mined = sampling.mine_hard_offline(
                    params, dataset, cfg.ohm_sample_fraction, cfg.B,
                    cfg.margin, rng, cfg.metric)
            if spec.batch == "pk":
                rows = sampling.sample_pk_batch(dataset, cfg.P, cfg.K, rng).rows
            else:
                triplets = self.mined if spec.batch == "mined" else \
                    sampling.sample_random_triplets(dataset, cfg.B, rng)
                rows = triplets.ravel()
            emb, acts = numcore.mlp_forward(params, dataset.features[rows])
            report = spec.call(emb, self.labels, cfg.metric, cfg.margin)
        if not math.isfinite(report.loss):
            raise NonFiniteLossError(t, "non-finite loss")
        numcore.mlp_backward(params, acts, report.grad_embeddings, self.grads)
        optim.adam_step(params, self.grads, state, lr)

        if self.log_writer is None:
            median = diagnostics.median_pair_distance(report.distances.squared)
        else:
            record = diagnostics.batch_stats(emb, report, t, lr)
            self.log_writer.append(record)
            median = record.pair_dist_percentiles[2]
        if t == 1:
            self.initial_median = median
        self.streak = streak = diagnostics.collapse_alarm(
            self.initial_median, self.streak, median, report.active_fraction)
        if streak is not None and streak.window == diagnostics.COLLAPSE_WINDOW:
            raise CollapseError(t, trigger=streak)


def train(cfg: RunConfig, dataset: sampling.LabeledDataset,
          log_writer: diagnostics.TrainLogWriter | None = None) -> Run:
    """Run the full schedule and return the finished `Run`, whose `params`
    and `state` hold the model and its Adam state; raises what `step` does.

    The exception carries the iteration and, from the alarm, the values it
    fired on; the log, when `log_writer` is given, has every row up to it.
    Only a logged run computes the log's percentile panels; every step
    computes the alarm's median pair distance.
    """
    run = Run(cfg, dataset, log_writer)
    while run.state.step_count < cfg.schedule.t1:
        run.step()
    return run


BENCHMARK_SEED = 7


def default_benchmark_sets(seed: int = BENCHMARK_SEED
                           ) -> tuple[sampling.LabeledDataset,
                                      sampling.LabeledDataset]:
    """Default synthetic benchmark: noisy train split, clean validation split.

    Both datasets come from the same generator seed, so the features are
    identical point for point; only 5% of the training labels are swapped.
    Validating against the clean labels keeps the unlearnable label noise
    from compressing mAP differences between training losses.
    """
    kw = dict(num_identities=32, items_per_identity=8, feature_dim=16,
              identity_spread=1.0, intra_spread=1.0, seed=seed)
    noisy = datagen.generate(datagen.GenSpec(outlier_rate=0.05, **kw))
    clean = datagen.generate(datagen.GenSpec(outlier_rate=0.0, **kw))
    val_mask = _validation_mask(clean.pids, 10, seed)
    return (noisy.subset(np.flatnonzero(~val_mask)),
            clean.subset(np.flatnonzero(val_mask)))


def benchmark_config(loss: str, margin: losses.MarginMode,
                     seed: int = BENCHMARK_SEED) -> RunConfig:
    """Frozen run configuration for the default benchmark."""
    return RunConfig(loss=loss, margin=margin, seed=seed,
                     layer_widths=[16, 64, 8], P=4, K=2, B=3,
                     schedule=optim.Schedule(1e-3, 1500, 2500))


def benchmark_map(loss: str, margin: losses.MarginMode,
                  seed: int = BENCHMARK_SEED) -> float:
    """Train one benchmark cell and return clean-validation mAP."""
    train_set, val_set = default_benchmark_sets(seed)
    result = train(benchmark_config(loss, margin, seed), train_set)
    return validation_map(result.params, val_set).map


OHM_STRESS_SEEDS = (0, 1, 4)


def ohm_stress_dataset() -> sampling.LabeledDataset:
    """Dataset on which offline hard mining is prone to collapse.

    Half the labels are swapped over zero-width clusters, so a mined
    triplet whose negative shares the anchor's input point can never be
    satisfied (that distance is pinned at zero); the only way down for
    such terms is shrinking the embedding itself.
    """
    return datagen.generate(datagen.GenSpec(
        num_identities=32, items_per_identity=8, feature_dim=16,
        identity_spread=1.0, intra_spread=0.0, outlier_rate=0.5, seed=0))


def ohm_stress_config(loss: str, seed: int) -> RunConfig:
    """Margin-0.1 stress configuration shared by OHM and batch-hard runs."""
    return dataclasses.replace(
        benchmark_config(loss, losses.MarginMode.hard(0.1), seed),
        metric="squared_euclidean", B=12, ohm_sample_fraction=0.5,
        ohm_refresh_every=500)


# Cap on the elements of the widest layer's array while `embed_dataset`
# runs one block of rows through the model: 1024 rows at width 64.
_EMBED_BLOCK_ELEMENTS = 2 ** 16


def embed_dataset(params: numcore.MlpParams,
                  dataset: sampling.LabeledDataset) -> sampling.LabeledDataset:
    """Map a feature dataset through the model into embedding space.

    The rows go through `numcore.mlp_forward` in blocks of at most
    `_EMBED_BLOCK_ELEMENTS` elements in the widest layer, written into one
    output array, so only one block's layer inputs are alive at a time.
    No block has one row (`numcore.row_blocks`), so each row's embedding is
    bitwise what one call over every row gives. A model with huge but
    finite weights can overflow; that shows as non-finite embeddings, which
    `evalkit.evaluate` refuses."""
    x = dataset.features
    emb = np.empty((len(x), params.layer_widths[-1]))
    rows = _EMBED_BLOCK_ELEMENTS // max(params.layer_widths)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in numcore.row_blocks(len(x), rows):
            emb[block] = numcore.mlp_forward(params, x[block])[0]
    return sampling.LabeledDataset(emb, dataset.pids, dataset.cams,
                                   dataset.item_ids)


def identity_disjoint_split(dataset: sampling.LabeledDataset,
                            val_fraction: float,
                            seed: int) -> tuple[sampling.LabeledDataset,
                                                sampling.LabeledDataset]:
    """Split by identity so train and validation share no person; a split
    that leaves training no identity raises SamplingError."""
    ids = len(np.unique(dataset.pids))
    n_val = max(1, int(round(val_fraction * ids)))
    if n_val >= ids:
        raise sampling.SamplingError(
            f"the dataset's {ids} identities, at validation fraction "
            f"{val_fraction:g}, leave no identities to split off for training")
    val_mask = _validation_mask(dataset.pids, n_val, seed)
    return dataset.subset(np.flatnonzero(~val_mask)), \
        dataset.subset(np.flatnonzero(val_mask))


def _validation_mask(pids: np.ndarray, n_val: int, seed: int) -> np.ndarray:
    """Rows of `n_val` identities drawn without replacement by `seed`."""
    rng = np.random.default_rng(seed)
    return np.isin(pids, rng.choice(np.unique(pids), size=n_val, replace=False))


def validation_map(params: numcore.MlpParams,
                   val: sampling.LabeledDataset) -> evalkit.EvalResult:
    """Self-retrieval evaluation on an embedded validation split, with
    rank-1 CMC, the one rank its callers read."""
    embedded = embed_dataset(params, val)
    return evalkit.evaluate(embedded, embedded,
                            evalkit.EvalProtocol(cmc_ranks=(1,)))
