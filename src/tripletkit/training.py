"""Training loop wiring sampling, losses, backprop, Adam, and diagnostics."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import datagen, diagnostics, evalkit, losses, numcore, optim, sampling


class CollapseError(RuntimeError):
    """Training aborted because the collapse alarm fired."""

    def __init__(self, iteration: int, reason: str = "collapse alarm fired"):
        super().__init__(f"{reason} at iteration {iteration}")
        self.iteration = iteration


class NonFiniteLossError(CollapseError):
    """Training aborted because the loss became NaN or infinite."""


class ConfigError(ValueError):
    """Inconsistent run configuration."""


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
        batch = losses.LOSSES[self.loss].batch
        if batch == "pk" and (self.P < 2 or self.K < 2):
            raise ConfigError("PK losses need P >= 2 and K >= 2")
        if batch != "pk" and self.B < 1:
            raise ConfigError("triplet losses need B >= 1")
        if batch == "mined" and not 0.0 < self.ohm_sample_fraction <= 1.0:
            raise ConfigError("ohm_sample_fraction must be in (0, 1]")
        if self.layer_widths and len(self.layer_widths) < 2:
            raise ConfigError("layer_widths needs input and output widths")
        if self.ohm_refresh_every < 1:
            raise ConfigError("ohm_refresh_every must be >= 1")


@dataclass
class TrainResult:
    params: numcore.MlpParams
    state: optim.AdamState
    history: list[diagnostics.TrainLogRecord]


def train(cfg: RunConfig, dataset: sampling.LabeledDataset,
          log_writer: diagnostics.TrainLogWriter | None = None) -> TrainResult:
    """Run the full schedule; raises CollapseError if the alarm fires, or
    its subclass NonFiniteLossError, before the update, on a NaN/inf loss.

    Partial history (and any log file written so far) is preserved on the
    exception for post-mortem inspection.
    """
    widths = list(cfg.layer_widths)
    if widths[0] != dataset.feature_dim:
        widths = [dataset.feature_dim] + widths[1:]
    params = numcore.init_params(widths, cfg.seed)
    state = optim.AdamState.for_params(params)
    rng = np.random.default_rng(cfg.seed)
    history: list[diagnostics.TrainLogRecord] = []
    mined: sampling.TripletSet | None = None
    spec = losses.LOSSES[cfg.loss]

    for t in range(1, cfg.schedule.t1 + 1):
        lr = optim.lr_at(cfg.schedule, t)
        state = optim.beta1_drop(state, t, cfg.schedule)

        if spec.batch == "random":
            triplets = sampling.sample_random_triplets(dataset, cfg.B, rng)
            rows = triplets.materialize_rows()
            labels = losses.BatchLabels(dataset.pids[rows])
        elif spec.batch == "mined":
            if mined is None or (t - 1) % cfg.ohm_refresh_every == 0:
                mined = sampling.mine_hard_offline(
                    params, dataset, cfg.ohm_sample_fraction, cfg.B,
                    cfg.margin, rng, cfg.metric)
            rows = mined.materialize_rows()
            labels = losses.BatchLabels(dataset.pids[rows])
        else:
            batch = sampling.sample_pk_batch(dataset, cfg.P, cfg.K, rng)
            rows = batch.rows
            labels = losses.BatchLabels(dataset.pids[rows], cfg.P, cfg.K)

        # overflow and NaN from a diverging step are reported by the guard below
        with np.errstate(over="ignore", invalid="ignore"):
            emb, cache = numcore.mlp_forward(params, dataset.features[rows])
            report = spec.apply(emb, labels, cfg)
        if not math.isfinite(report.loss):
            raise NonFiniteLossError(t, "non-finite loss")
        grads = numcore.mlp_backward(params, cache, report.grad_embeddings)
        params, state = optim.adam_step(params, grads, state, lr)

        record = diagnostics.batch_stats(emb, report, t, lr)
        history.append(record)
        if log_writer is not None:
            log_writer.append(record)
        if diagnostics.collapse_alarm(history):
            raise CollapseError(t)

    return TrainResult(params, state, history)


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


def embed_dataset(params: numcore.MlpParams,
                  dataset: sampling.LabeledDataset) -> sampling.LabeledDataset:
    """Map a feature dataset through the model into embedding space."""
    emb, _ = numcore.mlp_forward(params, dataset.features)
    return sampling.LabeledDataset(emb, dataset.pids, dataset.cams,
                                   dataset.item_ids)


def identity_disjoint_split(dataset: sampling.LabeledDataset,
                            val_fraction: float,
                            seed: int) -> tuple[sampling.LabeledDataset,
                                                sampling.LabeledDataset]:
    """Split by identity so train and validation share no person."""
    n_val = max(1, int(round(val_fraction * len(np.unique(dataset.pids)))))
    val_mask = _validation_mask(dataset.pids, n_val, seed)
    return dataset.subset(np.flatnonzero(~val_mask)), \
        dataset.subset(np.flatnonzero(val_mask))


def _validation_mask(pids: np.ndarray, n_val: int, seed: int) -> np.ndarray:
    """Rows of `n_val` identities drawn without replacement by `seed`."""
    rng = np.random.default_rng(seed)
    return np.isin(pids, rng.choice(np.unique(pids), size=n_val, replace=False))


def validation_map(params: numcore.MlpParams,
                   val: sampling.LabeledDataset,
                   protocol: evalkit.EvalProtocol | None = None) -> evalkit.EvalResult:
    """Self-retrieval evaluation on an embedded validation split."""
    embedded = embed_dataset(params, val)
    proto = protocol or evalkit.EvalProtocol(cmc_ranks=(1, 5))
    return evalkit.evaluate(embedded, embedded, proto)
