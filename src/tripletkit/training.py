"""Training loop wiring sampling, losses, backprop, Adam, and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import datagen, diagnostics, evalkit, losses, numcore, optim, sampling


class CollapseError(RuntimeError):
    """Training aborted because the collapse alarm fired."""

    def __init__(self, iteration: int):
        super().__init__(f"collapse alarm fired at iteration {iteration}")
        self.iteration = iteration


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
    averaging: str = "all"
    lmnn_mu: float = 0.5
    ohm_sample_fraction: float = 0.25
    ohm_refresh_every: int = 500
    init_scale: float = 1.0
    collapse_window: int = diagnostics.DEFAULT_COLLAPSE_WINDOW
    log_every: int = 1

    def __post_init__(self):
        if self.loss not in losses.LOSS_NAMES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.loss in ("triplet", "triplet_ohm"):
            if self.B < 1:
                raise ConfigError("triplet losses need B >= 1")
            if self.loss == "triplet_ohm" and \
                    not 0.0 < self.ohm_sample_fraction <= 1.0:
                raise ConfigError("ohm_sample_fraction must be in (0, 1]")
        else:
            if self.P < 2 or self.K < 2:
                raise ConfigError("PK losses need P >= 2 and K >= 2")
        if self.layer_widths and len(self.layer_widths) < 2:
            raise ConfigError("layer_widths needs input and output widths")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")
        if self.ohm_refresh_every < 1:
            raise ConfigError("ohm_refresh_every must be >= 1")
        if self.collapse_window < 2:
            raise ConfigError("collapse_window must be >= 2")


@dataclass
class TrainResult:
    params: numcore.MlpParams
    state: optim.AdamState
    history: list[diagnostics.TrainLogRecord]
    collapsed: bool = False


def _loss_on_batch(cfg: RunConfig, emb: np.ndarray,
                   labels: losses.BatchLabels) -> losses.LossReport:
    name = cfg.loss
    if name in ("triplet", "triplet_ohm"):
        return losses.classic_triplet_loss(emb, cfg.metric, cfg.margin)
    if name in ("batch_hard", "batch_hard_nnz"):
        avg = "nonzero" if name.endswith("nnz") else cfg.averaging
        return losses.batch_hard_loss(emb, labels, cfg.metric, cfg.margin, avg)
    if name in ("batch_all", "batch_all_nnz"):
        avg = "nonzero" if name.endswith("nnz") else cfg.averaging
        return losses.batch_all_loss(emb, labels, cfg.metric, cfg.margin, avg)
    if name == "lifted":
        pairing = _same_class_pairs(labels.identities)
        m = cfg.margin.m if cfg.margin.kind == "hard" else 1.0
        return losses.lifted_loss(emb, pairing, cfg.metric, m, cfg.margin, labels)
    if name == "lifted_gen":
        m = cfg.margin.m if cfg.margin.kind == "hard" else 1.0
        return losses.lifted_generalized_loss(emb, labels, cfg.metric, m, cfg.margin)
    if name == "lmnn":
        targets = _target_neighbors(labels.identities)
        m = cfg.margin.m if cfg.margin.kind == "hard" else 0.2
        return losses.lmnn_loss(emb, labels, targets, cfg.lmnn_mu, m, cfg.metric)
    raise ConfigError(f"unknown loss {name!r}")


def _same_class_pairs(ids: np.ndarray) -> list[tuple[int, int]]:
    pairs = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if ids[i] == ids[j]:
                pairs.append((i, j))
    return pairs


def _target_neighbors(ids: np.ndarray) -> dict[int, int]:
    targets = {}
    for i in range(len(ids)):
        same = [j for j in range(len(ids)) if j != i and ids[j] == ids[i]]
        if same:
            targets[i] = same[0]
    return targets


def train(cfg: RunConfig, dataset: sampling.LabeledDataset,
          log_writer: diagnostics.TrainLogWriter | None = None) -> TrainResult:
    """Run the full schedule; raises CollapseError if the alarm fires.

    Partial history (and any log file written so far) is preserved on the
    exception for post-mortem inspection.
    """
    widths = list(cfg.layer_widths)
    if widths[0] != dataset.feature_dim:
        widths = [dataset.feature_dim] + widths[1:]
    params = numcore.init_params(widths, cfg.seed, scale=cfg.init_scale)
    state = optim.AdamState.for_params(params)
    rng = np.random.default_rng(cfg.seed)
    history: list[diagnostics.TrainLogRecord] = []
    mined: sampling.TripletSet | None = None

    for t in range(1, cfg.schedule.t1 + 1):
        lr = optim.lr_at(cfg.schedule, t)
        state = optim.beta1_drop(state, t, cfg.schedule)

        if cfg.loss == "triplet":
            triplets = sampling.sample_random_triplets(dataset, cfg.B, rng)
            rows = triplets.materialize_rows()
            labels = losses.BatchLabels(dataset.pids[rows])
        elif cfg.loss == "triplet_ohm":
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

        emb, cache = numcore.mlp_forward(params, dataset.features[rows])
        report = _loss_on_batch(cfg, emb, labels)
        grads = numcore.mlp_backward(params, cache, report.grad_embeddings)
        params, state = optim.adam_step(params, grads, state, lr)

        if t % cfg.log_every == 0:
            record = diagnostics.batch_stats(emb, report, t, lr)
            history.append(record)
            if log_writer is not None:
                log_writer.append(record)
            if diagnostics.collapse_alarm(history, cfg.collapse_window):
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
    rng = np.random.default_rng(seed)
    pids = np.unique(clean.pids)
    val_pids = set(int(p) for p in rng.choice(pids, size=10, replace=False))
    val_mask = np.array([int(p) in val_pids for p in clean.pids])
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
    cfg = benchmark_config(loss, losses.MarginMode.hard(0.1), seed)
    cfg.metric = "squared_euclidean"
    cfg.B = 12
    cfg.ohm_sample_fraction = 0.5
    cfg.ohm_refresh_every = 500
    return cfg


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
    rng = np.random.default_rng(seed)
    pids = np.unique(dataset.pids)
    n_val = max(1, int(round(val_fraction * len(pids))))
    val_pids = set(int(p) for p in rng.choice(pids, size=n_val, replace=False))
    val_mask = np.array([int(p) in val_pids for p in dataset.pids])
    return dataset.subset(np.flatnonzero(~val_mask)), \
        dataset.subset(np.flatnonzero(val_mask))


def validation_map(params: numcore.MlpParams,
                   val: sampling.LabeledDataset,
                   protocol: evalkit.EvalProtocol | None = None) -> evalkit.EvalResult:
    """Self-retrieval evaluation on an embedded validation split."""
    embedded = embed_dataset(params, val)
    proto = protocol or evalkit.EvalProtocol(cmc_ranks=(1, 5))
    return evalkit.evaluate(embedded, embedded, proto)
