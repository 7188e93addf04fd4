import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from tripletkit import diagnostics, losses, numcore, sampling, training
from tripletkit.optim import Schedule
from tripletkit.training import (BENCHMARK_SEED, MAX_STEP_ELEMENTS,
                                 OHM_STRESS_SEEDS, CollapseError, ConfigError,
                                 RunConfig, benchmark_config, benchmark_map,
                                 default_benchmark_sets,
                                 ohm_stress_config, ohm_stress_dataset, train)


@pytest.mark.parametrize("field, value", [
    ("ohm_refresh_every", 0), ("ohm_refresh_every", -5),
])
def test_run_config_rejects_out_of_range_counts(field, value):
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: value})


def test_run_config_accepts_smallest_valid_counts():
    assert RunConfig(ohm_refresh_every=1).ohm_refresh_every == 1


def test_batch_counts_are_capped_at_the_step_array():
    # the caps admit batch-all on 512 rows and 3861 triplets, no more
    assert MAX_STEP_ELEMENTS == 512 ** 3
    RunConfig(loss="batch_all", P=128, K=4)
    RunConfig(loss="triplet", B=3861)
    for fields in (dict(P=128, K=5), dict(P=10 ** 12), dict(K=10 ** 12)):
        with pytest.raises(ConfigError, match="--P/--K"):
            RunConfig(**fields)
    for B in (3862, 10 ** 12):
        with pytest.raises(ConfigError, match="--B"):
            RunConfig(loss="triplet", B=B)
    RunConfig(layer_widths=[10 ** 12, 11585, 11585])   # the input is the data's
    for widths in ([16, 11586], [16, 8, 10 ** 12]):
        with pytest.raises(ConfigError, match="--widths"):
            RunConfig(layer_widths=widths)


@pytest.mark.parametrize("widths", [[], [16], [16, 0, 8], [16, 32, -1]])
def test_run_config_rejects_missing_or_nonpositive_widths(widths):
    with pytest.raises(ConfigError, match="layer_widths"):
        RunConfig(layer_widths=widths)


def test_run_config_rejects_unknown_metric():
    with pytest.raises(ConfigError, match="cosine"):
        RunConfig(metric="cosine")


def test_train_takes_input_width_from_data():
    train_set, _ = default_benchmark_sets()
    cfg = RunConfig(P=4, K=2, layer_widths=[999, 8, 4],
                    schedule=Schedule(1e-3, 2, 3))
    assert train(cfg, train_set).params.layer_widths == [16, 8, 4]


@pytest.mark.parametrize("loss", [name for name in losses.LOSS_NAMES
                                  if losses.LOSSES[name].batch == "pk"])
def test_run_labels_stand_for_every_batch(monkeypatch, loss):
    """`train` builds a PK run's labels once; at every step the loss must
    report, bit for bit, what labels taken from the batch's rows give."""
    train_set, _ = default_benchmark_sets()
    cfg = RunConfig(loss=loss, P=5, K=3, layer_widths=[16, 8, 4],
                    schedule=Schedule(1e-3, 10, 20))
    sample, spec, steps = sampling.sample_pk_batch, losses.LOSSES[loss], []

    def sample_and_keep(*args):
        batch = sample(*args)
        steps.append(batch.rows)
        return batch

    def call_both(emb, labels, *values):
        got = spec.call(emb, labels, *values)
        fresh = losses.BatchLabels(train_set.pids[steps[-1]], cfg.P, cfg.K)
        want = spec.call(emb, fresh, *values)
        assert np.float64(got.loss).tobytes() == \
            np.float64(want.loss).tobytes()
        assert got.grad_embeddings.tobytes() == want.grad_embeddings.tobytes()
        assert got.per_term.tobytes() == want.per_term.tobytes()
        return got

    monkeypatch.setattr(sampling, "sample_pk_batch", sample_and_keep)
    monkeypatch.setitem(losses.LOSSES, loss,
                        dataclasses.replace(spec, call=call_both))
    train(cfg, train_set)
    assert len(steps) == 20


def first_alarm(rows: list[dict], window: int) -> int | None:
    """The first iteration at which the median distances and active
    fractions of the last `window` log rows, the first row excluded, all
    pass the alarm's thresholds, scanning the whole log each time."""
    threshold = diagnostics.COLLAPSE_DIST_RATIO * float(rows[0]["dist_p50"])
    for end in range(window + 1, len(rows) + 1):
        if all(float(r["dist_p50"]) < threshold and
               float(r["active_frac"]) > diagnostics.COLLAPSE_ACTIVITY
               for r in rows[end - window:end]):
            return int(rows[end - 1]["iter"])
    return None


@pytest.mark.parametrize("seed, window", [(OHM_STRESS_SEEDS[2], 3),
                                          (OHM_STRESS_SEEDS[2], 17),
                                          (OHM_STRESS_SEEDS[1], 40)])
def test_alarm_window_fires_where_a_full_log_scan_does(monkeypatch, tmp_path,
                                                      seed, window):
    """`train` keeps only the first median and a window of records; the
    alarm must still fire at the first iteration a scan of every row it
    wrote finds, and that row must be the log's last."""
    monkeypatch.setattr(diagnostics, "COLLAPSE_WINDOW", window)
    path = tmp_path / "train_log.csv"
    with diagnostics.TrainLogWriter(path) as writer, \
            pytest.raises(CollapseError) as fired:
        train(ohm_stress_config("triplet_ohm", seed), ohm_stress_dataset(),
              writer)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert fired.value.iteration == first_alarm(rows, window) == len(rows)


LOSS_TABLE = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_loss_table.json")


def test_loss_table_is_current():
    """BENCH_loss_table.json's seed-7 cells of criterion 06 are what
    `benchmark_map` gives today, to 4 decimals: a change of results must
    regenerate the table with tools/loss_table.py."""
    with open(LOSS_TABLE, encoding="utf-8") as f:
        table = json.load(f)
    seed = table["seeds"].index(BENCHMARK_SEED)
    for cell in ("batch_hard/soft", "batch_hard/0.2", "triplet/0.2"):
        loss, margin = cell.split("/")
        got = benchmark_map(loss, losses.parse_margin(margin))
        assert f"{got:.4f}" == f"{table['map'][cell][seed]:.4f}", cell


def short_benchmark_config(loss: str, margin: str) -> RunConfig:
    """`benchmark_config` on a 40-step schedule that drops beta1 at 20."""
    return dataclasses.replace(
        benchmark_config(loss, losses.parse_margin(margin)),
        schedule=Schedule(1e-3, 20, 40))


def trained_bytes(cfg: RunConfig, dataset, log_path=None) -> tuple[bytes, ...]:
    if log_path is None:
        result = train(cfg, dataset)
    else:
        with diagnostics.TrainLogWriter(log_path) as writer:
            result = train(cfg, dataset, writer)
    return (result.params.flat.tobytes(), result.state.m.tobytes(),
            result.state.v.tobytes())


@pytest.mark.parametrize("margin", ["soft", "0.2"])
@pytest.mark.parametrize("loss", losses.LOSS_NAMES)
def test_train_log_leaves_results_alone(tmp_path, loss, margin):
    """An unlogged run computes only the alarm's inputs, a logged one the
    log's panels too; params and both Adam moments must not differ."""
    train_set, _ = default_benchmark_sets()
    cfg = short_benchmark_config(loss, margin)
    assert trained_bytes(cfg, train_set) == \
        trained_bytes(cfg, train_set, tmp_path / "train_log.csv")


@pytest.mark.parametrize("seed, iteration", zip(OHM_STRESS_SEEDS,
                                                (700, 336, 324)))
def test_stress_alarm_fires_at_one_step_logged_or_not(tmp_path, seed,
                                                      iteration):
    data = ohm_stress_dataset()
    cfg = ohm_stress_config("triplet_ohm", seed)
    with pytest.raises(CollapseError) as unlogged:
        train(cfg, data)
    with diagnostics.TrainLogWriter(tmp_path / "train_log.csv") as writer, \
            pytest.raises(CollapseError) as logged:
        train(cfg, data, writer)
    assert unlogged.value.iteration == logged.value.iteration == iteration
    assert unlogged.value.trigger == logged.value.trigger
    train(ohm_stress_config("batch_hard", seed), data)


def test_only_logged_runs_compute_the_panels(monkeypatch, tmp_path):
    calls = []
    batch_stats = diagnostics.batch_stats

    def counted(*args):
        calls.append(args[2])
        return batch_stats(*args)

    monkeypatch.setattr(diagnostics, "batch_stats", counted)
    train_set, _ = default_benchmark_sets()
    cfg = short_benchmark_config("batch_hard", "soft")
    train(cfg, train_set)
    assert calls == []
    with diagnostics.TrainLogWriter(tmp_path / "train_log.csv") as writer:
        train(cfg, train_set, writer)
    assert calls == list(range(1, cfg.schedule.t1 + 1))


@pytest.mark.parametrize("widths", [[16, 64, 32], [64, 256, 128]])
def test_embed_dataset_matches_one_forward_call(monkeypatch, widths):
    """Blocked embedding gives bitwise the rows of one `mlp_forward` call,
    at row counts around the block size; 2 * block + 1 rows would leave a
    one-row tail, which joins the block before it."""
    params = numcore.init_params(widths, 3)
    block = training._EMBED_BLOCK_ELEMENTS // max(widths)
    forward, sizes = numcore.mlp_forward, []

    def recording(p, x):
        sizes.append(len(x))
        return forward(p, x)

    monkeypatch.setattr(numcore, "mlp_forward", recording)
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, block - 1, block, block + 1, block + 2, 2 * block + 1,
              3 * block):
        x = rng.standard_normal((n, widths[0]))
        want, _ = forward(params, x)
        sizes.clear()
        got = training.embed_dataset(params, sampling.LabeledDataset(
            x, np.zeros(n), np.zeros(n), np.arange(n)))
        assert got.features.tobytes() == want.tobytes(), n
        assert sum(sizes) == n and max(sizes) <= block + 1, (n, sizes)
        assert min(sizes) >= 2 or n == 1, (n, sizes)
