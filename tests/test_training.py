import pytest

from tripletkit.optim import Schedule
from tripletkit.training import (ConfigError, RunConfig,
                                 default_benchmark_sets, train)


@pytest.mark.parametrize("field, value", [
    ("ohm_refresh_every", 0), ("ohm_refresh_every", -5),
])
def test_run_config_rejects_out_of_range_counts(field, value):
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: value})


def test_run_config_accepts_smallest_valid_counts():
    assert RunConfig(ohm_refresh_every=1).ohm_refresh_every == 1


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
