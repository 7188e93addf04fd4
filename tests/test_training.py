import pytest

from tripletkit.training import ConfigError, RunConfig


@pytest.mark.parametrize("field, value", [
    ("log_every", 0), ("log_every", -1),
    ("ohm_refresh_every", 0), ("ohm_refresh_every", -5),
    ("collapse_window", 1), ("collapse_window", 0),
])
def test_run_config_rejects_out_of_range_counts(field, value):
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: value})


def test_run_config_accepts_smallest_valid_counts():
    cfg = RunConfig(log_every=1, ohm_refresh_every=1, collapse_window=2)
    assert (cfg.log_every, cfg.ohm_refresh_every, cfg.collapse_window) == \
        (1, 1, 2)
