import pytest

from tripletkit.training import ConfigError, RunConfig


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
