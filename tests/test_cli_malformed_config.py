"""`tripletkit train --config` with generated config documents: nested
objects, lists, wrong types, huge numbers, deep nesting and bytes that are
not UTF-8. Each one exits 0, 2, 3 or 4 with no traceback (property-based;
needs hypothesis, see the `test` extra)."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletkit import cli, datagen
from tripletkit.sampling import write_dataset_csv

DIM = 4

# The flags `train` reads, as config keys in both spellings, and some it
# does not know. The command line below fixes the data, the output
# directory, the schedule, the widths and the loss, so that a valid
# document trains for 3 steps on small arrays.
KEYS = ["P", "K", "B", "loss", "margin", "metric", "seed", "eps0", "t0",
        "t1", "widths", "data", "out", "config", "ohm_sample_fraction",
        "ohm-refresh-every", "per_id", "cmc_ranks", "h", "", "-", "P=3",
        "unknown"]

scalars = (st.none() | st.booleans() | st.floats()
           | st.integers(-3, 12)
           | st.integers(10 ** 6, 10 ** 40) | st.integers(-10 ** 40, -10 ** 6)
           | st.text(max_size=8)
           | st.sampled_from(["3", "1e999", "nan", "soft", "0.2", "batch_all",
                              "euclidean", "1,2", "0x10", "-1"]))
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=4), inner,
                                        max_size=3), max_leaves=8)
# documents `train` accepts, some of whose runs diverge (a huge eps0) or
# ask for more identities than the data has
plausible = st.fixed_dictionaries({}, optional={
    "P": st.integers(2, 8), "K": st.integers(2, 5),
    "B": st.integers(1, 10) | st.integers(10 ** 6, 10 ** 40), "seed": st.integers(0, 10 ** 30),
    "margin": st.sampled_from(["soft", "0.2", 1.0]),
    "metric": st.sampled_from(["euclidean", "squared_euclidean"]),
    "eps0": st.sampled_from([1e-3, 0.5, 1e300]),
    "ohm_refresh_every": st.integers(1, 10 ** 30)})
documents = (plausible
             | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6),
                               values, max_size=5)
             | values)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("config")
    write_dataset_csv(d / "data.csv", datagen.generate(datagen.GenSpec(
        num_identities=6, items_per_identity=4, feature_dim=DIM, seed=0)))
    return d


def encode(data, doc):
    """The document as JSON bytes, perhaps with a byte that is not UTF-8
    or nested far deeper than the parser recurses, and which of these."""
    text = json.dumps(doc).encode()
    damage = data.draw(st.sampled_from(["none"] * 3 + ["non-utf8", "deep"]))
    if damage == "non-utf8":
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from([b"\xff", b"\x80",
                                                      b"\xed\xa0\x80"])) \
            + text[at:]
    elif damage == "deep":
        depth = data.draw(st.integers(10_000, 100_000))
        text = b'{"P": ' + b"[" * depth + b"]" * depth + b"}"
    return text, damage


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_config_documents_exit_cleanly(workdir, data):
    path = workdir / "config.json"
    text, damage = encode(data, data.draw(documents))
    path.write_bytes(text)
    argv = ["train", "--config", str(path), "--data",
            str(workdir / "data.csv"), "--t0", "2", "--t1", "3",
            "--widths", f"{DIM},8,4", "--loss", "batch_hard",
            "-o", str(workdir / "out")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:       # argparse: a bad flag, or --help
            rc = exc.code
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA,
                  cli.EXIT_COLLAPSE), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if damage != "none":
        assert rc == cli.EXIT_USAGE
        assert f"error: {path}: not a JSON config file" in err.getvalue()
