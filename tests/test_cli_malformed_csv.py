"""`tripletkit train` and `evaluate` on generated malformed dataset CSVs:
each one exits 3 with an error line and no traceback, before any training
step (property-based; needs hypothesis, see the `test` extra)."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletkit import cli, datagen, numcore
from tripletkit.sampling import write_dataset_csv

DIM = 4
INT64 = 2 ** 63


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding a checkpoint for DIM-wide data, and the lines of
    a valid 24-row DIM-wide dataset CSV."""
    d = tmp_path_factory.mktemp("malformed")
    write_dataset_csv(d / "good.csv", datagen.generate(datagen.GenSpec(
        num_identities=6, items_per_identity=4, feature_dim=DIM, seed=0)))
    numcore.save_checkpoint(d / "init.json",
                            numcore.init_params([DIM, 8, 4], seed=0))
    return d, (d / "good.csv").read_bytes().splitlines()


def bad_header(data, lines):
    names = [b"item_id", b"pid", b"cam", *(b"f%d" % i for i in range(DIM + 1)),
             b"x", b""]
    header = data.draw(st.lists(st.sampled_from(names), max_size=DIM + 5)
                       .map(b",".join).filter(lambda h: h != lines[0]))
    return [header, *lines[1:]]


def non_utf8(data, lines):
    blob = b"\n".join(lines)
    at = data.draw(st.integers(0, len(blob)))
    junk = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(",
                                      b"\xed\xa0\x80", b"\xf8\x88\x80"]))
    return [blob[:at] + junk + blob[at:]]


def edit_field(lines, line, field, value):
    fields = lines[line].split(b",")
    fields[field] = value
    return [*lines[:line], b",".join(fields), *lines[line + 1:]]


def label_past_int64(data, lines):
    value = data.draw(st.integers(min_value=INT64)
                      | st.integers(max_value=-INT64 - 1))
    return edit_field(lines, data.draw(st.integers(1, len(lines) - 1)),
                      data.draw(st.integers(0, 2)), b"%d" % value)


def duplicate_item_id(data, lines):
    i, j = data.draw(st.lists(st.integers(1, len(lines) - 1), min_size=2,
                              max_size=2, unique=True))
    return edit_field(lines, j, 0, lines[i].split(b",")[0])


def nonfinite_feature(data, lines):
    value = data.draw(st.sampled_from([b"nan", b"NaN", b"inf", b"-inf",
                                       b"1e999", b"-1e400"]))
    return edit_field(lines, data.draw(st.integers(1, len(lines) - 1)),
                      data.draw(st.integers(3, 2 + DIM)), value)


def header_only(data, lines):
    return lines[:1]


def zero_bytes(data, lines):
    return []


DEFECTS = [bad_header, non_utf8, label_past_int64, duplicate_item_id,
           nonfinite_feature, header_only, zero_bytes]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_malformed_csv_exits_3_without_traceback(files, data):
    d, lines = files
    defect = data.draw(st.sampled_from(DEFECTS))
    bad, good = d / "bad.csv", str(d / "good.csv")
    bad.write_bytes(b"".join(line + b"\n" for line in defect(data, lines)))
    if data.draw(st.sampled_from(["train", "evaluate"])) == "train":
        argv = ["train", "--data", str(bad), "--widths", f"{DIM},8,4",
                "--P", "3", "--K", "2", "--t0", "2", "--t1", "4"]
    else:
        queries, gallery = data.draw(st.permutations([str(bad), good]))
        argv = ["evaluate", "--checkpoint", str(d / "init.json"),
                "--queries", queries, "--gallery", gallery]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "-o", str(d / "out")])
    assert rc == cli.EXIT_DATA, (defect.__name__, err.getvalue())
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
