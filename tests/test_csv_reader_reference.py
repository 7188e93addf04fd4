"""`read_dataset_csv` against a frozen copy of the line reader it replaced.

`read_dataset_csv` parses a file's rows with one `np.loadtxt` call and
hands whatever that parser might read differently from the csv module to a
line reader. The functions below are that reader as it was before: one
`csv.reader` row and one `int()`/`float()` per field. For every generated
CSV both must return bit-identical columns, or both raise the same
exception with the same message (property-based; needs hypothesis, see the
`test` extra).
"""

import csv

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripletkit import datagen
from tripletkit.sampling import (LabeledDataset, SamplingError,
                                 read_dataset_csv, write_dataset_csv)


# ---- reference copy -------------------------------------------------------

def reference_read_dataset_csv(path) -> LabeledDataset:
    """Read a dataset CSV; a file with only the header gives zero rows of
    the header's feature width. Bytes that are not UTF-8, malformed rows,
    non-finite feature values, labels outside the int64 range and repeated
    item_ids raise SamplingError naming the file and the first such line."""
    try:
        with open(path, encoding="utf-8") as f:
            r = csv.reader(f)
            header = next(r, [])
            if header[:3] != ["item_id", "pid", "cam"]:
                raise SamplingError(f"unexpected CSV header in {path}")
            exp_cols = [f"f{i}" for i in range(len(header) - 3)]
            if header[3:] != exp_cols:
                raise SamplingError(f"unexpected feature columns in {path}")
            item_ids, pids, cams, feats, lines = [], [], [], [], []
            for row in r:
                try:
                    if len(row) != len(header):
                        raise ValueError(f"{len(row)} fields, header has "
                                         f"{len(header)}")
                    item_ids.append(int(row[0]))
                    pids.append(int(row[1]))
                    cams.append(int(row[2]))
                    feats.append([float(v) for v in row[3:]])
                    lines.append(r.line_num)
                except ValueError as exc:
                    raise SamplingError(f"{path}:{r.line_num}: {exc}") from None
    except csv.Error as exc:
        raise SamplingError(f"{path}:{r.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise SamplingError(f"{path}:{_undecodable_line(path)}: not UTF-8 "
                            "text") from None
    features = np.asarray(feats, dtype=np.float64).reshape(
        len(feats), len(exp_cols))
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise SamplingError(f"{path}:{lines[int(np.argmin(finite))]}: "
                            "non-finite feature value")
    try:
        return LabeledDataset(features, pids, cams, item_ids)
    except (OverflowError, ValueError):
        # a label past int64 or a repeated item_id: name its first line
        seen = set()
        for line, labels in zip(lines, zip(item_ids, pids, cams)):
            if not all(-2 ** 63 <= v < 2 ** 63 for v in labels):
                raise SamplingError(f"{path}:{line}: label outside the int64 "
                                    "range") from None
            if labels[0] in seen:
                raise SamplingError(f"{path}:{line}: repeated item_id "
                                    f"{labels[0]}") from None
            seen.add(labels[0])
        raise


def _undecodable_line(path) -> int:
    """The line of the first byte of `path` that is not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 0        # the file changed since it failed to decode


# ---- generated CSV texts --------------------------------------------------

INT64 = 2 ** 63

# Spellings of labels and features beyond what `write_dataset_csv` writes:
# the int64 bounds and one past them, signed zeros, subnormals, non-finite
# values, and text that int() or float() accepts and np.loadtxt refuses, or
# the other way round.
ODD_FIELDS = [
    str(INT64 - 1), str(-INT64), str(INT64), str(-INT64 - 1), "1_000", "1.0",
    "+7", "007", " 5", "5 ", "\t5\x0b", '"12"', '"0.5"', "", " ", "0x10",
    "0x1p3", "1e3", "-0.0", "5e-324", "-2.5e-310", "nan", "NaN", "-inf",
    "Infinity", "1e999", "1_000.5", ".5", "5.", "nan(1)", "1.5j", "٥", "Ǿ1",
    "1Ǿ", "\x1c5", "0.5\x1f", "\xa05", "0.5\u2003", "5\x00"]
# The characters of generated fields: those of numbers, quotes, ASCII and
# other whitespace, and non-ASCII digits and letters.
FIELD_CHARS = st.sampled_from(
    [*"0123456789+-._eExXjnaifINFty \t\x0b\x0c\"", "\x00", "\x1c", "\x1f",
     "\x85", "\xa0", "\u2003", "٥", "Ǿ", "ݡ"])
FIELDS = (st.sampled_from(ODD_FIELDS) | st.text(FIELD_CHARS, max_size=8)
          | st.floats().map(repr) | st.integers(-INT64 - 2, INT64 + 1).map(str))
GOOD_ROWS = [["0", "1", "2", "0.5", "-1.25"], ["1", "1", "0", "3.0", "2e-3"],
             ["2", "4", "1", "-0.75", "8.5"]]


@st.composite
def csv_texts(draw):
    """Bytes of a dataset CSV: well formed, or with defects of layout."""
    width = draw(st.integers(0, 3))
    header = ["item_id", "pid", "cam"] + [f"f{i}" for i in range(width)]
    if draw(st.integers(0, 9)) == 0:        # a header that does not match
        header = draw(st.permutations(header + ["x"]))[:len(header)]
    lines = [",".join(header)]
    labels = st.integers(-3, 40).map(str)
    features = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    for n in range(draw(st.integers(0, 6))):
        item_id = str(n) if draw(st.integers(0, 9)) else draw(labels)
        row = [item_id, draw(labels), draw(labels)]
        row += [draw(features) for _ in range(width)]
        if draw(st.integers(0, 19)) == 0:   # a field too many or too few
            row = row[:-1] if draw(st.booleans()) else row + ["0"]
        lines.append(",".join(row))
    if draw(st.integers(0, 4)) == 0:        # a blank or space-only line
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(["", " ", "\t"])))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, "", ending * 2]))
    data = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 0:       # bytes that are not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3("])) + data[at:]
    return data


def read(reader, path):
    """What `reader` made of `path`: its columns, or its exception."""
    try:
        ds = reader(path)
    except Exception as exc:        # compared by type and message
        return type(exc), str(exc)
    assert isinstance(ds, LabeledDataset)
    return [(a.dtype, a.shape, a.tobytes())
            for a in (ds.features, ds.pids, ds.cams, ds.item_ids)]


def assert_same_as_reference(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    got = read(read_dataset_csv, path)
    assert got == read(reference_read_dataset_csv, path)
    if isinstance(got, tuple):
        assert got[0] is SamplingError


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(GOOD_ROWS) - 1), st.integers(0, 4), FIELDS)
@example(0, 0, "Ǿ1")        # read as a digit by NumPy's integer parser
@example(1, 2, "\x1c5")     # skipped by it, refused by int()
@example(2, 3, "nan")
@example(2, 4, "0" * 140_000)       # past the csv module's field limit
def test_one_field_matches_line_reader(tmp_path_factory, row, column, text):
    rows = [r.copy() for r in GOOD_ROWS]
    rows[row][column] = text
    lines = ["item_id,pid,cam,f0,f1", *map(",".join, rows)]
    assert_same_as_reference(tmp_path_factory.mktemp("csv"),
                             "\n".join(lines).encode("utf-8") + b"\n")


@settings(max_examples=100, deadline=None)
@given(csv_texts())
@example(b"item_id,pid,cam,f0\n")                           # header only
@example(b"item_id,pid,cam,f0\n1,2,3,0.5")                  # no final newline
@example(b"item_id,pid,cam,f0\n1,2,3,0.5\n\n")              # trailing blank
@example(b"item_id,pid,cam,f0\n\n1,2,3,0.5\n")              # mid-file blank
@example(b"item_id,pid,cam\n1,2,3\n4,5,6\n")                # no features
def test_file_matches_line_reader(tmp_path_factory, data):
    assert_same_as_reference(tmp_path_factory.mktemp("csv"), data)


def test_benchmark_shaped_file_matches(tmp_path):
    """A file shaped like the paper_pk benchmark's, a quarter as long."""
    data = datagen.generate(datagen.GenSpec(
        num_identities=150, items_per_identity=8, feature_dim=64,
        outlier_rate=0.05, seed=0))
    write_dataset_csv(tmp_path / "data.csv", data)
    assert_same_as_reference(tmp_path, (tmp_path / "data.csv").read_bytes())
