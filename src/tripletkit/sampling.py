"""PK batch construction, random triplet sampling, and offline hard mining."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .losses import BatchLabels, MarginMode, margin_apply, pairwise_distances
from .numcore import MlpParams, mlp_forward


# Cap on the valid (anchor, positive, negative) triplets one mining block
# holds; each block's temporaries are a few arrays of that length.
_BLOCK_ELEMENTS = 2 ** 14


class SamplingError(ValueError):
    """Dataset cannot support the requested sampling."""


class IdentityIndex:
    """Where each identity's rows sit in one stable argsort of the labels.

    `order` lists the rows identity by identity, in stable row order, and
    `identities` counts the distinct labels. For the samplers, `starts` and
    `counts` give where the rows of each usable identity (one with at least
    2 rows, so with a positive), in ascending label order, begin in `order`
    and how many there are, `fewest` the smallest count, and `anchor_ends`
    the running total of the counts: O(identities) on top of the rows.
    """

    def __init__(self, pids: np.ndarray):
        order = np.argsort(pids, kind="stable")
        order.flags.writeable = False       # and so the views into it
        keys, starts, counts = np.unique(pids[order], return_index=True,
                                         return_counts=True)
        ok = counts >= 2
        self.order = order
        self.identities = len(keys)
        self.starts, self.counts = starts[ok], counts[ok]
        self.fewest = int(self.counts.min(initial=len(pids)))
        self.anchor_ends = np.cumsum(self.counts)
        for a in (self.starts, self.counts, self.anchor_ends):
            a.flags.writeable = False


def _scaled(u: np.ndarray, n) -> np.ndarray:
    """floor(u * n) for uniforms u in [0, 1): an index below n.

    It stays below n for integers n < 2**53. The largest u, 1 - 2**-53,
    gives an exact product n * 2**-53 below n. That is more than half the
    spacing of the doubles just below n, so the product rounds to one of
    them; when n is a power of 2 it is exactly one spacing, a double
    itself. A smaller u gives no larger product.
    """
    return (u * n).astype(np.int64)


_LABEL_COLUMNS = ("pids", "cams", "item_ids")


@dataclass
class LabeledDataset:
    """Feature rows with identity and camera labels.

    The label columns are private read-only int64 copies, so the cached
    identity index cannot go stale: writing into them raises, and
    assigning a new `pids` drops the cache.
    """

    features: np.ndarray        # (N, F)
    pids: np.ndarray            # identity per row
    cams: np.ndarray            # camera per row
    item_ids: np.ndarray        # unique per row

    def __setattr__(self, name, value):
        if name in _LABEL_COLUMNS:
            value = np.array(value, dtype=np.int64)
            value.flags.writeable = False
            if name == "pids":
                object.__setattr__(self, "_index", None)
        object.__setattr__(self, name, value)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        n = len(self.features)
        if not (len(self.pids) == len(self.cams) == len(self.item_ids) == n):
            raise ValueError("column lengths disagree")
        if len(np.unique(self.item_ids)) != n:
            raise ValueError("item_ids must be unique")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def identity_index(self) -> IdentityIndex:
        """Row indices per identity, in stable row order; built on first
        use and kept until `pids` is assigned again."""
        if self._index is None:
            self._index = IdentityIndex(self.pids)
        return self._index

    def subset(self, rows: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[rows], self.pids[rows],
                              self.cams[rows], self.item_ids[rows])


@dataclass
class PKBatch:
    rows: np.ndarray            # P*K dataset row indices, identity-blocked
    P: int
    K: int


def sample_pk_batch(dataset: LabeledDataset, P: int, K: int,
                    rng: np.random.Generator) -> PKBatch:
    """P identities uniform without replacement, K items each.

    Items are taken without replacement when the identity has at least K,
    otherwise every distinct item appears once before uniform replication.
    Identities with a single item are excluded (no positive exists).

    At most three draws per batch, whatever P and K: one uniform key per
    usable identity, the P smallest choosing the identities; a (P, width)
    key matrix, whose row order puts each identity's rows in random order;
    and, only if a chosen identity has fewer than K rows, one uniform per
    replicated slot.
    """
    if P < 2 or K < 2:
        raise SamplingError("need P >= 2 and K >= 2")
    index = dataset.identity_index()
    usable = len(index.counts)
    if usable < P:
        raise SamplingError(
            f"dataset has {usable} usable identities, need {P}")
    chosen = rng.random(usable).argpartition(P - 1)[:P]
    counts = index.counts[chosen, None]
    width = max(K, *counts.ravel().tolist())    # cheaper than .max() here
    keys = rng.random((P, width))
    past = np.arange(width) >= counts
    keys[past] = np.inf                 # an identity's own rows sort first
    cols = keys.argsort(axis=1)[:, :K]
    if K > index.fewest and past[:, K - 1].any():   # replicated slots
        short = past[:, :K]
        n = np.broadcast_to(counts, short.shape)[short]
        cols[short] = _scaled(rng.random(len(n)), n)
    cols += index.starts[chosen, None]
    return PKBatch(index.order[cols.ravel()], P, K)


def sample_random_triplets(dataset: LabeledDataset, B: int,
                           rng: np.random.Generator) -> np.ndarray:
    """B uniform triplets as a (B, 3) int64 array of (anchor, positive,
    negative) rows; anchors come only from identities with >= 2 items.

    One (3, B) uniform draw per batch, whatever B. Each triplet scales its
    three uniforms to the anchor's place among the rows of usable
    identities, the positive's among the anchor's other rows and the
    negative's among the rows of other identities, all of these in `order`.
    """
    if B < 1:
        raise SamplingError("B must be >= 1")
    index = dataset.identity_index()
    ends = index.anchor_ends
    if index.identities < 2 or len(ends) == 0:
        raise SamplingError("need >= 2 identities and one with >= 2 items")
    u = rng.random((3, B))
    i = _scaled(u[0], ends[-1])
    ident = ends.searchsorted(i, "right")
    start, count = index.starts[ident], index.counts[ident]
    a = i - ends[ident] + count                 # the anchor within its identity
    k = _scaled(u[1], count - 1)
    p = k + (k >= a)                            # skipping the anchor
    n = _scaled(u[2], len(index.order) - count)
    n += count * (n >= start)                   # skipping the identity's rows
    return index.order[np.column_stack([start + a, start + p, n])]


def mine_hard_offline(model: MlpParams, dataset: LabeledDataset,
                      sample_fraction: float, B: int,
                      margin_mode: MarginMode,
                      rng: np.random.Generator,
                      metric: str = "euclidean") -> np.ndarray:
    """Embed a random subset and return the B highest-loss valid triplets,
    as (anchor, positive, negative) rows of an int64 array.

    Returned indices refer to the full dataset. Ordering is by descending
    loss term, ties by subset (a, p, n) enumeration order. Only the valid
    triplets are built (`_valid_triplets`), a block of anchors at a
    time, each block at most `_BLOCK_ELEMENTS` triplets or one anchor's.
    Each block keeps its B highest terms and the survivors are ranked once
    more, which picks what one stable sort of every valid triplet would.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise SamplingError("sample_fraction must be in (0, 1]")
    if B < 1:
        raise SamplingError("B must be >= 1")
    n = len(dataset)
    if n < 2:
        raise SamplingError(f"mining needs at least 2 rows, got {n}")
    size = max(2, int(round(sample_fraction * n)))

    for _ in range(2):      # one retry before giving up
        rows = np.sort(rng.choice(n, size=size, replace=False))
        if len(np.unique(dataset.pids[rows])) >= 2:
            break
    else:
        raise SamplingError("mined subset degenerated to one identity")

    emb, _ = mlp_forward(model, dataset.features[rows])
    d = pairwise_distances(emb, metric).values.ravel()
    same = BatchLabels(dataset.pids[rows]).same_label()
    m = len(rows)
    # an anchor whose identity has c of the m rows has (c - 1)(m - c) triplets
    sizes = same.sum(axis=1)
    most = int(((sizes - 1) * (m - sizes)).max())
    step = max(1, _BLOCK_ELEMENTS // max(1, most))
    found, keys = [], []
    for lo in range(0, m, step):
        ap, an = _valid_triplets(same, lo, lo + step)
        key = margin_apply(d[ap] - d[an], margin_mode)
        np.negative(key, out=key)
        top = _smallest(key, B)
        found.append(ap[top] * m + an[top] % m)
        keys.append(key[top])
    found, keys = np.concatenate(found), np.concatenate(keys)
    if len(found) == 0:
        raise SamplingError("subset contains no valid triplet")
    # blocks are in anchor order and each keeps ties in enumeration order,
    # so one stable sort ranks the survivors as a sort of every triplet would
    best = found[_smallest(keys, B)]
    return rows[np.column_stack(np.unravel_index(best, (m, m, m)))]


def _valid_triplets(same: np.ndarray, lo: int,
                    hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Every valid (a, p, q) triplet whose anchor a is one of rows lo..hi-1:
    p != a shares a's label and q does not. `same` is the `same_label()`
    matrix of all n rows. Returns the flat indices a*n + p and a*n + q of
    D(a, p) and D(a, q) in the (n, n) distances, in ascending (a, p, q)
    order: each anchor's positives in turn, each with all its negatives.
    Builds O(triplets) integers and no (a, p, q) mask.
    """
    n = len(same)
    rows = same[lo:hi]
    positive = rows.copy()
    positive[np.arange(len(rows)), np.arange(lo, lo + len(rows))] = False
    negative = ~rows
    ap = np.flatnonzero(positive) + lo * n
    aq = np.flatnonzero(negative) + lo * n
    negatives = np.count_nonzero(negative, axis=1)
    pairs = np.count_nonzero(positive, axis=1)
    # pair j repeats its anchor's negatives, which begin at first[j] in aq
    reps = np.repeat(negatives, pairs)
    first = np.repeat(np.cumsum(negatives) - negatives, pairs)
    at = np.repeat(first - np.cumsum(reps) + reps, reps)
    at += np.arange(len(at))
    return np.repeat(ap, reps), aq[at]


def _smallest(key: np.ndarray, B: int) -> np.ndarray:
    """`np.argsort(key, kind="stable")[:B]`, sorting only the keys at or
    below the B-th smallest (all of them if that one is NaN)."""
    if len(key) > B:
        kth = key[np.argpartition(key, B - 1)[B - 1]]
        kept = np.flatnonzero(~(key > kth))
        return kept[np.argsort(key[kept], kind="stable")[:B]]
    return np.argsort(key, kind="stable")


def write_dataset_csv(path, dataset: LabeledDataset) -> None:
    """CSV with header item_id,pid,cam,f0,...; round-trip float formatting."""
    f_dim = dataset.feature_dim
    header = ["item_id", "pid", "cam"] + [f"f{i}" for i in range(f_dim)]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for i in range(len(dataset)):
            w.writerow([int(dataset.item_ids[i]), int(dataset.pids[i]),
                        int(dataset.cams[i])]
                       + [repr(float(v)) for v in dataset.features[i]])


# The characters of the numbers that int() and float() read, commas and
# ASCII whitespace: the only ones `_bulk_rows` hands to np.loadtxt. NumPy's
# integer parser reads other characters as digits ("\u01fe1" gives 4621)
# and can crash on them, and it skips U+001C..U+001F around a number,
# which int() and float() refuse.
_PLAIN = b"0123456789+-.eEnNaAiIfFtTyY, \t\x0b\x0c\n"


class _LineByLine(ValueError):
    """Input that np.loadtxt might read differently from the csv module."""


def read_dataset_csv(path) -> LabeledDataset:
    """Read a dataset CSV; a file with only the header gives zero rows of
    the header's feature width. Bytes that are not UTF-8, malformed rows,
    non-finite feature values, labels outside the int64 range and repeated
    item_ids raise SamplingError naming the file and the first such line.

    The rows after the header are parsed by one np.loadtxt call on the open
    file. A file it refuses, might read differently from the csv module or
    that fails a check is read again line by line, which returns the same
    dataset or names the line at fault.
    """
    try:
        with open(path, encoding="utf-8") as f:
            header = next(csv.reader(f), [])
            width = len(header) - 3
            if header == ["item_id", "pid", "cam",
                          *(f"f{i}" for i in range(width))]:
                return _bulk_rows(f, width)
    except (ValueError, csv.Error):
        pass
    return _read_lines(path)


def _bulk_rows(f, width: int) -> LabeledDataset:
    """The rows left in `f`, parsed by one np.loadtxt call. Raises
    ValueError wherever `_read_lines` might read them differently: a line
    that is blank, holds a character outside `_PLAIN` or is longer than the
    csv module's field limit, a header-only file (loadtxt warns on it), a
    line loadtxt skipped and a dataset that fails a check."""
    limit = csv.field_size_limit()
    count = 0

    def plain_lines():
        nonlocal count
        for line in f:
            if (line == "\n" or len(line) > limit
                    or line.encode("ascii").translate(None, _PLAIN)):
                raise _LineByLine
            count += 1
            yield line

    lines = plain_lines()
    first = next(lines, None)
    if first is None:
        raise _LineByLine
    dtype = [("item_id", "i8"), ("pid", "i8"), ("cam", "i8"),
             ("f", "f8", (width,))]
    rows = np.loadtxt(itertools.chain([first], lines), dtype=dtype,
                      delimiter=",", comments=None, ndmin=1)
    features = np.ascontiguousarray(rows["f"])
    if len(rows) != count or not np.isfinite(features).all():
        raise _LineByLine
    return LabeledDataset(features, rows["pid"], rows["cam"], rows["item_id"])


def _read_lines(path) -> LabeledDataset:
    """`read_dataset_csv`, one csv row at a time."""
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
