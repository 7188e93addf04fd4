"""PK batch construction, random triplet sampling, and offline hard mining."""

from __future__ import annotations

import csv
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .losses import (BatchLabels, MarginMode, margin_apply,
                     pairwise_distances, triplet_differences)
from .numcore import MlpParams, mlp_forward


# Cap on the (anchor, positive, negative) elements one mining block holds.
_BLOCK_ELEMENTS = 2 ** 18


class SamplingError(ValueError):
    """Dataset cannot support the requested sampling."""


class IdentityIndex(Mapping):
    """Read-only map from identity to its row indices, in stable row order.

    Built from one stable argsort of the labels. `usable` lists, in
    ascending order, the identities with at least 2 rows (the ones that
    have a positive), and `anchor_rows` holds their rows, identity by
    identity.
    """

    def __init__(self, pids: np.ndarray):
        order = np.argsort(pids, kind="stable")
        order.flags.writeable = False
        keys, starts, counts = np.unique(pids[order], return_index=True,
                                         return_counts=True)
        self._rows = dict(zip(keys.tolist(), np.split(order, starts[1:])))
        self.usable = tuple(keys[counts >= 2].tolist())
        self.anchor_rows = order[np.repeat(counts >= 2, counts)]
        self.anchor_rows.flags.writeable = False

    def __getitem__(self, pid: int) -> np.ndarray:
        return self._rows[pid]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


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
    """
    if P < 2 or K < 2:
        raise SamplingError("need P >= 2 and K >= 2")
    index = dataset.identity_index()
    pids = index.usable
    if len(pids) < P:
        raise SamplingError(
            f"dataset has {len(pids)} usable identities, need {P}")
    chosen = rng.choice(len(pids), size=P, replace=False)
    all_rows = []
    for c in chosen:
        rows = index[pids[c]]
        if len(rows) >= K:
            picked = rng.choice(rows, size=K, replace=False)
        else:
            extra = rng.choice(rows, size=K - len(rows), replace=True)
            picked = np.concatenate([rng.permutation(rows), extra])
        all_rows.append(picked)
    return PKBatch(np.concatenate(all_rows), P, K)


def sample_random_triplets(dataset: LabeledDataset, B: int,
                           rng: np.random.Generator) -> np.ndarray:
    """B uniform triplets as a (B, 3) int64 array of (anchor, positive,
    negative) rows; anchors come only from identities with >= 2 items.

    Each triplet takes three draws: the anchor from `anchor_rows`, then
    the positive from the anchor's other rows and the negative from the
    rows of other identities, both in row order. `arr[rng.integers(0,
    len(arr))]` is the draw `rng.choice(arr)` makes.
    """
    index = dataset.identity_index()
    anchor_pool = index.anchor_rows
    if len(index) < 2 or len(anchor_pool) == 0:
        raise SamplingError("need >= 2 identities and one with >= 2 items")
    pids = dataset.pids
    triplets = np.empty((B, 3), dtype=np.int64)
    for t in range(B):
        a = int(anchor_pool[rng.integers(0, len(anchor_pool))])
        same = index[int(pids[a])]
        # the k-th of the identity's rows other than a
        k = int(rng.integers(0, len(same) - 1))
        p = int(same[k])
        if p >= a:
            p = int(same[k + 1])
        # the j-th row of another identity is j plus the number of the
        # identity's rows at or before it: same[i] - i counts the rows of
        # other identities before same[i]
        j = int(rng.integers(0, len(pids) - len(same)))
        n = j + int((same - np.arange(len(same))).searchsorted(j, "right"))
        triplets[t] = a, p, n
    return triplets


def mine_hard_offline(model: MlpParams, dataset: LabeledDataset,
                      sample_fraction: float, B: int,
                      margin_mode: MarginMode,
                      rng: np.random.Generator,
                      metric: str = "euclidean") -> np.ndarray:
    """Embed a random subset and return the B highest-loss valid triplets,
    as (anchor, positive, negative) rows of an int64 array.

    Returned indices refer to the full dataset. Ordering is by descending
    loss term, ties by subset (a, p, n) enumeration order. Terms are built
    in blocks of anchors, about `_BLOCK_ELEMENTS` triplets at a time.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise SamplingError("sample_fraction must be in (0, 1]")
    n = len(dataset)
    size = max(2, int(round(sample_fraction * n)))

    for _ in range(2):      # one retry before giving up
        rows = np.sort(rng.choice(n, size=size, replace=False))
        if len(np.unique(dataset.pids[rows])) >= 2:
            break
    else:
        raise SamplingError("mined subset degenerated to one identity")

    emb, _ = mlp_forward(model, dataset.features[rows])
    d = pairwise_distances(emb, metric).values
    same = BatchLabels(dataset.pids[rows]).same_label()
    m = len(rows)
    step = max(1, _BLOCK_ELEMENTS // (m * m))
    found, keys = [], []
    for lo in range(0, m, step):
        xvals, valid = triplet_differences(d, same, lo, lo + step)
        flat = np.flatnonzero(valid)
        key = -margin_apply(xvals.ravel()[flat], margin_mode)
        top = np.argsort(key, kind="stable")[:B]
        found.append(flat[top] + lo * m * m)
        keys.append(key[top])
    found, keys = np.concatenate(found), np.concatenate(keys)
    if len(found) == 0:
        raise SamplingError("subset contains no valid triplet")
    # blocks are in anchor order and each keeps ties in enumeration order,
    # so one stable sort ranks the survivors as a sort of every triplet would
    best = found[np.argsort(keys, kind="stable")[:B]]
    return rows[np.column_stack(np.unravel_index(best, (m, m, m)))]


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


def read_dataset_csv(path) -> LabeledDataset:
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
