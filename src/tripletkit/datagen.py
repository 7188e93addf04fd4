"""Synthetic identity-cluster datasets for desk-scale experiments.

Identities are isotropic Gaussian clusters; outliers are modeled as label
swaps (annotation mistakes), which is what stresses hard mining.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .sampling import LabeledDataset, write_dataset_csv


# The most elements the generated (rows, feature_dim) matrix may hold,
# checked before anything is allocated: 2**27 float64 values are 1 GiB.
MAX_FEATURE_ELEMENTS = 2 ** 27


@dataclass
class GenSpec:
    num_identities: int = 32
    items_per_identity: int = 8
    feature_dim: int = 16
    identity_spread: float = 4.0
    intra_spread: float = 0.5
    num_cameras: int = 4
    outlier_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # chained comparisons, so that NaN fails as well
        if not 0.0 < self.identity_spread < math.inf:
            raise ValueError("identity_spread must be positive and finite")
        if not 0.0 <= self.intra_spread < math.inf:
            raise ValueError("intra_spread must be nonnegative and finite")
        if not 0.0 <= self.outlier_rate < 1.0:
            raise ValueError("outlier_rate must be in [0, 1)")
        if self.num_identities < 1 or self.items_per_identity < 1:
            raise ValueError("counts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if not 1 <= self.num_cameras < 2 ** 63:     # camera ids are int64
            raise ValueError(f"num_cameras must be in [1, 2**63), got "
                             f"{self.num_cameras}")
        if self.num_identities * self.items_per_identity * self.feature_dim \
                > MAX_FEATURE_ELEMENTS:
            raise ValueError("--ids/--per-id/--dim: num_identities * "
                             "items_per_identity * feature_dim is past the "
                             f"cap of {MAX_FEATURE_ELEMENTS} feature values")


def generate(spec: GenSpec) -> LabeledDataset:
    """Deterministic synthetic dataset driven by the GenSpec seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.num_identities * spec.items_per_identity
    pids = np.repeat(np.arange(spec.num_identities), spec.items_per_identity)
    with np.errstate(over="ignore"):    # checked below, as no CSV can hold it
        centers = spec.identity_spread * rng.standard_normal(
            (spec.num_identities, spec.feature_dim))
        # row by row the same draws: one noise vector per row, in row order
        feats = centers[pids] + spec.intra_spread * rng.standard_normal(
            (n, spec.feature_dim))
    if not np.isfinite(feats).all():
        raise ValueError(f"identity_spread {spec.identity_spread:g} and "
                         f"intra_spread {spec.intra_spread:g} overflow to "
                         "non-finite features")
    cams = np.arange(n) % spec.num_cameras
    if spec.outlier_rate > 0 and spec.num_identities > 1:
        swap = rng.random(n) < spec.outlier_rate
        for i in np.flatnonzero(swap):
            # one of the other identities, skipping the row's own
            other = rng.integers(spec.num_identities - 1)
            pids[i] = other + (other >= pids[i])
    return LabeledDataset(feats, pids, cams, np.arange(n))


def write_generated(out_dir, spec: GenSpec, name: str = "train") -> tuple[str, str]:
    """Write the dataset CSV plus a JSON echo of the generating spec."""
    import os
    dataset = generate(spec)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    json_path = os.path.join(out_dir, f"{name}_spec.json")
    write_dataset_csv(csv_path, dataset)
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(asdict(spec), f, indent=2)
    return csv_path, json_path
