"""Correctness references the benchmark checks tripletkit's outputs against.

They are written independently of the program: the retrieval reference
computes the distance to every gallery row, sorts, and accumulates
precision in plain Python loops.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from tripletkit import evalkit, sampling

TOLERANCE = 1e-12
SAMPLE_SIZE = 20


def query_sample(num_queries: int, seed: int) -> np.ndarray:
    """Fixed sample of query indices for the reference check."""
    rng = np.random.default_rng([seed, 1703])
    return np.sort(rng.choice(num_queries, size=min(SAMPLE_SIZE, num_queries),
                              replace=False))


def reference_query(qi: int, queries: sampling.LabeledDataset,
                    gallery: sampling.LabeledDataset,
                    exclude_same_camera: bool) -> tuple[float, int] | None:
    """Brute-force AP and rank of the first relevant row for one query, or
    None when no kept gallery row is relevant.

    Rows are ranked by Euclidean distance, ties toward the lower row index.
    """
    diff = gallery.features - queries.features[qi]
    dists = np.sqrt((diff * diff).sum(axis=1)).tolist()
    qpid, qcam = int(queries.pids[qi]), int(queries.cams[qi])
    ranked = []
    for j, (dist, pid, cam) in enumerate(zip(dists, gallery.pids.tolist(),
                                             gallery.cams.tolist())):
        if exclude_same_camera and pid == qpid and cam == qcam:
            continue
        ranked.append((dist, j, pid == qpid))
    ranked.sort()
    relevant = sum(rel for _, _, rel in ranked)
    if relevant == 0:
        return None
    hits, precision_sum, first = 0, 0.0, 0
    for rank, (_, _, rel) in enumerate(ranked, start=1):
        if rel:
            hits += 1
            precision_sum += hits / rank
            first = first or rank
    return precision_sum / relevant, first


def _answerable(queries: sampling.LabeledDataset,
                gallery: sampling.LabeledDataset,
                exclude_same_camera: bool) -> list[bool]:
    per_pid = Counter(gallery.pids.tolist())
    per_pid_cam = Counter(zip(gallery.pids.tolist(), gallery.cams.tolist()))
    out = []
    for pid, cam in zip(queries.pids.tolist(), queries.cams.tolist()):
        n = per_pid[pid] - (per_pid_cam[(pid, cam)] if exclude_same_camera else 0)
        out.append(n > 0)
    return out


def check_eval(result: evalkit.EvalResult, queries: sampling.LabeledDataset,
               gallery: sampling.LabeledDataset,
               protocol: evalkit.EvalProtocol,
               sample: np.ndarray) -> list[str]:
    """Compare a single-query `evaluate` result with the reference on the
    sampled queries; returns one message per mismatch."""
    errors = []
    if result.num_queries + result.num_skipped != len(queries):
        errors.append(f"{result.num_queries} queries + {result.num_skipped} "
                      f"skipped != {len(queries)}")
    exclude = protocol.exclude_same_camera_same_id
    answerable = _answerable(queries, gallery, exclude)
    if sum(answerable) != len(result.per_query_ap):
        errors.append(f"{len(result.per_query_ap)} APs for "
                      f"{sum(answerable)} answerable queries")
        return errors
    if abs(result.map - float(np.mean(result.per_query_ap))) > TOLERANCE:
        errors.append(f"mAP {result.map} is not the mean of the per-query APs")

    position = np.cumsum(answerable) - 1
    firsts = []
    for qi in sample.tolist():
        ref = reference_query(qi, queries, gallery, exclude)
        if ref is None:
            continue
        ap, first = ref
        firsts.append(first)
        got = result.per_query_ap[position[qi]]
        if abs(got - ap) > TOLERANCE:
            errors.append(f"query {qi}: AP {got!r}, reference {ap!r}")

    # The result exposes CMC only in aggregate, so compare it over the sample.
    if firsts:
        sub = evalkit.evaluate(queries.subset(sample), gallery, protocol)
        for k in protocol.cmc_ranks:
            want = float(np.mean(np.asarray(firsts) <= k))
            if abs(sub.cmc[k] - want) > TOLERANCE:
                errors.append(f"CMC@{k} over the sample: {sub.cmc[k]!r}, "
                              f"reference {want!r}")
    return errors


def checkpoint_is_finite(path: str) -> bool:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    arrays = [np.asarray(layer[key], dtype=np.float64)
              for layer in doc["layers"] for key in ("weight", "bias")]
    return all(np.isfinite(a).all() for a in arrays)
