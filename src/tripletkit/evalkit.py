"""Retrieval ranking, mAP/CMC under a camera-aware protocol, pooling,
and distractor injection."""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .sampling import LabeledDataset


class ProtocolError(ValueError):
    """Evaluation inputs violate the protocol's preconditions."""


@dataclass
class EvalProtocol:
    mode: str = "single_query"                  # or "multi_query"
    exclude_same_camera_same_id: bool = True
    cmc_ranks: tuple[int, ...] = (1, 5, 10)

    def __post_init__(self):
        if self.mode not in ("single_query", "multi_query"):
            raise ProtocolError(f"unknown mode {self.mode!r}")
        if list(self.cmc_ranks) != sorted(self.cmc_ranks) or \
                any(r < 1 for r in self.cmc_ranks):
            raise ProtocolError("cmc_ranks must be ascending and >= 1")


@dataclass
class EvalResult:
    map: float
    cmc: dict[int, float]
    per_query_ap: list[float] = field(default_factory=list)
    num_queries: int = 0
    num_skipped: int = 0

    def to_dict(self, protocol: EvalProtocol | None = None) -> dict:
        doc = {
            "map": self.map,
            "cmc": {str(k): v for k, v in self.cmc.items()},
            "num_queries": self.num_queries,
            "num_skipped": self.num_skipped,
        }
        if protocol is not None:
            doc["protocol"] = asdict(protocol)
        return doc


def rank_gallery(query_embedding: np.ndarray,
                 gallery_embeddings: np.ndarray) -> np.ndarray:
    """Gallery indices by ascending Euclidean distance; ties go to the
    lower index."""
    g = np.asarray(gallery_embeddings, dtype=np.float64)
    if len(g) == 0:
        raise ProtocolError("gallery is empty")
    q = np.asarray(query_embedding, dtype=np.float64)
    diff = g - q[None, :]
    return np.argsort(np.sqrt(np.sum(diff * diff, axis=1)), kind="stable")


def average_precision(relevance: np.ndarray, num_relevant_total: int) -> float:
    """Sum of precision@k over relevant ranks k, / num_relevant_total."""
    if num_relevant_total < 1:
        raise ProtocolError("num_relevant_total must be >= 1")
    rel = np.asarray(relevance, dtype=np.float64)
    if rel.sum() > num_relevant_total:
        raise ProtocolError("more relevant hits than num_relevant_total")
    cum = np.cumsum(rel)
    ranks = np.arange(1, len(rel) + 1)
    return float(np.sum(rel * cum / ranks) / num_relevant_total)


# Cap on the elements of each (query block x gallery) temporary, about 2 MB
# of float64: memory stays bounded at any gallery size.
_BLOCK_ELEMENTS = 1 << 18


def _pool_queries(queries: LabeledDataset) -> LabeledDataset:
    """Mean-pool query embeddings per (identity, camera) group."""
    keys, group = np.unique(np.stack([queries.pids, queries.cams], axis=1),
                            axis=0, return_inverse=True)
    group = group.reshape(-1)
    sums = np.zeros((len(keys), queries.feature_dim))
    np.add.at(sums, group, queries.features)
    feats = sums / np.bincount(group, minlength=len(keys))[:, None]
    return LabeledDataset(feats, keys[:, 0], keys[:, 1], np.arange(len(keys)))


def _count_below(ordered: np.ndarray, rows: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """For each value, the number of entries of row `rows[i]` of `ordered`
    (rows in ascending order) that are smaller: a branchless binary search
    run for all values at once."""
    n = ordered.shape[1]
    flat = ordered.ravel()
    first = rows * n
    pos = first
    while n > 1:
        half = n // 2
        pos = pos + half * (flat[pos + half] < values)
        n -= half
    return pos + (flat[pos] < values) - first


def _relevant_ranks(dist: np.ndarray,
                    relevant: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of the relevant entries of a block of query rows.

    A relevant entry's rank is 1 + the entries of its row that are closer
    + the equally close entries of lower gallery index (the tie rule of
    `rank_gallery`); entries set to +inf rank behind every finite one.
    Returns (query row, rank) pairs ordered by query row, then rank.
    """
    # flatnonzero and divmod: much faster than a 2-D nonzero
    rows, cols = divmod(np.flatnonzero(relevant), dist.shape[1])
    values = dist[rows, cols]
    ordered = np.sort(dist, axis=1)
    ranks = _count_below(ordered, rows, values) + 1
    # ranks[i] indexes the entry after the relevant one; if it is as close,
    # the two are tied and the gallery order must decide
    after = np.minimum(ranks, dist.shape[1] - 1)
    tied = (ranks < dist.shape[1]) & (ordered[rows, after] == values)
    for row in np.unique(rows[tied]):
        order = np.argsort(dist[row], kind="stable")
        place = np.empty_like(order)
        place[order] = np.arange(1, len(order) + 1)
        lo, hi = np.searchsorted(rows, [row, row + 1])
        ranks[lo:hi] = place[cols[lo:hi]]
    order = np.lexsort((ranks, rows))
    return rows, ranks[order]


def _block_scores(q: np.ndarray, g: np.ndarray, query_sq: np.ndarray,
                  gallery_sq: np.ndarray, queries: LabeledDataset,
                  gallery: LabeledDataset, exclude_same_camera: bool,
                  rows: slice) -> tuple[list[float], list[int]]:
    """AP and first-hit rank of each answered query in one block of
    `evaluate`: `q` and `g` are the shifted embeddings, `query_sq` and
    `gallery_sq` their squared norms."""
    dist = (-2.0 * q[rows]) @ g.T
    dist += query_sq[rows, None]
    dist += gallery_sq
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    relevant = queries.pids[rows, None] == gallery.pids
    if exclude_same_camera:
        excluded = relevant & (queries.cams[rows, None] == gallery.cams)
        dist[excluded] = np.inf
        relevant &= ~excluded
    query, ranks = _relevant_ranks(dist, relevant)
    num_rel = np.bincount(query, minlength=len(dist))
    # k-th closest relevant row at rank r: precision k / r
    k = np.arange(1, len(ranks) + 1) - np.repeat(
        np.cumsum(num_rel) - num_rel, num_rel)
    answered = num_rel > 0
    precision = np.bincount(query, weights=k / ranks, minlength=len(dist))
    return ((precision[answered] / num_rel[answered]).tolist(),
            ranks[k == 1].tolist())


@functools.cache
def _available_cpus() -> int:
    """CPUs this process may run on, or 1 if it runs threads that Python
    did not start, or where that cannot be told.

    Such threads are a multithreaded BLAS's pool, which starts when NumPy
    loads and spins on the spare CPUs after every product. Ranking threads
    next to that pool made `evaluate` 30-50% slower than one thread
    (2 CPUs, OpenBLAS with 2 threads). The pool lives as long as the
    process, so this is asked once, before `evaluate` has started threads
    of its own: one that has been joined but not yet left the OS's thread
    list would count as a foreign thread.
    """
    try:
        others = len(os.listdir("/proc/self/task")) - threading.active_count()
        cpus = len(os.sched_getaffinity(0))
    except (OSError, AttributeError):   # not Linux
        return 1
    return cpus if others <= 0 else 1


def _run_blocks(score, blocks: list, workers: int) -> list:
    """`[score(b) for b in blocks]`, computed by a pool of `workers` threads
    (none for one worker). The first block to raise, in query order, has
    its exception raised; blocks begun after any block raised are skipped,
    and the pool's threads are joined before this returns or raises."""
    if workers == 1:
        return [score(b) for b in blocks]
    failed = []

    def run(block):
        # skipped once a block has raised; the pool alone ran over 100 of
        # 450 two-row blocks on two busy CPUs before the caller saw it
        if not failed:
            try:
                return score(block)
            except BaseException:
                failed.append(block)
                raise

    pool = ThreadPoolExecutor(workers)
    try:
        return list(pool.map(run, blocks))
    finally:
        pool.shutdown(cancel_futures=True)


def evaluate(queries: LabeledDataset, gallery: LabeledDataset,
             protocol: EvalProtocol = EvalProtocol()) -> EvalResult:
    """mAP and CMC over all queries, ranked by Euclidean distance;
    unanswerable queries are skipped.

    Queries are taken in blocks: one matrix product gives a block's
    distances to the whole gallery, each query's distances are sorted
    (values only), and each relevant row's rank is found by binary search
    in them. For G gallery rows and R relevant ones a query costs
    O((G + R) log G), however large R is. Only a query whose relevant row
    is exactly as close as another row falls back to a stable argsort of
    its distances, the tie rule of `rank_gallery`.

    Blocks run on a pool of one thread per CPU the process may use, when
    there are at least two full-size blocks. Each query's result depends
    on its own row only and blocks are joined in query order, so the
    result does not depend on the CPU count. While a multithreaded BLAS
    runs its own threads on those CPUs, the loop stays serial (see
    `_available_cpus`).
    """
    if queries.feature_dim != gallery.feature_dim:
        raise ProtocolError("query/gallery embedding widths differ")
    # a NaN distance would break every comparison below
    if not (np.isfinite(queries.features).all()
            and np.isfinite(gallery.features).all()):
        raise ProtocolError("embeddings are not finite")
    if protocol.mode == "multi_query":
        queries = _pool_queries(queries)

    # Distances do not change under a shift. Moving the gallery's rounded
    # mean to the origin keeps the cancellation in |q|^2 + |g|^2 - 2 q.g
    # small for embeddings far from the origin, and is exact on integer data.
    shift = np.round(gallery.features.mean(axis=0)) if len(gallery) else 0.0
    q = queries.features - shift
    g = gallery.features - shift
    query_sq = np.einsum("ij,ij->i", q, q)
    gallery_sq = np.einsum("ij,ij->i", g, g)
    # past a quarter of the float range |q|^2 + |g|^2 - 2 q.g can reach
    # inf - inf = NaN
    if max(query_sq.max(initial=0.0), gallery_sq.max(initial=0.0)) > \
            np.finfo(np.float64).max / 4:
        raise ProtocolError("embeddings too large: distances overflow")
    # w workers share the element budget, so the temporaries in flight stay
    # as large as one worker's; fewer than two full-size blocks, or one
    # CPU, leave the serial loop
    n, cols = len(queries), max(len(gallery), 1)
    full_blocks = n // max(1, _BLOCK_ELEMENTS // cols)
    workers = min(_available_cpus(), full_blocks) if full_blocks > 1 else 1
    # No block has one row unless there is one query: NumPy computes a
    # one-row product with BLAS gemv, which rounds differently from the
    # gemm of larger blocks, and a query's distances must not depend on
    # how the queries are split. A one-row tail joins the block before it.
    block = max(2, _BLOCK_ELEMENTS // workers // cols)
    edges = [*range(0, n, block), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    blocks = [slice(*ends) for ends in zip(edges, edges[1:])]

    # a module-level block function: as a closure over these names it made
    # loss_grid's serial 80-row calls 8% slower
    score = functools.partial(_block_scores, q, g, query_sq, gallery_sq,
                              queries, gallery,
                              protocol.exclude_same_camera_same_id)
    aps, first_correct = [], []
    for block_aps, block_first in _run_blocks(score, blocks, workers):
        aps += block_aps
        first_correct += block_first

    if not aps:
        raise ProtocolError("every query was skipped; nothing to evaluate")
    first_correct = np.asarray(first_correct)
    cmc = {k: float(np.mean(first_correct <= k)) for k in protocol.cmc_ranks}
    return EvalResult(float(np.mean(aps)), cmc, aps, len(aps),
                      len(queries) - len(aps))


def combine_embeddings_mean(embeddings: list[np.ndarray]) -> np.ndarray:
    if not embeddings:
        raise ProtocolError("nothing to combine")
    return np.mean(np.asarray(embeddings, dtype=np.float64), axis=0)


def combine_embeddings_max(embeddings: list[np.ndarray]) -> np.ndarray:
    if not embeddings:
        raise ProtocolError("nothing to combine")
    return np.max(np.asarray(embeddings, dtype=np.float64), axis=0)


def inject_distractors(gallery: LabeledDataset, distractors: LabeledDataset,
                       query_pids: np.ndarray) -> LabeledDataset:
    """Append distractor rows to the gallery.

    Distractor identities must be disjoint from every query identity so
    they can never be relevant.
    """
    clash = np.intersect1d(np.unique(distractors.pids), np.unique(query_pids))
    if len(clash):
        raise ProtocolError(f"distractor identities collide with queries: {clash}")
    parts = [gallery, distractors]
    feats = np.concatenate([p.features for p in parts])
    pids = np.concatenate([p.pids for p in parts])
    cams = np.concatenate([p.cams for p in parts])
    # re-key item ids to keep them unique in the combined gallery
    item_ids = np.arange(len(feats))
    return LabeledDataset(feats, pids, cams, item_ids)
