"""Retrieval ranking, mAP/CMC under a camera-aware protocol, pooling,
and distractor injection."""

from __future__ import annotations

import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .numcore import row_blocks
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
        # a repeated rank would be listed twice but reported once
        if list(self.cmc_ranks) != sorted(set(self.cmc_ranks)) or \
                any(r < 1 for r in self.cmc_ranks):
            raise ProtocolError("cmc_ranks must be strictly ascending and "
                                ">= 1")


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


# Cap on the elements of each worker's (query block x gallery) distance
# array, shared by the workers: 3.5 MB of float64 in flight at any gallery
# size.
_BLOCK_ELEMENTS = 7 << 16


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


def _block_distances(q: np.ndarray, g: np.ndarray, query_sq: np.ndarray,
                     gallery_sq: np.ndarray, rows: slice,
                     excluded: np.ndarray, dist: np.ndarray) -> None:
    """Write the Euclidean distances of query rows `rows` to every gallery
    row into `dist`, then +inf at the flat indices `excluded`. `q` and `g`
    are the shifted embeddings, `query_sq` and `gallery_sq` their squared
    norms; the same arguments write the same bits."""
    np.matmul(-2.0 * q[rows], g.T, out=dist)
    dist += query_sq[rows, None]
    dist += gallery_sq
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    dist.ravel()[excluded] = np.inf


def _relevant_ranks(dist: np.ndarray, query: np.ndarray, flat: np.ndarray,
                    refill) -> np.ndarray:
    """Ranks of the relevant entries of a block of query rows: rows
    `query` (ascending) at flat indices `flat` into `dist`.

    A relevant entry's rank is 1 + the entries of its row that are closer
    + the equally close entries of lower gallery index (the tie rule of
    `rank_gallery`); entries set to +inf rank behind every finite one.
    Each row of `dist` is sorted in place. If a relevant entry is exactly
    as close as another, `refill()` writes the block's distances into
    `dist` again and that row's ranks come from a stable argsort. Returns
    the ranks ordered by query row, then rank.
    """
    width = dist.shape[1]
    values = dist.ravel()[flat]
    dist.sort(axis=1)
    ranks = _count_below(dist, query, values) + 1
    # ranks[i] indexes the entry after the relevant one; if it is as close,
    # the two are tied and the gallery order must decide
    after = np.minimum(ranks, width - 1)
    tied = (ranks < width) & (dist[query, after] == values)
    if tied.any():
        refill()
        for row in np.unique(query[tied]):
            order = np.argsort(dist[row], kind="stable")
            place = np.empty_like(order)
            place[order] = np.arange(1, len(order) + 1)
            lo, hi = np.searchsorted(query, [row, row + 1])
            ranks[lo:hi] = place[flat[lo:hi] - row * width]
    return ranks[np.lexsort((ranks, query))]


def _identity_lookup(queries: LabeledDataset,
                     gallery: LabeledDataset) -> tuple[np.ndarray, ...]:
    """(order, lo, hi): gallery rows grouped by identity, ascending within
    each, and per query the span order[lo:hi] of its identity's rows."""
    order = np.argsort(gallery.pids, kind="stable")
    ids = gallery.pids[order]
    return (order, np.searchsorted(ids, queries.pids, "left"),
            np.searchsorted(ids, queries.pids, "right"))


def _block_scores(q: np.ndarray, g: np.ndarray, query_sq: np.ndarray,
                  gallery_sq: np.ndarray, query_cams: np.ndarray | None,
                  gallery_cams: np.ndarray, lookup: tuple, rows: slice,
                  buffer: np.ndarray) -> tuple[list[float], list[int]]:
    """AP and first-hit rank of each answered query in one block of
    `evaluate`. `query_cams` is None when the camera filter is off;
    `lookup` is `_identity_lookup`'s. `buffer`, one worker's float64 array
    with at least the block's rows and a column per gallery row, takes the
    block's distances in its first rows, so no block allocates a (block
    rows x gallery rows) array of its own."""
    order, lo, hi = lookup
    dist = buffer[:rows.stop - rows.start]
    width = dist.shape[1]
    # each query's gallery rows of its identity, in (query, row) order
    count = hi[rows] - lo[rows]
    query = np.repeat(np.arange(len(dist)), count)
    cols = order[np.arange(len(query)) + np.repeat(
        lo[rows] - (np.cumsum(count) - count), count)]
    flat = query * width + cols
    excluded = flat[:0]
    if query_cams is not None:
        same = query_cams[rows][query] == gallery_cams[cols]
        keep = ~same
        excluded, query, flat = flat[same], query[keep], flat[keep]
    refill = functools.partial(_block_distances, q, g, query_sq, gallery_sq,
                               rows, excluded, dist)
    refill()
    ranks = _relevant_ranks(dist, query, flat, refill)
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


def _run_blocks(score, blocks: list, buffers: list) -> list:
    """`[score(b, s) for b in blocks]`, each block given one of the
    `buffers` sets that no other block holds meanwhile: computed by a pool
    of one thread per set (none for one set). The first block to raise, in
    query order, has its exception raised; blocks begun after any block
    raised are skipped, and the pool's threads are joined before this
    returns or raises."""
    if len(buffers) == 1:
        return [score(b, buffers[0]) for b in blocks]
    free, failed = queue.SimpleQueue(), []
    for s in buffers:
        free.put(s)

    def run(block):
        # skipped once a block has raised; the pool alone ran over 100 of
        # 450 two-row blocks on two busy CPUs before the caller saw it
        if not failed:
            s = free.get()
            try:
                return score(block, s)
            except BaseException:
                failed.append(block)
                raise
            finally:
                free.put(s)

    pool = ThreadPoolExecutor(len(buffers))
    try:
        return list(pool.map(run, blocks))
    finally:
        pool.shutdown(cancel_futures=True)


def evaluate(queries: LabeledDataset, gallery: LabeledDataset,
             protocol: EvalProtocol = EvalProtocol()) -> EvalResult:
    """mAP and CMC over all queries, ranked by Euclidean distance;
    unanswerable queries are skipped.

    Queries are taken in blocks: one matrix product gives a block's
    distances to the whole gallery. Each query's relevant gallery rows come
    from a lookup of the gallery's identities, built once per call; the
    camera filter sets the excluded ones to +inf. Their distances are
    gathered, each query's distances are sorted in place (values only),
    and each relevant row's rank is found by binary search in them. For G
    gallery rows and R relevant ones a query costs O((G + R) log G),
    however large R is. Only a block with a relevant row exactly as close
    as another row computes its distances again (the same product, so the
    same bits), and that query falls back to a stable argsort of its
    distances, the tie rule of `rank_gallery`.

    Blocks run on a pool of one thread per CPU the process may use, when
    there are at least two full-size blocks. Each query's result depends
    on its own row only and blocks are joined in query order, so the
    result does not depend on the CPU count. While a multithreaded BLAS
    runs its own threads on those CPUs, the loop stays serial (see
    `_available_cpus`). Each worker scores its blocks in one float64
    distance array, allocated here on the calling thread before any block
    runs; a block's own arrays are sized by its relevant (query, gallery
    row) pairs. The workers share one element budget, so the arrays
    together take what one worker's would.
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
    # a query's distances must not depend on how the queries are split
    blocks = row_blocks(n, _BLOCK_ELEMENTS // workers // cols)
    # Arrays a pool thread allocates come from a fresh malloc arena whose
    # pages it faults in on every call, while this thread's arena, warm
    # from earlier work, sits idle; so each worker's array is allocated
    # here, as large as the largest block (a one-row tail included).
    shape = max(b.stop - b.start for b in blocks), len(gallery)
    buffers = [np.empty(shape) for _ in range(workers)]

    # a module-level block function: as a closure over these names it made
    # loss_grid's serial 80-row calls 8% slower
    query_cams = queries.cams if protocol.exclude_same_camera_same_id \
        else None
    score = functools.partial(_block_scores, q, g, query_sq, gallery_sq,
                              query_cams, gallery.cams,
                              _identity_lookup(queries, gallery))
    aps, first_correct = [], []
    for block_aps, block_first in _run_blocks(score, blocks, buffers):
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


def check_distractor_identities(distractor_pids: np.ndarray,
                                query_pids: np.ndarray) -> None:
    """Raise ProtocolError unless the distractor identities are disjoint
    from every query identity, so a distractor can never be relevant."""
    clash = np.intersect1d(distractor_pids, query_pids)
    if len(clash):
        raise ProtocolError(f"distractor identities collide with queries: {clash}")


def inject_distractors(gallery: LabeledDataset, distractors: LabeledDataset,
                       query_pids: np.ndarray) -> LabeledDataset:
    """Append distractor rows to the gallery; see
    `check_distractor_identities`. Both must have one embedding width."""
    check_distractor_identities(distractors.pids, query_pids)
    if gallery.feature_dim != distractors.feature_dim:
        raise ProtocolError(f"gallery embedding width {gallery.feature_dim} "
                            "differs from distractor embedding width "
                            f"{distractors.feature_dim}")
    parts = [gallery, distractors]
    feats = np.concatenate([p.features for p in parts])
    pids = np.concatenate([p.pids for p in parts])
    cams = np.concatenate([p.cams for p in parts])
    # re-key item ids to keep them unique in the combined gallery
    item_ids = np.arange(len(feats))
    return LabeledDataset(feats, pids, cams, item_ids)
