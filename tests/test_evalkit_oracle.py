"""evalkit.evaluate against brute-force AP and first-hit rank on random
galleries (property-based; needs hypothesis, see the `test` extra)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletkit import evalkit
from tripletkit.evalkit import EvalProtocol, ProtocolError, evaluate
from tripletkit.sampling import LabeledDataset

from oracles import (naive_dist, oracle_average_precision,
                     oracle_first_correct_rank)


def embset(feats, pids, cams):
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    return LabeledDataset(feats, pids, cams, np.arange(len(feats)))


def _oracle_evaluate(queries, gallery, protocol, metric):
    """Per-query AP and first-hit rank by brute force, or None when every
    query is skipped; multi-query pools by (pid, cam) in sorted key order."""
    rows = [(list(map(float, f)), int(p), int(c))
            for f, p, c in zip(queries.features, queries.pids, queries.cams)]
    if protocol.mode == "multi_query":
        groups = {}
        for feats, pid, cam in rows:
            groups.setdefault((pid, cam), []).append(feats)
        rows = [([sum(col) / len(members) for col in zip(*members)], pid, cam)
                for (pid, cam), members in sorted(groups.items())]
    gal = [list(map(float, f)) for f in gallery.features]
    aps, firsts, skipped = [], [], 0
    for feats, pid, cam in rows:
        ranked = []
        for j, (gpid, gcam) in enumerate(zip(gallery.pids, gallery.cams)):
            if protocol.exclude_same_camera_same_id and gpid == pid \
                    and gcam == cam:
                continue
            ranked.append((naive_dist([feats, gal[j]], 0, 1, metric), j,
                           gpid == pid))
        rel = [r for _, _, r in sorted(ranked)]
        if not any(rel):
            skipped += 1
            continue
        aps.append(oracle_average_precision(rel, sum(rel)))
        firsts.append(oracle_first_correct_rank(rel))
    return (aps, firsts, skipped) if aps else None


@st.composite
def retrieval_cases(draw):
    """Small galleries with many exact ties: integer features (exact in
    every distance formula, so ties are ties), or Gaussian features with
    duplicated rows for single-query runs. Multi-query groups have 1, 2
    or 4 members so that mean pooling stays exact."""
    dim = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["single_query", "multi_query"]))
    gaussian = mode == "single_query" and draw(st.booleans())
    n_gal = draw(st.integers(0, 30))
    labels = st.tuples(st.integers(0, 3), st.integers(0, 2))
    if mode == "multi_query":
        keys = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
        sizes = st.sampled_from([1, 2, 4])
        q_labels = [k for k in keys for _ in range(draw(sizes))]
    else:
        q_labels = draw(st.lists(labels, min_size=1, max_size=12))
    g_labels = draw(st.lists(labels, min_size=n_gal, max_size=n_gal))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if gaussian:
        pool = rng.standard_normal((4, dim))
        g_feats = pool[rng.integers(0, 4, n_gal)]
        q_feats = np.concatenate(
            [pool, rng.standard_normal((len(q_labels), dim))])
        q_feats = q_feats[rng.integers(0, len(q_feats), len(q_labels))]
    else:
        g_feats = rng.integers(-2, 3, (n_gal, dim)).astype(np.float64)
        q_feats = rng.integers(-2, 3, (len(q_labels), dim)).astype(np.float64)
    order = rng.permutation(len(q_labels))
    queries = embset(q_feats.reshape(-1, dim)[order],
                     [q_labels[i][0] for i in order],
                     [q_labels[i][1] for i in order])
    gallery = embset(g_feats.reshape(-1, dim), [p for p, _ in g_labels],
                     [c for _, c in g_labels])
    protocol = EvalProtocol(mode=mode,
                            exclude_same_camera_same_id=draw(st.booleans()),
                            cmc_ranks=(1, 2, 3, 5, 10))
    block = draw(st.sampled_from([1, 2, 5, 17, evalkit._BLOCK_ELEMENTS]))
    return queries, gallery, protocol, block


class TestEvaluateMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(retrieval_cases())
    def test_random_galleries(self, case):
        queries, gallery, protocol, block = case
        want = _oracle_evaluate(queries, gallery, protocol, "euclidean")
        # tiny blocks split the query set into many blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evalkit, "_BLOCK_ELEMENTS", block)
            if want is None:
                with pytest.raises(ProtocolError):
                    evaluate(queries, gallery, protocol)
                return
            got = evaluate(queries, gallery, protocol)
        aps, firsts, skipped = want
        assert got.num_queries == len(aps)
        assert got.num_skipped == skipped
        assert np.max(np.abs(np.subtract(got.per_query_ap, aps))) <= 1e-12
        firsts = np.asarray(firsts)
        assert got.cmc == {k: float(np.mean(firsts <= k))
                           for k in protocol.cmc_ranks}

    def test_far_from_origin(self):
        # a common offset large against the spread must not cost precision
        rng = np.random.default_rng(4)
        q = embset(rng.standard_normal((40, 4)) + 1e6, np.arange(40) % 10,
                   cams=np.arange(40) % 4)
        g = embset(rng.standard_normal((300, 4)) + 1e6, np.arange(300) % 10,
                   cams=(np.arange(300) // 10) % 4)
        protocol = EvalProtocol(cmc_ranks=(1, 5))
        aps, firsts, _ = _oracle_evaluate(q, g, protocol, "euclidean")
        got = evaluate(q, g, protocol)
        assert np.max(np.abs(np.subtract(got.per_query_ap, aps))) <= 1e-12
        assert got.cmc[1] == np.mean(np.asarray(firsts) <= 1)


class TestApProperties:
    @settings(max_examples=200, deadline=None)
    @given(retrieval_cases())
    def test_every_query_ap_lies_in_unit_interval(self, case):
        queries, gallery, protocol, _ = case
        try:
            got = evaluate(queries, gallery, protocol)
        except ProtocolError:       # every query skipped
            return
        assert all(0.0 <= ap <= 1.0 for ap in got.per_query_ap)
        assert 0.0 <= got.map <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(retrieval_cases(), st.integers(0, 20), st.integers(0, 2**32 - 1))
    def test_distractors_never_raise_a_query_ap(self, case, n_dis, seed):
        queries, gallery, protocol, _ = case
        rng = np.random.default_rng(seed)
        # integer features tie with the integer cases; identities 10..12
        # are disjoint from the cases' 0..3
        distractors = embset(
            rng.integers(-2, 3, (n_dis, queries.feature_dim)).astype(float),
            rng.integers(10, 13, n_dis), rng.integers(0, 3, n_dis))
        injected = evalkit.inject_distractors(gallery, distractors,
                                              queries.pids)
        try:
            before = evaluate(queries, gallery, protocol)
        except ProtocolError:       # distractors answer no query either
            with pytest.raises(ProtocolError):
                evaluate(queries, injected, protocol)
            return
        after = evaluate(queries, injected, protocol)
        assert after.num_queries == before.num_queries
        assert all(a <= b for a, b in zip(after.per_query_ap,
                                           before.per_query_ap))
