"""Property tests: the masked lifted, generalized lifted and LMNN losses
against the brute-force oracles and central finite differences,
batch-all, computed at its valid triplets only, against the frozen
whole-cube copy in `test_losses_reference.py`, bit for bit, and the
batch-hard and batch-all losses as one mean of their terms."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tripletkit.losses import (ACTIVE_THRESHOLD, METRICS, BatchLabels,
                               MarginMode, batch_all_loss, batch_hard_loss,
                               lifted_generalized_loss, lifted_loss,
                               lmnn_loss, pairwise_distances)

import test_losses_reference as reference
from oracles import fd_gradient, oracle_lifted, oracle_lifted_gen, oracle_lmnn

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def pk_batches(draw):
    """(x, ids, rng, metric, soft, m) for a shuffled P x K batch whose
    rows are at least 0.05 apart. Each identity's rows are moved by one
    offset, a spread from 0 to 4 times a normal draw, so that some
    identities sit apart and some terms are inactive."""
    P, K = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((P * K, dim)) * rng.uniform(0.3, 1.5)
    ids = rng.permutation(np.repeat(np.arange(P), K))
    x += draw(st.floats(0.0, 4.0)) * rng.standard_normal((P, dim))[ids]
    d = pairwise_distances(x, "euclidean").values
    assume(np.min(d + np.eye(len(x))) > 0.05)
    metric = draw(st.sampled_from(["euclidean", "squared_euclidean"]))
    return (x, ids, rng, metric, draw(st.booleans()),
            draw(st.floats(0.05, 1.0)))


def softplus_inverse(y):
    return y + np.log(-np.expm1(-y))


def check(loss_fn, x, oracle_value):
    report = loss_fn(x)
    assert report.loss == pytest.approx(oracle_value, rel=1e-9, abs=1e-12)
    fd = fd_gradient(lambda z: loss_fn(z).loss, x)
    np.testing.assert_allclose(report.grad_embeddings, fd, rtol=1e-4,
                               atol=1e-6)


@SETTINGS
@given(pk_batches())
def test_lifted_matches_oracle(case):
    x, ids, rng, metric, soft, m = case
    pairs = np.argwhere(np.triu(ids[:, None] == ids[None, :], 1))
    pairs = pairs[rng.random(len(pairs)) < 0.7]
    assume(len(pairs) > 0)
    pairs = np.where(rng.random((len(pairs), 1)) < 0.5, pairs, pairs[:, ::-1])
    labels = BatchLabels(ids) if rng.random() < 0.5 else None
    mode = MarginMode.soft() if soft else MarginMode.hard(0.0)
    pairing = [tuple(p) for p in pairs.tolist()]
    inner = softplus_inverse(lifted_loss(x, pairing, metric, m,
                                         MarginMode.soft()).per_term)
    assume(soft or np.all(np.abs(inner) > 1e-3))
    check(lambda z: lifted_loss(z, pairing, metric, m, mode, labels), x,
          oracle_lifted(x.tolist(), pairing, metric, m,
                        ("soft", None) if soft else ("hard", 0.0)))


@SETTINGS
@given(pk_batches())
def test_lifted_generalized_matches_oracle(case):
    x, ids, _, metric, soft, m = case
    labels = BatchLabels(ids)
    mode = MarginMode.soft() if soft else MarginMode.hard(0.0)
    inner = softplus_inverse(lifted_generalized_loss(
        x, labels, metric, m, MarginMode.soft()).per_term)
    assume(soft or np.all(np.abs(inner) > 1e-3))
    check(lambda z: lifted_generalized_loss(z, labels, metric, m, mode), x,
          oracle_lifted_gen(x.tolist(), ids.tolist(), metric, m,
                            ("soft", None) if soft else ("hard", 0.0)))


@SETTINGS
@given(pk_batches(), st.floats(0.0, 1.0))
def test_lmnn_matches_oracle(case, mu):
    x, ids, rng, metric, _, m = case
    targets = {}
    for a in range(len(ids)):
        same = np.flatnonzero((ids == ids[a]) & (np.arange(len(ids)) != a))
        if rng.random() < 0.8:
            targets[a] = int(rng.choice(same))
    assume(targets)
    labels = BatchLabels(ids)
    d = pairwise_distances(x, metric).values
    hinge = [m + d[a, t] - d[a, j] for a, t in targets.items()
             for j in np.flatnonzero(ids != ids[a])]
    assume(np.all(np.abs(hinge) > 1e-3))
    check(lambda z: lmnn_loss(z, labels, targets, mu, m, metric), x,
          oracle_lmnn(x.tolist(), ids.tolist(), targets, mu, m, metric))


@pytest.mark.parametrize("averaging", ["all", "nonzero"])
@pytest.mark.parametrize("loss", [batch_hard_loss, batch_all_loss],
                         ids=["batch_hard", "batch_all"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pk_batches())
def test_loss_is_the_mean_of_the_averaged_terms(loss, averaging, case):
    """Both averagings take one mean: the sum of the terms averaged, every
    term or the active ones, over their count, and 0 when none is active."""
    x, ids, _, metric, soft, m = case
    mode = MarginMode.soft() if soft else MarginMode.hard(m)
    report = loss(x, BatchLabels(ids), metric, mode, averaging)
    terms = report.per_term
    if averaging == "nonzero":
        terms = terms[terms > ACTIVE_THRESHOLD]
    want = terms.sum() / len(terms) if len(terms) else 0.0
    assert reference._same_bits(report.loss, want)


@st.composite
def batch_all_cases(draw):
    """A P x K batch, P and K from 2, with shuffled arbitrary identity
    values; rows on a small integer grid (many tied distances) or spread
    normals, some copied onto others; a metric, margin and averaging."""
    P, K = draw(st.integers(2, 7)), draw(st.integers(2, 5))
    n = P * K
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        x = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
    else:
        x = rng.standard_normal((n, dim)) * draw(st.sampled_from([0.05, 1, 4]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        x[i] = x[j]
    ids = rng.permutation(np.repeat(rng.permutation(100)[:P], K))
    mode = draw(st.sampled_from([MarginMode.soft(), MarginMode.hard(0.0),
                                 MarginMode.hard(0.2), MarginMode.hard(1.0)]))
    return (x, BatchLabels(ids, P, K), draw(st.sampled_from(METRICS)), mode,
            draw(st.sampled_from(["all", "nonzero"])))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch_all_cases())
def test_batch_all_matches_whole_cube_reference(case):
    x, labels, metric, mode, averaging = case
    got = batch_all_loss(x, labels, metric, mode, averaging)
    want = reference.batch_all_loss(x, labels, metric, mode, averaging)
    same = reference._same_bits
    assert same(got.loss, want.loss)
    assert same(got.grad_embeddings, want.grad_embeddings)
    assert same(got.per_term, want.per_term)
    assert (got.num_terms, got.num_active) == (want.num_terms,
                                               want.num_active)


@pytest.mark.parametrize("averaging", ["all", "nonzero"])
@pytest.mark.parametrize("mode", [MarginMode.soft(), MarginMode.hard(0.2)],
                         ids=["soft", "hinge"])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("P", [18, 33])
def test_batch_all_matches_whole_cube_reference_at_larger_batches(
        P, metric, mode, averaging):
    """The draws above stop at 35 rows. 72 rows are the paper's P=18,
    K=4; the 132 rows of P=33 make each coefficient a sum of more than
    the 128 elements NumPy's pairwise sum adds in one block."""
    rng = np.random.default_rng(P)
    x = rng.standard_normal((P * 4, 16))
    labels = BatchLabels(rng.permutation(np.repeat(np.arange(P), 4)), P, 4)
    got = batch_all_loss(x, labels, metric, mode, averaging)
    want = reference.batch_all_loss(x, labels, metric, mode, averaging)
    same = reference._same_bits
    assert same(got.loss, want.loss)
    assert same(got.grad_embeddings, want.grad_embeddings)
    assert same(got.per_term, want.per_term)
    assert (got.num_terms, got.num_active) == (want.num_terms,
                                               want.num_active)
    assert 0 < got.num_active < got.num_terms or mode.kind == "soft"
