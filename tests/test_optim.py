import copy
import csv
import pickle

import numpy as np
import pytest

from tripletkit import diagnostics, losses, numcore, sampling, training
from tripletkit.optim import (AdamState, Schedule, ScheduleError, adam_step,
                              beta1_drop, lr_at)

REFERENCE_SCHEDULE = Schedule(eps0=1e-3, t0=15000, t1=25000)


def test_lr_constants():
    assert lr_at(REFERENCE_SCHEDULE, 0) == 1e-3
    assert lr_at(REFERENCE_SCHEDULE, 25000) == pytest.approx(1e-6, abs=1e-18)
    assert lr_at(REFERENCE_SCHEDULE, 20000) == pytest.approx(3.16228e-5, abs=1e-10)


def test_lr_continuous_at_t0_and_nonincreasing():
    assert lr_at(REFERENCE_SCHEDULE, REFERENCE_SCHEDULE.t0) == REFERENCE_SCHEDULE.eps0
    ts = np.linspace(0, REFERENCE_SCHEDULE.t1, 200).astype(int)
    vals = [lr_at(REFERENCE_SCHEDULE, int(t)) for t in sorted(set(ts))]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_lr_out_of_schedule():
    with pytest.raises(ScheduleError):
        lr_at(REFERENCE_SCHEDULE, 25001)


def test_schedule_rejects_degenerate():
    with pytest.raises(ScheduleError):
        Schedule(1e-3, 1, 1)


def _tiny_params(seed=0):
    return numcore.init_params([2, 3], seed=seed)


def test_zero_gradient_step():
    p = _tiny_params()
    s = AdamState.for_params(p)
    g = numcore.MlpParams([(np.zeros_like(w), np.zeros_like(b))
                           for w, b in p.layers])
    before = numcore.MlpParams(p.layers)   # adam_step updates p in place
    assert adam_step(p, g, s, lr=1e-3) is None
    assert s.step_count == 1
    for (w0, b0), (w1, b1) in zip(before.layers, p.layers):
        assert np.array_equal(w0, w1)
        assert np.array_equal(b0, b1)


def test_rejects_layouts_that_only_match_in_size():
    p = numcore.init_params([4, 3, 2], seed=0)
    # layers that chain and hold as many values as `p`, in other shapes
    other = numcore.init_params([4, 1, 9], seed=0).layers
    assert sum(w.size + b.size for w, b in other) == p.flat.size
    good_g = numcore.MlpParams(p.layers)
    with pytest.raises(numcore.DimensionError):
        adam_step(p, numcore.MlpParams(other), AdamState.for_params(p), 1e-3)
    with pytest.raises(numcore.DimensionError):
        adam_step(p, good_g, AdamState.for_params(numcore.MlpParams(other)), 1e-3)
    doc = AdamState.for_params(p).to_dict()
    doc["second_moment"] = numcore.layers_to_json(other)
    with pytest.raises(numcore.CheckpointError, match="layout"):
        AdamState.from_dict(doc)
    assert p.flat.tolist() == numcore.init_params([4, 3, 2], seed=0).flat.tolist()


def reference_adam(p, g, m, v, t, lr, b1, b2, eps):
    # direct transcription of the Adam update rule
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g ** 2
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def test_first_step_matches_reference():
    rng = np.random.default_rng(1)
    p = _tiny_params(1)
    s = AdamState.for_params(p)
    g = numcore.MlpParams([(rng.standard_normal(w.shape),
                            rng.standard_normal(b.shape))
                           for w, b in p.layers])
    before = numcore.MlpParams(p.layers)   # adam_step updates p in place
    adam_step(p, g, s, lr=1e-3)
    for (w, b), (dw, db), (w2, b2) in zip(before.layers, g.layers, p.layers):
        ref_w, _, _ = reference_adam(w, dw, np.zeros_like(w), np.zeros_like(w),
                                     1, 1e-3, 0.9, 0.999, 1e-8)
        ref_b, _, _ = reference_adam(b, db, np.zeros_like(b), np.zeros_like(b),
                                     1, 1e-3, 0.9, 0.999, 1e-8)
        assert np.allclose(w2, ref_w, atol=1e-15)
        assert np.allclose(b2, ref_b, atol=1e-15)


def test_multi_step_matches_reference():
    rng = np.random.default_rng(2)
    p = _tiny_params(2)
    s = AdamState.for_params(p)
    w_ref = p.layers[0][0].copy()
    m = np.zeros_like(w_ref)
    v = np.zeros_like(w_ref)
    for t in range(1, 20):
        g_w = rng.standard_normal(w_ref.shape)
        g = numcore.MlpParams([(g_w, np.zeros(3))])
        adam_step(p, g, s, lr=1e-3)
        w_ref, m, v = reference_adam(w_ref, g_w, m, v, t, 1e-3, 0.9, 0.999, 1e-8)
        assert np.allclose(p.layers[0][0], w_ref, atol=1e-14)


def test_constant_gradient_monotone_trajectory():
    p = numcore.MlpParams([(np.zeros((1, 1)), np.zeros(1))])
    s = AdamState.for_params(p)
    g = numcore.MlpParams([(np.full((1, 1), 0.5), np.zeros(1))])
    prev = p.layers[0][0][0, 0]
    for _ in range(1000):
        adam_step(p, g, s, lr=1e-3)
        cur = p.layers[0][0][0, 0]
        assert cur < prev             # moves opposite the gradient sign
        prev = cur
    assert np.isfinite(prev)


def test_no_nan_on_finite_inputs():
    rng = np.random.default_rng(3)
    p = _tiny_params(3)
    s = AdamState.for_params(p)
    for _ in range(200):
        g = numcore.MlpParams([(1e6 * rng.standard_normal(w.shape),
                                1e6 * rng.standard_normal(b.shape))
                               for w, b in p.layers])
        adam_step(p, g, s, lr=1.0)
        assert all(np.all(np.isfinite(w)) and np.all(np.isfinite(b))
                   for w, b in p.layers)


def test_beta1_drop():
    p = _tiny_params()
    s = AdamState.for_params(p)
    sched = Schedule(1e-3, 100, 200)
    beta1_drop(s, 99, sched)
    assert s.beta1 == 0.9
    assert beta1_drop(s, 100, sched) is None     # changes `s` in place
    assert s.beta1 == 0.5
    beta1_drop(s, 150, sched)
    assert s.beta1 == 0.5


def test_state_serialization_round_trip():
    p = _tiny_params(4)
    s = AdamState.for_params(p)
    g = numcore.MlpParams([(np.ones_like(w), np.ones_like(b))
                           for w, b in p.layers])
    adam_step(p, g, s, lr=1e-3)
    restored = AdamState.from_dict(s.to_dict())
    assert restored.step_count == s.step_count
    assert restored.beta1 == s.beta1
    for (a, b), (c, d) in zip(restored.first_moment.layers,
                              s.first_moment.layers):
        assert np.array_equal(a, c) and np.array_equal(b, d)


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["deepcopy", "pickle"])
def test_copied_state_writes_its_own_moments(clone):
    """A copy's `m` and `v` stay the flat vectors of its moments, so an
    update of the copy is what its `to_dict` writes."""
    p = _tiny_params(4)
    s = AdamState.for_params(p)
    g = numcore.MlpParams([(np.ones_like(w), np.ones_like(b))
                           for w, b in p.layers])
    adam_step(p, g, s, lr=1e-3)
    c = clone(s)
    assert (c.step_count, c.beta1) == (s.step_count, s.beta1)
    adam_step(clone(p), g, c, lr=1e-3)
    assert c.m is c.first_moment.flat and c.v is c.second_moment.flat
    assert not np.shares_memory(c.m, s.m)
    assert not np.array_equal(c.m, s.m)
    restored = AdamState.from_dict(c.to_dict())
    assert restored.m.tobytes() == c.m.tobytes()
    assert restored.v.tobytes() == c.v.tobytes()


# Reference copy of the training loop as it was before the state went flat:
# per-layer (weight, bias) tuple lists rebuilt every step, a np.where leaky
# ReLU, a per-layer Adam that returns fresh arrays, and np.percentile
# statistics. `training.train` must match it byte for byte.

SLOPE = 0.3


def reference_forward(layers, x):
    acts, pres, h = [x], [], x
    for i, (w, b) in enumerate(layers):
        z = h @ w + b
        pres.append(z)
        h = z if i == len(layers) - 1 else np.where(z >= 0.0, z, SLOPE * z)
        acts.append(h)
    return h, acts, pres


def reference_backward(layers, acts, pres, upstream):
    n = len(layers)
    grads, delta = [None] * n, upstream
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            delta = delta * np.where(pres[i] > 0.0, 1.0, SLOPE)
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        delta = delta @ layers[i][0].T
    return grads


def reference_adam_layers(layers, grads, m, v, t, lr, b1, b2=0.999, eps=1e-8):
    out_p, out_m, out_v = [], [], []
    for pair, gpair, mpair, vpair in zip(layers, grads, m, v):
        ps, ms, vs = [], [], []
        for p, g, mm, vv in zip(pair, gpair, mpair, vpair):
            mm = b1 * mm + (1 - b1) * g
            vv = b2 * vv + (1 - b2) * g * g
            m_hat = mm / (1 - b1 ** t)
            v_hat = vv / (1 - b2 ** t)
            ps.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
            ms.append(mm)
            vs.append(vv)
        out_p.append(tuple(ps))
        out_m.append(tuple(ms))
        out_v.append(tuple(vs))
    return out_p, out_m, out_v


def reference_row(emb, report, t, lr):
    norms = np.linalg.norm(emb, axis=1)
    dists = np.sqrt(report.distances.squared[np.triu_indices(len(emb), k=1)])
    return diagnostics.TrainLogRecord(
        t, float(report.loss), float(np.percentile(report.per_term, 5)),
        report.active_fraction,
        tuple(np.percentile(norms, diagnostics.PERCENTILES)),
        tuple(np.percentile(dists, diagnostics.PERCENTILES)), lr).to_row()


def reference_train(cfg, dataset):
    init = numcore.init_params([dataset.feature_dim, *cfg.layer_widths[1:]],
                               cfg.seed)
    layers = [(w.copy(), b.copy()) for w, b in init.layers]
    m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    rng = np.random.default_rng(cfg.seed)
    spec = losses.LOSSES[cfg.loss]
    b1, mined, rows_out = 0.9, None, []
    for t in range(1, cfg.schedule.t1 + 1):
        lr = lr_at(cfg.schedule, t)
        if t >= cfg.schedule.t0:
            b1 = 0.5
        if spec.batch == "mined":
            if mined is None or (t - 1) % cfg.ohm_refresh_every == 0:
                mined = sampling.mine_hard_offline(
                    numcore.MlpParams(layers), dataset,
                    cfg.ohm_sample_fraction, cfg.B, cfg.margin, rng, cfg.metric)
            rows = mined.ravel()
            labels = losses.BatchLabels(dataset.pids[rows])
        elif spec.batch == "random":
            rows = sampling.sample_random_triplets(dataset, cfg.B, rng).ravel()
            labels = losses.BatchLabels(dataset.pids[rows])
        else:
            rows = sampling.sample_pk_batch(dataset, cfg.P, cfg.K, rng).rows
            labels = losses.BatchLabels(dataset.pids[rows], cfg.P, cfg.K)
        emb, acts, pres = reference_forward(layers, dataset.features[rows])
        report = spec.call(emb, labels, cfg.metric, cfg.margin)
        grads = reference_backward(layers, acts, pres, report.grad_embeddings)
        layers, m, v = reference_adam_layers(layers, grads, m, v, t, lr, b1)
        rows_out.append(reference_row(emb, report, t, lr))
    return layers, m, v, b1, rows_out


@pytest.mark.parametrize("loss", ["batch_hard", "triplet_ohm", "triplet"])
def test_train_matches_per_layer_reference(loss, tmp_path):
    train_set, _ = training.default_benchmark_sets(3)
    cfg = training.benchmark_config(loss, losses.MarginMode.soft(), seed=3)
    # 50 steps crossing the beta1 drop at t0, with an OHM refresh at t=26
    cfg.schedule = Schedule(1e-3, 30, 50)
    cfg.ohm_refresh_every = 25
    with diagnostics.TrainLogWriter(tmp_path / "train_log.csv") as writer:
        result = training.train(cfg, train_set, writer)
    layers, m, v, b1, rows = reference_train(cfg, train_set)

    def raw(pairs):
        return b"".join(a.tobytes() for pair in pairs for a in pair)

    assert raw(result.params.layers) == raw(layers)
    assert raw(result.state.first_moment.layers) == raw(m)
    assert raw(result.state.second_moment.layers) == raw(v)
    assert (result.state.step_count, result.state.beta1) == (50, b1)
    with open(tmp_path / "train_log.csv", newline="") as f:
        written = list(csv.reader(f))
    assert written == [diagnostics.LOG_HEADER,
                       *([str(v) for v in row] for row in rows)]


@pytest.mark.parametrize("key, value", [("beta2", 0.99), ("eps_hat", 1e-6)])
def test_from_dict_rejects_other_fixed_hyperparameters(key, value):
    doc = AdamState.for_params(_tiny_params(4)).to_dict()
    doc[key] = value
    with pytest.raises(numcore.CheckpointError, match=key):
        AdamState.from_dict(doc)


def _state_doc():
    return AdamState.for_params(_tiny_params(4)).to_dict()


def test_from_dict_rejects_empty_document():
    with pytest.raises(numcore.CheckpointError, match="no key"):
        AdamState.from_dict({})


@pytest.mark.parametrize("key", list(_state_doc()))
def test_from_dict_rejects_missing_key(key):
    doc = _state_doc()
    del doc[key]
    with pytest.raises(numcore.CheckpointError, match=key):
        AdamState.from_dict(doc)


@pytest.mark.parametrize("moment", [5, None, "text", {"weight": [[0.0]]},
                                    [[0.0, 0.0]], [{"weight": [[0.0]]}]],
                         ids=["int", "null", "string", "object",
                              "list-of-lists", "no-bias"])
def test_from_dict_rejects_non_list_moment(moment):
    doc = _state_doc()
    doc["first_moment"] = moment
    with pytest.raises(numcore.CheckpointError):
        AdamState.from_dict(doc)


def test_from_dict_rejects_moments_of_different_layouts():
    doc = _state_doc()
    doc["second_moment"] = AdamState.for_params(
        numcore.init_params([2, 4], seed=0)).to_dict()["second_moment"]
    with pytest.raises(numcore.CheckpointError, match="layout"):
        AdamState.from_dict(doc)


@pytest.mark.parametrize("moment", [
    [{"weight": [0.0, 0.0], "bias": [0.0, 0.0]}],
    [{"weight": [[0.0, 0.0]], "bias": [0.0]}],
    [{"weight": [[0.0, 0.0]], "bias": [0.0, 0.0]},
     {"weight": [[0.0]], "bias": [0.0]}],
    [{"weight": [[], [], []], "bias": []}]],
    ids=["1-D-weight", "bias-width", "unchained", "zero-width"])
def test_from_dict_rejects_moments_no_model_has(moment):
    doc = _state_doc()
    doc["first_moment"] = doc["second_moment"] = moment
    with pytest.raises(numcore.CheckpointError, match="layer"):
        AdamState.from_dict(doc)


@pytest.mark.parametrize("key, value", [
    ("step_count", "x"), ("step_count", -5), ("step_count", 7.0),
    ("step_count", True), ("step_count", None),
    ("beta1", "x"), ("beta1", float("nan")), ("beta1", float("inf")),
    ("beta1", True), ("beta1", 1.5), ("beta1", 1.0), ("beta1", -0.1),
    ("beta1", 0)])
def test_from_dict_rejects_bad_step_count_or_beta1(key, value):
    doc = _state_doc()
    doc[key] = value
    with pytest.raises(numcore.CheckpointError, match=key):
        AdamState.from_dict(doc)


@pytest.mark.parametrize("steps, beta1", [(0, 0.0), (12, 0.5), (3, 0.9)])
def test_from_dict_keeps_valid_step_count_and_beta1(steps, beta1):
    doc = _state_doc()
    doc["step_count"], doc["beta1"] = steps, beta1
    state = AdamState.from_dict(doc)
    assert (state.step_count, state.beta1) == (steps, beta1)
