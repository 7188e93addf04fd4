import json

import numpy as np
import pytest

from tripletkit import numcore
from tripletkit.numcore import (SLOPE, ConfigError, DimensionError,
                                MlpParams, init_params, leaky_relu,
                                mlp_backward, mlp_forward)


def backward(params, acts, upstream):
    """`mlp_backward`'s gradients, written into a new bundle."""
    grads = numcore.MlpParams(params.layers)
    assert mlp_backward(params, acts, upstream, grads) is None
    return grads


@pytest.mark.parametrize("x, expected", [
    ([-1.0], [-0.3]),
    ([2.0], [2.0]),
    ([0.0], [0.0]),
])
def test_leaky_relu_values(x, expected):
    assert leaky_relu(np.array(x)).tolist() == expected


def test_init_deterministic():
    a = init_params([4, 4], seed=7)
    b = init_params([4, 4], seed=7)
    for (wa, ba_), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba_, bb)


def test_init_shapes_and_zero_bias():
    p = init_params([64, 32, 128], seed=0)
    assert p.layers[-1][0].shape == (32, 128)
    assert p.layers[-1][1].shape == (128,)
    assert all(np.all(b == 0) for _, b in p.layers)


def test_he_variance_monte_carlo():
    # hidden weight variance should be ~ 2/fan_in over many draws
    fan_in = 100
    p = init_params([fan_in, 1000, 8], seed=3)
    w = p.layers[0][0]
    assert w.size == 100_000
    var = w.var()
    assert abs(var - 2.0 / fan_in) < 0.2 * (2.0 / fan_in)


def test_init_rejects_short_widths():
    with pytest.raises(ConfigError):
        init_params([4], seed=0)


def test_forward_identity_network():
    p = MlpParams([(np.eye(3), np.zeros(3))])
    x = np.random.default_rng(0).standard_normal((5, 3))
    emb, _ = mlp_forward(p, x)
    assert np.array_equal(emb, x)


def test_forward_zero_weights():
    p = MlpParams([(np.zeros((3, 4)), np.zeros(4)),
                   (np.zeros((4, 2)), np.zeros(2))])
    emb, _ = mlp_forward(p, np.ones((6, 3)))
    assert np.all(emb == 0)


def test_forward_shape_contract():
    p = init_params([6, 5, 3], seed=1)
    emb, _ = mlp_forward(p, np.zeros((8, 6)))
    assert emb.shape == (8, 3)


def test_forward_rejects_width_mismatch():
    p = init_params([6, 5, 3], seed=1)
    with pytest.raises(DimensionError):
        mlp_forward(p, np.zeros((8, 7)))


def test_backward_zero_upstream():
    p = init_params([4, 5, 3], seed=2)
    x = np.random.default_rng(2).standard_normal((6, 4))
    _, acts = mlp_forward(p, x)
    g = backward(p, acts, np.zeros((6, 3)))
    for dw, db in g.layers:
        assert np.all(dw == 0)
        assert np.all(db == 0)


def test_backward_linear_closed_form():
    p = MlpParams([(np.random.default_rng(4).standard_normal((3, 2)),
                    np.zeros(2))])
    x = np.random.default_rng(5).standard_normal((7, 3))
    up = np.random.default_rng(6).standard_normal((7, 2))
    _, acts = mlp_forward(p, x)
    g = backward(p, acts, up)
    assert np.allclose(g.layers[0][0], x.T @ up, atol=1e-12)
    assert np.allclose(g.layers[0][1], up.sum(axis=0), atol=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    p = init_params([5, 6, 4, 3], seed=11)
    x = rng.standard_normal((4, 5))
    up = rng.standard_normal((4, 3))

    # keep hidden pre-activations clear of the leaky-ReLU kink
    _, acts = mlp_forward(p, x)
    assert all(np.min(np.abs(a @ w + b)) > 1e-3
               for a, (w, b) in zip(acts, p.layers[:-1]))

    def scalar(params):
        emb, _ = mlp_forward(params, x)
        return float(np.sum(emb * up))

    g = backward(p, acts, up)
    step = 1e-4
    for li, (w, b) in enumerate(p.layers):
        for arr_i, arr in enumerate((w, b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                pp, pm = MlpParams(p.layers), MlpParams(p.layers)
                pp.layers[li][arr_i][idx] += step
                pm.layers[li][arr_i][idx] -= step
                fd = (scalar(pp) - scalar(pm)) / (2 * step)
                an = g.layers[li][arr_i][idx]
                denom = max(abs(fd), abs(an), 1e-8)
                assert abs(fd - an) / denom < 1e-4


def test_forward_determinism():
    p = init_params([4, 8, 3], seed=9)
    x = np.random.default_rng(9).standard_normal((5, 4))
    a, _ = mlp_forward(p, x)
    b, _ = mlp_forward(p, x)
    assert np.array_equal(a, b)


def test_checkpoint_round_trip(tmp_path):
    p = init_params([4, 8, 3], seed=9)
    path = tmp_path / "ckpt.json"
    numcore.save_checkpoint(path, p, optim_state={"step_count": 3})
    loaded, optim_state = numcore.load_checkpoint(path)
    assert optim_state == {"step_count": 3}
    for (w0, b0), (w1, b1) in zip(p.layers, loaded.layers):
        assert np.array_equal(w0, w1)
        assert np.array_equal(b0, b1)
    # write -> read -> write is byte-stable
    path2 = tmp_path / "ckpt2.json"
    numcore.save_checkpoint(path2, loaded, optim_state={"step_count": 3})
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("slope", [0.2, 0.0, "0.3"])
def test_load_rejects_another_slope(tmp_path, slope):
    path = tmp_path / "ckpt.json"
    numcore.save_checkpoint(path, init_params([2, 3, 1], seed=0))
    doc = json.loads(path.read_text())
    assert doc["slope"] == SLOPE
    doc["slope"] = slope
    path.write_text(json.dumps(doc))
    with pytest.raises(numcore.CheckpointError, match="slope"):
        numcore.load_checkpoint(path)


@pytest.mark.parametrize("value", [True, False, 10 ** 400, "1.0"])
@pytest.mark.parametrize("where", ["weight", "bias"])
def test_load_rejects_non_numbers(tmp_path, where, value):
    # JSON true/false would otherwise read as 1.0/0.0
    path = tmp_path / "ckpt.json"
    numcore.save_checkpoint(path, init_params([4, 3], seed=0))
    doc = json.loads(path.read_text())
    layer = doc["layers"][0]
    if where == "weight":
        layer["weight"][1][2] = value
    else:
        layer["bias"][0] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(numcore.CheckpointError, match=str(path)):
        numcore.load_checkpoint(path)


def test_params_reject_broken_chain():
    with pytest.raises(ConfigError):
        MlpParams([(np.zeros((3, 4)), np.zeros(4)),
                   (np.zeros((5, 2)), np.zeros(2))])


class TestFlatLayout:
    def test_layers_are_views_of_flat(self):
        p = init_params([4, 5, 3], seed=1)
        assert p.flat.size == 4 * 5 + 5 + 5 * 3 + 3
        p.layers[1][0][2, 1] = 7.25
        p.layers[0][1][3] = -1.5
        assert p.flat[4 * 5 + 5 + 2 * 3 + 1] == 7.25
        assert p.flat[4 * 5 + 3] == -1.5
        p.flat[-1] = 2.0
        assert p.layers[1][1][-1] == 2.0

    def test_copy_shares_no_memory(self):
        p = init_params([4, 5, 3], seed=1)
        q = MlpParams(p.layers, seed=p.seed)
        assert not np.shares_memory(p.flat, q.flat)
        for (w, b), (w2, b2) in zip(p.layers, q.layers):
            assert not np.shares_memory(w, w2)
            assert not np.shares_memory(b, b2)
            assert np.array_equal(w, w2) and np.array_equal(b, b2)
        q.flat += 1.0
        assert not np.array_equal(p.flat, q.flat)

    def test_construction_copies_its_inputs(self):
        w, b = np.eye(3), np.zeros(3)
        p = MlpParams([(w, b)])
        p.flat[:] = 5.0
        assert np.array_equal(w, np.eye(3)) and np.all(b == 0)

    def test_backward_writes_into_given_bundle(self):
        p = init_params([4, 5, 3], seed=2)
        x = np.random.default_rng(2).standard_normal((6, 4))
        up = np.random.default_rng(3).standard_normal((6, 3))
        _, acts = mlp_forward(p, x)
        out = numcore.MlpParams(p.layers)
        buf = out.flat
        assert mlp_backward(p, acts, up, out) is None
        assert out.flat is buf
        # every value is written: a bundle of NaNs ends the same
        blank = numcore.MlpParams([(np.full_like(w, np.nan),
                                    np.full_like(b, np.nan))
                                   for w, b in p.layers])
        mlp_backward(p, acts, up, blank)
        assert blank.flat.tobytes() == out.flat.tobytes()

    def test_hand_written_checkpoint_loads_and_resaves_byte_stable(self, tmp_path):
        doc = {"layer_widths": [2, 3, 1], "slope": 0.3, "seed": None,
               "layers": [{"weight": [[0.5, -1.0, 0.25], [2.0, 0.0, -0.125]],
                           "bias": [0.1, 0.2, -0.3]},
                          {"weight": [[1.5], [-2.5], [0.75]], "bias": [0.0]}],
               "optim": {"step_count": 0}}
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(doc))
        params, optim_state = numcore.load_checkpoint(path)
        assert optim_state == {"step_count": 0}
        assert params.layers[0][0].tolist() == doc["layers"][0]["weight"]
        assert params.layers[1][1].tolist() == doc["layers"][1]["bias"]
        assert params.flat.tolist() == [0.5, -1.0, 0.25, 2.0, 0.0, -0.125,
                                        0.1, 0.2, -0.3, 1.5, -2.5, 0.75, 0.0]
        again = tmp_path / "again.json"
        numcore.save_checkpoint(again, params, optim_state)
        assert again.read_bytes() == path.read_bytes()


def masked_backward(params, pre_activations, acts, upstream):
    """The backward pass with the leaky-ReLU derivative applied as a masked
    multiply: SLOPE where the pre-activation is not > 0, untouched elsewhere."""
    grads, delta = [], upstream.copy()
    for i in range(len(params.layers) - 1, -1, -1):
        grads.insert(0, (acts[i].T @ delta, delta.sum(axis=0)))
        if i > 0:
            delta = delta @ params.layers[i][0].T
            np.multiply(delta, SLOPE, out=delta,
                        where=~(pre_activations[i - 1] > 0.0))
    return numcore.MlpParams(grads)


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.0])


def test_activation_sign_is_pre_activation_sign():
    pre = np.concatenate([SPECIAL, -SPECIAL,
                          np.random.default_rng(0).standard_normal(1000)])
    assert np.array_equal(leaky_relu(pre) > 0.0, pre > 0.0)


class TestBackwardDerivative:
    """The backward pass reads its mask from the cached layer inputs; it
    must match the mask taken from the pre-activations bit for bit."""

    def test_single_row_delta_bits(self):
        # one row: the first bias gradient is the hidden delta
        column = np.array([-1.5, 2.0, -0.0, 3.0, 0.0, -4.0, 5.0, -0.0])
        p = MlpParams([(np.ones((2, 8)), np.zeros(8)),
                       (column[:, None], np.zeros(1))])
        pre = SPECIAL[None, :]
        acts = [np.ones((1, 2)), leaky_relu(pre)]
        got = backward(p, acts, np.ones((1, 1)))
        want = masked_backward(p, [pre], acts, np.ones((1, 1)))
        assert got.flat.tobytes() == want.flat.tobytes()
        delta = (np.ones((1, 1)) @ p.layers[1][0].T)[0]
        expected = np.where(pre[0] > 0, delta, SLOPE * delta)
        assert np.array_equal(got.layers[0][1], expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_special_pre_activations_match_masked_multiply(self, seed):
        rng = np.random.default_rng(seed)
        p = init_params([3, 8, 6, 2], seed=5)
        pres = [rng.choice(SPECIAL, size=(7, 8)),
                rng.choice(SPECIAL, size=(7, 6))]
        acts = [rng.standard_normal((7, 3)), *map(leaky_relu, pres)]
        up = rng.standard_normal((7, 2))
        up[0, 0] = -0.0
        # inf and NaN inputs give NaN weight gradients in both passes
        with np.errstate(invalid="ignore"):
            got = backward(p, acts, up)
            want = masked_backward(p, pres, acts, up)
        assert got.flat.tobytes() == want.flat.tobytes()
