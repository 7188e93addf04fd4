"""Small fully connected embedding network with hand-derived backprop.

Everything is plain float64 numpy. Hidden layers are linear -> leaky ReLU,
the final layer is linear with no output normalization.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Shape mismatch between inputs and parameters."""


class ConfigError(ValueError):
    """Invalid network or run configuration."""


class CheckpointError(ValueError):
    """A checkpoint document that does not describe a valid model."""


SLOPE = 0.3     # the leaky-ReLU slope of every hidden layer


def leaky_relu(x: np.ndarray) -> np.ndarray:
    """Elementwise y = x for x >= 0, SLOPE*x otherwise."""
    x = np.asarray(x, dtype=np.float64)
    h = SLOPE * x
    return np.maximum(x, h, out=h)      # the larger of the two for SLOPE < 1


Layers = list[tuple[np.ndarray, np.ndarray]]


@dataclass
class MlpParams:
    """Ordered (weight, bias) pairs.

    Weight i has shape (in_width, out_width); bias i has shape (out_width,).
    Hidden layers are followed by leaky ReLU, the last layer is linear.
    The pairs are copied into one float64 vector, `flat`, weight before
    bias, and `layers` holds views into it, so an update of `flat` is an
    update of every layer; `shapes` compares two layouts. A model's
    gradients and Adam's moments are each an `MlpParams` laid out alike.
    """

    layers: Layers
    seed: int | None = None

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("MlpParams needs at least one layer")
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ConfigError(f"layer {i}: needs a 2-D weight and a 1-D "
                                  "bias of its width")
            if i > 0 and self.layers[i - 1][0].shape[1] != w.shape[0]:
                raise ConfigError(f"layer {i}: does not chain with layer {i-1}")
        arrays = [np.ravel(a) for pair in self.layers for a in pair]
        self.flat = np.concatenate(arrays, dtype=np.float64)
        parts = np.split(self.flat, np.cumsum([a.size for a in arrays[:-1]]))
        self.layers = [(parts[2 * i].reshape(w.shape), parts[2 * i + 1])
                       for i, (w, _) in enumerate(self.layers)]
        self.shapes = tuple((w.shape, b.shape) for w, b in self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def layer_widths(self) -> list[int]:
        """The input width, then each layer's output width."""
        return [self.input_dim] + [w.shape[1] for w, _ in self.layers]


def init_params(layer_widths: list[int], seed: int) -> MlpParams:
    """He-init hidden layers, Glorot-init final layer, zero biases.

    `layer_widths` includes the input width, so n widths give n-1 layers.
    """
    if len(layer_widths) < 2:
        raise ConfigError("need at least an input and an output width")
    if any(w <= 0 for w in layer_widths):
        raise ConfigError("layer widths must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    n_layers = len(layer_widths) - 1
    for i in range(n_layers):
        fan_in, fan_out = layer_widths[i], layer_widths[i + 1]
        if i < n_layers - 1:
            # He: normal with variance 2/fan_in
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        else:
            # Glorot: uniform on +-sqrt(6/(fan_in+fan_out))
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return MlpParams(layers, seed=seed)


def row_blocks(n: int, rows: int) -> list[slice]:
    """Consecutive slices of at most `rows` rows, but at least 2, covering
    range(n); one empty slice when n is 0.

    No block has one row unless n is 1: NumPy computes a one-row product
    with BLAS gemv, which rounds differently from the gemm of larger
    blocks, and a row's product must not depend on how the rows are split.
    A one-row tail joins the block before it, which then has one row more.
    """
    rows = max(2, rows)
    edges = [0, *range(rows, n, rows), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(*ends) for ends in zip(edges, edges[1:])]


def mlp_forward(params: MlpParams, inputs: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass; returns embeddings and the layer inputs backward needs."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionError(
            f"expected input shape (B, {params.input_dim}), got {x.shape}")
    activations = [x]
    for i, (w, b) in enumerate(params.layers):
        if i:       # leaky ReLU after every hidden layer
            activations.append(leaky_relu(z))
        z = activations[-1] @ w
        z += b
    return z, activations


def mlp_backward(params: MlpParams, activations: list, upstream: np.ndarray,
                 out: MlpParams) -> None:
    """Gradients of sum(embeddings * upstream) w.r.t. all parameters from
    `mlp_forward`'s layer inputs, written into `out`, laid out as `params`."""
    delta = np.asarray(upstream, dtype=np.float64)
    n = len(params.layers)
    if len(activations) != n:
        raise DimensionError("activations do not match parameter layer count")
    if delta.shape != (len(activations[0]), params.layers[-1][1].size):
        raise DimensionError("upstream shape does not match embeddings")
    for i in range(n - 1, -1, -1):
        dw, db = out.layers[i]
        np.matmul(activations[i].T, delta, out=dw)
        delta.sum(axis=0, out=db)
        if i > 0:   # through the leaky ReLU, whose derivative at 0 is SLOPE
            delta = delta @ params.layers[i][0].T
            # 1 where the layer input max(p, SLOPE*p) > 0, i.e. where p > 0
            np.multiply(delta, np.maximum(activations[i] > 0.0, SLOPE),
                        out=delta)


def layers_to_json(layers: Layers) -> list[dict]:
    """(weight, bias) pairs as a checkpoint stores them, one object each."""
    return [{"weight": w.tolist(), "bias": b.tolist()} for w, b in layers]


def layers_from_json(items: list[dict]) -> Layers:
    """The pairs `layers_to_json` wrote; read inside `reading_checkpoint`."""
    return [(_json_floats(l["weight"]), _json_floats(l["bias"])) for l in items]


def _json_floats(values) -> np.ndarray:
    """A JSON list, or list of lists, of finite numbers as float64. NumPy
    would also read true, false and numeric strings as numbers."""
    a = np.asarray(values, dtype=np.float64)
    items = itertools.chain.from_iterable(values) if a.ndim == 2 else values
    if not set(map(type, items)) <= {float, int}:
        raise CheckpointError("weights and biases must be numbers")
    if not np.isfinite(a).all():
        raise CheckpointError("weights and biases must be finite")
    return a


@contextlib.contextmanager
def reading_checkpoint(source):
    """Raise what reading a malformed document raises as CheckpointError."""
    try:
        yield
    except (ValueError, KeyError, TypeError, IndexError, OverflowError,
            RecursionError) as exc:
        detail = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise CheckpointError(f"{source}: not a valid checkpoint: {detail}") \
            from None


def save_checkpoint(path, params: MlpParams, optim_state: dict | None = None) -> None:
    """Write the model (and optionally optimizer state) as a JSON document,
    encoded in one `json.dumps` call: `json.dump` would take the pure-Python
    streaming encoder, which writes the same bytes about twice as slowly."""
    doc = {
        "layer_widths": params.layer_widths,
        "slope": SLOPE,
        "seed": params.seed,
        "layers": layers_to_json(params.layers),
    }
    if optim_state is not None:
        doc["optim"] = optim_state
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc))


def load_checkpoint(path) -> tuple[MlpParams, dict | None]:
    """Read a `save_checkpoint` document; anything else, a slope other
    than SLOPE included, raises CheckpointError naming `path`."""
    with reading_checkpoint(path):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if doc["slope"] != SLOPE:
            raise CheckpointError(f"slope must be {SLOPE}, got {doc['slope']}")
        seed = doc.get("seed")
        if seed is not None and type(seed) is not int:
            raise CheckpointError(f"seed must be an integer or null, got "
                                  f"{seed!r}")
        params = MlpParams(layers_from_json(doc["layers"]), seed=seed)
        if doc["layer_widths"] != params.layer_widths:
            raise CheckpointError(f"layer_widths {doc['layer_widths']} do "
                                  f"not match the layers' {params.layer_widths}")
    return params, doc.get("optim")
