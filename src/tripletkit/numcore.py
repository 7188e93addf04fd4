"""Small fully connected embedding network with hand-derived backprop.

Everything is plain float64 numpy. Hidden layers are linear -> leaky ReLU,
the final layer is linear with no output normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Shape mismatch between inputs and parameters."""


class ConfigError(ValueError):
    """Invalid network or run configuration."""


class CheckpointError(ValueError):
    """A checkpoint document that does not describe a valid model."""


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """Elementwise y = x for x >= 0, slope*x otherwise."""
    if not 0.0 <= slope < 1.0:
        raise ConfigError(f"slope must be in [0, 1), got {slope}")
    x = np.asarray(x, dtype=np.float64)
    h = slope * x
    return np.maximum(x, h, out=h)      # the larger of the two for slope < 1


Layers = list[tuple[np.ndarray, np.ndarray]]


def pack_layers(layers: Layers) -> tuple[np.ndarray, Layers, tuple]:
    """Copy (weight, bias) pairs into one new float64 vector, layer by
    layer, weight before bias; return it, the pairs as views into it and
    the views' shapes, which compare two layouts."""
    arrays = [np.ravel(a) for pair in layers for a in pair]
    flat = np.concatenate(arrays, dtype=np.float64)
    parts = np.split(flat, np.cumsum([a.size for a in arrays[:-1]]))
    views = [(parts[2 * i].reshape(w.shape), parts[2 * i + 1])
             for i, (w, _) in enumerate(layers)]
    return flat, views, tuple((w.shape, b.shape) for w, b in views)


@dataclass
class MlpParams:
    """Ordered (weight, bias) pairs plus the leaky-ReLU slope.

    Weight i has shape (in_width, out_width); bias i has shape (out_width,).
    Hidden layers are followed by leaky ReLU, the last layer is linear.
    The pairs are copied into one vector, `flat`, and `layers` holds views
    into it, so an update of `flat` is an update of every layer. The slope
    is checked by `leaky_relu`, which the forward pass applies.
    """

    layers: Layers
    slope: float = 0.3
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
        self.flat, self.layers, self.shapes = pack_layers(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def layer_widths(self) -> list[int]:
        """The input width, then each layer's output width."""
        return [self.input_dim] + [w.shape[1] for w, _ in self.layers]

    def copy(self) -> "MlpParams":
        return MlpParams(self.layers, slope=self.slope, seed=self.seed)


@dataclass
class GradBundle:
    """Per-layer weight/bias gradients, views into one vector, `flat`,
    laid out as `MlpParams.flat` is."""

    layers: Layers

    def __post_init__(self):
        self.flat, self.layers, self.shapes = pack_layers(self.layers)


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


@dataclass
class ForwardCache:
    pre_activations: list[np.ndarray]   # one per layer
    activations: list[np.ndarray]       # layer inputs, including the batch itself


def mlp_forward(params: MlpParams, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass; returns embeddings and the cache needed for backward."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionError(
            f"expected input shape (B, {params.input_dim}), got {x.shape}")
    cache = ForwardCache([], [x])
    for i, (w, b) in enumerate(params.layers):
        if i:       # leaky ReLU after every hidden layer
            cache.activations.append(leaky_relu(z, params.slope))
        z = cache.activations[-1] @ w
        z += b
        cache.pre_activations.append(z)
    return z, cache


def mlp_backward(params: MlpParams, cache: ForwardCache, upstream: np.ndarray,
                 out: GradBundle | None = None) -> GradBundle:
    """Gradients of sum(embeddings * upstream) w.r.t. all parameters,
    written into `out` (a new bundle when None), which is returned."""
    delta = np.asarray(upstream, dtype=np.float64)
    n = len(params.layers)
    if len(cache.pre_activations) != n:
        raise DimensionError("cache does not match parameter layer count")
    if delta.shape != cache.pre_activations[-1].shape:
        raise DimensionError("upstream shape does not match embeddings")
    # a copy of params has the layout; every value of it is overwritten
    grads = GradBundle(params.layers) if out is None else out
    for i in range(n - 1, -1, -1):
        dw, db = grads.layers[i]
        np.matmul(cache.activations[i].T, delta, out=dw)
        delta.sum(axis=0, out=db)
        if i > 0:   # through the leaky ReLU, whose derivative at 0 is slope
            delta = delta @ params.layers[i][0].T
            # 1 where pre > 0, else slope (in [0, 1), checked by the forward)
            np.multiply(delta, np.maximum(cache.pre_activations[i - 1] > 0.0,
                                          params.slope), out=delta)
    return grads


def save_checkpoint(path, params: MlpParams, optim_state: dict | None = None) -> None:
    """Write the model (and optionally optimizer state) as a JSON document."""
    doc = {
        "layer_widths": list(params.layer_widths),
        "slope": params.slope,
        "seed": params.seed,
        "layers": [
            {"weight": w.tolist(), "bias": b.tolist()} for w, b in params.layers
        ],
    }
    if optim_state is not None:
        doc["optim"] = optim_state
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def load_checkpoint(path) -> tuple[MlpParams, dict | None]:
    """Read a `save_checkpoint` document; anything else raises
    CheckpointError naming `path`."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        layers = [(np.asarray(l["weight"]), np.asarray(l["bias"]))
                  for l in doc["layers"]]
        params = MlpParams(layers, slope=doc["slope"], seed=doc.get("seed"))
        if doc["layer_widths"] != params.layer_widths:
            raise CheckpointError(f"layer_widths {doc['layer_widths']} do "
                                  f"not match the layers' {params.layer_widths}")
        if not 0.0 <= params.slope < 1.0:
            raise CheckpointError(f"slope must be in [0, 1), got {params.slope}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        detail = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise CheckpointError(f"{path}: not a valid checkpoint: {detail}") \
            from None
    return params, doc.get("optim")
