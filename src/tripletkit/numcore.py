"""Small fully connected embedding network with hand-derived backprop.

Everything is plain float64 numpy. Hidden layers are linear -> leaky ReLU,
the final layer is linear with no output normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class DimensionError(ValueError):
    """Shape mismatch between inputs and parameters."""


class ConfigError(ValueError):
    """Invalid network configuration."""


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """Elementwise y = x for x >= 0, slope*x otherwise."""
    if not 0.0 <= slope < 1.0:
        raise ConfigError(f"slope must be in [0, 1), got {slope}")
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, x, slope * x)


def leaky_relu_grad(pre: np.ndarray, slope: float) -> np.ndarray:
    # derivative at exactly 0 is defined as slope
    return np.where(pre > 0.0, 1.0, slope)


@dataclass
class MlpParams:
    """Ordered (weight, bias) pairs plus the leaky-ReLU slope.

    Weight i has shape (in_width, out_width); bias i has shape (out_width,).
    Hidden layers are followed by leaky ReLU, the last layer is linear.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    slope: float = 0.3
    layer_widths: list[int] = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("MlpParams needs at least one layer")
        for i, (w, b) in enumerate(self.layers):
            if w.shape[1] != b.shape[0]:
                raise ConfigError(f"layer {i}: weight/bias width mismatch")
            if i > 0 and self.layers[i - 1][0].shape[1] != w.shape[0]:
                raise ConfigError(f"layer {i}: does not chain with layer {i-1}")
        if not self.layer_widths:
            self.layer_widths = [self.layers[0][0].shape[0]] + [
                w.shape[1] for w, _ in self.layers
            ]

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.layers[-1][0].shape[1]

    def copy(self) -> "MlpParams":
        return MlpParams(
            [(w.copy(), b.copy()) for w, b in self.layers],
            slope=self.slope,
            layer_widths=list(self.layer_widths),
            seed=self.seed,
        )


@dataclass
class GradBundle:
    """Per-layer weight/bias gradients, shape-congruent with MlpParams."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def check_congruent(self, params: MlpParams) -> None:
        if len(self.layers) != len(params.layers):
            raise DimensionError("gradient layer count mismatch")
        for (dw, db), (w, b) in zip(self.layers, params.layers):
            if dw.shape != w.shape or db.shape != b.shape:
                raise DimensionError("gradient shape mismatch")


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
    return MlpParams(layers, layer_widths=list(layer_widths), seed=seed)


@dataclass
class ForwardCache:
    inputs: np.ndarray
    pre_activations: list[np.ndarray]   # one per layer
    activations: list[np.ndarray]       # layer inputs, including the batch itself


def mlp_forward(params: MlpParams, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass; returns embeddings and the cache needed for backward."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionError(
            f"expected input shape (B, {params.input_dim}), got {x.shape}")
    pre_acts = []
    acts = [x]
    h = x
    n = len(params.layers)
    for i, (w, b) in enumerate(params.layers):
        z = h @ w + b
        pre_acts.append(z)
        h = z if i == n - 1 else leaky_relu(z, params.slope)
        if i < n - 1:
            acts.append(h)
    return h, ForwardCache(x, pre_acts, acts)


def mlp_backward(params: MlpParams, cache: ForwardCache,
                 upstream: np.ndarray) -> GradBundle:
    """Gradients of sum(embeddings * upstream) w.r.t. all parameters."""
    upstream = np.asarray(upstream, dtype=np.float64)
    n = len(params.layers)
    if len(cache.pre_activations) != n:
        raise DimensionError("cache does not match parameter layer count")
    if upstream.shape != cache.pre_activations[-1].shape:
        raise DimensionError("upstream shape does not match embeddings")
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * n  # type: ignore
    delta = upstream
    for i in range(n - 1, -1, -1):
        w, _ = params.layers[i]
        if i < n - 1:
            delta = delta * leaky_relu_grad(cache.pre_activations[i], params.slope)
        a = cache.activations[i]
        grads[i] = (a.T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
    return GradBundle(grads)


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
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    layers = [
        (np.asarray(l["weight"], dtype=np.float64),
         np.asarray(l["bias"], dtype=np.float64))
        for l in doc["layers"]
    ]
    params = MlpParams(layers, slope=doc["slope"],
                       layer_widths=doc["layer_widths"], seed=doc.get("seed"))
    return params, doc.get("optim")
