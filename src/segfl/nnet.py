"""Small feed-forward classifier on flat parameter vectors.

The architecture is fixed in kind — ReLU hidden layers, softmax output,
categorical cross-entropy — with the layer widths configurable.  Parameters
live in a single float64 vector so that federated averaging is plain vector
arithmetic; training is epoch-wise minibatch SGD with analytic gradients.
Each pass allocates every layer's output once and works in place otherwise,
keeping every floating-point operation and its order, so results are bit-exact.
Evaluation walks the rows in fixed blocks, so its scratch memory does not grow
with the number of rows.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from segfl.flowdata import CLASS_NAMES, LabeledDataset

logger = logging.getLogger(__name__)

DEFAULT_HIDDEN = (64, 32)
N_CLASSES = len(CLASS_NAMES)
# Rows per evaluation block: a multiple of the BLAS kernels' row unroll, so a
# row's products round as in one call over all rows (up to about 10,000 rows,
# where that call may switch kernels and differ in the last ulp).
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class LayerSpec:
    """Layer widths: input width, hidden widths, one output unit per class."""

    input_dim: int
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN
    output_dim: int = N_CLASSES

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"all layer dims must be >= 1, got {self.dims}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def n_params(self) -> int:
        dims = self.dims
        return sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))


@dataclass(frozen=True)
class ModelParams:
    """Flat float64 parameter vector laid out layer by layer (weights, then bias).

    The vector is made read-only, so one model can be shared by any number of
    workers and groups without a copy.
    """

    flat: np.ndarray
    spec: LayerSpec

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.float64)
        if flat.shape != (self.spec.n_params,):
            raise ValueError(
                f"flat vector has {flat.shape}, spec {self.spec.dims} "
                f"needs ({self.spec.n_params},)"
            )
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1
    batch_size: int = 128
    learning_rate: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")


def _layer_views(flat: np.ndarray, spec: LayerSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reshape the flat vector into per-layer (weights, bias) views."""
    dims = spec.dims
    layers = []
    offset = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = flat[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def init_params(spec: LayerSpec, seed: int = 0) -> ModelParams:
    """Uniform Glorot weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(spec.n_params, dtype=np.float64)
    for w, _ in _layer_views(flat, spec):
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return ModelParams(flat, spec)


def _forward_cached(layers, features):
    """Forward pass over ``_layer_views`` keeping the post-ReLU activations for backprop."""
    activations = [features]
    for w, b in layers[:-1]:
        h = activations[-1] @ w
        h += b
        activations.append(np.maximum(h, 0.0, out=h))
    w_out, b_out = layers[-1]
    logits = activations[-1] @ w_out
    logits += b_out
    return activations, logits


def _blocks(n: int) -> list[slice]:
    """Slices of ``_BLOCK_ROWS`` rows; a one-row tail (another BLAS path) joins the block before."""
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _shifted(logits: np.ndarray, out=None) -> np.ndarray:
    """``logits`` minus each row's max; the max is taken column by column, which is exact."""
    row_max = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, j], out=row_max)
    return np.subtract(logits, row_max[:, None], out=out)


def _softmax(logits: np.ndarray, out=None) -> np.ndarray:
    shifted = _shifted(logits, out)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per sample; rows sum to 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.spec.input_dim:
        raise ValueError(
            f"features shape {features.shape} does not match input_dim {params.spec.input_dim}"
        )
    layers = _layer_views(params.flat, params.spec)
    probs = np.empty((len(features), params.spec.output_dim))
    for rows in _blocks(len(features)):
        _, logits = _forward_cached(layers, features[rows])
        _softmax(logits, out=probs[rows])
    return probs


def predict(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; probability ties go to the lower class code."""
    return np.argmax(forward(params, features), axis=1).astype(np.int64)


def _row_losses(logits: np.ndarray, labels: np.ndarray, out=None) -> np.ndarray:
    """Per-row cross-entropy, in log-sum-exp form: never exponentiates anything above zero."""
    shifted = _shifted(logits)
    picked = shifted[np.arange(len(labels)), labels]
    log_norm = np.exp(shifted, out=shifted).sum(axis=1, out=out)
    np.log(log_norm, out=log_norm)
    log_norm -= picked
    return log_norm


def mean_loss(params: ModelParams, data: LabeledDataset) -> float:
    """Mean categorical cross-entropy over the dataset."""
    layers = _layer_views(params.flat, params.spec)
    losses = np.empty(data.sample_count)
    for rows in _blocks(data.sample_count):
        _, logits = _forward_cached(layers, data.features[rows])
        _row_losses(logits, data.labels[rows], out=losses[rows])
    return float(np.mean(losses))


def _backprop(layers, grad_layers, x, y) -> None:
    """Overwrite all of ``grad_layers`` with the mean cross-entropy gradient."""
    activations, logits = _forward_cached(layers, x)
    delta = _softmax(logits)
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(activations[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = delta @ layers[i][0].T
            np.multiply(delta, activations[i] > 0, out=delta)


def train_local(
    params: ModelParams, data: LabeledDataset, config: TrainConfig, seed: int
) -> ModelParams:
    """Epoch-wise minibatch SGD from ``params`` to a new model.

    Each epoch shuffles the sample order under ``seed`` and walks the
    permutation in batches of ``batch_size`` (last batch may be short).
    """
    if data.sample_count == 0:
        logger.warning("train_local called with empty data; params returned unchanged")
        return params
    features = np.asarray(data.features, dtype=np.float64)
    labels = np.asarray(data.labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= params.spec.output_dim:
        raise ValueError("labels out of range for output_dim")
    rng = np.random.default_rng(seed)
    flat, grad = params.flat.copy(), np.empty_like(params.flat)
    layers, grad_layers = _layer_views(flat, params.spec), _layer_views(grad, params.spec)
    n, size = data.sample_count, min(config.batch_size, data.sample_count)
    x_buf = np.empty((size, features.shape[1]))
    y_buf = np.empty(size, dtype=np.int64)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            x = np.take(features, batch, axis=0, out=x_buf[: len(batch)])
            y = np.take(labels, batch, out=y_buf[: len(batch)])
            _backprop(layers, grad_layers, x, y)
            grad *= config.learning_rate
            flat -= grad
    return ModelParams(flat, params.spec)


# Binary layout: int32 dim count, int32 dims, uint64 vector length, float64
# payload — everything little-endian.
_HEADER_COUNT = struct.Struct("<i")
_HEADER_LEN = struct.Struct("<Q")


def write_params(params: ModelParams, path) -> None:
    dims = params.spec.dims
    with open(path, "wb") as fh:
        fh.write(_HEADER_COUNT.pack(len(dims)))
        fh.write(struct.pack(f"<{len(dims)}i", *dims))
        fh.write(_HEADER_LEN.pack(len(params.flat)))
        fh.write(params.flat.astype("<f8").tobytes())
