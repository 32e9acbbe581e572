"""Small feed-forward classifier on flat parameter vectors.

The architecture is fixed in kind — ReLU hidden layers, softmax output,
categorical cross-entropy — with the layer widths configurable.  Parameters
live in a single float64 vector so that federated averaging is plain vector
arithmetic; training is epoch-wise minibatch SGD with analytic gradients, a
round's trainers stepping in lockstep over stacked batches and vectors.
Every call writes its layers' outputs into buffers it allocates once and works
in place otherwise, keeping every floating-point operation and its order, so
results are bit-exact.  Evaluation walks the rows in fixed blocks, so its
scratch memory does not grow with the number of rows.
"""

from __future__ import annotations

import logging
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
    """Per-layer (weights, bias) views of a flat vector, or of each row of a stack of them.

    A bias is a one-row matrix, so it broadcasts over a batch's rows either way.
    """
    dims = spec.dims
    lead = flat.shape[:-1]
    layers = []
    offset = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = flat[..., offset : offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        b = flat[..., offset : offset + fan_out].reshape(*lead, 1, fan_out)
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


def _forward(layers, x, outs) -> list[np.ndarray]:
    """``x`` and every layer's output for it, written into ``outs``: the post-ReLU
    activations, then the logits.

    ``x`` is one batch (rows, inputs), or a stack of them (trainers, rows, inputs)
    under the views of a stack of vectors; each product is one ``np.matmul`` either way.
    """
    activations = [x]
    for i, ((w, b), out) in enumerate(zip(layers, outs)):
        h = np.matmul(activations[-1], w, out=out)
        h += b
        if i < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
        activations.append(h)
    return activations


def _blocks(n: int) -> list[slice]:
    """Slices of ``_BLOCK_ROWS`` rows; a one-row tail (another BLAS path) joins the block before."""
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _block_logits(params: ModelParams, features: np.ndarray):
    """(rows, logits) for each of ``_blocks``, every block written into one set of layer
    buffers; a block's logits are overwritten by the next block's."""
    layers = _layer_views(params.flat, params.spec)
    blocks = _blocks(len(features))
    size = max((rows.stop - rows.start for rows in blocks), default=0)
    buffers = [np.empty((size, width)) for width in params.spec.dims[1:]]
    for rows in blocks:
        outs = [buffer[: rows.stop - rows.start] for buffer in buffers]
        yield rows, _forward(layers, features[rows], outs)[-1]


def _shifted(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``logits`` minus each row's max; the max is taken column by column, which is exact."""
    row_max = logits[..., 0].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(row_max, logits[..., j], out=row_max)
    return np.subtract(logits, row_max[..., None], out=out)


def _softmax(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    shifted = _shifted(logits, out)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per sample; rows sum to 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.spec.input_dim:
        raise ValueError(
            f"features shape {features.shape} does not match input_dim {params.spec.input_dim}"
        )
    probs = np.empty((len(features), params.spec.output_dim))
    for rows, logits in _block_logits(params, features):
        _softmax(logits, out=probs[rows])
    return probs


def predict(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; probability ties go to the lower class code."""
    return np.argmax(forward(params, features), axis=1).astype(np.int64)


def _row_losses(logits: np.ndarray, labels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy, in log-sum-exp form: never exponentiates anything above zero.

    ``logits`` is scratch: it is overwritten.
    """
    shifted = _shifted(logits, logits)
    picked = shifted[np.arange(len(labels)), labels]
    log_norm = np.exp(shifted, out=shifted).sum(axis=1, out=out)
    np.log(log_norm, out=log_norm)
    log_norm -= picked
    return log_norm


def mean_loss(params: ModelParams, data: LabeledDataset) -> float:
    """Mean categorical cross-entropy over the dataset."""
    losses = np.empty(data.sample_count)
    for rows, logits in _block_logits(params, data.features):
        _row_losses(logits, data.labels[rows], out=losses[rows])
    return float(np.mean(losses))


def _backprop(layers, grad_layers, x, picks, outs, deltas) -> None:
    """Overwrite all of ``grad_layers`` with the mean cross-entropy gradient.

    ``x`` is one batch or a stack of equal-sized batches, one per vector of a
    stack, each getting its own batch's gradient; ``picks`` indexes each row's
    label in the logits.  ``outs`` takes every layer's output (see ``_forward``),
    ``deltas`` the error at each hidden layer.
    """
    activations = _forward(layers, x, outs)
    delta = _softmax(activations[-1], activations[-1])
    delta[picks] -= 1.0
    delta /= x.shape[-2]
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(activations[i].swapaxes(-1, -2), delta, out=gw)
        delta.sum(axis=-2, keepdims=True, out=gb)
        if i > 0:
            delta = np.matmul(delta, layers[i][0].swapaxes(-1, -2), out=deltas[i - 1])
            np.multiply(delta, activations[i] > 0, out=delta)


@dataclass(frozen=True)
class Cohort:
    """The training shards of a round's trainers, in trainer order."""

    shards: tuple[LabeledDataset, ...]

    @property
    def sample_count(self) -> int:
        """Rows over every shard: the rows one epoch visits."""
        return sum(shard.sample_count for shard in self.shards)


def train_local(
    models: list[ModelParams], cohort: Cohort, config: TrainConfig, seeds: list[int]
) -> list[ModelParams]:
    """Epoch-wise minibatch SGD of each model on its shard of ``cohort``: a new model each.

    Each trainer shuffles its shard's order under its own seed every epoch and
    walks the permutation in batches of ``batch_size`` (its last batch may be
    short).  While every trainer has a full batch left in the epoch, the
    trainers step in lockstep, each op one numpy call over the stacked batches
    and vectors; each then finishes the epoch alone.  A trainer's arithmetic
    is the same either way, so its model is the one it would get trained alone.
    """
    if not len(models) == len(cohort.shards) == len(seeds):
        raise ValueError(
            f"{len(models)} models, {len(cohort.shards)} shards and {len(seeds)} seeds; "
            "train_local needs one of each per trainer"
        )
    trained = list(models)
    trainers = []  # (index, features, labels, rng) of each trainer with rows
    for t, (params, data) in enumerate(zip(models, cohort.shards)):
        if params.spec != models[0].spec:
            raise ValueError(
                f"model {t} has dims {params.spec.dims}, model 0 {models[0].spec.dims}"
            )
        if data.sample_count == 0:
            logger.warning("train_local called with empty data; params returned unchanged")
            continue
        labels = np.asarray(data.labels, dtype=np.int64)
        if labels.min() < 0 or labels.max() >= params.spec.output_dim:
            raise ValueError("labels out of range for output_dim")
        features = np.asarray(data.features, dtype=np.float64)
        trainers.append((t, features, labels, np.random.default_rng(seeds[t])))
    if not trainers:
        return trained
    spec, batch, rate = models[0].spec, config.batch_size, config.learning_rate
    flat = np.stack([models[t].flat for t, *_ in trainers])
    grad = np.empty_like(flat)
    stacked = _layer_views(flat, spec), _layer_views(grad, spec)
    size = min(batch, max(len(labels) for _, _, labels, _ in trainers))
    # Every step's batches, layer outputs and hidden-layer errors, one row per trainer.
    x_buf = np.empty((len(trainers), size, spec.input_dim))
    y_buf = np.empty((len(trainers), size), dtype=np.int64)
    outs = [np.empty((len(trainers), size, width)) for width in spec.dims[1:]]
    deltas = [np.empty((len(trainers), size, width)) for width in spec.dims[1:-1]]
    stacked_picks = (np.arange(len(trainers))[:, None], np.arange(size), y_buf)

    def rows_of(i: int, n: int):
        """Views of trainer ``i``'s first ``n`` rows: batch, labels, picks, outputs, errors."""
        y = y_buf[i, :n]
        own_outs, own_deltas = [out[i, :n] for out in outs], [delta[i, :n] for delta in deltas]
        return x_buf[i, :n], y, (np.arange(n), y), own_outs, own_deltas

    for _ in range(config.epochs):
        # Every trainer's order is held at once, so each is kept in the smallest integer
        # type that indexes its rows.
        orders = [
            rng.permutation(len(labels)).astype(np.min_scalar_type(len(labels) - 1))
            for _, _, labels, rng in trainers
        ]
        # Batches every trainer has in full; with one trainer, none are stacked.
        shared = min(map(len, orders)) // batch * batch if len(trainers) > 1 else 0
        for start in range(0, shared, batch):
            for (_, features, labels, _), order, x, y in zip(trainers, orders, x_buf, y_buf):
                np.take(features, order[start : start + batch], axis=0, out=x)
                np.take(labels, order[start : start + batch], out=y)
            _backprop(*stacked, x_buf, stacked_picks, outs, deltas)
            grad *= rate
            flat -= grad
        for i, ((_, features, labels, _), order) in enumerate(zip(trainers, orders)):
            own, own_grad = flat[i], grad[i]
            layers, grad_layers = _layer_views(own, spec), _layer_views(own_grad, spec)
            full = rows_of(i, batch)
            for start in range(shared, len(order), batch):
                rows = order[start : start + batch]
                x, y, picks, own_outs, own_deltas = (
                    full if len(rows) == batch else rows_of(i, len(rows))
                )
                np.take(features, rows, axis=0, out=x)
                np.take(labels, rows, out=y)
                _backprop(layers, grad_layers, x, picks, own_outs, own_deltas)
                own_grad *= rate
                own -= own_grad
    for i, (t, *_) in enumerate(trainers):
        trained[t] = ModelParams(flat[i].copy(), spec)
    return trained

