"""Forward pass, loss, gradients and training of the classifier."""

from __future__ import annotations

import logging
import math
import tracemalloc

import numpy as np
import pytest

from segfl.flowdata import LabeledDataset
from segfl.nnet import (
    Cohort,
    LayerSpec,
    ModelParams,
    TrainConfig,
    forward,
    init_params,
    mean_loss,
    predict,
    train_local,
)


def _train_alone(params, data, config, seed):
    """One model trained on its own: a one-shard cohort."""
    (trained,) = train_local([params], Cohort((data,)), config, [seed])
    return trained


def _step_gradient(params: ModelParams, features, labels) -> np.ndarray:
    """The gradient that training follows: the change one full-batch SGD step at
    learning rate 1 makes to the parameters."""
    config = TrainConfig(epochs=1, batch_size=len(labels), learning_rate=1.0)
    return params.flat - _train_alone(params, LabeledDataset(features, labels), config, 0).flat


def _fd_gradient(params: ModelParams, features, labels, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of ``mean_loss``, one coordinate at a time."""
    data = LabeledDataset(features, labels)
    grad = np.zeros_like(params.flat)
    for i in range(len(params.flat)):
        plus = params.flat.copy()
        plus[i] += h
        minus = params.flat.copy()
        minus[i] -= h
        loss_plus = mean_loss(ModelParams(plus, params.spec), data)
        loss_minus = mean_loss(ModelParams(minus, params.spec), data)
        grad[i] = (loss_plus - loss_minus) / (2 * h)
    return grad


def _gradcheck_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / scale))


def _kink_margin(params: ModelParams, features: np.ndarray) -> float:
    """Smallest |pre-activation| over all hidden units for this batch.

    The loss is piecewise-smooth: finite differences are only a valid
    derivative oracle when no rectifier input sits within the perturbation's
    reach of zero, so gradient-check draws below a margin must be re-drawn.
    """
    dims = params.spec.dims
    flat = params.flat
    offset = 0
    margin = np.inf
    x = features
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = flat[offset : offset + fan_out]
        offset += fan_out
        z = x @ w + b
        if i < len(dims) - 2:
            margin = min(margin, float(np.min(np.abs(z))))
            x = np.maximum(z, 0.0)
    return margin


# Frozen copy of the allocating implementation the in-place numeric core
# replaced.  Every floating-point operation and its order are the same, so the
# library must reproduce it bit for bit, not just within a tolerance.
def _oracle_layers(flat, spec):
    layers, offset = [], 0
    for fan_in, fan_out in zip(spec.dims[:-1], spec.dims[1:]):
        w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, flat[offset : offset + fan_out]))
        offset += fan_out
    return layers


def _oracle_forward_cached(flat, spec, features):
    layers = _oracle_layers(flat, spec)
    activations = [np.asarray(features, dtype=np.float64)]
    for w, b in layers[:-1]:
        activations.append(np.maximum(activations[-1] @ w + b, 0.0))
    w_out, b_out = layers[-1]
    logits = activations[-1] @ w_out + b_out
    return activations, logits


def _oracle_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _oracle_cross_entropy(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(log_norm - picked))


def _oracle_loss_and_grad(flat, spec, features, labels):
    labels = np.asarray(labels, dtype=np.int64)
    activations, logits = _oracle_forward_cached(flat, spec, features)
    loss = _oracle_cross_entropy(logits, labels)
    n = len(labels)
    delta = _oracle_softmax(logits)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad = np.zeros_like(flat)
    grad_layers = _oracle_layers(grad, spec)
    layers = _oracle_layers(flat, spec)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        gw[:] = activations[i].T @ delta
        gb[:] = delta.sum(axis=0)
        if i > 0:
            w, _ = layers[i]
            delta = (delta @ w.T) * (activations[i] > 0)
    return loss, grad


def _oracle_train_local(params, data, config, seed):
    rng = np.random.default_rng(seed)
    flat = params.flat.copy()
    n = data.sample_count
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grad = _oracle_loss_and_grad(
                flat, params.spec, data.features[batch], data.labels[batch]
            )
            flat -= config.learning_rate * grad
    return flat


def _noisy_init(spec: LayerSpec, seed: int, rng: np.random.Generator) -> ModelParams:
    """Initial parameters plus small noise from ``rng``, so the biases are non-zero too."""
    noise = rng.normal(scale=0.1, size=spec.n_params)
    return ModelParams(init_params(spec, seed).flat + noise, spec)


def _strided(x: np.ndarray) -> np.ndarray:
    """The same values as a view that is contiguous in neither axis."""
    backing = np.full((2 * x.shape[0], 3 * x.shape[1]), np.nan)
    backing[::2, ::3] = x
    view = backing[::2, ::3]
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    return view


_FEATURE_KINDS = {
    "float64": lambda x: x,
    "float32": lambda x: x.astype(np.float32),
    "int": lambda x: np.rint(4 * x).astype(np.int64),
    "strided": _strided,
}


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("kind", sorted(_FEATURE_KINDS))
@pytest.mark.parametrize("hidden", [(), (5,), (64, 32)], ids=["linear", "5", "64-32"])
def test_in_place_core_is_bit_identical_to_the_allocating_oracle(hidden, kind):
    rng = np.random.default_rng(31)
    spec = LayerSpec(input_dim=4, hidden_dims=hidden, output_dim=3)
    params = _noisy_init(spec, 5, rng)
    features = _FEATURE_KINDS[kind](rng.normal(size=(37, 4)))
    labels = rng.integers(0, 3, size=37)
    two_classes = np.arange(37) % 2  # no sample of class 2 in any batch

    _, logits = _oracle_forward_cached(params.flat, spec, features)
    assert _bits(forward(params, features)) == _bits(_oracle_softmax(logits))
    for y in (labels, two_classes):
        data = LabeledDataset(features, y)
        assert _bits(mean_loss(params, data)) == _bits(_oracle_cross_entropy(logits, y))
        for epochs, batch_size in ((1, 8), (1, 64), (2, 5)):  # 37 % 8 != 0; 37 < 64
            config = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.3)
            got = _train_alone(params, data, config, 2).flat
            assert _bits(got) == _bits(_oracle_train_local(params, data, config, 2))


# Lockstep training: each model of a stack must be the model its shard trains
# alone, bit for bit.  The sizes give equal and unequal shards, a shard smaller
# than one batch (3 < 5, 37 < 64) and one-row tails (65 at 64, 41 and 49 at 8,
# 41 at 5); stacks of 2 or more take some steps stacked under every batch size.
_STACKS = [(37,), (64, 65), (37, 3, 64), (70, 70, 70, 70), (41, 40, 40, 49)]


@pytest.mark.parametrize("kind", sorted(_FEATURE_KINDS))
@pytest.mark.parametrize("sizes", _STACKS, ids=lambda sizes: "-".join(map(str, sizes)))
@pytest.mark.parametrize("hidden", [(), (5,), (64, 32)], ids=["linear", "5", "64-32"])
def test_lockstep_training_is_bit_identical_to_training_alone(hidden, sizes, kind):
    rng = np.random.default_rng(73)
    spec = LayerSpec(input_dim=4, hidden_dims=hidden, output_dim=3)
    models = [_noisy_init(spec, 9 + t, rng) for t in range(len(sizes))]
    shards = [
        LabeledDataset(_FEATURE_KINDS[kind](rng.normal(size=(n, 4))), rng.integers(0, 3, size=n))
        for n in sizes
    ]
    seeds = [int(rng.integers(0, 1 << 30)) for _ in sizes]
    for epochs in (1, 2):
        for batch_size in (5, 8, 64):
            config = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.3)
            trained = train_local(models, Cohort(tuple(shards)), config, seeds)
            assert len(trained) == len(models)
            for t, (model, shard, seed) in enumerate(zip(models, shards, seeds)):
                want = _oracle_train_local(model, shard, config, seed)
                assert _bits(trained[t].flat) == _bits(want), (epochs, batch_size, t)


def test_lockstep_results_own_their_memory_and_leave_the_inputs():
    rng = np.random.default_rng(79)
    spec = LayerSpec(input_dim=2, hidden_dims=(4,), output_dim=3)
    model = init_params(spec, seed=4)
    before = model.flat.copy()
    shards = [LabeledDataset(rng.normal(size=(n, 2)), rng.integers(0, 3, size=n)) for n in (24, 24)]
    # One model for both trainers, as a group's trainers share its global.
    config = TrainConfig(batch_size=8)
    trained = train_local([model, model], Cohort(tuple(shards)), config, [1, 2])
    assert np.array_equal(model.flat, before)
    assert not np.array_equal(trained[0].flat, trained[1].flat)
    for result in trained:
        assert result.flat.flags.owndata and not result.flat.flags.writeable
        assert not np.shares_memory(result.flat, model.flat)
    assert not np.shares_memory(trained[0].flat, trained[1].flat)


def test_lockstep_skips_an_empty_shard_and_trains_the_others(caplog):
    rng = np.random.default_rng(83)
    spec = LayerSpec(input_dim=2, hidden_dims=(3,), output_dim=3)
    models = [init_params(spec, seed=s) for s in (1, 2, 3)]
    full = LabeledDataset(rng.normal(size=(20, 2)), rng.integers(0, 3, size=20))
    empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    config = TrainConfig(batch_size=4, learning_rate=0.2)
    with caplog.at_level(logging.WARNING, logger="segfl.nnet"):
        trained = train_local(models, Cohort((full, empty, full)), config, [5, 6, 7])
    assert "empty data" in caplog.text
    assert trained[1] is models[1]
    for t in (0, 2):
        assert _bits(trained[t].flat) == _bits(_oracle_train_local(models[t], full, config, 5 + t))


def test_cohort_counts_its_rows_and_training_wants_one_model_and_seed_each():
    spec = LayerSpec(input_dim=2, hidden_dims=(3,), output_dim=3)
    data = LabeledDataset(np.zeros((6, 2)), np.arange(6) % 3)
    cohort = Cohort((data, data.subset(range(4))))
    assert cohort.sample_count == 10
    model = init_params(spec, seed=0)
    with pytest.raises(ValueError, match="one of each per trainer"):
        train_local([model], cohort, TrainConfig(), [0, 1])
    with pytest.raises(ValueError, match="one of each per trainer"):
        train_local([model, model], cohort, TrainConfig(), [0])
    other = init_params(LayerSpec(input_dim=2, hidden_dims=(4,), output_dim=3), seed=0)
    with pytest.raises(ValueError, match="dims"):
        train_local([model, other], cohort, TrainConfig(), [0, 1])


# Evaluation walks the rows in blocks of 1,024; the one-call oracle is the
# reference.  Sizes straddle the block edges, including a trailing one-row block.
_BLOCKED_SIZES = [*range(1, 71), 1023, 1024, 1025, 1026, 2049, *range(1100, 4096, 373), 4096]


@pytest.mark.parametrize("kind", sorted(_FEATURE_KINDS))
@pytest.mark.parametrize("hidden", [(), (5,), (64, 32)], ids=["linear", "5", "64-32"])
def test_blocked_evaluation_is_bit_identical_to_one_call(hidden, kind):
    rng = np.random.default_rng(47)
    spec = LayerSpec(input_dim=4, hidden_dims=hidden, output_dim=3)
    params = _noisy_init(spec, 6, rng)
    all_features = rng.normal(size=(max(_BLOCKED_SIZES), 4))
    all_labels = rng.integers(0, 3, size=len(all_features))
    for n in _BLOCKED_SIZES:
        features, labels = _FEATURE_KINDS[kind](all_features[:n]), all_labels[:n]
        _, logits = _oracle_forward_cached(params.flat, spec, features)
        assert _bits(forward(params, features)) == _bits(_oracle_softmax(logits)), n
        got = mean_loss(params, LabeledDataset(features, labels))
        assert _bits(got) == _bits(_oracle_cross_entropy(logits, labels)), n


def test_blocked_evaluation_matches_one_call_on_many_rows():
    # Not bitwise: above about 10,000 rows OpenBLAS may switch the one-call
    # oracle's 32 -> 3 product to another kernel, which can round a row's
    # logits differently in the last ulp; the blocks keep the small-call kernel.
    rng = np.random.default_rng(53)
    spec = LayerSpec(input_dim=7, hidden_dims=(64, 32), output_dim=3)
    params = _noisy_init(spec, 2, rng)
    features = rng.normal(size=(20_000, 7))
    labels = rng.integers(0, 3, size=20_000)
    _, logits = _oracle_forward_cached(params.flat, spec, features)
    np.testing.assert_allclose(forward(params, features), _oracle_softmax(logits), rtol=1e-12)
    got = mean_loss(params, LabeledDataset(features, labels))
    assert got == pytest.approx(_oracle_cross_entropy(logits, labels), rel=1e-12)


def _traced_peak(call):
    """``call()`` and the peak of the memory it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_evaluation_memory_does_not_grow_with_the_rows():
    # One call over all rows would hold every layer's output at once: about
    # 816 B a row with (64, 32), 160 MB here.
    rng = np.random.default_rng(61)
    params = init_params(LayerSpec(input_dim=7, hidden_dims=(64, 32), output_dim=3), seed=1)
    data = LabeledDataset(rng.normal(size=(200_000, 7)), rng.integers(0, 3, size=200_000))
    probs, peak = _traced_peak(lambda: forward(params, data.features))
    assert probs.shape == (200_000, 3)
    assert peak - probs.nbytes < 8 * 2**20, f"forward peak {peak / 2**20:.1f} MiB"
    loss, peak = _traced_peak(lambda: mean_loss(params, data))
    assert np.isfinite(loss)
    assert peak < 8 * 2**20, f"mean_loss peak {peak / 2**20:.1f} MiB"


def test_layer_spec_parameter_count():
    spec = LayerSpec(input_dim=7, hidden_dims=(64, 32), output_dim=3)
    assert spec.dims == (7, 64, 32, 3)
    assert spec.n_params == 8 * 64 + 65 * 32 + 33 * 3


def test_layer_spec_rejects_non_positive_dims():
    with pytest.raises(ValueError):
        LayerSpec(input_dim=0)
    with pytest.raises(ValueError):
        LayerSpec(input_dim=2, hidden_dims=(4, 0))


def test_init_is_deterministic_per_seed():
    spec = LayerSpec(input_dim=5, hidden_dims=(8,), output_dim=3)
    assert np.array_equal(init_params(spec, seed=9).flat, init_params(spec, seed=9).flat)
    assert not np.array_equal(init_params(spec, seed=9).flat, init_params(spec, seed=10).flat)


def test_init_biases_are_exactly_zero():
    spec = LayerSpec(input_dim=4, hidden_dims=(6, 5), output_dim=3)
    flat = init_params(spec, seed=2).flat
    offset = 0
    for fan_in, fan_out in zip(spec.dims[:-1], spec.dims[1:]):
        offset += fan_in * fan_out
        assert np.all(flat[offset : offset + fan_out] == 0.0)
        offset += fan_out


def test_init_weight_mean_is_statistically_centered():
    # One wide layer gives 10,000 weight draws in a single init call.
    spec = LayerSpec(input_dim=50, hidden_dims=(100,), output_dim=50)
    flat = init_params(spec, seed=123).flat
    weights = np.concatenate([flat[: 50 * 100], flat[50 * 100 + 100 : 50 * 100 + 100 + 100 * 50]])
    assert len(weights) == 10_000
    bound = math.sqrt(6.0 / 150.0)
    standard_error = bound / math.sqrt(3 * len(weights))
    assert abs(float(weights.mean())) < 3 * standard_error


def test_forward_rows_are_distributions():
    spec = LayerSpec(input_dim=3, hidden_dims=(5,), output_dim=3)
    params = init_params(spec, seed=0)
    probs = forward(params, np.random.default_rng(1).normal(size=(40, 3)))
    assert np.all(probs >= 0)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_forward_zero_params_is_uniform():
    spec = LayerSpec(input_dim=2, hidden_dims=(4,), output_dim=3)
    params = ModelParams(np.zeros(spec.n_params), spec)
    probs = forward(params, np.array([[0.3, -1.2]]))
    assert np.all(probs == 1.0 / 3.0)


def test_forward_matches_hand_computation():
    # One hidden unit, written out by hand:
    #   hidden = relu(0.5 x1 - 0.25 x2 + 0.1)
    #   logits = hidden * [1, 2, -1] + [0.05, -0.05, 0]
    spec = LayerSpec(input_dim=2, hidden_dims=(1,), output_dim=3)
    flat = np.array([0.5, -0.25, 0.1, 1.0, 2.0, -1.0, 0.05, -0.05, 0.0])
    params = ModelParams(flat, spec)

    hidden = 0.5 * 0.8 - 0.25 * 0.4 + 0.1  # = 0.4
    logits = [hidden + 0.05, 2 * hidden - 0.05, -hidden]
    exps = [math.exp(v) for v in logits]
    expected = [e / sum(exps) for e in exps]
    got = forward(params, np.array([[0.8, 0.4]]))[0]
    assert got == pytest.approx(expected, abs=1e-15)

    # Negative pre-activation: the rectifier clamps to zero, so the output
    # is softmax of the output biases alone.
    got_neg = forward(params, np.array([[-1.0, 0.5]]))[0]
    exps_bias = [math.exp(0.05), math.exp(-0.05), math.exp(0.0)]
    assert got_neg == pytest.approx([e / sum(exps_bias) for e in exps_bias], abs=1e-15)


def test_forward_rejects_wrong_width():
    params = init_params(LayerSpec(input_dim=3), seed=0)
    with pytest.raises(ValueError, match="input_dim"):
        forward(params, np.zeros((2, 4)))


def test_uniform_prediction_loss_is_log_three():
    spec = LayerSpec(input_dim=2, hidden_dims=(4,), output_dim=3)
    params = ModelParams(np.zeros(spec.n_params), spec)
    data = LabeledDataset(np.random.default_rng(0).normal(size=(12, 2)), np.arange(12) % 3)
    assert mean_loss(params, data) == pytest.approx(math.log(3.0), abs=1e-12)


def test_confident_correct_prediction_drives_loss_to_zero():
    # No hidden layer: logits = x @ w + b, so a huge margin is easy to build.
    spec = LayerSpec(input_dim=3, hidden_dims=(), output_dim=3)
    flat = np.zeros(spec.n_params)
    flat[:9] = np.eye(3).flatten() * 50.0
    params = ModelParams(flat, spec)
    data = LabeledDataset(np.eye(3), np.array([0, 1, 2]))
    assert mean_loss(params, data) < 1e-12


def test_loss_is_finite_under_extreme_logits():
    spec = LayerSpec(input_dim=2, hidden_dims=(), output_dim=3)
    flat = np.array([1e4, -1e4, 0.0, -1e4, 1e4, 0.0, 0.0, 0.0, 0.0])
    params = ModelParams(flat, spec)
    # logits = [2e4, -2e4, 0]: a naive softmax would overflow exp(2e4).
    features, labels = np.array([[1.0, -1.0]]), np.array([2])
    assert np.isfinite(mean_loss(params, LabeledDataset(features, labels)))
    assert np.all(np.isfinite(_step_gradient(params, features, labels)))


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    spec = LayerSpec(input_dim=3, hidden_dims=(4, 3), output_dim=3)
    for trial in range(3):
        for attempt in range(50):
            params = init_params(spec, seed=int(rng.integers(0, 1 << 30)))
            features = rng.normal(size=(6, 3))
            labels = rng.integers(0, 3, size=6)
            if _kink_margin(params, features) > 1e-3:
                break
        else:
            pytest.fail(f"trial {trial}: no kink-free draw found")
        analytic = _step_gradient(params, features, labels)
        numeric = _fd_gradient(params, features, labels)
        assert _gradcheck_error(analytic, numeric) < 1e-4, f"trial {trial}"


def test_zero_learning_rate_keeps_params():
    rng = np.random.default_rng(7)
    spec = LayerSpec(input_dim=2, hidden_dims=(3,), output_dim=3)
    params = init_params(spec, seed=1)
    data = LabeledDataset(rng.normal(size=(20, 2)), rng.integers(0, 3, size=20))
    out = _train_alone(params, data, TrainConfig(epochs=3, batch_size=4, learning_rate=0.0), 5)
    assert np.array_equal(out.flat, params.flat)


def test_training_is_functional_and_deterministic():
    rng = np.random.default_rng(19)
    spec = LayerSpec(input_dim=2, hidden_dims=(4,), output_dim=3)
    params = init_params(spec, seed=3)
    before = params.flat.copy()
    data = LabeledDataset(rng.normal(size=(30, 2)), rng.integers(0, 3, size=30))
    config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.1)
    data_before = (data.features.copy(), data.labels.copy())
    first = _train_alone(params, data, config, 11)
    second = _train_alone(params, data, config, 11)
    assert np.array_equal(params.flat, before), "input params were mutated"
    assert np.array_equal(data.features, data_before[0]), "features were mutated"
    assert np.array_equal(data.labels, data_before[1]), "labels were mutated"
    assert np.array_equal(first.flat, second.flat)
    assert not np.array_equal(first.flat, before)
    # Each result owns its memory: no view into a reused buffer, no aliasing.
    assert first.flat.flags.owndata and second.flat.flags.owndata
    assert not np.shares_memory(first.flat, second.flat)
    for result in (first.flat, second.flat):
        for other in (params.flat, data.features, data.labels):
            assert not np.shares_memory(result, other)


def test_training_rejects_out_of_range_labels():
    params = init_params(LayerSpec(input_dim=2, hidden_dims=(3,), output_dim=3), seed=0)
    features = np.zeros((6, 2))
    for bad in (np.array([0, 1, 2, 0, 1, 3]), np.array([0, -1, 2, 0, 1, 2])):
        with pytest.raises(ValueError, match="labels out of range for output_dim"):
            _train_alone(params, LabeledDataset(features, bad), TrainConfig(batch_size=2), 0)


def test_training_learns_a_separable_toy_problem():
    rng = np.random.default_rng(4)
    centers = np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 3.0]])
    labels = np.repeat(np.arange(3), 40)
    features = centers[labels] + rng.normal(scale=0.4, size=(120, 2))
    data = LabeledDataset(features, labels)
    params = init_params(LayerSpec(input_dim=2, hidden_dims=(8,), output_dim=3), seed=0)
    config = TrainConfig(epochs=50, batch_size=16, learning_rate=0.2)
    trained = _train_alone(params, data, config, 0)
    accuracy = float((predict(trained, features) == labels).mean())
    assert accuracy >= 0.95


def test_full_batch_step_is_invariant_to_sample_duplication():
    rng = np.random.default_rng(23)
    spec = LayerSpec(input_dim=2, hidden_dims=(3,), output_dim=3)
    params = init_params(spec, seed=6)
    features = rng.normal(size=(10, 2))
    labels = rng.integers(0, 3, size=10)
    single = _train_alone(
        params,
        LabeledDataset(features, labels),
        TrainConfig(epochs=1, batch_size=10, learning_rate=0.5),
        0,
    )
    doubled = _train_alone(
        params,
        LabeledDataset(np.vstack([features, features]), np.concatenate([labels, labels])),
        TrainConfig(epochs=1, batch_size=20, learning_rate=0.5),
        0,
    )
    assert np.allclose(single.flat, doubled.flat, rtol=0, atol=1e-12)


def test_empty_training_data_warns_and_returns_input(caplog):
    spec = LayerSpec(input_dim=2, hidden_dims=(3,), output_dim=3)
    params = init_params(spec, seed=0)
    empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with caplog.at_level(logging.WARNING, logger="segfl.nnet"):
        out = _train_alone(params, empty, TrainConfig(), 0)
    assert "empty data" in caplog.text
    assert out is params


def test_params_stay_finite_after_aggressive_training():
    rng = np.random.default_rng(15)
    data = LabeledDataset(rng.normal(size=(60, 3)) * 5, rng.integers(0, 3, size=60))
    params = init_params(LayerSpec(input_dim=3, hidden_dims=(8,), output_dim=3), seed=2)
    trained = _train_alone(params, data, TrainConfig(epochs=10, batch_size=8, learning_rate=1.0), 1)
    assert np.all(np.isfinite(trained.flat))


def test_predict_matches_argmax_and_breaks_ties_low():
    spec = LayerSpec(input_dim=4, hidden_dims=(6,), output_dim=3)
    params = init_params(spec, seed=8)
    features = np.random.default_rng(2).normal(size=(100, 4))
    assert np.array_equal(predict(params, features), np.argmax(forward(params, features), axis=1))

    zero = ModelParams(np.zeros(spec.n_params), spec)
    assert np.all(predict(zero, features) == 0), "exact three-way tie must pick class 0"


def test_predict_reads_probability_rows():
    # Identity logits turn inputs into the exact probabilities (0.2, 0.5, 0.3).
    spec = LayerSpec(input_dim=3, hidden_dims=(), output_dim=3)
    flat = np.zeros(spec.n_params)
    flat[:9] = np.eye(3).flatten()
    params = ModelParams(flat, spec)
    x = np.log(np.array([[0.2, 0.5, 0.3]]))
    assert forward(params, x)[0] == pytest.approx([0.2, 0.5, 0.3], abs=1e-15)
    assert predict(params, x)[0] == 1
