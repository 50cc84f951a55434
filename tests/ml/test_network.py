"""Tests for the neural-network substrate (layers, optimizers, training)."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml.layers import Dense, Dropout
from repro.ml.network import NeuralNetwork
from repro.ml.optimizers import SGD, Adam, get_optimizer
from repro.ml.preprocessing import OneHotEncoder


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_param_count(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        assert layer.n_params == (4 + 1) * 3

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(TrainingError):
            layer.backward(np.ones((1, 2)))

    def test_wrong_input_dim_raises(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(TrainingError):
            layer.forward(np.ones((1, 4)))

    def test_gradient_check_linear_layer(self):
        """Numeric gradient check through a linear Dense layer + MSE."""
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, activation="linear", rng=rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss_value():
            pred = layer.forward(x, training=True)
            return float(np.mean((pred - target) ** 2))

        base_pred = layer.forward(x, training=True)
        grad_out = 2.0 * (base_pred - target) / base_pred.size * 2  # d/dpred of mean sq
        # Use exact formulation: L = mean((p-t)^2) over all elements.
        grad_out = 2.0 * (base_pred - target) / base_pred.size
        layer.backward(grad_out)
        analytic = layer.gradients()["weights"]
        eps = 1e-6
        w = layer.weights
        numeric = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                w[i, j] += eps
                up = loss_value()
                w[i, j] -= 2 * eps
                down = loss_value()
                w[i, j] += eps
                numeric[i, j] = (up - down) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-5)


class TestDropout:
    def test_identity_at_inference(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((10, 4))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_masks_at_training(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((100, 10)), training=True)
        assert (out == 0).any()
        # Inverted dropout keeps the expectation.
        assert out.mean() == pytest.approx(1.0, abs=0.15)

    def test_bad_rate_raises(self):
        with pytest.raises(TrainingError):
            Dropout(1.0)


class TestOptimizers:
    def test_sgd_moves_against_gradient(self):
        opt = SGD(learning_rate=0.1)
        param = np.array([1.0])
        opt.step(param, np.array([2.0]))
        assert param[0] == pytest.approx(0.8)

    def test_momentum_accumulates(self):
        opt = SGD(learning_rate=0.1, momentum=0.9)
        param = np.array([0.0])
        opt.step(param, np.array([1.0]))
        first = param[0]
        opt.step(param, np.array([1.0]))
        second_step = param[0] - first
        assert abs(second_step) > abs(first)

    def test_adam_converges_on_quadratic(self):
        opt = Adam(learning_rate=0.1)
        param = np.array([5.0])
        for _ in range(200):
            opt.step(param, 2.0 * param)
        assert abs(param[0]) < 0.05

    def test_bad_lr_raises(self):
        with pytest.raises(TrainingError):
            SGD(learning_rate=0.0)

    def test_registry(self):
        assert isinstance(get_optimizer("adam"), Adam)
        assert isinstance(get_optimizer("momentum"), SGD)
        with pytest.raises(TrainingError):
            get_optimizer("lion")


class TestNeuralNetwork:
    def test_param_count_formula(self):
        net = NeuralNetwork([7, 12, 8, 1], seed=0)
        assert net.n_params == 8 * 12 + 13 * 8 + 9 * 1

    def test_topology_accessor(self):
        net = NeuralNetwork([5, 3, 2], seed=0)
        assert net.topology == [5, 3, 2]

    def test_needs_two_dims(self):
        with pytest.raises(TrainingError):
            NeuralNetwork([4])

    def test_rejects_zero_width(self):
        with pytest.raises(TrainingError):
            NeuralNetwork([4, 0, 1])

    def test_binary_learns_blobs(self, blobs_binary):
        Xtr, ytr, Xte, yte = blobs_binary
        net = NeuralNetwork([7, 8, 1], seed=0)
        net.fit(Xtr, ytr, epochs=30, learning_rate=0.01)
        acc = float(np.mean(net.predict(Xte) == yte))
        assert acc > 0.95

    def test_multiclass_learns(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(c * 3.0, 0.5, (60, 4)) for c in range(3)])
        y = np.repeat(np.arange(3), 60)
        net = NeuralNetwork([4, 8, 3], output_activation="softmax", seed=0)
        net.fit(X, OneHotEncoder(3).fit_transform(y), epochs=40, learning_rate=0.02)
        assert float(np.mean(net.predict(X) == y)) > 0.95

    def test_loss_decreases(self, blobs_binary):
        Xtr, ytr, _, _ = blobs_binary
        net = NeuralNetwork([7, 6, 1], seed=0)
        history = net.fit(Xtr, ytr, epochs=15, learning_rate=0.01)
        assert history.loss[-1] < history.loss[0]

    def test_early_stopping(self, blobs_binary):
        Xtr, ytr, Xte, yte = blobs_binary
        net = NeuralNetwork([7, 6, 1], seed=0)
        history = net.fit(
            Xtr, ytr, epochs=200, learning_rate=0.05,
            validation_data=(Xte, yte.astype(float)), patience=3,
        )
        assert history.epochs_run < 200

    def test_deterministic_under_seed(self, blobs_binary):
        Xtr, ytr, Xte, _ = blobs_binary
        preds = []
        for _ in range(2):
            net = NeuralNetwork([7, 6, 1], seed=123)
            net.fit(Xtr, ytr, epochs=5, learning_rate=0.01)
            preds.append(net.predict_proba(Xte))
        assert np.array_equal(preds[0], preds[1])

    def test_get_set_weights_round_trip(self):
        a = NeuralNetwork([4, 5, 2], seed=0)
        b = NeuralNetwork([4, 5, 2], seed=99)
        b.set_weights(a.get_weights())
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert np.allclose(a.predict_proba(x), b.predict_proba(x))

    def test_set_weights_shape_mismatch_raises(self):
        a = NeuralNetwork([4, 5, 2], seed=0)
        b = NeuralNetwork([4, 6, 2], seed=0)
        with pytest.raises(TrainingError):
            a.set_weights(b.get_weights())

    def test_target_dim_mismatch_raises(self, blobs_binary):
        Xtr, ytr, _, _ = blobs_binary
        net = NeuralNetwork([7, 4, 2], output_activation="softmax", seed=0)
        with pytest.raises(TrainingError):
            net.fit(Xtr, ytr, epochs=1)  # 1-dim targets for 2-dim head

    def test_empty_dataset_raises(self):
        net = NeuralNetwork([3, 1], seed=0)
        with pytest.raises(TrainingError):
            net.fit(np.empty((0, 3)), np.empty((0,)), epochs=1)
