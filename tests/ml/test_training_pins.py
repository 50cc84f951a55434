"""Bit-identity pins for DNN and BNN training.

Each case trains a small seeded network and hashes the trained weights
together with the returned per-epoch loss curve.  The digests were taken
from the per-array keyed optimizer implementation; the flat-buffer
training path must reproduce them exactly, so any change to the
per-element arithmetic of a forward pass, a backward pass or an
optimizer step shows up here as a digest mismatch.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ml.bnn import BinarizedNetwork
from repro.ml.network import NeuralNetwork


def _data(n_out: int):
    rng = np.random.default_rng(123)
    X = rng.normal(size=(120, 6))
    labels = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 0.8)
    if n_out == 1:
        return X, (labels > 0).astype(float)
    return X, np.eye(n_out)[np.minimum(labels, n_out - 1)]


def _digest(arrays, losses) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    h.update(np.asarray(losses, dtype=np.float64).tobytes())
    return h.hexdigest()


def _dnn_weights(net: NeuralNetwork):
    return [a for pair in net.get_weights() for a in pair]


def _bnn_weights(bnn: BinarizedNetwork):
    return [a for layer in bnn.layers for a in (layer.latent_weights, layer.bias)]


def _train_dnn(optimizer: str, n_out: int, dropout: float) -> str:
    X, y = _data(n_out)
    head = "sigmoid" if n_out == 1 else "softmax"
    net = NeuralNetwork(
        [6, 9, 7, n_out], output_activation=head, dropout=dropout, seed=3
    )
    history = net.fit(
        X, y, epochs=4, batch_size=16, learning_rate=0.02, optimizer=optimizer
    )
    return _digest(_dnn_weights(net), history.loss)


def _train_bnn(optimizer: str, n_out: int) -> str:
    X, y = _data(n_out)
    bnn = BinarizedNetwork([6, 10, 8, n_out], seed=4)
    losses = bnn.fit(
        X, y, epochs=4, batch_size=16, learning_rate=0.05, optimizer=optimizer
    )
    return _digest(_bnn_weights(bnn), losses)


DNN_PINS = {
    ("adam", 1, 0.0): (
        "9729e516541083814a89867bb71032309ef9ad3e097e07e0f7d316b73d1f187f"
    ),
    ("adam", 1, 0.2): (
        "06f54917cb193b5facda4507a966a424aa8e3fcd4fa0f0276da15c3bebe12fad"
    ),
    ("adam", 3, 0.0): (
        "f3e317f60f79198264cedda2327975b77d635afc6a5be63e20809c344d6b1d31"
    ),
    ("adam", 3, 0.2): (
        "24a54924a036822516599f4b0dadb757998b267e7aa4df549d47279f9dcc8d7e"
    ),
    ("sgd", 1, 0.0): (
        "ec81cea7c527b28b829ae65ea2abc2fbd331d7fb126a09296ef8c6aac04f7676"
    ),
    ("sgd", 1, 0.2): (
        "ff86ba32f309e89c54bcb887ea95ce1edf1dac25cd100fd0370992904b15dbda"
    ),
    ("sgd", 3, 0.0): (
        "c353820bb1b2c24937054a8d885c7c70f04663589be5d512ea3a6c63062e944b"
    ),
    ("sgd", 3, 0.2): (
        "0d371ddd8a8d7970241bc1d468a56ee8573a4bc9967167eb95449b374ea5f345"
    ),
    ("momentum", 1, 0.0): (
        "1fb77a03ba246be57fe5413c717199dde8c8ca5a4407dc164b4591e7ad494917"
    ),
    ("momentum", 1, 0.2): (
        "bf781e0cfaebb2f6e26140a0473836c92f3231c0eb36dbc8a4db037913ea2fa4"
    ),
    ("momentum", 3, 0.0): (
        "2cf9ded6f516c7347bcde437c7a7e8cc38c8bc520655f78a0edbf7006872ef54"
    ),
    ("momentum", 3, 0.2): (
        "9039db50dddfc0fc671abd3b64879a4cedec2948862345197a65459054f68d92"
    ),
}

BNN_PINS = {
    ("adam", 1): (
        "82162f0a923af64497d8a655fb55499af5622966466fc56419e764acc18c0bf7"
    ),
    ("adam", 3): (
        "235fad3634251ff6a1c32907997225a441e070eb8f729e1eb1e6202d795dafbd"
    ),
    ("sgd", 1): (
        "2ef9010296f749f5657f93207ab547bd7a229ddf065888058e9572026ead8577"
    ),
    ("sgd", 3): (
        "d858d6e0b7de147cc05e8bb82d1c69b223add593ffd42aaf3b31d6bbd80d411d"
    ),
}

#: Two consecutive ``fit`` calls on one DNN and on one BNN.
REFIT_PINS = {
    "dnn": "9046d2b0d38c42575966dc74add33036a38d67326e5d9ba625ddc2ae1de3f44f",
    "bnn": "66a77758b6bf907db5d71325d08db9cf4c7e76e233c3a368a52845cbdadfe4fa",
}


@pytest.mark.parametrize("case", sorted(DNN_PINS), ids=str)
def test_dnn_training_pinned(case):
    assert _train_dnn(*case) == DNN_PINS[case]


@pytest.mark.parametrize("case", sorted(BNN_PINS), ids=str)
def test_bnn_training_pinned(case):
    assert _train_bnn(*case) == BNN_PINS[case]


def test_dnn_refit_pinned():
    X, y = _data(1)
    net = NeuralNetwork([6, 9, 7, 1], seed=3)
    first = net.fit(X, y, epochs=3, batch_size=16, learning_rate=0.02)
    second = net.fit(X, y, epochs=3, batch_size=16, learning_rate=0.02)
    digest = _digest(_dnn_weights(net), first.loss + second.loss)
    assert first is not second
    assert digest == REFIT_PINS["dnn"]


def test_bnn_refit_pinned():
    X, y = _data(1)
    bnn = BinarizedNetwork([6, 10, 8, 1], seed=4)
    first = bnn.fit(X, y, epochs=3, batch_size=16, learning_rate=0.05)
    second = bnn.fit(X, y, epochs=3, batch_size=16, learning_rate=0.05)
    assert _digest(_bnn_weights(bnn), first + second) == REFIT_PINS["bnn"]


def test_set_weights_after_fit_takes_effect():
    X, y = _data(1)
    trained = NeuralNetwork([6, 9, 7, 1], seed=3)
    trained.fit(X, y, epochs=3, batch_size=16, learning_rate=0.02)
    donor = NeuralNetwork([6, 9, 7, 1], seed=11)
    donor.fit(X, y, epochs=2, batch_size=16, learning_rate=0.02)
    expected = donor.predict_proba(X)
    trained.set_weights(donor.get_weights())
    assert np.array_equal(trained.predict_proba(X), expected)
    # The loaded weights are owned by the network, not shared with donor.
    trained.fit(X, y, epochs=1, batch_size=16, learning_rate=0.02)
    assert np.array_equal(donor.predict_proba(X), expected)
    assert not np.array_equal(trained.predict_proba(X), expected)


def test_get_weights_returns_copies_after_fit():
    X, y = _data(1)
    net = NeuralNetwork([6, 9, 1], seed=3)
    net.fit(X, y, epochs=1, batch_size=16)
    snapshot = net.get_weights()
    before = [w.copy() for pair in snapshot for w in pair]
    net.fit(X, y, epochs=1, batch_size=16)
    assert all(
        np.array_equal(a, b) for a, b in zip(before, (w for p in snapshot for w in p))
    )
