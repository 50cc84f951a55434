"""Gradient-descent optimizers (SGD with momentum, Adam).

Each step updates a network's whole flat parameter buffer in place
(:func:`bind_flat_buffers`), one fused step per mini-batch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError


def bind_flat_buffers(slots: list) -> tuple:
    """Pack ``(owner, param_attr, grad_attr)`` slots into two flat float64 buffers.

    Each ``owner.param_attr`` is copied, in slot order, into the parameter
    buffer and rebound to a view of it; ``owner.grad_attr`` is rebound to
    the matching view of a zeroed gradient buffer.  Returns ``(params, grads)``.
    """
    arrays = [getattr(owner, attr) for owner, attr, _ in slots]
    params = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    grads = np.zeros_like(params)
    offset = 0
    for (owner, attr, grad_attr), a in zip(slots, arrays):
        end = offset + a.size
        setattr(owner, attr, params[offset:end].reshape(a.shape))
        setattr(owner, grad_attr, grads[offset:end].reshape(a.shape))
        offset = end
    return params, grads


class Optimizer:
    """Base class; ``step`` applies one gradient step to ``params`` in place."""

    def __init__(self, learning_rate: float = 0.01) -> None:
        if learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise TrainingError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if not self.momentum:
            params -= self.learning_rate * grads
            return
        if self._velocity is None:
            self._velocity = np.zeros_like(params)
        self._velocity *= self.momentum
        self._velocity -= self.learning_rate * grads
        params += self._velocity


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise TrainingError("beta1/beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: np.ndarray | None = None
        self._t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        if self._m is None:
            self._m, self._v, self._tmp, self._denom = (np.zeros_like(params) for _ in range(4))
        m, v, tmp, denom = self._m, self._v, self._tmp, self._denom
        self._t += 1
        # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g, in place
        m *= self.beta1
        m += np.multiply(grads, 1.0 - self.beta1, out=tmp)
        v *= self.beta2
        v += np.multiply(np.square(grads, out=tmp), 1.0 - self.beta2, out=tmp)
        # params -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.sqrt(np.divide(v, 1.0 - self.beta2**self._t, out=denom), out=denom)
        denom += self.epsilon
        m_hat = np.divide(m, 1.0 - self.beta1**self._t, out=tmp)
        m_hat *= self.learning_rate
        m_hat /= denom
        params -= m_hat


def get_optimizer(name: "str | Optimizer", learning_rate: float = 0.01) -> Optimizer:
    """Resolve an optimizer by name with the given learning rate."""
    if isinstance(name, Optimizer):
        return name
    if name == "sgd":
        return SGD(learning_rate)
    if name == "momentum":
        return SGD(learning_rate, momentum=0.9)
    if name == "adam":
        return Adam(learning_rate)
    raise TrainingError(f"unknown optimizer {name!r}; available: adam, sgd, momentum")
