"""Tiny fully-connected networks with hand-written backprop, plus Adam.

Everything is plain numpy so analytic gradients can be audited against
central finite differences. Hidden layers use tanh; the output layer is
linear. An empty hidden tuple yields a pure linear map, handy for
closed-form checks.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError


class MLP:
    """Fully-connected tanh network.

    Parameters are held as per-layer (W, b) pairs and are also addressable
    as one flat vector (get_flat/set_flat) for optimizers and
    finite-difference sweeps.
    """

    def __init__(self, in_dim: int, hidden: tuple[int, ...], out_dim: int, rng: np.random.Generator | None = None):
        self.sizes = (int(in_dim), *(int(h) for h in hidden), int(out_dim))
        rng = rng or np.random.default_rng(0)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for a, b in zip(self.sizes[:-1], self.sizes[1:]):
            # Small scaled-Gaussian init keeps tanh units in their linear range.
            self.weights.append(rng.standard_normal((a, b)) / np.sqrt(a))
            self.biases.append(np.zeros(b))

    @property
    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Batched forward pass.

        Args:
            x: (batch, in_dim) inputs, one (in_dim,) row as a batch of one, or
                (batch, 1, in_dim) stacked rows, each computed alone.

        Returns:
            (outputs (batch, out_dim), or (batch, 1, out_dim) for stacked rows;
            cache of layer activations for backward, where a single row's
            cache holds vectors).

        A single row goes through as a vector (BLAS gemv), a batch as a
        matrix (gemm), each layer biased and squashed in place. gemv and gemm
        can round a row's sums differently, so a row's output depends on
        whether it is sent in a (batch, in_dim) matrix, but not on whether it
        arrives as (in_dim,), (1, in_dim) or one of stacked (batch, 1, in_dim)
        rows: `@` on stacked rows runs one gemv per row, the single row's call.
        """
        h = np.asarray(x, dtype=np.float64)
        row = h.ndim < 2
        if row:
            h = h.reshape(-1)
        product = np.matmul if h.ndim == 3 else np.dot
        acts = [h]
        hidden = len(self.weights) - 1
        for w, b in zip(self.weights, self.biases):
            h = product(h, w)
            h += b
            if len(acts) <= hidden:
                np.tanh(h, out=h)
            acts.append(h)
        return (h.reshape(1, -1) if row else h), acts

    def backward(self, acts: list[np.ndarray], dout: np.ndarray) -> list[np.ndarray]:
        """Gradients of sum(dout * output) w.r.t. parameters.

        Args:
            acts: cache from forward (vectors for a single row).
            dout: (batch, out_dim) upstream gradient.

        Returns:
            Flat-order gradient list [dW0, db0, dW1, db1, ...].
        """
        grads: list[np.ndarray] = []
        delta = np.asarray(dout, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            grads.append(delta.sum(axis=0))          # db
            grads.append(acts[i].reshape(len(delta), -1).T @ delta)  # dW
            if i > 0:
                # tanh' = 1 - tanh^2, and acts[i] already holds tanh values.
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        grads.reverse()
        return grads

    def get_flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.num_params:
            raise SchemaError(f"expected {self.num_params} parameters, got {flat.size}")
        pos = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[pos:pos + w.size].reshape(w.shape).copy()
            pos += w.size
            self.biases[i] = flat[pos:pos + b.size].copy()
            pos += b.size

    @staticmethod
    def flatten_grads(grads: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([g.ravel() for g in grads])


class Adam:
    """Standard Adam on a flat parameter vector."""

    def __init__(self, size: int, lr: float = 3e-4, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad ** 2
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
