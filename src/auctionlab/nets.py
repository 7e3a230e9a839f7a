"""Tiny fully-connected networks with hand-written backprop, plus Adam.

Everything is plain numpy so analytic gradients can be audited against
central finite differences. Hidden layers use tanh; the output layer is
linear. An empty hidden tuple yields a pure linear map, handy for
closed-form checks.

Each network keeps all its parameters in one flat float64 buffer, `flat`,
in the order W0, b0, W1, b1, ...; the per-layer `weights` and `biases` are
views into it. Adam updates that buffer in place, so an optimizer step is
seen by the next forward pass without copying parameters out and back.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError

_F64 = np.dtype(np.float64)


class MLP:
    """Fully-connected tanh network.

    Parameters live in one flat vector, `flat`; `weights` and `biases` are
    per-layer (W, b) views of it. get_flat copies the vector out and
    set_flat copies one in, so neither shares memory with the caller.
    Rebinding `weights` or `biases` to other arrays re-pairs the layers
    that forward reads. Weights are drawn from rng; without one every
    parameter starts at zero, for a caller that sets them itself.
    """

    def __init__(self, in_dim: int, hidden: tuple[int, ...], out_dim: int, rng: np.random.Generator | None = None):
        self.sizes = (int(in_dim), *(int(h) for h in hidden), int(out_dim))
        self.flat = np.zeros(self.count_params(self.sizes))
        self._bind()
        if rng is not None:
            for w in self.weights:
                # Small scaled-Gaussian init keeps tanh units in their linear range.
                w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[0])

    @staticmethod
    def count_params(sizes: tuple[int, ...]) -> int:
        """Length of the flat buffer of a network with these layer widths."""
        return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))

    def _layers(self, buffer: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The per-layer (W, b) views of a flat buffer laid out W0, b0, W1, b1, ..."""
        layers, pos = [], 0
        for a, b in zip(self.sizes[:-1], self.sizes[1:]):
            layers.append((buffer[pos:pos + a * b].reshape(a, b), buffer[pos + a * b:pos + a * b + b]))
            pos += a * b + b
        return layers

    def _bind(self) -> None:
        """(Re)build the per-layer views of `flat`."""
        self._weights, self._biases = (list(views) for views in zip(*self._layers(self.flat)))
        self._pair()

    def _pair(self) -> None:
        """Precompute forward's (W, b) pairs: the tanh layers, then the linear output layer."""
        *self._hidden, self._out = zip(self._weights, self._biases)

    @property
    def weights(self) -> list[np.ndarray]:
        return self._weights

    @weights.setter
    def weights(self, weights: list[np.ndarray]) -> None:
        self._weights = weights
        self._pair()

    @property
    def biases(self) -> list[np.ndarray]:
        return self._biases

    @biases.setter
    def biases(self, biases: list[np.ndarray]) -> None:
        self._biases = biases
        self._pair()

    def __getstate__(self) -> dict:
        # A copied view would no longer share memory with the copied buffer,
        # so deepcopy and pickle carry only the buffer and rebuild the views.
        return {"sizes": self.sizes, "flat": self.flat}

    def __setstate__(self, state: dict) -> None:
        self.sizes, self.flat = state["sizes"], state["flat"]
        self._bind()

    @property
    def num_params(self) -> int:
        return self.flat.size

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
        Nor on its strides: a strided input, which BLAS would take through
        other kernels, is copied contiguous first. A contiguous float64
        (in_dim,) ndarray row, the policy's per-click call, is used as given.
        """
        if type(x) is np.ndarray and x.dtype is _F64 and x.ndim == 1 and x.flags.c_contiguous:
            h, row, product = x, True, np.ndarray.dot
        else:
            h = np.ascontiguousarray(x, dtype=np.float64)
            row, product = h.ndim == 1, (np.matmul if h.ndim == 3 else np.ndarray.dot)
        acts = [h]
        for w, b in self._hidden:
            h = product(h, w)
            np.add(h, b, h)
            np.tanh(h, h)
            acts.append(h)
        w, b = self._out
        h = product(h, w)
        np.add(h, b, h)
        acts.append(h)
        return (h[None] if row else h), acts

    def backward(self, acts: list[np.ndarray], dout: np.ndarray) -> np.ndarray:
        """Gradients of sum(dout * output) w.r.t. parameters.

        Args:
            acts: cache from forward (vectors for a single row).
            dout: (batch, out_dim) upstream gradient.

        Returns:
            One gradient vector in the layout of `flat`.
        """
        grad = np.empty(self.num_params)
        delta = np.asarray(dout, dtype=np.float64)
        for i, (dW, db) in reversed(list(enumerate(self._layers(grad)))):
            db[...] = delta.sum(axis=0)
            dW[...] = acts[i].reshape(len(delta), -1).T @ delta
            if i > 0:
                # tanh' = 1 - tanh^2, and acts[i] already holds tanh values.
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return grad

    def get_flat(self) -> np.ndarray:
        """A copy of the parameter vector."""
        return self.flat.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        """Copy a parameter vector into the network's buffer."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.num_params:
            raise SchemaError(f"expected {self.num_params} parameters, got {flat.size}")
        self.flat[...] = flat.reshape(-1)


class Adam:
    """Standard Adam on a flat parameter vector, updated in place, with the
    textbook moment decays beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int, lr: float = 3e-4):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Apply one update to params (a writeable float64 vector) in place
        and return it."""
        self.t += 1
        m, v = self.m, self.v
        # The formula's operations in its order, written into m, v and params:
        # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g**2, and
        # params - lr * m_hat / (sqrt(v_hat) + eps).
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad ** 2
        step = m / (1.0 - self.beta1 ** self.t)
        step *= self.lr
        denom = np.sqrt(v / (1.0 - self.beta2 ** self.t))
        denom += self.eps
        step /= denom
        params -= step
        return params
