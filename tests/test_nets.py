"""Networks and optimizer: forward algebra, backprop vs finite differences, Adam."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import SchemaError
from auctionlab.nets import MLP, Adam
from reference import reference_forward


def test_empty_hidden_is_pure_linear():
    net = MLP(3, (), 2, rng=np.random.default_rng(1))
    x = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    out, _ = net.forward(x)
    np.testing.assert_allclose(out, x @ net.weights[0] + net.biases[0], rtol=0, atol=0)
    assert out[1] == pytest.approx(net.biases[0], abs=0)


def test_zero_weights_give_zero_output():
    net = MLP(4, (5,), 1, rng=np.random.default_rng(2))
    net.set_flat(np.zeros(net.num_params))
    out, _ = net.forward(np.ones((3, 4)))
    assert np.all(out == 0.0)


def test_single_weight_linear_value():
    net = MLP(1, (), 1, rng=np.random.default_rng(3))
    net.set_flat(np.array([2.5, 0.0]))  # w, b
    out, _ = net.forward(np.array([[1.5]]))
    assert out[0, 0] == 2.5 * 1.5


def test_flat_roundtrip_and_size_check():
    net = MLP(3, (4, 2), 2, rng=np.random.default_rng(4))
    flat = net.get_flat()
    assert flat.size == net.num_params == 3 * 4 + 4 + 4 * 2 + 2 + 2 * 2 + 2
    other = MLP(3, (4, 2), 2, rng=np.random.default_rng(5))
    other.set_flat(flat)
    np.testing.assert_array_equal(other.get_flat(), flat)
    out_a, _ = net.forward(np.ones((1, 3)))
    out_b, _ = other.forward(np.ones((1, 3)))
    np.testing.assert_array_equal(out_a, out_b)
    with pytest.raises(SchemaError):
        net.set_flat(np.zeros(5))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    net = MLP(4, (6, 3), 2, rng=rng)
    x = rng.standard_normal((7, 4))
    dout = rng.standard_normal((7, 2))

    def loss(flat):
        net.set_flat(flat)
        out, _ = net.forward(x)
        return float((out * dout).sum())

    base = net.get_flat()
    _, acts = net.forward(x)
    analytic = MLP.flatten_grads(net.backward(acts, dout))
    h = 1e-6
    for i in range(base.size):
        probe = base.copy()
        probe[i] += h
        up = loss(probe)
        probe[i] -= 2 * h
        down = loss(probe)
        fd = (up - down) / (2 * h)
        assert analytic[i] == pytest.approx(fd, abs=1e-4 * max(1.0, abs(fd)))
    net.set_flat(base)


def test_backward_sums_over_batch():
    net = MLP(2, (3,), 1, rng=np.random.default_rng(7))
    x = np.array([[1.0, 2.0], [0.5, -1.0]])
    dout = np.ones((2, 1))
    _, acts = net.forward(x)
    full = MLP.flatten_grads(net.backward(acts, dout))
    parts = np.zeros_like(full)
    for i in range(2):
        _, acts_i = net.forward(x[i : i + 1])
        parts += MLP.flatten_grads(net.backward(acts_i, dout[i : i + 1]))
    np.testing.assert_allclose(full, parts, rtol=0, atol=1e-12)


def test_forward_matches_reference_bits():
    rng = np.random.default_rng(2)
    net = MLP(9, (64, 64), 2, rng=rng)
    net.set_flat(net.get_flat() + rng.standard_normal(net.num_params) * 0.1)
    for _ in range(100):
        row = rng.standard_normal(9) * rng.choice([0.1, 1.0, 10.0])
        want = reference_forward(net, row[None, :])
        for x in (row, row[None, :]):
            out, acts = net.forward(x)
            assert out.shape == (1, 2) and out.tobytes() == want.tobytes()
            assert acts[-1].tobytes() == want.tobytes()
    for batch in (2, 7, 128, 300):
        x = rng.standard_normal((batch, 9))
        assert net.forward(x)[0].tobytes() == reference_forward(net, x).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([(), (4,), (64, 64)]), st.sampled_from([1, 2]), st.sampled_from([1, 2, 7, 300]),
       st.integers(0, 2**32 - 1))
def test_stacked_rows_match_single_rows_bits(hidden, out_dim, batch, seed):
    rng = np.random.default_rng(seed)
    net = MLP(9, hidden, out_dim, rng=rng)
    net.set_flat(net.get_flat() + rng.standard_normal(net.num_params) * 0.1)
    # Each row at its own scale, from 1e-3 to 1e3.
    x = rng.standard_normal((batch, 9)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(batch, 1))
    out, _ = net.forward(x[:, None, :])
    assert out.shape == (batch, 1, out_dim)
    for row, got in zip(x, out):
        assert got.tobytes() == net.forward(row)[0].tobytes() == reference_forward(net, row[None, :]).tobytes()


def test_single_row_cache_backpropagates_like_a_batch_of_one():
    rng = np.random.default_rng(3)
    net = MLP(4, (5,), 2, rng=rng)
    x = rng.standard_normal(4)
    dout = rng.standard_normal((1, 2))
    by_row = MLP.flatten_grads(net.backward(net.forward(x)[1], dout))
    by_batch = MLP.flatten_grads(net.backward(net.forward(x[None, :])[1], dout))
    assert by_row.tobytes() == by_batch.tobytes()


def test_adam_first_step_magnitude():
    opt = Adam(size=3, lr=0.01)
    params = np.zeros(3)
    grad = np.array([1.0, -2.0, 0.5])
    new = opt.step(params, grad)
    # Bias correction makes the first step lr * sign(grad) up to eps rounding.
    np.testing.assert_allclose(new, -0.01 * np.sign(grad), rtol=1e-6)
    assert opt.t == 1


def test_adam_descends_quadratic():
    opt = Adam(size=1, lr=0.1)
    x = np.array([5.0])
    for _ in range(200):
        x = opt.step(x, 2 * x)
    assert abs(x[0]) < 1.0


def test_init_scales_with_fan_in():
    rng = np.random.default_rng(8)
    net = MLP(100, (50,), 1, rng=rng)
    assert net.weights[0].std() == pytest.approx(1 / np.sqrt(100), rel=0.2)
    assert np.all(net.biases[0] == 0.0)
