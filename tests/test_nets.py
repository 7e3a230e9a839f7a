"""Networks and optimizer: forward algebra, backprop vs finite differences, Adam."""

import copy
import pickle

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
    analytic = net.backward(acts, dout)
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
    full = net.backward(acts, dout)
    parts = np.zeros_like(full)
    for i in range(2):
        _, acts_i = net.forward(x[i : i + 1])
        parts += net.backward(acts_i, dout[i : i + 1])
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
    by_row = net.backward(net.forward(x)[1], dout)
    by_batch = net.backward(net.forward(x[None, :])[1], dout)
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


def _adam_out_of_place(state, params, grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as a fresh-array formula: the reference for the in-place step."""
    state["t"] += 1
    state["m"] = beta1 * state["m"] + (1.0 - beta1) * grad
    state["v"] = beta2 * state["v"] + (1.0 - beta2) * grad ** 2
    m_hat = state["m"] / (1.0 - beta1 ** state["t"])
    v_hat = state["v"] / (1.0 - beta2 ** state["t"])
    return params - lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_adam_in_place_step_matches_out_of_place_formula_bits():
    rng = np.random.default_rng(11)
    size, lr = 40, 3e-4
    opt = Adam(size, lr=lr)
    want_state = {"t": 0, "m": np.zeros(size), "v": np.zeros(size)}
    params = rng.standard_normal(size)
    want = params.copy()
    for step in range(50):
        grad = rng.standard_normal(size) * 10.0 ** rng.uniform(-6.0, 6.0, size)
        grad[rng.random(size) < 0.2] = 0.0
        grad[rng.random(size) < 0.05] = 1e300
        grad[rng.random(size) < 0.05] = -1e300
        got = opt.step(params, grad)
        want = _adam_out_of_place(want_state, want, grad, lr)
        assert got is params, step
        assert params.tobytes() == want.tobytes(), step
        assert opt.m.tobytes() == want_state["m"].tobytes() and opt.v.tobytes() == want_state["v"].tobytes(), step
    assert opt.t == 50


@pytest.mark.parametrize("hidden", [(), (3,), (64, 64)])
def test_a_float64_row_takes_the_bits_of_every_other_row_form(hidden):
    # A float64 (in_dim,) ndarray goes through forward as given; a list, a
    # float32 row or a (1, in_dim) row take the general path.
    rng = np.random.default_rng(21)
    net = MLP(9, hidden, 2, rng=rng)
    x = rng.standard_normal(9)
    out, acts = net.forward(x)
    assert out.shape == (1, 2) and acts[0] is x
    for other in (x.tolist(), x[None]):
        other_out, other_acts = net.forward(other)
        assert other_out.tobytes() == out.tobytes()
        assert [a.tobytes() for a in other_acts[1:]] == [a.tobytes() for a in acts[1:]]
    x32 = x.astype(np.float32)
    assert net.forward(x32)[0].tobytes() == net.forward(x32.astype(np.float64))[0].tobytes()
    assert out.tobytes() == reference_forward(net, x).tobytes()


def _with_standalone_params(net):
    """A copy of net whose layers are separate arrays, not views of one buffer."""
    twin = copy.deepcopy(net)
    twin.weights = [w.copy() for w in net.weights]
    twin.biases = [b.copy() for b in net.biases]
    return twin


@pytest.mark.parametrize("hidden", [(3,), (5, 7), (64, 64)])
def test_view_parameters_give_the_bits_of_standalone_arrays(hidden):
    # Layers after the first sit at 8-byte offsets inside the flat buffer;
    # BLAS may pick a different kernel for unaligned data, which this rules out.
    rng = np.random.default_rng(12)
    net = MLP(9, hidden, 2, rng=rng)
    net.set_flat(net.get_flat() + rng.standard_normal(net.num_params) * 0.1)
    twin = _with_standalone_params(net)
    assert all(np.shares_memory(w, net.flat) for w in net.weights + net.biases)
    assert not any(np.shares_memory(w, net.flat) for w in twin.weights + twin.biases)
    for x in (rng.standard_normal(9), rng.standard_normal((1, 9)), rng.standard_normal((128, 9)),
              rng.standard_normal((300, 1, 9))):
        out, acts = net.forward(x)
        want_out, want_acts = twin.forward(x)
        assert out.tobytes() == want_out.tobytes()
        dout = rng.standard_normal((len(x) if x.ndim > 1 else 1, 2))
        if x.ndim == 3:
            continue  # stacked rows are a forward-only form
        grads = net.backward(acts, dout)
        assert grads.tobytes() == twin.backward(want_acts, dout).tobytes()


def test_weights_are_views_of_the_flat_buffer():
    rng = np.random.default_rng(13)
    net = MLP(4, (5, 3), 2, rng=rng)
    x = rng.standard_normal(4)
    new = rng.standard_normal(net.num_params)
    want = new.copy()
    net.set_flat(new)
    assert all(np.shares_memory(p, net.flat) for p in net.weights + net.biases)
    before = net.forward(x)[0].copy()
    new[:] = 0.0  # set_flat copied in
    net.get_flat()[:] = 0.0  # get_flat copied out
    assert net.get_flat().tobytes() == want.tobytes()
    assert net.forward(x)[0].tobytes() == before.tobytes()
    net.flat[:] = 0.0  # an in-place write is seen by the next forward
    assert not net.forward(x)[0].any()


def test_copies_rebuild_their_views():
    rng = np.random.default_rng(14)
    net = MLP(4, (5,), 2, rng=rng)
    x = rng.standard_normal(4)
    for twin in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        assert not np.shares_memory(twin.flat, net.flat)
        assert all(np.shares_memory(p, twin.flat) for p in twin.weights + twin.biases)
        assert twin.forward(x)[0].tobytes() == net.forward(x)[0].tobytes()
        twin.flat += 1.0
        assert twin.forward(x)[0].tobytes() != net.forward(x)[0].tobytes()


def test_net_without_rng_starts_at_zero():
    net = MLP(9, (4,), 2)
    assert net.flat.shape == (MLP.count_params((9, 4, 2)),) and not np.any(net.flat)


def test_count_params_sizes_the_flat_buffer():
    assert MLP.count_params((9, 64, 64, 2)) + MLP.count_params((9, 64, 64, 1)) == 9795
    for sizes in [(3, 2), (9, 3, 1), (4, 5, 7, 2)]:
        assert MLP(sizes[0], sizes[1:-1], sizes[-1]).num_params == MLP.count_params(sizes)


@pytest.mark.parametrize("hidden", [(), (3,), (64, 64)])
def test_strided_inputs_take_the_bits_of_their_contiguous_copies(hidden):
    # BLAS takes a strided operand through other kernels than a contiguous
    # one; forward copies a strided input first, so strides never move a bit.
    rng = np.random.default_rng(22)
    net = MLP(9, hidden, 2, rng=rng)
    net.set_flat(net.get_flat() + rng.standard_normal(net.num_params) * 0.1)
    wide = rng.standard_normal((4000, 18)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(4000, 1))
    rows = [wide[0, ::2], wide[7, 1::2], wide[::2, 3][:9]]
    batches = [wide[::2, :9], wide[::2, ::2], wide[:300, 5:14], np.asfortranarray(wide[:300, :9])]
    stacks = [wide[:256:2, None, :9], wide[:128, None, ::2], wide[:300, None, 9:]]
    for x in rows + batches + stacks:
        assert not x.flags.c_contiguous
        out, acts = net.forward(x)
        want_out, want_acts = net.forward(x.copy())
        assert out.tobytes() == want_out.tobytes()
        assert [a.tobytes() for a in acts] == [a.tobytes() for a in want_acts]
