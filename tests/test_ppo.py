"""Payment policy: rewards, estimators, losses, hand backprop, training loop."""

import math
import os
import pathlib
import sys
import tempfile
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from auctionlab import (
    ConfigError,
    MarketConfig,
    MechanismConfig,
    MissingInputError,
    NumericalFault,
    RLConfig,
    SchemaError,
    TruthfulAgent,
    generate_market,
    load_checkpoint,
    load_config,
    run_auction,
    save_checkpoint,
    train,
    write_curves_csv,
)
from auctionlab import ppo
from auctionlab.nets import MLP, Adam
from auctionlab.ppo import (
    DFPTrainingEnv,
    GaussianPolicy,
    RLPaymentController,
    Trajectory,
    accuracy_reward,
    combined_loss,
    compute_reward,
    critic_loss,
    discounted_returns,
    gae,
    gaussian_log_prob,
    loss_and_grads,
    policy_entropy,
    ppo_clip_loss,
    smoothness_reward,
    softplus,
    td_errors,
    trajectory_targets,
    value_estimate,
)
from auctionlab.ppo import CURVES_CSV_HEADER, FEATURE_DIM, TrainingBatch, build_state_features, resolve_xi
from reference import (
    ReferenceRLController,
    online_dfp_reference,
    reference_accuracy_reward,
    reference_act,
    reference_discounted_returns,
    reference_value_estimate,
)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _zero_policy(hidden=()):
    net = MLP(FEATURE_DIM, hidden, 2, rng=np.random.default_rng(0))
    net.set_flat(np.zeros(net.num_params))
    return GaussianPolicy(net, sigma_floor=1e-3)


def _zero_critic(hidden=()):
    net = MLP(FEATURE_DIM, hidden, 1, rng=np.random.default_rng(0))
    net.set_flat(np.zeros(net.num_params))
    return net


def test_accuracy_reward_values():
    assert accuracy_reward(np.array([2.0]), np.array([1.0])) == 0.0
    assert accuracy_reward(np.array([1.1]), np.array([1.0])) == pytest.approx(2.302585092994046, abs=1e-12)
    # A perfect stage hits the floor instead of diverging.
    assert accuracy_reward(np.array([1.0]), np.array([1.0])) == pytest.approx(-np.log(1e-12), abs=1e-9)
    # Error sums across bidders before the log.
    two = accuracy_reward(np.array([1.5, 0.5]), np.array([1.0, 1.0]))
    assert two == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SchemaError):
        accuracy_reward(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(SchemaError):
        accuracy_reward(np.array([1.0]), np.array([0.0]))


def test_accuracy_reward_matches_reference_bits():
    rng = np.random.default_rng(0)
    for n in list(range(12)) + [50, 200]:
        for _ in range(20):
            paid = rng.random(n) * rng.choice([1e-3, 1.0, 1e3])
            targets = rng.random(n) * 2.0 + 1e-9
            want = reference_accuracy_reward(paid, targets)
            assert np.float64(accuracy_reward(paid, targets)).tobytes() == np.float64(want).tobytes()
            assert np.float64(accuracy_reward(paid.tolist(), targets.tolist())).tobytes() == np.float64(want).tobytes()
    # Non-finite targets and payments are refused, not turned into a NaN reward.
    for paid, targets in [
        ([1.0, 1.0], [np.nan, 1.0]),
        ([1.0, 1.0], [np.nan, -1.0]),
        ([1.0, 1.0], [1.0, np.inf]),
        ([np.nan, 1.0], [1.0, 1.0]),
        ([1.0, -np.inf], [1.0, 1.0]),
    ]:
        with pytest.raises(SchemaError):
            accuracy_reward(paid, targets)


def test_smoothness_reward_values():
    assert smoothness_reward(1.2, 1.0) == pytest.approx(-0.2, abs=1e-15)
    assert smoothness_reward(0.5, 1.0) == pytest.approx(-0.5, abs=1e-15)
    assert smoothness_reward(1.0, None) == 0.0
    assert smoothness_reward(1.0, 0.0) == 0.0


def test_compute_reward_mix():
    assert compute_reward(0.0, -0.2, 0.1) == pytest.approx(-0.02, abs=1e-15)
    assert compute_reward(1.5, -0.5, 0.0) == 1.5


def test_softplus_positive_and_stable():
    assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)
    assert softplus(50.0) == pytest.approx(50.0, abs=1e-12)
    assert softplus(-50.0) > 0.0
    assert np.isfinite(softplus(-1000.0))


def test_gaussian_log_prob_at_mean():
    assert gaussian_log_prob(0.0, 0.0, 1.0) == pytest.approx(-np.log(np.sqrt(2 * np.pi)), abs=1e-15)
    assert gaussian_log_prob(3.0, 3.0, 2.0) == pytest.approx(
        -np.log(2.0 * np.sqrt(2 * np.pi)), abs=1e-15
    )
    # One stddev out costs exactly 1/2.
    away = gaussian_log_prob(1.0, 0.0, 1.0)
    assert gaussian_log_prob(0.0, 0.0, 1.0) - away == pytest.approx(0.5, abs=1e-15)


def test_td_errors_values():
    np.testing.assert_allclose(td_errors(np.array([1.0]), np.array([0.0]), 1.0), [1.0])
    np.testing.assert_allclose(td_errors(np.array([1.0]), np.array([2.0]), 0.5), [-1.0])
    np.testing.assert_allclose(td_errors(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1.0), [0.0, 0.0])
    with pytest.raises(SchemaError):
        td_errors(np.array([1.0, 2.0]), np.array([1.0]), 1.0)


def test_gae_values():
    np.testing.assert_allclose(gae(np.array([1.0]), 0.7, 0.3), [1.0])
    np.testing.assert_allclose(gae(np.array([1.0, 1.0]), 1.0, 1.0), [2.0, 1.0])
    np.testing.assert_allclose(gae(np.array([1.0, 1.0]), 0.5, 0.5), [1.25, 1.0])


def test_discounted_returns_values():
    np.testing.assert_allclose(discounted_returns(np.array([1.0, 1.0, 1.0]), 1.0), [3.0, 2.0, 1.0])
    np.testing.assert_allclose(discounted_returns(np.array([1.0, 1.0, 1.0]), 0.0), [1.0, 1.0, 1.0])
    np.testing.assert_allclose(discounted_returns(np.array([1.0, 2.0]), 0.5), [2.0, 2.0])


# Signed zeros, subnormals and magnitudes up to 1e300, few enough per episode
# that no return overflows.
_REWARDS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
        st.floats(-1e300, 1e300),
    ),
    min_size=1,
    max_size=40,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_REWARDS, st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0)), st.data())
def test_discounted_returns_keep_the_bits_of_their_own_scan(rewards, gamma, data):
    rewards = np.array(rewards)
    want = reference_discounted_returns(rewards, gamma)
    assert discounted_returns(rewards, gamma).tobytes() == want.tobytes()
    # The critic targets take the same returns per episode.
    cuts = sorted(data.draw(st.sets(st.integers(1, rewards.size - 1), max_size=4)) if rewards.size > 1 else ())
    lengths = np.diff([0, *cuts, rewards.size]).tolist()
    traj = Trajectory(
        features=np.zeros((rewards.size, FEATURE_DIM)),
        actions_raw=np.zeros(rewards.size),
        log_probs=np.zeros(rewards.size),
        rewards=rewards,
        values=np.zeros(rewards.size),
        episode_lengths=lengths,
    )
    _, returns = trajectory_targets(traj, gamma, 0.95)
    pieces = np.split(rewards, np.cumsum(lengths)[:-1])
    assert returns.tobytes() == np.concatenate([reference_discounted_returns(p, gamma) for p in pieces]).tobytes()


def test_gae_equals_returns_minus_values_when_undiscounted():
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.array([2.0, 1.0, 1.0])
    deltas = td_errors(rewards, values, 1.0)
    adv = gae(deltas, 1.0, 1.0)
    np.testing.assert_array_equal(adv, discounted_returns(rewards, 1.0) - values)
    rng = np.random.default_rng(12)
    rewards = rng.standard_normal(40)
    values = rng.standard_normal(40)
    adv = gae(td_errors(rewards, values, 1.0), 1.0, 1.0)
    np.testing.assert_allclose(adv, discounted_returns(rewards, 1.0) - values, rtol=0, atol=1e-10)


def test_ppo_clip_loss_values():
    assert ppo_clip_loss(np.array([1.0]), np.array([1.0]), 0.2) == -1.0
    assert ppo_clip_loss(np.array([1.5]), np.array([1.0]), 0.2) == pytest.approx(-1.2, abs=1e-15)
    assert ppo_clip_loss(np.array([0.5]), np.array([-1.0]), 0.2) == pytest.approx(0.8, abs=1e-15)
    # Behavior policy == current policy: the loss is just -mean(A).
    rng = np.random.default_rng(3)
    adv = rng.standard_normal(17)
    assert ppo_clip_loss(np.ones(17), adv, 0.2) == pytest.approx(-adv.mean(), abs=1e-15)


def test_critic_loss_values():
    assert critic_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert critic_loss(np.array([0.0]), np.array([2.0])) == 4.0
    assert critic_loss(np.array([1.0, 3.0]), np.array([2.0, 2.0])) == 1.0


def test_policy_entropy_values():
    assert policy_entropy(np.array([0.0])) == pytest.approx(1.4189385332046727, abs=1e-12)
    base = policy_entropy(np.array([0.0]))
    assert policy_entropy(np.array([np.log(2.0)])) == pytest.approx(base + np.log(2.0), abs=1e-12)


def test_combined_loss_values():
    assert combined_loss(1.0, 2.0, 5.0, (1.0, 1.0, 0.0)) == 3.0
    assert combined_loss(0.0, 0.0, 2.0, (0.0, 0.0, 1.0)) == -2.0
    assert combined_loss(1.0, 2.0, 1.0, (1.0, 0.5, 0.01)) == pytest.approx(1.99, abs=1e-15)


def test_trajectory_targets_respect_episodes():
    traj = Trajectory(
        features=np.zeros((3, FEATURE_DIM)),
        actions_raw=np.zeros(3),
        log_probs=np.zeros(3),
        rewards=np.array([1.0, 1.0, 5.0]),
        values=np.zeros(3),
        episode_lengths=[2, 1],
    )
    adv, ret = trajectory_targets(traj, 1.0, 1.0)
    np.testing.assert_allclose(adv, [2.0, 1.0, 5.0])
    np.testing.assert_allclose(ret, [2.0, 1.0, 5.0])
    traj.episode_lengths = [2]
    with pytest.raises(SchemaError):
        trajectory_targets(traj, 1.0, 1.0)


def test_policy_head_requires_two_outputs():
    with pytest.raises(ConfigError):
        GaussianPolicy(MLP(FEATURE_DIM, (), 1, rng=np.random.default_rng(0)))


def test_act_deterministic_and_sampled():
    policy = _zero_policy()
    feats = np.zeros(FEATURE_DIM)
    action, g, logp = policy.act(feats)
    assert g == 0.0
    assert action == pytest.approx(np.log(2.0), abs=1e-15)
    assert logp == pytest.approx(-np.log(np.sqrt(2 * np.pi)), abs=1e-12)
    a1 = policy.act(feats, rng=np.random.Generator(np.random.Philox(key=[0, 12])))
    a2 = policy.act(feats, rng=np.random.Generator(np.random.Philox(key=[0, 12])))
    assert a1 == a2
    assert a1[0] > 0.0


def test_act_faults_on_nonfinite_weights():
    policy = _zero_policy()
    policy.net.set_flat(np.full(policy.net.num_params, np.nan))
    with pytest.raises(NumericalFault):
        policy.act(np.zeros(FEATURE_DIM))


def _head_policy(mu, log_sigma_raw):
    """A policy whose head is (mu, log_sigma_raw) for every input."""
    policy = _zero_policy()
    flat = np.zeros(policy.net.num_params)
    flat[-2:] = mu, log_sigma_raw  # the output layer's biases
    policy.net.set_flat(flat)
    return policy


class _FixedDraw:
    def standard_normal(self):
        return 3.0


def test_act_faults_on_a_stddev_or_action_that_overflows():
    # exp(710) overflows a double; under np.errstate NumPy returns inf quietly.
    with np.errstate(over="ignore"), pytest.raises(NumericalFault, match="stddev overflowed"):
        _head_policy(0.0, 710.0).act(np.zeros(FEATURE_DIM))
    # exp(709) is finite, but 3 stddevs above the mean overflow the raw action.
    policy = _head_policy(0.0, 709.0)
    assert policy.act(np.zeros(FEATURE_DIM))[1] == 0.0
    with pytest.raises(NumericalFault, match="action is not finite"):
        policy.act(np.zeros(FEATURE_DIM), _FixedDraw())


def test_value_estimate_linear_and_fault():
    critic = _zero_critic()
    assert value_estimate(critic, np.ones((1, FEATURE_DIM)))[0] == 0.0
    flat = np.zeros(critic.num_params)
    flat[0] = 2.5  # weight on feature 0
    critic.set_flat(flat)
    feats = np.zeros((1, FEATURE_DIM))
    feats[0, 0] = 1.5
    assert value_estimate(critic, feats)[0] == 2.5 * 1.5
    critic.set_flat(np.full(critic.num_params, np.inf))
    with pytest.raises(NumericalFault):
        value_estimate(critic, np.ones((1, FEATURE_DIM)))


def test_act_and_value_match_reference_bits():
    rng = np.random.default_rng(4)
    policy = GaussianPolicy(MLP(FEATURE_DIM, (64, 64), 2, rng=rng), 1e-3)
    critic = MLP(FEATURE_DIM, (64, 64), 1, rng=rng)
    for _ in range(200):
        feats = rng.standard_normal(FEATURE_DIM) * rng.choice([0.1, 1.0, 10.0])
        got = policy.act(feats, rng=np.random.Generator(np.random.Philox(key=[3, 12])))
        want = reference_act(policy, feats, rng=np.random.Generator(np.random.Philox(key=[3, 12])))
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert policy.act(feats) == reference_act(policy, feats)
        assert np.float64(value_estimate(critic, feats[None])[0]).tobytes() == np.float64(
            reference_value_estimate(critic, feats)).tobytes()


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


# Values of g for the float paths: the special values, subnormals and +-0,
# the ranges of normal draws at sigma 3 and 40, +-800, and any float.
_SPECIAL_GS = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               700.0, -745.0, 36.0, -36.0, 37.0, -37.0, 709.8, 710.0, 1e308, -1e308, math.inf, -math.inf]
_GS = st.one_of(
    st.sampled_from(_SPECIAL_GS),
    st.floats(-12.0, 12.0),
    st.floats(-160.0, 160.0),
    st.floats(-800.0, 800.0),
    st.floats(allow_nan=False),
)


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(_GS)
def test_float_softplus_has_the_bits_of_numpy_logaddexp(g):
    got = softplus(g)
    assert type(got) is float
    assert _bits(got) == np.logaddexp(0.0, g).tobytes()
    assert _bits(got) == np.logaddexp(0.0, np.array([g]))[0].tobytes()


def test_float_softplus_keeps_the_special_values_bits():
    for g in _SPECIAL_GS:
        assert _bits(softplus(g)) == np.logaddexp(0.0, g).tobytes(), g
    assert math.isnan(softplus(math.nan))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(_GS.filter(math.isfinite), st.floats(-1e3, 1e3), st.floats(5e-324, 1e300))
def test_float_log_prob_has_the_bits_of_the_numpy_scalar_form(g, mu, sigma):
    got = gaussian_log_prob(g, mu, sigma)
    assert type(got) is float
    with np.errstate(over="ignore", invalid="ignore"):
        # The rule on NumPy scalars throughout, and on one-element arrays.
        z = (np.float64(g) - np.float64(mu)) / np.float64(sigma)
        scalar = -0.5 * z * z - np.log(np.float64(sigma)) - ppo._HALF_LOG_2PI
        array = gaussian_log_prob(np.array([g]), np.array([mu]), np.array([sigma]))[0]
    assert _bits(got) == scalar.tobytes()
    assert _bits(got) == array.tobytes()


def test_float_log_prob_keeps_numpy_log_where_math_log_rounds_differently():
    # math.log and np.log's SIMD loop part on about 0.1% of sigmas in this
    # range on an AVX-512 machine; the float path must keep np.log's bits.
    for sigma in np.random.default_rng(0).uniform(1e-3, 10.0, 20000).tolist():
        want = gaussian_log_prob(np.array([0.3]), np.array([0.1]), np.array([sigma]))[0]
        assert _bits(gaussian_log_prob(0.3, 0.1, sigma)) == want.tobytes(), sigma


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from([(), (4,), (64, 64)]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 1.0, 3.0]),
    st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
    st.sampled_from([1e-3, 0.5, 5.0]),
    st.booleans(),
)
def test_act_matches_reference_act_on_generated_nets(hidden, seed, weight_scale, feature_scale, floor, sampled):
    rng = np.random.default_rng(seed)
    net = MLP(FEATURE_DIM, hidden, 2, rng=rng)
    net.set_flat(net.get_flat() * weight_scale + rng.standard_normal(net.num_params) * 0.1)
    policy = GaussianPolicy(net, floor)
    for _ in range(5):
        feats = rng.standard_normal(FEATURE_DIM) * feature_scale
        act_rng = np.random.Generator(np.random.Philox(key=[seed, 12])) if sampled else None
        ref_rng = np.random.Generator(np.random.Philox(key=[seed, 12])) if sampled else None
        got = policy.act(feats, act_rng)
        want = reference_act(policy, feats, ref_rng)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([(), (4,), (64, 64)]), st.sampled_from([1, 2, 7, 300]), st.integers(0, 2**32 - 1))
def test_batched_values_match_per_row_bits(hidden, steps, seed):
    rng = np.random.default_rng(seed)
    critic = MLP(FEATURE_DIM, hidden, 1, rng=rng)
    # Each step at its own scale, from 1e-3 to 1e3.
    feats = rng.standard_normal((steps, FEATURE_DIM)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(steps, 1))
    values = value_estimate(critic, feats)
    assert values.shape == (steps,)
    for row, got in zip(feats, values.tolist()):
        assert np.float64(got).tobytes() == np.float64(value_estimate(critic, row[None])[0]).tobytes()
        assert np.float64(got).tobytes() == np.float64(reference_value_estimate(critic, row)).tobytes()


def test_batched_value_fault_names_the_step():
    critic = MLP(FEATURE_DIM, (), 1, rng=np.random.default_rng(0))
    critic.set_flat(np.ones(critic.num_params))
    feats = np.ones((7, FEATURE_DIM))
    assert np.all(value_estimate(critic, feats) == FEATURE_DIM + 1.0)
    feats[4] = 1e308  # only this step's sum overflows
    with np.errstate(over="ignore"), pytest.raises(NumericalFault, match="step 4"):
        value_estimate(critic, feats)


def test_critic_runs_once_per_rollout(monkeypatch):
    env = DFPTrainingEnv(_toy_market(), _toy_rl())
    rng = np.random.default_rng(0)
    policy = GaussianPolicy(MLP(FEATURE_DIM, (4,), 2, rng=rng), 1e-3)
    critic = MLP(FEATURE_DIM, (4,), 1, rng=rng)
    shapes = []
    forward = critic.forward

    def recording_forward(x):
        shapes.append(np.shape(x))
        return forward(x)

    monkeypatch.setattr(critic, "forward", recording_forward)
    traj, _, _ = env.rollout(policy, critic, 123, np.random.default_rng(1))
    assert traj.num_steps > 1
    assert shapes == [(traj.num_steps, 1, FEATURE_DIM)]


def test_resolve_xi():
    np.testing.assert_allclose(resolve_xi(None, np.array([2.0, 4.0])), [0.002, 0.004])
    np.testing.assert_allclose(resolve_xi(0.5, np.array([2.0, 4.0])), [0.5, 0.5])


@pytest.mark.parametrize(
    "bad",
    [
        dict(gamma=1.5),
        dict(lam=-0.1),
        dict(clip=0.0),
        dict(clip=1.0),
        dict(zeta=-1.0),
        dict(xi=0.0),
        dict(alphas=(1.0, 0.5)),
        dict(alphas=(1.0, -0.5, 0.0)),
        dict(lr=0.0),
        dict(epochs=0),
        dict(minibatch=0),
        dict(updates=0),
        dict(hidden=(0,)),
        dict(sigma_floor=0.0),
        dict(epochs=sys.maxsize + 1),
        dict(minibatch=sys.maxsize + 1),
        dict(updates=int(1e308)),
        dict(hidden=(int(1e308), int(1e308))),
        dict(hidden=(100000, 100000)),
        # NaN passes every < and <= check, so finiteness is checked on its own.
        dict(zeta=float("nan")),
        dict(lr=float("nan")),
        dict(xi=float("nan")),
        dict(alphas=(1.0, float("nan"), 0.0)),
        dict(sigma_floor=float("inf")),
        dict(hidden=(2.5,)),
        dict(epochs=2.5),
    ],
)
def test_rl_config_validation(bad):
    with pytest.raises(ConfigError):
        RLConfig(**bad)


def test_rl_config_caps_the_policy_and_critic_parameters():
    # One hidden layer of width h gives (12h + 2) + (11h + 1) parameters.
    widest = (ppo.MAX_NET_PARAMS - 3) // 23
    assert MLP.count_params((FEATURE_DIM, widest, 2)) + MLP.count_params((FEATURE_DIM, widest, 1)) \
        <= ppo.MAX_NET_PARAMS
    RLConfig(hidden=(widest,))
    with pytest.raises(ConfigError, match="hidden"):
        RLConfig(hidden=(widest + 1,))
    assert RLConfig(epochs=sys.maxsize, minibatch=sys.maxsize, updates=sys.maxsize).updates == sys.maxsize
    assert RLConfig(hidden=(np.int64(64), 64), epochs=np.int64(4)) == RLConfig()


def _random_batch(seed, policy, B=8, logp_jitter=0.04):
    """A clip-kink-safe batch: behavior log-probs sit within +-jitter of the
    current ones, keeping every ratio strictly inside the clip interval."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((B, FEATURE_DIM))
    mu, lsr, _ = policy.head(feats)
    sigma = np.maximum(np.exp(lsr), policy.sigma_floor)
    actions = mu + sigma * rng.standard_normal(B) * 0.8
    logp = gaussian_log_prob(actions, mu, sigma)
    old = logp + rng.uniform(-logp_jitter, logp_jitter, B)
    adv = rng.standard_normal(B)
    ret = rng.standard_normal(B)
    return TrainingBatch(feats, actions, old, adv, ret)


def _fd_grads(policy, critic, batch, cfg, h=1e-5):
    def total():
        return loss_and_grads(policy, critic, batch, cfg).total

    fd_p = np.zeros(policy.net.num_params)
    base = policy.net.get_flat()
    for i in range(base.size):
        probe = base.copy()
        probe[i] += h
        policy.net.set_flat(probe)
        up = total()
        probe[i] -= 2 * h
        policy.net.set_flat(probe)
        fd_p[i] = (up - total()) / (2 * h)
    policy.net.set_flat(base)

    fd_c = np.zeros(critic.num_params)
    base = critic.get_flat()
    for i in range(base.size):
        probe = base.copy()
        probe[i] += h
        critic.set_flat(probe)
        up = total()
        probe[i] -= 2 * h
        critic.set_flat(probe)
        fd_c[i] = (up - total()) / (2 * h)
    critic.set_flat(base)
    return fd_p, fd_c


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    policy = GaussianPolicy(MLP(FEATURE_DIM, (5,), 2, rng=rng), sigma_floor=1e-6)
    critic = MLP(FEATURE_DIM, (4,), 1, rng=rng)
    cfg = RLConfig(sigma_floor=1e-6)
    batch = _random_batch(seed, policy)
    out = loss_and_grads(policy, critic, batch, cfg)
    fd_p, fd_c = _fd_grads(policy, critic, batch, cfg)
    for an, fd in ((out.policy_grad, fd_p), (out.critic_grad, fd_c)):
        err = np.abs(an - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() < 1e-4


def test_clipped_region_kills_policy_gradient():
    rng = np.random.default_rng(77)
    policy = GaussianPolicy(MLP(FEATURE_DIM, (5,), 2, rng=rng), sigma_floor=1e-6)
    critic = MLP(FEATURE_DIM, (4,), 1, rng=rng)
    cfg = RLConfig(alphas=(1.0, 0.0, 0.0), sigma_floor=1e-6)
    feats = rng.standard_normal((6, FEATURE_DIM))
    mu, lsr, _ = policy.head(feats)
    sigma = np.maximum(np.exp(lsr), policy.sigma_floor)
    actions = mu + 0.3 * sigma
    logp = gaussian_log_prob(actions, mu, sigma)
    # rho = 1.5 with positive advantage: the clipped branch wins, flat in theta.
    batch = TrainingBatch(feats, actions, logp - np.log(1.5), np.ones(6), np.zeros(6))
    out = loss_and_grads(policy, critic, batch, cfg)
    assert np.all(out.policy_grad == 0.0)
    assert out.actor == pytest.approx(-1.2, abs=1e-12)
    # rho = 0.5 with negative advantage: same story on the other side.
    batch = TrainingBatch(feats, actions, logp + np.log(2.0), -np.ones(6), np.zeros(6))
    out = loss_and_grads(policy, critic, batch, cfg)
    assert np.all(out.policy_grad == 0.0)
    assert out.actor == pytest.approx(0.8, abs=1e-12)


def test_sigma_floor_masks_log_stddev_gradient():
    policy = _zero_policy()
    policy.sigma_floor = 1.0
    flat = np.zeros(policy.net.num_params)
    flat[-1] = -20.0  # lsr bias: sigma_exp ~ 2e-9, far below the floor
    policy.net.set_flat(flat)
    critic = _zero_critic()
    cfg = RLConfig(sigma_floor=1.0)
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((6, FEATURE_DIM))
    actions = 0.5 * rng.standard_normal(6)
    logp = gaussian_log_prob(actions, 0.0, 1.0)
    batch = TrainingBatch(feats, actions, logp, rng.standard_normal(6), rng.standard_normal(6))
    out = loss_and_grads(policy, critic, batch, cfg)
    # Pure linear policy: every parameter feeding the lsr head is column 1.
    lsr_coords = [i * 2 + 1 for i in range(FEATURE_DIM)] + [policy.net.num_params - 1]
    assert np.all(out.policy_grad[lsr_coords] == 0.0)
    # The mu column still learns.
    assert np.any(out.policy_grad != 0.0)
    fd_p, _ = _fd_grads(policy, critic, batch, cfg)
    err = np.abs(out.policy_grad - fd_p) / np.maximum(1.0, np.abs(fd_p))
    assert err.max() < 1e-4


def test_first_click_features_and_payment():
    critic = _zero_critic()
    ctrl = RLPaymentController(_zero_policy(), np.array([2.0]))
    ctrl.begin_stage(np.array([10.0]), np.array([1.0]), np.array([2.0]), 0, 10)
    payment = ctrl.on_click(0, 0, 0.1, 9.0)
    assert payment == pytest.approx(np.log(2.0) * 2.0 * 0.1, abs=1e-15)

    xi = 0.002
    pay_scale = 0.1 * 2.0 + xi
    want = np.array(
        [1 / 10, 0.0, 0.1 / 1.0, 0.0, (2.0 * 1.0 * 0.1) / pay_scale, 0.0, 0.0, 0.1, 1.0]
    )
    np.testing.assert_allclose(ctrl.trajectory(critic).features[0], want, rtol=0, atol=1e-12)

    # Reward recorded for the step: accuracy of paid vs estimated target.
    target = 0.1 * 2.0 + xi
    r1 = -np.log(abs(payment / target - 1.0))
    assert ctrl.trajectory(critic).rewards[0] == pytest.approx(r1, abs=1e-12)

    # Feedback release rewrites the stage's last step with the true count.
    ctrl.end_stage(np.array([1.0]))
    bonus = -np.log(abs(payment / (1.0 * 2.0 + xi) - 1.0))
    traj = ctrl.trajectory(critic)
    assert traj.rewards[0] == pytest.approx(r1 + bonus, abs=1e-12)
    assert traj.episode_lengths == [1]


def test_controller_without_clicks_yields_empty_trajectory():
    ctrl = RLPaymentController(_zero_policy(), np.array([2.0]))
    ctrl.begin_stage(np.array([0.0]), np.array([0.0]), np.array([2.0]), 0, 5)
    ctrl.end_stage(np.array([0.0]))
    traj = ctrl.trajectory(_zero_critic())
    assert traj.num_steps == 0
    assert traj.features.shape == (0, FEATURE_DIM)
    assert traj.episode_lengths == []


def _toy_market():
    return MarketConfig(
        num_bidders=1,
        num_slots=1,
        stage_plan=(3, 3),
        ctr_range=(0.9, 0.9),
        cvr_range=(0.1, 0.1),
        value_range=(1.0, 1.0),
        tcpa_range=(2.0, 2.0),
        seed=0,
    )


def _toy_rl(**kw):
    base = dict(updates=2, epochs=2, minibatch=4, hidden=(4,), lr=3e-4)
    base.update(kw)
    return RLConfig(**base)


def test_rollout_shapes_and_mechanism():
    env = DFPTrainingEnv(_toy_market(), _toy_rl())
    rng = np.random.default_rng(0)
    policy = GaussianPolicy(MLP(FEATURE_DIM, (4,), 2, rng=rng), 1e-3)
    critic = MLP(FEATURE_DIM, (4,), 1, rng=rng)
    traj, errors, result = env.rollout(policy, critic, 123, np.random.default_rng(1))
    assert result.mechanism == "DFP:rl"
    assert traj.num_steps == int(result.stage_clicks.sum())
    assert sum(traj.episode_lengths) == traj.num_steps
    assert len(errors) <= result.num_stages
    assert np.all(result.rounds.payment >= 0.0)


def test_rl_controller_matches_reference_on_training_market():
    config = load_config(os.path.join(CONFIGS, "toy_train.yaml"))
    market = generate_market(replace(config.market, stage_plan=(200, 200, 200), seed=7))
    rng_init = np.random.Generator(np.random.Philox(key=[0, 11]))
    policy = GaussianPolicy(MLP(FEATURE_DIM, config.rl.hidden, 2, rng_init), config.rl.sigma_floor)
    critic = MLP(FEATURE_DIM, config.rl.hidden, 1, rng_init)

    def controller(cls):
        rng = np.random.Generator(np.random.Philox(key=[0, 12]))
        return cls(policy, market.tcpa, zeta=config.rl.zeta, xi=config.rl.xi, rng=rng)

    ctrl, ref = controller(RLPaymentController), controller(ReferenceRLController)
    result = run_auction(market, MechanismConfig("DFP", controller="rl"), [TruthfulAgent()], ctrl)
    columns, _ = online_dfp_reference(market, [TruthfulAgent()], ref)
    assert result.rounds.payment.tobytes() == columns["payment"].tobytes()
    traj, want = ctrl.trajectory(critic), ref.trajectory(critic)
    assert traj.num_steps > 200
    for name in ("features", "actions_raw", "log_probs", "rewards", "values"):
        assert getattr(traj, name).tobytes() == getattr(want, name).tobytes(), name
    assert traj.episode_lengths == want.episode_lengths
    assert ctrl.stage_true_errors == ref.stage_true_errors


@st.composite
def _multi_bidder_markets(draw):
    ctr_lo = draw(st.floats(0.3, 1.0))
    cvr_hi = draw(st.floats(0.01, ctr_lo))
    plan = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    return MarketConfig(
        num_bidders=draw(st.integers(2, 5)),
        num_slots=draw(st.integers(1, 3)),
        stage_plan=plan,
        ctr_range=(ctr_lo, draw(st.floats(ctr_lo, 1.0))),
        cvr_range=(draw(st.floats(0.001, cvr_hi)), cvr_hi),
        tcpa_range=(0.5, draw(st.floats(0.5, 10.0))),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_multi_bidder_markets(), st.sampled_from([(4,), (64, 64)]), st.booleans())
def test_rl_controller_matches_reference_on_multi_bidder_markets(config, hidden, deterministic):
    market = generate_market(config)
    net_rng = np.random.default_rng(config.seed)
    policy = GaussianPolicy(MLP(FEATURE_DIM, hidden, 2, net_rng))
    critic = MLP(FEATURE_DIM, hidden, 1, net_rng)

    def controller(cls):
        rng = None if deterministic else np.random.Generator(np.random.Philox(key=[config.seed, 12]))
        return cls(policy, market.tcpa, rng=rng)

    ctrl, ref = controller(RLPaymentController), controller(ReferenceRLController)
    active_counts = []
    on_click = ctrl.on_click

    def counting_on_click(*args):
        payment = on_click(*args)
        active_counts.append(len(ctrl.active))
        return payment

    ctrl.on_click = counting_on_click
    agents = [TruthfulAgent() for _ in range(market.num_bidders)]
    result = run_auction(market, MechanismConfig("DFP", controller="rl"), agents, ctrl)
    columns, _ = online_dfp_reference(market, [TruthfulAgent() for _ in range(market.num_bidders)], ref)
    assert result.rounds.payment.tobytes() == columns["payment"].tobytes()
    traj, want = ctrl.trajectory(critic), ref.trajectory(critic)
    for name in ("features", "actions_raw", "log_probs", "rewards", "values"):
        assert getattr(traj, name).tobytes() == getattr(want, name).tobytes(), name
    assert traj.episode_lengths == want.episode_lengths
    assert np.array(ctrl.stage_true_errors).tobytes() == np.array(ref.stage_true_errors).tobytes()
    # Count only markets where some click priced two or more active bidders.
    assume(max(active_counts, default=0) >= 2)


def test_train_is_deterministic():
    a = train(_toy_market(), _toy_rl(), seed=5)
    b = train(_toy_market(), _toy_rl(), seed=5)
    assert a.policy.net.get_flat().tobytes() == b.policy.net.get_flat().tobytes()
    assert a.critic.get_flat().tobytes() == b.critic.get_flat().tobytes()
    assert a.curves == b.curves
    c = train(_toy_market(), _toy_rl(), seed=6)
    assert c.policy.net.get_flat().tobytes() != a.policy.net.get_flat().tobytes()


@pytest.mark.parametrize("seed", [0, 5, 2 ** 63 - 1])
def test_train_streams_keep_the_list_keyed_draws_below_2_63(seed):
    # train keys its streams as uint64 [seed, purpose]; up to 2**63 - 1 that
    # gives the draws of the list key it replaced, so training bytes hold.
    for purpose in (11, 12, 13, 14):
        want = np.random.Generator(np.random.Philox(key=[seed, purpose])).random(4)
        np.testing.assert_array_equal(ppo._stream(seed, purpose).random(4), want)


def test_train_keeps_the_low_bits_of_a_seed_above_2_63():
    a = train(_toy_market(), _toy_rl(), seed=2 ** 63 + 1)
    b = train(_toy_market(), _toy_rl(), seed=2 ** 63 + 2)
    assert a.policy.net.get_flat().tobytes() != b.policy.net.get_flat().tobytes()


def test_train_on_a_market_that_never_clicks_logs_nan_rows():
    # Every rollout is empty, so no update runs and every curve row is NaN.
    market = replace(_toy_market(), stage_plan=(5, 5), ctr_range=(1e-9, 1e-9), cvr_range=(1e-10, 1e-10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = train(market, _toy_rl(), seed=0)
    assert out.aborted_updates == 0
    assert [row["update"] for row in out.curves] == [0.0, 1.0]
    assert all(np.isnan(value) for row in out.curves for key, value in row.items() if key != "update")


def test_train_with_vanishing_lr_is_a_no_op():
    out = train(_toy_market(), _toy_rl(lr=1e-300), seed=9)
    rng_init = np.random.Generator(np.random.Philox(key=[9, 11]))
    init_policy = MLP(FEATURE_DIM, (4,), 2, rng_init)
    init_critic = MLP(FEATURE_DIM, (4,), 1, rng_init)
    np.testing.assert_allclose(out.policy.net.get_flat(), init_policy.get_flat(), rtol=0, atol=1e-250)
    np.testing.assert_allclose(out.critic.get_flat(), init_critic.get_flat(), rtol=0, atol=1e-250)
    assert out.aborted_updates == 0
    assert len(out.curves) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_guard_rolls_back_update():
    out = train(_toy_market(), _toy_rl(lr=1e15, updates=1, epochs=1, minibatch=2), seed=3)
    assert out.aborted_updates == 1
    rng_init = np.random.Generator(np.random.Philox(key=[3, 11]))
    init_policy = MLP(FEATURE_DIM, (4,), 2, rng_init)
    np.testing.assert_array_equal(out.policy.net.get_flat(), init_policy.get_flat())
    assert len(out.curves) == 1
    assert np.isfinite(out.curves[0]["mean_reward"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_guard_rolls_back_an_update_whose_last_step_overflows():
    # One minibatch: the step that overflows comes after the update's only
    # loss, so only the parameters show it.
    market = load_config(os.path.join(CONFIGS, "toy_train.yaml")).market
    rl = RLConfig(lr=1e308, updates=1, epochs=1, minibatch=100000)
    out = train(market, rl, seed=0)
    assert out.aborted_updates == 1
    rng_init = np.random.Generator(np.random.Philox(key=[0, 11]))
    np.testing.assert_array_equal(out.policy.net.get_flat(), MLP(FEATURE_DIM, rl.hidden, 2, rng_init).get_flat())
    np.testing.assert_array_equal(out.critic.get_flat(), MLP(FEATURE_DIM, rl.hidden, 1, rng_init).get_flat())
    assert len(out.curves) == 1


def test_divergence_guard_restores_optimizer_state(monkeypatch):
    # Update 0 takes two Adam steps per net before its third minibatch loss
    # turns NaN; update 1 must start from the optimisers' state before it.
    real_loss, real_step = ppo.loss_and_grads, Adam.step
    calls, seen = [], []

    def loss(*args):
        out = real_loss(*args)
        calls.append(out)
        if len(calls) == 3:
            out.total = float("nan")
        return out

    def step(self, params, grad):
        seen.append((self.t, not self.m.any() and not self.v.any()))
        return real_step(self, params, grad)

    monkeypatch.setattr(ppo, "loss_and_grads", loss)
    monkeypatch.setattr(Adam, "step", step)
    out = train(_toy_market(), _toy_rl(updates=2, epochs=2, minibatch=2), seed=3)
    assert out.aborted_updates == 1
    assert seen[:4] == [(0, True), (0, True), (1, False), (1, False)]
    assert seen[4:6] == [(0, True), (0, True)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rolled_back_nets_keep_training_their_own_buffers():
    # The divergence guard restores both nets from a snapshot; their layers
    # must again be views of the restored buffer that Adam updates in place.
    out = train(_toy_market(), _toy_rl(lr=1e15, updates=1, epochs=1, minibatch=2), seed=3)
    assert out.aborted_updates == 1
    x = np.linspace(-1.0, 1.0, FEATURE_DIM)
    for net in (out.policy.net, out.critic):
        before = net.forward(x)[0].copy()
        Adam(net.num_params, lr=1e-2).step(net.flat, np.ones(net.num_params))
        after = net.forward(x)[0]
        assert after.tobytes() != before.tobytes()
        fresh = MLP(net.sizes[0], net.sizes[1:-1], net.sizes[-1])
        fresh.set_flat(net.get_flat())
        assert fresh.forward(x)[0].tobytes() == after.tobytes()


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    policy = GaussianPolicy(MLP(FEATURE_DIM, (6, 3), 2, rng=rng), sigma_floor=2e-3)
    critic = MLP(FEATURE_DIM, (5,), 1, rng=rng)
    path = str(tmp_path / "ckpt.txt")
    save_checkpoint(policy, critic, path)
    policy2, critic2 = load_checkpoint(path)
    assert policy2.sigma_floor == policy.sigma_floor
    np.testing.assert_array_equal(policy2.net.get_flat(), policy.net.get_flat())
    np.testing.assert_array_equal(critic2.get_flat(), critic.get_flat())
    x = rng.standard_normal((4, FEATURE_DIM))
    np.testing.assert_array_equal(policy2.net.forward(x)[0], policy.net.forward(x)[0])


def test_checkpoint_error_paths(tmp_path):
    with pytest.raises(MissingInputError):
        load_checkpoint(str(tmp_path / "absent.txt"))

    rng = np.random.default_rng(9)
    policy = GaussianPolicy(MLP(FEATURE_DIM, (3,), 2, rng=rng))
    critic = MLP(FEATURE_DIM, (3,), 1, rng=rng)
    path = str(tmp_path / "ckpt.txt")
    save_checkpoint(policy, critic, path)
    lines = pathlib.Path(path).read_text().splitlines()

    bad = str(tmp_path / "bad.txt")
    with open(bad, "w") as fh:
        fh.write("\n".join(["something else"] + lines[1:]) + "\n")
    with pytest.raises(SchemaError):
        load_checkpoint(bad)

    with open(bad, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")  # drop the end marker
    with pytest.raises(SchemaError):
        load_checkpoint(bad)

    with open(bad, "w") as fh:
        fh.write("\n".join([lines[0]] + lines[2:]) + "\n")  # drop sigma_floor
    with pytest.raises(SchemaError):
        load_checkpoint(bad)

    # Corrupt a vector length.
    idx = next(i for i, l in enumerate(lines) if l.startswith("param policy.b0"))
    tampered = list(lines)
    tampered[idx] = "param policy.b0 999"
    with open(bad, "w") as fh:
        fh.write("\n".join(tampered) + "\n")
    with pytest.raises(SchemaError):
        load_checkpoint(bad)


def _checkpoint_lines(tmp_path, policy_in=FEATURE_DIM, policy_out=2, critic_in=FEATURE_DIM, critic_out=1):
    rng = np.random.default_rng(10)
    policy = SimpleNamespace(net=MLP(policy_in, (3,), policy_out, rng=rng), sigma_floor=1e-3)
    critic = MLP(critic_in, (3,), critic_out, rng=rng)
    path = str(tmp_path / "ckpt.txt")
    save_checkpoint(policy, critic, path)
    return pathlib.Path(path).read_text().splitlines()


def _line_after(lines, prefix, offset, value):
    """Replace the line `offset` lines after the first one starting with prefix."""
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix)) + offset
    return lines[:i] + [value] + lines[i + 1:]


def _first_value(lines, prefix, value):
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix)) + 1
    return _line_after(lines, prefix, 1, " ".join([value] + lines[i].split()[1:]))


def _cut_after(lines, prefix, keep):
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    return lines[: i + keep]


@pytest.mark.parametrize(
    "nets,edit",
    [
        pytest.param({}, lambda lines: _line_after(lines, "sigma_floor", 0, "sigma_floor abc"), id="sigma_floor_text"),
        pytest.param({}, lambda lines: _line_after(lines, "sigma_floor", 0, "sigma_floor nan"), id="sigma_floor_nan"),
        pytest.param({}, lambda lines: _line_after(lines, "sigma_floor", 0, "sigma_floor 0.0"), id="sigma_floor_zero"),
        pytest.param({}, lambda lines: _first_value(lines, "param policy.W0", "abc"), id="weight_text"),
        pytest.param({}, lambda lines: _first_value(lines, "param policy.W0", "nan"), id="weight_nan"),
        pytest.param({}, lambda lines: _first_value(lines, "param critic.b1", "inf"), id="bias_inf"),
        pytest.param({}, lambda lines: _cut_after(lines, "param critic.W0", 3), id="truncated_param_block"),
        pytest.param({}, lambda lines: _line_after(lines, "param policy.b0", 0, "param policy.b0 x"), id="shape_text"),
        pytest.param({}, lambda lines: _line_after(lines, "param policy.b0", 0, "param policy.b0 0"), id="shape_zero"),
        pytest.param({}, lambda lines: _line_after(lines, "param policy.b0", 0, ""), id="blank_param_line"),
        pytest.param(dict(policy_in=5), lambda lines: lines, id="policy_input_width"),
        pytest.param(dict(policy_out=3), lambda lines: lines, id="policy_three_outputs"),
        pytest.param(dict(critic_in=4), lambda lines: lines, id="critic_input_width"),
        pytest.param(dict(critic_out=2), lambda lines: lines, id="critic_two_outputs"),
        pytest.param({}, lambda lines: _line_after(
            _line_after(lines, "param policy.W0", 0, f"param policy.W0 {FEATURE_DIM} {10**12}"),
            "param policy.W1", 0, f"param policy.W1 {10**12} 2"), id="huge_chained_hidden_layer"),
    ],
)
def test_checkpoint_hostile_inputs(tmp_path, nets, edit):
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(edit(_checkpoint_lines(tmp_path, **nets))) + "\n")
    with pytest.raises(SchemaError):
        load_checkpoint(str(bad))


# Finite float64 values, with the edge cases repr has to carry through.
CHECKPOINT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def checkpoint_nets(draw):
    """(policy, critic) with hidden sizes (), (k,) or (a, b), each 1 to 6.

    The weights are picked from a drawn pool of up to eight floats, which
    keeps a draw cheap next to one float drawn per weight.
    """
    pool = np.array(draw(st.lists(CHECKPOINT_FLOATS, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    nets = []
    for outputs in (2, 1):
        net = MLP(FEATURE_DIM, tuple(draw(st.lists(st.integers(1, 6), max_size=2))), outputs)
        net.set_flat(rng.choice(pool, size=net.num_params))
        nets.append(net)
    floor = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return GaussianPolicy(nets[0], floor), nets[1]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(nets=checkpoint_nets())
def test_checkpoint_roundtrip_keeps_every_bit(nets):
    policy, critic = nets
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.txt")
        save_checkpoint(policy, critic, path)
        policy2, critic2 = load_checkpoint(path)
    assert policy2.sigma_floor == policy.sigma_floor
    assert policy2.net.get_flat().tobytes() == policy.net.get_flat().tobytes()
    assert critic2.get_flat().tobytes() == critic.get_flat().tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    nets=checkpoint_nets(),
    edit=st.sampled_from(["delete", "duplicate", "append", "swap"]),
    line=st.integers(0, 10**6),
    token=st.integers(0, 10**6),
    new=st.one_of(st.sampled_from(["nan", "abc", "1e0"]), CHECKPOINT_FLOATS.map(repr)),
)
def test_checkpoint_one_line_edit_is_refused_or_reproduced(nets, edit, line, token, new):
    """After any one-line edit the reader raises SchemaError, or reads nets
    that the writer turns back into exactly the edited text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ckpt.txt"
        save_checkpoint(*nets, str(path))
        lines = path.read_bytes().decode().split("\n")[:-1]
        i = line % len(lines)
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "append":
            lines.append(new)
        else:
            tokens = lines[i].split(" ")
            tokens[token % len(tokens)] = new
            lines[i] = " ".join(tokens)
        edited = "\n".join(lines) + "\n"
        path.write_bytes(edited.encode())
        try:
            policy, critic = load_checkpoint(str(path))
        except SchemaError:
            return
        save_checkpoint(policy, critic, str(path))
        assert path.read_bytes().decode() == edited


def test_write_curves_csv(tmp_path):
    curves = [
        dict(update=0, mean_reward=1.5, mean_abs_ratio_err=0.25, actor_loss=-0.1, critic_loss=2.0, entropy=1.4),
        dict(update=1, mean_reward=1.6, mean_abs_ratio_err=0.2, actor_loss=-0.2, critic_loss=1.5, entropy=1.3),
    ]
    path = str(tmp_path / "curves.csv")
    write_curves_csv(curves, path)
    lines = pathlib.Path(path).read_text().splitlines()
    assert lines[0] == CURVES_CSV_HEADER
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert float(fields[1]) == 1.5
    assert float(fields[5]) == 1.4
