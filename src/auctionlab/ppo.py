"""Learned per-click payment policy for decoupled first-price runs.

A small Gaussian policy maps a nine-feature view of the payer's ledger to a
raw action g; the payment charged on a click is softplus(g) * bid * cvr.
Training is clipped-surrogate policy gradient with GAE, a squared-error
critic, and an entropy bonus. All gradients are written out by hand on top
of the numpy MLP so they can be checked against finite differences.

Episode structure mirrors the delayed-feedback environment: one rollout is
a full multi-stage run, each stage is one episode (the value bootstrap is
cut at stage boundaries), and when the stage's true conversions are
released the accuracy reward is recomputed with them and added to the
stage's final step.

RNG purposes (Philox key = uint64 [seed, purpose], named with market's
other *_STREAM ids): 11 parameter init, 12 action sampling, 13 minibatch
shuffling, 14 the per-update market seed sequence.
"""

from __future__ import annotations

import bisect
import copy
import math
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from .agents import TruthfulAgent
from .csvio import write_table
from .errors import ConfigError, NumericalFault, SchemaError, _open_input
from .market import _ACTION_STREAM, _INIT_STREAM, _MARKET_SEED_STREAM, _SHUFFLE_STREAM, MarketConfig, _check_seed
from .market import _check_fields, _stream, generate_market
from .mechanisms import MechanismConfig, SimulationResult, run_auction
from .nets import MLP, Adam

FEATURE_DIM = 9
CURVES_CSV_HEADER = "update,mean_reward,mean_abs_ratio_err,actor_loss,critic_loss,entropy"
CHECKPOINT_MAGIC = "auctionlab-checkpoint 1"

_HALF_LOG_2PI = float(0.5 * np.log(2.0 * np.pi))
_LOG_2 = float(np.logaddexp(0.0, 0.0))
_ENTROPY_CONST = 0.5 * np.log(2.0 * np.pi * np.e)

# Relative scale of the target regularizer when xi is left unset.
XI_SCALE = 1e-3

# Floor inside the accuracy log so a perfect stage stays finite.
ACCURACY_FLOOR = 1e-12

# Most parameters the policy and critic may hold together; the shipped
# (64, 64) nets hold 9,795. Training keeps about ten float64 copies of them
# (buffers, gradients, Adam moments and the rollback snapshot).
MAX_NET_PARAMS = 1_000_000


@dataclass(frozen=True)
class RLConfig:
    """Hyperparameters for the payment-policy trainer."""

    gamma: float = 0.99
    lam: float = 0.95
    clip: float = 0.2
    zeta: float = 0.1
    xi: float | None = None
    alphas: tuple[float, float, float] = (1.0, 0.5, 0.01)
    lr: float = 3e-4
    epochs: int = 4
    minibatch: int = 128
    updates: int = 60
    hidden: tuple[int, ...] = (64, 64)
    sigma_floor: float = 1e-3
    adv_norm: bool = True

    def __post_init__(self) -> None:
        _check_fields(self)
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must lie in [0, 1], got {self.lam}")
        if not 0.0 < self.clip < 1.0:
            raise ConfigError(f"clip must lie in (0, 1), got {self.clip}")
        if self.zeta < 0.0:
            raise ConfigError(f"zeta must be nonnegative, got {self.zeta}")
        if self.xi is not None and self.xi <= 0.0:
            raise ConfigError(f"xi must be positive when given, got {self.xi}")
        if any(a < 0.0 for a in self.alphas):
            raise ConfigError(f"alphas must be three nonnegative weights, got {self.alphas}")
        if self.lr <= 0.0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for name in ("epochs", "minibatch", "updates"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
            if value > sys.maxsize:
                raise ConfigError(f"{name} must be at most {sys.maxsize}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden sizes must be positive, got {self.hidden}")
        if sum(MLP.count_params((FEATURE_DIM, *self.hidden, out)) for out in (2, 1)) > MAX_NET_PARAMS:
            raise ConfigError(f"hidden sizes give the policy and critic more than the {MAX_NET_PARAMS:,} "
                              "parameters allowed")
        if self.sigma_floor <= 0.0:
            raise ConfigError(f"sigma_floor must be positive, got {self.sigma_floor}")


def resolve_xi(xi: float | None, tcpa: np.ndarray) -> np.ndarray:
    """Per-bidder target regularizer; defaults to a small multiple of tCPA."""
    tcpa = np.asarray(tcpa, dtype=np.float64)
    if xi is None:
        return XI_SCALE * tcpa
    return np.full(tcpa.shape, float(xi))


def build_state_features(
    clicks: float,
    visible_conversions: float,
    pending_conversions: float,
    paid_total: float,
    expected_paid: float,
    paid_stage: float,
    last_nonzero_payment: float,
    stage_progress: float,
    expected_stage_clicks: float,
    expected_stage_conversions: float,
    tcpa: float,
    xi: float,
) -> np.ndarray:
    """Nine-dimensional policy input built from one bidder's ledger.

    Counts are scaled by the stage's expected schedule and payments by the
    estimated conversion value (visible + pending) * tcpa + xi, so feature
    magnitudes stay comparable across configs. The final entry is a
    constant click indicator acting as a bias input.
    """
    click_scale = max(expected_stage_clicks, 1e-6)
    conv_scale = max(expected_stage_conversions, 1e-6)
    z_est = visible_conversions + pending_conversions
    pay_scale = z_est * tcpa + xi
    return np.array(
        [
            clicks / click_scale,
            visible_conversions / conv_scale,
            pending_conversions / conv_scale,
            paid_total / pay_scale,
            expected_paid / pay_scale,
            paid_stage / pay_scale,
            last_nonzero_payment / tcpa,
            stage_progress,
            1.0,
        ]
    )


def accuracy_reward(paid: np.ndarray | list[float], targets: np.ndarray | list[float]) -> float:
    """Negative log of the summed absolute ratio error across active bidders.

    A total error of 1 maps to reward 0; smaller errors are rewarded on a
    log scale, floored at ACCURACY_FLOOR so a perfect stage stays finite.
    The online payer calls this once per click with a handful of bidders in
    Python lists, so each term is formed from the values as given (the same
    IEEE operations NumPy would apply elementwise) in one pass that also
    checks them. Two or more terms are summed by np.add.reduce, the
    reduction behind np.sum; a single term is the total as it stands, which
    is what np.add.reduce returns for one element.

    Raises:
        SchemaError: mismatched lengths, a target that is not positive and
            finite, or a payment that is not finite.
    """
    if len(paid) != len(targets):
        raise SchemaError(f"{len(paid)} payments do not match {len(targets)} targets")
    terms = []
    for p, t in zip(paid, targets):
        if not 0.0 < t < math.inf:
            raise SchemaError("accuracy targets must be positive and finite")
        if not -math.inf < p < math.inf:
            raise SchemaError("accuracy payments must be finite")
        terms.append(abs(p / t - 1.0))
    total = terms[0] if len(terms) == 1 else float(np.add.reduce(np.array(terms, dtype=np.float64)))
    return float(-np.log(max(total, ACCURACY_FLOOR)))


def smoothness_reward(payment: float, last_payment: float | None) -> float:
    """Relative change against the previous nonzero payment; 0 if none yet."""
    if last_payment is None or last_payment <= 0.0:
        return 0.0
    return -abs(payment - last_payment) / last_payment


def compute_reward(accuracy: float, smoothness: float, zeta: float) -> float:
    return accuracy + zeta * smoothness


def softplus(g: float | np.ndarray) -> float | np.ndarray:
    """log(1 + exp(g)) as np.logaddexp(0, g), which keeps large negative g
    from underflowing to log(0).

    A float g takes the libm calls that NumPy's scalar logaddexp(0, g)
    makes, with Python floats: g + log1p(exp(-g)) above 0, log1p(exp(g))
    below it, log 2 at 0. That gives the same bits for a fraction of the
    cost of dispatching the ufunc on one value; arrays keep the ufunc.
    """
    if not isinstance(g, float):
        return np.logaddexp(0.0, g)
    if g > 0.0:
        return g + math.log1p(math.exp(-g))
    if g < 0.0:
        return math.log1p(math.exp(g))
    return _LOG_2 if g == 0.0 else g  # g is nan


def gaussian_log_prob(g: float | np.ndarray, mu: float | np.ndarray, sigma: float | np.ndarray) -> float | np.ndarray:
    z = (g - mu) / sigma
    log_sigma = np.log(sigma)
    if isinstance(sigma, float):
        # The rest is Python float arithmetic, the same IEEE operations
        # without a NumPy scalar's dispatch; np.log keeps NumPy's rounding.
        log_sigma = float(log_sigma)
    return -0.5 * z * z - log_sigma - _HALF_LOG_2PI


class GaussianPolicy:
    """MLP head producing (mean, raw log stddev) for the raw action."""

    def __init__(self, net: MLP, sigma_floor: float = 1e-3):
        if net.sizes[-1] != 2:
            raise ConfigError(f"policy net must have two outputs, got {net.sizes[-1]}")
        self.net = net
        self.sigma_floor = float(sigma_floor)

    def head(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Batched (mu, raw log sigma, forward cache)."""
        out, acts = self.net.forward(features)
        return out[:, 0], out[:, 1], acts

    def act(self, features: np.ndarray, rng: np.random.Generator | None = None) -> tuple[float, float, float]:
        """Sample the raw action for one feature vector from rng, or take its
        mean when rng is None.

        Returns:
            (action, raw_action, log_prob) with action = softplus(raw).

        Raises:
            NumericalFault: if the network emits a non-finite head.
        """
        out, _ = self.net.forward(features)
        [[mu, log_sigma_raw]] = out.tolist()
        if not (math.isfinite(mu) and math.isfinite(log_sigma_raw)):
            raise NumericalFault(f"policy head is not finite: mu={mu}, log_sigma_raw={log_sigma_raw}")
        # Python floats throughout. np.exp and np.log stay in NumPy, whose
        # SIMD loops round differently from math's; gaussian_log_prob and
        # softplus, the loss's rules, give Python floats the bits they give
        # NumPy scalars.
        sigma = float(np.exp(log_sigma_raw))
        if sigma < self.sigma_floor:  # max(sigma, floor) without the builtin call
            sigma = self.sigma_floor
        if not math.isfinite(sigma):
            raise NumericalFault(f"policy stddev overflowed: log_sigma_raw={log_sigma_raw}")
        g = mu if rng is None else mu + sigma * rng.standard_normal()
        logp = gaussian_log_prob(g, mu, sigma)
        action = softplus(g)
        if not (math.isfinite(g) and math.isfinite(action) and math.isfinite(logp)):
            raise NumericalFault(f"action is not finite: g={g}")
        return action, g, logp


def value_estimate(critic: MLP, features: np.ndarray) -> float | np.ndarray:
    """Critic value of one (FEATURE_DIM,) row as a float, or of each row of a
    (steps, FEATURE_DIM) batch as a (steps,) array.

    Rows go through the net stacked as (steps, 1, FEATURE_DIM), each computed
    alone, so a batched value has the same bits as the row's own value.

    Raises:
        NumericalFault: a non-finite value, naming the first bad step.
    """
    features = np.asarray(features, dtype=np.float64)
    out, _ = critic.forward(features.reshape(-1, 1, features.shape[-1]))
    values = out[:, 0, 0]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalFault(f"critic output is not finite at step {bad[0]}: {values[bad[0]]}")
    return float(values[0]) if features.ndim == 1 else values


def td_errors(rewards: np.ndarray, values: np.ndarray, gamma: float) -> np.ndarray:
    """One-step temporal-difference residuals with a zero terminal value."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape or rewards.ndim != 1:
        raise SchemaError(f"rewards {rewards.shape} and values {values.shape} must be equal-length vectors")
    next_values = np.append(values[1:], 0.0)
    return rewards + gamma * next_values - values


def gae(deltas: np.ndarray, gamma: float, lam: float) -> np.ndarray:
    """Reverse-scan exponentially weighted advantage estimates."""
    deltas = np.asarray(deltas, dtype=np.float64)
    out = np.empty_like(deltas)
    acc = 0.0
    for t in range(deltas.size - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        out[t] = acc
    return out


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Reward-to-go sums, the lam = 1 case of ``gae``: gamma * 1.0 is
    gamma exactly, so each return has the bits of its own reverse scan."""
    return gae(rewards, gamma, 1.0)


def ppo_clip_loss(ratios: np.ndarray, advantages: np.ndarray, clip: float) -> float:
    """Negated clipped-surrogate objective (lower is better for the actor)."""
    ratios = np.asarray(ratios, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    surr1 = ratios * advantages
    surr2 = np.clip(ratios, 1.0 - clip, 1.0 + clip) * advantages
    return float(-np.mean(np.minimum(surr1, surr2)))


def critic_loss(values: np.ndarray, returns: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    return float(np.mean((values - returns) ** 2))


def policy_entropy(log_sigmas: np.ndarray) -> float:
    """Mean differential entropy of the Gaussian heads, from log stddevs."""
    log_sigmas = np.asarray(log_sigmas, dtype=np.float64)
    return float(np.mean(_ENTROPY_CONST + log_sigmas))


def combined_loss(actor: float, critic: float, entropy: float, alphas: tuple[float, float, float]) -> float:
    a1, a2, a3 = alphas
    return a1 * actor + a2 * critic - a3 * entropy


@dataclass
class Trajectory:
    """Per-step record of one full-run rollout, cut into stage episodes."""

    features: np.ndarray
    actions_raw: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    episode_lengths: list[int]

    @property
    def num_steps(self) -> int:
        return int(self.rewards.size)


@dataclass
class TrainingBatch:
    features: np.ndarray
    actions_raw: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray

    def subset(self, idx: np.ndarray) -> "TrainingBatch":
        return TrainingBatch(
            self.features[idx],
            self.actions_raw[idx],
            self.old_log_probs[idx],
            self.advantages[idx],
            self.returns[idx],
        )


def trajectory_targets(traj: Trajectory, gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-episode GAE advantages and discounted-return critic targets."""
    advantages = np.empty(traj.num_steps)
    returns = np.empty(traj.num_steps)
    pos = 0
    for length in traj.episode_lengths:
        sl = slice(pos, pos + length)
        deltas = td_errors(traj.rewards[sl], traj.values[sl], gamma)
        advantages[sl] = gae(deltas, gamma, lam)
        returns[sl] = discounted_returns(traj.rewards[sl], gamma)
        pos += length
    if pos != traj.num_steps:
        raise SchemaError(f"episode lengths cover {pos} of {traj.num_steps} steps")
    return advantages, returns


@dataclass
class LossOutput:
    total: float
    actor: float
    critic: float
    entropy: float
    policy_grad: np.ndarray
    critic_grad: np.ndarray


def _loss_forward(policy: GaussianPolicy, critic: MLP, batch: TrainingBatch, cfg: RLConfig):
    """The forward half of loss_and_grads: its (total, actor, critic, entropy)
    terms, and the forward values its backward pass reuses."""
    mu, lsr, acts = policy.head(batch.features)
    sigma_exp = np.exp(lsr)
    sigma = np.maximum(sigma_exp, policy.sigma_floor)
    rho = np.exp(gaussian_log_prob(batch.actions_raw, mu, sigma) - batch.old_log_probs)
    actor = ppo_clip_loss(rho, batch.advantages, cfg.clip)

    v_out, v_acts = critic.forward(batch.features)
    v = v_out[:, 0]
    crit = critic_loss(v, batch.returns)
    entropy = policy_entropy(np.log(sigma))
    total = combined_loss(actor, crit, entropy, cfg.alphas)
    return (total, actor, crit, entropy), (mu, sigma_exp, sigma, rho, acts, v, v_acts)


def loss_and_grads(policy: GaussianPolicy, critic: MLP, batch: TrainingBatch, cfg: RLConfig) -> LossOutput:
    """Combined loss and analytic parameter gradients for one minibatch.

    The clipped-surrogate term passes gradient through whichever branch the
    elementwise min selects; the clipped branch contributes gradient only
    strictly inside the clip interval. Log-stddev gradients are masked
    wherever the stddev floor is active.
    """
    a1, a2, a3 = cfg.alphas
    B = batch.features.shape[0]
    terms, (mu, sigma_exp, sigma, rho, acts, v, v_acts) = _loss_forward(policy, critic, batch, cfg)
    not_floored = (sigma_exp >= policy.sigma_floor).astype(np.float64)
    z = (batch.actions_raw - mu) / sigma

    # Actor backward: dtotal/dmin_i = -a1/B, then through the picked branch.
    surr1 = rho * batch.advantages
    surr2 = np.clip(rho, 1.0 - cfg.clip, 1.0 + cfg.clip) * batch.advantages
    pick1 = surr1 <= surr2
    inside = ((rho > 1.0 - cfg.clip) & (rho < 1.0 + cfg.clip)).astype(np.float64)
    dmin_drho = np.where(pick1, batch.advantages, batch.advantages * inside)
    dlogp = (-a1 / B) * dmin_drho * rho
    dmu = dlogp * (z / sigma)
    dlsr = dlogp * (z * z - 1.0) * not_floored
    # Entropy enters the total with weight -a3.
    dlsr = dlsr - (a3 / B) * not_floored
    policy_grad = policy.net.backward(acts, np.stack([dmu, dlsr], axis=1))

    dv = (a2 * 2.0 / B) * (v - batch.returns)
    return LossOutput(*terms, policy_grad, critic.backward(v_acts, dv[:, None]))


class RLPaymentController:
    """Online per-click payer driven by the Gaussian policy.

    Implements the engine's controller protocol. It samples its actions
    from rng, or pays the policy mean when rng is None. In collection mode
    every click appends one trajectory step with its reward; at the stage
    boundary the accuracy reward is recomputed with the released true
    conversions and added to the stage's last step, and the episode is
    closed. Without collection a click does only the payment work. The
    payer holds no critic: GAE needs values only once the rollout is
    collected, so trajectory(critic) computes them all in one call.

    The constructor sets the run-long entries; begin_stage sets the
    stage-scoped ones (the stage's bids and expected schedule, its pending
    conversions, payments and active bidders), so it must open each stage
    before the stage's first click.
    """

    def __init__(
        self,
        policy: GaussianPolicy,
        tcpa: np.ndarray,
        zeta: float = 0.1,
        xi: float | None = None,
        rng: np.random.Generator | None = None,
        collect: bool = True,
    ):
        self.policy = policy
        # Per-bidder values are kept in Python floats: every click reads and
        # writes one bidder's entries, which NumPy scalars make slow.
        tcpa = np.asarray(tcpa, dtype=np.float64)
        self.tcpa = tcpa.tolist()
        self.zeta = float(zeta)
        self.xi = resolve_xi(xi, tcpa).tolist()
        self.rng = rng
        self.collect = collect

        m = len(self.tcpa)
        self.clicks = [0.0] * m
        self.visible = [0.0] * m
        self.paid_total = [0.0] * m
        self.last_nonzero_payment = [0.0] * m
        self.expected_paid_completed = [0.0] * m

        self._feats: list[np.ndarray] = []
        self._gs: list[float] = []
        self._logps: list[float] = []
        self._rewards: list[float] = []
        self._episode_lengths: list[int] = []
        self.stage_true_errors: list[float] = []

    def begin_stage(self, expected_clicks: np.ndarray, expected_conversions: np.ndarray,
                    bids: np.ndarray, stage_start: int, stage_len: int) -> None:
        m = len(self.tcpa)
        self.bids = np.asarray(bids, dtype=np.float64).tolist()
        self.expected_stage_clicks = np.asarray(expected_clicks, dtype=np.float64).tolist()
        self.expected_stage_conversions = np.asarray(expected_conversions, dtype=np.float64).tolist()
        self.stage_start = int(stage_start)
        self.stage_len = int(stage_len)
        self.stage_z_est = [0.0] * m
        self.active: list[int] = []  # bidders with a click this stage, ascending
        self.paid_stage = [0.0] * m
        self._stage_first_step = len(self._rewards)  # index of the stage's first step in the collected lists

    def on_click(self, bidder: int, round_index: int, cvr: float, expected_remaining_clicks: float) -> float:
        m = bidder
        z_est, paid_stage, active, tcpa, xi = self.stage_z_est, self.paid_stage, self.active, self.tcpa, self.xi
        z_est[m] = pending = z_est[m] + cvr
        self.clicks[m] = clicks = self.clicks[m] + 1.0
        i = bisect.bisect_left(active, m)
        if i == len(active) or active[i] != m:  # the bidder's first click this stage
            active.insert(i, m)
        progress = (round_index - self.stage_start + 1) / self.stage_len
        bid, conv_scale = self.bids[m], self.expected_stage_conversions[m]
        expected_paid = self.expected_paid_completed[m] + bid * conv_scale * progress
        last_payment, paid, total = self.last_nonzero_payment[m], paid_stage[m], self.paid_total[m]
        feats = build_state_features(clicks, self.visible[m], pending, total, expected_paid, paid, last_payment,
                                     progress, self.expected_stage_clicks[m], conv_scale, tcpa[m], xi[m])
        action, g, logp = self.policy.act(feats, self.rng)
        payment = action * bid * cvr
        paid_stage[m] = paid + payment
        self.paid_total[m] = total + payment
        if payment > 0.0:
            self.last_nonzero_payment[m] = payment
        if self.collect:
            r1 = accuracy_reward([paid_stage[i] for i in active], [z_est[i] * tcpa[i] + xi[i] for i in active])
            self._feats.append(feats)
            self._gs.append(g)
            self._logps.append(logp)
            self._rewards.append(compute_reward(r1, smoothness_reward(payment, last_payment), self.zeta))
        return payment

    def end_stage(self, visible_conversions: np.ndarray) -> None:
        visible = np.asarray(visible_conversions, dtype=np.float64)
        active = self.active
        steps = len(self._rewards) - self._stage_first_step
        if active:
            paid = np.array(self.paid_stage)[active]
            stage_true = (visible - np.array(self.visible))[active]
            targets = stage_true * np.array(self.tcpa)[active] + np.array(self.xi)[active]
            self.stage_true_errors.append(float(np.mean(np.abs(paid / targets - 1.0))))
            if steps > 0:
                # Feedback release: reward the stage's final step with the
                # accuracy score under the true conversion counts.
                self._rewards[-1] += accuracy_reward(paid, targets)
                self._episode_lengths.append(steps)
        self.expected_paid_completed = [
            done + bid * conv
            for done, bid, conv in zip(self.expected_paid_completed, self.bids, self.expected_stage_conversions)
        ]
        self.visible = visible.tolist()

    def trajectory(self, critic: MLP) -> Trajectory:
        """The collected steps, valued by critic as it is now."""
        features = np.array(self._feats, dtype=np.float64).reshape(-1, FEATURE_DIM)
        return Trajectory(
            features,
            np.array(self._gs, dtype=np.float64),
            np.array(self._logps, dtype=np.float64),
            np.array(self._rewards, dtype=np.float64),
            value_estimate(critic, features),
            list(self._episode_lengths),
        )


class DFPTrainingEnv:
    """Full-run rollout wrapper around the auction engine."""

    def __init__(self, market_config: MarketConfig, rl: RLConfig):
        self.market_config = market_config
        self.rl = rl

    def rollout(
        self,
        policy: GaussianPolicy,
        critic: MLP,
        market_seed: int,
        rng: np.random.Generator | None,
    ) -> tuple[Trajectory, list[float], SimulationResult]:
        """Run one full market under the sampling policy, collecting every click.

        Returns the trajectory, the per-stage true absolute ratio errors,
        and the simulation result.
        """
        market = generate_market(replace(self.market_config, seed=market_seed))
        controller = RLPaymentController(policy, market.tcpa, zeta=self.rl.zeta, xi=self.rl.xi, rng=rng)
        mech = MechanismConfig("DFP", controller="rl")
        agents: list = [TruthfulAgent() for _ in range(market.num_bidders)]
        result = run_auction(market, mech, agents, controller=controller)
        return controller.trajectory(critic), controller.stage_true_errors, result


@dataclass
class TrainResult:
    policy: GaussianPolicy
    critic: MLP
    curves: list[dict[str, float]]
    aborted_updates: int


def _curve_row(update: int, reward: float, err: float, actor: float, critic: float, entropy: float) -> dict[str, float]:
    return dict(zip(CURVES_CSV_HEADER.split(","), (float(update), reward, err, actor, critic, entropy)))


def train(market_config: MarketConfig, rl: RLConfig, seed: int = 0) -> TrainResult:
    """Train the payment policy on freshly generated markets.

    One update = one full-run rollout followed by epochs of minibatch
    clipped-surrogate steps. If any minibatch loss turns non-finite, or a
    parameter of either net is non-finite after the last step, the whole
    update is rolled back (parameters and optimizer state) and counted in
    aborted_updates.

    Raises:
        ConfigError: seed outside [0, 2**64), before any work.
    """
    _check_seed(seed, "training seed")
    rng_init = _stream(seed, _INIT_STREAM)
    policy = GaussianPolicy(MLP(FEATURE_DIM, rl.hidden, 2, rng_init), rl.sigma_floor)
    critic = MLP(FEATURE_DIM, rl.hidden, 1, rng_init)
    rng_act = _stream(seed, _ACTION_STREAM)
    rng_shuffle = _stream(seed, _SHUFFLE_STREAM)
    # Drawn one per update: the same values as one array of rl.updates draws,
    # without holding that array.
    market_seeds = _stream(seed, _MARKET_SEED_STREAM)

    env = DFPTrainingEnv(market_config, rl)
    opt_policy = Adam(policy.net.num_params, lr=rl.lr)
    opt_critic = Adam(critic.num_params, lr=rl.lr)
    curves: list[dict[str, float]] = []
    aborted = 0

    for update in range(rl.updates):
        traj, errors, _ = env.rollout(policy, critic, int(market_seeds.integers(2**63)), rng_act)
        if traj.num_steps == 0:
            curves.append(_curve_row(update, *[float("nan")] * 5))
            continue
        advantages, returns = trajectory_targets(traj, rl.gamma, rl.lam)
        if rl.adv_norm:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        batch = TrainingBatch(traj.features, traj.actions_raw, traj.log_probs, advantages, returns)

        _, *pre = _loss_forward(policy, critic, batch, rl)[0]  # the curve logs the losses before the update
        err = float(np.mean(errors)) if errors else float("nan")
        curves.append(_curve_row(update, float(traj.rewards.mean()), err, *pre))

        snapshot = copy.deepcopy((policy.net, critic, opt_policy, opt_critic))
        n = traj.num_steps
        # One permutation per epoch, drawn as the epoch starts, so an update
        # cut short leaves the later draws to the next update.
        perms = (rng_shuffle.permutation(n) for _ in range(rl.epochs))
        for idx in (perm[start:start + rl.minibatch] for perm in perms for start in range(0, n, rl.minibatch)):
            out = loss_and_grads(policy, critic, batch.subset(idx), rl)
            if not np.isfinite(out.total):
                break
            opt_policy.step(policy.net.flat, out.policy_grad)
            opt_critic.step(critic.flat, out.critic_grad)
        # The last step's overflow shows in no loss, only in the parameters.
        if not (np.isfinite(out.total) and np.isfinite(policy.net.flat).all() and np.isfinite(critic.flat).all()):
            policy.net, critic, opt_policy, opt_critic = snapshot
            aborted += 1

    return TrainResult(policy=policy, critic=critic, curves=curves, aborted_updates=aborted)


def _checkpoint_text(policy: GaussianPolicy, critic: MLP) -> str:
    """The one checkpoint layout, written by save_checkpoint and required by
    load_checkpoint: a magic line, the stddev floor, a `param <name> <shape>`
    header per weight (a line per row) and bias, policy before critic, then
    `end`. Floats are written by repr, which reads back bit for bit."""
    lines = [CHECKPOINT_MAGIC, f"sigma_floor {policy.sigma_floor!r}"]
    for prefix, net in (("policy", policy.net), ("critic", critic)):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            lines.append(f"param {prefix}.W{i} {w.shape[0]} {w.shape[1]}")
            lines += [" ".join(map(repr, row)) for row in w.tolist()]
            lines += [f"param {prefix}.b{i} {b.size}", " ".join(map(repr, b.tolist()))]
    return "\n".join(lines + ["end", ""])


def save_checkpoint(policy: GaussianPolicy, critic: MLP, path: str) -> None:
    """Write both networks to a plain-text checkpoint (see _checkpoint_text)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_checkpoint_text(policy, critic))


# `param <policy|critic>.W<i> <in> <out>`; at most 18 digits keeps int() cheap.
_WEIGHT_HEADER = re.compile(r"param (policy|critic)\.W[0-9]+ ([1-9][0-9]{0,17}) ([1-9][0-9]{0,17})")


def load_checkpoint(path: str) -> tuple[GaussianPolicy, MLP]:
    """Reconstruct (policy, critic) from a text checkpoint.

    Layer shapes come from the weight headers, the numbers (stddev floor
    first) from the other lines in file order. The layers must chain (policy
    FEATURE_DIM -> ... -> 2, critic FEATURE_DIM -> ... -> 1) and fit the count
    of numbers before a network is built; the file is then accepted only if
    it equals _checkpoint_text of the networks read.

    Raises:
        MissingInputError: path is not a file.
        SchemaError: text that is not UTF-8, a value that is not a finite
            number, layers that do not chain or fit, a sigma_floor that is not
            positive, or any line that differs from the writer's (named).
    """
    with _open_input(path, "checkpoint", SchemaError) as fh:
        lines = fh.read().split("\n")
    if lines[0] != CHECKPOINT_MAGIC:
        raise SchemaError(f"not a checkpoint file: {path}")
    shapes: dict[str, list[tuple[int, int]]] = {"policy": [], "critic": []}
    numbers: list[float] = []
    for n, line in enumerate(lines[1:], start=2):
        header = _WEIGHT_HEADER.fullmatch(line)
        if header:
            shapes[header[1]].append((int(header[2]), int(header[3])))
        elif line != "end" and not line.startswith("param "):
            try:
                values = [float(token) for token in line.removeprefix("sigma_floor ").split()]
            except ValueError:
                raise SchemaError(f"checkpoint line {n} holds a value that is not a number: {line!r:.80}") from None
            if not all(map(math.isfinite, values)):
                raise SchemaError(f"checkpoint line {n} holds a value that is not finite")
            numbers += values

    nets = (("policy", 2), ("critic", 1))
    for prefix, outputs in nets:
        dims = [FEATURE_DIM] + [b for _, b in shapes[prefix]]
        if len(dims) < 2 or dims[-1] != outputs or [a for a, _ in shapes[prefix]] != dims[:-1]:
            raise SchemaError(f"checkpoint {prefix} layers do not chain {FEATURE_DIM} -> ... -> {outputs}")
    needed = 1 + sum(a * b + b for layers in shapes.values() for a, b in layers)
    if len(numbers) != needed:
        raise SchemaError(f"checkpoint holds {len(numbers)} numbers, its sigma_floor and layers need {needed}")
    if numbers[0] <= 0.0:
        raise SchemaError(f"checkpoint sigma_floor must be positive, got {numbers[0]!r}")
    policy_net, critic = (MLP(FEATURE_DIM, tuple(b for _, b in shapes[p][:-1]), out) for p, out in nets)
    policy_net.set_flat(numbers[1:1 + policy_net.num_params])
    critic.set_flat(numbers[1 + policy_net.num_params:])
    policy = GaussianPolicy(policy_net, numbers[0])

    written = _checkpoint_text(policy, critic).split("\n")
    if written != lines:
        n, got = next((i, b) for i, (a, b) in enumerate(zip(written + [None], lines + ["(missing)"])) if a != b)
        raise SchemaError(f"checkpoint line {n + 1} is not what the writer puts there: {got!r:.80}")
    return policy, critic


def write_curves_csv(curves: list[dict[str, float]], path: str) -> None:
    write_table(path, CURVES_CSV_HEADER, [
        np.array([row[c] for row in curves], dtype=np.int64 if c == "update" else np.float64)
        for c in CURVES_CSV_HEADER.split(",")
    ])
