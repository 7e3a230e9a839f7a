"""Plain reference forms for the engine and the online payers.

The engine scores, allocates and samples a whole stage at once. The
functions here do the same one round at a time, in the plainest form, so
tests can hold the engine to them: rank_and_allocate is the scalar
allocation rule, sample_round draws one round's outcomes through the same
counter-based sub-streams, RoundOutcome and validate_allocation state the
per-round invariants, and stage_of maps a round to its stage. ratio_table
is the loop form of the analysis module's vectorized ratio tables.

online_dfp_reference runs an online DFP market round by round and pays its
clicks one at a time, in the form the engine's click loop had before it
went columnar. ReferenceRLController is the learned payer in the same
older form: a NumPy ledger indexed per click, with reference_act,
reference_value_estimate, reference_forward and reference_accuracy_reward
as its policy step, critic, network pass and reward, and
reference_discounted_returns is the critic targets' own reverse scan. The
package's faster forms must reproduce all of them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from auctionlab.errors import ContractViolation, NumericalFault, SchemaError
from auctionlab.market import MarketLog, sample_outcomes, stage_starts
from auctionlab.mechanisms import ROUNDS_CSV_HEADER, ranking_score
from auctionlab.nets import MLP
from auctionlab.ppo import (
    FEATURE_DIM,
    GaussianPolicy,
    Trajectory,
    build_state_features,
    compute_reward,
    resolve_xi,
    smoothness_reward,
)


def ratio_table(conversions: np.ndarray, payments: np.ndarray, tcpa: np.ndarray):
    """(bidders, windows, ratios) of every (window, bidder) entry with at
    least one conversion, bidder by bidder; zero payment gives inf."""
    T, M = conversions.shape
    bidders, windows, ratios = [], [], []
    for m in range(M):
        for t in range(T):
            z = conversions[t, m]
            if z < 1.0:
                continue
            bidders.append(m)
            windows.append(t)
            p = payments[t, m]
            ratios.append(z * tcpa[m] / p if p > 0.0 else float("inf"))
    return np.array(bidders, dtype=np.int64), np.array(windows, dtype=np.int64), np.array(ratios)


def rank_and_allocate(scores: np.ndarray, num_slots: int) -> np.ndarray:
    """Allocate slot k to the k-th highest score; ties go to the lowest
    bidder index; zero (or negative) scores are never allocated.

    Returns a (num_bidders, num_slots) 0/1 matrix.
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    x = np.zeros((scores.size, num_slots), dtype=np.uint8)
    for k in range(min(num_slots, scores.size)):
        m = order[k]
        if scores[m] <= 0.0:
            break
        x[m, k] = 1
    return x


@dataclass
class RoundOutcome:
    """Allocation, click, conversion, and payment matrices for one round (M x K)."""

    allocation: np.ndarray
    click: np.ndarray
    conversion: np.ndarray
    payment: np.ndarray

    def __post_init__(self) -> None:
        x, y, z = self.allocation, self.click, self.conversion
        if not (np.all(z <= y) and np.all(y <= x)):
            raise ContractViolation("round outcome must satisfy conversion <= click <= allocation")


def validate_allocation(allocation: np.ndarray, num_slots: int) -> None:
    """Raise unless allocation is 0/1 with <=1 slot per bidder and <=1 bidder per slot."""
    x = np.asarray(allocation)
    if x.ndim != 2 or x.shape[1] != num_slots:
        raise ContractViolation(f"allocation must be (num_bidders, {num_slots}), got {x.shape}")
    if not np.isin(x, (0, 1)).all():
        raise ContractViolation("allocation entries must be 0 or 1")
    if (x.sum(axis=1) > 1).any():
        raise ContractViolation("a bidder may hold at most one slot per round")
    if (x.sum(axis=0) > 1).any():
        raise ContractViolation("a slot may be held by at most one bidder")


def sample_round(log: MarketLog, round_index: int, allocation: np.ndarray) -> RoundOutcome:
    """Sample one round's outcomes for a given allocation; payments start at 0.

    Exactly two RNG uniforms are addressed per displayed slot (click, then
    conversion; the conversion uniform is consumed even for unclicked slots).
    Unallocated slots draw nothing, which is safe because every triple owns
    its sub-stream.
    """
    validate_allocation(allocation, log.num_slots)
    x = np.asarray(allocation, dtype=np.uint8)
    y = np.zeros_like(x)
    z = np.zeros_like(x)
    bidders, slots = np.nonzero(x)
    if bidders.size:
        rounds = np.full(bidders.shape, round_index)
        y[bidders, slots], z[bidders, slots] = sample_outcomes(log, rounds, bidders, slots)
    return RoundOutcome(allocation=x, click=y, conversion=z, payment=np.zeros(x.shape, dtype=np.float64))


def stage_of(round_index: int, stage_plan: tuple[int, ...]) -> int:
    """Stage index t whose round range [sum(plan[:t]), sum(plan[:t+1])) contains round_index."""
    ends = np.cumsum(stage_plan)
    n = int(ends[-1])
    if not 0 <= round_index < n:
        raise IndexError(f"round_index {round_index} outside [0, {n})")
    return int(np.searchsorted(ends, round_index, side="right"))


ROUNDS_COLUMNS = tuple(ROUNDS_CSV_HEADER.split(","))


def online_dfp_reference(market: MarketLog, agents: list, controller) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Online DFP one round at a time, paying clicks one by one.

    Rounds are allocated by rank_and_allocate and sampled by sample_round;
    each stage's expected-click schedule, the per-click controller calls
    and the stage-boundary bid updates are those of the engine.

    Returns:
        (rounds columns keyed like the engine's RoundsTable, bid_by_stage).
    """
    cfg = market.config
    M, K = cfg.num_bidders, cfg.num_slots
    plan = cfg.stage_plan
    T = len(plan)
    tcpa = market.tcpa
    bids = np.array([float(agents[m].initial_bid(float(tcpa[m]))) for m in range(M)])
    stage_conversions = np.zeros((T, M))
    stage_payments = np.zeros((T, M))
    bid_by_stage = np.zeros((T, M))
    columns: dict[str, list] = {name: [] for name in ROUNDS_COLUMNS}
    for t, s0 in enumerate(stage_starts(plan)):
        s0, n_t = int(s0), plan[t]
        bid_by_stage[t] = bids
        shown = []  # (round offset, bidder, slot, score, click, conversion)
        for n in range(s0, s0 + n_t):
            scores = ranking_score(bids, market.ctr[n, :, 0], market.cvr[n])
            x = rank_and_allocate(scores, K)
            out = sample_round(market, n, x)
            for m, k in sorted(zip(*np.nonzero(x)), key=lambda mk: mk[1]):
                shown.append((n - s0, m, k, scores[m], out.click[m, k], out.conversion[m, k]))
        rows = np.array([r[0] for r in shown], dtype=np.int64)
        bidders = np.array([r[1] for r in shown], dtype=np.int64)
        slots = np.array([r[2] for r in shown], dtype=np.int64)
        y = np.array([r[4] for r in shown], dtype=np.uint8)
        z = np.array([r[5] for r in shown], dtype=np.uint8)
        rounds_global = rows + s0
        ctr_at = market.ctr[rounds_global, bidders, slots]
        cvr_at = market.cvr[rounds_global, bidders]

        x_ctr = np.zeros((n_t, M))
        x_ctr[rows, bidders] = ctr_at
        suffix = np.vstack([np.cumsum(x_ctr[::-1], axis=0)[::-1][1:], np.zeros((1, M))])
        controller.begin_stage(x_ctr.sum(axis=0), (x_ctr * market.cvr[s0:s0 + n_t]).sum(axis=0), bids, s0, n_t)
        pay = np.zeros(y.shape)
        for i in np.nonzero(y)[0]:
            m = int(bidders[i])
            pay[i] = controller.on_click(m, int(rounds_global[i]), float(cvr_at[i]), float(suffix[rows[i], m]))
            if pay[i] < 0:
                raise ContractViolation("controller returned a negative payment")

        np.add.at(stage_conversions[t], bidders, z)
        np.add.at(stage_payments[t], bidders, pay)
        for name, col in zip(ROUNDS_COLUMNS, (
            rounds_global, np.full(rows.shape, t, dtype=np.int64), bidders, slots,
            np.array([r[3] for r in shown], dtype=np.float64), y, z, pay, bids[bidders],
        )):
            columns[name].append(col)

        visible = stage_conversions[: t + 1].sum(axis=0)
        controller.end_stage(visible)
        paid_cum = stage_payments[: t + 1].sum(axis=0)
        new_bids = bids.copy()
        for m in range(M):
            if visible[m] >= 1.0:
                ratio = visible[m] * tcpa[m] / paid_cum[m] if paid_cum[m] > 0 else np.inf
            else:
                ratio = None
            new_bids[m] = agents[m].stage_update(float(bids[m]), float(tcpa[m]), ratio, bool(paid_cum[m] > 0))
        bids = new_bids
    return {name: np.concatenate(cols) for name, cols in columns.items()}, bid_by_stage


def reference_forward(net: MLP, x: np.ndarray) -> np.ndarray:
    """MLP output through matmul-plus-bias layers, one new array per step."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
    return h


def reference_accuracy_reward(paid: np.ndarray, targets: np.ndarray) -> float:
    paid = np.asarray(paid, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if paid.shape != targets.shape:
        raise SchemaError(f"paid shape {paid.shape} does not match targets shape {targets.shape}")
    if np.any(targets <= 0.0):
        raise SchemaError("accuracy targets must be positive")
    total = float(np.sum(np.abs(paid / targets - 1.0)))
    return float(-np.log(max(total, 1e-12)))


def reference_discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Reward-to-go sums by their own reverse scan, acc = r[t] + gamma * acc."""
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def reference_act(policy: GaussianPolicy, features: np.ndarray, rng=None):
    """(action, raw action, log prob) for one feature vector, on NumPy scalars:
    sampled from rng, or the mean when rng is None."""
    out = reference_forward(policy.net, features.reshape(1, -1))
    mu = float(out[0, 0])
    log_sigma_raw = float(out[0, 1])
    if not (np.isfinite(mu) and np.isfinite(log_sigma_raw)):
        raise NumericalFault(f"policy head is not finite: mu={mu}, log_sigma_raw={log_sigma_raw}")
    sigma = max(float(np.exp(log_sigma_raw)), policy.sigma_floor)
    if not np.isfinite(sigma):
        raise NumericalFault(f"policy stddev overflowed: log_sigma_raw={log_sigma_raw}")
    if rng is None:
        g = mu
    else:
        g = mu + sigma * float(rng.standard_normal())
    zs = (np.asarray(g) - mu) / sigma
    logp = float(-0.5 * zs * zs - np.log(sigma) - 0.5 * np.log(2.0 * np.pi))
    action = float(np.logaddexp(0.0, g))
    if not (np.isfinite(g) and np.isfinite(action) and np.isfinite(logp)):
        raise NumericalFault(f"action is not finite: g={g}")
    return action, g, logp


def reference_value_estimate(critic: MLP, features: np.ndarray) -> float:
    v = float(reference_forward(critic, features.reshape(1, -1))[0, 0])
    if not np.isfinite(v):
        raise NumericalFault(f"critic output is not finite: {v}")
    return v


class ReferenceRLController:
    """The learned online payer with its ledger in NumPy arrays."""

    def __init__(self, policy, critic, tcpa, zeta=0.1, xi=None, rng=None, collect=True):
        self.policy = policy
        self.critic = critic
        self.tcpa = np.asarray(tcpa, dtype=np.float64)
        self.zeta = float(zeta)
        self.xi = resolve_xi(xi, self.tcpa)
        self.rng = rng
        self.collect = collect
        m = self.tcpa.size
        self.clicks = np.zeros(m)
        self.visible = np.zeros(m)
        self.stage_z_est = np.zeros(m)
        self.stage_clicks = np.zeros(m, dtype=np.int64)
        self.paid_stage = np.zeros(m)
        self.paid_total = np.zeros(m)
        self.last_nonzero_payment = np.zeros(m)
        self.expected_paid_completed = np.zeros(m)
        self.bids = np.zeros(m)
        self.expected_stage_clicks = np.zeros(m)
        self.expected_stage_conversions = np.zeros(m)
        self.stage_start = 0
        self.stage_len = 1
        self.feats, self.gs, self.logps, self.values, self.rewards = [], [], [], [], []
        self.episode_lengths: list[int] = []
        self.steps_this_stage = 0
        self.stage_true_errors: list[float] = []

    def begin_stage(self, expected_clicks, expected_conversions, bids, stage_start, stage_len):
        self.bids = np.asarray(bids, dtype=np.float64).copy()
        self.expected_stage_clicks = np.asarray(expected_clicks, dtype=np.float64)
        self.expected_stage_conversions = np.asarray(expected_conversions, dtype=np.float64)
        self.stage_start = int(stage_start)
        self.stage_len = int(stage_len)
        self.stage_z_est[:] = 0.0
        self.stage_clicks[:] = 0
        self.paid_stage[:] = 0.0
        self.steps_this_stage = 0

    def on_click(self, bidder, round_index, cvr, expected_remaining_clicks):
        m = bidder
        self.stage_z_est[m] += cvr
        self.clicks[m] += 1.0
        self.stage_clicks[m] += 1
        progress = (round_index - self.stage_start + 1) / self.stage_len
        expected_paid = self.expected_paid_completed[m] + self.bids[m] * self.expected_stage_conversions[m] * progress
        feats = build_state_features(
            clicks=self.clicks[m],
            visible_conversions=self.visible[m],
            pending_conversions=self.stage_z_est[m],
            paid_total=self.paid_total[m],
            expected_paid=expected_paid,
            paid_stage=self.paid_stage[m],
            last_nonzero_payment=self.last_nonzero_payment[m],
            stage_progress=progress,
            expected_stage_clicks=self.expected_stage_clicks[m],
            expected_stage_conversions=self.expected_stage_conversions[m],
            tcpa=self.tcpa[m],
            xi=self.xi[m],
        )
        action, g, logp = reference_act(self.policy, feats, rng=self.rng)
        payment = action * self.bids[m] * cvr
        self.paid_stage[m] += payment
        self.paid_total[m] += payment
        active = self.stage_clicks >= 1
        targets = self.stage_z_est[active] * self.tcpa[active] + self.xi[active]
        r1 = reference_accuracy_reward(self.paid_stage[active], targets)
        r2 = smoothness_reward(payment, self.last_nonzero_payment[m])
        reward = compute_reward(r1, r2, self.zeta)
        if payment > 0.0:
            self.last_nonzero_payment[m] = payment
        if self.collect:
            self.feats.append(feats)
            self.gs.append(g)
            self.logps.append(logp)
            self.values.append(reference_value_estimate(self.critic, feats))
            self.rewards.append(reward)
            self.steps_this_stage += 1
        return payment

    def end_stage(self, visible_conversions):
        visible = np.asarray(visible_conversions, dtype=np.float64)
        stage_true = visible - self.visible
        active = self.stage_clicks >= 1
        if np.any(active):
            targets = stage_true[active] * self.tcpa[active] + self.xi[active]
            self.stage_true_errors.append(float(np.mean(np.abs(self.paid_stage[active] / targets - 1.0))))
            if self.collect and self.steps_this_stage > 0:
                self.rewards[-1] += reference_accuracy_reward(self.paid_stage[active], targets)
        if self.collect and self.steps_this_stage > 0:
            self.episode_lengths.append(self.steps_this_stage)
        self.expected_paid_completed += self.bids * self.expected_stage_conversions
        self.visible = visible.copy()

    def trajectory(self) -> Trajectory:
        if not self.feats:
            return Trajectory(np.zeros((0, FEATURE_DIM)), np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), [])
        return Trajectory(
            np.stack(self.feats),
            np.array(self.gs),
            np.array(self.logps),
            np.array(self.rewards),
            np.array(self.values),
            list(self.episode_lengths),
        )
