"""Bidder behavior models and the deviation-sweep harness.

Truthful bidders quote their tCPA forever. Risk-averse bidders compare the
checkpoint ratio tcpa / realized-CPA against a tolerance band at every stage
boundary, nudge their bid multiplicatively while outside it, and withdraw
(bid 0) after too many consecutive violations. The deviation sweep evaluates
counterfactual bid multipliers under expected-value semantics (no sampling)
to measure whether truthful bidding is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .market import MarketLog, _as_int
from .mechanisms import MechanismConfig, SimulationResult, _stage_allocation, ranking_score


@dataclass(frozen=True)
class RiskAverseParams:
    """Tolerance band, per-stage step cap, and withdrawal patience."""

    epsilon: float = 0.1
    step: float = 0.1
    patience: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in [0, 1)")
        if not 0.0 <= self.step < 1.0:
            raise ConfigError("step must lie in [0, 1)")
        if _as_int(self.patience, "patience") < 1:
            raise ConfigError("patience must be >= 1")


def risk_averse_update(
    bid: float,
    tcpa: float,
    ratio: float | None,
    params: RiskAverseParams,
    streak: int,
    paid: bool = False,
) -> tuple[float, int]:
    """One stage-boundary reaction to the checkpoint ratio tcpa / CPA.

    Inside [1 - eps, 1 + eps] the bid stands and the violation streak resets.
    Outside it, the bid is scaled by the ratio clamped to [1 - step, 1 + step]
    and the streak grows; reaching patience withdraws the bidder (bid 0).
    ratio None means no conversions yet: a violation only if money was paid
    (treated as ratio 0, the harshest underdelivery), otherwise a no-op.

    Returns:
        (new bid, new streak).
    """
    if ratio is None:
        if not paid:
            return bid, streak
        factor = 1.0 - params.step
    elif 1.0 - params.epsilon <= ratio <= 1.0 + params.epsilon:
        return bid, 0
    else:
        factor = min(max(ratio, 1.0 - params.step), 1.0 + params.step)
    streak += 1
    if streak >= params.patience:
        return 0.0, streak
    return bid * factor, streak


class TruthfulAgent:
    """Always bids tcpa."""

    def initial_bid(self, tcpa: float) -> float:
        return tcpa

    def stage_update(self, bid: float, tcpa: float, ratio: float | None, paid: bool) -> float:
        return bid


class FixedBidAgent:
    """Static non-truthful bid, for deviation scenarios."""

    def __init__(self, bid: float):
        self._bid = float(bid)

    def initial_bid(self, tcpa: float) -> float:
        return self._bid

    def stage_update(self, bid: float, tcpa: float, ratio: float | None, paid: bool) -> float:
        return bid


class RiskAverseAgent:
    """Stateful wrapper around risk_averse_update; withdrawal is permanent."""

    def __init__(self, params: RiskAverseParams | None = None):
        self.params = params or RiskAverseParams()
        self.streak = 0

    def initial_bid(self, tcpa: float) -> float:
        return tcpa

    def stage_update(self, bid: float, tcpa: float, ratio: float | None, paid: bool) -> float:
        if bid == 0.0:
            return 0.0
        new_bid, self.streak = risk_averse_update(bid, tcpa, ratio, self.params, self.streak, paid)
        return new_bid


@dataclass
class SweepRow:
    """One deviation-sweep grid point."""

    beta: float
    bid: float
    expected_utility: float
    expected_cpa: float


def deviation_sweep(
    market: MarketLog,
    mech: MechanismConfig,
    bidder: int,
    betas: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5),
) -> list[SweepRow]:
    """Counterfactual bid multipliers for one bidder, everyone else truthful.

    Expected-value semantics end to end: clicks are x * ctr, conversions
    x * ctr * cvr, payments their closed-form expectations; nothing is
    sampled, so the sweep is a deterministic function of the market. Under
    CFP the expected per-round payment is bid * x * ctr * cvr, making the
    expected CPA equal the bid itself; CPA_OFFLINE and PACING_OFFLINE both
    settle at tcpa per conversion in expectation. Online DFP payments depend
    on realized click order and are not supported here.

    Returns:
        One SweepRow per beta (grid must include 1.0, the truthful row).
    """
    if mech.kind == "DFP":
        raise ConfigError("deviation_sweep supports the static payment rules, not online DFP")
    if 1.0 not in betas:
        raise ConfigError("beta grid must include 1.0")
    if not 0 <= bidder < market.num_bidders:
        raise ConfigError(f"bidder {bidder} outside [0, {market.num_bidders})")
    tcpa = market.tcpa
    out: list[SweepRow] = []
    for beta in betas:
        bids = tcpa.copy()
        bids[bidder] = beta * tcpa[bidder]
        scores = ranking_score(bids[None, :], market.ctr[:, :, 0], market.cvr)
        winner, valid = _stage_allocation(scores, market.num_slots)
        rows, slots = np.nonzero(valid & (winner == bidder))
        ctr_at = market.ctr[rows, bidder, slots]
        zbar = ctr_at * market.cvr[rows, bidder]
        z_total = float(zbar.sum())
        utility = float((market.value[rows, bidder] * zbar).sum())
        bid = float(bids[bidder])
        rate = bid if mech.kind == "CFP" else float(tcpa[bidder])
        cpa = rate if z_total > 0 else float("nan")
        out.append(SweepRow(beta=float(beta), bid=bid, expected_utility=utility, expected_cpa=cpa))
    return out


@dataclass
class DriftReport:
    """How far final bids drifted from truthful."""

    drift: np.ndarray
    mean_drift: float


def bid_drift_metric(result: SimulationResult) -> DriftReport:
    """Per-bidder |final_bid / tcpa - 1| and its mean.

    Withdrawn bidders contribute drift 1 (bid 0); ``result.withdrawn``
    marks them.
    """
    drift = np.abs(result.final_bids / result.tcpa - 1.0)
    return DriftReport(drift=drift, mean_drift=float(drift.mean()))
