"""Allocation, payment rules, and the N-round simulation engine.

Four payment rules share one allocation pipeline (top-K by ranking score):

    CFP             pays bid * cvr on every click, online.
    CPA_OFFLINE     pays tcpa on every conversion; the formula needs nothing
                    beyond the current round, so the engine pays it online.
    PACING_OFFLINE  pays each click the same amount, total_conversions *
                    tcpa / total_clicks, known only after the run.
    DFP             per-click payments chosen online by a pluggable
                    controller ("debt" or an RL policy), or in hindsight by
                    the per-stage pacing oracle ("oracle"), each stage's
                    clicks paying that stage's conversions * tcpa / clicks.

Bids are frozen within a stage, so each stage's allocation is deterministic
given the bids at its start; the engine exploits that to vectorize scoring,
allocation, and outcome sampling stage by stage. Each stage runs two passes:
the outcome pass (score -> allocate -> sample), a function of the market,
the stage and the bid vector alone, and the pricing pass that sets the
payments of the online rules. The outcome pass under a run's opening bids
is memoised on the MarketLog, so mechanisms run on the same log that open
with the same bids and keep them share it. Each stage fills a row of every
stage table (one (8, T, M) block) and its rows of the rounds columns, which
are allocated once per run at the most rows a run can display. Agent bid
updates fire at stage boundaries for CFP, CPA_OFFLINE, and online DFP. The
two hindsight rules, PACING_OFFLINE and the DFP oracle, keep bids static and
are priced in one pass after the last stage, from the stage tables of clicks
and conversions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .controllers import stage_pacing_oracle
from .csvio import write_table
from .errors import ConfigError, ContractViolation
from .market import MarketLog, sample_outcomes, stage_starts

ROUNDS_CSV_HEADER = "round,stage,bidder,slot,score,click,conversion,payment,bid"
SUMMARY_CSV_HEADER = (
    "bidder,tcpa,final_bid,impressions,clicks,conversions,expected_clicks,"
    "expected_conversions,expected_payment,payment,utility,withdrawn"
)

MECHANISM_KINDS = ("CFP", "DFP", "CPA_OFFLINE", "PACING_OFFLINE")
_DFP_CONTROLLERS = ("debt", "oracle", "rl")


def ranking_score(bid, ctr, cvr):
    """The ranking score: expected spend per impression, bid * ctr * cvr.

    Broadcasts over arrays. Weakly increasing in bid, which allocation
    monotonicity relies on.
    """
    return bid * ctr * cvr


@dataclass(frozen=True)
class MechanismConfig:
    """Which payment rule runs and, for DFP, its controller."""

    kind: str
    controller: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in MECHANISM_KINDS:
            raise ConfigError(f"unknown mechanism kind {self.kind!r}, expected one of {MECHANISM_KINDS}")
        if (self.kind == "DFP") != (self.controller is not None):
            raise ConfigError("a controller must be given for DFP and only for DFP")
        if self.kind == "DFP" and self.controller not in _DFP_CONTROLLERS:
            raise ConfigError(f"unknown DFP controller {self.controller!r}, expected one of {_DFP_CONTROLLERS}")

    @property
    def label(self) -> str:
        return self.kind if self.controller is None else f"{self.kind}:{self.controller}"


def cfp_payment(bid, click, cvr):
    """Coupled first-price per-click payment: bid * click * cvr. Broadcasts."""
    return bid * click * cvr


def cpa_offline_payment(conversion, tcpa):
    """Offline CPA billing: tcpa per conversion, nothing otherwise. Broadcasts."""
    return conversion * tcpa


class OnlineController(Protocol):
    """Per-click payment policy for online DFP runs.

    The engine calls begin_stage once per stage with the stage's expected
    click/conversion schedule, on_click once per realized click in round
    order, and end_stage at the boundary with cumulative true conversions
    (the delayed feedback release).
    """

    def begin_stage(self, expected_clicks: np.ndarray, expected_conversions: np.ndarray,
                    bids: np.ndarray, stage_start: int, stage_len: int) -> None: ...

    def on_click(self, bidder: int, round_index: int, cvr: float, expected_remaining_clicks: float) -> float: ...

    def end_stage(self, visible_conversions: np.ndarray) -> None: ...


class BidderAgent(Protocol):
    """Stage-boundary bidding behavior; see the agents module."""

    def initial_bid(self, tcpa: float) -> float: ...

    def stage_update(self, bid: float, tcpa: float, ratio: float | None, paid: bool) -> float: ...


@dataclass
class RoundsTable:
    """Columnar log, one row per displayed (round, slot)."""

    round: np.ndarray
    stage: np.ndarray
    bidder: np.ndarray
    slot: np.ndarray
    score: np.ndarray
    click: np.ndarray
    conversion: np.ndarray
    payment: np.ndarray
    bid: np.ndarray


# The rounds columns' dtypes, in RoundsTable field order.
_ROUNDS_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.float64, np.uint8, np.uint8, np.float64, np.float64)


@dataclass
class SimulationResult:
    """Outcome stream plus per-stage accounting.

    Stage tables are (num_stages, num_bidders) arrays; rounds is the flat
    per-displayed-slot log in round order.
    """

    mechanism: str
    stage_plan: tuple[int, ...]
    tcpa: np.ndarray
    rounds: RoundsTable
    stage_impressions: np.ndarray
    stage_clicks: np.ndarray
    stage_conversions: np.ndarray
    stage_payments: np.ndarray
    stage_expected_clicks: np.ndarray
    stage_expected_conversions: np.ndarray
    stage_expected_payments: np.ndarray
    stage_value: np.ndarray
    bid_by_stage: np.ndarray
    final_bids: np.ndarray
    withdrawn: np.ndarray

    @property
    def num_bidders(self) -> int:
        return self.tcpa.size

    @property
    def num_stages(self) -> int:
        return len(self.stage_plan)


# The stage tables, views of one (8, T, M) block in this order, which is also
# the order of their per-bidder totals in summary.csv.
_STAGE_TABLES = (
    "stage_impressions", "stage_clicks", "stage_conversions", "stage_expected_clicks",
    "stage_expected_conversions", "stage_expected_payments", "stage_payments", "stage_value",
)


def _stage_allocation(scores: np.ndarray, num_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-K allocation for a block of rounds: slot k of round n goes to the
    k-th highest score, ties to the lowest bidder index.

    Returns (winner, valid): winner[n, k] is the bidder in slot k of round n
    (meaningful where valid[n, k]); zero or negative scores never win.

    One argmax pass per slot over a working copy, each winner masked to
    -inf before the next pass: argmax returns the first maximum, so ties go
    to the lowest index exactly as a stable descending sort orders them,
    without sorting the whole row. Scores must not be NaN, which argmax
    would rank first; run_auction refuses non-finite bids for that reason.
    """
    work = scores.copy()
    row = np.arange(scores.shape[0])
    winner = np.empty((scores.shape[0], min(num_slots, scores.shape[1])), dtype=np.intp)
    for k in range(winner.shape[1]):
        col = work.argmax(axis=1)
        winner[:, k] = col
        work[row, col] = -np.inf
    valid = np.take_along_axis(scores, winner, axis=1) > 0.0
    return winner, valid


def _check_bids(bids: np.ndarray, source: str) -> None:
    """Refuse a NaN or infinite bid: it would corrupt the ranking (argmax
    puts a NaN score first) and every payment built on the bid."""
    bad = np.flatnonzero(~np.isfinite(bids))
    if bad.size:
        m = int(bad[0])
        raise ContractViolation(f"bidder {m} returned a non-finite bid {float(bids[m])!r} from {source}")


def _outcome_pass(market: MarketLog, t: int, s0: int, bids: np.ndarray, opening: bytes) -> tuple[np.ndarray, ...]:
    """Score -> allocate -> sample for stage t under the stage's bids.

    The result depends only on (market, stage, bid vector): outcomes come
    from counter-addressed Philox streams, never from payments. A pass under
    the run's opening bids (``opening``, their bytes) is kept in
    ``market.outcome_memo[t]`` as (bid bytes, pass), so a later run on the
    same log that meets those bids in that stage reads it back instead of
    recomputing it. Every mechanism opens at tCPA, and the offline baselines
    keep their bids, so those are the bids runs share.

    Returns read-only (rows, slots, bidders, score, click, conversion): the
    displayed (stage row, slot) pairs in round-then-slot order and their
    winners as int32, each winner's entry of the stage's score matrix, and
    the uint8 outcomes of ``sample_outcomes``.
    """
    key = bids.tobytes()
    kept = market.outcome_memo.get(t)
    if kept is not None and kept[0] == key:
        return kept[1]
    sl = slice(s0, s0 + market.config.stage_plan[t])
    scores = ranking_score(bids[None, :], market.ctr[sl, :, 0], market.cvr[sl])
    winner, valid = _stage_allocation(scores, market.num_slots)
    rows, slots = np.nonzero(valid)
    bidders = winner[rows, slots]
    y, z = sample_outcomes(market, rows + s0, bidders, slots)
    outcome = (rows.astype(np.int32), slots.astype(np.int32), bidders.astype(np.int32), scores[rows, bidders], y, z)
    for column in outcome:
        column.flags.writeable = False
    if key == opening:
        market.outcome_memo[t] = (key, outcome)
    return outcome


def run_auction(
    market: MarketLog,
    mech: MechanismConfig,
    agents: list[BidderAgent],
    controller: OnlineController | None = None,
) -> SimulationResult:
    """Simulate every round of the market under one mechanism.

    Per stage: the outcome pass (score -> allocate -> sample outcomes),
    then the pricing pass (pay -> accumulate); at each boundary conversions
    are released and (for CFP, CPA_OFFLINE, and online DFP) agents update
    bids from their cumulative checkpoint ratio conversions * tcpa /
    payments. The hindsight rules keep bids static and are priced after the
    last stage: the DFP "oracle" from each stage's own clicks and
    conversions, PACING_OFFLINE from the whole run's.

    The outcome pass under the run's opening bids (those of
    ``initial_bid``) is memoised per market in ``market.outcome_memo``, one
    entry per stage matched by the bids' bytes: a later run on the same log
    that meets those bids in a stage reuses the allocation and outcomes,
    with the same bits as recomputing them. A pass under moved bids is
    computed and not kept. The arrays of a generated or replayed log are
    read-only, so no write can leave the memo stale; ``dataclasses.replace``
    gives a copy with an empty memo.

    Args:
        market: generated or replayed market log.
        mech: mechanism configuration; for kind DFP with controller "debt"
            or "rl", pass the controller object.
        agents: one BidderAgent per bidder.
        controller: online controller instance (DFP only, except "oracle").

    Returns:
        SimulationResult with the rounds table and stage tables.

    Raises:
        ContractViolation: wrong agent count, a missing online controller,
            a NaN or infinite bid from ``initial_bid`` or ``stage_update``
            (naming the bidder and stage), or a negative or non-finite
            controller payment.
    """
    plan = market.config.stage_plan
    T, M = len(plan), market.num_bidders
    if len(agents) != M:
        raise ContractViolation(f"need {M} agents, got {len(agents)}")
    hindsight = mech.kind == "PACING_OFFLINE" or mech.controller == "oracle"
    online_dfp = mech.kind == "DFP" and not hindsight
    if online_dfp and controller is None:
        raise ContractViolation(f"DFP with controller {mech.controller!r} needs a controller instance")

    tcpa = market.tcpa
    bids = np.array([float(agents[m].initial_bid(float(tcpa[m]))) for m in range(M)])
    _check_bids(bids, "initial_bid for stage 0")
    opening = bids.tobytes()

    starts = stage_starts(plan)
    tables = np.zeros((len(_STAGE_TABLES), T, M))
    named = dict(zip(_STAGE_TABLES, tables))
    clicks_table, convs_table, pay_table = named["stage_clicks"], named["stage_conversions"], named["stage_payments"]
    bid_by_stage = np.zeros((T, M))
    # The rounds columns, sized for the most rows a run can display (min(K, M)
    # a round); each stage fills the next rows.
    columns = [np.empty(sum(plan) * min(market.num_slots, M), dtype=dtype) for dtype in _ROUNDS_DTYPES]
    filled = 0

    for t in range(T):
        s0, n_t = int(starts[t]), plan[t]
        bid_by_stage[t] = bids
        rows, slots, bidders, score, y, z = _outcome_pass(market, t, s0, bids, opening)
        rounds_global = rows.astype(np.int64) + s0

        # Pricing pass.
        ctr_at = market.ctr[rounds_global, bidders, slots]
        cvr_at = market.cvr[rounds_global, bidders]
        bid_at = bids[bidders]
        # Expected conversions under the stage's fixed allocation.
        e_convs = ctr_at * cvr_at

        pay = np.zeros(y.shape)  # the hindsight rules are priced after the last stage
        if mech.kind == "CFP":
            pay = cfp_payment(bid_at, y, cvr_at)
        elif mech.kind == "CPA_OFFLINE":
            pay = cpa_offline_payment(z, tcpa[bidders])
        elif online_dfp:
            # Expected-click suffix schedule, then clicks in (round, slot)
            # order through the controller.
            x_ctr = np.zeros((n_t, M))
            x_ctr[rows, bidders] = ctr_at
            suffix = np.vstack([np.cumsum(x_ctr[::-1], axis=0)[::-1][1:], np.zeros((1, M))])
            cvr = market.cvr[s0:s0 + n_t]
            controller.begin_stage(x_ctr.sum(axis=0), (x_ctr * cvr).sum(axis=0), bids, s0, n_t)
            clicked = np.flatnonzero(y)
            on_click = controller.on_click
            paid = np.array([
                on_click(m, n, c, r)
                for m, n, c, r in zip(
                    bidders[clicked].tolist(),
                    rounds_global[clicked].tolist(),
                    cvr_at[clicked].tolist(),
                    suffix[rows[clicked], bidders[clicked]].tolist(),
                )
            ], dtype=np.float64)
            if not (np.isfinite(paid) & (paid >= 0.0)).all():
                raise ContractViolation("controller returned a negative or non-finite payment")
            pay[clicked] = paid

        # One weight column per stage table, in _STAGE_TABLES order. bincount
        # sums each bidder's entries in input order from 0.0; the tables'
        # bits depend on that order.
        weights = (None, y, z, ctr_at, e_convs, bid_at * e_convs, pay, market.value[rounds_global, bidders] * z)
        for k, w in enumerate(weights):
            tables[k, t] = np.bincount(bidders, weights=w, minlength=M)
        at = slice(filled, filled + rows.size)
        filled = at.stop
        for column, values in zip(columns, (rounds_global, t, bidders, slots, score, y, z, pay, bid_at)):
            column[at] = values
        if hindsight:
            continue

        # Boundary: conversions for stages <= t become visible, and each agent
        # sees its checkpoint ratio (None before its first conversion).
        visible = convs_table[: t + 1].sum(axis=0)
        if online_dfp:
            controller.end_stage(visible)
        paid_cum = pay_table[: t + 1].sum(axis=0)
        ratio = np.divide(visible * tcpa, paid_cum, out=np.full(M, np.inf), where=paid_cum > 0)
        bids = np.array([agents[m].stage_update(
            float(bids[m]), float(tcpa[m]), ratio[m] if visible[m] >= 1.0 else None, bool(paid_cum[m] > 0)
        ) for m in range(M)], dtype=np.float64)
        _check_bids(bids, f"stage_update at the end of stage {t}")

    # Withdrawals can leave rows unfilled: shrink each column to its filled
    # rows in place (a realloc, no copy). No view of a column exists.
    for column in columns:
        column.resize(filled, refcheck=False)
    rounds = RoundsTable(*columns)
    if hindsight:
        _price_in_hindsight(rounds, clicks_table, convs_table, pay_table, tcpa, per_stage=mech.kind == "DFP")

    return SimulationResult(
        mechanism=mech.label,
        stage_plan=plan,
        tcpa=tcpa.copy(),
        rounds=rounds,
        **named,
        bid_by_stage=bid_by_stage,
        final_bids=bids.copy(),
        withdrawn=(bids == 0.0),
    )


def _price_in_hindsight(rounds: RoundsTable, clicks: np.ndarray, convs: np.ndarray, payments: np.ndarray,
                        tcpa: np.ndarray, per_stage: bool) -> None:
    """Pay every click of a hindsight rule conversions * tcpa / clicks of its
    bidder, from the (T, M) clicks and conversions tables: per stage for the
    DFP oracle, whose payments table is price * clicks; over the whole run
    for PACING_OFFLINE, whose table sums each (stage, bidder)'s payments in
    round order. Fills rounds.payment and payments in place."""
    T, M = clicks.shape
    clicked = np.flatnonzero(rounds.click)
    stage, bidder = rounds.stage[clicked], rounds.bidder[clicked]
    if per_stage:
        price = stage_pacing_oracle(clicks, convs, tcpa)
        rounds.payment[clicked] = price[stage, bidder]
        payments[:] = price * clicks
    else:
        rounds.payment[clicked] = pay = stage_pacing_oracle(clicks.sum(axis=0), convs.sum(axis=0), tcpa)[bidder]
        payments[:] = np.bincount(stage * M + bidder, weights=pay, minlength=T * M).reshape(T, M)


def write_rounds_csv(result: SimulationResult, path: str) -> None:
    """One row per displayed (round, slot), in round order, CHUNK_ROWS rows
    at a time (see ``csvio.write_table``)."""
    r = result.rounds
    write_table(path, ROUNDS_CSV_HEADER, [getattr(r, name) for name in ROUNDS_CSV_HEADER.split(",")])


def write_summary_csv(result: SimulationResult, path: str) -> None:
    """Each bidder's run totals: its column of every stage table, summed over
    stages on its own; impressions, clicks and conversions as integers."""
    M = result.num_bidders
    totals = [np.array([getattr(result, name)[:, m].sum() for m in range(M)]) for name in _STAGE_TABLES]
    write_table(path, SUMMARY_CSV_HEADER, [
        np.arange(M), result.tcpa, result.final_bids, *(t.astype(np.int64) for t in totals[:3]), *totals[3:],
        result.withdrawn,
    ])
