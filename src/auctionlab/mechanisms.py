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
payments of the online rules. The engine reads the market one stage at a
time, so several mechanisms run over one market in lockstep
(``run_lockstep``): each stage is read once for all of them, and the runs
of a stage that bid the same share its outcome pass. ``run_auction`` is
the lockstep of a single run over a whole log. Each stage fills a row of every
stage table (one (8, T, M) block) and its rounds rows: a kept run writes them
into its rounds columns, allocated once at the most rows a run can display;
a streamed run (given a rounds.csv path) writes them to the file as soon as
their payments are final. Agent bid updates fire at stage boundaries for
CFP, CPA_OFFLINE, and online DFP. The two hindsight rules keep bids static:
the DFP oracle is priced at each stage's end from the stage's clicks and
conversions, PACING_OFFLINE after the last stage from the whole run's, so
it keeps its columns until then.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .controllers import stage_pacing_oracle
from .csvio import TableWriter, write_table
from .errors import ConfigError, ContractViolation
from .market import MarketConfig, MarketLog, MarketStage, sample_outcomes

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
    per-displayed-slot log in round order, or None for a run that streamed
    its rows to a rounds.csv (``run_lockstep``). Such a run carries clicked
    instead: the bidder and the payment of each clicked row, in round order,
    which ``analysis.clicked_payments_by_bidder`` otherwise reads from the
    rounds table.
    """

    mechanism: str
    stage_plan: tuple[int, ...]
    tcpa: np.ndarray
    rounds: RoundsTable | None
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
    clicked: tuple[np.ndarray, np.ndarray] | None = None

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


def _outcome_pass(stage: MarketStage, slot0: np.ndarray, bids: np.ndarray, passes: dict) -> tuple[np.ndarray, ...]:
    """Score -> allocate -> sample for one stage under the stage's bids.

    The result depends only on (stage, bid vector): outcomes come from
    counter-addressed Philox streams, never from payments. slot0 is the
    stage's contiguous slot-0 ctr block. A pass is kept in passes, the
    stage's dict shared by every run of the lockstep, under its bids'
    bytes, so another run that bids the same in that stage reads it back
    instead of recomputing it. Every mechanism opens at tCPA, and the
    offline baselines keep their bids, so those are the bids runs share.

    Returns read-only (rows, slots, bidders, score, click, conversion, ctr,
    cvr): the displayed (stage row, slot) pairs in round-then-slot order and
    their winners as int32, each winner's entry of the stage's score matrix,
    the uint8 outcomes of ``sample_outcomes``, and the ctr and cvr at the
    displayed triples, gathered once for sampling and pricing alike.
    """
    key = bids.tobytes()
    kept = passes.get(key)
    if kept is not None:
        return kept
    scores = ranking_score(bids[None, :], slot0, stage.cvr)
    winner, valid = _stage_allocation(scores, stage.ctr.shape[2])
    rows, slots = np.nonzero(valid)
    bidders = winner[rows, slots]
    ctr_at, cvr_at = stage.ctr[rows, bidders, slots], stage.cvr[rows, bidders]
    y, z = sample_outcomes(stage, rows + stage.start, bidders, slots, ctr_at, cvr_at)
    outcome = (rows.astype(np.int32), slots.astype(np.int32), bidders.astype(np.int32), scores[rows, bidders], y, z,
               ctr_at, cvr_at)
    for column in outcome:
        column.flags.writeable = False
    passes[key] = outcome
    return outcome


class _Run:
    """One mechanism's run over a market, advanced a stage at a time by
    ``run_lockstep``: the bids, the (8, T, M) stage-table block and the
    rounds rows. A kept run fills its rounds columns, allocated once at the
    most rows a run can display (min(K, M) a round), each stage the next
    rows. A streamed run (given out, its rounds.csv writer) writes each
    stage's rows there and keeps only its clicked rows' bidders and
    payments; PACING_OFFLINE, priced over the whole run, keeps its columns
    until the end either way."""

    def __init__(self, config: MarketConfig, tcpa: np.ndarray, mech: MechanismConfig, agents: list[BidderAgent],
                 controller: OnlineController | None, out: TableWriter | None) -> None:
        plan, M = config.stage_plan, config.num_bidders
        if len(agents) != M:
            raise ContractViolation(f"need {M} agents, got {len(agents)}")
        self.whole_run = mech.kind == "PACING_OFFLINE"
        self.oracle = mech.controller == "oracle"
        self.online_dfp = mech.kind == "DFP" and not self.oracle
        if self.online_dfp and controller is None:
            raise ContractViolation(f"DFP with controller {mech.controller!r} needs a controller instance")
        self.mech, self.agents, self.controller, self.tcpa, self.plan = mech, agents, controller, tcpa, plan
        self.bids = np.array([float(agents[m].initial_bid(float(tcpa[m]))) for m in range(M)])
        _check_bids(self.bids, "initial_bid for stage 0")
        self.tables = np.zeros((len(_STAGE_TABLES), len(plan), M))
        self.named = dict(zip(_STAGE_TABLES, self.tables))
        self.bid_by_stage = np.zeros((len(plan), M))
        self.out = out
        self.clicked: list[tuple[np.ndarray, np.ndarray]] = []  # a streamed run's, per stage
        self.columns = None
        if out is None or self.whole_run:
            self.columns = [np.empty(sum(plan) * min(config.num_slots, M), dtype=dtype) for dtype in _ROUNDS_DTYPES]
        self.filled = 0
        self.t = 0

    def step(self, stage: MarketStage, slot0: np.ndarray, passes: dict) -> None:
        """Run the next stage: the outcome pass, then the pricing pass and
        the stage's rounds rows; at the boundary, the feedback release and
        the agents' bid updates."""
        t, s0, bids, tcpa, controller = self.t, stage.start, self.bids, self.tcpa, self.controller
        n_t, M = stage.cvr.shape
        self.t += 1
        self.bid_by_stage[t] = bids
        rows, slots, bidders, score, y, z, ctr_at, cvr_at = _outcome_pass(stage, slot0, bids, passes)
        rounds_global = rows.astype(np.int64) + s0

        # Pricing pass.
        bid_at = bids[bidders]
        # Expected conversions under the stage's fixed allocation.
        e_convs = ctr_at * cvr_at
        clicked = np.flatnonzero(y)

        pay = np.zeros(y.shape)  # the hindsight rules are priced from the stage tables
        if self.mech.kind == "CFP":
            pay = cfp_payment(bid_at, y, cvr_at)
        elif self.mech.kind == "CPA_OFFLINE":
            pay = cpa_offline_payment(z, tcpa[bidders])
        elif self.online_dfp:
            # Expected-click suffix schedule, then clicks in (round, slot)
            # order through the controller.
            x_ctr = np.zeros((n_t, M))
            x_ctr[rows, bidders] = ctr_at
            suffix = np.vstack([np.cumsum(x_ctr[::-1], axis=0)[::-1][1:], np.zeros((1, M))])
            controller.begin_stage(x_ctr.sum(axis=0), (x_ctr * stage.cvr).sum(axis=0), bids, s0, n_t)
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
        weights = (None, y, z, ctr_at, e_convs, bid_at * e_convs, pay, stage.value[rows, bidders] * z)
        for k, w in enumerate(weights):
            self.tables[k, t] = np.bincount(bidders, weights=w, minlength=M)
        if self.oracle:
            # Each click pays its bidder's stage conversions * tcpa / clicks
            # (elementwise, so the same bits as pricing every stage at once),
            # and the stage's payments are that price times its clicks.
            clicks = self.named["stage_clicks"][t]
            price = stage_pacing_oracle(clicks, self.named["stage_conversions"][t], tcpa)
            pay[clicked] = price[bidders[clicked]]
            self.named["stage_payments"][t] = price * clicks
        if self.columns is not None:
            at = slice(self.filled, self.filled + rows.size)
            self.filled = at.stop
            for column, values in zip(self.columns, (rounds_global, t, bidders, slots, score, y, z, pay, bid_at)):
                column[at] = values
        else:
            self.out.write([rounds_global, np.full(rows.size, t), bidders, slots, score, y, z, pay, bid_at])
            self.clicked.append((bidders[clicked], pay[clicked]))
        if self.whole_run or self.oracle:
            return  # static bids

        # Boundary: conversions for stages <= t become visible, and each agent
        # sees its checkpoint ratio (None before its first conversion).
        visible = self.named["stage_conversions"][: t + 1].sum(axis=0)
        if self.online_dfp:
            controller.end_stage(visible)
        paid_cum = self.named["stage_payments"][: t + 1].sum(axis=0)
        ratio = np.divide(visible * tcpa, paid_cum, out=np.full(M, np.inf), where=paid_cum > 0)
        agents = self.agents
        self.bids = np.array([agents[m].stage_update(
            float(bids[m]), float(tcpa[m]), ratio[m] if visible[m] >= 1.0 else None, bool(paid_cum[m] > 0)
        ) for m in range(M)], dtype=np.float64)
        _check_bids(self.bids, f"stage_update at the end of stage {t}")

    def result(self) -> SimulationResult:
        """The finished run, after its last stage: a kept run with its rounds
        table, or a streamed one with its clicked rows (PACING_OFFLINE's
        priced and written first)."""
        rounds = clicked = None
        if self.columns is not None:
            # Withdrawals can leave rows unfilled: shrink each column to its
            # filled rows in place (a realloc, no copy). No view of a column exists.
            for column in self.columns:
                column.resize(self.filled, refcheck=False)
            rounds = RoundsTable(*self.columns)
            if self.whole_run:
                named = self.named
                _price_in_hindsight(rounds, named["stage_clicks"], named["stage_conversions"],
                                    named["stage_payments"], self.tcpa)
        if self.out is not None:
            if rounds is not None:
                self.out.write(self.columns)
                kept = np.flatnonzero(rounds.click)
                self.clicked.append((rounds.bidder[kept], rounds.payment[kept]))
                rounds = None
            bidders, pays = zip(*self.clicked)
            clicked = np.concatenate(bidders), np.concatenate(pays)
        return SimulationResult(
            mechanism=self.mech.label,
            stage_plan=self.plan,
            tcpa=self.tcpa.copy(),
            rounds=rounds,
            **self.named,
            bid_by_stage=self.bid_by_stage,
            final_bids=self.bids.copy(),
            withdrawn=(self.bids == 0.0),
            clicked=clicked,
        )


def _run_stages(steps: list[_Run], stages: Iterable[MarketStage]) -> None:
    """Advance every run through each stage before the next is read. The
    last stage's blocks, its slot-0 block and its passes are dropped with
    this frame, before the runs finish."""
    for stage in stages:
        slot0 = np.ascontiguousarray(stage.ctr[:, :, 0])
        passes: dict[bytes, tuple[np.ndarray, ...]] = {}
        for run in steps:
            run.step(stage, slot0, passes)


def run_lockstep(
    config: MarketConfig,
    tcpa: np.ndarray,
    stages: Iterable[MarketStage],
    runs: list[tuple[MechanismConfig, list[BidderAgent], OnlineController | None]],
    rounds_paths: Sequence[str | None] | None = None,
) -> list[SimulationResult]:
    """Run several mechanisms over one market in lockstep, a stage at a time.

    Every run goes through a stage before the next stage is read, so stages
    may be drawn as they are reached (``market.draw_stages``) and only one
    is needed at a time. The runs of a stage share its contiguous slot-0 ctr
    block and a local dict of outcome passes keyed by bid bytes (see
    ``_outcome_pass``), dropped with the stage. Each run's bits are those it
    has alone, since a pass depends only on the stage and the bids.

    A run given a rounds.csv path streams its rounds table: each stage's
    rows go to the file through one ``csvio.TableWriter`` as soon as their
    payments are final (PACING_OFFLINE's, priced over the whole run, after
    the last stage), with the bytes ``write_rounds_csv`` writes for the kept
    table. Memory then holds about one stage of rows per run, not whole
    tables. Every writer is closed when this returns or raises.

    Args:
        config: the market's config; tcpa its (M,) targets.
        stages: the market's stages in order, as ``MarketLog.stages`` or
            ``draw_stages`` gives them.
        runs: one (mechanism, agents, controller) per run, as
            ``run_auction`` takes them.
        rounds_paths: None (every run keeps its table), or one rounds.csv
            path or None per run.

    Returns:
        One SimulationResult per run, in order; a streamed run's has no
        rounds table and carries its clicked rows instead.
    """
    paths = [None] * len(runs) if rounds_paths is None else rounds_paths
    with ExitStack() as files:
        steps = [_Run(config, tcpa, *run, None if path is None else
                      files.enter_context(TableWriter(path, ROUNDS_CSV_HEADER)))
                 for run, path in zip(runs, paths, strict=True)]
        _run_stages(steps, stages)
        return [run.result() for run in steps]


def run_auction(
    market: MarketLog,
    mech: MechanismConfig,
    agents: list[BidderAgent],
    controller: OnlineController | None = None,
) -> SimulationResult:
    """Simulate every round of the market under one mechanism: the lockstep
    of one run over the log's stage views (``run_lockstep``).

    Per stage: the outcome pass (score -> allocate -> sample outcomes),
    then the pricing pass (pay -> accumulate); at each boundary conversions
    are released and (for CFP, CPA_OFFLINE, and online DFP) agents update
    bids from their cumulative checkpoint ratio conversions * tcpa /
    payments. The hindsight rules keep bids static: the DFP "oracle" is
    priced at each stage's end from the stage's own clicks and conversions,
    PACING_OFFLINE after the last stage from the whole run's.

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
    return run_lockstep(market.config, market.tcpa, market.stages(), [(mech, agents, controller)])[0]


def _price_in_hindsight(rounds: RoundsTable, clicks: np.ndarray, convs: np.ndarray, payments: np.ndarray,
                        tcpa: np.ndarray) -> None:
    """Price PACING_OFFLINE after its last stage, the one rule that needs
    the whole run: every click pays conversions * tcpa / clicks of its
    bidder over the run, from the (T, M) clicks and conversions tables, and
    the payments table sums each (stage, bidder)'s payments in round order.
    Fills rounds.payment and payments in place. (The DFP oracle is priced at
    each stage's end, in ``_Run.step``.)"""
    T, M = clicks.shape
    clicked = np.flatnonzero(rounds.click)
    stage, bidder = rounds.stage[clicked], rounds.bidder[clicked]
    rounds.payment[clicked] = pay = stage_pacing_oracle(clicks.sum(axis=0), convs.sum(axis=0), tcpa)[bidder]
    payments[:] = np.bincount(stage * M + bidder, weights=pay, minlength=T * M).reshape(T, M)


def write_rounds_csv(result: SimulationResult, path: str) -> None:
    """One row per displayed (round, slot), in round order, CHUNK_ROWS rows
    at a time (see ``csvio.write_table``), from a run that kept its rounds
    table; a streamed run wrote the same bytes as it went (``run_lockstep``)."""
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
