"""Engine invariants as properties over small generated markets.

The per-round reference in reference.py states the invariants one round at
a time; these properties hold the stage-vectorized engine's own output to
them, for every mechanism, on markets hypothesis generates. The online DFP
payers are also held bit for bit to the per-click reference forms there,
runs in lockstep over the stage-by-stage draw to runs alone on fresh logs,
that draw to the whole market, the stage tables to their recount from the
rounds log, summary.csv to the stage tables' per-bidder totals, and runs on
a market read back from its replay CSV to runs on the live market. Outcomes
are held to their address: the seed and the (round, bidder, slot) triple.
"""

import dataclasses
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    DebtController,
    MarketConfig,
    MechanismConfig,
    RiskAverseAgent,
    TruthfulAgent,
    checkpoint_ratio_table,
    generate_market,
    run_auction,
    sample_outcomes,
    stage_starts,
    write_market_csv,
)
from auctionlab import mechanisms
from auctionlab.controllers import DEFAULT_CAP_FACTOR, stage_pacing_oracle
from auctionlab.market import draw_stages, draw_tcpa, read_market_csv
from auctionlab.analysis import clicked_payments_by_bidder
from auctionlab.mechanisms import ROUNDS_CSV_HEADER, SUMMARY_CSV_HEADER, run_lockstep, write_rounds_csv, write_summary_csv
from auctionlab.nets import MLP
from auctionlab.ppo import FEATURE_DIM, GaussianPolicy, RLPaymentController
from reference import ROUNDS_COLUMNS, ReferenceRLController, online_dfp_reference

MECHANISMS = (
    MechanismConfig("CFP"),
    MechanismConfig("CPA_OFFLINE"),
    MechanismConfig("PACING_OFFLINE"),
    MechanismConfig("DFP", controller="debt"),
    MechanismConfig("DFP", controller="oracle"),
    MechanismConfig("DFP", controller="rl"),
)


@st.composite
def market_configs(draw):
    ctr_lo = draw(st.floats(0.05, 1.0))
    ctr_hi = draw(st.floats(ctr_lo, 1.0))
    cvr_hi = draw(st.floats(0.01, ctr_lo))
    plan = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    return MarketConfig(
        num_bidders=draw(st.integers(1, 5)),
        num_slots=draw(st.integers(1, 4)),
        stage_plan=plan,
        ctr_range=(ctr_lo, ctr_hi),
        cvr_range=(draw(st.floats(0.001, cvr_hi)), cvr_hi),
        tcpa_range=(0.5, draw(st.floats(0.5, 10.0))),
        seed=draw(st.integers(0, 2**32)),
    )


def _controller(mech, market):
    if mech.controller == "debt":
        return DebtController(market.tcpa)
    if mech.controller == "rl":
        rng = np.random.default_rng(0)
        policy = GaussianPolicy(MLP(FEATURE_DIM, (4,), 2, rng=rng))
        return RLPaymentController(policy, market.tcpa, collect=False)
    return None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(market_configs())
def test_engine_invariants_hold_for_every_mechanism(config):
    market = generate_market(config)
    results = {}
    for mech in MECHANISMS:
        agents = [TruthfulAgent() for _ in range(market.num_bidders)]
        results[mech.label] = run_auction(market, mech, agents, controller=_controller(mech, market))

    base = results["CFP"].rounds
    for label, result in results.items():
        r = result.rounds
        # A conversion needs a click, and clicks are 0 or 1.
        assert np.all(r.conversion <= r.click)
        assert np.all(np.isin(r.click, (0, 1)))
        # At most one bidder per (round, slot) and one slot per (round, bidder).
        assert np.unique(r.round * config.num_slots + r.slot).size == r.round.size
        assert np.unique(r.round * config.num_bidders + r.bidder).size == r.round.size
        assert np.all(r.slot < config.num_slots)
        # Every mechanism sees the same outcome stream.
        for column in ("round", "bidder", "slot", "click", "conversion"):
            np.testing.assert_array_equal(getattr(r, column), getattr(base, column), err_msg=label)
        assert np.all(r.payment >= 0.0), label
        assert np.all(r.payment[r.click == 0] == 0.0), label
        clicks = np.bincount(r.bidder, weights=r.click, minlength=config.num_bidders)
        np.testing.assert_array_equal(result.stage_clicks.sum(axis=0), clicks)
        # The stage payment table is the rounds log's payments per (stage, bidder).
        T, M = result.stage_payments.shape
        paid = np.bincount(r.stage * M + r.bidder, weights=r.payment, minlength=T * M).reshape(T, M)
        np.testing.assert_allclose(result.stage_payments, paid, rtol=1e-12, atol=0, err_msg=label)

    for label in ("CPA_OFFLINE", "DFP:oracle"):
        ratios = checkpoint_ratio_table(results[label]).ratio
        np.testing.assert_allclose(ratios, 1.0, rtol=0, atol=1e-12, err_msg=label)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_reference(result, reference):
    columns, bid_by_stage = reference
    for name in ROUNDS_COLUMNS:
        assert _same_bits(getattr(result.rounds, name), columns[name]), name
    assert _same_bits(result.bid_by_stage, bid_by_stage)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(market_configs(), st.sampled_from([(4,), (64, 64)]), st.booleans())
def test_online_dfp_matches_per_click_reference(config, hidden, risk_averse):
    market = generate_market(config)
    debt = MechanismConfig("DFP", controller="debt")
    rl = MechanismConfig("DFP", controller="rl")

    def agents():
        return [RiskAverseAgent() if risk_averse else TruthfulAgent() for _ in range(market.num_bidders)]

    result = run_auction(market, debt, agents(), DebtController(market.tcpa))
    _assert_matches_reference(result, online_dfp_reference(market, agents(), DebtController(market.tcpa)))

    net_rng = np.random.default_rng(config.seed)
    policy = GaussianPolicy(MLP(FEATURE_DIM, hidden, 2, rng=net_rng))
    critic = MLP(FEATURE_DIM, hidden, 1, rng=net_rng)

    def act_rng():
        return np.random.Generator(np.random.Philox(key=[config.seed, 12]))

    ctrl = RLPaymentController(policy, market.tcpa, rng=act_rng())
    ref = ReferenceRLController(policy, market.tcpa, rng=act_rng())
    result = run_auction(market, rl, agents(), ctrl)
    _assert_matches_reference(result, online_dfp_reference(market, agents(), ref))
    traj, ref_traj = ctrl.trajectory(critic), ref.trajectory(critic)
    for name in ("features", "actions_raw", "log_probs", "rewards", "values"):
        assert _same_bits(getattr(traj, name), getattr(ref_traj, name)), name
    assert traj.episode_lengths == ref_traj.episode_lengths
    assert _same_bits(ctrl.stage_true_errors, ref.stage_true_errors)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(market_configs(), st.booleans())
def test_evaluating_payer_pays_like_a_collecting_one(config, sampled):
    # collect=False only keeps no trajectory: the payments and the stage
    # errors are the collecting payer's, bit for bit, mean-acting or sampled.
    market = generate_market(config)
    net_rng = np.random.default_rng(config.seed)
    policy = GaussianPolicy(MLP(FEATURE_DIM, (4,), 2, rng=net_rng))
    critic = MLP(FEATURE_DIM, (4,), 1, rng=net_rng)

    def run(collect):
        rng = np.random.Generator(np.random.Philox(key=[config.seed, 12])) if sampled else None
        ctrl = RLPaymentController(policy, market.tcpa, rng=rng, collect=collect)
        agents = [TruthfulAgent() for _ in range(market.num_bidders)]
        return ctrl, run_auction(market, MechanismConfig("DFP", controller="rl"), agents, ctrl)

    (evaluating, result), (collecting, collected) = run(False), run(True)
    assert _same_bits(result.rounds.payment, collected.rounds.payment)
    assert _same_bits(evaluating.stage_true_errors, collecting.stage_true_errors)
    assert collecting.trajectory(critic).num_steps == int(collected.stage_clicks.sum())
    traj = evaluating.trajectory(critic)
    assert traj.num_steps == 0 and traj.episode_lengths == []


@settings(derandomize=True, max_examples=60, deadline=None)
@given(market_configs(), st.booleans(), st.sampled_from([0.05, 0.5, DEFAULT_CAP_FACTOR]))
def test_debt_payments_stay_within_cap(config, risk_averse, cap_factor):
    market = generate_market(config)
    agents = [RiskAverseAgent() if risk_averse else TruthfulAgent() for _ in range(market.num_bidders)]
    ctrl = DebtController(market.tcpa, cap_factor=cap_factor)
    r = run_auction(market, MechanismConfig("DFP", controller="debt"), agents, ctrl).rounds
    assert np.all(r.payment >= 0.0)
    assert np.all(r.payment <= cap_factor * market.tcpa[r.bidder])


SHARED_MECHANISMS = MECHANISMS[:5]  # every mechanism but the learned payer
STAGE_TABLES = (
    "stage_impressions", "stage_clicks", "stage_conversions", "stage_payments", "stage_expected_clicks",
    "stage_expected_conversions", "stage_expected_payments", "stage_value", "bid_by_stage",
)


def _assert_same_run(result, fresh, label):
    for name in ROUNDS_COLUMNS:
        assert _same_bits(getattr(result.rounds, name), getattr(fresh.rounds, name)), (label, name)
    for name in (*STAGE_TABLES, "final_bids", "withdrawn"):
        assert _same_bits(getattr(result, name), getattr(fresh, name)), (label, name)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(market_configs(), st.booleans())
def test_lockstep_runs_match_runs_on_fresh_markets(config, risk_averse):
    # Every mechanism, twice over, in one lockstep over the stage-by-stage
    # draw (so each stage's passes are shared between the twins) against
    # each run alone on a fresh log.
    def run(tcpa, mech):
        agents = [RiskAverseAgent() if risk_averse else TruthfulAgent() for _ in range(config.num_bidders)]
        return mech, agents, _controller(mech, SimpleNamespace(tcpa=tcpa))

    tcpa = draw_tcpa(config)
    with mock.patch.object(mechanisms, "sample_outcomes", wraps=mechanisms.sample_outcomes) as sampled:
        together = run_lockstep(config, tcpa, draw_stages(config), [run(tcpa, mech) for mech in SHARED_MECHANISMS * 2])
    for mech, result in zip(SHARED_MECHANISMS * 2, together):
        fresh = generate_market(config)
        _assert_same_run(result, run_auction(fresh, *run(fresh.tcpa, mech)), mech.label)
    # Each twin reads its pass from the other, so at most half are computed.
    assert 0 < sampled.call_count <= len(SHARED_MECHANISMS) * len(config.stage_plan)


class _WithdrawsAfterFirstStage:
    """Bids tcpa in the first stage, then 0: the later stages of a rule
    that updates bids display nothing."""

    def initial_bid(self, tcpa):
        return tcpa

    def stage_update(self, bid, tcpa, ratio, paid):
        return 0.0


class _NeverBids:
    """Bids 0 throughout: a run with no rows."""

    def initial_bid(self, tcpa):
        return 0.0

    def stage_update(self, bid, tcpa, ratio, paid):
        return 0.0


AGENTS = {"truthful": TruthfulAgent, "risk_averse": RiskAverseAgent, "withdraws": _WithdrawsAfterFirstStage,
          "never_bids": _NeverBids}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(market_configs(), st.sampled_from(sorted(AGENTS)))
def test_streamed_rounds_csv_is_the_kept_runs_table(config, agent):
    # Every mechanism twice in one lockstep, kept and streamed: the streamed
    # rounds.csv is write_rounds_csv of the kept table, byte for byte, and
    # the streamed result's clicked payments and stage tables are the kept
    # one's, bit for bit.
    def run(tcpa, mech):
        agents = [AGENTS[agent]() for _ in range(config.num_bidders)]
        return mech, agents, _controller(mech, SimpleNamespace(tcpa=tcpa))

    tcpa = draw_tcpa(config)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{i}.csv") for i in range(len(MECHANISMS))]
        results = run_lockstep(config, tcpa, draw_stages(config), [run(tcpa, mech) for mech in MECHANISMS * 2],
                               [None] * len(MECHANISMS) + paths)
        want = os.path.join(tmp, "kept.csv")
        for mech, kept, streamed, path in zip(MECHANISMS, results, results[len(MECHANISMS):], paths):
            assert kept.rounds is not None and streamed.rounds is None, mech.label
            write_rounds_csv(kept, want)
            with open(path, "rb") as got, open(want, "rb") as fh:
                text = got.read()
                assert text == fh.read(), mech.label
            if agent == "never_bids":
                assert text == f"{ROUNDS_CSV_HEADER}\n".encode(), mech.label
            pairs = list(zip(clicked_payments_by_bidder(kept), clicked_payments_by_bidder(streamed), strict=True))
            assert all(_same_bits(a, b) for a, b in pairs), mech.label
            for name in (*STAGE_TABLES, "final_bids", "withdrawn"):
                assert _same_bits(getattr(kept, name), getattr(streamed, name)), (mech.label, name)


@st.composite
def uneven_market_configs(draw):
    # Uneven plans, 1-round stages, and one slot or one bidder.
    return MarketConfig(
        num_bidders=draw(st.sampled_from([1, 2, 7])),
        num_slots=draw(st.sampled_from([1, 3])),
        stage_plan=tuple(draw(st.lists(st.sampled_from([1, 2, 5, 13]), min_size=1, max_size=6))),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(uneven_market_configs())
def test_stage_by_stage_draw_equals_the_whole_market(config):
    log = generate_market(config)
    assert draw_tcpa(config).tobytes() == log.tcpa.tobytes()
    stages = list(draw_stages(config))
    assert [(s.start, s.cvr.shape[0]) for s in stages] == list(zip(stage_starts(config.stage_plan).tolist(),
                                                                   config.stage_plan))
    for name in ("ctr", "cvr", "value"):
        drawn = np.concatenate([getattr(s, name) for s in stages])
        assert drawn.shape == getattr(log, name).shape and drawn.tobytes() == getattr(log, name).tobytes(), name


@settings(derandomize=True, max_examples=40, deadline=None)
@given(market_configs(), st.booleans())
def test_replayed_market_csv_runs_like_the_live_market(config, risk_averse):
    # write_market_csv then read_market_csv: every mechanism but the learned
    # payer gives the live market's rounds log and stage tables, bit for bit.
    def run(market, mech):
        agents = [RiskAverseAgent() if risk_averse else TruthfulAgent() for _ in range(market.num_bidders)]
        return run_auction(market, mech, agents, controller=_controller(mech, market))

    live = generate_market(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "market.csv")
        write_market_csv(live, path)
        replayed = read_market_csv(path, config.stage_plan, live.tcpa, seed=config.seed)
    for mech in SHARED_MECHANISMS:
        _assert_same_run(run(replayed, mech), run(live, mech), mech.label)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(market_configs(), st.booleans(), st.sampled_from([0.05, 0.5, DEFAULT_CAP_FACTOR]))
def test_debt_carry_is_visible_value_less_lifetime_payments(config, risk_averse, cap_factor):
    # At every feedback release, carry = visible * tcpa - paid_total per
    # bidder, with visible and paid_total recounted from the run's own log.
    market = generate_market(config)
    agents = [RiskAverseAgent() if risk_averse else TruthfulAgent() for _ in range(market.num_bidders)]
    ctrl = DebtController(market.tcpa, cap_factor=cap_factor)
    releases = []
    end_stage = ctrl.end_stage

    def recording_end_stage(visible):
        end_stage(visible)
        releases.append(list(zip(ctrl.carry, ctrl.visible, ctrl.paid_total)))

    ctrl.end_stage = recording_end_stage
    result = run_auction(market, MechanismConfig("DFP", controller="debt"), agents, ctrl)
    r = result.rounds
    assert len(releases) == len(config.stage_plan)
    for t, states in enumerate(releases):
        visible = result.stage_conversions[: t + 1].sum(axis=0)
        for m, (carry, seen, paid_total) in enumerate(states):
            # The controller adds each click's payment in round order from 0.0.
            paid = 0.0
            for p in r.payment[(r.stage <= t) & (r.bidder == m) & (r.click == 1)].tolist():
                paid += p
            assert seen == visible[m]
            assert paid_total == paid
            assert carry == visible[m] * market.tcpa[m] - paid


def _recount(r, T, M, weights):
    """Per-(stage, bidder) sums of one weight per rounds row, each bin in row order."""
    return np.bincount(r.stage * M + r.bidder, weights=weights, minlength=T * M).reshape(T, M)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(market_configs(), st.booleans())
def test_stage_tables_equal_their_recount_from_the_rounds_log(config, risk_averse):
    # Each of the eight stage tables, bit for bit, recounted from the rounds
    # log and the market. Payments are recounted from each rule's per-click
    # price where the rule has one; the oracle's table is per_click * clicks.
    market = generate_market(config)
    tcpa = market.tcpa
    for mech in MECHANISMS:
        agents = [RiskAverseAgent() if risk_averse else TruthfulAgent() for _ in range(market.num_bidders)]
        result = run_auction(market, mech, agents, controller=_controller(mech, market))
        r = result.rounds
        T, M = result.stage_payments.shape
        ctr = market.ctr[r.round, r.bidder, r.slot]
        e_convs = ctr * market.cvr[r.round, r.bidder]
        clicks = _recount(r, T, M, r.click)
        convs = _recount(r, T, M, r.conversion)
        per_click = stage_pacing_oracle(clicks, convs, tcpa[None, :])
        pay = {
            "CFP": r.bid * r.click * market.cvr[r.round, r.bidder],
            "CPA_OFFLINE": r.conversion * tcpa[r.bidder],
            "PACING_OFFLINE": stage_pacing_oracle(clicks.sum(axis=0), convs.sum(axis=0), tcpa)[r.bidder] * r.click,
            "DFP:oracle": per_click[r.stage, r.bidder] * r.click,
        }.get(mech.label, r.payment)
        assert _same_bits(r.payment, pay), mech.label
        want = {
            "stage_impressions": _recount(r, T, M, None).astype(np.float64),
            "stage_clicks": clicks,
            "stage_conversions": convs,
            "stage_expected_clicks": _recount(r, T, M, ctr),
            "stage_expected_conversions": _recount(r, T, M, e_convs),
            "stage_expected_payments": _recount(r, T, M, r.bid * e_convs),
            "stage_payments": per_click * clicks if mech.label == "DFP:oracle" else _recount(r, T, M, pay),
            "stage_value": _recount(r, T, M, market.value[r.round, r.bidder] * r.conversion),
        }
        for name, table in want.items():
            assert _same_bits(getattr(result, name), table), (mech.label, name)



@settings(derandomize=True, max_examples=40, deadline=None)
@given(market_configs(), st.booleans())
def test_summary_csv_holds_each_bidders_stage_table_totals(config, risk_averse):
    # All 12 columns, bit for bit: the bidder, tcpa and final bid; each stage
    # table's column summed on its own, the first three as integers; and
    # whether the bidder withdrew.
    market = generate_market(config)
    M = market.num_bidders
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "summary.csv")
        for mech in SHARED_MECHANISMS:
            agents = [RiskAverseAgent() if risk_averse else TruthfulAgent() for _ in range(M)]
            result = run_auction(market, mech, agents, controller=_controller(mech, market))
            write_summary_csv(result, path)
            with open(path, encoding="utf-8") as fh:
                header, *lines = fh.read().splitlines()
            assert header == SUMMARY_CSV_HEADER
            rows = [line.split(",") for line in lines]
            assert [len(row) for row in rows] == [12] * M, mech.label
            totals = [np.array([table[:, m].sum() for m in range(M)]) for table in (
                result.stage_impressions, result.stage_clicks, result.stage_conversions,
                result.stage_expected_clicks, result.stage_expected_conversions,
                result.stage_expected_payments, result.stage_payments, result.stage_value,
            )]
            counts = [t.astype(np.int64) for t in totals[:3]]
            assert all(np.array_equal(c, t) for c, t in zip(counts, totals[:3])), mech.label
            want = [np.arange(M), result.tcpa, result.final_bids, *counts, *totals[3:],
                    result.withdrawn.astype(np.int64)]
            for name, cells, column in zip(header.split(","), zip(*rows), want):
                parse = int if column.dtype.kind == "i" else float
                assert _same_bits(np.array([parse(c) for c in cells], dtype=column.dtype), column), (mech.label, name)

@settings(derandomize=True, max_examples=60, deadline=None)
@given(market_configs(), st.data())
def test_outcomes_are_addressed_by_seed_and_triple_alone(config, data):
    # Any subset of the grid, in any order and split over two calls, draws
    # what the full grid draws at those triples.
    log = generate_market(config)
    grid = np.indices((config.num_rounds, config.num_bidders, config.num_slots)).reshape(3, -1)
    full = np.stack(sample_outcomes(log, *grid))
    size = grid.shape[1]
    count = data.draw(st.integers(1, size))
    take = np.random.default_rng(data.draw(st.integers(0, 2**32))).permutation(size)[:count]
    cut = data.draw(st.integers(0, count))
    parts = [np.stack(sample_outcomes(log, *grid[:, part])) for part in (take[:cut], take[cut:])]
    assert np.array_equal(np.concatenate(parts, axis=1), full[:, take])
    if size >= 64:
        # The same rates under another seed draw other outcomes somewhere;
        # rates of one half keep every triple's outcome open.
        half = dataclasses.replace(log, ctr=np.full_like(log.ctr, 0.5), cvr=np.full_like(log.cvr, 0.5))
        reseeded = dataclasses.replace(half, config=dataclasses.replace(config, seed=config.seed + 1))
        assert not np.array_equal(np.stack(sample_outcomes(half, *grid)), np.stack(sample_outcomes(reseeded, *grid)))
