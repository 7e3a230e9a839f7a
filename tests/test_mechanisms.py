"""Payment formulas, allocation, and the stage-vectorized simulation engine."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from pathlib import Path

from auctionlab import (
    ConfigError,
    ContractViolation,
    DebtController,
    MarketConfig,
    MechanismConfig,
    RiskAverseAgent,
    TruthfulAgent,
    generate_market,
    run_auction,
    stage_pacing_oracle,
)
from auctionlab import csvio, mechanisms
from auctionlab.csvio import CHUNK_ROWS
from auctionlab.mechanisms import (
    ROUNDS_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    _stage_allocation,
    cfp_payment,
    cpa_offline_payment,
    ranking_score,
    run_lockstep,
    write_rounds_csv,
    write_summary_csv,
)
from reference import rank_and_allocate, sample_round, stage_of
from test_csvio import reference_write


def _market(**kw):
    base = dict(
        num_bidders=4,
        num_slots=2,
        stage_plan=(20, 20, 20),
        ctr_range=(0.4, 0.9),
        cvr_range=(0.1, 0.2),
        value_range=(1.0, 3.0),
        tcpa_range=(1.0, 4.0),
        seed=11,
    )
    base.update(kw)
    return generate_market(MarketConfig(**base))


def _truthful(market):
    return [TruthfulAgent() for _ in range(market.num_bidders)]


def test_payment_formula_values():
    assert ranking_score(2.0, 0.3, 0.05) == pytest.approx(0.03, abs=1e-17)
    assert cfp_payment(2.0, 1, 0.05) == 0.1
    assert cfp_payment(2.0, 0, 0.05) == 0.0
    assert cpa_offline_payment(1, 2.0) == 2.0
    assert cpa_offline_payment(0, 2.0) == 0.0
    # Offline pacing prices a click with the stage oracle's formula over the whole run.
    assert stage_pacing_oracle(100, 10, 2.0)[0] == 0.2
    assert stage_pacing_oracle(0, 5, 2.0)[0] == 0.0
    # The rules broadcast, as the engine calls them on whole stages.
    np.testing.assert_array_equal(cfp_payment(np.array([2.0, 2.0]), np.array([1, 0]), 0.05), [0.1, 0.0])
    np.testing.assert_array_equal(cpa_offline_payment(np.array([1, 0]), np.array([2.0, 3.0])), [2.0, 0.0])


def test_rank_and_allocate_order_and_ties():
    x = rank_and_allocate(np.array([3.0, 1.0, 2.0]), 2)
    assert x[0, 0] == 1 and x[2, 1] == 1 and x.sum() == 2
    # Ties go to the lowest bidder index.
    x = rank_and_allocate(np.array([2.0, 2.0, 1.0]), 2)
    assert x[0, 0] == 1 and x[1, 1] == 1
    # Zero or negative scores never win a slot.
    assert rank_and_allocate(np.array([0.0, -1.0]), 2).sum() == 0
    x = rank_and_allocate(np.array([1.0, 0.0, -1.0]), 3)
    assert x[0, 0] == 1 and x.sum() == 1
    # More slots than bidders.
    assert rank_and_allocate(np.array([1.0, 2.0]), 5).sum() == 2


def test_stage_allocation_matches_scalar_rule():
    rng = np.random.Generator(np.random.PCG64(3))
    scores = rng.uniform(-0.2, 1.0, size=(50, 6))
    winner, valid = _stage_allocation(scores, 3)
    for n in range(50):
        x = rank_and_allocate(scores[n], 3)
        ref = np.zeros((6, 3), dtype=np.uint8)
        for k in range(3):
            if valid[n, k]:
                ref[winner[n, k], k] = 1
        np.testing.assert_array_equal(x, ref)


def _allocation_matrix(winner, valid, n, num_bidders, num_slots):
    x = np.zeros((num_bidders, num_slots), dtype=np.uint8)
    for k in range(winner.shape[1]):
        if valid[n, k]:
            x[winner[n, k], k] = 1
    return x


# Few distinct values force ties; zeros (either sign) and negatives never win.
_SCORES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]) | st.floats(-1.0, 3.0, width=16)


@st.composite
def _score_blocks(draw):
    rounds = draw(st.integers(1, 12))
    bidders = draw(st.integers(1, 7))
    scores = draw(arrays(np.float64, (rounds, bidders), elements=_SCORES))
    return scores, draw(st.integers(1, bidders + 2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_score_blocks())
@example((np.array([[2.0, 2.0, 2.0], [1.0, 0.0, 1.0], [-1.0, 0.0, -0.0]]), 3))  # K == M
@example((np.array([[1.0, 3.0], [0.0, 1.0], [0.0, 0.0]]), 4))  # K > M
def test_stage_allocation_matches_reference_on_ties(block):
    scores, num_slots = block
    before = scores.copy()
    winner, valid = _stage_allocation(scores, num_slots)
    rounds, bidders = scores.shape
    assert winner.shape == valid.shape == (rounds, min(num_slots, bidders))
    assert np.array_equal(scores, before)
    for n in range(rounds):
        np.testing.assert_array_equal(
            _allocation_matrix(winner, valid, n, bidders, num_slots), rank_and_allocate(scores[n], num_slots)
        )


def _monotonicity_violations(rule, samples=2000, seed=0):
    """Sampled (ctr, cvr, b1 <= b2) triples where the score falls as the bid rises."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 97]))
    ctr = rng.uniform(0.05, 1.0, samples)
    cvr = rng.uniform(0.001, 0.05, samples)
    b1 = rng.uniform(0.0, 20.0, samples)
    b2 = b1 + rng.uniform(0.0, 20.0, samples)
    return int(np.sum(rule(b2, ctr, cvr) < rule(b1, ctr, cvr)))


def test_ranking_score_is_monotone_in_bid():
    assert _monotonicity_violations(ranking_score) == 0
    assert _monotonicity_violations(lambda b, ctr, cvr: -b) > 0


def test_mechanism_config_validation_and_labels():
    assert MechanismConfig("CFP").label == "CFP"
    assert MechanismConfig("DFP", controller="debt").label == "DFP:debt"
    assert MechanismConfig("DFP", controller="oracle").label == "DFP:oracle"
    with pytest.raises(ConfigError):
        MechanismConfig("SECOND_PRICE")
    with pytest.raises(ConfigError):
        MechanismConfig("DFP")
    with pytest.raises(ConfigError):
        MechanismConfig("CFP", controller="debt")


def test_single_round_cfp_composition():
    market = generate_market(
        MarketConfig(
            num_bidders=1,
            num_slots=1,
            stage_plan=(1,),
            ctr_range=(1.0, 1.0),
            cvr_range=(0.05, 0.05),
            value_range=(1.0, 1.0),
            tcpa_range=(2.0, 2.0),
            seed=0,
        )
    )
    result = run_auction(market, MechanismConfig("CFP"), _truthful(market))
    assert result.stage_clicks[:, 0].sum() == 1
    assert result.stage_payments[:, 0].sum() == 0.1
    assert result.rounds.payment[0] == 0.1


def _reference_cfp(market, bid_by_stage=None):
    """Per-round scalar re-simulation of a CFP run: truthful, or under each
    stage's given bids."""
    cfg = market.config
    M, K, T = cfg.num_bidders, cfg.num_slots, len(cfg.stage_plan)
    if bid_by_stage is None:
        bid_by_stage = np.tile(market.tcpa, (T, 1))
    clicks = np.zeros((T, M))
    convs = np.zeros((T, M))
    pays = np.zeros((T, M))
    e_clicks = np.zeros((T, M))
    value = np.zeros((T, M))
    flat = []
    for n in range(cfg.num_rounds):
        t = stage_of(n, cfg.stage_plan)
        bids = bid_by_stage[t]
        scores = np.array(
            [ranking_score(bids[m], market.ctr[n, m, 0], market.cvr[n, m]) for m in range(M)]
        )
        x = rank_and_allocate(scores, K)
        out = sample_round(market, n, x)
        for k in range(K):
            holders = np.nonzero(x[:, k])[0]
            if holders.size == 0:
                continue
            m = int(holders[0])
            y = int(out.click[m, k])
            z = int(out.conversion[m, k])
            p = cfp_payment(float(bids[m]), y, float(market.cvr[n, m]))
            clicks[t, m] += y
            convs[t, m] += z
            pays[t, m] += p
            e_clicks[t, m] += market.ctr[n, m, k]
            value[t, m] += market.value[n, m] * z
            flat.append((n, t, m, k, float(scores[m]), y, z, p, float(bids[m])))
    return clicks, convs, pays, e_clicks, value, flat


def test_engine_matches_per_round_reference():
    market = _market(seed=17)
    result = run_auction(market, MechanismConfig("CFP"), _truthful(market))
    clicks, convs, pays, e_clicks, value, flat = _reference_cfp(market)
    np.testing.assert_array_equal(result.stage_clicks, clicks)
    np.testing.assert_array_equal(result.stage_conversions, convs)
    np.testing.assert_allclose(result.stage_payments, pays, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.stage_expected_clicks, e_clicks, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.stage_value, value, rtol=0, atol=1e-12)
    r = result.rounds
    assert r.round.size == len(flat)
    for i, (n, t, m, k, score, y, z, p, b) in enumerate(flat):
        assert (int(r.round[i]), int(r.stage[i]), int(r.bidder[i]), int(r.slot[i])) == (n, t, m, k)
        assert (int(r.click[i]), int(r.conversion[i])) == (y, z)
        assert r.score[i] == pytest.approx(score, abs=1e-15)
        assert r.payment[i] == pytest.approx(p, abs=1e-15)
        assert r.bid[i] == b


class _WithdrawsAfterFirstStage:
    """Bids tcpa in the first stage, then withdraws (bids 0) for good."""

    def initial_bid(self, tcpa):
        return tcpa

    def stage_update(self, bid, tcpa, ratio, paid):
        return 0.0


def test_rounds_table_of_a_run_with_short_stages_matches_the_reference():
    # Two bidders, two slots: the first stage shows both slots of every
    # round, the later ones only the remaining bidder's, so the run fills 80
    # of the 120 rows it can display.
    market = _market(num_bidders=2, seed=19)
    result = run_auction(market, MechanismConfig("CFP"), [TruthfulAgent(), _WithdrawsAfterFirstStage()])
    np.testing.assert_array_equal(result.bid_by_stage[1:, 1], 0.0)
    *_, flat = _reference_cfp(market, result.bid_by_stage)
    assert len(flat) == 20 * 2 + 40 < market.num_rounds * 2
    r = result.rounds
    want = [np.array(column) for column in zip(*flat)]
    dtypes = (np.int64,) * 4 + (np.float64, np.uint8, np.uint8, np.float64, np.float64)
    for name, dtype, column in zip(ROUNDS_CSV_HEADER.split(","), dtypes, want):
        got = getattr(r, name)
        assert got.dtype == dtype and got.flags.c_contiguous and got.shape == (len(flat),), name
        np.testing.assert_allclose(got, column, rtol=0, atol=1e-15, err_msg=name)


def _traced_peak_over_kept_bytes(market, agents):
    """run_auction's tracemalloc peak above its start, over the rounds
    table's bytes plus 22 bytes a displayed row: an outcome pass's 3 int32
    columns, float64 score and 2 uint8 outcomes, as if every stage's pass
    were kept (the engine keeps each only while its stage runs)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run_auction(market, MechanismConfig("CFP"), agents)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    r = result.rounds
    table = sum(getattr(r, name).nbytes for name in ROUNDS_CSV_HEADER.split(","))
    return peak / (table + r.round.size * (3 * 4 + 8 + 2)), r.round.size


@pytest.mark.parametrize("agent,rows,bound", [
    (TruthfulAgent, 27_900, 1.3),  # every round fills its 5 slots
    (RiskAverseAgent, 21_420, 1.5),  # bidders withdraw; unfilled rows are allocated but not kept
])
def test_run_auction_holds_the_rounds_table_once(agent, rows, bound):
    # At 50 bidders, 31 stages of 180 rounds and desk's rate ranges, this
    # ratio measured 0.92 (full) and 1.20 (withdrawals). Stage row tuples
    # concatenated at the end read 1.70 and 1.72, and copying a short
    # table's filled rows would read above 2.
    market = generate_market(MarketConfig(
        num_bidders=50, num_slots=5, stage_plan=(180,) * 31, ctr_range=(0.3, 0.9),
        cvr_range=(0.05, 0.15), value_range=(1.0, 5.0), tcpa_range=(1.0, 10.0), seed=0,
    ))
    ratio, displayed = _traced_peak_over_kept_bytes(market, [agent() for _ in range(50)])
    assert displayed == rows
    assert ratio <= bound, f"traced peak is {ratio:.3f} x the kept bytes"


_DESK_MECHANISMS = (MechanismConfig("CFP"), MechanismConfig("CPA_OFFLINE"), MechanismConfig("PACING_OFFLINE"),
                    MechanismConfig("DFP", controller="debt"), MechanismConfig("DFP", controller="oracle"))


@pytest.mark.parametrize("agent,bound", [
    (TruthfulAgent, 1.5),  # every round fills its 5 slots
    (RiskAverseAgent, 2.0),  # bidders withdraw: a smaller table, the same per-stage work
])
def test_streamed_lockstep_holds_about_a_stage_of_rows(tmp_path, agent, bound):
    # Four of desk's mechanisms (all but PACING_OFFLINE, which holds its table
    # until it is priced) stream their rounds.csv over 31 stages of 180
    # rounds at 50 bidders. Their traced peak over one kept run's table
    # bytes measured 1.21 (full) and 1.61 (withdrawals); kept, the four
    # tables alone are 4.
    market = generate_market(MarketConfig(
        num_bidders=50, num_slots=5, stage_plan=(180,) * 31, ctr_range=(0.3, 0.9),
        cvr_range=(0.05, 0.15), value_range=(1.0, 5.0), tcpa_range=(1.0, 10.0), seed=0,
    ))
    mechs = [mech for mech in _DESK_MECHANISMS if mech.kind != "PACING_OFFLINE"]

    def runs():
        return [(mech, [agent() for _ in range(50)], DebtController(market.tcpa) if mech.controller == "debt" else None)
                for mech in mechs]

    kept = run_auction(market, MechanismConfig("CFP"), [agent() for _ in range(50)]).rounds
    table = sum(getattr(kept, name).nbytes for name in ROUNDS_CSV_HEADER.split(","))
    paths = [str(tmp_path / f"{i}.csv") for i in range(len(mechs))]
    csvio._ryu_tables()  # the float kernel's tables, built once per process, outside the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        streamed = run_lockstep(market.config, market.tcpa, market.stages(), runs(), paths)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(result.rounds is None for result in streamed)
    assert peak / table <= bound, f"traced peak is {peak / table:.3f} x one kept table"


def test_oracle_priced_at_each_stage_end_keeps_the_whole_run_bits():
    # The oracle's price, conversions * tcpa / clicks, is elementwise, so
    # pricing each stage at its end gives the bits of pricing the whole
    # (T, M) tables after the last stage: each click's payment, and the
    # payments table as price * clicks.
    market = _market(num_bidders=6, num_slots=3, stage_plan=(40, 1, 25, 60), seed=37)
    result = run_auction(market, MechanismConfig("DFP", controller="oracle"), [RiskAverseAgent() for _ in range(6)])
    r = result.rounds
    price = stage_pacing_oracle(result.stage_clicks, result.stage_conversions, market.tcpa)
    clicked = np.flatnonzero(r.click)
    want = np.zeros(r.payment.shape)
    want[clicked] = price[r.stage[clicked], r.bidder[clicked]]
    assert clicked.size and r.payment.tobytes() == want.tobytes()
    assert result.stage_payments.tobytes() == (price * result.stage_clicks).tobytes()


class _NanAtStage2:
    """Bids tcpa, then a NaN bid for stage 2 (from its second update)."""

    def __init__(self):
        self.updates = 0

    def initial_bid(self, tcpa):
        return tcpa

    def stage_update(self, bid, tcpa, ratio, paid):
        self.updates += 1
        return float("nan") if self.updates == 2 else bid


def test_a_nan_bid_in_a_streamed_lockstep_closes_every_writer(tmp_path, monkeypatch):
    opened = []

    class Recording(mechanisms.TableWriter):
        def __init__(self, *args):
            super().__init__(*args)
            opened.append(self)

    monkeypatch.setattr(mechanisms, "TableWriter", Recording)
    market = _market(seed=43)
    runs = [(mech, _truthful(market) if mech.kind == "PACING_OFFLINE" else [_NanAtStage2() for _ in range(4)],
             DebtController(market.tcpa) if mech.controller == "debt" else None) for mech in _DESK_MECHANISMS]
    paths = [str(tmp_path / f"{i}.csv") for i in range(len(runs))]
    with pytest.raises(ContractViolation, match="non-finite bid nan from stage_update at the end of stage 1"):
        run_lockstep(market.config, market.tcpa, market.stages(), runs, paths)
    assert len(opened) == len(runs) and all(writer._fh.closed for writer in opened)


def test_outcome_stream_invariant_across_mechanisms():
    market = _market(seed=23)
    runs = [
        run_auction(market, MechanismConfig("CFP"), _truthful(market)),
        run_auction(market, MechanismConfig("CPA_OFFLINE"), _truthful(market)),
        run_auction(market, MechanismConfig("PACING_OFFLINE"), _truthful(market)),
        run_auction(market, MechanismConfig("DFP", controller="debt"), _truthful(market), DebtController(market.tcpa)),
        run_auction(market, MechanismConfig("DFP", controller="oracle"), _truthful(market)),
    ]
    base = runs[0].rounds
    for other in runs[1:]:
        np.testing.assert_array_equal(base.click, other.rounds.click)
        np.testing.assert_array_equal(base.conversion, other.rounds.conversion)
        np.testing.assert_array_equal(base.bidder, other.rounds.bidder)
        np.testing.assert_array_equal(base.round, other.rounds.round)


def test_cfp_pays_bid_times_cvr_on_clicks():
    market = _market(seed=29)
    result = run_auction(market, MechanismConfig("CFP"), _truthful(market))
    r = result.rounds
    cvr_at = market.cvr[r.round, r.bidder]
    np.testing.assert_allclose(r.payment, r.click * r.bid * cvr_at, rtol=0, atol=0)


def test_cpa_offline_pays_tcpa_per_conversion():
    market = _market(seed=31)
    result = run_auction(market, MechanismConfig("CPA_OFFLINE"), _truthful(market))
    r = result.rounds
    np.testing.assert_array_equal(r.payment, r.conversion * market.tcpa[r.bidder])
    np.testing.assert_allclose(
        result.stage_payments, result.stage_conversions * market.tcpa[None, :], rtol=0, atol=0
    )


def test_pacing_offline_constant_per_click_price():
    market = _market(seed=37)
    result = run_auction(market, MechanismConfig("PACING_OFFLINE"), _truthful(market))
    r = result.rounds
    assert np.all(r.payment[r.click == 0] == 0)
    for m in range(market.num_bidders):
        mine = (r.bidder == m) & (r.click == 1)
        if not mine.any():
            continue
        prices = np.unique(r.payment[mine])
        assert prices.size == 1
        total_z = r.conversion[mine].sum()
        assert r.payment[mine].sum() == pytest.approx(total_z * market.tcpa[m], abs=1e-9)
    # Stage payment table was repriced consistently with the rounds table.
    for t in range(result.num_stages):
        in_stage = r.stage == t
        for m in range(market.num_bidders):
            mine = in_stage & (r.bidder == m)
            assert result.stage_payments[t, m] == pytest.approx(r.payment[mine].sum(), abs=1e-12)


def test_oracle_settles_each_stage_exactly():
    market = _market(seed=41)
    result = run_auction(market, MechanismConfig("DFP", controller="oracle"), _truthful(market))
    target = result.stage_conversions * market.tcpa[None, :]
    has_clicks = result.stage_clicks > 0
    np.testing.assert_allclose(
        result.stage_payments[has_clicks], target[has_clicks], rtol=0, atol=1e-12
    )
    assert np.all(result.stage_payments[~has_clicks] == 0)


def test_debt_run_respects_budget_identity():
    market = _market(seed=43)
    ctrl = DebtController(market.tcpa)
    result = run_auction(market, MechanismConfig("DFP", controller="debt"), _truthful(market), ctrl)
    assert np.all(result.rounds.payment >= 0)
    assert np.all(result.rounds.payment[result.rounds.click == 0] == 0)
    # Payments only move through the controller's clamp, never above the cap.
    assert np.all(result.rounds.payment <= 10 * market.tcpa[result.rounds.bidder] + 1e-12)


class _NegativeController:
    def begin_stage(self, expected_clicks, expected_conversions, bids, stage_start, stage_len):
        pass

    def on_click(self, bidder, round_index, cvr, expected_remaining_clicks):
        return -1.0

    def end_stage(self, visible_conversions):
        pass


class _RecordingAgent:
    """Truthful bidder that logs every stage_update call."""

    def __init__(self):
        self.calls = []

    def initial_bid(self, tcpa):
        return tcpa

    def stage_update(self, bid, tcpa, ratio, paid):
        self.calls.append((bid, tcpa, ratio, paid))
        return bid


def test_negative_controller_payment_rejected():
    market = _market(seed=47, ctr_range=(0.9, 0.9), cvr_range=(0.1, 0.1))
    with pytest.raises(ContractViolation):
        run_auction(
            market, MechanismConfig("DFP", controller="debt"), _truthful(market), _NegativeController()
        )


class _ConstantController(_NegativeController):
    def __init__(self, payment):
        self.payment = payment

    def on_click(self, bidder, round_index, cvr, expected_remaining_clicks):
        return self.payment


@pytest.mark.parametrize("payment", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_controller_payment_rejected(payment):
    market = _market(seed=47, ctr_range=(0.9, 0.9), cvr_range=(0.1, 0.1))
    with pytest.raises(ContractViolation, match="non-finite"):
        run_auction(
            market, MechanismConfig("DFP", controller="debt"), _truthful(market), _ConstantController(payment)
        )


class _NonFiniteBidAgent:
    """Truthful, except that initial_bid or stage_update returns a fixed bid."""

    def __init__(self, bid, source):
        self.bid, self.source = bid, source

    def initial_bid(self, tcpa):
        return self.bid if self.source == "initial_bid" else tcpa

    def stage_update(self, bid, tcpa, ratio, paid):
        return self.bid if self.source == "stage_update" else bid


@pytest.mark.parametrize("kind,bid,source,where", [
    ("CFP", float("nan"), "initial_bid", "initial_bid for stage 0"),
    ("CFP", float("inf"), "initial_bid", "initial_bid for stage 0"),
    ("PACING_OFFLINE", float("nan"), "initial_bid", "initial_bid for stage 0"),
    ("CFP", float("nan"), "stage_update", "stage_update at the end of stage 0"),
    ("CFP", float("inf"), "stage_update", "stage_update at the end of stage 0"),
    ("CPA_OFFLINE", float("-inf"), "stage_update", "stage_update at the end of stage 0"),
])
def test_non_finite_bid_rejected(kind, bid, source, where):
    market = _market(seed=29)
    agents = _truthful(market)
    agents[2] = _NonFiniteBidAgent(bid, source)
    with pytest.raises(ContractViolation, match=f"bidder 2 returned a non-finite bid {bid!r} from {where}$"):
        run_auction(market, MechanismConfig(kind), agents)


def test_online_dfp_requires_controller_instance():
    market = _market()
    with pytest.raises(ContractViolation):
        run_auction(market, MechanismConfig("DFP", controller="debt"), _truthful(market))


def test_agent_count_mismatch_rejected():
    market = _market()
    with pytest.raises(ContractViolation):
        run_auction(market, MechanismConfig("CFP"), [TruthfulAgent()])


def test_stage_update_feed_matches_checkpoint_accounting():
    market = _market(seed=53)
    agents = [_RecordingAgent() for _ in range(market.num_bidders)]
    result = run_auction(market, MechanismConfig("CFP"), agents)
    for m, agent in enumerate(agents):
        assert len(agent.calls) == result.num_stages
        for t, (bid, tcpa, ratio, paid) in enumerate(agent.calls):
            visible = result.stage_conversions[: t + 1, m].sum()
            paid_cum = result.stage_payments[: t + 1, m].sum()
            assert tcpa == market.tcpa[m]
            assert paid == (paid_cum > 0)
            if visible < 1:
                assert ratio is None
            elif paid_cum == 0:
                assert ratio == np.inf
            else:
                assert ratio == pytest.approx(visible * tcpa / paid_cum, abs=1e-15)


@pytest.mark.parametrize("mech", [
    MechanismConfig("PACING_OFFLINE"),
    MechanismConfig("DFP", controller="oracle"),
    MechanismConfig("CFP"),
    MechanismConfig("CPA_OFFLINE"),
    MechanismConfig("DFP", controller="debt"),
], ids=lambda mech: mech.label)
def test_hindsight_rules_keep_bids_static_and_online_rules_update_each_stage(mech):
    # The hindsight rules are priced after the last stage, so their agents
    # are never asked for a bid update; the online rules ask once per stage.
    dynamic = mech.label not in ("PACING_OFFLINE", "DFP:oracle")
    market = _market(seed=61)
    agents = [_RecordingAgent() for _ in range(market.num_bidders)]
    controller = DebtController(market.tcpa) if mech.controller == "debt" else None
    result = run_auction(market, mech, agents, controller)
    assert all(len(agent.calls) == (result.num_stages if dynamic else 0) for agent in agents)
    if not dynamic:
        np.testing.assert_array_equal(result.bid_by_stage, np.tile(market.tcpa, (result.num_stages, 1)))


def test_withdrawn_flags_zero_final_bids(tmp_path):
    market = _market(seed=59)

    class ZeroAgent:
        def initial_bid(self, tcpa):
            return 0.0

        def stage_update(self, bid, tcpa, ratio, paid):
            return bid

    result = run_auction(market, MechanismConfig("CFP"), [ZeroAgent() for _ in range(4)])
    assert result.withdrawn.all()
    assert result.rounds.round.size == 0
    write_rounds_csv(result, str(tmp_path / "rounds.csv"))  # a table with no rows is its header alone
    assert (tmp_path / "rounds.csv").read_text() == ROUNDS_CSV_HEADER + "\n"
    truthful = run_auction(market, MechanismConfig("CFP"), _truthful(market))
    assert not truthful.withdrawn.any()


def test_lockstep_shares_the_opening_passes_across_the_five_desk_mechanisms(tmp_path, monkeypatch):
    # desk's mechanisms and agents, run in lockstep over one market and each
    # alone on a fresh one: sharing the stages' passes must not change a byte.
    config = dict(num_bidders=10, num_slots=5, stage_plan=(3500, 3500, 500, 500), seed=3)
    market = _market(**config)
    mechs = [MechanismConfig("CFP"), MechanismConfig("CPA_OFFLINE"), MechanismConfig("PACING_OFFLINE"),
             MechanismConfig("DFP", controller="debt"), MechanismConfig("DFP", controller="oracle")]

    def run(log, mech):
        return mech, [RiskAverseAgent() for _ in range(10)], DebtController(log.tcpa) if mech.controller == "debt" else None

    passes = []  # (stage start, bid bytes, the pass) per run and stage
    real = mechanisms._outcome_pass

    def recording(stage, slot0, bids, shared):
        outcome = real(stage, slot0, bids, shared)
        passes.append((stage.start, bids.tobytes(), outcome))
        return outcome

    monkeypatch.setattr(mechanisms, "_outcome_pass", recording)
    together = run_lockstep(market.config, market.tcpa, market.stages(), [run(market, mech) for mech in mechs])
    monkeypatch.undo()
    for i, (mech, result) in enumerate(zip(mechs, together)):
        fresh = _market(**config)
        alone = run_auction(fresh, *run(fresh, mech))
        paths = [tmp_path / f"{i}_together.csv", tmp_path / f"{i}_alone.csv"]
        for r, path in zip((result, alone), paths):
            write_rounds_csv(r, str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes(), mech.label
    # Runs of a stage that bid the same get the same pass, its arrays
    # read-only: all five at the opening bids, tCPA, in stage 0, and the two
    # hindsight rules, which keep those bids, in every stage.
    assert [start for start, _, _ in passes] == [s for s in (0, 3500, 7000, 7500) for _ in mechs]
    opening = market.tcpa.tobytes()
    for start in (0, 3500, 7000, 7500):
        stage = [(key, outcome) for s, key, outcome in passes if s == start]
        for key, outcome in stage:
            assert len(outcome) == 8 and not any(column.flags.writeable for column in outcome), start
            assert all(o is outcome for k, o in stage if k == key), start
        assert stage[2][0] == stage[4][0] == opening and stage[2][1] is stage[4][1], start
    assert all(key == opening for start, key, _ in passes if start == 0)


@pytest.mark.parametrize("mech", [
    MechanismConfig("CFP"), MechanismConfig("PACING_OFFLINE"), MechanismConfig("DFP", controller="oracle"),
], ids=lambda mech: mech.label)
def test_rounds_csv_chunks_that_cross_stage_edges_write_the_reference_bytes(tmp_path, mech):
    # Every round fills its 3 slots: 36,000 rows in three stages, so the
    # writer's chunk edges (rows 16,384 and 32,768) fall inside stages 1
    # and 2, and the stage edges (rows 15,000 and 27,000) inside chunks.
    market = _market(num_bidders=6, num_slots=3, stage_plan=(5000, 4000, 3000), seed=17)
    result = run_auction(market, mech, _truthful(market))
    r = result.rounds
    assert r.round.size == 36_000 > 2 * CHUNK_ROWS
    for edge in (CHUNK_ROWS, 2 * CHUNK_ROWS):
        assert r.stage[edge - 1] == r.stage[edge] > 0
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_rounds_csv(result, str(got))
    reference_write(str(want), ROUNDS_CSV_HEADER, [getattr(r, name) for name in ROUNDS_CSV_HEADER.split(",")])
    assert got.read_bytes() == want.read_bytes()


def test_rounds_and_summary_csv(tmp_path):
    market = _market(seed=61)
    result = run_auction(market, MechanismConfig("CFP"), _truthful(market))
    rounds_path = str(tmp_path / "rounds.csv")
    summary_path = str(tmp_path / "summary.csv")
    write_rounds_csv(result, rounds_path)
    write_summary_csv(result, summary_path)

    lines = Path(rounds_path).read_text().splitlines()
    assert lines[0] == ROUNDS_CSV_HEADER
    assert len(lines) == 1 + result.rounds.round.size
    fields = lines[1].split(",")
    assert int(fields[0]) == result.rounds.round[0]
    assert float(fields[7]) == result.rounds.payment[0]

    lines = Path(summary_path).read_text().splitlines()
    assert lines[0] == SUMMARY_CSV_HEADER
    assert len(lines) == 1 + market.num_bidders
    for m, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == m
        assert float(fields[1]) == result.tcpa[m]
        assert int(fields[4]) == result.stage_clicks[:, m].sum()
        assert float(fields[9]) == result.stage_payments[:, m].sum()
        assert fields[11] == "0"
