"""Debt controller arithmetic, stage settlement, the hindsight oracle, and
the online payers' shared protocol."""

import inspect

import numpy as np
import pytest

from auctionlab import (
    ControllerState,
    DebtController,
    MarketConfig,
    MechanismConfig,
    TruthfulAgent,
    debt_controller_step,
    generate_market,
    run_auction,
    stage_pacing_oracle,
)
from auctionlab.mechanisms import OnlineController
from auctionlab.ppo import RLPaymentController
from reference import ReferenceRLController


def test_step_spreads_debt_over_remaining_clicks():
    st = ControllerState(tcpa=2.0, pending_conversions=1.0)
    assert debt_controller_step(st, 4.0) == 0.5


def test_step_clamps_to_zero_when_overpaid():
    st = ControllerState(tcpa=2.0, pending_conversions=1.0, paid_stage=5.0)
    assert debt_controller_step(st, 4.0) == 0.0


def test_step_clamps_to_payment_cap():
    st = ControllerState(tcpa=2.0, pending_conversions=100.0)
    assert debt_controller_step(st, 0.0) == 20.0
    st = ControllerState(tcpa=2.0, pending_conversions=100.0, cap_factor=3.0)
    assert debt_controller_step(st, 0.0) == 6.0


def test_step_settles_on_final_expected_click():
    # R < 1 turns the divisor into 1: the whole debt is due now.
    st = ControllerState(tcpa=1.0, pending_conversions=0.4, paid_stage=0.1)
    assert debt_controller_step(st, 0.5) == pytest.approx(0.3, abs=1e-15)


def test_step_is_pure():
    st = ControllerState(tcpa=2.0, pending_conversions=1.0)
    before = (st.paid_stage, st.pending_conversions, st.carry, st.paid_total)
    assert debt_controller_step(st, 4.0) == debt_controller_step(st, 4.0)
    assert (st.paid_stage, st.pending_conversions, st.carry, st.paid_total) == before


def test_conversion_estimate_is_unbiased():
    rng = np.random.Generator(np.random.PCG64(0))
    stages = 10**4
    clicks = 20
    cvr = rng.uniform(0.05, 0.15, size=(stages, clicks))
    true_z = (rng.random((stages, clicks)) < cvr).sum(axis=1)
    est = cvr.sum(axis=1)
    gap = est - true_z
    sigma = np.sqrt((cvr * (1 - cvr)).sum(axis=1).mean() / stages)
    assert abs(gap.mean()) < 3 * sigma


def test_debt_controller_hand_walk():
    """Two 3-click stages at tcpa=1, cvr=0.1, with a 0 -> 2 feedback jump."""
    ctrl = DebtController(np.array([1.0]))
    st = ctrl.states[0]

    pays = [ctrl.on_click(0, r, 0.1, R) for r, R in enumerate([2.0, 1.0, 0.0])]
    assert pays == pytest.approx([0.05, 0.15, 0.1], abs=1e-12)
    assert st.paid_stage == pytest.approx(0.3, abs=1e-12)
    # Stage closes: two conversions revealed, debt carried forward.
    ctrl.end_stage(np.array([2.0]))
    assert st.carry == pytest.approx(1.7, abs=1e-12)
    assert st.pending_conversions == 0.0 and st.paid_stage == 0.0

    pays = [ctrl.on_click(0, 3 + r, 0.1, R) for r, R in enumerate([2.0, 1.0, 0.0])]
    assert pays == pytest.approx([0.9, 1.0, 0.1], abs=1e-12)
    assert st.paid_total == pytest.approx(2.3, abs=1e-12)
    # Settled: lifetime payments equal estimated conversion value, ratio 1.
    est = st.visible_conversions + st.pending_conversions
    assert est * st.tcpa / st.paid_total == pytest.approx(1.0, abs=1e-12)


def test_lifetime_debt_identity_holds_mid_stream():
    rng = np.random.Generator(np.random.PCG64(4))
    ctrl = DebtController(np.array([2.5]))
    st = ctrl.states[0]
    visible = 0.0
    for stage in range(5):
        clicks = int(rng.integers(1, 8))
        for i in range(clicks):
            ctrl.on_click(0, stage * 10 + i, float(rng.uniform(0.05, 0.2)), float(clicks - 1 - i))
            lifetime = (st.visible_conversions + st.pending_conversions) * st.tcpa - st.paid_total
            local = st.carry + st.pending_conversions * st.tcpa - st.paid_stage
            assert lifetime == pytest.approx(local, abs=1e-9)
        visible += float(rng.integers(0, 3))
        ctrl.end_stage(np.array([visible]))
        assert st.carry == pytest.approx(visible * 2.5 - st.paid_total, abs=1e-9)


def test_oracle_equal_split():
    pays = stage_pacing_oracle(np.array([4.0]), np.array([1.0]), np.array([2.0]))
    assert pays[0] == 0.5
    pays = stage_pacing_oracle(np.array([0.0, 4.0]), np.array([0.0, 0.0]), np.array([2.0, 2.0]))
    assert pays[0] == 0.0 and pays[1] == 0.0


def test_oracle_identity_on_random_stages():
    rng = np.random.Generator(np.random.PCG64(8))
    clicks = rng.integers(0, 12, size=200).astype(float)
    convs = np.floor(clicks * rng.random(200))
    tcpa = rng.uniform(0.5, 8.0, size=200)
    pays = stage_pacing_oracle(clicks, convs, tcpa)
    got = pays * clicks
    want = convs * tcpa
    has = clicks > 0
    np.testing.assert_allclose(got[has], want[has], rtol=0, atol=1e-12)
    assert np.all(pays[~has] == 0)


def test_engine_debt_wiring_matches_manual_steps():
    """Replay an engine DFP:debt run click by click through a fresh controller."""
    cfg = MarketConfig(
        num_bidders=1,
        num_rounds=9,
        num_slots=1,
        stage_plan=(3, 3, 3),
        ctr_range=(1.0, 1.0),
        cvr_range=(0.1, 0.1),
        value_range=(1.0, 1.0),
        tcpa_range=(1.0, 1.0),
        seed=2,
    )
    market = generate_market(cfg)
    result = run_auction(
        market, MechanismConfig("DFP", controller="debt"), [TruthfulAgent()], DebtController(market.tcpa)
    )
    r = result.rounds
    assert np.all(r.click == 1)  # ctr pinned to 1

    manual = DebtController(market.tcpa)
    for i in range(r.round.size):
        n = int(r.round[i])
        t = int(r.stage[i])
        remaining = (t + 1) * 3 - 1 - n  # all later rounds of the stage click in expectation
        want = manual.on_click(0, n, 0.1, float(remaining))
        assert r.payment[i] == pytest.approx(want, abs=1e-12)
        if n % 3 == 2:
            manual.end_stage(result.stage_conversions[: t + 1].sum(axis=0))


@pytest.mark.parametrize("method", ["begin_stage", "on_click", "end_stage"])
def test_online_payers_take_the_protocol_arguments(method):
    want = list(inspect.signature(getattr(OnlineController, method)).parameters)
    for payer in (DebtController, RLPaymentController, ReferenceRLController):
        assert list(inspect.signature(getattr(payer, method)).parameters) == want, payer.__name__
