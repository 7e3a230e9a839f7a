"""Debt controller arithmetic, stage settlement, the hindsight oracle, and
the online payers' shared protocol."""

import inspect
import struct

import numpy as np
import pytest

from auctionlab import (
    DebtController,
    MarketConfig,
    MechanismConfig,
    TruthfulAgent,
    generate_market,
    run_auction,
    stage_pacing_oracle,
)
from auctionlab.controllers import DEFAULT_CAP_FACTOR
from auctionlab.mechanisms import OnlineController
from auctionlab.ppo import RLPaymentController
from reference import ReferenceRLController


def _one_click(cvr, remaining, tcpa=2.0, paid_stage=0.0, cap_factor=DEFAULT_CAP_FACTOR):
    """The payment for one click priced at cvr on a one-bidder payer that has already paid paid_stage this stage."""
    ctrl = DebtController(np.array([tcpa]), cap_factor=cap_factor)
    ctrl.paid_stage[0] = paid_stage
    return ctrl.on_click(0, 0, cvr, remaining)


def test_step_spreads_debt_over_remaining_clicks():
    assert _one_click(1.0, 4.0) == 0.5


def test_step_clamps_to_zero_when_overpaid():
    assert _one_click(1.0, 4.0, paid_stage=5.0) == 0.0


def test_step_clamps_to_payment_cap():
    assert _one_click(100.0, 0.0) == 20.0
    assert _one_click(100.0, 0.0, cap_factor=3.0) == 6.0


def test_payment_clamp_returns_the_builtin_forms_operand():
    # on_click clamps with conditional expressions; each returns the operand
    # min(max(debt / max(1.0, r), 0.0), cap) returns, so -0.0 and nan pass
    # the lower clamp as max lets them.
    tcpa = 2.0
    cap = DEFAULT_CAP_FACTOR * tcpa
    for debt in (-1.0, -0.0, 0.0, 1e-300, cap, 2 * cap, float("nan")):
        for remaining in (0.0, 0.5, 1.0, 1.5, 1e9):
            ctrl = DebtController(np.array([tcpa]))
            # debt = carry + pending * tcpa - paid_stage: -0.0 terms keep carry's bits.
            ctrl.carry[0], ctrl.pending[0] = debt, -0.0
            got = ctrl.on_click(0, 0, -0.0, remaining)
            want = min(max(debt / max(1.0, remaining), 0.0), cap)
            assert struct.pack("<d", got) == struct.pack("<d", want), (debt, remaining)


def test_step_settles_on_final_expected_click():
    # R < 1 turns the divisor into 1: the whole debt is due now.
    assert _one_click(0.4, 0.5, tcpa=1.0, paid_stage=0.1) == pytest.approx(0.3, abs=1e-15)


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

    pays = [ctrl.on_click(0, r, 0.1, R) for r, R in enumerate([2.0, 1.0, 0.0])]
    assert pays == pytest.approx([0.05, 0.15, 0.1], abs=1e-12)
    assert ctrl.paid_stage[0] == pytest.approx(0.3, abs=1e-12)
    # Stage closes: two conversions revealed, debt carried forward.
    ctrl.end_stage(np.array([2.0]))
    assert ctrl.carry[0] == pytest.approx(1.7, abs=1e-12)
    assert ctrl.pending[0] == 0.0 and ctrl.paid_stage[0] == 0.0

    pays = [ctrl.on_click(0, 3 + r, 0.1, R) for r, R in enumerate([2.0, 1.0, 0.0])]
    assert pays == pytest.approx([0.9, 1.0, 0.1], abs=1e-12)
    assert ctrl.paid_total[0] == pytest.approx(2.3, abs=1e-12)
    # Settled: lifetime payments equal estimated conversion value, ratio 1.
    est = ctrl.visible[0] + ctrl.pending[0]
    assert est * ctrl.tcpa[0] / ctrl.paid_total[0] == pytest.approx(1.0, abs=1e-12)


def test_lifetime_debt_identity_holds_mid_stream():
    rng = np.random.Generator(np.random.PCG64(4))
    ctrl = DebtController(np.array([2.5]))
    visible = 0.0
    for stage in range(5):
        clicks = int(rng.integers(1, 8))
        for i in range(clicks):
            ctrl.on_click(0, stage * 10 + i, float(rng.uniform(0.05, 0.2)), float(clicks - 1 - i))
            lifetime = (ctrl.visible[0] + ctrl.pending[0]) * 2.5 - ctrl.paid_total[0]
            local = ctrl.carry[0] + ctrl.pending[0] * 2.5 - ctrl.paid_stage[0]
            assert lifetime == pytest.approx(local, abs=1e-9)
        visible += float(rng.integers(0, 3))
        ctrl.end_stage(np.array([visible]))
        assert ctrl.carry[0] == pytest.approx(visible * 2.5 - ctrl.paid_total[0], abs=1e-9)


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
