"""Bidder behavior: risk-averse updates, withdrawal, and the deviation sweep."""

from types import SimpleNamespace

import numpy as np
import pytest

from auctionlab import (
    ConfigError,
    MarketConfig,
    MechanismConfig,
    RiskAverseAgent,
    TruthfulAgent,
    bid_drift_metric,
    deviation_sweep,
    generate_market,
    run_auction,
)
from auctionlab.agents import FixedBidAgent, RiskAverseParams, risk_averse_update

P = RiskAverseParams(epsilon=0.1, step=0.1, patience=3)


def test_update_in_band_resets_streak():
    assert risk_averse_update(2.0, 2.0, 1.0, P, streak=2) == (2.0, 0)
    assert risk_averse_update(2.0, 2.0, 1.05, P, streak=1) == (2.0, 0)
    # Band edges are inclusive.
    assert risk_averse_update(2.0, 2.0, 0.9, P, streak=2) == (2.0, 0)
    assert risk_averse_update(2.0, 2.0, 1.1, P, streak=2) == (2.0, 0)


def test_update_scales_by_clamped_ratio():
    bid, streak = risk_averse_update(2.0, 2.0, 0.8, P, streak=0)
    assert bid == pytest.approx(1.8, abs=1e-15) and streak == 1
    bid, streak = risk_averse_update(2.0, 2.0, 1.3, P, streak=0)
    assert bid == pytest.approx(2.2, abs=1e-15) and streak == 1
    # A violation inside the step cap scales by the ratio itself.
    wide = RiskAverseParams(epsilon=0.05, step=0.2, patience=3)
    bid, streak = risk_averse_update(2.0, 2.0, 0.88, wide, streak=0)
    assert bid == pytest.approx(2.0 * 0.88, abs=1e-15) and streak == 1


def test_update_without_conversions():
    # Paid but nothing converted: harshest downward step.
    bid, streak = risk_averse_update(2.0, 2.0, None, P, streak=0, paid=True)
    assert bid == pytest.approx(1.8, abs=1e-15) and streak == 1
    # Nothing paid either: nothing learned, no reaction.
    assert risk_averse_update(2.0, 2.0, None, P, streak=2, paid=False) == (2.0, 2)


def test_update_withdraws_at_patience():
    bid, streak = risk_averse_update(2.0, 2.0, 0.5, P, streak=2)
    assert bid == 0.0 and streak == 3
    bid, streak = risk_averse_update(2.0, 2.0, 2.0, RiskAverseParams(patience=1), streak=0)
    assert bid == 0.0


def test_two_low_ratio_stages_drift():
    bid, streak = risk_averse_update(1.0, 1.0, 0.8, P, streak=0)
    bid, streak = risk_averse_update(bid, 1.0, 0.8, P, streak=streak)
    assert bid == pytest.approx(0.81, abs=1e-15)
    assert abs(bid / 1.0 - 1.0) == pytest.approx(0.19, abs=1e-15)


def test_params_validation():
    with pytest.raises(ConfigError):
        RiskAverseParams(epsilon=1.0)
    with pytest.raises(ConfigError):
        RiskAverseParams(epsilon=-0.1)
    with pytest.raises(ConfigError):
        RiskAverseParams(step=1.0)
    with pytest.raises(ConfigError):
        RiskAverseParams(patience=0)
    with pytest.raises(ConfigError, match=r"^patience must be an integer, got 2\.5$"):
        RiskAverseParams(patience=2.5)


def test_agent_classes():
    t = TruthfulAgent()
    assert t.initial_bid(3.0) == 3.0
    assert t.stage_update(3.0, 3.0, 0.5, True) == 3.0
    f = FixedBidAgent(1.25)
    assert f.initial_bid(3.0) == 1.25
    assert f.stage_update(1.25, 3.0, None, False) == 1.25
    r = RiskAverseAgent(P)
    assert r.initial_bid(2.0) == 2.0
    assert r.stage_update(2.0, 2.0, 0.8, True) == pytest.approx(1.8, abs=1e-15)
    assert r.streak == 1
    # Withdrawal is permanent.
    assert r.stage_update(0.0, 2.0, 1.0, True) == 0.0


def test_bid_drift_metric_values():
    fake = SimpleNamespace(
        final_bids=np.array([0.81, 2.0, 0.0]),
        tcpa=np.array([1.0, 2.0, 4.0]),
        withdrawn=np.array([False, False, True]),
    )
    report = bid_drift_metric(fake)
    np.testing.assert_allclose(report.drift, [0.19, 0.0, 1.0], rtol=0, atol=1e-15)
    assert report.drift[fake.withdrawn].tolist() == [1.0]
    assert report.mean_drift == pytest.approx(np.mean([0.19, 0.0, 1.0]), abs=1e-15)


def test_cpa_offline_never_triggers_adjustment():
    cfg = MarketConfig(
        num_bidders=5,
        num_slots=2,
        stage_plan=(30, 30, 30),
        ctr_range=(0.4, 0.9),
        cvr_range=(0.1, 0.2),
        seed=19,
    )
    market = generate_market(cfg)
    agents = [RiskAverseAgent(P) for _ in range(5)]
    result = run_auction(market, MechanismConfig("CPA_OFFLINE"), agents)
    report = bid_drift_metric(result)
    assert np.all(report.drift == 0.0)
    assert not result.withdrawn.any()


def _sweep_market(seed, bidders=4):
    cfg = MarketConfig(
        num_bidders=bidders,
        num_slots=bidders,  # everyone always holds a slot, so all rows convert
        stage_plan=(20, 20),
        ctr_range=(0.4, 0.9),
        cvr_range=(0.1, 0.2),
        value_range=(1.0, 3.0),
        tcpa_range=(1.0, 4.0),
        seed=seed,
    )
    return generate_market(cfg)


def test_sweep_cfp_expected_cpa_equals_bid():
    market = _sweep_market(seed=5)
    for bidder in range(market.num_bidders):
        rows = deviation_sweep(market, MechanismConfig("CFP"), bidder)
        for row in rows:
            assert row.bid == pytest.approx(row.beta * market.tcpa[bidder], abs=1e-12)
            assert row.expected_cpa == pytest.approx(row.bid, abs=1e-12)


def test_sweep_expected_cpa_is_exactly_the_rate():
    # rate * z / z can land an ulp away from rate; the expected CPA is the rate itself.
    for seed in (5, 7, *range(100, 108)):
        market = _sweep_market(seed=seed)
        for kind in ("CFP", "CPA_OFFLINE", "PACING_OFFLINE"):
            for bidder in range(market.num_bidders):
                for row in deviation_sweep(market, MechanismConfig(kind), bidder):
                    assert row.expected_cpa == (row.bid if kind == "CFP" else market.tcpa[bidder])


def test_sweep_cfp_utility_monotone_and_truthful_optimal():
    for seed in range(8):
        market = _sweep_market(seed=100 + seed)
        rows = deviation_sweep(market, MechanismConfig("CFP"), 0)
        betas = [r.beta for r in rows]
        assert betas == sorted(betas)
        utils = np.array([r.expected_utility for r in rows])
        assert np.all(np.diff(utils) >= -1e-12)
        tcpa = market.tcpa[0]
        feasible = [r for r in rows if r.expected_cpa <= tcpa * (1 + 1e-9)]
        truthful = next(r for r in rows if r.beta == 1.0)
        assert truthful in feasible
        assert truthful.expected_utility >= max(r.expected_utility for r in feasible) - 1e-12


def test_sweep_cpa_offline_settles_at_tcpa():
    market = _sweep_market(seed=7)
    rows = deviation_sweep(market, MechanismConfig("CPA_OFFLINE"), 1)
    for row in rows:
        assert row.expected_cpa == pytest.approx(market.tcpa[1], abs=1e-12)


def test_sweep_rejections():
    market = _sweep_market(seed=9)
    with pytest.raises(ConfigError):
        deviation_sweep(market, MechanismConfig("DFP", controller="debt"), 0)
    with pytest.raises(ConfigError):
        deviation_sweep(market, MechanismConfig("CFP"), 0, betas=(0.5, 1.5))
    with pytest.raises(ConfigError):
        deviation_sweep(market, MechanismConfig("CFP"), 99)
