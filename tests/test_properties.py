"""Engine invariants as properties over small generated markets.

The per-round reference in reference.py states the invariants one round at
a time; these properties hold the stage-vectorized engine's own output to
them, for every mechanism, on markets hypothesis generates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    DebtController,
    MarketConfig,
    MechanismConfig,
    TruthfulAgent,
    checkpoint_ratio_table,
    generate_market,
    run_auction,
)
from auctionlab.nets import MLP
from auctionlab.ppo import FEATURE_DIM, GaussianPolicy, RLPaymentController

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
        num_rounds=sum(plan),
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
        critic = MLP(FEATURE_DIM, (4,), 1, rng=rng)
        return RLPaymentController(policy, critic, market.tcpa, deterministic=True, collect=False)
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

    for label in ("CPA_OFFLINE", "DFP:oracle"):
        ratios = checkpoint_ratio_table(results[label]).ratio
        np.testing.assert_allclose(ratios, 1.0, rtol=0, atol=1e-12, err_msg=label)
