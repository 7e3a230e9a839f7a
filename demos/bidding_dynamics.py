"""Why truthful bidding is safe under CFP, and what nervous bidders do about
payment noise.

Part 1 sweeps counterfactual bid multipliers for one bidder in expectation
(nothing sampled). Under coupled first price the expected CPA equals the
bid itself, so any multiplier above 1 blows the target and the truthful
bid is the best feasible one.

Part 2 runs risk-averse agents, who rescale their bid whenever the
checkpoint ratio leaves a tolerance band and withdraw after repeated
violations. Against the smooth debt payer they hold close to truthful;
against CFP's noisier realized CPA they wander more.
"""

import numpy as np

from auctionlab import (
    DebtController,
    MarketConfig,
    MechanismConfig,
    RiskAverseAgent,
    bid_drift_metric,
    deviation_sweep,
    generate_market,
    run_auction,
)

# --- part 1: expected-value deviation sweep -------------------------------

market = generate_market(MarketConfig(
    num_bidders=4,
    num_slots=4,          # a slot for everyone: deviations only move payments
    stage_plan=(40,) * 10,
    cvr_range=(0.05, 0.15),
    seed=3,
))
bidder = 0
rows = deviation_sweep(market, MechanismConfig("CFP"), bidder)
tcpa = market.tcpa[bidder]

print(f"bidder {bidder}, tcpa {tcpa:.3f}, CFP expected-value sweep")
print(f"{'beta':>6} {'bid':>8} {'E[cpa]':>8} {'E[utility]':>11} {'feasible':>9}")
best = max(rows, key=lambda r: r.expected_utility if r.expected_cpa <= tcpa * (1 + 1e-9) else -np.inf)
for r in rows:
    feasible = r.expected_cpa <= tcpa * (1 + 1e-9)
    tag = " <- best" if r is best else ""
    print(f"{r.beta:6.2f} {r.bid:8.3f} {r.expected_cpa:8.3f} {r.expected_utility:11.3f}"
          f" {str(feasible):>9}{tag}")
assert best.beta == 1.0
print("expected CPA tracks the bid exactly, so beta = 1 is the top feasible row\n")

# --- part 2: risk-averse agents against two payers ------------------------

market2 = generate_market(MarketConfig(
    num_bidders=10,
    num_slots=4,
    stage_plan=(400,) * 12,
    ctr_range=(0.4, 0.8),
    cvr_range=(0.05, 0.15),
    tcpa_range=(2.0, 6.0),
    seed=11,
))

watched = 2  # a bidder who survives both runs
for mech, controller in (
    (MechanismConfig("CFP"), None),
    (MechanismConfig("DFP", controller="debt"), DebtController(market2.tcpa)),
):
    agents = [RiskAverseAgent() for _ in range(market2.num_bidders)]
    result = run_auction(market2, mech, agents, controller)
    report = bid_drift_metric(result)
    path = result.bid_by_stage[:, watched] / market2.tcpa[watched]
    print(f"{mech.label:9s} mean |final bid / tcpa - 1| = {report.mean_drift:.3f}, "
          f"withdrawals {int(result.withdrawn.sum())}")
    print(f"          bidder {watched} bid path (x tcpa): "
          + " ".join(f"{v:.2f}" for v in path))

print("\nthe same agents, the same outcome stream: the debt payer's steadier")
print("checkpoint ratios keep more bidders inside their tolerance band.")
