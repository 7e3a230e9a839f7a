"""Generate a market, poke at its arrays, and confirm it is deterministic.

A market is the fixed randomness of an experiment: per-round click rates,
conversion rates, and conversion values for every bidder, plus one target
CPA per bidder. Mechanisms consume the same market, so any difference in
their outputs is the mechanism's doing.
"""

import numpy as np

from auctionlab import MarketConfig, generate_market, sample_outcomes, stage_starts

config = MarketConfig(
    num_bidders=8,
    num_slots=3,
    stage_plan=(200, 200, 200),
    seed=42,
)
market = generate_market(config)

print("tcpa per bidder:", np.round(market.tcpa, 3))
print("ctr shape (rounds, bidders, slots):", market.ctr.shape)
print("cvr shape (rounds, bidders):       ", market.cvr.shape)
print("value shape:                       ", market.value.shape)

# slot axis is sorted: slot 0 always has the best click rate
assert np.all(np.diff(market.ctr, axis=2) <= 0)
print("ctr weakly decreasing along slots: ok")

# stage_starts gives each stage's first round; searching it maps a round back to its stage
starts = stage_starts(config.stage_plan)
print("stage starts:", starts.tolist())
for r in (0, 199, 200, 599):
    print(f"round {r} is in stage {int(np.searchsorted(starts, r, side='right')) - 1}")

# same config, fresh call: bit-identical market
again = generate_market(config)
assert np.array_equal(market.ctr, again.ctr)
assert np.array_equal(market.cvr, again.cvr)
assert np.array_equal(market.tcpa, again.tcpa)
print("regenerated market is bit-identical")

# a different seed moves everything
other = generate_market(MarketConfig(
    num_bidders=8, num_slots=3,
    stage_plan=(200, 200, 200), seed=43,
))
print("seed 43 shares no tcpa values with seed 42:",
      not np.any(np.isin(other.tcpa, market.tcpa)))

# outcome sampling is keyed by (round, bidder, slot), so replaying a round
# gives the same clicks no matter what happened before it
rounds, bidders, slots = np.full(3, 17), np.arange(3), np.arange(3)  # bidders 0..2 take slots 0..2
clicks_a, convs_a = sample_outcomes(market, rounds, bidders, slots)
clicks_b, convs_b = sample_outcomes(market, rounds, bidders, slots)
assert np.array_equal(clicks_a, clicks_b)
assert np.array_equal(convs_a, convs_b)
assert np.all(convs_a <= clicks_a)
print("round 17 replay: clicks", clicks_a.sum(), "conversions", convs_a.sum())
