"""Run every payment mechanism on one market and compare CPA accuracy.

All five runs see identical click and conversion streams (outcomes are
keyed by (round, bidder, slot), not by mechanism), so the table below is a
pure comparison of payment rules:

  CFP            pay bid per conversion, coupled to the bid
  CPA_OFFLINE    pay tcpa per conversion after the fact
  PACING_OFFLINE one repriced per-click rate per bidder, set in hindsight
  DFP:oracle     per-stage hindsight rate (needs the stage's outcomes)
  DFP:debt       online per-click payments from the debt controller

The headline metric is the checkpoint ratio conversions * tcpa / payment,
cumulative up to each stage boundary: 1.0 means payments track the target
CPA exactly.
"""

import numpy as np

from auctionlab import (
    DebtController,
    MarketConfig,
    MechanismConfig,
    TruthfulAgent,
    checkpoint_ratio_table,
    generate_market,
    payment_fluctuation,
    run_auction,
)


def describe(label: str, result) -> None:
    table = checkpoint_ratio_table(result)
    err = np.abs(table.ratio - 1.0)
    last = table.stage == result.num_stages - 1  # cumulative over the whole run
    fluct = payment_fluctuation(result)
    print(f"{label:16s} checkpoint err mean {err.mean():9.3e}"
          f"  final err max {err[last].max():9.3e}"
          f"  payment var {np.nanmean(fluct.variance):9.3e}")


def main() -> None:
    market = generate_market(MarketConfig(
        num_bidders=10,
        num_slots=4,
        stage_plan=(150,) * 8,
        seed=7,
    ))
    agents = [TruthfulAgent() for _ in range(market.num_bidders)]

    runs = [
        (MechanismConfig("CFP"), None),
        (MechanismConfig("CPA_OFFLINE"), None),
        (MechanismConfig("PACING_OFFLINE"), None),
        (MechanismConfig("DFP", controller="oracle"), None),
        (MechanismConfig("DFP", controller="debt"), DebtController(market.tcpa)),
    ]
    print(f"{market.num_bidders} bidders, {market.num_rounds} rounds, "
          f"{len(market.config.stage_plan)} stages\n")
    results = {}
    for mech, controller in runs:
        result = run_auction(market, mech, agents, controller)
        results[mech.label] = result
        describe(mech.label, result)

    # identical outcome streams: clicks match position by position
    cfp = results["CFP"].rounds
    debt = results["DFP:debt"].rounds
    assert np.array_equal(cfp.click, debt.click)
    assert np.array_equal(cfp.conversion, debt.conversion)
    print("\nCFP and DFP:debt sampled the same clicks and conversions;"
          " only payments differ.")

    # offline rules hit the target exactly, the online payer approximately
    total_pay = {label: r.stage_payments.sum() for label, r in results.items()}
    for label in ("CPA_OFFLINE", "DFP:debt", "CFP"):
        print(f"total spend under {label:12s} {total_pay[label]:10.2f}")


if __name__ == "__main__":
    main()
