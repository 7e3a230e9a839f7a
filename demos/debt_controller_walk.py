"""Step the debt controller by hand, one click at a time.

The controller owes (estimated conversions) * tcpa and has paid some of it.
The difference is the debt, spread over the clicks still expected in the
stage. A feedback release then replaces the estimate with the revealed
count and carries any residue into the next stage.
"""

import numpy as np

from auctionlab import DebtController, stage_pacing_oracle

TCPA = 4.0
CVR = 0.1

print("single bidder, tcpa = 4.0, cvr = 0.1 per click")
print("stage expects 5 clicks; debt is settled by the last one\n")

# The payer keeps one list per quantity, indexed by bidder; bidder 0 is the only one here.
ctrl = DebtController(np.array([TCPA]))
print(f"{'click':>5} {'remaining':>9} {'pending':>8} {'payment':>8} {'paid':>7}")
for k in range(5):
    remaining = 4.0 - k                      # clicks expected after this one
    pay = ctrl.on_click(0, round_index=k, cvr=CVR, expected_remaining_clicks=remaining)
    print(f"{k:5d} {remaining:9.1f} {ctrl.pending[0]:8.2f} {pay:8.4f} {ctrl.paid_stage[0]:7.4f}")

# after the last expected click the books balance: paid == estimate * tcpa
assert abs(ctrl.paid_stage[0] - 5 * CVR * TCPA) < 1e-12
print(f"\nstage spend {ctrl.paid_stage[0]:.4f} == 5 clicks * cvr * tcpa = {5 * CVR * TCPA:.4f}")

# feedback release: suppose the 0.5 estimated conversions turned into 1 real one
ctrl.end_stage(np.array([1.0]))
assert ctrl.carry[0] == ctrl.visible[0] * TCPA - ctrl.paid_total[0]
print(f"release reveals {ctrl.visible[0]:.0f} conversion: carry = {ctrl.visible[0]:.0f} * {TCPA} - "
      f"{ctrl.paid_total[0]:.2f} = {ctrl.carry[0]:.2f} owed next stage")
print(f"ledger after the release: pending {ctrl.pending}, paid_stage {ctrl.paid_stage}, "
      f"paid_total {ctrl.paid_total}, carry {ctrl.carry}")

# the hindsight oracle needs the stage's realized totals instead
oracle = stage_pacing_oracle(
    stage_clicks=np.array([5.0]),
    stage_conversions=np.array([1.0]),
    tcpa=np.array([TCPA]),
)
print(f"\noracle per-click price with 1 realized conversion over 5 clicks: {oracle[0]:.4f}")
print("(the oracle is exact per stage but needs the future; the debt payer only estimates)")
