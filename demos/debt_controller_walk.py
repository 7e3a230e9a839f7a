"""Step the debt controller by hand, one click at a time.

The controller owes (estimated conversions) * tcpa and has paid some of it.
The difference is the debt, spread over the clicks still expected in the
stage. A feedback release then replaces the estimate with the revealed
count and carries any residue into the next stage.
"""

import numpy as np

from auctionlab import (
    ControllerState,
    DebtController,
    debt_controller_step,
    expected_conversion_estimate,
    stage_pacing_oracle,
)

TCPA = 4.0
CVR = 0.1

print("single bidder, tcpa = 4.0, cvr = 0.1 per click")
print("stage expects 5 clicks; debt is settled by the last one\n")

state = ControllerState(tcpa=TCPA)
print(f"{'click':>5} {'remaining':>9} {'estimate':>9} {'payment':>8} {'paid':>7}")
for k in range(5):
    state.pending_conversions += CVR          # the click being priced counts
    remaining = 4.0 - k                      # clicks expected after this one
    pay = debt_controller_step(state, remaining)
    state.paid_stage += pay
    state.paid_total += pay
    est = expected_conversion_estimate(state)
    print(f"{k:5d} {remaining:9.1f} {est:9.2f} {pay:8.4f} {state.paid_stage:7.4f}")

# after the last expected click the books balance: paid == estimate * tcpa
assert abs(state.paid_stage - 5 * CVR * TCPA) < 1e-12
print(f"\nstage spend {state.paid_stage:.4f} == 5 clicks * cvr * tcpa = {5 * CVR * TCPA:.4f}")

# feedback release: suppose the 0.5 estimated conversions turned into 1 real one
visible = 1.0
carry = visible * TCPA - state.paid_total
print(f"release reveals {visible:.0f} conversion: carry = {visible:.0f} * {TCPA} - "
      f"{state.paid_total:.2f} = {carry:.2f} owed next stage")

# the engine-facing wrapper does the same arithmetic per bidder
ctrl = DebtController(np.array([TCPA]))
for k in range(5):
    ctrl.on_click(0, round_index=k, cvr=CVR, expected_remaining_clicks=4.0 - k)
ctrl.end_stage(np.array([visible]))
assert abs(ctrl.states[0].carry - carry) < 1e-12
print("DebtController reproduces the hand walk")

# the hindsight oracle needs the stage's realized totals instead
oracle = stage_pacing_oracle(
    stage_clicks=np.array([5.0]),
    stage_conversions=np.array([1.0]),
    tcpa=np.array([TCPA]),
)
print(f"\noracle per-click price with 1 realized conversion over 5 clicks: {oracle[0]:.4f}")
print("(the oracle is exact per stage but needs the future; the debt payer only estimates)")
