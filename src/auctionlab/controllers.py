"""DFP payment controllers: online debt pacing and the hindsight stage oracle.

The debt controller tracks, per bidder, how much estimated conversion value
remains unpaid and spreads it over the clicks still expected in the stage:

    debt D  = carry + pending_conversions * tcpa - paid_stage
    payment = clamp(D / max(1, R), 0, cap_factor * tcpa)

where pending_conversions sums cvr over the clicks seen since the last
feedback release (the current click included: the payment being decided
funds it) and R is the expected number of clicks strictly after the current
round. R < 1 makes the divisor 1, so the stage's last expected click settles
the whole remaining debt. carry starts at 0 and is recomputed at every
feedback release as visible_conversions * tcpa - paid_total, which both
carries unpaid residue forward and absorbs the gap between estimated and
revealed conversions; with it the debt always equals
(visible + pending) * tcpa - lifetime payments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_CAP_FACTOR = 10.0


@dataclass
class ControllerState:
    """Per-bidder debt-controller state.

    paid_stage and pending_conversions reset at stage boundaries; carry
    persists (recomputed from the feedback release); visible_conversions is
    the cumulative count through the last boundary.
    """

    tcpa: float
    paid_stage: float = 0.0
    visible_conversions: float = 0.0
    pending_conversions: float = 0.0
    carry: float = 0.0
    paid_total: float = 0.0
    cap_factor: float = DEFAULT_CAP_FACTOR


def expected_conversion_estimate(state: ControllerState) -> float:
    """Best current conversion estimate: revealed count plus pending cvr mass."""
    return state.visible_conversions + state.pending_conversions


def debt_controller_step(state: ControllerState, expected_remaining_clicks: float) -> float:
    """Per-click payment for the current state (pure; caller applies it).

    clamp((carry + pending * tcpa - paid_stage) / max(1, R), 0, cap * tcpa),
    with R = expected_remaining_clicks, the clicks expected after this one.
    In the first stage carry is 0, so the debt is exactly
    expected_conversion_estimate * tcpa - paid_stage.
    """
    debt = state.carry + state.pending_conversions * state.tcpa - state.paid_stage
    divisor = max(1.0, expected_remaining_clicks)
    cap = state.cap_factor * state.tcpa
    return float(min(max(debt / divisor, 0.0), cap))


class DebtController:
    """Engine-facing wrapper holding one ControllerState per bidder."""

    def __init__(self, tcpa: np.ndarray, cap_factor: float = DEFAULT_CAP_FACTOR):
        self.states = [ControllerState(tcpa=float(t), cap_factor=cap_factor) for t in np.asarray(tcpa)]

    def begin_stage(self, expected_clicks: np.ndarray, expected_conversions: np.ndarray,
                    bids: np.ndarray, stage_start: int, stage_len: int) -> None:
        pass  # the per-click schedule arrives with each click

    def on_click(self, bidder: int, round_index: int, cvr: float, expected_remaining_clicks: float) -> float:
        st = self.states[bidder]
        st.pending_conversions += cvr
        payment = debt_controller_step(st, expected_remaining_clicks)
        st.paid_stage += payment
        st.paid_total += payment
        return payment

    def end_stage(self, visible_conversions: np.ndarray) -> None:
        for m, st in enumerate(self.states):
            st.visible_conversions = float(visible_conversions[m])
            st.carry = st.visible_conversions * st.tcpa - st.paid_total
            st.pending_conversions = 0.0
            st.paid_stage = 0.0


def stage_pacing_oracle(stage_clicks: np.ndarray, stage_conversions: np.ndarray, tcpa: np.ndarray) -> np.ndarray:
    """Hindsight settlement: every click of bidder m pays conversions * tcpa / clicks.

    Spreading the stage's realized conversion value equally over its clicks
    makes payments sum to conversions * tcpa exactly, so the platform's
    per-stage target ratio is met with equality. Bidders without clicks get 0.

    Args:
        stage_clicks: realized click counts, shape (M,), or (T, M) for T stages; scalars broadcast.
        stage_conversions: realized conversion counts, same shape.
        tcpa: per-bidder targets, shape (M,), broadcast against the counts.

    Returns:
        Per-click payment per bidder, the counts' shape: (M,) or (T, M).
    """
    clicks = np.atleast_1d(np.asarray(stage_clicks, dtype=np.float64))
    convs = np.atleast_1d(np.asarray(stage_conversions, dtype=np.float64))
    t = np.atleast_1d(np.asarray(tcpa, dtype=np.float64))
    return np.divide(convs * t, clicks, out=np.zeros(np.broadcast(clicks, convs, t).shape), where=clicks > 0)
