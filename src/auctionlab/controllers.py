"""DFP payment controllers: online debt pacing and the hindsight stage oracle.

The debt controller tracks, per bidder, how much estimated conversion value
remains unpaid and spreads it over the clicks still expected in the stage:

    debt D  = carry + pending * tcpa - paid_stage
    payment = clamp(D / max(1, R), 0, cap_factor * tcpa)

where pending sums cvr over the clicks seen since the last feedback release
(the current click included: the payment being decided funds it) and R is
the expected number of clicks strictly after the current round. R < 1 makes
the divisor 1, so the stage's last expected click settles the whole
remaining debt. carry starts at 0 and is recomputed at every feedback
release as visible * tcpa - paid_total, which both carries unpaid residue
forward and absorbs the gap between estimated and revealed conversions;
with it the debt always equals (visible + pending) * tcpa - lifetime
payments.
"""

from __future__ import annotations

import numpy as np

DEFAULT_CAP_FACTOR = 10.0


class DebtController:
    """The online debt payer, implementing the engine's controller protocol.

    Its ledger is one list per quantity, indexed by bidder: tcpa and cap
    (cap_factor * tcpa) for the run; pending and paid_stage, reset at each
    feedback release; carry and visible (cumulative conversions through the
    last release), set there; and paid_total, the lifetime payments. The
    entries are Python floats: every click reads and writes one bidder's
    entries, which NumPy scalars make slow.
    """

    def __init__(self, tcpa: np.ndarray, cap_factor: float = DEFAULT_CAP_FACTOR):
        self.tcpa = np.asarray(tcpa, dtype=np.float64).tolist()
        self.cap = [cap_factor * t for t in self.tcpa]
        m = len(self.tcpa)
        self.pending, self.paid_stage, self.paid_total, self.carry, self.visible = ([0.0] * m for _ in range(5))

    def begin_stage(self, expected_clicks: np.ndarray, expected_conversions: np.ndarray,
                    bids: np.ndarray, stage_start: int, stage_len: int) -> None:
        pass  # the per-click schedule arrives with each click

    def on_click(self, bidder: int, round_index: int, cvr: float, expected_remaining_clicks: float) -> float:
        self.pending[bidder] = pending = self.pending[bidder] + cvr
        debt = self.carry[bidder] + pending * self.tcpa[bidder] - self.paid_stage[bidder]
        # min(max(debt / max(1.0, r), 0.0), cap) as conditional expressions,
        # each returning the operand the builtin returns (so -0.0 and nan
        # pass the lower clamp as max lets them), without three calls a click.
        r = expected_remaining_clicks
        payment = debt / (r if r > 1.0 else 1.0)
        payment = 0.0 if 0.0 > payment else payment
        cap = self.cap[bidder]
        payment = cap if cap < payment else payment
        self.paid_stage[bidder] += payment
        self.paid_total[bidder] += payment
        return payment

    def end_stage(self, visible_conversions: np.ndarray) -> None:
        self.visible = np.asarray(visible_conversions, dtype=np.float64).tolist()
        self.carry = [v * t - p for v, t, p in zip(self.visible, self.tcpa, self.paid_total)]
        self.pending, self.paid_stage = [0.0] * len(self.tcpa), [0.0] * len(self.tcpa)


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
