"""Per-round scalar reference for the stage-vectorized engine.

The engine scores, allocates and samples a whole stage at once. The
functions here do the same one round at a time, in the plainest form, so
tests can hold the engine to them: rank_and_allocate is the scalar
allocation rule, sample_round draws one round's outcomes through the same
counter-based sub-streams, RoundOutcome and validate_allocation state the
per-round invariants, and stage_of maps a round to its stage. ratio_table
is the loop form of the analysis module's vectorized ratio tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from auctionlab.errors import ContractViolation
from auctionlab.market import MarketLog, OutcomeSampler, sample_outcomes


def ratio_table(conversions: np.ndarray, payments: np.ndarray, tcpa: np.ndarray):
    """(bidders, windows, ratios) of every (window, bidder) entry with at
    least one conversion, bidder by bidder; zero payment gives inf."""
    T, M = conversions.shape
    bidders, windows, ratios = [], [], []
    for m in range(M):
        for t in range(T):
            z = conversions[t, m]
            if z < 1.0:
                continue
            bidders.append(m)
            windows.append(t)
            p = payments[t, m]
            ratios.append(z * tcpa[m] / p if p > 0.0 else float("inf"))
    return np.array(bidders, dtype=np.int64), np.array(windows, dtype=np.int64), np.array(ratios)


def rank_and_allocate(scores: np.ndarray, num_slots: int) -> np.ndarray:
    """Allocate slot k to the k-th highest score; ties go to the lowest
    bidder index; zero (or negative) scores are never allocated.

    Returns a (num_bidders, num_slots) 0/1 matrix.
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    x = np.zeros((scores.size, num_slots), dtype=np.uint8)
    for k in range(min(num_slots, scores.size)):
        m = order[k]
        if scores[m] <= 0.0:
            break
        x[m, k] = 1
    return x


@dataclass
class RoundOutcome:
    """Allocation, click, conversion, and payment matrices for one round (M x K)."""

    allocation: np.ndarray
    click: np.ndarray
    conversion: np.ndarray
    payment: np.ndarray

    def __post_init__(self) -> None:
        x, y, z = self.allocation, self.click, self.conversion
        if not (np.all(z <= y) and np.all(y <= x)):
            raise ContractViolation("round outcome must satisfy conversion <= click <= allocation")


def validate_allocation(allocation: np.ndarray, num_slots: int) -> None:
    """Raise unless allocation is 0/1 with <=1 slot per bidder and <=1 bidder per slot."""
    x = np.asarray(allocation)
    if x.ndim != 2 or x.shape[1] != num_slots:
        raise ContractViolation(f"allocation must be (num_bidders, {num_slots}), got {x.shape}")
    if not np.isin(x, (0, 1)).all():
        raise ContractViolation("allocation entries must be 0 or 1")
    if (x.sum(axis=1) > 1).any():
        raise ContractViolation("a bidder may hold at most one slot per round")
    if (x.sum(axis=0) > 1).any():
        raise ContractViolation("a slot may be held by at most one bidder")


def sample_round(
    log: MarketLog,
    round_index: int,
    allocation: np.ndarray,
    sampler: OutcomeSampler | None = None,
) -> RoundOutcome:
    """Sample one round's outcomes for a given allocation; payments start at 0.

    Exactly two RNG uniforms are addressed per displayed slot (click, then
    conversion; the conversion uniform is consumed even for unclicked slots).
    Unallocated slots draw nothing, which is safe because every triple owns
    its sub-stream.
    """
    validate_allocation(allocation, log.num_slots)
    x = np.asarray(allocation, dtype=np.uint8)
    y = np.zeros_like(x)
    z = np.zeros_like(x)
    bidders, slots = np.nonzero(x)
    if bidders.size:
        rounds = np.full(bidders.shape, round_index)
        y[bidders, slots], z[bidders, slots] = sample_outcomes(log, rounds, bidders, slots, sampler)
    return RoundOutcome(allocation=x, click=y, conversion=z, payment=np.zeros(x.shape, dtype=np.float64))


def stage_of(round_index: int, stage_plan: tuple[int, ...]) -> int:
    """Stage index t whose round range [sum(plan[:t]), sum(plan[:t+1])) contains round_index."""
    ends = np.cumsum(stage_plan)
    n = int(ends[-1])
    if not 0 <= round_index < n:
        raise IndexError(f"round_index {round_index} outside [0, {n})")
    return int(np.searchsorted(ends, round_index, side="right"))
