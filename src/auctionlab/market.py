"""Synthetic auction environments with stage-delayed conversion feedback.

The generator produces, for M bidders over N rounds with K slots, per-round
click-through rates (weakly decreasing across slots), conversion rates and
conversion values (both constant across slots), plus per-bidder tCPA targets.
Click and conversion outcomes are sampled lazily from counter-based
sub-streams, so a slot's outcome depends only on (round, bidder, slot, seed)
and never on allocation order or payment logic.

RNG layout (Philox-4x64-10 throughout, one purpose id per quantity):

    purpose 1  tcpa     M uniforms
    purpose 2  ctr      N*M*K uniforms in C order, scaled to ctr_range, then
                        sorted descending within each (round, bidder)
    purpose 3  cvr      N*M uniforms, scaled to cvr_range
    purpose 4  value    N*M uniforms, scaled to value_range
    purpose 5  outcomes one sub-stream per (round, bidder, slot) at counter
                        (1, slot, bidder, round): word 0 is the click
                        uniform, word 1 the conversion uniform

Generation streams (1-4) draw doubles from numpy's
``Generator(Philox(key=[seed, purpose]))``. Outcome sub-streams are evaluated
with the vectorized raw Philox block below, bit-identical to
``numpy.random.Philox(key=[seed, 5], counter=[0, k, m, n]).random_raw()``
(numpy increments counter word 0 before emitting its first block, hence the
leading 1 in the counter). A uniform double is ``(word >> 11) * 2**-53``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .csvio import write_table
from .errors import ConfigError, SchemaError

MARKET_CSV_HEADER = "round,bidder,slot,ctr,cvr,value,click,conversion"

# Philox-4x64 round multipliers and Weyl key increments.
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_INV53 = 2.0 ** -53

_TCPA_STREAM = 1
_CTR_STREAM = 2
_CVR_STREAM = 3
_VALUE_STREAM = 4
_OUTCOME_STREAM = 5


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of a 64x64 multiply, via 32-bit limbs."""
    a_lo = a & _MASK32
    a_hi = a >> _S32
    b_lo = b & _MASK32
    b_hi = b >> _S32
    lo = a_lo * b_lo
    mid = a_hi * b_lo + (lo >> _S32)
    mid_lo = (mid & _MASK32) + a_lo * b_hi
    return a_hi * b_hi + (mid >> _S32) + (mid_lo >> _S32)


def philox4x64(key: tuple[int, int], counter: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw 10-round Philox-4x64 block function, vectorized over counters.

    Args:
        key: two 64-bit key words.
        counter: four equal-shape uint64 arrays (counter words 0..3).

    Returns:
        Four uint64 arrays: the output block words 0..3.
    """
    x0, x1, x2, x3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0 = np.uint64(key[0])
    k1 = np.uint64(key[1])
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0 = _mulhi(_M0, x0)
            lo0 = _M0 * x0
            hi1 = _mulhi(_M1, x2)
            lo1 = _M1 * x2
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
    return x0, x1, x2, x3


def _uniform_doubles(words: np.ndarray) -> np.ndarray:
    return (words >> _S11).astype(np.float64) * _INV53


def _stream(seed: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, purpose]))


def _check_range(name: str, rng: tuple[float, float], lo_ok: float, hi_ok: float) -> None:
    lo, hi = rng
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise ConfigError(f"{name} must be a finite (lo, hi) interval with lo <= hi, got {rng}")
    if lo <= lo_ok or hi > hi_ok:
        raise ConfigError(f"{name} must lie within ({lo_ok}, {hi_ok}], got {rng}")


@dataclass(frozen=True)
class MarketConfig:
    """Market dimensions, sampling ranges, and the stage partition.

    stage_plan lists the length N_t of each stage; the lengths must sum to
    num_rounds. Rate ranges live in (0, 1] and the cvr range must sit at or
    below the ctr range (cvr upper bound <= ctr lower bound), keeping
    conversion rates well below click rates in every sampled round.
    """

    num_bidders: int
    num_rounds: int
    num_slots: int
    stage_plan: tuple[int, ...]
    ctr_range: tuple[float, float] = (0.3, 0.9)
    cvr_range: tuple[float, float] = (0.05, 0.15)
    value_range: tuple[float, float] = (1.0, 5.0)
    tcpa_range: tuple[float, float] = (1.0, 10.0)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "stage_plan", tuple(int(n) for n in self.stage_plan))
        for name in ("num_bidders", "num_rounds", "num_slots"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.stage_plan or any(n < 1 for n in self.stage_plan):
            raise ConfigError("stage_plan must be a nonempty list of positive stage lengths")
        if sum(self.stage_plan) != self.num_rounds:
            raise ConfigError(
                f"stage_plan sums to {sum(self.stage_plan)}, expected num_rounds={self.num_rounds}"
            )
        _check_range("ctr_range", self.ctr_range, 0.0, 1.0)
        _check_range("cvr_range", self.cvr_range, 0.0, 1.0)
        if self.cvr_range[1] > self.ctr_range[0]:
            raise ConfigError(
                f"cvr_range upper bound {self.cvr_range[1]} exceeds ctr_range lower bound "
                f"{self.ctr_range[0]}; conversion rates must not exceed click rates"
            )
        _check_range("value_range", self.value_range, 0.0, float("inf"))
        _check_range("tcpa_range", self.tcpa_range, 0.0, float("inf"))
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ConfigError("seed must be an unsigned 64-bit integer")


@dataclass
class MarketLog:
    """A fully generated market: rates for every (round, bidder, slot).

    ctr has shape (N, M, K) and is weakly decreasing along the slot axis;
    cvr and value have shape (N, M) and are constant across slots by
    construction. Optional 0/1 override arrays (shape (N, M, K)) replace
    sampled outcomes during replay; both are present or both are None.
    """

    config: MarketConfig
    tcpa: np.ndarray
    ctr: np.ndarray
    cvr: np.ndarray
    value: np.ndarray
    click_override: np.ndarray | None = None
    conv_override: np.ndarray | None = None

    @property
    def num_bidders(self) -> int:
        return self.config.num_bidders

    @property
    def num_rounds(self) -> int:
        return self.config.num_rounds

    @property
    def num_slots(self) -> int:
        return self.config.num_slots

    def sampler(self) -> "OutcomeSampler":
        return OutcomeSampler(self.config.seed)


def generate_market(config: MarketConfig) -> MarketLog:
    """Deterministically generate a market from its config.

    The draw order per purpose stream is fixed by the module docstring; two
    calls with equal (config, seed) produce bit-identical logs.
    """
    M, N, K = config.num_bidders, config.num_rounds, config.num_slots
    seed = config.seed

    def scale(u: np.ndarray, rng: tuple[float, float]) -> np.ndarray:
        # lo + (hi - lo) * u, in place: the (N, M, K) ctr block is the
        # largest array a run holds, so no full-size temporaries.
        u *= rng[1] - rng[0]
        u += rng[0]
        return u

    tcpa = scale(_stream(seed, _TCPA_STREAM).random(M), config.tcpa_range)
    ctr = scale(_stream(seed, _CTR_STREAM).random((N, M, K)), config.ctr_range)
    # Slot position effect: best slot first (a descending sort, in place).
    np.negative(ctr, out=ctr)
    ctr.sort(axis=2)
    np.negative(ctr, out=ctr)
    cvr = scale(_stream(seed, _CVR_STREAM).random((N, M)), config.cvr_range)
    value = scale(_stream(seed, _VALUE_STREAM).random((N, M)), config.value_range)
    return MarketLog(config=config, tcpa=tcpa, ctr=ctr, cvr=cvr, value=value)


class OutcomeSampler:
    """Counter-based click/conversion uniforms, addressable by (round, bidder, slot).

    Two uniforms exist for every triple whether or not a slot is displayed;
    unallocated triples simply never get read, which keeps the outcome stream
    invariant to allocation and payment logic.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def uniforms(self, rounds: np.ndarray, bidders: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Click and conversion uniforms for each (round, bidder, slot) triple."""
        rounds = np.asarray(rounds, dtype=np.uint64)
        bidders = np.asarray(bidders, dtype=np.uint64)
        slots = np.asarray(slots, dtype=np.uint64)
        ones = np.ones(np.broadcast(rounds, bidders, slots).shape, dtype=np.uint64)
        w0, w1, _, _ = philox4x64(
            (self.seed, _OUTCOME_STREAM), (ones, slots * ones, bidders * ones, rounds * ones)
        )
        return _uniform_doubles(w0), _uniform_doubles(w1)


def sample_outcomes(
    log: MarketLog,
    rounds: np.ndarray,
    bidders: np.ndarray,
    slots: np.ndarray,
    sampler: OutcomeSampler | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (click, conversion) for displayed triples, honoring replay overrides.

    Returns two uint8 arrays shaped like the inputs. A conversion requires its
    click (z <= y elementwise).
    """
    rounds = np.asarray(rounds)
    bidders = np.asarray(bidders)
    slots = np.asarray(slots)
    if log.click_override is not None and log.conv_override is not None:
        y = log.click_override[rounds, bidders, slots]
        z = log.conv_override[rounds, bidders, slots] & y
        return y.astype(np.uint8), z.astype(np.uint8)
    sampler = sampler or log.sampler()
    u_click, u_conv = sampler.uniforms(rounds, bidders, slots)
    y = u_click < log.ctr[rounds, bidders, slots]
    z = y & (u_conv < log.cvr[rounds, bidders])
    return y.astype(np.uint8), z.astype(np.uint8)


def stage_starts(stage_plan: tuple[int, ...]) -> np.ndarray:
    """First round index of each stage."""
    return np.concatenate(([0], np.cumsum(stage_plan)[:-1])).astype(np.int64)


def write_market_csv(log: MarketLog, path: str) -> None:
    """Export the market as replay rows, one per (round, bidder, slot).

    click/conversion columns hold the potential outcome of displaying that
    slot, drawn from the triple's own sub-stream; replaying them reproduces a
    live run exactly, whatever the allocation turns out to be.
    """
    N, M, K = log.num_rounds, log.num_bidders, log.num_slots
    rr, mm, kk = (a.ravel() for a in np.indices((N, M, K)))
    y, z = sample_outcomes(log, rr, mm, kk)
    write_table(
        path,
        MARKET_CSV_HEADER,
        [rr, mm, kk, log.ctr.ravel(), np.repeat(log.cvr.ravel(), K), np.repeat(log.value.ravel(), K), y, z],
    )


def read_market_csv(path: str, stage_plan: tuple[int, ...], tcpa: np.ndarray, seed: int = 0) -> MarketLog:
    """Load a replay CSV into a MarketLog with outcome overrides.

    The replay format carries no tCPA column (targets are bidder-private, not
    market data), so callers supply them. Rows must form a dense
    (round, bidder, slot) grid; ctr must be weakly decreasing across slots
    and cvr/value constant across slots. click/conversion columns are
    optional but must appear together.

    Raises:
        SchemaError: wrong header, no data rows, a cell that is not a number,
            a row of the wrong width, a round/bidder/slot that is not a
            non-negative integer, non-finite rates, outcomes other than 0/1,
            gaps or duplicates in the grid, invariant violations, or a lone
            outcome column.
    """
    base_cols = MARKET_CSV_HEADER.split(",")
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header == MARKET_CSV_HEADER:
            has_outcomes = True
        elif header == ",".join(base_cols[:6]):
            has_outcomes = False
        else:
            raise SchemaError(f"unexpected market CSV header: {header!r}")
        # Blank and whitespace-only lines are skipped. loadtxt warns on input
        # without data, so the first row is looked for before parsing.
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        if first is None:
            raise SchemaError("market CSV has no data rows")
        try:
            data = np.loadtxt(itertools.chain((first,), lines), delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise SchemaError(f"market CSV is not a table of numbers: {exc}") from exc
    width = 8 if has_outcomes else 6
    if data.shape[1] != width:
        raise SchemaError("market CSV row width does not match its header")

    idx = data[:, :3]
    if not np.all(np.isfinite(idx) & (idx >= 0) & (idx == np.floor(idx))):
        raise SchemaError("round, bidder and slot must be non-negative integers")
    if not np.all(np.isfinite(data[:, 3:6])):
        raise SchemaError("ctr, cvr and value must be finite")
    if has_outcomes and not np.all((data[:, 6:] == 0) | (data[:, 6:] == 1)):
        raise SchemaError("click and conversion must be 0 or 1")
    N, M, K = (int(top) + 1 for top in idx.max(axis=0))
    rows = data.shape[0]
    if rows != N * M * K:
        raise SchemaError(f"expected a dense {N}x{M}x{K} grid, got {rows} rows")
    n, m, k = (idx[:, j].astype(np.int64) for j in range(3))
    flat = (n * M + m) * K + k
    seen = np.zeros(rows, dtype=bool)
    seen[flat] = True
    if not seen.all():
        raise SchemaError("duplicate rows left gaps in the (round, bidder, slot) grid")

    def grid(j: int, dtype=np.float64) -> np.ndarray:
        out = np.empty(rows, dtype=dtype)
        out[flat] = data[:, j]
        return out.reshape(N, M, K)

    ctr, cvr_all, value_all = grid(3), grid(4), grid(5)
    click = grid(6, np.uint8) if has_outcomes else None
    conv = grid(7, np.uint8) if has_outcomes else None
    if np.any(np.diff(ctr, axis=2) > 0):
        raise SchemaError("ctr must be weakly decreasing across slots")
    for name, arr in (("cvr", cvr_all), ("value", value_all)):
        if np.any(arr != arr[:, :, :1]):
            raise SchemaError(f"{name} must be constant across slots")
    if has_outcomes and bool(np.any(conv > click)):
        raise SchemaError("conversion=1 requires click=1")

    tcpa = np.asarray(tcpa, dtype=np.float64)
    if tcpa.shape != (M,):
        raise SchemaError(f"tcpa must have shape ({M},), got {tcpa.shape}")
    config = MarketConfig(
        num_bidders=M,
        num_rounds=N,
        num_slots=K,
        stage_plan=tuple(stage_plan),
        ctr_range=(float(ctr.min()), float(ctr.max())),
        cvr_range=(float(cvr_all.min()), float(cvr_all.max())),
        value_range=(float(value_all.min()), float(value_all.max())),
        tcpa_range=(float(tcpa.min()), float(tcpa.max())),
        seed=seed,
    )
    return MarketLog(
        config=config,
        tcpa=tcpa,
        ctr=ctr,
        cvr=cvr_all[:, :, 0].copy(),
        value=value_all[:, :, 0].copy(),
        click_override=click,
        conv_override=conv,
    )
