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
``Generator(Philox(key=np.array([seed, purpose], dtype=np.uint64)))``.
Outcome sub-streams are evaluated with the raw Philox block function below,
which runs its ten rounds once over all of a call's counters. Each output
word depends only on (key, counter), so it is bit-identical to
``numpy.random.Philox(key=[seed, 5], counter=[0, k, m, n]).random_raw()``
(numpy increments counter word 0 before emitting its first block, hence the
leading 1 in the counter). A uniform double is ``(word >> 11) * 2**-53``.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .csvio import CHUNK_ROWS, write_table
from .errors import ConfigError, SchemaError, _open_input

MARKET_CSV_HEADER = "round,bidder,slot,ctr,cvr,value,click,conversion"

# Philox-4x64 round multipliers, split into 32-bit limbs for the
# 64x64 -> 128-bit multiply, and the Weyl key increments of the ten rounds.
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_MUL0, _MUL1 = ((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)) for m in (_M0, _M1))
_KEY_STEPS = np.arange(10, dtype=np.uint64)[:, None] * np.array(
    [0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64
)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_INV53 = 2.0 ** -53

# The most bytes a market's float64 rate arrays may hold together: ctr
# (rounds, bidders, slots) plus cvr and value (rounds, bidders), that is
# N·M·(K + 2)·8 bytes. Desk holds 156 MB of them.
MAX_MARKET_BYTES = 2 ** 31

_TCPA_STREAM = 1
_CTR_STREAM = 2
_CVR_STREAM = 3
_VALUE_STREAM = 4
_OUTCOME_STREAM = 5
# Streams drawn outside generation: the policy trainer's and the Chernoff verifier's.
_INIT_STREAM, _ACTION_STREAM, _SHUFFLE_STREAM, _MARKET_SEED_STREAM = 11, 12, 13, 14
_CHERNOFF_STREAM = 21


def _mulhi(a: np.ndarray, b_lo: np.uint64, b_hi: np.uint64) -> np.ndarray:
    """High 64 bits of a * (b_hi * 2**32 + b_lo), via 32-bit limbs."""
    a_lo = a & _MASK32
    a_hi = a >> _S32
    lo = a_lo * b_lo
    mid = a_hi * b_lo + (lo >> _S32)
    mid_lo = (mid & _MASK32) + a_lo * b_hi
    return a_hi * b_hi + (mid >> _S32) + (mid_lo >> _S32)


def philox4x64(key: tuple[int, int], counter: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw 10-round Philox-4x64 block function, vectorized over counters.

    The ten rounds run once over all counters. Each output word depends only
    on (key, counter), so how calls split the counters never changes a bit.
    The caller's arrays are only read.

    Args:
        key: two 64-bit key words.
        counter: four uint64 arrays (counter words 0..3) that broadcast
            together; scalars are taken as constant words.

    Returns:
        Four uint64 arrays of the broadcast shape: the output block words 0..3.
        All-scalar counters give four uint64 scalars.
    """
    x0, x1, x2, x3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    (m0, m0_lo, m0_hi), (m1, m1_lo, m1_hi) = _MUL0, _MUL1
    with np.errstate(over="ignore"):
        for k0, k1 in _KEY_STEPS + np.array(key, dtype=np.uint64):
            hi0 = _mulhi(x0, m0_lo, m0_hi)
            lo0 = m0 * x0
            hi1 = _mulhi(x2, m1_lo, m1_hi)
            lo1 = m1 * x2
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return x0, x1, x2, x3


def _uniform_doubles(words: np.ndarray) -> np.ndarray:
    return (words >> _S11).astype(np.float64) * _INV53


def _stream(seed: int, purpose: int) -> np.random.Generator:
    # A uint64 array: numpy turns a plain list holding an int of 2**63 or
    # more into float64, which would drop the seed's low bits.
    return np.random.Generator(np.random.Philox(key=np.array([seed, purpose], dtype=np.uint64)))


def _as_int(value, key: str) -> int:
    """An integer, a NumPy integer included. A whole float such as 2.0 is taken
    as its integer; a fractional float, bool or string is refused rather than
    truncated or coerced."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, key: str) -> float:
    """A finite number. A string that parses as one is taken too, because
    PyYAML reads an exponent written without a dot, such as 1e-3, as a string."""
    number = None
    if isinstance(value, (numbers.Real, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
    if number is None or not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _as_list(value, key: str, item, length: int | None = None) -> tuple:
    """A list, tuple or 1-D NumPy array whose entries each go through item(entry, "key[i]")."""
    sequence = isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1
    if not sequence or (length is not None and len(value) != length):
        size = "list" if length is None else f"{length}-element list"
        raise ConfigError(f"{key} must be a {size}, got {value!r}")
    return tuple(item(v, f"{key}[{i}]") for i, v in enumerate(value))


def _as_value(value, hint, key: str, section=None):
    """A config value read by its field's annotation: X | None, a fixed or
    variadic tuple, int, float or bool; any other type is kept as given. A
    nested dataclass goes through section(value, cls, key), or is kept as
    given when section is None."""
    if isinstance(hint, UnionType):  # X | None
        return None if value is None else _as_value(value, get_args(hint)[0], key, section)
    if is_dataclass(hint):
        return value if section is None else section(value, hint, key)
    args = get_args(hint)
    if get_origin(hint) is tuple:  # tuple[T, ...] or a fixed tuple[T, T], all of one type
        length = None if args[-1] is Ellipsis else len(args)
        return _as_list(value, key, lambda v, k: _as_value(v, args[0], k, section), length)
    parse = {int: _as_int, float: _as_float, bool: _as_bool}.get(hint)
    return value if parse is None else parse(value, key)


def _check_fields(config) -> None:
    """Read each settable field of the frozen dataclass config by its
    annotation, as load_config reads the same value from YAML."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        if f.init:
            object.__setattr__(config, f.name, _as_value(getattr(config, f.name), hints[f.name], f.name))


def _check_seed(seed: int, name: str) -> int:
    """seed as an int, refused unless it is an integer in [0, 2**64)."""
    if not 0 <= _as_int(seed, name) < 2 ** 64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def _check_range(name: str, rng: tuple[float, float], lo_ok: float, hi_ok: float) -> None:
    lo, hi = rng
    if lo > hi:
        raise ConfigError(f"{name} must be a finite (lo, hi) interval with lo <= hi, got {rng}")
    if lo <= lo_ok or hi > hi_ok:
        raise ConfigError(f"{name} must lie within ({lo_ok}, {hi_ok}], got {rng}")


@dataclass(frozen=True)
class MarketConfig:
    """Market dimensions, sampling ranges, and the stage partition.

    stage_plan lists the length N_t of each stage; num_rounds is their sum,
    set here and never passed in. The rate arrays,
    num_rounds·num_bidders·(num_slots + 2)·8 bytes, hold at most
    MAX_MARKET_BYTES. Rate ranges live in (0, 1] and the cvr range must sit
    at or below the ctr range (cvr upper bound <= ctr lower bound), keeping
    conversion rates well below click rates in every sampled round.
    """

    num_bidders: int
    num_rounds: int = field(init=False)
    num_slots: int
    stage_plan: tuple[int, ...]
    ctr_range: tuple[float, float] = (0.3, 0.9)
    cvr_range: tuple[float, float] = (0.05, 0.15)
    value_range: tuple[float, float] = (1.0, 5.0)
    tcpa_range: tuple[float, float] = (1.0, 10.0)
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        object.__setattr__(self, "num_rounds", sum(self.stage_plan))
        for name in ("num_bidders", "num_slots"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.num_rounds * self.num_bidders * (self.num_slots + 2) * 8 > MAX_MARKET_BYTES:
            raise ConfigError(
                f"num_rounds x num_bidders x (num_slots + 2) x 8 bytes of rate arrays must be at most "
                f"{MAX_MARKET_BYTES} ({MAX_MARKET_BYTES / 2 ** 30:g} GiB)"
            )
        if not self.stage_plan or any(n < 1 for n in self.stage_plan):
            raise ConfigError("stage_plan must be a nonempty list of positive stage lengths")
        _check_range("ctr_range", self.ctr_range, 0.0, 1.0)
        _check_range("cvr_range", self.cvr_range, 0.0, 1.0)
        if self.cvr_range[1] > self.ctr_range[0]:
            raise ConfigError(
                f"cvr_range upper bound {self.cvr_range[1]} exceeds ctr_range lower bound "
                f"{self.ctr_range[0]}; conversion rates must not exceed click rates"
            )
        _check_range("value_range", self.value_range, 0.0, float("inf"))
        _check_range("tcpa_range", self.tcpa_range, 0.0, float("inf"))
        _check_seed(self.seed, "seed")


@dataclass
class MarketLog:
    """A fully generated market: rates for every (round, bidder, slot).

    ctr has shape (N, M, K) and is weakly decreasing along the slot axis;
    cvr and value have shape (N, M) and are constant across slots by
    construction. Optional 0/1 override arrays (shape (N, M, K)) replace
    sampled outcomes during replay; both are present or both are None.

    outcome_memo maps a stage to the engine's outcome pass under a run's
    opening bids, with the ``score`` text the rounds writer formatted from
    it, so that mechanisms run on the same log share both: a pass is reused
    for bids of the same bytes, its text for a piece of scores equal to its
    own (see ``mechanisms.run_auction`` and ``mechanisms.write_rounds_csv``).
    It is never copied: a log made with ``dataclasses.replace`` starts with
    an empty memo, and the arrays above must not be changed in place once a
    run has used the log.
    """

    config: MarketConfig
    tcpa: np.ndarray
    ctr: np.ndarray
    cvr: np.ndarray
    value: np.ndarray
    click_override: np.ndarray | None = None
    conv_override: np.ndarray | None = None
    outcome_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_bidders(self) -> int:
        return self.config.num_bidders

    @property
    def num_rounds(self) -> int:
        return self.config.num_rounds

    @property
    def num_slots(self) -> int:
        return self.config.num_slots


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


def sample_outcomes(
    log: MarketLog, rounds: np.ndarray, bidders: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (click, conversion) for displayed triples, honoring replay overrides.

    Each triple's click and conversion uniforms are words 0 and 1 of its own
    Philox block under the log's seed, whatever the allocation or payments.
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
    w0, w1, _, _ = philox4x64((log.config.seed, _OUTCOME_STREAM), (1, slots, bidders, rounds))
    y = _uniform_doubles(w0) < log.ctr[rounds, bidders, slots]
    z = y & (_uniform_doubles(w1) < log.cvr[rounds, bidders])
    return y.astype(np.uint8), z.astype(np.uint8)


def stage_starts(stage_plan: tuple[int, ...]) -> np.ndarray:
    """First round index of each stage."""
    return np.concatenate(([0], np.cumsum(stage_plan)[:-1])).astype(np.int64)


def write_market_csv(log: MarketLog, path: str) -> None:
    """Export the market as replay rows, one per (round, bidder, slot).

    click/conversion columns hold the potential outcome of displaying that
    slot, drawn from the triple's own sub-stream; replaying them reproduces a
    live run exactly, whatever the allocation turns out to be. Rows are built
    and written CHUNK_ROWS at a time, so memory holds one chunk's rows.
    """
    N, M, K = log.num_rounds, log.num_bidders, log.num_slots
    ctr, cvr, value = log.ctr.reshape(-1), log.cvr.reshape(-1), log.value.reshape(-1)

    def chunks():
        for start in range(0, N * M * K, CHUNK_ROWS):
            flat = np.arange(start, min(start + CHUNK_ROWS, N * M * K))
            pair, kk = np.divmod(flat, K)
            rr, mm = np.divmod(pair, M)
            y, z = sample_outcomes(log, rr, mm, kk)
            yield [rr, mm, kk, ctr[flat], cvr[pair], value[pair], y, z]

    write_table(path, MARKET_CSV_HEADER, chunks())


def read_market_csv(path: str, stage_plan: tuple[int, ...], tcpa: np.ndarray, seed: int = 0) -> MarketLog:
    """Load a replay CSV into a MarketLog with outcome overrides.

    The replay format carries no tCPA column (targets are bidder-private, not
    market data), so callers supply them. Rows, in any order, must form a
    dense (round, bidder, slot) grid of sum(stage_plan) rounds (the log's
    num_rounds) and len(tcpa) bidders; ctr must be weakly decreasing across
    slots and cvr/value constant across slots. click/conversion columns are
    optional but must appear together.

    The file is parsed CHUNK_ROWS rows at a time, each chunk checked and
    scattered into the grids before the next is read, so memory holds the
    grids plus one chunk. The slot axis grows to the largest slot seen. A
    grid that would need more rows than the file's size can hold is refused
    before it is allocated.

    Raises:
        MissingInputError: path is not a file.
        SchemaError: naming the CSV: text that is not UTF-8, wrong header, no
            data rows, a cell that is not a number, a row of the wrong width,
            a round/bidder/slot that is not a non-negative integer or lies
            outside the grid, non-finite rates, outcomes other than 0/1, gaps
            or duplicates in the grid, invariant violations, a lone outcome
            column, or rates or a stage_plan that MarketConfig refuses.
    """
    where = f"market CSV {path}"
    tcpa = np.asarray(tcpa, dtype=np.float64)
    N, M = sum(int(n) for n in stage_plan), tcpa.shape[0] if tcpa.ndim == 1 else 0
    if N < 1 or M < 1:
        raise SchemaError(f"{where}: stage_plan {tuple(stage_plan)} and tcpa of shape {tcpa.shape} give no grid")
    base_cols = MARKET_CSV_HEADER.split(",")
    with _open_input(path, "market CSV", SchemaError) as fh:
        header = fh.readline().strip()
        if header == MARKET_CSV_HEADER:
            width = 8
        elif header == ",".join(base_cols[:6]):
            width = 6
        else:
            raise SchemaError(f"{where}: unexpected header {header!r}")
        # A row is at least one character per cell plus its separators, so
        # a grid of more rows than this cannot be dense and is not allocated.
        max_rows = (os.fstat(fh.fileno()).st_size + 1) // (2 * width)
        if N * M > max_rows:
            raise SchemaError(f"{where}: {N} rounds x {M} bidders need more rows than the file can hold")
        # Per (round, bidder, slot): ctr (NaN until set)[, click, conversion];
        # the slot axis widens as larger slots turn up. cvr (NaN until set) and
        # value are one per (round, bidder), set by the pair's first row; every
        # row must agree.
        ctr = np.full((N, M, 0), np.nan)
        outcomes = [np.zeros((N, M, 0), np.uint8) for _ in range(width - 6)]
        cvr, value = np.full((N, M), np.nan), np.zeros((N, M))
        K = rows = 0
        # Blank and whitespace-only lines are skipped, and loadtxt, which
        # warns on input without data, never sees an empty chunk.
        lines = (line for line in fh if line.strip())
        while chunk := list(itertools.islice(lines, CHUNK_ROWS)):
            try:
                data = np.loadtxt(chunk, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise SchemaError(f"{where} is not a table of numbers: {exc}") from exc
            del chunk
            if data.shape[1] != width:
                raise SchemaError(f"{where}: row width does not match its header")
            idx = data[:, :3]
            if not np.all(np.isfinite(idx) & (idx >= 0) & (idx == np.floor(idx))):
                raise SchemaError(f"{where}: round, bidder and slot must be non-negative integers")
            if not np.all(np.isfinite(data[:, 3:6])):
                raise SchemaError(f"{where}: ctr, cvr and value must be finite")
            if width == 8 and not np.all((data[:, 6:] == 0) | (data[:, 6:] == 1)):
                raise SchemaError(f"{where}: click and conversion must be 0 or 1")
            top_round, top_bidder, top_slot = (int(top) for top in idx.max(axis=0))
            if top_round >= N or top_bidder >= M:
                raise SchemaError(
                    f"{where}: round {top_round} or bidder {top_bidder} lies outside the {N} rounds of "
                    f"stage_plan and the {M} bidders of tcpa"
                )
            if top_slot >= K:
                if N * M * (top_slot + 1) > max_rows:
                    raise SchemaError(f"{where}: slot {top_slot} needs more rows than the file can hold")
                widen = ((0, 0), (0, 0), (0, top_slot + 1 - K))
                ctr = np.pad(ctr, widen, constant_values=np.nan)
                outcomes = [np.pad(g, widen) for g in outcomes]
                K = top_slot + 1
            n, m, k = (idx[:, j].astype(np.int64) for j in range(3))
            pair = n * M + m
            fresh = np.isnan(cvr.reshape(-1)[pair])
            for name, j, grid in (("cvr", 4, cvr.reshape(-1)), ("value", 5, value.reshape(-1))):
                grid[pair[fresh]] = data[fresh, j]
                if np.any(grid[pair] != data[:, j]):
                    raise SchemaError(f"{where}: {name} must be constant across slots")
            flat = pair * K + k
            ctr.reshape(-1)[flat] = data[:, 3]
            for j, grid in enumerate(outcomes, start=6):
                grid.reshape(-1)[flat] = data[:, j]
            rows += data.shape[0]
    if rows == 0:
        raise SchemaError(f"{where} has no data rows")
    if rows != N * M * K:
        raise SchemaError(f"{where}: expected a dense {N}x{M}x{K} grid, got {rows} rows")
    if np.isnan(ctr).any():  # ctr cells are finite, so a NaN is a cell no row set
        raise SchemaError(f"{where}: duplicate rows left gaps in the (round, bidder, slot) grid")
    if np.any(ctr[:, :, 1:] > ctr[:, :, :-1]):
        raise SchemaError(f"{where}: ctr must be weakly decreasing across slots")
    click, conv = outcomes or (None, None)
    if click is not None and bool(np.any(conv > click)):
        raise SchemaError(f"{where}: conversion=1 requires click=1")
    try:
        config = MarketConfig(
            num_bidders=M,
            num_slots=K,
            stage_plan=tuple(stage_plan),
            ctr_range=(float(ctr.min()), float(ctr.max())),
            cvr_range=(float(cvr.min()), float(cvr.max())),
            value_range=(float(value.min()), float(value.max())),
            tcpa_range=(float(tcpa.min()), float(tcpa.max())),
            seed=seed,
        )
    except ConfigError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return MarketLog(
        config=config,
        tcpa=tcpa,
        ctr=ctr,
        cvr=cvr,
        value=value,
        click_override=click,
        conv_override=conv,
    )
