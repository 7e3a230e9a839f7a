"""Post-run accuracy metrics: ratio tables, fluctuation, and click-volume bounds.

Two ratio views are provided. The per-stage table scores each stage in
isolation (stage conversions against stage payments), which is the right
lens for offline CPA and stage-paced runs. The checkpoint table scores the
run cumulatively through each stage end, which is the feedback a bidder
can actually act on under delayed conversions; with sparse stages the
per-stage view is dominated by conversion noise no payment rule can cancel.

Eligibility convention everywhere: a (bidder, window) entry appears only
when its conversion count is at least 1. An eligible window with zero
payment yields an infinite ratio rather than being dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_table
from .errors import ConfigError, SchemaError
from .market import _CHERNOFF_STREAM, _as_float, _as_int, _check_seed, _stream
from .mechanisms import SimulationResult

RATIO_CSV_HEADER = "bidder,stage,ratio"
METRIC_SUMMARY_CSV_HEADER = "mechanism,metric,upper,lower,mean"


@dataclass
class RatioTable:
    """Eligible (bidder, stage-or-group, ratio) entries for one run."""

    bidder: np.ndarray
    stage: np.ndarray
    ratio: np.ndarray

    def __post_init__(self) -> None:
        if not (self.bidder.shape == self.stage.shape == self.ratio.shape):
            raise SchemaError("ratio table columns must have identical shapes")

    @property
    def num_entries(self) -> int:
        return int(self.ratio.size)

    def summary(self) -> dict[str, float]:
        """Upper/lower quartiles and mean of the ratio column."""
        return dict(zip(("upper", "lower", "mean"), summary_stats(self.ratio)))


def summary_stats(values: np.ndarray) -> tuple[float, float, float]:
    """(upper quartile, lower quartile, mean) of values; all nan when empty.

    A quartile interpolated next to +inf is the value linear interpolation
    means, inf or the data point it lands on, where np.quantile's own
    arithmetic gives inf - inf = nan.
    """
    if values.size == 0:
        return float("nan"), float("nan"), float("nan")
    with np.errstate(invalid="ignore"):
        quartiles = np.quantile(values, [0.75, 0.25])
    if np.isnan(quartiles).any() and not np.isnan(values).any():
        quartiles = np.where(np.isnan(quartiles), np.quantile(values, [0.75, 0.25], method="higher"), quartiles)
    return float(quartiles[0]), float(quartiles[1]), float(np.mean(values))


def conversion_ratio(conversions, payment, tcpa):
    """Target-to-paid ratio tCPA * Z / P per eligible window; broadcasts.

    A window with zero payment gets an infinite ratio.
    """
    conversions, payment, tcpa = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.float64) for a in (conversions, payment, tcpa))
    )
    if np.any(conversions < 1.0):
        raise ConfigError(f"ratio needs at least one conversion, got {conversions.min()}")
    if np.any(payment < 0.0):
        raise ConfigError(f"payment must be nonnegative, got {payment.min()}")
    ratio = np.full(conversions.shape, np.inf)
    np.divide(conversions * tcpa, payment, out=ratio, where=payment > 0.0)
    return ratio[()]


def _table_from_windows(conversions: np.ndarray, payments: np.ndarray, tcpa: np.ndarray) -> RatioTable:
    """Build a ratio table from (window, bidder) conversion/payment arrays,
    bidder-major: all of bidder 0's eligible windows, then bidder 1's."""
    bidders, windows = np.nonzero(conversions.T >= 1.0)
    ratio = conversion_ratio(conversions[windows, bidders], payments[windows, bidders], tcpa[bidders])
    return RatioTable(bidders.astype(np.int64), windows.astype(np.int64), ratio)


def cpa_ratio_table(result: SimulationResult) -> RatioTable:
    """Per-stage ratios: each stage's conversions against that stage's payments."""
    return _table_from_windows(result.stage_conversions, result.stage_payments, result.tcpa)


def checkpoint_ratio_table(result: SimulationResult) -> RatioTable:
    """Cumulative ratios through each stage end.

    Entry (m, t) compares all conversions through stage t against all
    payments through stage t. This is the quantity released to bidders at
    the boundary under delayed feedback.
    """
    return _table_from_windows(
        np.cumsum(result.stage_conversions, axis=0),
        np.cumsum(result.stage_payments, axis=0),
        result.tcpa,
    )


def cfp_tau_rollup(
    stage_conversions: np.ndarray,
    stage_payments: np.ndarray,
    tcpa: np.ndarray | float,
    tau: int,
) -> RatioTable:
    """Ratios over consecutive groups of tau stages.

    Stages are merged in run order into groups of tau; a trailing partial
    group is folded into the last full group so every stage is counted
    exactly once and group totals sum to the whole-run totals. tau = 1
    reproduces the per-stage table; tau >= T yields a single group.
    """
    # (T,) and (T, M) tables alike become (T, M).
    conversions, payments = (np.asarray(a, dtype=np.float64) for a in (stage_conversions, stage_payments))
    conversions, payments = (a.reshape(len(a), -1) for a in (conversions, payments))
    if conversions.shape != payments.shape:
        raise SchemaError(
            f"stage conversions {conversions.shape} and payments {payments.shape} must match"
        )
    T, M = conversions.shape
    if tau < 1:
        raise ConfigError(f"tau must be at least 1, got {tau}")
    tcpa_arr = np.broadcast_to(np.asarray(tcpa, dtype=np.float64), (M,))

    bounds = [g * tau for g in range(max(T // tau, 1))] + [T]
    grouped_z, grouped_p = (
        np.vstack([table[lo:hi].sum(axis=0) for lo, hi in zip(bounds, bounds[1:])]) for table in (conversions, payments)
    )
    return _table_from_windows(grouped_z, grouped_p, tcpa_arr)


def pplt_objective(
    stage_conversions: np.ndarray,
    stage_payments: np.ndarray,
    tcpa: np.ndarray,
) -> np.ndarray:
    """Per-bidder mean absolute per-stage ratio error |tCPA * Z / P - 1|.

    Of the four cases of a (stage, bidder) entry, an idle one (no
    conversions, no payment) contributes zero; an unpaid one (conversions,
    zero payment) and a paid one without conversions (a target of zero)
    contribute infinity; a paid one its ratio error. The stage pacing
    oracle drives this to exactly zero.
    """
    z, p, tcpa = (np.asarray(a, dtype=np.float64) for a in (stage_conversions, stage_payments, tcpa))
    paid_error = np.abs(z * tcpa / np.where(p > 0.0, p, 1.0) - 1.0)
    return np.where(z > 0.0, np.where(p > 0.0, paid_error, np.inf), np.where(p > 0.0, np.inf, 0.0)).mean(axis=0)


def fluctuation_stats(payments: np.ndarray, tcpa: float) -> tuple[float, float]:
    """Population variance and range of tCPA-normalized per-click payments."""
    payments = np.asarray(payments, dtype=np.float64)
    if payments.size == 0:
        return float("nan"), float("nan")
    scaled = payments / tcpa
    return float(np.var(scaled)), float(np.max(scaled) - np.min(scaled))


@dataclass
class FluctuationTable:
    """Per-bidder payment dispersion over clicked rounds."""

    bidder: np.ndarray
    variance: np.ndarray
    value_range: np.ndarray


def clicked_payments_by_bidder(result: SimulationResult) -> list[np.ndarray]:
    """Each bidder's per-click payments (zero payments included), in round order.

    One stable sort of the clicked rows by bidder, then a contiguous slice
    per bidder: the same values in the same order as masking the rounds
    table once per bidder, at one pass instead of M.
    """
    r = result.rounds
    clicked = np.flatnonzero(r.click)
    bidder = r.bidder[clicked]
    pays = r.payment[clicked[np.argsort(bidder, kind="stable")]]
    ends = np.cumsum(np.bincount(bidder, minlength=result.num_bidders))
    return np.split(pays, ends[:-1])


def payment_fluctuation(result: SimulationResult) -> FluctuationTable:
    """Dispersion of per-click payments (zero payments included) per bidder.

    Bidders with no clicks are excluded; payments are normalized by the
    bidder's tCPA before computing variance and range.
    """
    bidders = []
    variances = []
    ranges = []
    for m, pays in enumerate(clicked_payments_by_bidder(result)):
        if pays.size == 0:
            continue
        var, rng = fluctuation_stats(pays, float(result.tcpa[m]))
        bidders.append(m)
        variances.append(var)
        ranges.append(rng)
    return FluctuationTable(
        np.array(bidders, dtype=np.int64),
        np.array(variances, dtype=np.float64),
        np.array(ranges, dtype=np.float64),
    )


def _chernoff_bound(epsilon: float, cvr: float) -> float:
    """ceil((2 + eps) * ln(1 / eps) / (eps^2 * cvr)) as a float, inf where it overflows."""
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.ceil((2.0 + epsilon) * np.log(1.0 / epsilon) / (epsilon * epsilon * cvr)))


def check_chernoff_args(epsilon: float, cvr: float, where: str = "") -> tuple[float, float]:
    """(epsilon, cvr) as floats, read as config values are (a bool is
    refused, a numeric string taken). Refuse epsilon outside (0, 1), where
    the bound is not vacuous, cvr outside (0, 1], or a pair whose bound is
    not an integer that a binomial draw can take (below 2**63); ``where``
    prefixes the argument's name in the error (a config section, say). An
    overflow is laid on epsilon if it overflows at cvr = 1."""
    # A float, NaN and inf included, is left to the range checks below.
    if not isinstance(epsilon, float):
        epsilon = _as_float(epsilon, f"{where}epsilon")
    if not isinstance(cvr, float):
        cvr = _as_float(cvr, f"{where}cvr")
    if not epsilon > 0.0:
        raise ConfigError(f"{where}epsilon must be positive, got {epsilon}")
    if not 0.0 < cvr <= 1.0:
        raise ConfigError(f"{where}cvr must lie in (0, 1], got {cvr}")
    if epsilon >= 1.0:
        raise ConfigError(f"{where}epsilon must be below 1, where the bound is not vacuous, got {epsilon}")
    bound = _chernoff_bound(epsilon, cvr)
    if not bound < 2.0 ** 63:
        key = "epsilon" if not _chernoff_bound(epsilon, 1.0) < 2.0 ** 63 else "cvr"
        raise ConfigError(
            f"{where}{key} is too small: epsilon={epsilon} and cvr={cvr} give a click bound of "
            f"{bound}, not a finite integer below 2**63"
        )
    return epsilon, cvr


def chernoff_min_clicks(epsilon: float, cvr: float) -> int:
    """Click volume above which conversion counts concentrate within epsilon.

    Evaluates ceil((2 + eps) * ln(1 / eps) / (eps^2 * cvr)) for eps in
    (0, 1) and cvr in (0, 1]; check_chernoff_args refuses anything else,
    eps >= 1 included, where the multiplicative bound is vacuous.
    """
    return int(_chernoff_bound(*check_chernoff_args(epsilon, cvr)))


def chernoff_empirical_check(
    cvr: float,
    epsilon: float,
    trials: int,
    click_volume: int | None = None,
    seed: int = 0,
) -> float:
    """Monte Carlo violation rate for the click-volume bound.

    Each trial draws a Binomial(click_volume, cvr) conversion count and
    flags a violation when it deviates from its mean by more than epsilon
    relatively. epsilon and cvr are checked by check_chernoff_args on every
    call; click_volume defaults to chernoff_min_clicks(epsilon, cvr), and a
    given one must be an integer in [0, 2**63); trials must be an integer of
    at least 1 and seed one in [0, 2**64). A bool is refused as a count. The
    click-through rate does not enter: the bound conditions on clicks.
    """
    trials = _as_int(trials, "trials")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    epsilon, cvr = check_chernoff_args(epsilon, cvr)
    _check_seed(seed, "seed")
    click_volume = chernoff_min_clicks(epsilon, cvr) if click_volume is None else _as_int(click_volume, "click_volume")
    if not 0 <= click_volume < 2**63:
        raise ConfigError(f"click_volume must lie in [0, 2**63), got {click_volume}")
    if click_volume == 0:
        return 0.0
    draws = _stream(seed, _CHERNOFF_STREAM).binomial(click_volume, cvr, size=trials)
    mean = click_volume * cvr
    violations = np.abs(draws / mean - 1.0) > epsilon
    return float(np.mean(violations))


def etic_violation_rate(ratios: np.ndarray, epsilon: float) -> float:
    """Fraction of ratio entries outside the [1 - eps, 1 + eps] band.

    Empty input yields nan: no eligible windows means the truthfulness
    check is vacuous, not passed.
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.size == 0:
        return float("nan")
    return float(np.mean(np.abs(ratios - 1.0) > epsilon))


def write_ratio_csv(table: RatioTable, path: str) -> None:
    write_table(path, RATIO_CSV_HEADER, [
        table.bidder.astype(np.int64), table.stage.astype(np.int64), table.ratio.astype(np.float64),
    ])


def write_metric_summary_csv(rows: list[tuple[str, str, float, float, float]], path: str) -> None:
    """Write (mechanism, metric, upper, lower, mean) summary rows."""
    write_table(path, METRIC_SUMMARY_CSV_HEADER, [
        [row[0] for row in rows],
        [row[1] for row in rows],
        *(np.array([row[i] for row in rows], dtype=np.float64) for i in (2, 3, 4)),
    ])
