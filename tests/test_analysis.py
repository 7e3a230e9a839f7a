"""Ratio tables, fluctuation metrics, and the click-volume bound."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from auctionlab import (
    ConfigError,
    MarketConfig,
    MechanismConfig,
    SchemaError,
    TruthfulAgent,
    chernoff_empirical_check,
    chernoff_min_clicks,
    checkpoint_ratio_table,
    generate_market,
    payment_fluctuation,
    run_auction,
)
from auctionlab.analysis import (
    METRIC_SUMMARY_CSV_HEADER,
    RATIO_CSV_HEADER,
    RatioTable,
    cfp_tau_rollup,
    clicked_payments_by_bidder,
    conversion_ratio,
    cpa_ratio_table,
    etic_violation_rate,
    fluctuation_stats,
    pplt_objective,
    summary_stats,
    write_metric_summary_csv,
    write_ratio_csv,
)
from auctionlab.market import _stream
from reference import ratio_table


def _market(**kw):
    base = dict(
        num_bidders=3,
        num_slots=2,
        stage_plan=(30, 30, 30),
        ctr_range=(0.5, 0.9),
        cvr_range=(0.2, 0.4),
        value_range=(1.0, 3.0),
        tcpa_range=(1.0, 4.0),
        seed=21,
    )
    base.update(kw)
    return generate_market(MarketConfig(**base))


def _truthful(market):
    return [TruthfulAgent() for _ in range(market.num_bidders)]


def test_conversion_ratio_values():
    assert conversion_ratio(50.0, 95.0, 2.0) == pytest.approx(1.0526315789473684, abs=1e-15)
    assert conversion_ratio(1.0, 0.0, 2.0) == float("inf")
    with pytest.raises(ConfigError):
        conversion_ratio(0.5, 1.0, 2.0)
    with pytest.raises(ConfigError):
        conversion_ratio(1.0, -1.0, 2.0)


def test_conversion_ratio_broadcasts():
    ratio = conversion_ratio(np.array([50.0, 1.0, 2.0]), np.array([95.0, 0.0, 4.0]), 2.0)
    np.testing.assert_array_equal(ratio, [50.0 * 2.0 / 95.0, np.inf, 1.0])
    with pytest.raises(ConfigError):
        conversion_ratio(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 2.0)
    with pytest.raises(ConfigError):
        conversion_ratio(np.array([1.0, 1.0]), np.array([1.0, -1.0]), 2.0)


def test_ratio_table_summary_quartiles():
    table = RatioTable(
        np.zeros(4, dtype=np.int64),
        np.arange(4, dtype=np.int64),
        np.array([0.9, 1.0, 1.1, 1.2]),
    )
    s = table.summary()
    assert s["upper"] == pytest.approx(1.125, abs=1e-15)
    assert s["lower"] == pytest.approx(0.975, abs=1e-15)
    assert s["mean"] == pytest.approx(1.05, abs=1e-15)
    empty = RatioTable(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    assert all(np.isnan(v) for v in empty.summary().values())
    with pytest.raises(SchemaError):
        RatioTable(np.zeros(2, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros(2))


@pytest.mark.parametrize(
    "values,upper,lower",
    [
        pytest.param([1.0, 2.0, 3.0, 4.0, np.inf], 4.0, 2.0, id="lands_on_a_point"),
        pytest.param([1.0, 2.0, 3.0, np.inf], np.inf, 1.75, id="between_a_point_and_inf"),
        pytest.param([1.0, np.inf, np.inf], np.inf, np.inf, id="between_inf_and_inf"),
        pytest.param([np.inf, np.inf], np.inf, np.inf, id="all_inf"),
    ],
)
def test_summary_stats_quartile_next_to_inf_is_what_linear_interpolation_means(values, upper, lower):
    # np.quantile's interpolation computes inf - inf there, which is nan and warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = summary_stats(np.array(values))
    assert got == (upper, lower, np.inf)


def test_summary_stats_keeps_a_nan_input_nan():
    upper, lower, mean = summary_stats(np.array([1.0, np.nan, np.inf]))
    assert np.isnan(upper) and np.isnan(lower) and np.isnan(mean)


def test_offline_cpa_run_has_unit_ratios_everywhere():
    market = _market()
    result = run_auction(market, MechanismConfig("CPA_OFFLINE"), _truthful(market))
    stage = cpa_ratio_table(result)
    checkpoint = checkpoint_ratio_table(result)
    assert stage.num_entries > 0
    assert np.max(np.abs(stage.ratio - 1.0)) <= 1e-12
    assert np.max(np.abs(checkpoint.ratio - 1.0)) <= 1e-12


def test_ratio_table_eligibility_and_columns():
    market = _market()
    result = run_auction(market, MechanismConfig("CPA_OFFLINE"), _truthful(market))
    table = cpa_ratio_table(result)
    # An entry exists exactly where the stage saw at least one conversion.
    for b, s in zip(table.bidder, table.stage):
        assert result.stage_conversions[s, b] >= 1.0
    eligible = int((result.stage_conversions >= 1.0).sum())
    assert table.num_entries == eligible


def test_checkpoint_table_matches_cumulative_recomputation():
    market = _market(seed=33)
    result = run_auction(market, MechanismConfig("CFP"), _truthful(market))
    table = checkpoint_ratio_table(result)
    z = np.cumsum(result.stage_conversions, axis=0)
    p = np.cumsum(result.stage_payments, axis=0)
    for b, s, r in zip(table.bidder, table.stage, table.ratio):
        want = z[s, b] * result.tcpa[b] / p[s, b] if p[s, b] > 0 else float("inf")
        assert r == want


def test_ratio_tables_match_loop_reference():
    market = _market(seed=35)
    result = run_auction(market, MechanismConfig("CFP"), _truthful(market))
    rng = np.random.default_rng(5)
    z = rng.integers(0, 3, size=(6, 4)).astype(np.float64)
    p = np.where(rng.random((6, 4)) < 0.3, 0.0, rng.uniform(0.1, 2.0, (6, 4)))
    tcpa = np.array([1.0, 2.5, 4.0, 0.5])
    cases = [
        (cpa_ratio_table(result), result.stage_conversions, result.stage_payments, result.tcpa),
        (
            checkpoint_ratio_table(result),
            np.cumsum(result.stage_conversions, axis=0),
            np.cumsum(result.stage_payments, axis=0),
            result.tcpa,
        ),
        (cfp_tau_rollup(z, p, tcpa, tau=1), z, p, tcpa),
    ]
    for table, conversions, payments, targets in cases:
        bidders, windows, ratios = ratio_table(conversions, payments, targets)
        np.testing.assert_array_equal(table.bidder, bidders)
        np.testing.assert_array_equal(table.stage, windows)
        np.testing.assert_array_equal(table.ratio, ratios)
    assert np.isinf(cases[-1][0].ratio).any()


def test_tau_rollup_group_totals():
    z = np.array([1.0, 3.0])
    p = np.array([2.2, 5.8])
    merged = cfp_tau_rollup(z, p, 2.0, tau=2)
    assert merged.num_entries == 1
    assert merged.ratio[0] == pytest.approx(1.0, abs=1e-15)
    per_stage = cfp_tau_rollup(z, p, 2.0, tau=1)
    np.testing.assert_allclose(per_stage.ratio, [2.0 / 2.2, 6.0 / 5.8], rtol=1e-15)


def test_tau_rollup_trailing_stages_fold_into_last_group():
    rng = np.random.default_rng(7)
    z = rng.integers(0, 4, size=(5, 3)).astype(np.float64)
    p = rng.uniform(0.5, 2.0, size=(5, 3))
    tcpa = np.array([1.0, 2.0, 3.0])
    table = cfp_tau_rollup(z, p, tcpa, tau=2)
    # Five stages at tau 2: groups [0,1] and [2,3,4].
    assert set(table.stage.tolist()) <= {0, 1}
    for m in range(3):
        zg = [z[:2, m].sum(), z[2:, m].sum()]
        pg = [p[:2, m].sum(), p[2:, m].sum()]
        for g in range(2):
            if zg[g] < 1.0:
                continue
            mask = (table.bidder == m) & (table.stage == g)
            assert table.ratio[mask][0] == zg[g] * tcpa[m] / pg[g]
    # tau >= T collapses to one group with whole-run totals.
    single = cfp_tau_rollup(z, p, tcpa, tau=9)
    assert set(single.stage.tolist()) <= {0}
    with pytest.raises(ConfigError):
        cfp_tau_rollup(z, p, tcpa, tau=0)
    with pytest.raises(SchemaError):
        cfp_tau_rollup(z, p[:4], tcpa, tau=1)


def test_tau_rollup_matches_per_stage_table_at_tau_one():
    market = _market(seed=4)
    result = run_auction(market, MechanismConfig("CFP"), _truthful(market))
    rolled = cfp_tau_rollup(result.stage_conversions, result.stage_payments, result.tcpa, 1)
    stage = cpa_ratio_table(result)
    np.testing.assert_array_equal(rolled.ratio, stage.ratio)
    np.testing.assert_array_equal(rolled.bidder, stage.bidder)
    np.testing.assert_array_equal(rolled.stage, stage.stage)


def test_pplt_objective_conventions():
    z = np.array([[1.0], [0.0]])
    p = np.array([[1.0], [0.0]])
    # Stage 0: |2/1 - 1| = 1; stage 1 idle: 0. Mean 0.5.
    np.testing.assert_allclose(pplt_objective(z, p, np.array([2.0])), [0.5])
    unpaid = pplt_objective(np.array([[1.0]]), np.array([[0.0]]), np.array([2.0]))
    assert unpaid[0] == np.inf
    stray = pplt_objective(np.array([[0.0]]), np.array([[1.0]]), np.array([2.0]))
    assert stray[0] == np.inf


def test_stage_pacing_oracle_zeroes_the_objective():
    market = _market(seed=8)
    result = run_auction(market, MechanismConfig("DFP", controller="oracle"), _truthful(market))
    errors = pplt_objective(result.stage_conversions, result.stage_payments, result.tcpa)
    assert np.max(errors) <= 1e-12


def test_fluctuation_stats_values():
    var, rng = fluctuation_stats(np.array([0.0, 1.0]), 1.0)
    assert var == 0.25
    assert rng == 1.0
    var, rng = fluctuation_stats(np.zeros(0), 1.0)
    assert np.isnan(var) and np.isnan(rng)
    # tCPA normalization: scaling payments and tcpa together is invariant.
    v1, r1 = fluctuation_stats(np.array([1.0, 3.0]), 2.0)
    v2, r2 = fluctuation_stats(np.array([2.0, 6.0]), 4.0)
    assert v1 == v2 and r1 == r2


def test_constant_price_run_has_zero_fluctuation():
    market = _market(seed=13)
    result = run_auction(market, MechanismConfig("PACING_OFFLINE"), _truthful(market))
    table = payment_fluctuation(result)
    assert table.bidder.size > 0
    assert np.max(table.variance) <= 1e-12
    assert np.max(table.value_range) <= 1e-12


def test_fluctuation_counts_zero_payment_clicks():
    market = _market(seed=13)
    result = run_auction(market, MechanismConfig("CPA_OFFLINE"), _truthful(market))
    table = payment_fluctuation(result)
    # Pay-per-conversion over clicks with and without conversions: dispersion.
    assert np.max(table.variance) > 0.0
    clicked_bidders = set(result.rounds.bidder[result.rounds.click == 1].tolist())
    assert set(table.bidder.tolist()) == clicked_bidders


@pytest.mark.parametrize("kind", ["CFP", "CPA_OFFLINE"])
def test_clicked_payments_by_bidder_match_per_bidder_masks(kind):
    market = _market(num_bidders=5, seed=17)
    result = run_auction(market, MechanismConfig(kind), _truthful(market))
    r = result.rounds
    groups = clicked_payments_by_bidder(result)
    assert len(groups) == market.num_bidders
    for m, pays in enumerate(groups):
        want = r.payment[(r.click == 1) & (r.bidder == m)]
        assert pays.dtype == want.dtype and pays.tobytes() == want.tobytes(), m


def test_chernoff_min_clicks_values():
    assert chernoff_min_clicks(0.1, 0.05) == 9671
    assert chernoff_min_clicks(0.2, 0.1) == 886
    with pytest.raises(ConfigError, match=r"^epsilon must be below 1, where the bound is not vacuous, got 1\.0$"):
        chernoff_min_clicks(1.0, 0.1)
    with pytest.raises(ConfigError):
        chernoff_min_clicks(0.0, 0.1)
    with pytest.raises(ConfigError):
        chernoff_min_clicks(0.1, 0.0)
    # Read as the chernoff config section reads them: a bool cvr is refused
    # rather than taken as 1.0, and a numeric string is the number it spells.
    with pytest.raises(ConfigError, match="^cvr must be a finite number, got True$"):
        chernoff_min_clicks(0.1, True)
    with pytest.raises(ConfigError, match="^cvr must be a finite number, got None$"):
        chernoff_min_clicks(0.1, None)
    assert chernoff_min_clicks("0.1", 0.5) == chernoff_min_clicks(0.1, 0.5)


@pytest.mark.parametrize(
    "epsilon,cvr,key",
    [
        (1e-320, 0.05, "epsilon"),  # epsilon**2 underflows to 0: an infinite bound
        (1e-160, 1.0, "epsilon"),  # epsilon**2 is subnormal and the quotient overflows
        (1e-9, 1.0, "epsilon"),  # finite, but above 2**63 at every cvr
        (0.5, 1e-320, "cvr"),  # the same epsilon gives 28 clicks at cvr = 1
        (0.1, 1e-300, "cvr"),  # finite, but above 2**63
    ],
)
def test_chernoff_bound_that_is_not_an_int64_names_its_key(epsilon, cvr, key):
    with pytest.raises(ConfigError, match=f"^{key} is too small"):
        chernoff_min_clicks(epsilon, cvr)


def test_chernoff_bound_just_inside_int64_is_kept():
    bound = chernoff_min_clicks(0.1, 1e-15)
    assert isinstance(bound, int) and 0 < bound < 2 ** 63


def test_chernoff_empirical_rates():
    rate = chernoff_empirical_check(0.05, 0.1, trials=2000, seed=0)
    assert rate <= 0.1
    starved = chernoff_empirical_check(0.05, 0.1, trials=2000, click_volume=96, seed=0)
    assert starved > 0.1
    again = chernoff_empirical_check(0.05, 0.1, trials=2000, seed=0)
    assert rate == again
    assert chernoff_empirical_check(0.05, 0.1, trials=10, click_volume=0) == 0.0
    assert chernoff_empirical_check(0.05, 0.1, trials=np.int64(2000), click_volume=np.int64(96), seed=0) == starved
    with pytest.raises(ConfigError):
        chernoff_empirical_check(0.05, 0.1, trials=0)
    # The stream key would truncate a fractional seed and overflow on a negative one.
    for seed, needle in ((2.5, r"^seed must be an integer, got 2\.5$"), (-1, "^seed must be an unsigned 64-bit")):
        with pytest.raises(ConfigError, match=needle):
            chernoff_empirical_check(0.05, 0.1, trials=10, click_volume=96, seed=seed)


@pytest.mark.parametrize(
    "cvr,epsilon,click_volume,needle,trials",
    [
        (0.1, 1.0, None, r"^epsilon must be below 1, where the bound is not vacuous, got 1\.0$", 10),
        (5.0, 0.1, 96, "^cvr must lie in", 10),
        (0.05, -1.0, 96, "^epsilon must be positive", 10),
        (0.05, float("nan"), 96, "^epsilon must be positive", 10),
        (0.05, 0.1, -5, r"^click_volume must lie in \[0, 2\*\*63\), got -5$", 10),
        (0.05, 0.1, 2 ** 70, r"^click_volume must lie in \[0, 2\*\*63\), got 1180591620717411303424$", 10),
        # A fraction or a bool is refused, not truncated by the binomial draw.
        (0.05, 0.1, 0.9, r"^click_volume must be an integer, got 0\.9$", 10),
        (0.05, 0.1, True, "^click_volume must be an integer, got True$", 10),
        (0.05, 0.1, 96, r"^trials must be an integer, got 2\.5$", 2.5),
        (0.05, 0.1, 96, "^trials must be an integer, got True$", True),
        # epsilon and cvr are read as the chernoff config section reads them.
        (True, 0.1, None, "^cvr must be a finite number, got True$", 10),
        (None, 0.1, None, "^cvr must be a finite number, got None$", 10),
        (0.05, True, 96, "^epsilon must be a finite number, got True$", 10),
        (0.05, "x", 96, "^epsilon must be a finite number, got 'x'$", 10),
    ],
)
def test_chernoff_empirical_check_refuses_arguments_outside_their_domain(cvr, epsilon, click_volume, needle, trials):
    with pytest.raises(ConfigError, match=needle):
        chernoff_empirical_check(cvr, epsilon, trials=trials, click_volume=click_volume)


@pytest.mark.parametrize("seed", [0, 2 ** 63 - 1, 2 ** 63 + 1, 2 ** 64 - 1])
def test_chernoff_check_keys_its_stream_with_the_whole_seed(seed):
    # Purpose 21 under a uint64 key: seeds at or above 2**63 keep their low
    # bits, and none warns on the way in.
    draws = _stream(seed, 21).binomial(96, 0.05, size=2000)
    want = float(np.mean(np.abs(draws / (96 * 0.05) - 1.0) > 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chernoff_empirical_check(0.05, 0.1, trials=2000, click_volume=96, seed=seed) == want


def test_etic_violation_rate():
    rate = etic_violation_rate(np.array([0.8, 1.0, 1.15]), 0.1)
    assert rate == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert np.isnan(etic_violation_rate(np.zeros(0), 0.1))
    # Band edges are inclusive.
    assert etic_violation_rate(np.array([1.5, 0.5]), 0.5) == 0.0


def test_ratio_csv_writer_roundtrips_inf(tmp_path):
    table = RatioTable(
        np.array([0, 1], dtype=np.int64),
        np.array([2, 3], dtype=np.int64),
        np.array([1.0526315789473684, np.inf]),
    )
    path = str(tmp_path / "ratios.csv")
    write_ratio_csv(table, path)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == RATIO_CSV_HEADER
    assert lines[1] == "0,2,1.0526315789473684"
    b, s, r = lines[2].split(",")
    assert (int(b), int(s)) == (1, 3)
    assert float(r) == np.inf


def test_metric_summary_csv_writer(tmp_path):
    path = str(tmp_path / "summary.csv")
    write_metric_summary_csv([("CFP", "cpa_ratio", 1.125, 0.975, 1.05)], path)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == METRIC_SUMMARY_CSV_HEADER
    assert lines[1] == "CFP,cpa_ratio,1.125,0.975,1.05"
