"""End-to-end acceptance gate.

Each test pins one advertised property of the laboratory at its stated
tolerance, on markets large enough for the claim to be meaningful. All
runs are seeded and deterministic: a pass here is reproducible bit for
bit. Budgeted tests assert their own wall-clock limits.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from auctionlab import (
    DebtController,
    MarketConfig,
    MechanismConfig,
    RiskAverseAgent,
    RLConfig,
    TruthfulAgent,
    bid_drift_metric,
    checkpoint_ratio_table,
    chernoff_empirical_check,
    chernoff_min_clicks,
    deviation_sweep,
    generate_market,
    load_config,
    payment_fluctuation,
    run_auction,
    run_experiment,
    train,
)
from auctionlab.agents import RiskAverseParams
from auctionlab.analysis import cfp_tau_rollup, cpa_ratio_table, pplt_objective
from auctionlab.experiments import ExperimentConfig, evaluate_rl_controller, payment_smoothness
from auctionlab.nets import MLP
from auctionlab.ppo import (
    FEATURE_DIM,
    GaussianPolicy,
    TrainingBatch,
    discounted_returns,
    gae,
    gaussian_log_prob,
    loss_and_grads,
    ppo_clip_loss,
    td_errors,
)

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
DESK = load_config(os.path.join(CONFIGS, "desk.yaml"))

# Sparse stress market where several bidders settle at 100-150 clicks per
# stage, the regime where per-stage conversion counts are too noisy for
# stage-local accuracy but cumulative accuracy is achievable.
BAND_MARKET = MarketConfig(
    num_bidders=14,
    num_slots=5,
    stage_plan=(400,) * 31,
    ctr_range=(0.4, 0.6),
    cvr_range=(0.05, 0.15),
    value_range=(1.0, 5.0),
    tcpa_range=(2.0, 6.0),
    seed=0,
)

# Everyone-wins market for the feedback-granularity comparison: no
# marginal bidders, so eligibility is uniform across rollup widths.
SMOOTHING_MARKET = MarketConfig(
    num_bidders=6,
    num_slots=6,
    stage_plan=(200,) * 31,
    ctr_range=(0.4, 0.6),
    cvr_range=(0.05, 0.15),
    value_range=(1.0, 5.0),
    tcpa_range=(2.0, 6.0),
    seed=0,
)


def _truthful(market):
    return [TruthfulAgent() for _ in range(market.num_bidders)]


def test_acceptance_01_offline_cpa_unit_ratio_at_scale():
    """Pay-per-conversion yields ratio exactly 1 on every eligible stage."""
    t0 = time.monotonic()
    for seed in (0, 1, 2):
        market = generate_market(replace(DESK.market, seed=seed))
        result = run_auction(market, MechanismConfig("CPA_OFFLINE"), _truthful(market))
        table = cpa_ratio_table(result)
        assert table.num_entries > 500
        assert np.max(np.abs(table.ratio - 1.0)) <= 1e-12
        checkpoint = checkpoint_ratio_table(result)
        assert np.max(np.abs(checkpoint.ratio - 1.0)) <= 1e-12
    assert time.monotonic() - t0 < 60.0


def test_acceptance_02_stage_pacing_zero_fluctuation():
    """Uniform per-click repricing has zero payment variance and range."""
    for seed in (0, 1, 2):
        market = generate_market(replace(DESK.market, seed=seed))
        result = run_auction(market, MechanismConfig("PACING_OFFLINE"), _truthful(market))
        table = payment_fluctuation(result)
        clicked = set(result.rounds.bidder[result.rounds.click == 1].tolist())
        assert set(table.bidder.tolist()) == clicked
        assert table.bidder.size > 0
        assert np.max(table.variance) <= 1e-12
        assert np.max(table.value_range) <= 1e-12


def test_acceptance_03_cfp_expected_cpa_and_truthful_optimality():
    """Coupled first price: expected CPA equals the bid, truthful bidding
    maximizes feasible utility in every instance."""
    base = MarketConfig(
        num_bidders=4,
        num_slots=4,
        stage_plan=(10, 10),
        ctr_range=(0.3, 0.9),
        cvr_range=(0.05, 0.15),
        value_range=(1.0, 5.0),
        tcpa_range=(1.0, 10.0),
        seed=0,
    )
    for seed in range(100):
        market = generate_market(replace(base, seed=seed))
        rows = deviation_sweep(market, MechanismConfig("CFP"), 0)
        tcpa = float(market.tcpa[0])
        for row in rows:
            assert abs(row.expected_cpa - row.beta * tcpa) < 1e-9
        feasible = [r for r in rows if r.expected_cpa <= tcpa * (1.0 + 1e-9)]
        best = max(r.expected_utility for r in feasible)
        truthful = next(r for r in rows if r.beta == 1.0)
        assert truthful.expected_utility >= best - 1e-12
        overbids = [r for r in rows if r.beta > 1.0]
        assert all(r.expected_cpa > tcpa * (1.0 + 1e-9) for r in overbids)


def test_acceptance_04_stage_pacing_oracle_identity():
    """The hindsight stage oracle drives the per-stage objective to zero."""
    for seed in (0, 1, 2):
        market = generate_market(replace(DESK.market, seed=seed))
        result = run_auction(market, MechanismConfig("DFP", controller="oracle"), _truthful(market))
        z = result.stage_conversions
        p = result.stage_payments
        eligible = z >= 1.0
        ratios = z[eligible] * np.broadcast_to(result.tcpa, z.shape)[eligible] / p[eligible]
        assert np.max(np.abs(ratios - 1.0)) <= 1e-12
        # No conversions in a stage means no payment in that stage.
        assert np.all(p[z == 0.0] == 0.0)
        assert np.max(pplt_objective(z, p, result.tcpa)) <= 1e-12


def test_acceptance_05_click_volume_bound():
    """Concentration threshold: violation rate is below epsilon at the
    prescribed click volume and far above it at one percent of it."""
    t0 = time.monotonic()
    assert chernoff_min_clicks(0.1, 0.05) == 9671
    assert chernoff_min_clicks(0.2, 0.1) == 886
    for eps, cvr in ((0.1, 0.05), (0.2, 0.1)):
        volume = chernoff_min_clicks(eps, cvr)
        rate = chernoff_empirical_check(cvr, eps, trials=10**4, seed=0)
        assert rate <= eps
        starved = chernoff_empirical_check(
            cvr, eps, trials=10**4, click_volume=max(volume // 100, 1), seed=0
        )
        assert starved > eps
    assert time.monotonic() - t0 < 120.0


def test_acceptance_06_sparse_checkpoint_band_and_debt_advantage():
    """Online debt payer on 100-150 clicks/stage bidders: at least 90% of
    cumulative checkpoints inside [0.9, 1.1], and strictly more accurate
    than coupled first price on the identical outcome streams."""
    in_band_entries = 0
    total_entries = 0
    for seed in (0, 1, 2, 3, 4):
        market = generate_market(replace(BAND_MARKET, seed=seed))
        debt = run_auction(
            market,
            MechanismConfig("DFP", controller="debt"),
            _truthful(market),
            DebtController(market.tcpa),
        )
        cfp = run_auction(market, MechanismConfig("CFP"), _truthful(market))
        # Truthful agents bid identically, so the streams must coincide.
        np.testing.assert_array_equal(debt.stage_clicks, cfp.stage_clicks)
        np.testing.assert_array_equal(debt.stage_conversions, cfp.stage_conversions)

        mean_clicks = debt.stage_clicks.mean(axis=0)
        band = np.where((mean_clicks >= 100.0) & (mean_clicks <= 150.0))[0]
        assert band.size >= 1

        debt_table = checkpoint_ratio_table(debt)
        cfp_table = checkpoint_ratio_table(cfp)
        debt_rows = debt_table.ratio[np.isin(debt_table.bidder, band)]
        cfp_rows = cfp_table.ratio[np.isin(cfp_table.bidder, band)]
        in_band_entries += int(np.sum(np.abs(debt_rows - 1.0) <= 0.1))
        total_entries += debt_rows.size
        assert np.mean(np.abs(debt_rows - 1.0)) < np.mean(np.abs(cfp_rows - 1.0))
    assert total_entries > 0
    assert in_band_entries / total_entries >= 0.9


def test_acceptance_07_checkpoint_rollup_improves_accuracy():
    """Widening feedback windows to eight stages tightens coupled
    first-price accuracy on at least nine of ten seeds."""
    wins = 0
    for seed in range(10):
        market = generate_market(replace(SMOOTHING_MARKET, seed=seed))
        result = run_auction(market, MechanismConfig("CFP"), _truthful(market))
        wide = cfp_tau_rollup(result.stage_conversions, result.stage_payments, result.tcpa, 8)
        narrow = cfp_tau_rollup(result.stage_conversions, result.stage_payments, result.tcpa, 1)
        err_wide = float(np.mean(np.abs(wide.ratio - 1.0)))
        err_narrow = float(np.mean(np.abs(narrow.ratio - 1.0)))
        wins += err_wide <= err_narrow
    assert wins >= 9


def test_acceptance_08_policy_gradient_numerics():
    """Hand backprop matches central finite differences to 1e-4 relative
    on twenty random instances; estimator identities hold exactly."""
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        policy = GaussianPolicy(MLP(FEATURE_DIM, (5,), 2, rng=rng), sigma_floor=1e-6)
        critic = MLP(FEATURE_DIM, (4,), 1, rng=rng)
        cfg = RLConfig(sigma_floor=1e-6)
        feats = rng.standard_normal((8, FEATURE_DIM))
        mu, lsr, _ = policy.head(feats)
        sigma = np.maximum(np.exp(lsr), policy.sigma_floor)
        actions = mu + sigma * rng.standard_normal(8) * 0.8
        logp = gaussian_log_prob(actions, mu, sigma)
        batch = TrainingBatch(
            feats,
            actions,
            logp + rng.uniform(-0.04, 0.04, 8),
            rng.standard_normal(8),
            rng.standard_normal(8),
        )
        out = loss_and_grads(policy, critic, batch, cfg)
        h = 1e-5
        for net, grad in ((policy.net, out.policy_grad), (critic, out.critic_grad)):
            base = net.get_flat()
            for i in range(base.size):
                probe = base.copy()
                probe[i] += h
                net.set_flat(probe)
                up = loss_and_grads(policy, critic, batch, cfg).total
                probe[i] -= 2 * h
                net.set_flat(probe)
                down = loss_and_grads(policy, critic, batch, cfg).total
                fd = (up - down) / (2 * h)
                assert abs(grad[i] - fd) <= 1e-4 * max(1.0, abs(fd))
            net.set_flat(base)

    # Undiscounted advantage estimate reduces to returns minus values.
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.array([2.0, 1.0, 1.0])
    adv = gae(td_errors(rewards, values, 1.0), 1.0, 1.0)
    np.testing.assert_array_equal(adv, discounted_returns(rewards, 1.0) - values)

    assert ppo_clip_loss(np.array([1.0]), np.array([1.0]), 0.2) == -1.0
    assert ppo_clip_loss(np.array([1.5]), np.array([1.0]), 0.2) == pytest.approx(-1.2, abs=1e-15)
    assert ppo_clip_loss(np.array([0.5]), np.array([-1.0]), 0.2) == pytest.approx(0.8, abs=1e-15)


def test_acceptance_09_learned_payment_policy_efficacy():
    """Trained payment policy beats its own untrained initialization on
    held-out markets and pays at least as smoothly as the debt payer."""
    t0 = time.monotonic()
    config = load_config(os.path.join(CONFIGS, "toy_train.yaml"))
    rl = RLConfig()
    train_seed = 1
    out = train(config.market, rl, seed=train_seed)
    assert out.aborted_updates == 0

    init_rng = np.random.Generator(np.random.Philox(key=[train_seed, 11]))
    untrained_policy = GaussianPolicy(MLP(FEATURE_DIM, rl.hidden, 2, init_rng), rl.sigma_floor)

    held_out = tuple(1000 + i for i in range(5))
    wins = 0
    rl_smoothness = []
    for seed in held_out:
        trained = evaluate_rl_controller(config.market, (seed,), out.policy, rl)
        untrained = evaluate_rl_controller(config.market, (seed,), untrained_policy, rl)
        wins += trained["ratio_err"] < untrained["ratio_err"]
        rl_smoothness.append(trained["smoothness"])
    assert wins >= 4

    debt_smooth = []
    for seed in held_out:
        market = generate_market(replace(config.market, seed=seed))
        result = run_auction(
            market,
            MechanismConfig("DFP", controller="debt"),
            _truthful(market),
            DebtController(market.tcpa),
        )
        debt_smooth.append(payment_smoothness(result))
    assert float(np.mean(rl_smoothness)) <= 1.5 * float(np.mean(debt_smooth))
    assert time.monotonic() - t0 < 900.0


def test_acceptance_10_risk_averse_bid_stability():
    """Risk-averse bidders never move under pay-per-conversion; under the
    online debt payer they drift no more than under coupled first price."""
    params = RiskAverseParams()
    market = generate_market(DESK.market)
    agents = [RiskAverseAgent(params) for _ in range(market.num_bidders)]
    result = run_auction(market, MechanismConfig("CPA_OFFLINE"), agents)
    report = bid_drift_metric(result)
    assert np.all(report.drift == 0.0)
    assert not result.withdrawn.any()

    sparse = load_config(os.path.join(CONFIGS, "sparse.yaml"))
    wins = 0
    for seed in range(10):
        market = generate_market(replace(sparse.market, seed=seed))
        debt = run_auction(
            market,
            MechanismConfig("DFP", controller="debt"),
            [RiskAverseAgent(params) for _ in range(market.num_bidders)],
            DebtController(market.tcpa),
        )
        cfp = run_auction(
            market,
            MechanismConfig("CFP"),
            [RiskAverseAgent(params) for _ in range(market.num_bidders)],
        )
        wins += bid_drift_metric(debt).mean_drift <= bid_drift_metric(cfp).mean_drift
    assert wins >= 9


def test_acceptance_11_deterministic_experiment_replay(tmp_path):
    """Two executions of the same experiment config produce byte-identical
    result tables."""
    market = MarketConfig(
        num_bidders=6,
        num_slots=3,
        stage_plan=(100, 100, 100, 100),
        ctr_range=(0.4, 0.8),
        cvr_range=(0.1, 0.3),
        value_range=(1.0, 4.0),
        tcpa_range=(1.0, 5.0),
        seed=0,
    )
    config = ExperimentConfig(
        market=market,
        mechanisms=(
            MechanismConfig("CFP"),
            MechanismConfig("CPA_OFFLINE"),
            MechanismConfig("PACING_OFFLINE"),
            MechanismConfig("DFP", controller="debt"),
            MechanismConfig("DFP", controller="oracle"),
        ),
        seeds=(0, 1),
        agent="risk_averse",
        tau=2,
        chernoff=(0.2, 0.1),
    )
    first = run_experiment(config, str(tmp_path / "a"))
    second = run_experiment(config, str(tmp_path / "b"))
    assert len(first["run_dirs"]) == len(second["run_dirs"]) == 10
    for root, _, files in os.walk(tmp_path / "a"):
        for name in files:
            if not name.endswith(".csv"):
                continue
            path_a = os.path.join(root, name)
            path_b = path_a.replace(str(tmp_path / "a"), str(tmp_path / "b"), 1)
            assert Path(path_a).read_bytes() == Path(path_b).read_bytes(), path_a
