"""Experiment orchestration: YAML configs, artifact trees, and manifests.

An experiment is a market template, a set of mechanisms, and a list of
seeds. Each (mechanism, seed) pair gets its own artifact directory with
the full rounds table plus derived metric tables; pooled summaries land at
the top level. Every float is written with repr, so a rerun of the same
config produces byte-identical CSVs; the manifest carries the only
timestamp and is written last.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from typing import get_type_hints

import numpy as np
import yaml

from ._version import __version__
from .agents import RiskAverseAgent, RiskAverseParams, TruthfulAgent, bid_drift_metric
from .analysis import (
    cfp_tau_rollup,
    check_chernoff_args,
    checkpoint_ratio_table,
    chernoff_empirical_check,
    chernoff_min_clicks,
    clicked_payments_by_bidder,
    cpa_ratio_table,
    etic_violation_rate,
    payment_fluctuation,
    summary_stats,
    write_metric_summary_csv,
    write_ratio_csv,
)
from .controllers import DebtController
from .csvio import write_table
from .errors import ConfigError, _open_input
from .market import MAX_MARKET_BYTES, MarketConfig, _as_float, _as_int, _as_list, _as_value, _check_fields, _check_seed
from .market import generate_market
from .mechanisms import (
    MechanismConfig,
    SimulationResult,
    run_auction,
    write_rounds_csv,
    write_summary_csv,
)
from .ppo import RLConfig, RLPaymentController, load_checkpoint

AGENT_KINDS = ("risk_averse", "truthful")

FLUCTUATION_CSV_HEADER = "bidder,variance,range"
ETIC_CSV_HEADER = "table,epsilon,rate"
DRIFT_CSV_HEADER = "bidder,drift,withdrawn"
CHERNOFF_CSV_HEADER = "epsilon,cvr,min_clicks,empirical_rate"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one artifact tree."""

    market: MarketConfig
    mechanisms: tuple[MechanismConfig, ...]
    seeds: tuple[int, ...]
    agent: str = "risk_averse"
    agent_params: RiskAverseParams = field(default_factory=RiskAverseParams)
    epsilon: float = 0.1
    tau: int | None = None
    chernoff: tuple[float, float] | None = None
    rl: RLConfig = field(default_factory=RLConfig)

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.mechanisms:
            raise ConfigError("mechanisms must be a nonempty list")
        if not self.seeds:
            raise ConfigError("seeds must be a nonempty list")
        for i, seed in enumerate(self.seeds):
            _check_seed(seed, f"seeds[{i}]")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ConfigError(f"seed {repeated[0]} is listed more than once in seeds {list(self.seeds)}")
        labels = [m.label for m in self.mechanisms]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate mechanism labels in {labels}")
        if self.agent not in AGENT_KINDS:
            raise ConfigError(f"unknown agent kind {self.agent!r}, expected one of {AGENT_KINDS}")
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be a positive finite number, got {self.epsilon}")
        if self.tau is not None and self.tau < 1:
            raise ConfigError(f"tau must be at least 1, got {self.tau}")
        if self.chernoff is not None:
            check_chernoff_args(*self.chernoff, "chernoff.")


def _check_keys(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {where} (allowed: {', '.join(allowed)})")


def _as_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _as_stage_plan(plan, key: str) -> tuple[int, ...]:
    """An explicit list of stage lengths, or {stages, rounds_per_stage}."""
    if not isinstance(plan, dict):
        return _as_list(plan, key, _as_int)
    _check_keys(plan, ("stages", "rounds_per_stage"), key)
    if "stages" not in plan or "rounds_per_stage" not in plan:
        raise ConfigError(f"{key} mapping needs both stages and rounds_per_stage")
    counts = {}
    for name in ("stages", "rounds_per_stage"):
        counts[name] = _as_int(plan[name], f"{key}.{name}")
        if counts[name] < 1:
            raise ConfigError(f"{key}.{name} must be at least 1, got {counts[name]}")
    # Checked before the plan is built: a round takes at least 24 bytes of
    # rate arrays (one bidder, one slot: ctr, cvr and value).
    if counts["stages"] * counts["rounds_per_stage"] > MAX_MARKET_BYTES // 24:
        raise ConfigError(f"{key}.stages x {key}.rounds_per_stage must be at most {MAX_MARKET_BYTES // 24} rounds")
    return (counts["rounds_per_stage"],) * counts["stages"]


def _as_chernoff(obj, key: str) -> tuple[float, float]:
    """The {epsilon, cvr} mapping, held as an (epsilon, cvr) pair."""
    section = _as_mapping(obj, key)
    _check_keys(section, ("epsilon", "cvr"), key)
    pair = {name: _as_float(value, f"{key}.{name}") for name, value in section.items()}
    if len(pair) != 2:
        raise ConfigError(f"{key} needs both epsilon and cvr")
    return pair["epsilon"], pair["cvr"]


# The fields whose YAML form differs from their type, by key; a null goes by the type.
_YAML_FORMS = {"market.stage_plan": _as_stage_plan, "chernoff": _as_chernoff}


def _as_yaml_value(value, hint, key: str):
    if key in _YAML_FORMS and value is not None:
        return _YAML_FORMS[key](value, key)
    return _as_value(value, hint, key, _as_section)


def _as_section(obj, cls, where: str):
    """The YAML mapping at key path where ("config" at the top) read as the dataclass cls, keyed by its fields."""
    section = _as_mapping(obj, where)
    settable = [f for f in fields(cls) if f.init]
    _check_keys(section, [f.name for f in settable], where)
    hints = get_type_hints(cls)
    prefix = "" if where == "config" else f"{where}."
    kwargs = {name: _as_yaml_value(value, hints[name], prefix + name) for name, value in section.items()}
    for f in settable:
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{prefix}{f.name} is required")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # The dataclass names its own field, which reads as a top-level key.
        if where == "config":
            raise
        raise ConfigError(f"{where}: {exc}") from exc


class _ConfigLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """PyYAML's safe loader, on libyaml where PyYAML is built with it,
    refusing a mapping that lists a key twice rather than keeping the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    line = key_node.start_mark.line + 1
                    raise ConfigError(f"config key {key!r} is listed twice in one mapping (line {line})")
                seen.add(key)
        return super().construct_mapping(node, deep)


def load_config(path: str) -> ExperimentConfig:
    """Parse a YAML experiment config, naming any offending key on failure."""
    with _open_input(path, "config", ConfigError) as fh:
        try:
            data = yaml.load(fh, Loader=_ConfigLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return _as_section(data, ExperimentConfig, "config")


def make_agents(config: ExperimentConfig, num_bidders: int) -> list:
    if config.agent == "truthful":
        return [TruthfulAgent() for _ in range(num_bidders)]
    return [RiskAverseAgent(config.agent_params) for _ in range(num_bidders)]


def _make_controller(mech: MechanismConfig, tcpa: np.ndarray, rl: RLConfig | None, policy):
    """The online payer a DFP run needs, or None; policy is the loaded payment policy."""
    if mech.controller == "debt":
        return DebtController(tcpa)
    if mech.controller == "rl":
        return RLPaymentController(policy, tcpa, zeta=rl.zeta, xi=rl.xi, collect=False)
    return None


def _write_fluctuation_csv(path: str, table) -> None:
    write_table(path, FLUCTUATION_CSV_HEADER, [table.bidder, table.variance, table.value_range])


def _write_etic_csv(path: str, rows: list[tuple[str, float, float]]) -> None:
    names, epsilons, rates = zip(*rows)
    write_table(path, ETIC_CSV_HEADER, [names, np.array(epsilons, dtype=np.float64), np.array(rates, dtype=np.float64)])


def _write_drift_csv(path: str, drift: np.ndarray, withdrawn: np.ndarray) -> None:
    write_table(path, DRIFT_CSV_HEADER, [np.arange(drift.size), drift, withdrawn])


def _run_one(config: ExperimentConfig, mech: MechanismConfig, market, run_dir: str,
             rl_policy, pool: dict[str, list[np.ndarray]]) -> None:
    """Simulate one (mechanism, seed) pair, write its run directory, append its metrics to pool.

    A function of its own so the result and controller are freed on return,
    before the caller generates the next seed's market.
    """
    agents = make_agents(config, market.num_bidders)
    controller = _make_controller(mech, market.tcpa, config.rl, rl_policy)
    result = run_auction(market, mech, agents, controller=controller)

    os.makedirs(run_dir, exist_ok=True)
    write_rounds_csv(result, os.path.join(run_dir, "rounds.csv"))
    write_summary_csv(result, os.path.join(run_dir, "summary.csv"))

    stage_table = cpa_ratio_table(result)
    ckpt_table = checkpoint_ratio_table(result)
    write_ratio_csv(stage_table, os.path.join(run_dir, "ratios.csv"))
    write_ratio_csv(ckpt_table, os.path.join(run_dir, "checkpoint_ratios.csv"))

    fluct = payment_fluctuation(result)
    _write_fluctuation_csv(os.path.join(run_dir, "fluctuation.csv"), fluct)

    etic_stage = etic_violation_rate(stage_table.ratio, config.epsilon)
    etic_ckpt = etic_violation_rate(ckpt_table.ratio, config.epsilon)
    _write_etic_csv(
        os.path.join(run_dir, "etic.csv"),
        [("per_stage", config.epsilon, etic_stage), ("checkpoint", config.epsilon, etic_ckpt)],
    )

    drift = bid_drift_metric(result)
    _write_drift_csv(os.path.join(run_dir, "drift.csv"), drift.drift, result.withdrawn)

    metrics = {
        "stage_ratio": stage_table.ratio,
        "checkpoint_ratio": ckpt_table.ratio,
        "fluctuation_var": fluct.variance,
        "etic_rate": etic_ckpt,
        "bid_drift": drift.mean_drift,
    }
    if config.tau is not None and mech.kind == "CFP":
        rollup = cfp_tau_rollup(result.stage_conversions, result.stage_payments, result.tcpa, config.tau)
        metrics[f"tau_{config.tau}_ratio"] = rollup.ratio
    for name, values in metrics.items():
        pool.setdefault(name, []).append(np.atleast_1d(values))


def run_experiment(config: ExperimentConfig, out_dir: str, rl_checkpoint: str | None = None) -> dict:
    """Run every (mechanism, seed) pair and write the artifact tree.

    Layout: <out>/<label>/seed_<s>/{rounds,summary,ratios,checkpoint_ratios,
    fluctuation,etic,drift}.csv plus top-level summary.csv, optional
    chernoff.csv and cfp_tau.csv, and manifest.json (written last).

    Each seed's market is generated once and shared by every mechanism, then
    dropped before the next seed, so one market is live at a time. The
    mechanisms of a seed share the market's memo of outcome passes under
    their opening bids, dropped with the market. Pooled metrics are
    concatenated per mechanism in seed order, which fixes the bits of their
    means and quantiles.

    A DFP:rl checkpoint is loaded once, before the first run, so a missing
    one fails before any artifact is written; so does a checkpoint given to
    a config without DFP:rl, which would go unused.

    Returns a dict with the run directories (mechanism-major, as in the
    config) and pooled summary rows.
    """
    labels = [mech.label for mech in config.mechanisms]
    rl_policy = None
    if any(mech.controller == "rl" for mech in config.mechanisms):
        if rl_checkpoint is None:
            raise ConfigError("mechanism DFP:rl needs an rl_checkpoint path")
        rl_policy, _ = load_checkpoint(rl_checkpoint)
    elif rl_checkpoint is not None:
        raise ConfigError(f"a checkpoint is given but no mechanism is DFP:rl (has: {', '.join(labels)})")
    os.makedirs(out_dir, exist_ok=True)
    run_dirs: dict[str, list[str]] = {label: [] for label in labels}
    pools: dict[str, dict[str, list[np.ndarray]]] = {label: {} for label in labels}
    for seed in config.seeds:
        market = generate_market(replace(config.market, seed=seed))
        for mech in config.mechanisms:
            run_dir = os.path.join(out_dir, mech.label.replace(":", "_"), f"seed_{seed}")
            _run_one(config, mech, market, run_dir, rl_policy, pools[mech.label])
            run_dirs[mech.label].append(run_dir)
        del market

    summary_rows: list[tuple[str, str, float, float, float]] = []
    tau_rows: list[tuple[str, str, float, float, float]] = []
    for label, pool in pools.items():
        for metric, values in pool.items():
            rows = tau_rows if metric.startswith("tau_") else summary_rows
            rows.append((label, metric, *summary_stats(np.concatenate(values))))

    write_metric_summary_csv(summary_rows, os.path.join(out_dir, "summary.csv"))
    if tau_rows:
        write_metric_summary_csv(tau_rows, os.path.join(out_dir, "cfp_tau.csv"))
    if config.chernoff is not None:
        eps, cvr = config.chernoff
        min_clicks = chernoff_min_clicks(eps, cvr)
        rate = chernoff_empirical_check(cvr, eps, trials=2000, seed=config.market.seed)
        write_table(
            os.path.join(out_dir, "chernoff.csv"),
            CHERNOFF_CSV_HEADER,
            [[float(eps)], [float(cvr)], [min_clicks], [float(rate)]],
        )

    manifest = {
        "config": asdict(config),
        "config_sha256": config_digest(config),
        "mechanisms": labels,
        "seeds": list(config.seeds),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "auctionlab": __version__,
        },
        "created": datetime.now(timezone.utc).isoformat(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {"out_dir": out_dir, "run_dirs": [d for ds in run_dirs.values() for d in ds], "summary_rows": summary_rows}


def config_digest(config: ExperimentConfig) -> str:
    """Stable content hash of an experiment config."""
    blob = json.dumps(asdict(config), sort_keys=True, default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def checkpoint_abs_error(result: SimulationResult) -> float:
    """Mean |ratio - 1| over the cumulative checkpoint table."""
    table = checkpoint_ratio_table(result)
    if table.num_entries == 0:
        return float("nan")
    return float(np.mean(np.abs(table.ratio - 1.0)))


def payment_smoothness(result: SimulationResult) -> float:
    """Mean relative step between consecutive positive per-click payments.

    Matches the smoothness reward magnitude: |p_i - p_{i-1}| / p_{i-1}
    averaged over all consecutive positive-payment click pairs, pooled
    across bidders. nan when no bidder has two positive payments.
    """
    steps: list[np.ndarray] = []
    for pays in clicked_payments_by_bidder(result):
        pays = pays[pays > 0.0]
        if pays.size >= 2:
            steps.append(np.abs(np.diff(pays)) / pays[:-1])
    if not steps:
        return float("nan")
    return float(np.mean(np.concatenate(steps)))


def _evaluate_runs(market_config: MarketConfig, seeds: tuple[int, ...], mech: MechanismConfig,
                   rl: RLConfig | None = None, rl_policy=None) -> dict[str, float]:
    errs = []
    smooth = []
    for seed in seeds:
        market = generate_market(replace(market_config, seed=seed))
        controller = _make_controller(mech, market.tcpa, rl, rl_policy)
        agents = [TruthfulAgent() for _ in range(market.num_bidders)]
        result = run_auction(market, mech, agents, controller=controller)
        errs.append(checkpoint_abs_error(result))
        smooth.append(payment_smoothness(result))
    smooth_arr = np.array(smooth)
    smooth_arr = smooth_arr[~np.isnan(smooth_arr)]
    return {
        "ratio_err": float(np.mean(errs)),
        "smoothness": float(smooth_arr.mean()) if smooth_arr.size else float("nan"),
    }


def evaluate_debt_controller(market_config: MarketConfig, seeds: tuple[int, ...]) -> dict[str, float]:
    """Checkpoint accuracy and payment smoothness of the debt payer."""
    return _evaluate_runs(market_config, seeds, MechanismConfig("DFP", controller="debt"))


def evaluate_rl_controller(
    market_config: MarketConfig,
    seeds: tuple[int, ...],
    policy,
    rl: RLConfig,
) -> dict[str, float]:
    """Same metrics for the learned payer, acting deterministically."""
    return _evaluate_runs(market_config, seeds, MechanismConfig("DFP", controller="rl"), rl, policy)
