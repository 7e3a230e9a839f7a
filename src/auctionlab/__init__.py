"""Deterministic auction laboratory for autobidding payment mechanisms.

Simulates coupled and decoupled first-price auctions with delayed
conversion feedback, offline CPA and pacing baselines, an online debt
payer, a learned payment policy, and the accuracy metrics used to compare
them. Everything is seeded and counter-based: equal configs give
bit-identical markets, runs, and CSV artifacts.

The names below are the ones the README, the demos and the CLI use; the
rest of the package is reached through its submodules.
"""

from ._version import __version__
from .agents import RiskAverseAgent, TruthfulAgent, bid_drift_metric, deviation_sweep
from .analysis import checkpoint_ratio_table, chernoff_empirical_check, chernoff_min_clicks, payment_fluctuation
from .controllers import DebtController, stage_pacing_oracle
from .errors import (
    AuctionLabError,
    ConfigError,
    ContractViolation,
    MissingInputError,
    NumericalFault,
    SchemaError,
)
from .experiments import (
    ExperimentConfig,
    config_digest,
    evaluate_debt_controller,
    evaluate_rl_controller,
    load_config,
    run_experiment,
)
from .market import MarketConfig, generate_market, sample_outcomes, stage_starts, write_market_csv
from .mechanisms import MechanismConfig, run_auction
from .ppo import RLConfig, load_checkpoint, save_checkpoint, train, write_curves_csv

__all__ = [
    "RiskAverseAgent", "TruthfulAgent", "bid_drift_metric", "deviation_sweep",
    "checkpoint_ratio_table", "chernoff_empirical_check", "chernoff_min_clicks", "payment_fluctuation",
    "DebtController", "stage_pacing_oracle",
    "AuctionLabError", "ConfigError", "ContractViolation", "MissingInputError", "NumericalFault", "SchemaError",
    "ExperimentConfig", "config_digest", "evaluate_debt_controller", "evaluate_rl_controller", "load_config",
    "run_experiment",
    "MarketConfig", "generate_market", "sample_outcomes", "stage_starts", "write_market_csv",
    "MechanismConfig", "run_auction",
    "RLConfig", "load_checkpoint", "save_checkpoint", "train", "write_curves_csv",
]
