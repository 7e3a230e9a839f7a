"""Span recording for the traced benchmark run, and the per-layer arithmetic.

The traced child process wraps the names each calling module looks up
(for example ``auctionlab.experiments.generate_market`` or
``DebtController.on_click``) so that every call records a span: name, start,
end, the span open when it began, and an optional per-call value. Spans stay
in memory and are written once, when the run ends. Nothing under ``src/`` is
changed; the wrappers are installed from this file at run time.

``summarize`` turns a span list into per-layer totals. A span's self time is
its duration minus the time covered by its child spans; spans of one thread
nest, so the covered part is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# Functions wrapped where the calling module looks them up:
# (module, attribute, span name).
FUNCTIONS = (
    ("auctionlab.cli", "load_config", "experiments.load_config"),
    ("auctionlab.cli", "run_experiment", "experiments.run_experiment"),
    ("auctionlab.cli", "generate_market", "market.generate"),
    ("auctionlab.cli", "write_market_csv", "market.write_csv"),
    ("auctionlab.cli", "train", "ppo.train"),
    ("auctionlab.cli", "save_checkpoint", "ppo.write"),
    ("auctionlab.cli", "write_curves_csv", "ppo.write"),
    ("auctionlab.experiments", "generate_market", "market.generate"),
    ("auctionlab.experiments", "run_auction", "mechanisms.run_auction"),
    ("auctionlab.experiments", "write_rounds_csv", "mechanisms.write_rounds"),
    ("auctionlab.experiments", "write_summary_csv", "mechanisms.write_summary"),
    ("auctionlab.experiments", "cpa_ratio_table", "analysis.tables"),
    ("auctionlab.experiments", "checkpoint_ratio_table", "analysis.tables"),
    ("auctionlab.experiments", "payment_fluctuation", "analysis.tables"),
    ("auctionlab.experiments", "etic_violation_rate", "analysis.tables"),
    ("auctionlab.experiments", "bid_drift_metric", "analysis.tables"),
    ("auctionlab.experiments", "cfp_tau_rollup", "analysis.tables"),
    ("auctionlab.experiments", "chernoff_min_clicks", "analysis.tables"),
    ("auctionlab.experiments", "chernoff_empirical_check", "analysis.tables"),
    ("auctionlab.experiments", "write_ratio_csv", "analysis.write"),
    ("auctionlab.experiments", "write_metric_summary_csv", "analysis.write"),
    ("auctionlab.experiments", "_write_fluctuation_csv", "analysis.write"),
    ("auctionlab.experiments", "_write_etic_csv", "analysis.write"),
    ("auctionlab.experiments", "_write_drift_csv", "analysis.write"),
    ("auctionlab.mechanisms", "sample_outcomes", "market.sample_outcomes"),
    # The replay step in child.py calls these through their home modules.
    ("auctionlab.mechanisms", "run_auction", "mechanisms.run_auction"),
    ("auctionlab.market", "read_market_csv", "market.read_csv"),
    ("auctionlab.ppo", "generate_market", "market.generate"),
    ("auctionlab.ppo", "run_auction", "mechanisms.run_auction"),
    ("auctionlab.ppo", "value_estimate", "ppo.value_estimate"),
    ("auctionlab.ppo", "trajectory_targets", "ppo.gae"),
    ("auctionlab.ppo", "loss_and_grads", "ppo.loss_and_grads"),
)

# Methods wrapped on their class: (module, class, method, span name).
METHODS = (
    ("auctionlab.controllers", "DebtController", "on_click", "controllers.debt_on_click"),
    ("auctionlab.controllers", "DebtController", "end_stage", "controllers.debt_end_stage"),
    ("auctionlab.agents", "TruthfulAgent", "stage_update", "agents.stage_update"),
    ("auctionlab.agents", "RiskAverseAgent", "stage_update", "agents.stage_update"),
    ("auctionlab.agents", "FixedBidAgent", "stage_update", "agents.stage_update"),
    ("auctionlab.ppo", "RLPaymentController", "on_click", "ppo.rl_on_click"),
    ("auctionlab.ppo", "GaussianPolicy", "act", "ppo.policy_act"),
    ("auctionlab.ppo", "DFPTrainingEnv", "rollout", "ppo.rollout"),
    ("auctionlab.nets", "MLP", "forward", "nets.forward"),
    ("auctionlab.nets", "Adam", "step", "nets.adam_step"),
)


# Per-call values kept on a span, computed after the call returns:
# span name -> f(args, result).
VALUES = {
    "market.generate": lambda args, result: repr(args[0]),
    "mechanisms.write_rounds": lambda args, result: [int(args[0].rounds.round.size), os.path.getsize(args[1])],
    "market.write_csv": lambda args, result: os.path.getsize(args[1]),
    "market.read_csv": lambda args, result: int(result.ctr.size),
    "ppo.rollout": lambda args, result: int(result[0].num_steps),
    "ppo.train": lambda args, result: int(result.aborted_updates),
    "nets.forward": lambda args, result: int(result[0].shape[0]),
}


class Tracer:
    """In-memory span list; each span is [name, start, end, parent, value]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.value_errors: set[str] = set()

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        value = VALUES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if value is not None:
                try:
                    span[4] = value(args, result)
                except Exception:  # a changed signature must not break the run
                    self.value_errors.add(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every listed name that exists; record the ones that do not."""
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.wrap(fn, name))

    def dump(self, path: str) -> None:
        """Write the spans as numpy columns plus a JSON blob of names, values
        and the per-call wrapper cost measured in this process."""
        names: dict[str, int] = {}
        ids = [names.setdefault(s[0], len(names)) for s in self.spans]
        meta = {
            "names": list(names),
            "values": {str(i): s[4] for i, s in enumerate(self.spans) if s[4] is not None},
            "missing": self.missing + sorted(f"value of {n}" for n in self.value_errors),
            "wrapper_cost_s": wrapper_cost(),
        }
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name=np.array(ids, dtype=np.int32),
                start=np.array([s[1] for s in self.spans], dtype=np.float64),
                end=np.array([s[2] for s in self.spans], dtype=np.float64),
                parent=np.array([s[3] for s in self.spans], dtype=np.int64),
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a call: the fastest of `repeats` timings
    of `calls` calls to a wrapped no-op, minus the fastest unwrapped timing."""

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "trace.probe")
    best = {noop: float("inf"), wrapped: float("inf")}
    for _ in range(repeats):
        for fn in best:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    return max(best[wrapped] - best[noop], 0.0) / calls


def load(path: str) -> tuple[list[tuple], list[str], float]:
    """Read a span file back: (name, start, end, parent, value) tuples, the
    names that could not be wrapped, and the per-call wrapper cost."""
    with np.load(path) as data:
        meta = json.loads(data["meta"].tobytes())
        columns = [data[k].tolist() for k in ("name", "start", "end", "parent")]
    names, values = meta["names"], meta["values"]
    spans = [(names[k], s, e, p, values.get(str(i))) for i, (k, s, e, p) in enumerate(zip(*columns))]
    return spans, meta["missing"], meta["wrapper_cost_s"]


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans) -> dict:
    """Inclusive time, self time, calls and values per span name.

    Inclusive time counts only the outermost span of a name, so a name that
    nests inside itself is not counted twice. ``root_s`` is the time covered
    by spans that have no parent; the self times of all names add up to it.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    values: dict[str, list] = defaultdict(list)
    root_s = 0.0
    for i, (name, start, end, parent, value) in enumerate(spans):
        duration = end - start
        self_s[name] += duration - covered[i]
        calls[name] += 1
        if value is not None:
            values[name].append(value)
        if parent < 0:
            root_s += duration
        if not _has_ancestor(spans, i, name):
            inclusive[name] += duration
    return {"inclusive": inclusive, "self": self_s, "calls": calls, "values": values, "root_s": root_s}


def _update_times(spans) -> list[float]:
    """One PPO update runs from a rollout's start to the next one's (or to train's end)."""
    starts = [s for name, s, _, _, _ in spans if name == "ppo.rollout"]
    ends = [e for name, _, e, _, _ in spans if name == "ppo.train"]
    if not starts:
        return []
    bounds = starts + [max(ends) if ends else max(e for name, _, e, _, _ in spans if name == "ppo.rollout")]
    return [b - a for a, b in zip(bounds[:-1], bounds[1:])]


def layer_metrics(spans, summary: dict, wall_s: float, wrapper_cost_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced child from its spans and their summary.

    trace.overhead_s is what the wrappers added: spans recorded times the
    per-call wrapper cost measured in the same child. trace.unattributed_s is
    the child's wall time outside every root span: interpreter start,
    imports, argument parsing, span write-out and exit.
    """
    inc, own, calls, values = summary["inclusive"], summary["self"], summary["calls"], summary["values"]
    rounds = values["mechanisms.write_rounds"]
    generated = values["market.generate"]
    in_rollout = [spans[i][4] for i in range(len(spans))
                  if spans[i][0] == "nets.forward" and _has_ancestor(spans, i, "ppo.rollout")]
    updates = _update_times(spans)
    return {
        "mechanisms.write_rounds_s": inc["mechanisms.write_rounds"],
        "mechanisms.rounds_rows": float(sum(r[0] for r in rounds)),
        "mechanisms.rounds_mb": sum(r[1] for r in rounds) / 1e6,
        "mechanisms.write_summary_s": inc["mechanisms.write_summary"],
        "market.generate_s": inc["market.generate"],
        "market.generate_calls": float(calls["market.generate"]),
        "market.generate_unique_share": len(set(generated)) / len(generated) if generated else 0.0,
        "market.sample_outcomes_s": inc["market.sample_outcomes"],
        "market.sample_outcomes_calls": float(calls["market.sample_outcomes"]),
        "mechanisms.run_auction_s": inc["mechanisms.run_auction"],
        "mechanisms.run_auction_calls": float(calls["mechanisms.run_auction"]),
        "mechanisms.engine_self_s": own["mechanisms.run_auction"],
        "controllers.debt_on_click_s": inc["controllers.debt_on_click"],
        "controllers.debt_on_click_calls": float(calls["controllers.debt_on_click"]),
        "controllers.debt_end_stage_s": inc["controllers.debt_end_stage"],
        "agents.stage_update_s": inc["agents.stage_update"],
        "agents.stage_update_calls": float(calls["agents.stage_update"]),
        "ppo.rollout_s": inc["ppo.rollout"],
        "ppo.policy_act_s": inc["ppo.policy_act"],
        "ppo.policy_act_calls": float(calls["ppo.policy_act"]),
        "ppo.value_estimate_s": inc["ppo.value_estimate"],
        "ppo.value_estimate_calls": float(calls["ppo.value_estimate"]),
        "ppo.rl_on_click_s": inc["ppo.rl_on_click"],
        "nets.forward_calls": float(len(in_rollout)),
        "nets.rows_per_forward": sum(in_rollout) / len(in_rollout) if in_rollout else 0.0,
        "ppo.gae_s": inc["ppo.gae"],
        "ppo.loss_and_grads_s": inc["ppo.loss_and_grads"],
        "ppo.loss_and_grads_calls": float(calls["ppo.loss_and_grads"]),
        "nets.adam_step_s": inc["nets.adam_step"],
        "nets.adam_step_calls": float(calls["nets.adam_step"]),
        "ppo.steps": float(sum(values["ppo.rollout"])),
        "ppo.aborted_updates": float(sum(values["ppo.train"])),
        "ppo.update_p50_s": statistics.median(updates) if updates else 0.0,
        "ppo.train_self_s": own["ppo.train"],
        "ppo.write_s": inc["ppo.write"],
        "market.write_csv_s": inc["market.write_csv"],
        "market.csv_mb": sum(values["market.write_csv"]) / 1e6,
        "market.read_csv_s": inc["market.read_csv"],
        "market.read_rows": float(sum(values["market.read_csv"])),
        "analysis.tables_s": inc["analysis.tables"],
        "analysis.write_s": inc["analysis.write"],
        "experiments.self_s": own["experiments.run_experiment"],
        "experiments.load_config_s": inc["experiments.load_config"],
        "trace.overhead_s": len(spans) * wrapper_cost_s,
        "trace.unattributed_s": wall_s - summary["root_s"],
    }
