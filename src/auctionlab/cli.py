"""Command-line front end: generate, run, train, report.

Every failure path prints `ERROR <Kind>: <message>` as the last stderr
line and exits 1; success exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import ConfigError, SchemaError, _open_input
from .experiments import load_config, run_experiment
from .market import _check_seed, generate_market, write_market_csv
from .ppo import save_checkpoint, train, write_curves_csv


class _Parser(argparse.ArgumentParser):
    # Route argparse usage errors through the uniform ERROR line.
    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="auctionlab", description="Deterministic autobidding auction laboratory.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen = sub.add_parser("generate", parents=[], help="generate a market and write market.csv", add_help=True)
    gen.add_argument("--config", required=True, help="experiment config (YAML)")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=None, help="override the market seed")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run the configured mechanisms and write artifacts")
    run.add_argument("--config", required=True, help="experiment config (YAML)")
    run.add_argument("--out", required=True, help="artifact directory")
    run.add_argument("--seed", type=int, default=None, help="run a single seed instead of the configured list")
    run.add_argument("--mechanism", default=None, help="run only the mechanism with this label (e.g. DFP:debt)")
    run.add_argument("--checkpoint", default=None, help="policy checkpoint for DFP:rl runs")
    run.set_defaults(func=cmd_run)

    tr = sub.add_parser("train", help="train the payment policy and write a checkpoint")
    tr.add_argument("--config", required=True, help="experiment config (YAML)")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--seed", type=int, default=0, help="training seed")
    tr.set_defaults(func=cmd_train)

    rep = sub.add_parser("report", help="print the pooled summary of an artifact directory")
    rep.add_argument("artifacts", help="directory produced by `auctionlab run`")
    rep.set_defaults(func=cmd_report)
    return parser


def _make_out(path: str) -> None:
    """Create the output directory once the arguments are checked, before any work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path!r} cannot be made a directory: {exc.strerror}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    market_config = config.market
    if args.seed is not None:
        _check_seed(args.seed, "--seed")
        market_config = replace(market_config, seed=args.seed)
    _make_out(args.out)
    market = generate_market(market_config)
    path = os.path.join(args.out, "market.csv")
    write_market_csv(market, path)
    # The market table carries no targets; keep them next to it for replay.
    meta = {
        "seed": market_config.seed,
        "stage_plan": list(market_config.stage_plan),
        "tcpa": [float(t) for t in market.tcpa],
    }
    with open(os.path.join(args.out, "market_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        _check_seed(args.seed, "--seed")
        config = replace(config, seeds=(args.seed,))
    if args.mechanism is not None:
        picked = tuple(m for m in config.mechanisms if m.label == args.mechanism)
        if not picked:
            labels = [m.label for m in config.mechanisms]
            raise ConfigError(f"mechanism {args.mechanism!r} not in config (has: {', '.join(labels)})")
        config = replace(config, mechanisms=picked)
    _make_out(args.out)
    out = run_experiment(config, args.out, rl_checkpoint=args.checkpoint)
    print(out["out_dir"])
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _check_seed(args.seed, "training seed")
    _make_out(args.out)
    result = train(config.market, config.rl, seed=args.seed)
    ckpt = os.path.join(args.out, "checkpoint.txt")
    save_checkpoint(result.policy, result.critic, ckpt)
    write_curves_csv(result.curves, os.path.join(args.out, "curves.csv"))
    if result.aborted_updates:
        print(f"aborted updates: {result.aborted_updates}", file=sys.stderr)
    print(ckpt)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    summary_path = os.path.join(args.artifacts, "summary.csv")
    with _open_input(summary_path, "summary", SchemaError) as fh:
        rows = [line.split(",") for line in fh.read().splitlines() if line.strip()]
    if not rows:
        raise SchemaError(f"{summary_path} is empty")
    for n, cells in enumerate(rows, start=1):
        if len(cells) != 5:
            raise SchemaError(f"{summary_path} row {n} has {len(cells)} columns, expected 5")
    manifest_path = os.path.join(args.artifacts, "manifest.json")
    manifest = None
    if os.path.exists(manifest_path):
        if not os.path.isfile(manifest_path):
            raise SchemaError(f"{manifest_path} is not a file")
        with open(manifest_path, encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                raise SchemaError(f"{manifest_path} is not valid JSON: {exc}") from None
        if not isinstance(manifest, dict):
            raise SchemaError(f"{manifest_path} must hold a JSON object, got {type(manifest).__name__}")
    widths = [max(len(cells[i]) for cells in rows) for i in range(5)]
    for cells in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)))
    if manifest is not None:
        print(f"config sha256: {manifest.get('config_sha256', '?')}")
        print(f"created: {manifest.get('created', '?')}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise ConfigError("no command given (expected generate, run, train, or report)")
        return args.func(args)
    except SystemExit as exc:
        # argparse --help lands here with code 0.
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else 1
    except Exception as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
