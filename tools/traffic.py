"""Print the statements of src/auctionlab that no shipped command executes.

Runs, in this one process under a line tracer (sys.settrace), the commands
that CI runs end to end:

- `run` on desk, its stages shortened to 60 rounds through a copy of
  configs/desk.yaml;
- `run` on sparse;
- `generate` on sparse at seed 0, then the replay step: read_market_csv
  and a DFP:debt run_auction on the replayed log;
- `train` on toy_train at 10 updates, through a copy of its config;
- `run` on toy_train's market with the learned payer (DFP:rl), paid by the
  checkpoint that training wrote;
- `report` on the desk run's artifacts.

Then prints, per module, each statement that no line event reached, leaving
out docstrings, stub bodies and raise statements. A statement is marked by
any line it spans; a compound statement (if, for, while, with) by its
header. Writes only to a temporary directory and takes no flags. Run from
the repository root:

    python tools/traffic.py
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "auctionlab"


def statements(tree: ast.Module) -> list[tuple[int, int]]:
    """(first, last) line of each statement a line event can mark, sorted:
    simple statements whole, compound ones by their header. Function and
    class definitions, try headers, docstrings, stub bodies (...) and raise
    statements are left out."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try, ast.TryStar, ast.Raise)
        ):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):  # a docstring or a stub's ...
            continue
        body = getattr(node, "body", None)
        spans.append((node.lineno, max(node.lineno, body[0].lineno - 1) if body else node.end_lineno))
    return sorted(spans)


def traced(hits: set[tuple[str, int]]):
    """A sys.settrace function that adds (file, line) to hits for each line
    event in a frame of the package's code."""
    prefix = str(PACKAGE) + os.sep

    def on_line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    return on_call


def run_commands(tmp: pathlib.Path) -> None:
    """The traffic: the commands in the module docstring, each required to succeed."""
    import numpy as np

    from auctionlab import DebtController, MechanismConfig, run_auction
    from auctionlab.cli import load_config, main
    from auctionlab.experiments import make_agents
    from auctionlab.market import read_market_csv

    configs = ROOT / "configs"
    desk = (configs / "desk.yaml").read_text()
    short = desk.replace("rounds_per_stage: 1800", "rounds_per_stage: 60")
    toy = (configs / "toy_train.yaml").read_text()
    toy_rl = toy.replace("controller: debt", "controller: rl")
    if short == desk or toy_rl == toy:
        raise SystemExit("configs/desk.yaml or configs/toy_train.yaml no longer has the text this tool edits")
    (tmp / "desk60.yaml").write_text(short)
    (tmp / "toy10.yaml").write_text(toy + "rl: {updates: 10}\n")
    (tmp / "toy_rl.yaml").write_text(toy_rl)
    commands = [
        ["run", "--config", str(tmp / "desk60.yaml"), "--out", str(tmp / "desk")],
        ["run", "--config", str(configs / "sparse.yaml"), "--out", str(tmp / "sparse")],
        ["generate", "--config", str(configs / "sparse.yaml"), "--seed", "0", "--out", str(tmp / "market")],
        ["train", "--config", str(tmp / "toy10.yaml"), "--seed", "1", "--out", str(tmp / "train")],
        ["run", "--config", str(tmp / "toy_rl.yaml"), "--checkpoint", str(tmp / "train" / "checkpoint.txt"),
         "--out", str(tmp / "toy_rl")],
        ["report", str(tmp / "desk")],
    ]
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"auctionlab {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    with open(tmp / "market" / "market_meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    log = read_market_csv(str(tmp / "market" / "market.csv"), tuple(meta["stage_plan"]), np.asarray(meta["tcpa"]),
                          seed=meta["seed"])
    agents = make_agents(load_config(str(configs / "sparse.yaml")), log.num_bidders)
    run_auction(log, MechanismConfig("DFP", controller="debt"), agents, controller=DebtController(log.tcpa))


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    hits: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(traced(hits))
        try:
            run_commands(pathlib.Path(tmp))
        finally:
            sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        spans = statements(ast.parse(source))
        missed = [first for first, last in spans
                  if not any((str(path), n) in hits for n in range(first, last + 1))]
        print(f"{path.name}: {len(missed)} of {len(spans)} statements not executed")
        for n in missed:
            print(f"  {n:>4}  {lines[n - 1].strip()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
