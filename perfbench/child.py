"""One benchmark child process: a single auctionlab command, as the CLI runs it.

    python3 perfbench/child.py MODE MARKS SPANS ARGS...

MODE is one of
    cli     ARGS are the `auctionlab` command line; runs `auctionlab.cli.main`.
    probe   ARGS is a config path; imports the CLI, loads the config, exits.
    replay  ARGS are CONFIG OUT SEED; `auctionlab generate`, then reads the
            market CSV back and runs DFP:debt on the replayed log.
    live    ARGS are CONFIG SEED; runs DFP:debt on the generated market, the
            reference the replay must reproduce.

MARKS is a JSON file the child writes at exit: the process's CPU time when
imports and the first `load_config` finished (`setup_cpu_s`), and for
replay/live the sha256 of the simulated rounds table. SPANS is `-` for an
untraced child, or the file the traced child writes its spans to at exit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rounds_digest(result) -> str:
    """sha256 over every column of a SimulationResult's rounds table."""
    import numpy as np

    h = hashlib.sha256()
    for f in dataclasses.fields(result.rounds):
        column = np.ascontiguousarray(getattr(result.rounds, f.name))
        h.update(f"{f.name}:{column.dtype.str}:{column.size};".encode())
        h.update(column.tobytes())
    return h.hexdigest()


def _run_debt(log, config):
    from auctionlab import controllers, experiments, mechanisms

    mech = mechanisms.MechanismConfig("DFP", controller="debt")
    agents = experiments.make_agents(config, log.num_bidders)
    return mechanisms.run_auction(log, mech, agents, controller=controllers.DebtController(log.tcpa))


def replay(cli, config_path: str, out: str, seed: str, marks: dict) -> int:
    import numpy as np

    from auctionlab import market

    code = cli.main(["generate", "--config", config_path, "--out", out, "--seed", seed])
    if code != 0:
        return code
    with open(os.path.join(out, "market_meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    log = market.read_market_csv(
        os.path.join(out, "market.csv"), tuple(meta["stage_plan"]), np.asarray(meta["tcpa"]), seed=meta["seed"]
    )
    marks["rounds_sha256"] = rounds_digest(_run_debt(log, cli.load_config(config_path)))
    return 0


def live(cli, config_path: str, seed: str, marks: dict) -> int:
    from dataclasses import replace

    from auctionlab import market

    config = cli.load_config(config_path)
    log = market.generate_market(replace(config.market, seed=int(seed)))
    marks["rounds_sha256"] = rounds_digest(_run_debt(log, config))
    return 0


def main(argv: list[str]) -> int:
    mode, marks_path, spans_path, args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import auctionlab.cli as cli

    tracer = None
    if spans_path != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    marks: dict = {}
    load_config = cli.load_config

    def load_config_marked(path):
        config = load_config(path)
        marks.setdefault("setup_cpu_s", time.process_time())
        return config

    cli.load_config = load_config_marked
    if mode == "cli":
        code = cli.main(args)
    elif mode == "probe":
        cli.load_config(args[0])
        code = 0
    elif mode == "replay":
        code = replay(cli, args[0], args[1], args[2], marks)
    elif mode == "live":
        code = live(cli, args[0], args[1], marks)
    else:
        print(f"ERROR ValueError: unknown child mode {mode!r}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.dump(spans_path)
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
