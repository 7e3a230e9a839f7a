"""Benchmark harness for the auctionlab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is an `auctionlab` command on a
shipped config; the harness starts it as a child process, one child at a
time, and keeps starting children while the next one should end within S
seconds (at least one runs). The seed reaches the program only as the
command's `--seed`.

--trace 0 reports the end-to-end metrics of untraced children; their times
are CPU times scaled to a reference machine speed (see SpeedSampler). --trace 1
runs traced children and reports their per-layer metrics (see spans.py).
Every child's artifacts are hashed and checked: children of one run must
agree, and they must equal the digest perfbench/digests.json holds for the
workload and seed. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines above it print
every metric with its unit, and the full record (samples, provenance) is
written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORK_ROOT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
# Seeds whose artifact digests digests.json holds for every workload.
RECORDED_SEEDS = range(21)
# Every child is killed, and the run reported, before this many seconds.
HARD_LIMIT_S = 165.0
TOY_TRAIN_UPDATES = 10
# Machine speed: while a child runs, a thread on its CPU times each reference
# kernel every SAMPLE_PERIOD_S. REF_KERNEL_S holds each kernel's CPU time at
# this machine's fast speed (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
SAMPLE_PERIOD_S = 0.05
REF_KERNEL_S = {"python": 0.0003, "numpy": 0.0009, "memory": 0.00038}
# Children run numpy's BLAS on one thread, like the rest of the child.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    kind: str  # "run", "train" or "replay"
    config: str  # file name under the configs directory


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "desk_run": Workload("run", "desk.yaml"),
    "toy_train": Workload("train", "toy_train.yaml"),
    "sparse_replay": Workload("replay", "sparse.yaml"),
}

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "rounds_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("rows_per_forward"):
        return "rows"
    return "count"


PER_LAYER = [
    "mechanisms.write_rounds_s", "mechanisms.rounds_rows", "mechanisms.rounds_mb", "mechanisms.write_summary_s",
    "market.generate_s", "market.generate_calls", "market.generate_unique_share",
    "market.sample_outcomes_s", "market.sample_outcomes_calls",
    "mechanisms.run_auction_s", "mechanisms.run_auction_calls", "mechanisms.engine_self_s",
    "controllers.debt_on_click_s", "controllers.debt_on_click_calls", "controllers.debt_end_stage_s",
    "agents.stage_update_s", "agents.stage_update_calls",
    "ppo.rollout_s", "ppo.policy_act_s", "ppo.policy_act_calls", "ppo.value_estimate_s",
    "ppo.value_estimate_calls", "ppo.rl_on_click_s", "nets.forward_calls", "nets.rows_per_forward",
    "ppo.gae_s", "ppo.loss_and_grads_s", "ppo.loss_and_grads_calls", "nets.adam_step_s", "nets.adam_step_calls",
    "ppo.steps", "ppo.aborted_updates", "ppo.update_p50_s", "ppo.train_self_s", "ppo.write_s",
    "market.write_csv_s", "market.csv_mb", "market.read_csv_s", "market.read_rows",
    "analysis.tables_s", "analysis.write_s", "experiments.self_s", "experiments.load_config_s",
    "trace.overhead_s", "trace.unattributed_s",
]
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER}


@dataclass
class Child:
    """One finished child process and what its output check found.

    `cpu_s` and `setup_s` are CPU seconds scaled to the reference speed;
    `slowdown` is what SpeedSampler measured while the child ran.
    """

    wall_s: float
    peak_rss_mb: float
    cpu_s: float = 0.0
    raw_cpu_s: float = 0.0
    slowdown: float = 1.0
    kernel_s: dict[str, float] = field(default_factory=dict)
    artifact_mb: float = 0.0
    setup_s: float | None = None
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    # Traced children only: per-layer metrics, the sum of every span's self
    # time, and the listed names that could not be wrapped.
    layers: dict[str, float] | None = None
    self_sum_s: float = 0.0
    unwrapped: list[str] = field(default_factory=list)


class Setup(Exception):
    """The checkout cannot run the benchmark at all."""


# ---------------------------------------------------------------- processes


_SMALL = np.arange(16.0)
_RNG = random.Random(0)
_OBJECTS = [_RNG.random() for _ in range(200_000)]
_INDICES = [_RNG.randrange(len(_OBJECTS)) for _ in range(1500)]


def python_kernel() -> int:
    """Interpreted arithmetic: the bytecode loop cost of the children's Python code."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


def numpy_kernel() -> float:
    """Small NumPy calls: the per-call dispatch cost of the children's array code."""
    total = 0.0
    for _ in range(300):
        total += float(np.dot(_SMALL, _SMALL) + np.maximum(_SMALL, 3.0).sum())
    return total


def memory_kernel() -> float:
    """Scattered reads of boxed floats: the cache misses of the children's Python objects."""
    total = 0.0
    for i in _INDICES:
        total += _OBJECTS[i]
    return total


REF_KERNELS = {"python": python_kernel, "numpy": numpy_kernel, "memory": memory_kernel}


class SpeedSampler:
    """Measures the speed of the CPU a child runs on, while it runs.

    The host lends this machine's CPUs out in slices, so the same work takes
    from 1x to 1.8x as long from one second to the next, in stretches of
    seconds to minutes; neither CPU time nor steal time shows it. A thread on
    the child's CPU times each reference kernel in its own CPU time. The
    slowdown is the geometric mean, over the kernels, of the mean sampled
    time over REF_KERNEL_S; a child's CPU time divided by it is the CPU time
    at the reference speed. No kernel alone tracks the children: they slow
    down more than interpreted arithmetic and less than scattered reads or
    small NumPy calls. Together the three leave 2-5% of per-child variation,
    against 12-19% before scaling.
    """

    def __enter__(self) -> SpeedSampler:
        self.samples: dict[str, list[float]] = {name: [] for name in REF_KERNELS}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while True:
            for name, kernel in REF_KERNELS.items():
                start = time.thread_time()
                kernel()
                self.samples[name].append(time.thread_time() - start)
            if self._stop.wait(SAMPLE_PERIOD_S):
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def kernel_s(self) -> dict[str, float]:
        return {k: statistics.fmean(v) for k, v in self.samples.items()}

    @property
    def slowdown(self) -> float:
        return statistics.geometric_mean(t / REF_KERNEL_S[k] for k, t in self.kernel_s.items())


def pin_to_one_cpu() -> set[int]:
    """Pin this process (and so its threads and children) to one CPU; return the old set."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def spawn(cmd: list[str], stderr_path: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run one child; return (exit code, wall seconds, CPU seconds, peak RSS MB).

    The child is reaped with wait4, which gives its own CPU time (user +
    system) and peak RSS. A child still running at `deadline` is killed and
    reported with code -9.
    """
    env = {**os.environ, **CHILD_ENV}
    with open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], max(deadline - time.monotonic(), 0.0))
            finally:
                os.close(fd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6


def child_cmd(mode: str, marks: Path, spans_path: Path | None, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode, str(marks), str(spans_path) if spans_path else "-", *args]


def read_json(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def error_lines(stderr_path: Path) -> list[str]:
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        return [line.rstrip() for line in fh if line.startswith("ERROR ")]


# ---------------------------------------------------------------- artifacts


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_files(kind: str, out: Path) -> list[Path]:
    """The files whose bytes a workload must reproduce exactly.

    Run workloads: every CSV in the tree (manifest.json carries a timestamp).
    Train: the checkpoint and the curves. Replay: the generated market.
    """
    if kind == "run":
        return sorted((p for p in out.rglob("*.csv") if p.is_file()), key=lambda p: p.relative_to(out).as_posix())
    if kind == "train":
        return [out / "checkpoint.txt", out / "curves.csv"]
    return [out / "market.csv", out / "market_meta.json"]


def tree_digest(out: Path, files: list[Path], extra: str = "") -> str:
    """sha256 of `sha256sum` output for `files`, named `./<path>` from `out`, plus `extra`.

    For a run tree this equals, inside the output directory,
    `find . -name '*.csv' | LC_ALL=C sort | xargs sha256sum | sha256sum`.
    """
    h = hashlib.sha256()
    for path in files:
        h.update(f"{file_sha256(path)}  ./{path.relative_to(out).as_posix()}\n".encode())
    h.update(extra.encode())
    return h.hexdigest()


def tree_mb(out: Path) -> float:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 1e6


def recorded_digest(name: str, seed: int, data: dict) -> tuple[str | None, str | None]:
    """(digest recorded for this workload and seed, problem that fails every child).

    A workload whose config no longer matches the one its digests were
    recorded for is a failure, not a reason to skip the check. A seed with no
    recorded digest gives (None, None): its children must only agree.
    """
    entry = (read_json(DIGESTS) or {}).get(name)
    if entry is None:
        return None, f"{DIGESTS.name} holds no digests for {name}"
    if entry.get("config") != config_identity(data):
        return None, f"the {name} config differs from the one its digests in {DIGESTS.name} were recorded for"
    return entry["seeds"].get(str(seed)), None


def judge(children: list[Child], expected: str | None) -> None:
    """Mark every child whose digest differs from the reference as failed.

    The reference is the recorded digest when there is one, else the first
    child's digest: every run in a set must give the same bytes.
    """
    reference = expected
    if reference is None:
        reference = next((c.digest for c in children if c.digest), None)
    for c in children:
        if c.digest and c.digest != reference:
            what = "recorded digest" if expected else "first child's digest"
            c.problems.append(f"artifact digest {c.digest[:12]} differs from the {what} {reference[:12]}")


# ---------------------------------------------------------------- configs


def config_identity(data: dict) -> str:
    """Hash of a config's parsed content, blind to YAML formatting."""
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def rounds_per_child(kind: str, data: dict) -> int:
    """Auction rounds one child simulates: mechanisms x rounds for a one-seed
    run, updates x rounds for training, one DFP:debt run for a replay."""
    plan = data["market"]["stage_plan"]
    rounds = plan["stages"] * plan["rounds_per_stage"] if isinstance(plan, dict) else sum(plan)
    if kind == "run":
        return rounds * len(data["mechanisms"])
    if kind == "train":
        return rounds * data["rl"]["updates"]
    return rounds


def prepare_config(workload: Workload, configs: Path, work: Path) -> tuple[str, dict]:
    """Path the command is given (relative to the root when shipped) and its content."""
    source = configs / workload.config
    if not source.is_file():
        raise Setup(f"config {source} not found")
    with open(source, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if workload.kind != "train":
        path = os.path.relpath(source, ROOT) if source.is_relative_to(ROOT) else str(source)
        return path, data
    # Run length: the shipped toy config trains 60 updates; the benchmark trains fewer.
    data = dict(data)
    data["rl"] = {**(data.get("rl") or {}), "updates": TOY_TRAIN_UPDATES}
    path = work / "toy_train.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)
    return str(path), data


# ---------------------------------------------------------------- provenance


def provenance(seed: int, work: Path) -> dict:
    def first(path: str, key: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    mount, device, fstype = "/", "?", "?"
    try:
        real = os.path.realpath(work)
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                dev, point, kind = line.split()[:3]
                if (real == point or real.startswith(point.rstrip("/") + "/")) and len(point) >= len(mount):
                    mount, device, fstype = point, dev, kind
    except OSError:
        pass

    git_sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass

    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.yaml"))
    return {
        "git_sha": git_sha,
        "source_sha256": tree_digest(ROOT, sources),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "seed": seed,
        "output_filesystem": {"mount": mount, "device": device, "type": fstype},
    }


# ---------------------------------------------------------------- measuring


def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    q = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else [ordered[0]] * 3
    return {"n": len(ordered), "min": ordered[0], "q1": q[0], "median": statistics.median(ordered),
            "q3": q[2], "max": ordered[-1]}


def measure(name: str, seed: int, seconds: float, trace: bool, configs: Path = ROOT / "configs",
            use_recorded: bool = True) -> dict:
    """Run one workload for `seconds` and return its full record."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    workload = WORKLOADS[name]
    if not (ROOT / "src" / "auctionlab" / "cli.py").is_file():
        raise Setup(f"no auctionlab sources under {ROOT / 'src'}")
    work = WORK_ROOT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    allowed_cpus = pin_to_one_cpu()
    try:
        config_path, data = prepare_config(workload, configs, work)
        expected, stale = recorded_digest(name, seed, data) if use_recorded else (None, None)

        def run_child(index: int, mode: str, args: list[str], traced: bool = False):
            marks = work / f"marks-{index}.json"
            trace_file = work / f"spans-{index}.npz" if traced else None
            stderr_path = work / f"stderr-{index}.txt"
            with SpeedSampler() as sampler:
                code, wall, cpu, rss = spawn(child_cmd(mode, marks, trace_file, args), stderr_path, deadline)
            mark = read_json(marks) or {}
            problems = [] if code == 0 else [f"exit code {code}"]
            problems += error_lines(stderr_path)
            if "setup_cpu_s" not in mark and not problems:
                problems.append("child wrote no setup mark")
            slowdown = sampler.slowdown
            setup = mark["setup_cpu_s"] / slowdown if "setup_cpu_s" in mark else None
            child = Child(wall, rss, cpu_s=cpu / slowdown, raw_cpu_s=cpu, slowdown=slowdown,
                          kernel_s=sampler.kernel_s, setup_s=setup, problems=problems)
            return child, mark, trace_file

        setups: list[float] = []

        def probe(index: int) -> None:
            child, _, _ = run_child(index, "probe", [config_path])
            if child.problems:
                raise Setup(f"setup probe failed: {child.problems}")
            setups.append(child.setup_s)

        # Warm-up: compiles bytecode and fills the page cache; not timed.
        run_child(0, "probe", [config_path])
        live_digest = None
        if workload.kind == "replay":
            # The reference a replay must reproduce: DFP:debt on the live market.
            check, mark, _ = run_child(9, "live", [config_path, str(seed)])
            live_digest = mark.get("rounds_sha256")
            if check.problems or live_digest is None:
                raise Setup(f"live reference run failed: {check.problems}")

        # Untraced runs take a set-up probe before the first child and after
        # each one, so that set-up samples span the whole run: the machine's
        # speed drifts.
        if not trace:
            probe(1)
        children: list[Child] = []
        measure_start = time.monotonic()
        index = 10
        while True:
            index += 1
            out = work / f"out-{index}"
            if workload.kind == "replay":
                mode, args = "replay", [config_path, str(out), str(seed)]
            else:
                mode, args = "cli", [workload.kind, "--config", config_path, "--out", str(out), "--seed", str(seed)]
            child, mark, trace_file = run_child(index, mode, args, trace)
            if out.is_dir():
                child.artifact_mb = tree_mb(out)
                extra = ""
                if workload.kind == "replay":
                    extra = f"rounds {mark.get('rounds_sha256')}\n"
                    if mark.get("rounds_sha256") != live_digest:
                        child.problems.append("replayed rounds differ from the live run")
                try:
                    child.digest = tree_digest(out, artifact_files(workload.kind, out), extra)
                except OSError as exc:
                    child.problems.append(f"artifact missing: {exc}")
                shutil.rmtree(out)
            elif not child.problems:
                child.problems.append("no output directory")
            if trace and trace_file.is_file():
                span_list, child.unwrapped, wrapper_cost_s = spans.load(str(trace_file))
                summary = spans.summarize(span_list)
                child.layers = spans.layer_metrics(span_list, summary, child.wall_s, wrapper_cost_s)
                child.self_sum_s = sum(summary["self"].values())
                trace_file.unlink()
            elif trace and not child.problems:
                child.problems.append("traced child wrote no spans")
            children.append(child)
            if not trace:
                probe(index)
            # Start another child only if it should end within `seconds` (and
            # well before the hard limit); the first child always runs.
            now = time.monotonic()
            if now + (now - measure_start) / len(children) > min(measure_start + seconds, deadline - 15):
                break
        judge(children, expected)
        if stale:
            for child in children:
                child.problems.append(stale)
        return report(name, workload, seed, seconds, trace, data, children, setups, expected, work, started)
    finally:
        os.sched_setaffinity(0, allowed_cpus)
        shutil.rmtree(work, ignore_errors=True)


def report(name, workload, seed, seconds, trace, data, children, setups, expected, work, started) -> dict:
    rounds = rounds_per_child(workload.kind, data)
    # End-to-end metrics come from untraced children only.
    samples: dict[str, list[float]] = {} if trace else {
        "setup_s": setups + [c.setup_s for c in children if c.setup_s is not None],
        "cpu_s": [c.cpu_s for c in children],
        "rounds_per_cpu_s": [rounds / c.cpu_s for c in children],
        "peak_rss_mb": [c.peak_rss_mb for c in children],
        "artifact_mb": [c.artifact_mb for c in children],
    }
    # As measured, before scaling to the reference speed; recorded, not bounded.
    raw = {
        "wall_s": [c.wall_s for c in children],
        "raw_cpu_s": [c.raw_cpu_s for c in children],
        "slowdown": [c.slowdown for c in children],
        **{f"{k}_kernel_s": [c.kernel_s[k] for c in children] for k in REF_KERNELS},
    }
    failed = sum(1 for c in children if c.problems)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds_per_child": rounds,
        "config_identity": config_identity(data),
        "recorded_digest_checked": expected is not None,
        "digests": sorted({c.digest for c in children if c.digest}),
        "attempted": len(children),
        "failed": failed,
        "fail_rate": failed / len(children),
        "problems": [p for c in children for p in c.problems],
        "end_to_end": {k: {**quartiles(v), "unit": END_TO_END[k]} for k, v in samples.items() if v},
        "samples": samples,
        "unscaled": {k: quartiles(v) for k, v in raw.items()},
        "unscaled_samples": raw,
        "provenance": provenance(seed, work),
        "harness_s": time.monotonic() - started,
    }
    if trace:
        layers = [c.layers for c in children if c.layers]
        # With no usable traced child (a failure, already counted) every layer reads 0.
        record["per_layer"] = {k: statistics.median([layer[k] for layer in layers]) if layers else 0.0
                               for k in PER_LAYER}
        record["unwrapped"] = sorted({name for c in children for name in c.unwrapped})
        record["span_accounting"] = [
            {"wall_s": c.wall_s, "self_sum_s": c.self_sum_s, "unattributed_s": c.layers["trace.unattributed_s"]}
            for c in children if c.layers
        ]
    return record


# ---------------------------------------------------------------- output


def print_report(record: dict) -> dict:
    """Print every metric with its unit; return the final JSON line's object."""
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} runs, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    if not record["recorded_digest_checked"]:
        print(f"  note: no recorded digest for seed {record['seed']}; checked only that the children agree")
    if record["trace"] and record.get("unwrapped"):
        print(f"  could not wrap or measure: {', '.join(record['unwrapped'])}")
    print(f"  {'fail_rate':34s} {record['fail_rate']:.6g} ratio")
    for key, stats in record["end_to_end"].items():
        print(f"  {key:34s} {stats['median']:.6g} {stats['unit']}  "
              f"(n={stats['n']}, q1={stats['q1']:.6g}, q3={stats['q3']:.6g})")
    for key, stats in record["unscaled"].items():
        print(f"  unscaled {key:25s} {stats['median']:.6g}  (n={stats['n']}, q1={stats['q1']:.6g}, q3={stats['q3']:.6g})")
    if record["trace"]:
        for key, value in record["per_layer"].items():
            print(f"  {key:34s} {value:.6g} {PER_LAYER_UNITS[key]}")
        for row in record["span_accounting"]:
            print(f"  traced wall {row['wall_s']:.4f} s = span self times {row['self_sum_s']:.4f} s "
                  f"+ unattributed {row['unattributed_s']:.4f} s")
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k]["median"], "unit": u} for k, u in END_TO_END.items()}
    print(f"  provenance {json.dumps(record['provenance'], sort_keys=True)}")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record-digest", action="store_true",
                        help=f"store this seed's artifact digest in {DIGESTS.name} instead of checking it")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), use_recorded=not args.record_digest)
    except Setup as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 2
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.record_digest:
        if record["failed"] or len(record["digests"]) != 1:
            print("ERROR not recording: the run failed or its children disagree", file=sys.stderr)
            return 1
        digests = read_json(DIGESTS) or {}
        entry = digests.get(args.workload, {})
        if entry.get("config") != record["config_identity"]:
            # Digests recorded for another config no longer apply.
            entry = {"config": record["config_identity"], "seeds": {}}
        entry["seeds"][str(args.seed)] = record["digests"][0]
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda item: int(item[0])))
        digests[args.workload] = entry
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
    final = print_report(record)
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
