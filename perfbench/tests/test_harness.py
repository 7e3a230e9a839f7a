"""Tests for the benchmark harness itself, on tiny configs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

MARKET = """
market:
  num_bidders: {bidders}
  num_slots: {slots}
  stage_plan: [20, 20, 20]
  ctr_range: [0.5, 0.9]
  cvr_range: [0.2, 0.4]
  value_range: [1.0, 3.0]
  tcpa_range: [1.0, 4.0]
  seed: 0
"""

TINY = {
    "desk.yaml": MARKET.format(bidders=3, slots=2) + """
mechanisms:
  - kind: CFP
  - kind: PACING_OFFLINE
  - kind: DFP
    controller: debt
seeds: [0, 1]
agent: risk_averse
tau: 2
chernoff: {epsilon: 0.1, cvr: 0.3}
""",
    "sparse.yaml": MARKET.format(bidders=2, slots=1) + """
mechanisms:
  - kind: DFP
    controller: debt
seeds: [0]
agent: truthful
""",
    "toy_train.yaml": MARKET.format(bidders=1, slots=1) + """
mechanisms:
  - kind: DFP
    controller: debt
seeds: [0]
agent: truthful
rl: {epochs: 1, minibatch: 8, hidden: [4]}
""",
}


@pytest.fixture(scope="module")
def tiny_configs(tmp_path_factory) -> Path:
    configs = tmp_path_factory.mktemp("configs")
    for name, text in TINY.items():
        (configs / name).write_text(text)
    return configs


def test_benchmark_json_names_match_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_emitted_metrics_match_benchmark_json(workload, tiny_configs, capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = {}
    for trace in (False, True):
        record = run.measure(workload, seed=3, seconds=0, trace=trace, configs=tiny_configs, use_recorded=False)
        final = run.print_report(record)
        assert capsys.readouterr().out
        section = bench["per_layer"] if trace else bench["end_to_end"]
        assert list(final["metrics"]) == [m["name"] for m in section]
        assert all(final["metrics"][m["name"]]["unit"] == m["unit"] for m in section)
        assert final["correct"], record["problems"]
        assert final["failed"] == 0 and final["attempted"] >= 1
        assert len(record["digests"]) == 1
        records[trace] = record
    # Traced children write the same bytes as untraced ones, and their self
    # times plus the unattributed rest add up to the traced wall time.
    traced = records[True]
    assert traced["digests"] == records[False]["digests"]
    for row in traced["span_accounting"]:
        assert row["self_sum_s"] + row["unattributed_s"] == pytest.approx(row["wall_s"], abs=1e-9)
        assert 0.0 < row["self_sum_s"] < row["wall_s"]
    assert traced["unwrapped"] == []
    assert traced["per_layer"]["trace.overhead_s"] > 0.0


def test_self_time_is_duration_minus_children():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]; d [11, 12] is a second root.
    span_list = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 3.0, 0, None),
        ("b", 4.0, 8.0, 0, None),
        ("c", 5.0, 6.0, 2, None),
        ("d", 11.0, 12.0, -1, None),
    ]
    summary = spans.summarize(span_list)
    assert summary["self"] == {"root": 4.0, "a": 2.0, "b": 3.0, "c": 1.0, "d": 1.0}
    assert summary["inclusive"]["b"] == 4.0
    assert summary["root_s"] == 11.0
    assert sum(summary["self"].values()) == summary["root_s"]
    layers = spans.layer_metrics(span_list, summary, wall_s=13.0, wrapper_cost_s=0.25)
    assert layers["trace.unattributed_s"] == 2.0
    assert layers["trace.overhead_s"] == 5 * 0.25


def test_wrapper_cost_is_small_and_positive():
    assert 0.0 < spans.wrapper_cost(calls=2000) < 1e-4


def test_nested_same_name_counts_once_inclusive():
    span_list = [("x", 0.0, 4.0, -1, None), ("x", 1.0, 2.0, 0, None)]
    summary = spans.summarize(span_list)
    assert summary["inclusive"]["x"] == 4.0
    assert summary["self"]["x"] == 4.0
    assert summary["calls"]["x"] == 2


def test_flipped_artifact_byte_is_a_failure(tiny_configs, tmp_path):
    from auctionlab.cli import main

    outs = []
    for i in range(2):
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", str(tiny_configs / "desk.yaml"), "--out", str(out), "--seed", "0"]) == 0
        outs.append(out)
    target = outs[1] / "CFP" / "seed_0" / "rounds.csv"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))

    digests = [run.tree_digest(out, run.artifact_files("run", out)) for out in outs]
    assert digests[0] != digests[1]
    for expected in (None, digests[0]):
        children = [run.Child(wall_s=1.0, peak_rss_mb=1.0, digest=d) for d in digests]
        run.judge(children, expected)
        assert [bool(c.problems) for c in children] == [False, True]


def test_recorded_digests_cover_every_workload_and_seed(tmp_path):
    recorded = json.loads(run.DIGESTS.read_text())
    assert set(recorded) == set(run.WORKLOADS)
    for name, workload in run.WORKLOADS.items():
        _, data = run.prepare_config(workload, ROOT / "configs", tmp_path)
        assert recorded[name]["config"] == run.config_identity(data)
        assert set(recorded[name]["seeds"]) >= {str(seed) for seed in run.RECORDED_SEEDS}


def test_config_that_differs_from_the_recorded_one_fails_every_child(tiny_configs):
    record = run.measure("sparse_replay", seed=0, seconds=0, trace=False, configs=tiny_configs)
    assert record["failed"] == record["attempted"] >= 1
    assert any("differs from the one its digests" in p for p in record["problems"])


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_run", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "ERROR" in proc.stderr


def test_missing_config_is_a_setup_error(tmp_path):
    with pytest.raises(run.Setup):
        run.measure("desk_run", seed=0, seconds=0, trace=False, configs=tmp_path)


def test_slowdown_is_the_geometric_mean_of_the_kernels_mean_times():
    sampler = run.SpeedSampler()
    sampler.samples = {
        "python": [run.REF_KERNEL_S["python"] * 1.0, run.REF_KERNEL_S["python"] * 3.0],
        "numpy": [run.REF_KERNEL_S["numpy"] * 0.5],
        "memory": [run.REF_KERNEL_S["memory"] * 8.0],
    }
    # Means over nominal: 2.0, 0.5 and 8.0, whose geometric mean is 2.0.
    assert sampler.slowdown == pytest.approx(2.0)
    with run.SpeedSampler() as live:
        run.python_kernel()
    assert all(live.samples[name] for name in run.REF_KERNELS)
    assert live.slowdown > 0.0
