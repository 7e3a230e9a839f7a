"""Command-line interface: argument handling, artifacts, and error lines."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from auctionlab.cli import main

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
RUN_YAML = """
market:
  num_bidders: 3
  num_slots: 2
  stage_plan: [20, 20]
  ctr_range: [0.5, 0.9]
  cvr_range: [0.2, 0.4]
  value_range: [1.0, 3.0]
  tcpa_range: [1.0, 4.0]
  seed: 0
mechanisms:
  - kind: CFP
  - kind: DFP
    controller: debt
seeds: [0, 1]
agent: truthful
"""

TRAIN_YAML = """
market:
  num_bidders: 1
  num_slots: 1
  stage_plan: [3, 3]
  ctr_range: [0.9, 0.9]
  cvr_range: [0.2, 0.2]
  value_range: [1.0, 1.0]
  tcpa_range: [2.0, 2.0]
  seed: 0
mechanisms:
  - kind: DFP
    controller: rl
seeds: [0]
agent: truthful
rl:
  updates: 2
  epochs: 1
  minibatch: 8
  hidden: [4]
"""


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(RUN_YAML)
    return str(path)


@pytest.fixture
def train_config(tmp_path):
    path = tmp_path / "train.yaml"
    path.write_text(TRAIN_YAML)
    return str(path)


def _last_stderr_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return err[-1] if err else ""


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["generate", "run", "train"])
def test_bad_out_fails_before_any_work(capsys, monkeypatch, run_config, train_config, tmp_path, command, under):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} did work before refusing --out")

    for name in ("generate_market", "run_experiment", "train"):
        monkeypatch.setattr(f"auctionlab.cli.{name}", refuse)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / "x" if under else blocker
    config = train_config if command == "train" else run_config
    assert main([command, "--config", config, "--out", str(out)]) == 1
    reason = "Not a directory" if under else "File exists"
    assert _last_stderr_line(capsys) == f"ERROR ConfigError: --out {str(out)!r} cannot be made a directory: {reason}"


def test_no_command_is_an_error(capsys):
    assert main([]) == 1
    assert _last_stderr_line(capsys).startswith("ERROR ConfigError:")


def test_unknown_flag_is_an_error(capsys):
    assert main(["run", "--bogus"]) == 1
    assert _last_stderr_line(capsys).startswith("ERROR ConfigError:")


def test_missing_config_file(capsys, tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")]) == 1
    assert _last_stderr_line(capsys).startswith("ERROR MissingInputError:")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out


def test_generate_writes_market_and_meta(capsys, run_config, tmp_path):
    out = str(tmp_path / "gen")
    assert main(["generate", "--config", run_config, "--out", out]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == os.path.join(out, "market.csv")
    assert os.path.exists(printed)
    meta = json.loads(Path(os.path.join(out, "market_meta.json")).read_text())
    assert meta["seed"] == 0
    assert meta["stage_plan"] == [20, 20]
    assert len(meta["tcpa"]) == 3

    out2 = str(tmp_path / "gen2")
    assert main(["generate", "--config", run_config, "--out", out2, "--seed", "7"]) == 0
    capsys.readouterr()
    meta2 = json.loads(Path(os.path.join(out2, "market_meta.json")).read_text())
    assert meta2["seed"] == 7
    assert meta2["tcpa"] != meta["tcpa"]


def test_run_writes_artifacts_and_reports(capsys, run_config, tmp_path):
    out = str(tmp_path / "art")
    assert main(["run", "--config", run_config, "--out", out]) == 0
    assert capsys.readouterr().out.strip() == out
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "CFP", "seed_0", "rounds.csv"))
    assert os.path.exists(os.path.join(out, "DFP_debt", "seed_1", "rounds.csv"))

    assert main(["report", out]) == 0
    report = capsys.readouterr().out
    assert "checkpoint_ratio" in report
    assert "config sha256:" in report


def test_run_mechanism_filter(capsys, run_config, tmp_path):
    out = str(tmp_path / "only")
    assert main(["run", "--config", run_config, "--out", out, "--mechanism", "CFP", "--seed", "1"]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "CFP", "seed_1"))
    assert not os.path.exists(os.path.join(out, "CFP", "seed_0"))
    assert not os.path.exists(os.path.join(out, "DFP_debt"))

    assert main(["run", "--config", run_config, "--out", out, "--mechanism", "VCG"]) == 1
    line = _last_stderr_line(capsys)
    assert line.startswith("ERROR ConfigError:")
    assert "CFP" in line and "DFP:debt" in line


def test_report_missing_summary(capsys, tmp_path):
    assert main(["report", str(tmp_path)]) == 1
    assert _last_stderr_line(capsys).startswith("ERROR MissingInputError:")


GOOD_SUMMARY = "mechanism,metric,upper,lower,mean\nCFP,stage_ratio,1.1,0.9,1.0\n"


@pytest.mark.parametrize(
    "text,manifest",
    [
        pytest.param("", None, id="empty"),
        pytest.param("mechanism,metric,upper,lower,mean\nCFP,stage_ratio,1.0\n", None, id="short_row"),
        pytest.param("bidder,tcpa,final_bid,impressions,clicks,conversions,expected_clicks,"
                     "expected_conversions,expected_payment,payment,utility,withdrawn\n", None,
                     id="per_bidder_summary"),
        pytest.param(GOOD_SUMMARY, b"{bad", id="corrupt_manifest"),
        pytest.param(GOOD_SUMMARY, b"\xff\xfe{}", id="manifest_not_utf8"),
        pytest.param(GOOD_SUMMARY, b"[1, 2]", id="manifest_not_an_object"),
    ],
)
def test_report_malformed_summary(capsys, tmp_path, text, manifest):
    (tmp_path / "summary.csv").write_text(text)
    if manifest is not None:
        (tmp_path / "manifest.json").write_bytes(manifest)
    assert main(["report", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines()[-1].startswith("ERROR SchemaError:")
    # The table is printed only once every input has been read.
    assert captured.out == ""


def test_report_prints_summary_and_manifest(capsys, tmp_path):
    (tmp_path / "summary.csv").write_text(GOOD_SUMMARY)
    (tmp_path / "manifest.json").write_text(json.dumps({"config_sha256": "abc", "created": "now"}))
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["CFP", "stage_ratio", "1.1", "0.9", "1.0"]
    assert out[-2:] == ["config sha256: abc", "created: now"]


def test_report_reads_a_summary_with_crlf_line_ends(capsys, tmp_path):
    (tmp_path / "summary.csv").write_bytes(GOOD_SUMMARY.replace("\n", "\r\n").encode())
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["CFP", "stage_ratio", "1.1", "0.9", "1.0"]


def test_train_then_run_learned_controller(capsys, train_config, tmp_path):
    out = str(tmp_path / "ckpt")
    assert main(["train", "--config", train_config, "--out", out, "--seed", "3"]) == 0
    ckpt = capsys.readouterr().out.strip()
    assert ckpt == os.path.join(out, "checkpoint.txt")
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(out, "curves.csv"))

    art = str(tmp_path / "rl_art")
    assert main(["run", "--config", train_config, "--out", art, "--checkpoint", ckpt]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(art, "DFP_rl", "seed_0", "rounds.csv"))

    # Without the checkpoint the learned mechanism cannot run.
    assert main(["run", "--config", train_config, "--out", str(tmp_path / "x")]) == 1
    assert _last_stderr_line(capsys).startswith("ERROR ConfigError:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_reports_aborted_updates(capsys, tmp_path):
    # A learning rate of 1e15 makes the one update's losses diverge, and
    # the divergence guard rolls it back.
    config = tmp_path / "train.yaml"
    config.write_text(TRAIN_YAML.replace("  updates: 2\n  epochs: 1\n  minibatch: 8\n",
                                         "  updates: 1\n  epochs: 1\n  minibatch: 2\n  lr: 1.0e+15\n"))
    out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(out), "--seed", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["aborted updates: 1"]
    assert captured.out.strip() == str(out / "checkpoint.txt")


def test_run_without_checkpoint_writes_nothing(capsys, tmp_path):
    # CFP runs first in the config, yet the missing DFP:rl checkpoint stops
    # the run before any artifact is written.
    path = tmp_path / "mixed.yaml"
    path.write_text(RUN_YAML.replace("controller: debt", "controller: rl"))
    out = tmp_path / "art"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert _last_stderr_line(capsys).startswith("ERROR ConfigError:")
    assert [f for _, _, files in os.walk(out) for f in files if f.endswith(".csv")] == []


def test_checkpoint_without_rl_mechanism_writes_nothing(capsys, tmp_path):
    # RUN_YAML has no DFP:rl mechanism, so the checkpoint would go unused; it
    # is refused before it is read (the path does not exist) and before any artifact.
    path = tmp_path / "run.yaml"
    path.write_text(RUN_YAML)
    out = tmp_path / "art"
    argv = ["run", "--config", str(path), "--out", str(out), "--checkpoint", str(tmp_path / "checkpoint.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("ERROR ConfigError:") and "CFP, DFP:debt" in err[-1]
    assert sum(line.startswith("ERROR") for line in err) == 1
    assert [f for _, _, files in os.walk(out) for f in files if f.endswith(".csv")] == []


def test_repeated_seed_writes_nothing(capsys, tmp_path):
    # seeds: [0, 0] would write seed_0 twice and pool its metrics twice.
    path = tmp_path / "run.yaml"
    path.write_text(RUN_YAML.replace("seeds: [0, 1]", "seeds: [0, 1, 0]"))
    out = tmp_path / "art"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("ERROR ConfigError:") and "seed 0" in err[-1]
    assert sum(line.startswith("ERROR") for line in err) == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_train_refuses_a_seed_outside_uint64(capsys, train_config, tmp_path, seed):
    out = tmp_path / "train"
    assert main(["train", "--config", train_config, "--out", str(out), "--seed", str(seed)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("ERROR ConfigError:") and "seed" in err[-1]
    assert sum(line.startswith("ERROR") for line in err) == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_a_seed_outside_uint64_names_the_flag_and_makes_no_directory(capsys, run_config, tmp_path, command, seed):
    out = tmp_path / "o2"
    assert main([command, "--config", run_config, "--seed", str(seed), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"ERROR ConfigError: --seed must be an unsigned 64-bit integer, got {seed}"
    assert sum(line.startswith("ERROR") for line in err) == 1
    assert not out.exists()


def test_a_config_seed_outside_uint64_makes_no_directory(capsys, tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(RUN_YAML.replace("seeds: [0, 1]", "seeds: [0, -1]"))
    out = tmp_path / "art"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "ERROR ConfigError: seeds[1] must be an unsigned 64-bit integer, got -1"
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["1.0", "18446744073709551616"])
def test_a_vacuous_chernoff_epsilon_makes_no_directory(capsys, tmp_path, epsilon):
    path = tmp_path / "run.yaml"
    path.write_text(RUN_YAML + f"chernoff: {{epsilon: {epsilon}, cvr: 0.5}}\n")
    out = tmp_path / "art"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("ERROR ConfigError: chernoff.epsilon must be below 1")
    assert sum(line.startswith("ERROR") for line in err) == 1
    assert not out.exists()


def test_a_quartile_next_to_inf_is_written_as_inf_not_nan(capsys, tmp_path):
    # Risk-averse agents on a low-ctr desk market leave DFP:debt a stage that
    # converted but paid nothing: its ratio is inf, and so is the upper quartile
    # linear interpolation gives between the largest finite ratio and that inf.
    with open(os.path.join(CONFIGS, "desk.yaml"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in [
        ("num_bidders: 50", "num_bidders: 3"),
        ("stages: 31, rounds_per_stage: 1800", "stages: 3, rounds_per_stage: 20"),
        ("ctr_range: [0.3, 0.9]", "ctr_range: [0.3, 0.5]"),
        ("seeds: [0, 1, 2, 3, 4]", "seeds: [0]"),
    ]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "desk.yaml"
    path.write_text(text)
    out = tmp_path / "art"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text()
    assert "DFP:debt,stage_ratio,inf,5.5566260689022995,inf\n" in summary
    assert "nan" not in summary



NOT_UTF8 = b"market:\n  seed: \xff\xfe\n"


@pytest.mark.parametrize(
    "command,kind",
    [
        pytest.param(["run", "--config", "{bytes}"], "ConfigError", id="config_not_utf8"),
        pytest.param(["run", "--config", "{dir}"], "MissingInputError", id="config_is_a_directory"),
        pytest.param(["run", "--config", "{train}", "--checkpoint", "{bytes}"], "SchemaError",
                     id="checkpoint_not_utf8"),
        pytest.param(["run", "--config", "{train}", "--checkpoint", "."], "MissingInputError",
                     id="checkpoint_is_a_directory"),
        pytest.param(["report", "{bad_summary}"], "SchemaError", id="summary_not_utf8"),
        pytest.param(["report", "{dir_summary}"], "MissingInputError", id="summary_is_a_directory"),
        pytest.param(["report", "{dir_manifest}"], "SchemaError", id="manifest_is_a_directory"),
    ],
)
def test_unreadable_inputs_end_in_one_error_line(capsys, tmp_path, train_config, command, kind):
    (tmp_path / "bytes").write_bytes(NOT_UTF8)
    (tmp_path / "bad_summary").mkdir()
    (tmp_path / "bad_summary" / "summary.csv").write_bytes(GOOD_SUMMARY.encode() + b"\xff\n")
    (tmp_path / "dir_summary" / "summary.csv").mkdir(parents=True)
    (tmp_path / "dir_manifest" / "manifest.json").mkdir(parents=True)
    (tmp_path / "dir_manifest" / "summary.csv").write_text(GOOD_SUMMARY)
    paths = dict(bytes=tmp_path / "bytes", dir=tmp_path, train=train_config,
                 bad_summary=tmp_path / "bad_summary", dir_summary=tmp_path / "dir_summary",
                 dir_manifest=tmp_path / "dir_manifest")
    argv = [arg.format(**paths) for arg in command]
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "art")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"ERROR {kind}:")
    assert argv[-3 if argv[0] == "run" else -1] in err[-1]  # the message names the file
    assert sum(line.startswith("ERROR") for line in err) == 1

def test_rerun_produces_identical_rounds(capsys, run_config, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["run", "--config", run_config, "--out", a]) == 0
    assert main(["run", "--config", run_config, "--out", b]) == 0
    capsys.readouterr()
    rel = os.path.join("CFP", "seed_0", "rounds.csv")
    assert Path(os.path.join(a, rel)).read_bytes() == Path(os.path.join(b, rel)).read_bytes()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from auctionlab.cli import main; sys.exit(main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "auctionlab" in proc.stdout


PLAN = "stage_plan: [3, 3]"
OVER_INDEX = "9223372036854775808"  # sys.maxsize + 1


@pytest.mark.parametrize(
    "old,new,key",
    [
        pytest.param(PLAN, f"stage_plan: {{stages: {OVER_INDEX}, rounds_per_stage: 600}}",
                     "market.stage_plan.stages", id="stages_over_index"),
        pytest.param(PLAN, "stage_plan: {stages: -3, rounds_per_stage: 600}", "market.stage_plan.stages",
                     id="stages_negative"),
        pytest.param(PLAN, "stage_plan: {stages: 2, rounds_per_stage: 0}", "market.stage_plan.rounds_per_stage",
                     id="rounds_per_stage_zero"),
        pytest.param(PLAN, f"stage_plan: {{stages: 2, rounds_per_stage: {OVER_INDEX}}}",
                     "market.stage_plan.rounds_per_stage", id="rounds_per_stage_over_index"),
        pytest.param("hidden: [4]", "hidden: [1.0e+308, 1.0e+308]", "hidden", id="hidden_1e308"),
        pytest.param("hidden: [4]", "hidden: [100000, 100000]", "hidden", id="hidden_over_param_cap"),
        pytest.param("updates: 2", "updates: 1.0e+308", "updates", id="updates_1e308"),
        pytest.param("epochs: 1", f"epochs: {OVER_INDEX}", "epochs", id="epochs_over_index"),
        pytest.param("minibatch: 8", f"minibatch: {OVER_INDEX}", "minibatch", id="minibatch_over_index"),
    ],
)
def test_oversized_counts_end_in_one_config_error(capsys, tmp_path, old, new, key):
    config = tmp_path / "train.yaml"
    config.write_text(TRAIN_YAML.replace(old, new))
    out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("ERROR ConfigError:") and key in err[-1]
    assert sum(line.startswith("ERROR") for line in err) == 1
    assert not out.exists()


# Runs cli.main under an address-space limit, so that a market nothing caps
# fails to allocate instead of taking the test machine's memory.
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
from auctionlab.cli import main
sys.exit(main(sys.argv[1:]))
"""
SPARSE_PLAN = "stage_plan: {stages: 31, rounds_per_stage: 600}"
TOY_PLAN = "stage_plan: {stages: 31, rounds_per_stage: 200}"


@pytest.mark.parametrize(
    "command,config,old,new,key",
    [
        pytest.param("generate", "sparse.yaml", "num_bidders: 10", f"num_bidders: {OVER_INDEX}", "num_bidders",
                     id="bidders_over_index"),
        pytest.param("generate", "sparse.yaml", "num_slots: 4", "num_slots: 1.0e+308", "num_slots", id="slots_1e308"),
        pytest.param("generate", "sparse.yaml", "num_bidders: 10", "num_bidders: 10000000", "num_bidders",
                     id="bidders_ten_million"),
        pytest.param("run", "sparse.yaml", SPARSE_PLAN, "stage_plan: {stages: 31, rounds_per_stage: 1000000}",
                     "num_rounds", id="rounds_over_cells"),
        pytest.param("train", "toy_train.yaml", TOY_PLAN, "stage_plan: {stages: 100000, rounds_per_stage: 100000}",
                     "market.stage_plan.stages", id="plan_ten_billion_rounds"),
        pytest.param("train", "toy_train.yaml", TOY_PLAN, "stage_plan: {stages: 1099511627776, rounds_per_stage: 600}",
                     "market.stage_plan.rounds_per_stage", id="plan_2_to_the_40_stages"),
        pytest.param("train", "toy_train.yaml", TOY_PLAN, "stage_plan: {stages: 10000000, rounds_per_stage: 20}",
                     "market.stage_plan.stages", id="plan_two_hundred_million_rounds"),
        pytest.param("generate", "toy_train.yaml", "num_bidders: 1", "num_bidders: 20000", "num_bidders",
                     id="one_slot_market_over_the_byte_cap"),
    ],
)
def test_oversized_markets_end_in_one_config_error(tmp_path, command, config, old, new, key):
    with open(os.path.join(CONFIGS, config), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / config
    path.write_text(text.replace(old, new))
    out = tmp_path / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, command, "--config", str(path), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    err = proc.stderr.strip().splitlines()
    assert proc.returncode == 1, proc.stderr
    assert err[-1].startswith("ERROR ConfigError:") and key in err[-1], err[-1]
    assert len(err[-1]) < 200 and sum(line.startswith("ERROR") for line in err) == 1
    assert not out.exists()
