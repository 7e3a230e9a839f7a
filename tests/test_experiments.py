"""Experiment configs, artifact trees, and reproducibility."""

import dataclasses
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from auctionlab import (
    AuctionLabError,
    ConfigError,
    ExperimentConfig,
    MarketConfig,
    MechanismConfig,
    MissingInputError,
    RLConfig,
    TruthfulAgent,
    config_digest,
    evaluate_debt_controller,
    generate_market,
    load_config,
    run_auction,
    run_experiment,
)
from auctionlab.agents import RiskAverseParams
from auctionlab.experiments import checkpoint_abs_error, payment_smoothness

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tiny_config(**kw):
    market = MarketConfig(
        num_bidders=3,
        num_slots=2,
        stage_plan=(20, 20),
        ctr_range=(0.5, 0.9),
        cvr_range=(0.2, 0.4),
        value_range=(1.0, 3.0),
        tcpa_range=(1.0, 4.0),
        seed=0,
    )
    base = dict(
        market=market,
        mechanisms=(MechanismConfig("CFP"), MechanismConfig("DFP", controller="debt")),
        seeds=(0, 1),
        agent="risk_averse",
        tau=2,
        chernoff=(0.5, 0.5),
    )
    base.update(kw)
    return ExperimentConfig(**base)


SHIPPED = {
    "desk.yaml": dict(
        market=(50, 55800, 5, (1800,) * 31, (0.3, 0.9), (0.05, 0.15), (1.0, 5.0), (1.0, 10.0)),
        mechanisms=["CFP", "CPA_OFFLINE", "PACING_OFFLINE", "DFP:debt", "DFP:oracle"],
        agent="risk_averse", tau=4, chernoff=(0.1, 0.05),
    ),
    "sparse.yaml": dict(
        market=(10, 18600, 4, (600,) * 31, (0.4, 0.8), (0.05, 0.15), (1.0, 5.0), (2.0, 6.0)),
        mechanisms=["DFP:debt"], agent="truthful", tau=None, chernoff=None,
    ),
    "toy_train.yaml": dict(
        market=(1, 6200, 1, (200,) * 31, (0.45, 0.55), (0.1, 0.1), (1.0, 5.0), (2.0, 2.0)),
        mechanisms=["DFP:debt"], agent="truthful", tau=None, chernoff=None,
    ),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_configs_pin_dimensions_mechanisms_and_seeds(name):
    want = SHIPPED[name]
    cfg = load_config(os.path.join(REPO, "configs", name))
    m = cfg.market
    assert (
        m.num_bidders, m.num_rounds, m.num_slots, m.stage_plan,
        m.ctr_range, m.cvr_range, m.value_range, m.tcpa_range,
    ) == want["market"]
    assert m.seed == 0
    assert [mech.label for mech in cfg.mechanisms] == want["mechanisms"]
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert (cfg.agent, cfg.agent_params, cfg.epsilon) == (want["agent"], RiskAverseParams(), 0.1)
    assert (cfg.tau, cfg.chernoff, cfg.rl) == (want["tau"], want["chernoff"], RLConfig())


def test_load_config_stage_plan_forms(tmp_path):
    base = """
market:
  num_bidders: 2
  num_slots: 1
  stage_plan: {plan}
  seed: 0
mechanisms:
  - kind: CFP
seeds: [0]
"""
    path = tmp_path / "c.yaml"
    path.write_text(base.format(plan="{stages: 3, rounds_per_stage: 5}"))
    cfg = load_config(str(path))
    assert cfg.market.stage_plan == (5, 5, 5)
    assert cfg.market.num_rounds == 15
    path.write_text(base.format(plan="[4, 6]"))
    cfg = load_config(str(path))
    assert cfg.market.stage_plan == (4, 6)
    assert cfg.market.num_rounds == 10


@pytest.mark.parametrize(
    "snippet,needle",
    [
        ("unknown_top: 1", "unknown_top"),
        ("market: {num_bidders: 2, num_slots: 1, stage_plan: [5], seed: 0, bogus: 3}", "bogus"),
        ("agent_params: {epsilon: 0.1, wrong: 2}", "wrong"),
        ("rl: {learning: 0.1}", "learning"),
        # A market's length is the sum of its stage plan, never a key of its own.
        ("market: {num_bidders: 2, num_rounds: 5, num_slots: 1, stage_plan: [5], seed: 0}",
         "unknown config key 'num_rounds' in market"),
    ],
)
def test_load_config_names_unknown_keys(tmp_path, snippet, needle):
    body = """
market:
  num_bidders: 2
  num_slots: 1
  stage_plan: [5]
  seed: 0
mechanisms:
  - kind: CFP
seeds: [0]
"""
    if snippet.startswith("market:"):
        body = body.replace(
            "market:\n  num_bidders: 2\n  num_slots: 1\n  stage_plan: [5]\n  seed: 0\n", snippet + "\n"
        )
    else:
        body += snippet + "\n"
    path = tmp_path / "c.yaml"
    path.write_text(body)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "snippet,needle",
    [
        ("epsilon: .nan", "epsilon"),
        ("tau: 1.7", "tau"),
        ("seeds: 3", "seeds"),
        ("market: {num_bidders: two, num_slots: 1, stage_plan: [5], seed: 0}", "market.num_bidders"),
        ("market: {num_bidders: 2, num_slots: 1, stage_plan: {stages: two, rounds_per_stage: 5}}", "stages"),
        ("market: {num_bidders: 2, num_slots: 1, stage_plan: [5], ctr_range: [0.5, high]}", "ctr_range[1]"),
        ("market: {num_slots: 1, stage_plan: [5]}", "market.num_bidders"),
        ("rl: {hidden: 5}", "rl.hidden"),
        ("rl: {hidden: [4, 2.5]}", "rl.hidden[1]"),
        ("rl: {updates: 2.5}", "rl.updates"),
        ("rl: {epochs: 1.5}", "rl.epochs"),
        ("rl: {lr: fast}", "rl.lr"),
        ("rl: {adv_norm: 1}", "rl.adv_norm"),
        ('agent_params: {patience: "3"}', "agent_params.patience"),
        ("agent_params: {epsilon: 1.5}", "agent_params: epsilon must lie in [0, 1)"),
        ("epsilon: abc", "epsilon"),
        ("chernoff: {epsilon: x, cvr: 0.05}", "chernoff.epsilon"),
        ("chernoff: {epsilon: -1.0, cvr: 0.05}", "chernoff.epsilon must be positive"),
        ("chernoff: {epsilon: 0.1, cvr: 0}", "chernoff.cvr must lie in (0, 1]"),
        ("chernoff: {epsilon: 0.1, cvr: 1.5}", "chernoff.cvr must lie in (0, 1]"),
        ("mechanisms: [{kind: DFP, controller: dept}]", "unknown DFP controller 'dept'"),
        ("mechanisms: CFP", "mechanisms"),
        ("mechanisms: [{kind: CFP, ranking: expected_spend}]", "'ranking' in mechanisms[0]"),
        ("market: {num_bidders: 2, num_slots: 1, seed: 0}", "market.stage_plan"),
    ],
)
def test_load_config_rejects_bad_values(tmp_path, snippet, needle):
    body = "market:\n  num_bidders: 2\n  num_slots: 1\n  stage_plan: [5]\n  seed: 0\n"
    if snippet.startswith("market:"):
        body = ""
    if not snippet.startswith("mechanisms:"):
        body += "mechanisms:\n  - kind: CFP\n"
    if not snippet.startswith("seeds:"):
        body += "seeds: [0]\n"
    path = tmp_path / "c.yaml"
    path.write_text(body + snippet + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "snippet,needle",
    [
        ("chernoff: {epsilon: 1.0e-320, cvr: 0.05}", "chernoff.epsilon is too small"),
        ("chernoff: {epsilon: 0.5, cvr: 1.0e-320}", "chernoff.cvr is too small"),
        ("chernoff: {epsilon: 1.0, cvr: 0.05}", "chernoff.epsilon must be below 1"),
        ("chernoff: {epsilon: 18446744073709551616, cvr: 0.5}", "chernoff.epsilon must be below 1"),
        ("seeds: [0, -1]", "seeds[1] must be an unsigned 64-bit integer, got -1"),
        ("seeds: [18446744073709551616]", "seeds[0] must be an unsigned 64-bit integer"),
    ],
)
def test_load_config_refuses_what_would_fail_only_at_run_time(tmp_path, snippet, needle):
    body = "market:\n  num_bidders: 2\n  num_slots: 1\n  stage_plan: [5]\n  seed: 0\nmechanisms:\n  - kind: CFP\n"
    if not snippet.startswith("seeds:"):
        body += "seeds: [0]\n"
    path = tmp_path / "c.yaml"
    path.write_text(body + snippet + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert needle in str(err.value)


def test_load_config_takes_whole_floats_as_integers(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("""
market:
  num_bidders: 2
  num_slots: 1
  stage_plan: [5]
  seed: 0
mechanisms:
  - kind: CFP
seeds: [1.0, 2]
tau: 2.0
epsilon: 1e-3
rl: {hidden: [4.0], lr: 1, xi: null}
""")
    cfg = load_config(str(path))
    assert cfg.tau == 2 and isinstance(cfg.tau, int)
    assert cfg.seeds == (1, 2) and all(isinstance(s, int) for s in cfg.seeds)
    # PyYAML reads 1e-3 (no dot) as a string; it is taken as the number it spells.
    assert cfg.epsilon == 0.001
    assert cfg.rl.hidden == (4,) and cfg.rl.lr == 1.0 and cfg.rl.xi is None


EVERY_FIELD_YAML = """
market:
  num_bidders: 3
  num_slots: 2
  stage_plan: [5, 7]
  ctr_range: [0.4, 0.8]
  cvr_range: [0.1, 0.2]
  value_range: [2.0, 4.0]
  tcpa_range: [1.5, 3.5]
  seed: 9
mechanisms:
  - {kind: CFP, controller: null}
  - {kind: DFP, controller: oracle}
seeds: [3, 1]
agent: truthful
agent_params: {epsilon: 0.2, step: 0.05, patience: 2}
epsilon: 0.25
tau: 3
chernoff: {epsilon: 0.2, cvr: 0.1}
rl:
  gamma: 0.9
  lam: 0.8
  clip: 0.3
  zeta: 0.2
  xi: 0.5
  alphas: [2.0, 0.25, 0.02]
  lr: 0.001
  epochs: 2
  minibatch: 16
  updates: 3
  hidden: [8, 4]
  sigma_floor: 0.01
  adv_norm: false
"""

EVERY_FIELD_CONFIG = ExperimentConfig(
    market=MarketConfig(3, 2, (5, 7), (0.4, 0.8), (0.1, 0.2), (2.0, 4.0), (1.5, 3.5), 9),
    mechanisms=(MechanismConfig("CFP"), MechanismConfig("DFP", controller="oracle")),
    seeds=(3, 1),
    agent="truthful",
    agent_params=RiskAverseParams(epsilon=0.2, step=0.05, patience=2),
    epsilon=0.25,
    tau=3,
    chernoff=(0.2, 0.1),
    rl=RLConfig(0.9, 0.8, 0.3, 0.2, 0.5, (2.0, 0.25, 0.02), 0.001, 2, 16, 3, (8, 4), 0.01, False),
)


def _section(obj, path):
    """The part of a YAML tree (keys and indices) or of a config (attributes and indices) at path."""
    for key in path:
        obj = obj[key] if isinstance(obj, (dict, list, tuple)) else getattr(obj, key)
    return obj


@pytest.mark.parametrize(
    "path",
    [
        pytest.param((), id="ExperimentConfig"),
        pytest.param(("market",), id="MarketConfig"),
        pytest.param(("mechanisms", 1), id="MechanismConfig"),
        pytest.param(("agent_params",), id="RiskAverseParams"),
        pytest.param(("rl",), id="RLConfig"),
    ],
)
def test_load_config_reads_a_section_with_every_field_back_equal(tmp_path, path):
    config_path = tmp_path / "c.yaml"
    config_path.write_text(EVERY_FIELD_YAML)
    want = _section(EVERY_FIELD_CONFIG, path)
    assert set(_section(yaml.safe_load(EVERY_FIELD_YAML), path)) == {f.name for f in dataclasses.fields(want) if f.init}
    assert _section(load_config(str(config_path)), path) == want


@pytest.mark.parametrize(
    "name,digest",
    [
        ("desk.yaml", "677a28d7c92f68fa61ab773a35dab5bf45915c9ed992c7abe5055f40f17bfe24"),
        ("sparse.yaml", "d5c27f1cc4022287b2547d90db4523c036355b8d1f6f7efdffba46b571fe99ce"),
        ("toy_train.yaml", "9a91af88b48f42767cd97231bcba933b46bb7b7181711f642db1e9acfa09946b"),
    ],
)
def test_shipped_config_digests_are_pinned(name, digest):
    assert config_digest(load_config(os.path.join(REPO, "configs", name))) == digest


def test_load_config_structural_errors(tmp_path):
    with pytest.raises(MissingInputError):
        load_config(str(tmp_path / "absent.yaml"))
    path = tmp_path / "c.yaml"
    path.write_text("mechanisms: [{kind: CFP}]\nseeds: [0]\n")
    with pytest.raises(ConfigError):
        load_config(str(path))  # no market section
    path.write_text("market: {num_bidders: 2, num_slots: 1, seed: 0}\nmechanisms: [{kind: CFP}]\nseeds: [0]\n")
    with pytest.raises(ConfigError):
        load_config(str(path))  # no stage plan
    path.write_text(": not yaml : [\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(
        "market: {num_bidders: 2, num_slots: 1, stage_plan: [5], seed: 0}\n"
        "mechanisms: [{controller: debt}]\nseeds: [0]\n"
    )
    with pytest.raises(ConfigError):
        load_config(str(path))  # mechanism without kind
    path.write_text(
        "market: {num_bidders: 2, num_slots: 1, stage_plan: [5], seed: 0}\n"
        "mechanisms: [{kind: CFP}]\nseeds: [0]\nchernoff: {epsilon: 0.1}\n"
    )
    with pytest.raises(ConfigError):
        load_config(str(path))  # chernoff missing cvr
    path.write_text(
        "market: {num_bidders: 2, num_slots: 1, stage_plan: [5], seed: 0}\n"
        "mechanisms: [{kind: CFP}]\nseeds: [0]\nseeds: [1, 2]\n"
    )
    with pytest.raises(ConfigError, match="'seeds' is listed twice"):
        load_config(str(path))  # a repeated key is refused, not read as its last value
    path.write_text(
        "market: {num_bidders: 2, num_slots: 1, stage_plan: [5], seed: 0, seed: 1}\n"
        "mechanisms: [{kind: CFP}]\nseeds: [0]\n"
    )
    with pytest.raises(ConfigError, match="'seed' is listed twice"):
        load_config(str(path))  # also inside a section


def _key_paths(node, path=()):
    """Every key path below node: each mapping key and list index, the
    paths to nested mappings and lists included, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _substituted(node, path, value):
    """node with the entry at path replaced by value; the containers along
    path are copied, so node itself is left as it was."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _substituted(node[path[0]], path[1:], value)
    return copy


_HOSTILE_VALUES = (None, -1, float("nan"), "x", [], {"a": 1}, True, 2**64, 0.5, 1e-320)
# Ten more for load_config alone: through cli.main, values such as
# rl.epochs = 10**7 set run time, which the cli sweep below has no cap for.
_LOAD_ONLY_HOSTILE_VALUES = (0, 1e308, -1e308, float("inf"), "1e3", [1], {}, 2**63, 10**7, -0.0)


@pytest.mark.parametrize("name,num_paths", [("desk.yaml", 48), ("sparse.yaml", 31), ("toy_train.yaml", 31)])
def test_load_config_refuses_a_hostile_value_at_any_key_path_as_a_config_error(tmp_path, name, num_paths):
    # Each key path of a shipped config, each hostile value in turn: the
    # file either loads or is a ConfigError, never another exception.
    shipped = yaml.safe_load(Path(REPO, "configs", name).read_text())
    paths = list(_key_paths(shipped))
    assert len(paths) == num_paths
    path = tmp_path / name
    others, loaded = [], 0
    for key_path in paths:
        for value in _HOSTILE_VALUES + _LOAD_ONLY_HOSTILE_VALUES:
            path.write_text(yaml.safe_dump(_substituted(shipped, key_path, value)))
            try:
                load_config(str(path))
                loaded += 1
            except ConfigError:
                pass
            except Exception as exc:  # any other kind is what the test reports
                others.append(f"{'.'.join(map(str, key_path))} = {value!r}: {type(exc).__name__}: {exc}")
    assert not others, "\n".join(others)
    # The values that load, such as 2**63 at a seed or 1e308 at a range's upper bound.
    assert loaded == {"desk.yaml": 63, "sparse.yaml": 42, "toy_train.yaml": 42}[name]


def test_config_dataclasses_read_a_hostile_value_as_load_config_reads_it(tmp_path):
    # The Python half of the sweep above: each hostile value at each settable
    # scalar field of desk's four config dataclasses, set by dataclasses.replace,
    # is a ConfigError or builds the config that load_config reads with the same
    # value at that key. YAML is loaded only for the values that build.
    shipped = yaml.safe_load(Path(REPO, "configs", "desk.yaml").read_text())
    desk = load_config(os.path.join(REPO, "configs", "desk.yaml"))
    nested = ("market", "mechanisms", "agent_params", "rl")
    path = tmp_path / "c.yaml"
    bad, cases = [], 0
    for section in ((), ("market",), ("agent_params",), ("rl",)):
        obj = _section(desk, section)
        for name in [f.name for f in dataclasses.fields(obj) if f.init and f.name not in nested]:
            for value in _HOSTILE_VALUES + _LOAD_ONLY_HOSTILE_VALUES:
                cases += 1
                case = f"{'.'.join(section + (name,))} = {value!r}"
                try:
                    built = dataclasses.replace(obj, **{name: value})
                except ConfigError:
                    continue
                except Exception as exc:  # any other kind is what the test reports
                    bad.append(f"{case}: {type(exc).__name__}: {exc}")
                    continue
                doc = json.loads(json.dumps(shipped))
                node = doc
                for key in section:
                    node = node.setdefault(key, {})
                node[name] = value
                path.write_text(yaml.safe_dump(doc))
                try:
                    loaded = _section(load_config(str(path)), section)
                except ConfigError as exc:
                    loaded = exc
                if loaded != built:
                    bad.append(f"{case}: builds {built!r:.200}, load_config gives {loaded!r:.200}")
    assert cases == 580
    assert not bad, "\n".join(bad)


# Runs cli.main on each argv list of the JSON list on stdin under a 3 GiB
# address-space limit, and prints per case its exit code, the number of its
# stderr lines that start with ERROR, and its last stderr line.
_SWEEP_CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2 ** 30, 3 * 2 ** 30))
from auctionlab.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().strip().splitlines() or [""]
    results.append([code, sum(line.startswith("ERROR") for line in lines), lines[-1]])
print(json.dumps(results))
"""


def _shrunk(doc, mutated, shipped, train):
    """doc cut to 3 bidders, 3 stages of 20 rounds and the shipped config's first
    seed (and one update to train), leaving alone any key on the mutated key's path."""
    cuts = {("market", "num_bidders"): 3, ("market", "stage_plan"): {"stages": 3, "rounds_per_stage": 20},
            ("seeds",): shipped["seeds"][:1]}
    for key, value in cuts.items():
        n = min(len(key), len(mutated))
        if key[:n] != mutated[:n]:
            doc = _substituted(doc, key, value)
    return {**doc, "rl": {"updates": 1}} if train else doc


def test_cli_runs_or_refuses_a_hostile_value_at_any_key_path_with_one_error_line(tmp_path):
    # The cli.main half of the sweep above: each case, shrunk, runs (run for
    # desk and sparse, train for toy_train) under the suite's warnings-as-errors
    # and ends in exit 0 or one last ERROR line whose kind is the package's own.
    argvs, names = [], []
    for name in ("desk.yaml", "sparse.yaml", "toy_train.yaml"):
        shipped = yaml.safe_load(Path(REPO, "configs", name).read_text())
        train = name == "toy_train.yaml"
        assert "rl" not in shipped
        for key_path in _key_paths(shipped):
            for value in _HOSTILE_VALUES:
                doc = _shrunk(_substituted(shipped, key_path, value), key_path, shipped, train)
                path = tmp_path / f"{len(argvs)}.yaml"
                path.write_text(yaml.safe_dump(doc))
                out = tmp_path / f"out{len(argvs)}"
                argvs.append(["train" if train else "run", "--config", str(path), "--out", str(out)])
                names.append(f"{name} {'.'.join(map(str, key_path))} = {value!r}")
    assert len(argvs) == 1100
    kinds = {AuctionLabError.__name__} | {kind.__name__ for kind in AuctionLabError.__subclasses__()}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::UserWarning", "-c", _SWEEP_CHILD],
        input=json.dumps(argvs), capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        timeout=300,
    )
    print(f"{len(argvs)} cases through cli.main in {time.perf_counter() - start:.1f} s")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    bad = [
        f"{case}: exit {code}, {errors} ERROR lines, last {last!r:.160}"
        for case, (code, errors, last) in zip(names, results)
        if code != 0 and not (errors == 1 and last.startswith("ERROR ") and last[6:].split(":")[0] in kinds)
    ]
    assert not bad, "\n".join(bad)
    assert sum(code == 0 for code, _, _ in results) == 46


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        _tiny_config(mechanisms=())
    with pytest.raises(ConfigError):
        _tiny_config(seeds=())
    with pytest.raises(ConfigError):
        _tiny_config(mechanisms=(MechanismConfig("CFP"), MechanismConfig("CFP")))
    with pytest.raises(ConfigError):
        _tiny_config(agent="hostile")
    with pytest.raises(ConfigError):
        _tiny_config(epsilon=0.0)
    with pytest.raises(ConfigError):
        _tiny_config(tau=0)
    with pytest.raises(ConfigError):
        _tiny_config(chernoff=(0.1,))
    with pytest.raises(ConfigError, match=r"^seeds\[0\] must be an integer, got 2\.5$"):
        _tiny_config(seeds=(2.5,))
    with pytest.raises(ConfigError, match=r"^tau must be an integer, got 1\.5$"):
        _tiny_config(tau=1.5)
    assert _tiny_config(seeds=(np.int64(0), np.uint64(1)), tau=np.int64(2)) == _tiny_config()


def test_run_experiment_artifact_tree(tmp_path):
    config = _tiny_config()
    out = run_experiment(config, str(tmp_path / "run"))
    assert len(out["run_dirs"]) == 4  # 2 mechanisms x 2 seeds
    for run_dir in out["run_dirs"]:
        for name in (
            "rounds.csv",
            "summary.csv",
            "ratios.csv",
            "checkpoint_ratios.csv",
            "fluctuation.csv",
            "etic.csv",
            "drift.csv",
        ):
            assert os.path.exists(os.path.join(run_dir, name))
    top = tmp_path / "run"
    assert (top / "summary.csv").exists()
    assert (top / "cfp_tau.csv").exists()
    assert (top / "chernoff.csv").exists()
    manifest = json.loads((top / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_digest(config)
    assert manifest["mechanisms"] == ["CFP", "DFP:debt"]
    assert manifest["seeds"] == [0, 1]
    assert "numpy" in manifest["versions"]
    labels = {row[0] for row in out["summary_rows"]}
    assert labels == {"CFP", "DFP:debt"}
    metrics = {row[1] for row in out["summary_rows"] if row[0] == "CFP"}
    assert metrics == {"stage_ratio", "checkpoint_ratio", "fluctuation_var", "etic_rate", "bid_drift"}


def test_run_experiment_generates_each_market_once(tmp_path, monkeypatch):
    import auctionlab.experiments as experiments

    generated = []
    real = experiments.generate_market

    def counting(market_config):
        generated.append(market_config.seed)
        return real(market_config)

    monkeypatch.setattr(experiments, "generate_market", counting)
    config = _tiny_config(seeds=(3, 1, 2))
    out = run_experiment(config, str(tmp_path))
    assert generated == [3, 1, 2]
    # Mechanism-major, seeds in config order within each mechanism.
    assert out["run_dirs"] == [
        os.path.join(str(tmp_path), label, f"seed_{seed}")
        for label in ("CFP", "DFP_debt")
        for seed in (3, 1, 2)
    ]


def test_rerun_is_byte_identical_outside_manifest(tmp_path):
    config = _tiny_config()
    run_experiment(config, str(tmp_path / "a"))
    run_experiment(config, str(tmp_path / "b"))
    for root, _, files in os.walk(tmp_path / "a"):
        for name in files:
            if name == "manifest.json":
                continue
            first = os.path.join(root, name)
            second = first.replace(str(tmp_path / "a"), str(tmp_path / "b"), 1)
            assert Path(first).read_bytes() == Path(second).read_bytes(), name


def test_rl_mechanism_requires_checkpoint(tmp_path):
    config = _tiny_config(mechanisms=(MechanismConfig("DFP", controller="rl"),))
    with pytest.raises(ConfigError):
        run_experiment(config, str(tmp_path / "run"))


def test_rl_run_builds_its_payer_from_the_policy_alone(tmp_path, monkeypatch):
    import auctionlab.experiments as experiments
    from auctionlab.nets import MLP
    from auctionlab.ppo import FEATURE_DIM, GaussianPolicy, RLPaymentController, save_checkpoint

    rng = np.random.Generator(np.random.Philox(key=[0, 11]))
    ckpt = str(tmp_path / "policy.ckpt")
    save_checkpoint(GaussianPolicy(MLP(FEATURE_DIM, (4,), 2, rng)), MLP(FEATURE_DIM, (4,), 1, rng), ckpt)
    built = []

    class Recording(RLPaymentController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self, args, kwargs))

    monkeypatch.setattr(experiments, "RLPaymentController", Recording)
    config = _tiny_config(mechanisms=(MechanismConfig("DFP", controller="rl"),), seeds=(0,))
    run_experiment(config, str(tmp_path / "run"), rl_checkpoint=ckpt)
    assert len(built) == 1
    payer, args, kwargs = built[0]
    assert isinstance(args[0], GaussianPolicy) and not hasattr(payer, "critic")
    assert not any(isinstance(a, MLP) for a in (*args, *kwargs.values()))


def test_config_digest_tracks_content():
    a = _tiny_config()
    b = _tiny_config()
    assert config_digest(a) == config_digest(b)
    c = _tiny_config(seeds=(0, 2))
    assert config_digest(c) != config_digest(a)


def test_run_metrics_on_known_mechanisms():
    config = _tiny_config()
    market = generate_market(config.market)
    agents = [TruthfulAgent() for _ in range(market.num_bidders)]
    cpa = run_auction(market, MechanismConfig("CPA_OFFLINE"), agents)
    assert checkpoint_abs_error(cpa) <= 1e-12
    pacing = run_auction(market, MechanismConfig("PACING_OFFLINE"), agents)
    assert payment_smoothness(pacing) == 0.0


def test_run_metrics_are_nan_with_nothing_to_average():
    # One round with a sure click and a conversion rate of 1e-9: no bidder
    # reaches a checkpoint ratio or has two positive payments.
    market = generate_market(MarketConfig(num_bidders=1, num_slots=1, stage_plan=(1,),
                                          ctr_range=(1.0, 1.0), cvr_range=(1e-9, 1e-9), seed=0))
    result = run_auction(market, MechanismConfig("CFP"), [TruthfulAgent()])
    assert result.rounds.click.sum() == 1 and result.stage_conversions.sum() == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nan by the metrics' own rule, not from averaging nothing
        assert np.isnan(checkpoint_abs_error(result))
        assert np.isnan(payment_smoothness(result))


def test_evaluate_debt_controller_reports_finite_metrics():
    config = _tiny_config()
    out = evaluate_debt_controller(config.market, (0, 1))
    assert set(out) == {"ratio_err", "smoothness"}
    assert np.isfinite(out["ratio_err"])
    assert out["ratio_err"] >= 0.0
