"""End-to-end experiment: config in, CSV artifact tree out, byte-stable.

run_experiment crosses mechanisms with market seeds, writes one directory
per (mechanism, seed) run plus top-level roll-ups, and stamps the config
digest into the manifest. Running the same config twice gives the same
bytes everywhere except the manifest timestamp.
"""

import filecmp
import os
import tempfile

from auctionlab import ExperimentConfig, MarketConfig, MechanismConfig, config_digest, run_experiment

config = ExperimentConfig(
    market=MarketConfig(
        num_bidders=6,
        num_slots=3,
        stage_plan=(200,) * 4,
        cvr_range=(0.05, 0.15),
        tcpa_range=(2.0, 6.0),
    ),
    mechanisms=(
        MechanismConfig("CFP"),
        MechanismConfig("CPA_OFFLINE"),
        MechanismConfig("DFP", controller="debt"),
    ),
    seeds=(0, 1),
    agent="truthful",
    tau=2,
)
print("config digest:", config_digest(config)[:16], "...")

base = tempfile.mkdtemp()
out_a = os.path.join(base, "a")
summary = run_experiment(config, out_a)
print("\nartifact tree under", out_a)
for root, dirs, files in sorted(os.walk(out_a)):
    rel = os.path.relpath(root, out_a)
    indent = "" if rel == "." else "  "
    for name in sorted(files):
        print(f"{indent}{(rel + '/') if rel != '.' else ''}{name}")
    dirs.sort()

print("\npooled checkpoint_ratio rows (upper quartile, lower quartile, mean):")
for label, metric, upper, lower, mean in summary["summary_rows"]:
    if metric == "checkpoint_ratio":
        print(f"  {label:14s} {upper:8.4f} {lower:8.4f} {mean:8.4f}")

# determinism check: a second run of the same config matches byte for byte
out_b = os.path.join(base, "b")
run_experiment(config, out_b)
mismatched = []
for root, _, files in os.walk(out_a):
    for name in files:
        if not name.endswith(".csv"):
            continue  # manifest.json carries the only timestamp
        pa = os.path.join(root, name)
        pb = os.path.join(out_b, os.path.relpath(pa, out_a))
        if not filecmp.cmp(pa, pb, shallow=False):
            mismatched.append(os.path.relpath(pa, out_a))
print("\nrerun CSV mismatches:", mismatched or "none, all byte-identical")
