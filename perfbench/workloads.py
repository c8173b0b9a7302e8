"""The benchmark's workloads: seeded inputs, the CLI job, and its output check.

Each workload is one ``multifair`` CLI command on generated inputs.  The
check compares a job's outputs against a reference run of the same command
in which the model fit is an independent L-BFGS-B solve of the same
objective (see ``reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from multifair.data import save_csv
from multifair.synth import planted_bias_dataset, two_attribute_biased_dataset, write_census_like_csv

# Absolute tolerance on every report metric.  The reference and the program
# minimise the same convex objective, so a correct program differs from it
# only by optimizer round-off; a changed result moves a metric by at least
# one prediction flip, which is 1.5e-4 of ACC on the full census test split
# and more on every group metric.
METRIC_TOLERANCE = 1e-4
REPORT_METRICS = ("acc", "auroc", "auprc", "di", "spd", "aod", "eod")

# The census and grid jobs train on the seed-0 data, whatever the run seed:
# with the current gradient-descent optimizer the fit's cost is a chaotic
# function of the training rows (README, "Why two inputs are fixed"), so
# fresh rows per seed would measure the solver's luck, not the program.
FIXED_DATA_SEED = 0

GRID_ATTRIBUTES = ("attr_a", "attr_b", "proxy_a", "proxy_b")
GRID_CANDIDATES = (1, 2, 3)

# Workload name -> input data rows at full size.
WORKLOADS = {"census_m3fair": 32561, "synthetic_grid": 5000, "wide_detect": 4000}


def prepare(name: str, seed: int, work: Path, rows: int | None = None) -> dict:
    """Write the workload's input CSV and config under ``work``; return the
    job spec: the CLI argv, the files the job writes, and the input rows."""
    rows = rows or WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    csv_path = work / "input.csv"
    config_path = work / "config.json"
    if name == "census_m3fair":
        write_census_like_csv(csv_path, n_rows=rows, seed=FIXED_DATA_SEED)
        config = {
            "dataset": {"path": str(csv_path), "label_column": "income", "positive_label": ">50K"},
            "sensitive_attributes": ["sex=Male", "race=White"],
            "method": "m3fair",
            "level_weights": {"sex=Male": 1, "race=White": 2},
            "report_path": str(out / "report"),
        }
        argv = ["run", "--config", str(config_path)]
        outputs = [out / "report.json", out / "report.txt"]
    elif name == "synthetic_grid":
        dataset = two_attribute_biased_dataset(rows, seed=FIXED_DATA_SEED)
        save_csv(dataset, csv_path, label_column="outcome", positive_label="yes", negative_label="no")
        config = {
            "dataset": {"path": str(csv_path), "label_column": "outcome", "positive_label": "yes"},
            "sensitive_attributes": list(GRID_ATTRIBUTES),
            "method": "m3fair",
            "level_weights": {a: 1 for a in GRID_ATTRIBUTES},
            "grid": {"candidates": {a: list(GRID_CANDIDATES) for a in GRID_ATTRIBUTES}},
            "report_path": str(out / "winner"),
        }
        argv = ["grid", "--config", str(config_path), "--output", str(out / "grid")]
        outputs = [out / "grid.json", out / "grid.txt", out / "winner.json", out / "winner.txt"]
    elif name == "wide_detect":
        dataset = planted_bias_dataset(rows, n_noise=200, rate_gap=0.3, seed=seed)
        save_csv(dataset, csv_path)
        config = {
            "dataset": {"path": str(csv_path), "label_column": "label", "positive_label": "1"},
            "sensitive_attributes": ["planted"],
            "detection": {"top_n": 10},
        }
        argv = ["detect", "--config", str(config_path), "--output", str(out / "detect")]
        outputs = [out / "detect.json"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {
        "workload": name,
        "seed": seed,
        "rows": rows,
        "argv": argv,
        "outputs": [str(p) for p in outputs],
    }


def output_digest(stdout: str, outputs) -> str:
    """sha256 over the job's stdout and every file it wrote."""
    digest = hashlib.sha256(stdout.encode("utf-8"))
    for path in outputs:
        digest.update(Path(path).name.encode("utf-8"))
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def read_outputs(name: str, outputs) -> dict:
    """The parts of a job's JSON outputs that the check compares."""
    payloads = {Path(p).name: json.loads(Path(p).read_text(encoding="utf-8"))
                for p in outputs if p.endswith(".json")}
    if name == "census_m3fair":
        return {"rows": _metric_rows(payloads["report.json"])}
    if name == "synthetic_grid":
        grid = payloads["grid.json"]
        return {
            "points": [[p["status"], p["score"]] for p in grid["points"]],
            "winner": grid["winner_level_weights"],
            "rows": _metric_rows(payloads["winner.json"]),
        }
    return {"intersection": payloads["detect.json"]["intersection"]}


def _metric_rows(report: dict) -> list:
    return [[row["evaluated_attribute"]] + [row[m] for m in REPORT_METRICS] for row in report["rows"]]


def check(name: str, got: dict, reference: dict) -> str | None:
    """None when ``got`` matches the reference run, else the first mismatch."""
    if name == "wide_detect":
        if got["intersection"] != reference["intersection"]:
            return f"intersection {got['intersection']} != reference {reference['intersection']}"
        if "planted" not in got["intersection"]:
            return "planted column not detected"
        return None
    if name == "synthetic_grid":
        if got["winner"] != reference["winner"]:
            return f"grid winner {got['winner']} != reference {reference['winner']}"
        if len(got["points"]) != len(reference["points"]):
            return "grid point count differs from reference"
        for i, ((status, score), (ref_status, ref_score)) in enumerate(zip(got["points"], reference["points"])):
            if status != ref_status or not _close(score, ref_score):
                return f"grid point {i}: {status} {score} != reference {ref_status} {ref_score}"
    if len(got["rows"]) != len(reference["rows"]):
        return "report row count differs from reference"
    for row, ref_row in zip(got["rows"], reference["rows"]):
        if row[0] != ref_row[0]:
            return f"report row {row[0]!r} != reference {ref_row[0]!r}"
        for metric, value, ref_value in zip(REPORT_METRICS, row[1:], ref_row[1:]):
            if not _close(value, ref_value):
                return f"{row[0]} {metric} {value} != reference {ref_value}"
    return None


def _close(value, ref_value) -> bool:
    """Within METRIC_TOLERANCE; ``None`` (an undefined or infinite value in
    the JSON) matches only ``None``."""
    if value is None or ref_value is None:
        return value is ref_value
    return math.isclose(value, ref_value, rel_tol=0.0, abs_tol=METRIC_TOLERANCE)
