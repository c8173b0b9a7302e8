"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import job  # noqa: E402
import pace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_ROWS = {"census_m3fair": 3000, "synthetic_grid": 1000, "wide_detect": 600}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _checkout_root(monkeypatch):
    monkeypatch.setattr(run, "ROOT", ROOT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_traced_at_tiny_size(name, tmp_path):
    record = run.run_workload(name, seed=0, seconds=1, trace=True, work=tmp_path, rows=TINY_ROWS[name])
    summary = record["summary"]
    assert summary["correct"], record["failures"]
    assert summary["failed"] == 0 and summary["attempted"] >= job.MIN_JOBS
    assert set(summary["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert (tmp_path / "trace.jsonl").stat().st_size > 0


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    record = run.run_workload("wide_detect", seed=3, seconds=1, trace=False, work=tmp_path,
                              rows=TINY_ROWS["wide_detect"])
    metrics = record["summary"]["metrics"]
    assert record["summary"]["correct"], record["failures"]
    assert set(metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(value > 0 for value in metrics.values())
    assert metrics["ops_ok_share"] == 1.0
    assert len(record["setup_s"]) == len(record["setup_wall_s"]) == run.SETUP_REPEATS
    paced = record["job_paced_s"]["untraced"]
    assert metrics["job_p50_s"] == pytest.approx(statistics.median(paced))
    assert len(record["pace_probe_s"]) == record["summary"]["attempted"] + 1


def test_paced_time_divides_out_the_probes_around_it():
    ref = pace.REFERENCE_S
    assert pace.paced(1.5, ref, ref) == pytest.approx(1.5)
    assert pace.paced(1.5, 2 * ref, 2 * ref) == pytest.approx(0.75)  # a machine at half pace
    assert pace.paced(1.5, ref, 3 * ref) == pytest.approx(0.75)  # the mean of the two probes
    assert 0 < pace.probe() < 10


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        spans.Span(0, None, "cli", 0, 100),
        spans.Span(1, 0, "experiment", 10, 90),
        spans.Span(2, 1, "model.fit", 20, 50),
        spans.Span(3, 1, "metrics", 40, 60),  # overlaps its sibling for 10
        spans.Span(4, 1, "data.load_csv", 70, 80),
    ]
    assert spans.self_times(tree) == {0: 20, 1: 30, 2: 30, 3: 20, 4: 10}


def test_job_metrics_from_hand_built_spans():
    recorder = spans.Recorder()
    recorder.loss_evals = 40
    recorder.spans = [
        spans.Span(0, None, "cli", 0, 1_000_000_000),
        spans.Span(1, 0, "experiment.grid", 100_000_000, 900_000_000, {"points": 3, "distinct_partitions": 2}),
        spans.Span(2, 1, "model.fit", 200_000_000, 300_000_000, {"rows": 80, "n_iter": 10, "converged": True}),
        spans.Span(3, 1, "model.fit", 300_000_000, 400_000_000, {"rows": 80, "n_iter": 10, "converged": True}),
        spans.Span(4, 1, "model.fit", 400_000_000, 500_000_000, {"rows": 80, "n_iter": 500, "converged": False}),
        spans.Span(5, 1, "experiment", 500_000_000, 800_000_000),
        spans.Span(6, 5, "model.fit", 600_000_000, 700_000_000, {"rows": 100, "n_iter": 10, "converged": True}),
    ]
    metrics = spans.job_metrics(recorder)
    assert metrics["cli.s"] == pytest.approx(0.2)
    assert metrics["experiment.s"] == pytest.approx(0.2 + 0.2)
    assert metrics["model.fit.s"] == pytest.approx(0.4)
    assert metrics["model.fit.calls"] == 4
    assert metrics["model.fit.iters"] == 530
    assert metrics["model.step_accept_ratio"] == pytest.approx(530 / 40)
    assert metrics["model.fit.converged_share"] == pytest.approx(0.75)
    assert metrics["experiment.grid.useful_fit_ratio"] == pytest.approx(2 / 3)
    assert metrics["data.load_csv.s"] == 0.0


def test_tracer_restores_every_wrapped_function():
    originals = {(m, a): getattr(job.MODULES[m], a) for m, a, _ in spans.WRAP_POINTS}
    tracer = spans.Tracer(job.MODULES)
    with tracer:
        assert all(getattr(job.MODULES[m], a) is not f for (m, a), f in originals.items())
    assert all(getattr(job.MODULES[m], a) is f for (m, a), f in originals.items())


def test_distinct_partitions_count_fibers_not_level_values():
    grid = [dict(zip("ab", combo)) for combo in ((1, 1), (1, 2), (2, 1), (2, 2))]
    assert spans.distinct_partitions(grid) == 2  # {1,2}^2: coarse and injective


def test_report_with_a_nudged_metric_counts_as_failed(tmp_path):
    spec = workloads.prepare("census_m3fair", 0, tmp_path, rows=TINY_ROWS["census_m3fair"])
    reference.reference_run(spec["argv"])
    spec["reference"] = workloads.read_outputs("census_m3fair", spec["outputs"])
    assert job.run_job(spec, None)[1] is None
    for column in range(1, 1 + len(workloads.REPORT_METRICS)):
        nudged = copy.deepcopy(spec)
        nudged["reference"]["rows"][0][column] += 1e-3
        assert job.run_job(nudged, None)[1] is not None


def test_check_rejects_changed_grid_and_detection_outputs():
    grid = {"points": [["ok", 0.5], ["failed", None]], "winner": {"a": 1}, "rows": []}
    assert workloads.check("synthetic_grid", grid, grid) is None
    nudged = copy.deepcopy(grid)
    nudged["points"][0][1] += 1e-3
    assert workloads.check("synthetic_grid", nudged, grid) is not None
    assert workloads.check("synthetic_grid", dict(grid, winner={"a": 2}), grid) is not None
    found = {"intersection": ["noise_07", "planted"]}
    assert workloads.check("wide_detect", found, found) is None
    assert workloads.check("wide_detect", {"intersection": ["planted"]}, found) is not None
    assert workloads.check("wide_detect", {"intersection": ["noise_07"]}, {"intersection": ["noise_07"]})


@pytest.mark.parametrize("name, committed", [
    ("census_m3fair", "census_surrogate.csv"),
    ("synthetic_grid", "synthetic.csv"),
])
def test_seed_zero_regenerates_the_committed_csv(name, committed, tmp_path):
    path = ROOT / "data" / committed
    if not path.is_file():
        pytest.skip(f"{path} not present")
    workloads.prepare(name, 0, tmp_path)
    assert (tmp_path / "input.csv").read_bytes() == path.read_bytes()
