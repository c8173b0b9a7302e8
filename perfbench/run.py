"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload census_m3fair --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The run writes the workload's inputs
under ``perfbench/.work/``, computes the reference outputs, starts the job
process (``job.py``) and, untraced, times a fresh interpreter importing
``multifair.cli``.  It prints a readable summary, then as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  Times in the end-to-end metrics are in
paced seconds: wall seconds rescaled by a probe of the machine's pace taken
around each sample (``pace.py``).  ``--workload all`` runs every
workload in turn.  The full record of each run, with the machine-speed probe
and the environment, goes to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

# Single-threaded BLAS and OpenMP in this process and every child, before
# numpy is first imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_times() -> tuple[list[float], list[float]]:
    """Wall and paced times of fresh interpreters importing multifair.cli,
    which every CLI call pays."""
    wall, paced = [], []
    probe_before = pace.probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import multifair.cli"], env=child_env(),
                       check=True, timeout=60)
        wall.append(time.perf_counter() - start)
        probe_after = pace.probe()
        paced.append(pace.paced(wall[-1], probe_before, probe_after))
        probe_before = probe_after
    return wall, paced


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: Path,
                 rows: int | None = None) -> dict:
    """One run: inputs, reference, job process, set-up time.  Returns the
    full record; ``record["summary"]`` is the contract's result object."""
    import reference
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.prepare(name, seed, work, rows)
    reference.reference_run(spec["argv"])
    spec.update(
        reference=workloads.read_outputs(name, spec["outputs"]),
        seconds=seconds,
        trace=trace,
        trace_path=str(work / "trace.jsonl"),
    )
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "job.py"), str(spec_path), str(result_path)],
                   env=child_env(), check=True, timeout=seconds + 120)
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record.update(workload=name, seed=seed, seconds=seconds, trace=trace, rows=spec["rows"])

    attempted, failed = record["attempted"], len(record["failures"])
    passed = attempted - failed
    if trace:
        metrics = record["per_layer"]
    else:
        record["setup_wall_s"], record["setup_s"] = setup_times()
        untraced = record["job_paced_s"]["untraced"]
        metrics = {
            "job_p50_s": statistics.median(untraced) if untraced else record["timed_s"] / attempted,
            "rows_per_s": spec["rows"] * passed / (sum(untraced) or record["timed_s"]),
            "setup_s": statistics.median(record["setup_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "ops_ok_share": passed / attempted,
        }
    record["summary"] = {
        "correct": failed == 0 and record["warm_up_failure"] is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record


def declared_metrics(trace: bool) -> dict[str, dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in declared["per_layer" if trace else "end_to_end"]}


def print_summary(record: dict, declared: dict) -> None:
    summary = record["summary"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"{summary['attempted']} jobs, {summary['failed']} failed  "
          f"(ops_failed_share {summary['failed'] / summary['attempted']:.4g})")
    samples = {"job_p50_s": len(record["job_s"]["untraced"]), "setup_s": len(record.get("setup_s", ()))}
    for name, meta in declared.items():
        value = summary["metrics"].get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        note = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:40s} {shown:>12s} {meta['unit']:8s} {meta['better']} is better{note}")
    for failure in record["failures"][:5]:
        print(f"  failed: {failure}")
    if record["warm_up_failure"]:
        print(f"  warm-up failed: {record['warm_up_failure']}")
    before, after = record["probe_before"], record["probe_after"]
    env = record["environment"]
    wall = record["job_s"]["untraced"]
    if wall:
        setup = f"  setup {statistics.median(record['setup_wall_s']):.4g} s" if "setup_wall_s" in record else ""
        print(f"  wall time, unpaced: job p50 {statistics.median(wall):.4g} s{setup}  "
              f"pace probe p50 {statistics.median(record['pace_probe_s']):.4g} s "
              f"(reference {pace.REFERENCE_S} s)")
    print(f"  output sha256 {record['output_sha256']}")
    print(f"  probe numpy {before['numpy_s']:.3f}->{after['numpy_s']:.3f} s  "
          f"python {before['python_s']:.3f}->{after['python_s']:.3f} s")
    print(f"  python {env['python']} numpy {env['numpy']} scipy {env['scipy']} {env['blas']} "
          f"nproc {env['nproc']} threads {env['threads']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multifair" / "cli.py").is_file():
        print(f"error: {ROOT} is not a multifair checkout (no src/multifair/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.seed < 0 or args.seconds < 1 or any(n not in workloads.WORKLOADS for n in names):
        parser.error("need a known workload (or 'all'), --seed >= 0 and --seconds >= 1")
    declared = declared_metrics(bool(args.trace))
    results_dir = HERE / ".work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), HERE / ".work" / name)
        missing = set(declared) - set(record["summary"]["metrics"])
        if missing and record["summary"]["correct"]:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
        out = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print_summary(record, declared)
        records.append(record)

    final = {
        "correct": all(r["summary"]["correct"] for r in records),
        "attempted": sum(r["summary"]["attempted"] for r in records),
        "failed": sum(r["summary"]["failed"] for r in records),
        "metrics": {
            (name if len(records) == 1 else f"{r['workload']}.{name}"):
                {"value": value, "unit": declared[name]["unit"]}
            for r in records for name, value in r["summary"]["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
