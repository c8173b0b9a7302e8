"""The job process: runs one workload's CLI jobs in a loop and writes the
measurements as JSON.

    python3 perfbench/job.py SPEC_JSON RESULT_JSON

The parent (``run.py``) starts it with the BLAS and OpenMP thread variables
set to 1 and ``src`` on PYTHONPATH, after writing the inputs and the
reference outputs into the spec.  One warm-up job runs first; then jobs run
back to back until the spec's seconds have passed.  In traced mode traced
and untraced jobs alternate, so both see the same machine.  A pace probe
(``pace.py``) runs before every job and once after the last, and each job's
time is also reported in paced seconds.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import multifair.cli
import multifair.detection
import multifair.experiment
import multifair.model
import pace
import spans
import workloads

MIN_JOBS = 3
MODULES = {m.__name__: m for m in (multifair.cli, multifair.detection, multifair.experiment, multifair.model)}


def speed_probe() -> dict:
    """Fixed numpy and pure-Python calibration work, timed; for judging
    whether the machine ran at the same speed before and after a run.  The
    paced metrics use ``pace.probe`` around each job instead."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    start = time.perf_counter()
    for _ in range(50):
        a = np.tanh(a @ a.T / 200.0)
    np.sort(rng.standard_normal(500_000))
    numpy_s = time.perf_counter() - start
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    python_s = time.perf_counter() - start
    return {"numpy_s": numpy_s, "python_s": python_s}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run_job(spec: dict, tracer: spans.Tracer | None):
    """One CLI job.  Returns (wall seconds, failure reason or None, output
    digest or None, recorder or None, pace probe seconds just before it)."""
    for path in spec["outputs"]:
        Path(path).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    recorder = None
    gc.collect()  # start every job from a collected heap
    pace_before = pace.probe()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = multifair.cli.main(spec["argv"])
            else:
                with tracer as recorder:
                    code = recorder.call("cli", multifair.cli.main, spec["argv"])
    except (Exception, SystemExit) as exc:  # argparse exits with SystemExit
        code = repr(exc)
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit {code}: {stderr.getvalue().strip()[-300:]}", None, recorder, pace_before
    try:
        got = workloads.read_outputs(spec["workload"], spec["outputs"])
        digest = workloads.output_digest(stdout.getvalue(), spec["outputs"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return elapsed, f"unreadable output: {exc!r}", None, recorder, pace_before
    return elapsed, workloads.check(spec["workload"], got, spec["reference"]), digest, recorder, pace_before


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = spans.Tracer(MODULES) if spec["trace"] else None
    probe_before = speed_probe()

    _, warm_failure, first_digest, _, _ = run_job(spec, None)
    timed = []  # (traced, wall seconds, job index) per job that passed
    probes = []  # the probe before every timed job, then one after the last
    failures, layer_jobs, trace_lines = [], [], []
    jobs = 0
    start = time.perf_counter()
    while time.perf_counter() - start < spec["seconds"] or jobs < MIN_JOBS:
        traced = tracer is not None and jobs % 2 == 1
        elapsed, failure, digest, recorder, pace_before = run_job(spec, tracer if traced else None)
        probes.append(pace_before)
        if failure is None and digest != first_digest:
            failure = "output bytes differ from the warm-up job's"
        jobs += 1
        if failure is not None:
            failures.append(failure)
            continue
        timed.append((traced, elapsed, jobs - 1))
        if traced:
            layer_jobs.append(spans.job_metrics(recorder))
            trace_lines.extend(
                json.dumps({"job": jobs, "id": s.id, "parent": s.parent, "name": s.name,
                            "start_ns": s.start_ns, "end_ns": s.end_ns, **s.attrs})
                for s in recorder.spans
            )
    timed_s = time.perf_counter() - start
    gc.collect()
    probes.append(pace.probe())

    times = {"untraced": [], "traced": []}
    paced = {"untraced": [], "traced": []}
    for traced, elapsed, i in timed:
        kind = "traced" if traced else "untraced"
        times[kind].append(elapsed)
        paced[kind].append(pace.paced(elapsed, probes[i], probes[i + 1]))
    result = {
        "attempted": jobs,
        "failures": failures,
        "warm_up_failure": warm_failure,
        "timed_s": timed_s,
        "job_s": times,
        "job_paced_s": paced,
        "pace_probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_sha256": first_digest,
        "probe_before": probe_before,
        "probe_after": speed_probe(),
        "environment": environment(),
    }
    if tracer is not None:
        layers = {}
        if layer_jobs and times["untraced"]:
            layers = spans.median_metrics(layer_jobs)
            layers["trace.overhead_s"] = (
                statistics.median(paced["traced"]) - statistics.median(paced["untraced"])
            )
        result["per_layer"] = layers
        Path(spec["trace_path"]).write_text("".join(line + "\n" for line in trace_lines), encoding="utf-8")
    Path(result_path).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
