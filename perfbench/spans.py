"""Layer tracing for the benchmark's traced mode.

Each wrap point replaces a layer's public function in the namespace its
caller looks it up in (``experiment`` binds ``fit`` at import time, so the
wrap goes on ``multifair.experiment.fit``).  A wrapper records a span with a
parent; spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name).  The per-layer metrics are named after the
# span names.  A point whose attribute is gone is skipped, and its metrics
# read 0.
WRAP_POINTS = (
    ("multifair.cli", "run_experiment", "experiment"),
    ("multifair.cli", "run_detection", "experiment"),
    ("multifair.cli", "grid_search", "experiment.grid"),
    ("multifair.cli", "emit_grid", "experiment.report"),
    ("multifair.cli", "format_grid_table", "experiment.report"),
    ("multifair.cli", "format_report_table", "experiment.report"),
    ("multifair.experiment", "run_experiment", "experiment"),
    ("multifair.experiment", "emit_report", "experiment.report"),
    ("multifair.experiment", "emit_detection", "experiment.report"),
    ("multifair.experiment", "format_report_table", "experiment.report"),
    ("multifair.experiment", "load_csv", "data.load_csv"),
    ("multifair.experiment", "split", "data.split"),
    ("multifair.experiment", "binarize_by_threshold", "data.binarize"),
    ("multifair.experiment", "set_privileged", "data.binarize"),
    ("multifair.experiment", "m3fair", "reweighting"),
    ("multifair.experiment", "reweight_single_attribute", "reweighting"),
    ("multifair.experiment", "reweight_sequential", "reweighting"),
    ("multifair.experiment", "fit", "model.fit"),
    ("multifair.experiment", "predict_scores", "model.predict"),
    ("multifair.experiment", "evaluate_fairness", "metrics"),
    ("multifair.experiment", "auroc", "metrics"),
    ("multifair.experiment", "detect", "detection"),
    ("multifair.detection", "binarize_by_mean", "data.binarize"),
    ("multifair.detection", "set_privileged", "data.binarize"),
    ("multifair.detection", "disparate_impact", "metrics"),
    ("multifair.detection", "statistical_parity_difference", "metrics"),
    ("multifair.detection", "average_odds_difference", "metrics"),
    ("multifair.detection", "equal_opportunity_difference", "metrics"),
)
# Counted, not spanned: one call per loss/gradient evaluation inside the fit.
LOSS_EVAL_POINT = ("multifair.model", "weighted_loss_and_gradient")

# The job's root span is "cli", opened by the job runner around main().
SELF_TIME_LAYERS = ("cli",) + tuple(dict.fromkeys(name for _, _, name in WRAP_POINTS))


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0, span.start_ns
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start_ns):
            start, end = max(child.start_ns, reach), min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.end_ns - span.start_ns - covered
    return result


class Recorder:
    """Spans and counters of one job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.loss_evals = 0
        self._open: list[int] = []
        self._ids = itertools.count()

    def call(self, name, fn, *args, **kwargs):
        span = Span(next(self._ids), self._open[-1] if self._open else None, name, 0)
        self.spans.append(span)
        self._open.append(span.id)
        span.start_ns = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()
        _annotate(span, args, result)
        return result


def _annotate(span: Span, args, result) -> None:
    if span.name == "model.fit":
        span.attrs = {"rows": args[0].n_rows, "n_iter": result.n_iter, "converged": bool(result.converged)}
    elif span.name == "detection":
        span.attrs = {"columns": len(result.per_metric_rankings["di"]) + len(result.skipped)}
    elif span.name == "experiment.grid":
        levels = [p.level_weights for p in result.points]
        span.attrs = {"points": len(levels), "distinct_partitions": distinct_partitions(levels)}


def distinct_partitions(level_weight_maps) -> int:
    """Number of distinct partitions of the unprivileged-attribute patterns
    that the level-weight maps induce.  m3fair's weights depend only on
    which patterns share a level (the fibers), not on the level values, so
    each partition is labelled by first appearance."""
    signatures = set()
    for levels in level_weight_maps:
        weights = np.array(list(levels.values()))
        patterns = np.array(list(itertools.product((0, 1), repeat=len(weights))))
        labels: dict[int, int] = {}
        signatures.add(tuple(labels.setdefault(level, len(labels)) for level in (patterns @ weights).tolist()))
    return len(signatures)


class Tracer:
    """Installs the wrap points around one job and removes them after."""

    def __init__(self, modules):
        self._targets = [
            (modules[module], attr, name) for module, attr, name in WRAP_POINTS
            if hasattr(modules[module], attr)
        ]
        module, attr = LOSS_EVAL_POINT
        self._loss = (modules[module], attr) if hasattr(modules[module], attr) else None

    def __enter__(self) -> Recorder:
        recorder = Recorder()
        self._saved = []
        for module, attr, name in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrapper(recorder, name, original))
        if self._loss is not None:
            module, attr = self._loss
            original = getattr(module, attr)
            self._saved.append((module, attr, original))

            def counted(*args, **kwargs):
                recorder.loss_evals += 1
                return original(*args, **kwargs)

            setattr(module, attr, counted)
        return recorder

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)


def _wrapper(recorder: Recorder, name: str, fn):
    def wrapped(*args, **kwargs):
        return recorder.call(name, fn, *args, **kwargs)
    return wrapped


def job_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced job."""
    spans = recorder.spans
    own = self_times(spans)
    seconds = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    calls = {layer: 0 for layer in SELF_TIME_LAYERS}
    for span in spans:
        seconds[span.name] += own[span.id] / 1e9
        calls[span.name] += 1
    fits = [s for s in spans if s.name == "model.fit"]
    iters = sum(s.attrs["n_iter"] for s in fits)
    grids = [s for s in spans if s.name == "experiment.grid"]
    points = sum(s.attrs["points"] for s in grids)
    distinct = sum(s.attrs["distinct_partitions"] for s in grids)
    sweep_fits = sum(_sweep_fits(spans, grid) for grid in grids)
    return {
        "data.load_csv.s": seconds["data.load_csv"],
        "data.load_csv.calls": calls["data.load_csv"],
        "data.split.s": seconds["data.split"],
        "data.binarize.s": seconds["data.binarize"],
        "data.binarize.calls": calls["data.binarize"],
        "model.fit.s": seconds["model.fit"],
        "model.fit.calls": len(fits),
        "model.fit.iters": iters,
        "model.loss_evals": recorder.loss_evals,
        "model.step_accept_ratio": iters / recorder.loss_evals if recorder.loss_evals else 0.0,
        "model.fit.converged_share": (
            sum(s.attrs["converged"] for s in fits) / len(fits) if fits else 0.0
        ),
        "model.predict.s": seconds["model.predict"],
        "reweighting.s": seconds["reweighting"],
        "reweighting.calls": calls["reweighting"],
        "metrics.s": seconds["metrics"],
        "metrics.calls": calls["metrics"],
        "detection.s": seconds["detection"],
        "detection.columns": sum(s.attrs["columns"] for s in spans if s.name == "detection"),
        "experiment.s": seconds["experiment"] + seconds["experiment.grid"],
        "experiment.report.s": seconds["experiment.report"],
        "experiment.grid.points": points,
        "experiment.grid.distinct_partitions": distinct,
        "experiment.grid.useful_fit_ratio": distinct / sweep_fits if sweep_fits else 0.0,
        "cli.s": seconds["cli"],
    }


def _sweep_fits(spans, grid: Span) -> int:
    """Fits under ``grid`` on the sub-training split, that is all but the
    winner's re-run, which trains on the larger full training split."""
    by_id = {s.id: s for s in spans}

    def under_grid(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.id == grid.id:
                return True
        return False

    rows = [s.attrs["rows"] for s in spans if s.name == "model.fit" and under_grid(s)]
    return sum(1 for r in rows if r < max(rows)) if rows else 0


def median_metrics(per_job: list[dict]) -> dict[str, float]:
    return {key: statistics.median(job[key] for job in per_job) for key in per_job[0]}
