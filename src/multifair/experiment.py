"""Experiment orchestration: configs, the detect/reweight/fit/evaluate
pipeline, level-weight grid search, and report emission.

Reports follow the two-rows-per-condition table layout: every evaluated
attribute gets a row, the performance triple (ACC/AUROC/AUPRC) shared
across a condition's rows.  Structured output is JSON; the companion
``.txt`` file holds the aligned-column human table.  Nothing in a report
depends on wall-clock state, so identical configs produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SplitSpec,
    _above_train_means,
    _threshold_group,
    binarize_by_threshold,  # noqa: F401  not called: perfbench/spans.py still names it here, and its span reads 0
    load_csv,  # noqa: F401  not called: perfbench/spans.py still names it here, and its span reads 0
    load_csv_table,
    set_privileged,
    split,
)
from .detection import DetectionConfig, DetectionResult, detect
from .errors import (
    ConfigError,
    PipelineError,
    _parse,
    check_fields,
    check_unique,
    expect,
)
from .metrics import (
    PredictionSet, accuracy, auroc, evaluate_fairness, group_fairness, predictions_from, ranking_metrics,
    side_cells, unfairness,
)
from .model import TrainConfig, fit, predict_scores, stacked_predict_scores
from .reweighting import (
    LevelWeightConfig,
    SampleWeights,
    check_level_sum,
    distinct_ids,
    m3fair,
    reweight_sequential,
    reweight_single_attribute,
    save_weights_csv,
    stacked_cell_multipliers,
)

METHODS = ("none", "rw_single", "rw_sequential", "m3fair")

@dataclass(frozen=True)
class DatasetConfig:
    path: str
    label_column: str
    positive_label: str

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experimental condition.  Its fields, and those of its section
    dataclasses, are the JSON config's keys (see ``_parse``)."""

    dataset: DatasetConfig
    sensitive_attributes: tuple[str, ...]
    method: str = "none"
    split: SplitSpec = SplitSpec()
    attribute_order: tuple[str, ...] | None = None
    level_weights: dict[str, int] | None = None
    detection: DetectionConfig = DetectionConfig()
    train: TrainConfig = TrainConfig()
    report_path: str | None = None

    def __post_init__(self):
        check_fields(self)
        for key in ("sensitive_attributes", "attribute_order"):
            check_unique(getattr(self, key) or (), f"names in {key!r}")
        attrs = self.sensitive_attributes
        if not attrs:
            raise ConfigError("sensitive_attributes must not be empty")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        # Method-specific fields must be present exactly when required.
        for key, method in (("attribute_order", "rw_sequential"), ("level_weights", "m3fair")):
            names = getattr(self, key)
            if self.method == method and not names:
                raise ConfigError(f"{method} requires {key}")
            if self.method != method and names is not None:
                raise ConfigError(f"{key} is only valid for {method}, not {self.method!r}")
            unknown = set(names or ()) - set(attrs)
            if unknown:
                raise ConfigError(f"{key} names not in sensitive_attributes: {sorted(unknown)}")
        if self.method == "m3fair":
            LevelWeightConfig(self.level_weights)  # value validation
        if self.method == "rw_single" and len(attrs) != 1:
            raise ConfigError("rw_single requires exactly one sensitive attribute")

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        return _parse(cls, payload)

    def config_hash(self) -> str:
        """Hash of the experimental condition (the output location is not
        part of the experiment's identity)."""
        payload = self.to_dict()
        payload.pop("report_path", None)
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReportRow:
    """One (condition, evaluated attribute) line of the report table."""

    method: str
    sensitive_attributes: tuple[str, ...]
    evaluated_attribute: str
    acc: float
    auroc: float
    auprc: float
    di: float
    spd: float
    aod: float
    eod: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    seed: int
    config_hash: str
    converged: bool
    n_iter: int


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def _converged_or_warn(model, config: TrainConfig, level_weights: dict[str, int] | None = None):
    """``model``; when its fit did not converge, after a warning on stderr,
    which reports and stdout never carry.  A grid class's warning names the
    ``level_weights`` of its first point."""
    if not model.converged:
        fitted = "" if level_weights is None else f" for level weights {_levels_text(level_weights)}"
        print(
            f"warning [fit] did not converge{fitted}: n_iter {model.n_iter}, "
            f"max_iterations {config.max_iterations}, "
            f"gradient_tolerance {config.gradient_tolerance:g} per unit of weight mass",
            file=sys.stderr,
        )
    return model


def _fit_stage(train: Dataset, weights: SampleWeights, config: TrainConfig):
    """The fit stage, which warns when the fit did not converge."""
    return _converged_or_warn(_stage("fit", fit, train, weights, config), config)


def _binarize_on_train(train: Dataset, other: Dataset, names) -> tuple[dict, dict]:
    """Binarize each attribute with the training-split mean as threshold and
    the training-split base rates choosing the privileged side; the same
    threshold and side carry over to the other split."""
    thresholds, (train_above, other_above) = _above_train_means(train, names, other)
    train_groups, other_groups = {}, {}
    for name, threshold, on_train, on_other in zip(names, thresholds, train_above, other_above):
        group = train_groups[name] = set_privileged(_threshold_group(name, threshold, on_train), train)
        other_groups[name] = _threshold_group(name, threshold, on_other).with_privileged(group.privileged_value)
    return train_groups, other_groups


def _training_weights(config: ExperimentConfig, train: Dataset, groups: dict) -> SampleWeights:
    unit = SampleWeights.unit(train.n_rows)
    ordered = [groups[name] for name in _method_attributes(config)]
    if config.method == "none":
        return unit
    if config.method == "rw_single":
        return reweight_single_attribute(train.labels, ordered[0], unit)
    if config.method == "rw_sequential":
        return reweight_sequential(train.labels, ordered, unit)
    return m3fair(train.labels, ordered, LevelWeightConfig(config.level_weights), unit)


def _method_attributes(config: ExperimentConfig) -> tuple[str, ...]:
    if config.method == "rw_sequential":
        return config.attribute_order
    if config.method == "m3fair":
        return tuple(config.level_weights)
    return config.sensitive_attributes


def _load_split(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """The load and split stages: the configured CSV as (train, test),
    split from the loader's table of distinct lines."""
    ds = config.dataset
    table, lines = _stage("load", load_csv_table, ds.path, ds.label_column, ds.positive_label)
    return _stage("split", split, table, config.split, lines)


def _weigh(config: ExperimentConfig, train: Dataset, other: Dataset) -> tuple[SampleWeights, dict]:
    """The binarize and reweight stages: the training rows' weights under
    the configured method, and the other split's groups, binarized on the
    training split's thresholds."""
    train_groups, other_groups = _stage(
        "binarize", _binarize_on_train, train, other, config.sensitive_attributes
    )
    return _stage("reweight", _training_weights, config, train, train_groups), other_groups


def _run_condition(config: ExperimentConfig, train: Dataset, test: Dataset) -> ExperimentReport:
    """Binarize, reweight, fit, evaluate on ``test`` and emit the report."""
    weights, test_groups = _weigh(config, train, test)
    model = _fit_stage(train, weights, config.train)

    def evaluate():
        preds = PredictionSet(predict_scores(model, test), test.labels)
        fairness = evaluate_fairness(preds, test_groups.values())
        auroc_value, auprc_value = ranking_metrics(preds.scores, preds.labels)
        performance = {"acc": accuracy(preds), "auroc": auroc_value, "auprc": auprc_value}
        attrs = _method_attributes(config)
        rows = tuple(ReportRow(config.method, attrs, **performance, **asdict(f)) for f in fairness)
        return ExperimentReport(
            rows=rows,
            seed=config.split.seed,
            config_hash=config.config_hash(),
            converged=model.converged,
            n_iter=model.n_iter,
        )

    report = _stage("evaluate", evaluate)
    if config.report_path is not None:
        _stage("report", emit_report, report, config.report_path)
    return report


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute one condition end to end and return (and optionally emit)
    its report.

    Stage order: load -> split -> binarize -> reweight -> fit -> evaluate
    -> report.  Any stage failure aborts with a diagnostic naming it.
    """
    return _run_condition(config, *_load_split(config))


def run_detection(config: ExperimentConfig) -> DetectionResult:
    """Detect biased columns on the training split using predictions from
    an unweighted baseline model fit on that split."""
    train = _load_split(config)[0]  # the test split is freed before the fit
    model = _fit_stage(train, SampleWeights.unit(train.n_rows), config.train)

    def run_detect():
        preds = PredictionSet(predict_scores(model, train), train.labels)
        return detect(train, preds, config.detection)

    result = _stage("detect", run_detect)
    if config.report_path is not None:
        _stage("report", emit_detection, result, config.report_path)
    return result


def compute_training_weights(config: ExperimentConfig) -> SampleWeights:
    """The training-split weights the configured method would train with."""
    return _weigh(config, *_load_split(config))[0]


def export_training_weights(config: ExperimentConfig, path) -> SampleWeights:
    weights = compute_training_weights(config)
    _stage("report", save_weights_csv, weights, path)
    return weights


# ---------------------------------------------------------------------------
# Grid search over level weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSearchConfig:
    """Candidate level weights per attribute (default {1, 2} each) and the
    share of the training split held out for selection.

    Points are ranked by the composite unfairness score
    sum_attrs(|1 - DI| + |SPD| + |AOD| + |EOD|), computed on a validation
    split carved from the training data so the test split never guides
    selection.
    """

    candidates: dict[str, tuple[int, ...]] | None = None
    validation_fraction: float = 0.2

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must lie strictly between 0 and 1")
        if self.candidates is not None:
            for name, values in self.candidates.items():
                if not values:
                    raise ConfigError(f"empty candidate set for attribute {name!r}")
                for v in values:
                    if v < 1:
                        raise ConfigError(f"candidate level weights must be positive integers, got {v!r}")
                check_unique(values, f"candidate level weights for {name!r}")
            check_level_sum(sum(max(values) for values in self.candidates.values()))

    @classmethod
    def from_dict(cls, payload: dict) -> "GridSearchConfig":
        """Parse the config's ``grid`` section.  It may also name the
        selection metric, which must be ``composite_unfairness``."""
        payload = dict(expect(payload, "grid", dict, "an object"))
        metric = payload.pop("selection_metric", "composite_unfairness")
        if metric != "composite_unfairness":
            raise ConfigError(f"unsupported selection metric {metric!r}")
        return _parse(cls, payload, "grid")


@dataclass(frozen=True)
class GridPoint:
    """Outcome of one level-weight combination on the validation split."""

    level_weights: dict[str, int]
    status: str  # "ok" | "failed"
    score: float | None = None
    val_auroc: float | None = None
    reason: str | None = None


@dataclass(frozen=True)
class GridSearchResult:
    winner: LevelWeightConfig
    report: ExperimentReport | None  # None when the winner's re-run failed
    points: tuple[GridPoint, ...]


class GridWinnerError(PipelineError):
    """The winner's re-run on the full training split failed; ``result``
    holds the sweep, with no report."""

    def __init__(self, stage: str, message: str, result: GridSearchResult):
        super().__init__(stage, message)
        self.result = result


def _levels_text(level_weights: dict[str, int]) -> str:
    return ", ".join(f"{name}={weight}" for name, weight in level_weights.items())


def select_grid_winner(points) -> GridPoint:
    """Lowest composite score wins; ties break toward higher validation
    AUROC, then the lexicographically smaller level-weight tuple."""
    ok = [p for p in points if p.status == "ok"]
    if not ok:
        raise PipelineError("grid", "all grid points failed")
    return min(ok, key=lambda p: (p.score, -p.val_auroc, tuple(p.level_weights.values())))


def grid_search(
    config: ExperimentConfig, grid: GridSearchConfig = GridSearchConfig()
) -> GridSearchResult:
    """Sweep the Cartesian product of candidate level weights.

    Each point trains on a sub-training split and is scored on the carved
    validation split.  The sub-split is a plain :func:`split` of the
    training split, so its training cells come from the ones the
    train/test split gave, and the job sorts only the loaded rows.  The
    sweep makes three passes:

    1. Reweight.  A row's cell is 2 * (the bit code of the level
       attributes it is unprivileged on) + its label, and the cells are
       counted once per sweep.  One :func:`stacked_cell_multipliers` call
       gives every point's multiplier per cell; each row takes its cell's,
       bit for bit m3fair's weight for the row.  A point whose level
       partition leaves a cell unreachable is recorded as failed, with its
       own message, and is excluded from selection.  Points whose
       cell -> level maps have the same fibers get bit-identical weights
       (the unit prior makes every cell mass an exact integer), so they
       form one class.
    2. Fit each class once, through this module's ``fit``.
    3. Score.  All classes predict their validation scores in one
       :func:`stacked_predict_scores` call and are scored in one pass over
       that (class, validation row) score matrix.  Whether a metric is
       defined hangs on the validation labels and groups alone, so it is
       checked once, on the first class's scores; an undefined one raises
       and stops the sweep, as does any other error.

    The winning level weights are re-run as a full condition on the
    already loaded split (training on the whole training split, metrics on
    test).  The full split has its own thresholds, so that re-run can meet
    an unreachable cell the sweep did not; it then raises
    :class:`GridWinnerError`, which carries the sweep.
    """
    if config.method != "m3fair":
        raise ConfigError("grid search requires method 'm3fair'")
    attrs = tuple(config.level_weights)
    candidates = {name: (1, 2) for name in attrs} if grid.candidates is None else grid.candidates
    missing = set(attrs) - set(candidates)
    if missing:
        raise ConfigError(f"no candidate level weights for attributes: {sorted(missing)}")
    extra = set(candidates) - set(attrs)
    if extra:
        raise ConfigError(f"candidate attributes not in level_weights: {sorted(extra)}")

    train, test = _load_split(config)
    subtrain, validation = _stage("split", split, train, SplitSpec(grid.validation_fraction, config.split.seed))
    sub_groups, val_groups = _stage(
        "binarize", _binarize_on_train, subtrain, validation, config.sensitive_attributes
    )

    def sweep():
        combos = list(itertools.product(*(candidates[name] for name in attrs)))
        # Reweight: a cell is 2 * (the bits of the level attributes a row is
        # unprivileged on) + label, and its mass under the unit prior is its row count
        unprivileged = np.array([sub_groups[name].unprivileged_indicator() for name in attrs])
        cell_ids, row_cell = distinct_ids(2 * ((1 << np.arange(len(attrs))) @ unprivileged) + subtrain.labels)
        cell_levels = np.array(combos) @ ((cell_ids[:, None] >> np.arange(1, len(attrs) + 1)) & 1).T
        cell_rows = np.bincount(row_cell).astype(np.float64)
        multipliers, reasons = stacked_cell_multipliers(cell_ids & 1, cell_levels, cell_rows)
        # per point: None if it failed, else the fibers of its cell -> level map,
        # its class's key; per class: its first point
        keys, classes = [], {}
        for p, (levels, reason) in enumerate(zip(cell_levels.tolist(), reasons)):
            first: dict[int, int] = {}
            keys.append(None if reason else tuple(first.setdefault(level, len(first)) for level in levels))
            if reason is None:
                classes.setdefault(keys[-1], p)
        # Fit: each class once, on its first point's weights
        models = [_converged_or_warn(fit(subtrain, SampleWeights(multipliers[p][row_cell]), config.train),
                                     config.train, dict(zip(attrs, combos[p]))) for p in classes.values()]
        # Score: all classes in one pass over the (class, validation row) score matrix
        scored = {}
        if models:
            matrix = stacked_predict_scores(models, validation)
            # whether a metric is defined hangs on the validation labels and groups alone
            evaluate_fairness(PredictionSet(matrix[0], validation.labels), val_groups.values())
            sides = np.array([group.privileged_mask for group in val_groups.values()])
            cells = side_cells(sides, validation.labels, predictions_from(matrix))  # class by class
            # |1 - DI| + |SPD| + |AOD| + |EOD| per attribute, then attributes, left to right
            per_attribute = sum(unfairness(*group_fairness(cells)[:4]))
            composite = sum(per_attribute.reshape(len(matrix), -1).T).tolist()
            scored = dict(zip(classes, zip(composite, auroc(matrix, validation.labels).tolist())))
        return [
            GridPoint(dict(zip(attrs, combo)), "failed", reason=reason) if key is None
            else GridPoint(dict(zip(attrs, combo)), "ok", *scored[key])
            for combo, key, reason in zip(combos, keys, reasons)
        ]

    points = _stage("grid", sweep)
    winner = select_grid_winner(points)
    result = GridSearchResult(LevelWeightConfig(winner.level_weights), None, tuple(points))
    try:
        report = _run_condition(replace(config, level_weights=winner.level_weights), train, test)
    except PipelineError as exc:
        levels = _levels_text(winner.level_weights)
        raise GridWinnerError(exc.stage, f"winning level weights {levels}: {exc.message}", result) from exc
    return replace(result, report=report)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _report_paths(path) -> tuple[str, str]:
    base = str(path)
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".json", base + ".txt"


def _emit(path, payload, table: str | None = None) -> None:
    """Write ``payload`` to ``<base>.json`` and, when given, ``table`` to
    ``<base>.txt``, in a directory made if missing."""
    json_path, text_path = _report_paths(path)
    Path(json_path).parent.mkdir(parents=True, exist_ok=True)
    Path(json_path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if table is not None:
        Path(text_path).write_text(table, encoding="utf-8")


def _json_float(value: float):
    return value if math.isfinite(value) else None


def _json_record(record) -> dict:
    """A report dataclass's fields, in order, as JSON values (a non-finite
    float becomes null).  The fields are read, not copied: ``asdict`` would
    deep-copy every nested dict and tuple only for ``json.dump`` to read."""
    values = ((f.name, getattr(record, f.name)) for f in fields(record))
    return {key: _json_float(value) if isinstance(value, float) else value for key, value in values}


def _format_sa(row: ReportRow) -> str:
    if row.method == "none":
        return "/"
    if row.method == "rw_sequential":
        return "->".join(row.sensitive_attributes)
    if row.method == "m3fair":
        return "[" + ", ".join(row.sensitive_attributes) + "]"
    return row.sensitive_attributes[0]


def _aligned(headers, body) -> list[str]:
    """Header and body lines with each column left-justified to its widest
    cell, columns two spaces apart and trailing spaces trimmed."""
    widths = [max(map(len, column)) for column in zip(headers, *body)]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in [headers, *body]
    ]


def format_report_table(report: ExperimentReport) -> str:
    """Aligned-column text table; performance columns are printed once per
    condition and left blank on its continuation rows."""
    headers = ["Method", "SA", "EA", "ACC", "AUROC", "AUPRC", "DI", "SPD", "AOD", "EOD"]
    body: list[list[str]] = []
    previous = None
    for row in report.rows:
        key = (row.method, row.sensitive_attributes)
        first = key != previous
        previous = key
        di_text = "undefined" if "di_undefined" in row.flags else f"{row.di:.4f}"
        body.append(
            [
                row.method if first else "",
                _format_sa(row) if first else "",
                row.evaluated_attribute,
                f"{row.acc:.4f}" if first else "",
                f"{row.auroc:.4f}" if first else "",
                f"{row.auprc:.4f}" if first else "",
                di_text,
                f"{row.spd:.4f}",
                f"{row.aod:.4f}",
                f"{row.eod:.4f}",
            ]
        )
    return "\n".join(_aligned(headers, body)) + "\n"


def emit_report(report: ExperimentReport, path) -> None:
    """Write the structured JSON report and its aligned text table."""
    metadata = _json_record(report)
    del metadata["rows"]
    payload = {"rows": [_json_record(row) for row in report.rows], "metadata": metadata}
    _emit(path, payload, format_report_table(report))


def load_report(path) -> ExperimentReport:
    """Re-parse an emitted JSON report into an equal ExperimentReport."""
    json_path, _ = _report_paths(path)
    with open(json_path, encoding="utf-8") as handle:
        payload = json.load(handle)

    def row(raw: dict) -> ReportRow:
        raw = {key: tuple(value) if isinstance(value, list) else value for key, value in raw.items()}
        if raw["di"] is None:
            raw["di"] = math.inf if "di_undefined" in raw["flags"] else math.nan
        return ReportRow(**raw)

    return ExperimentReport(rows=tuple(map(row, payload["rows"])), **payload["metadata"])


def emit_detection(result: DetectionResult, path) -> None:
    """Structured JSON for a detection run (rankings, intersection, skips)."""
    payload = {
        "intersection": sorted(result.intersection),
        "skipped": [[column, reason] for column, reason in result.skipped],
        "rankings": {
            metric: [[column, _json_float(score)] for column, score in ranking]
            for metric, ranking in result.per_metric_rankings.items()
        },
    }
    _emit(path, payload)


def format_grid_table(result: GridSearchResult) -> str:
    headers = ["Levels", "Status", "Score", "ValAUROC", "Reason"]
    body = []
    for point in result.points:
        body.append(
            [
                _levels_text(point.level_weights),
                point.status,
                "" if point.score is None or not math.isfinite(point.score) else f"{point.score:.4f}",
                "" if point.val_auroc is None else f"{point.val_auroc:.4f}",
                point.reason or "",
            ]
        )
    winner = _levels_text(result.winner.entries)
    return "\n".join(_aligned(headers, body) + ["", f"selected level weights: {winner}"]) + "\n"


def emit_grid(result: GridSearchResult, path) -> None:
    """Write the sweep table (JSON + text); the winner's experiment report
    is emitted separately via the experiment config's report_path."""
    payload = {
        "winner_level_weights": dict(result.winner.entries),
        "points": [_json_record(point) for point in result.points],
    }
    _emit(path, payload, format_grid_table(result))
