"""Sensitive-attribute detection by cross-metric unfairness ranking.

Every candidate column is binarized against its mean, assigned a
privileged side from the label base rates, and scored against baseline
predictions on DI, SPD, AOD, and EOD.  Columns are ranked per metric by
unfairness (|1 - DI| for DI, absolute value otherwise; an undefined value
ranks as maximally unfair), and the columns appearing in all four top-N
prefixes form the detection intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import Dataset, binarize_by_mean, set_privileged
from .errors import DataError, DegenerateAttributeError, MetricUndefinedError
from .metrics import (
    PredictionSet,
    average_odds_difference,
    disparate_impact,
    equal_opportunity_difference,
    statistical_parity_difference,
)

METRIC_NAMES = ("di", "spd", "aod", "eod")


@dataclass(frozen=True)
class DetectionConfig:
    top_n: int = 20
    candidate_columns: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.top_n < 1:
            raise DataError("top_n must be at least 1")
        if self.candidate_columns is not None:
            object.__setattr__(self, "candidate_columns", tuple(self.candidate_columns) or None)


@dataclass(frozen=True)
class DetectionResult:
    """Per-metric unfairness rankings, their top-N intersection, and any
    columns skipped as degenerate."""

    per_metric_rankings: dict[str, tuple[tuple[str, float], ...]]
    intersection: frozenset[str]
    skipped: tuple[tuple[str, str], ...] = ()


def _unfairness_scores(dataset: Dataset, preds: PredictionSet, column: str) -> dict[str, float]:
    group = set_privileged(binarize_by_mean(dataset, column), dataset)
    scores = {
        "di": abs(1.0 - disparate_impact(preds, group)),
        "spd": abs(statistical_parity_difference(preds, group)),
        "aod": abs(average_odds_difference(preds, group)),
    }
    try:
        scores["eod"] = abs(equal_opportunity_difference(preds, group))
    except MetricUndefinedError:
        scores["eod"] = math.inf  # no positive support: maximally unfair, like DI
    return scores


def detect(dataset: Dataset, baseline_preds: PredictionSet, config: DetectionConfig = DetectionConfig()) -> DetectionResult:
    """Rank candidate columns by unfairness and intersect the top-N prefixes.

    Ties within a metric break lexicographically by column name, so the
    result is fully deterministic for identical inputs.
    """
    if len(baseline_preds) != dataset.n_rows:
        raise DataError("baseline predictions not row-aligned with the dataset")
    candidates = config.candidate_columns or dataset.column_names
    for column in candidates:
        if column not in dataset.column_names:
            raise DataError(f"candidate column {column!r} not in dataset")

    scored: dict[str, list[tuple[str, float]]] = {m: [] for m in METRIC_NAMES}
    skipped: list[tuple[str, str]] = []
    for column in candidates:
        try:
            scores = _unfairness_scores(dataset, baseline_preds, column)
        except DegenerateAttributeError:
            skipped.append((column, "degenerate attribute"))
            continue
        for metric in METRIC_NAMES:
            scored[metric].append((column, scores[metric]))

    if not scored["di"]:
        raise DegenerateAttributeError("no detectable attributes: all candidates degenerate")

    rankings = {
        metric: tuple(sorted(pairs, key=lambda p: (-p[1], p[0])))
        for metric, pairs in scored.items()
    }
    prefixes = [
        {column for column, _ in rankings[metric][: config.top_n]}
        for metric in METRIC_NAMES
    ]
    intersection = frozenset(set.intersection(*prefixes))
    return DetectionResult(
        per_metric_rankings=rankings,
        intersection=intersection,
        skipped=tuple(skipped),
    )
