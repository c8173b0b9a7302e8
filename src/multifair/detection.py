"""Sensitive-attribute detection by cross-metric unfairness ranking.

Every candidate column is binarized against its mean, assigned a
privileged side from the label base rates, and scored against baseline
predictions on DI, SPD, AOD, and EOD.  Columns are ranked per metric by
unfairness (|1 - DI| for DI, absolute value otherwise; an undefined value
ranks as maximally unfair), and the columns appearing in all four top-N
prefixes form the detection intersection.

All candidates are scored in one pass: one bincount over a membership
matrix (one row per column, true above its mean) counts every column's
(side, label, prediction) cells, and the kernel that scores ``run``'s
groups turns them into metrics, bit for bit those of the per-column
functions in :mod:`.data` and :mod:`.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# binarize_by_mean, set_privileged and the four metric functions are not
# called here; the benchmark's traced mode (perfbench/spans.py) binds them.
from .data import Dataset, binarize_by_mean, set_privileged  # noqa: F401
from .errors import ConfigError, DataError, DegenerateAttributeError, check_fields, check_unique
from .metrics import (  # noqa: F401
    PredictionSet,
    average_odds_difference,
    disparate_impact,
    equal_opportunity_difference,
    group_fairness,
    side_cells,
    statistical_parity_difference,
    unfairness,
)

METRIC_NAMES = ("di", "spd", "aod", "eod")


@dataclass(frozen=True)
class DetectionConfig:
    top_n: int = 20
    candidate_columns: tuple[str, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        if self.top_n < 1:
            raise ConfigError("top_n must be at least 1")
        check_unique(self.candidate_columns or (), "candidate columns")
        # an empty list, like None, means every column
        object.__setattr__(self, "candidate_columns", self.candidate_columns or None)


@dataclass(frozen=True)
class DetectionResult:
    """Per-metric unfairness rankings, their top-N intersection, and any
    columns skipped as degenerate."""

    per_metric_rankings: dict[str, tuple[tuple[str, float], ...]]
    intersection: frozenset[str]
    skipped: tuple[tuple[str, str], ...] = ()


def _unfairness_scores(dataset: Dataset, preds: PredictionSet, columns) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """For each of ``columns``, whether it is degenerate (all rows on one
    side of its mean), and its four unfairness scores over the others."""
    # One row per column, each contiguous, so that its mean sums in the
    # same order as the mean of the column alone
    values = dataset.features.T[[dataset.column_names.index(c) for c in columns]]
    above = values > values.mean(axis=1, keepdims=True)
    del values  # one k x n matrix at a time: side_cells copies `above`
    # cells[column, side, label, prediction], side 1 above the mean
    cells = side_cells(above, preds.labels, preds.predictions)
    degenerate = ~cells.any(axis=(2, 3)).all(axis=1)
    cells = cells[~degenerate]

    # Privileged: the side with the higher label base rate, ties to side 1
    by_label = cells.sum(axis=3)
    base_rate = by_label[:, :, 1] / by_label.sum(axis=2)
    privileged_is_above = base_rate[:, 1] >= base_rate[:, 0]
    cells = np.where(privileged_is_above[:, None, None, None], cells, cells[:, ::-1])
    di, spd, aod, eod, positives, _ = group_fairness(cells)
    eod = np.where(positives, eod, np.inf)  # no positive support: maximally unfair, like DI
    return degenerate, dict(zip(METRIC_NAMES, unfairness(di, spd, aod, eod)))


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

    degenerate, scores = _unfairness_scores(dataset, baseline_preds, candidates)
    if degenerate.all():
        raise DegenerateAttributeError("no detectable attributes: all candidates degenerate")
    skip = degenerate.tolist()
    scored = [c for c, s in zip(candidates, skip) if not s]
    rankings = {
        metric: tuple(sorted(zip(scored, scores[metric].tolist()), key=lambda p: (-p[1], p[0])))
        for metric in METRIC_NAMES
    }
    prefixes = [
        {column for column, _ in rankings[metric][: config.top_n]}
        for metric in METRIC_NAMES
    ]
    intersection = frozenset(set.intersection(*prefixes))
    return DetectionResult(
        per_metric_rankings=rankings,
        intersection=intersection,
        skipped=tuple((c, "degenerate attribute") for c, s in zip(candidates, skip) if s),
    )
