"""Sensitive-attribute detection by cross-metric unfairness ranking.

Every candidate column is binarized against its mean, assigned a
privileged side from the label base rates, and scored against baseline
predictions on DI, SPD, AOD, and EOD.  Columns are ranked per metric by
unfairness (|1 - DI| for DI, absolute value otherwise; an undefined value
ranks as maximally unfair), and the columns appearing in all four top-N
prefixes form the detection intersection.

All candidates are scored in one pass: a boolean membership matrix (one
row per column, true above the column's mean) times the four indicator
vectors 1, y, pred and pred*y gives each column's above-mean side its row,
positive, selected and true-positive counts, and the below-mean side's are
the totals minus these.  Every rate is an exact count over an exact count,
so the scores equal those of the per-column functions in :mod:`.data` and
:mod:`.metrics` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# binarize_by_mean, set_privileged and the four metric functions are no
# longer called here; they stay imported because the benchmark's traced
# mode (perfbench/spans.py) still binds them in this module.
from .data import Dataset, binarize_by_mean, set_privileged  # noqa: F401
from .errors import DataError, DegenerateAttributeError
from .metrics import (  # noqa: F401
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
        if isinstance(self.candidate_columns, str):  # tuple("ab") would be ("a", "b")
            raise DataError(f"'candidate_columns' must be a list, got {self.candidate_columns!r}")
        if self.candidate_columns is not None:
            columns = tuple(self.candidate_columns)
            if len(set(columns)) != len(columns):
                duplicates = sorted({c for c in columns if columns.count(c) > 1})
                raise DataError(f"duplicate candidate columns: {duplicates}")
            object.__setattr__(self, "candidate_columns", columns or None)


@dataclass(frozen=True)
class DetectionResult:
    """Per-metric unfairness rankings, their top-N intersection, and any
    columns skipped as degenerate."""

    per_metric_rankings: dict[str, tuple[tuple[str, float], ...]]
    intersection: frozenset[str]
    skipped: tuple[tuple[str, str], ...] = ()


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator, 0 where the denominator is 0."""
    return np.divide(numerator, denominator, out=np.zeros(len(numerator)), where=denominator > 0)


def _unfairness_scores(dataset: Dataset, preds: PredictionSet, columns) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """For each of ``columns``, whether it is degenerate (all rows on one
    side of its mean), and its four unfairness scores over the others."""
    # One row per column, each contiguous, so that its mean sums in the
    # same order as the mean of the column alone
    values = dataset.features.T[[dataset.column_names.index(c) for c in columns]]
    above = values > values.mean(axis=1, keepdims=True)
    del values  # one float matrix at a time: the product below casts `above`
    y, pred = preds.labels, preds.predictions
    indicators = np.column_stack([np.ones_like(y), y, pred, pred * y]).astype(np.float64)
    # counts[side, column, (rows, positives, selected, true positives)], side
    # 1 above the mean; float64 sums of 0/1 products are exact integers
    counts = np.empty((2, len(columns), 4))
    counts[1] = above.astype(np.float64) @ indicators
    counts[0] = indicators.sum(axis=0) - counts[1]
    rows = counts[1, :, 0]
    degenerate = (rows == 0) | (rows == len(y))
    counts = counts[:, ~degenerate]

    # Privileged: the side with the higher label base rate, ties to side 1
    base_rate = counts[:, :, 1] / counts[:, :, 0]
    privileged_is_above = base_rate[1] >= base_rate[0]
    (n_u, pos_u, sel_u, tp_u), (n_p, pos_p, sel_p, tp_p) = (
        np.where(privileged_is_above[:, None], counts[side], counts[1 - side]).T for side in (0, 1)
    )
    rate_u, rate_p = sel_u / n_u, sel_p / n_p
    di = np.where(rate_u == 0.0, 1.0, np.inf)
    np.divide(rate_u, rate_p, out=di, where=rate_p != 0.0)
    # A side with no positives (negatives) counts TPR (FPR) 0 in AOD
    tpr_u, tpr_p = _ratio(tp_u, pos_u), _ratio(tp_p, pos_p)
    fpr_u, fpr_p = _ratio(sel_u - tp_u, n_u - pos_u), _ratio(sel_p - tp_p, n_p - pos_p)
    eod = np.where((pos_u > 0) & (pos_p > 0), np.abs(tpr_u - tpr_p), np.inf)
    return degenerate, {
        "di": np.abs(1.0 - di),
        "spd": np.abs(rate_u - rate_p),
        "aod": np.abs(0.5 * ((fpr_u - fpr_p) + (tpr_u - tpr_p))),
        "eod": eod,  # no positive support: maximally unfair, like DI
    }


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
