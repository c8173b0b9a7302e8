"""Performance and group-fairness metrics for binary classifiers.

Group metrics compare the unprivileged side of a :class:`GroupAssignment`
against the privileged side:

    DI  = P(pred=1 | unprivileged) / P(pred=1 | privileged)      ideal 1
    SPD = P(pred=1 | unprivileged) - P(pred=1 | privileged)      ideal 0
    AOD = ((FPR_u - FPR_p) + (TPR_u - TPR_p)) / 2                ideal 0
    EOD = TPR_u - TPR_p                                          ideal 0

A DI whose denominator rate is zero while the numerator is not is returned
as ``inf`` and flagged "di_undefined" in reports.

All four are computed in one place: :func:`side_cells` counts each group's
(side, label, prediction) cells in one bincount and :func:`group_fairness`
turns the counts into the metrics.  ``run``, ``grid`` and ``detect`` call
these two, and so do :func:`evaluate_fairness` and, one group at a time,
the per-metric functions such as :func:`disparate_impact`.  The tests check
them against mask-by-mask oracles kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import GroupAssignment, _read_only
from .errors import DataError, MetricUndefinedError

DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class PredictionSet:
    """Aligned scores and true labels, plus the predictions derived by
    thresholding the scores.

    Scores given as a float64 array are not copied: the set keeps a
    read-only view of that array, which stays writable to its owner.
    """

    scores: np.ndarray
    labels: np.ndarray
    predictions: np.ndarray = field(init=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        if scores.ndim != 1 or labels.shape != scores.shape:
            raise DataError("scores and labels must be equal-length vectors")
        if scores.shape[0] == 0:
            raise DataError("empty prediction set")
        if not ((scores >= 0.0) & (scores <= 1.0)).all():
            raise DataError("scores must lie in [0, 1]")
        if not ((labels == 0) | (labels == 1)).all():
            raise DataError("labels must be 0 or 1")
        predictions = (scores >= DECISION_THRESHOLD).astype(np.int64)
        object.__setattr__(self, "scores", _read_only(scores))
        object.__setattr__(self, "predictions", _read_only(predictions))
        object.__setattr__(self, "labels", _read_only(labels.astype(np.int64)))

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True)
class FairnessReport:
    """One attribute's four group-fairness values.  ``flags`` records
    partial support or an undefined DI."""

    evaluated_attribute: str
    di: float
    spd: float
    aod: float
    eod: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("spd", "aod", "eod"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite")
        if math.isnan(self.di) or self.di < 0:
            raise DataError("di must be non-negative (inf allowed when flagged undefined)")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing their average rank; the
    half-integer ranks are exact in float64."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # rank of the last value in each tied block
    return (last - (counts - 1) / 2.0)[inverse]


def auroc(scores, labels) -> float:
    """Rank-statistic AUROC: probability a random positive outranks a
    random negative, ties counted one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(labels.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUROC undefined: labels contain a single class")
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision over the descending-score sweep, grouping tied
    scores into a single threshold step."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise MetricUndefinedError("AUPRC undefined: no positive labels")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # Threshold step boundaries: last index of each tied block.
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0)
    boundaries = np.append(boundaries, sorted_scores.shape[0] - 1)
    tp = np.cumsum(sorted_labels == 1)[boundaries].astype(np.float64)
    predicted = (boundaries + 1).astype(np.float64)
    precision = tp / predicted
    recall = tp / n_pos
    recall_steps = np.diff(recall, prepend=0.0)
    return float(np.sum(recall_steps * precision))


def accuracy(preds: PredictionSet) -> float:
    """Fraction of predictions that match the labels."""
    return float((preds.predictions == preds.labels).mean())


def side_cells(sides, labels, predictions) -> np.ndarray:
    """counts[k, side, label, prediction] of the rows, for each row ``k`` of
    the 0/1 membership matrix ``sides``, from one bincount."""
    index = sides.astype(np.intp)  # a k x n copy, coded in place
    index *= 4
    index += 2 * labels + predictions
    index += 8 * np.arange(len(index))[:, None]
    return np.bincount(index.ravel(), minlength=8 * len(index)).reshape(-1, 2, 2, 2)


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator, 0 where the denominator is 0."""
    return np.divide(numerator, denominator, out=np.zeros(numerator.shape), where=denominator > 0)


def group_fairness(cells: np.ndarray):
    """DI, SPD, AOD, EOD and the masks "both sides have a positive" and "both
    sides have a negative", as arrays over the groups k of cells[k, side,
    label, prediction] (side 0 unprivileged).  This is the one
    implementation of the four metrics.  A rate over no rows is 0 (AOD's
    partial support), and DI over a privileged rate of 0 is 1.0 when the
    unprivileged rate is 0 too and inf otherwise.  Each rate is an exact
    count over an exact count, so it is correctly rounded."""
    by_label = cells.sum(axis=3)  # [k, side, label]
    selected = cells[..., 1]
    rate_u, rate_p = _ratio(selected.sum(axis=2), by_label.sum(axis=2)).T
    (fpr_u, tpr_u), (fpr_p, tpr_p) = _ratio(selected, by_label).transpose(1, 2, 0)
    di = np.where(rate_u == 0.0, 1.0, np.inf)
    np.divide(rate_u, rate_p, out=di, where=rate_p != 0.0)
    support = (by_label > 0).all(axis=1)  # [k, label]
    aod = 0.5 * ((fpr_u - fpr_p) + (tpr_u - tpr_p))
    return di, rate_u - rate_p, aod, tpr_u - tpr_p, support[:, 1], support[:, 0]


def unfairness(di, spd, aod, eod):
    """|1 - DI|, |SPD|, |AOD| and |EOD|, for floats or arrays."""
    return abs(1.0 - di), abs(spd), abs(aod), abs(eod)


def _group_values(preds: PredictionSet, groups: list, check_eod: bool = True) -> list[tuple]:
    """Each group's :func:`group_fairness` values (DI, SPD, AOD, EOD, both
    sides have a positive, both sides have a negative), from one kernel
    call.  The first group, in order, with an empty side raises DataError,
    or, when ``check_eod``, with a side with no positives
    MetricUndefinedError."""
    if any(len(group) != len(preds) for group in groups):
        raise DataError("group assignment not row-aligned with predictions")
    sides = np.array([group.privileged_mask for group in groups]).reshape(len(groups), len(preds))
    cells = side_cells(sides, preds.labels, preds.predictions)
    nonempty = cells.any(axis=(2, 3)).all(axis=1).tolist()
    columns = [column.tolist() for column in group_fairness(cells)]
    for group, both_sides, positives in zip(groups, nonempty, columns[4]):
        if not both_sides:
            raise DataError(f"attribute {group.attribute_name!r}: empty group")
        if check_eod and not positives:
            raise MetricUndefinedError(
                f"EOD undefined: attribute {group.attribute_name!r} has a group with no positive labels"
            )
    return list(zip(*columns))


def disparate_impact(preds: PredictionSet, group: GroupAssignment) -> float:
    """Unprivileged over privileged favorable-prediction rate.

    Both rates zero -> 1.0; only the privileged rate zero -> inf (reported
    as undefined).
    """
    return _group_values(preds, [group], check_eod=False)[0][0]


def statistical_parity_difference(preds: PredictionSet, group: GroupAssignment) -> float:
    """Unprivileged minus privileged favorable-prediction rate."""
    return _group_values(preds, [group], check_eod=False)[0][1]


def average_odds_difference(preds: PredictionSet, group: GroupAssignment) -> float:
    """Mean of the FPR and TPR gaps, unprivileged minus privileged.

    A group missing positives (or negatives) contributes TPR (FPR) 0;
    :func:`evaluate_fairness` flags that case "aod_partial_support".
    """
    return _group_values(preds, [group], check_eod=False)[0][2]


def equal_opportunity_difference(preds: PredictionSet, group: GroupAssignment) -> float:
    """TPR gap, unprivileged minus privileged."""
    return _group_values(preds, [group])[0][3]


def evaluate_fairness(preds: PredictionSet, groups) -> list[FairnessReport]:
    """One report per group from one kernel call.  The first failing group,
    checked for an empty side and then for a side with no positives,
    raises."""
    groups = list(groups)
    reports = []
    for group, (di, spd, aod, eod, _, negatives) in zip(groups, _group_values(preds, groups)):
        flags = []
        if math.isinf(di):
            flags.append("di_undefined")
        if not negatives:
            flags.append("aod_partial_support")
        reports.append(FairnessReport(group.attribute_name, di, spd, aod, eod, tuple(flags)))
    return reports
