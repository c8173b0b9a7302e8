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
        predictions = predictions_from(scores)
        if not ((labels == 0) | (labels == 1)).all():
            raise DataError("labels must be 0 or 1")
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


def predictions_from(scores: np.ndarray) -> np.ndarray:
    """The 0/1 predictions (int64) of float64 scores of any shape: 1 where
    the score is at least DECISION_THRESHOLD.  DataError unless every score
    lies in [0, 1]."""
    if not ((scores >= 0.0) & (scores <= 1.0)).all():
        raise DataError("scores must lie in [0, 1]")
    return (scores >= DECISION_THRESHOLD).astype(np.int64)


def _average_ranks(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis, tied values sharing their average
    rank, given ``order = np.argsort(values, axis=-1)``.  A tied block takes
    the mean of its first and last positions, a half-integer that is exact
    in float64."""
    n = values.shape[-1]
    order = order + np.arange(0, values.size, n).reshape(values.shape[:-1] + (1,))  # flat indices
    ordered = values.ravel()[order]
    starts = np.empty(values.shape, dtype=bool)  # where a tied block starts
    starts[..., 0] = True
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=starts[..., 1:])
    starts = starts.ravel()
    edges = np.append(np.flatnonzero(starts), starts.size)  # flat block starts, then the end
    row_start = edges[:-1] // n * n  # no block crosses a row
    # the block [start, end) holds the 1-based positions start - row_start + 1 .. end - row_start
    block_ranks = (edges[:-1] + edges[1:] + 1 - 2 * row_start) / 2.0
    ranks = np.empty(values.size)
    ranks[order.ravel()] = block_ranks[np.cumsum(starts) - 1]
    return ranks.reshape(values.shape)


def _scores_and_positives(scores, labels) -> tuple[np.ndarray, np.ndarray, int]:
    """``scores`` as float64, the positive-label mask and the positive
    count.  DataError unless the labels are a vector of 0s and 1s as long
    as the scores' last axis and no score is NaN."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.ndim != 1 or scores.shape[-1:] != labels.shape:
        raise DataError("scores and labels differ in length")
    positives = labels == 1
    n_pos = int(positives.sum())
    if n_pos + int((labels == 0).sum()) != labels.shape[0]:
        raise DataError("labels must be 0 or 1")
    if np.isnan(scores).any():
        raise DataError("scores must not be NaN")
    return scores, positives, n_pos


def _auroc(scores: np.ndarray, positives: np.ndarray, n_pos: int, order: np.ndarray):
    n_neg = positives.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUROC undefined: labels contain a single class")
    # half-integer ranks sum exactly, so the rows agree with the vector case bit for bit
    u = _average_ranks(scores, order)[..., positives].sum(axis=-1) - n_pos * (n_pos + 1) / 2.0
    result = u / (n_pos * n_neg)
    return float(result) if scores.ndim == 1 else result


def auroc(scores, labels):
    """Rank-statistic AUROC: probability a random positive outranks a
    random negative, ties counted one half.  A float for a score vector;
    for a matrix, an array holding each row's AUROC against the same
    labels."""
    scores, positives, n_pos = _scores_and_positives(scores, labels)
    return _auroc(scores, positives, n_pos, np.argsort(scores, axis=-1))


def _auprc(scores: np.ndarray, positives: np.ndarray, n_pos: int, order: np.ndarray) -> float:
    if scores.ndim != 1:
        raise DataError("scores must be a vector")
    if n_pos == 0:
        raise MetricUndefinedError("AUPRC undefined: no positive labels")
    # The ascending order reversed is a descending one.  tp is read only at
    # the end of each tied block, so no order within a tie counts.
    order = order[::-1]
    sorted_scores = scores[order]
    # Threshold step boundaries: last index of each tied block.
    boundaries = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1])
    boundaries = np.append(boundaries, sorted_scores.shape[0] - 1)
    tp = np.cumsum(positives[order])[boundaries].astype(np.float64)
    predicted = (boundaries + 1).astype(np.float64)
    precision = tp / predicted
    recall = tp / n_pos
    recall_steps = np.diff(recall, prepend=0.0)
    return float(np.sum(recall_steps * precision))


def auprc(scores, labels) -> float:
    """Average precision over the descending-score sweep, grouping tied
    scores into a single threshold step."""
    scores, positives, n_pos = _scores_and_positives(scores, labels)
    return _auprc(scores, positives, n_pos, np.argsort(scores))


def ranking_metrics(scores, labels) -> tuple[float, float]:
    """``(auroc(scores, labels), auprc(scores, labels))`` for a score
    vector, bit for bit, from one sort of the scores."""
    scores, positives, n_pos = _scores_and_positives(scores, labels)
    order = np.argsort(scores)
    return _auroc(scores, positives, n_pos, order), _auprc(scores, positives, n_pos, order)


def accuracy(preds: PredictionSet) -> float:
    """Fraction of predictions that match the labels."""
    return float((preds.predictions == preds.labels).mean())


def side_cells(sides, labels, predictions) -> np.ndarray:
    """counts[k, side, label, prediction] of the rows, for each row ``k`` of
    the 0/1 membership matrix ``sides``, from one bincount.  A c x n matrix
    of predictions, one row per classifier, counts every (classifier, side
    row) pair, k running over the side rows classifier by classifier."""
    index = sides.astype(np.intp)  # a k x n copy, coded in place
    index *= 4
    index += 8 * np.arange(len(index))[:, None]
    outcomes = 2 * labels + predictions
    if outcomes.ndim > 1:  # a c x k x n copy: classifier i codes its side rows after 8 k i
        index = index + 8 * len(index) * np.arange(len(outcomes))[:, None, None]
    index += outcomes[..., None, :]
    return np.bincount(index.ravel(), minlength=8 * math.prod(index.shape[:-1])).reshape(-1, 2, 2, 2)


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
