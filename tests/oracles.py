"""Test oracles: the group-fairness metrics and the privileged-side rule
written out one mask at a time.

``multifair`` computes each of these from label and prediction counts in
one kernel (``metrics.side_cells`` and ``metrics.group_fairness``, and
``data.privileged_side``).  The functions here select rows by boolean
masks and take means, so a test that compares the two checks the kernel
against code that shares none of it.
"""

from __future__ import annotations

import math

import numpy as np

from multifair.data import Dataset, GroupAssignment
from multifair.errors import DataError, MetricUndefinedError
from multifair.metrics import PredictionSet


def set_privileged(group: GroupAssignment, dataset: Dataset) -> GroupAssignment:
    """Mark as privileged the group code with the higher favorable-label
    base rate, breaking ties toward code 1."""
    mask1 = group.membership == 1
    if not mask1.any() or mask1.all():
        raise DataError(
            f"attribute {group.attribute_name!r}: both groups must be non-empty"
        )
    labels = dataset.labels
    rate1 = float(labels[mask1].mean())
    rate0 = float(labels[~mask1].mean())
    return group.with_privileged(1 if rate1 >= rate0 else 0)


def _group_masks(preds: PredictionSet, group: GroupAssignment) -> tuple[np.ndarray, np.ndarray]:
    if len(group) != len(preds):
        raise DataError("group assignment not row-aligned with predictions")
    priv = group.privileged_mask
    unpriv = ~priv
    if not unpriv.any() or not priv.any():
        raise DataError(f"attribute {group.attribute_name!r}: empty group")
    return unpriv, priv


def selection_rate(preds: PredictionSet, mask: np.ndarray) -> float:
    """Fraction of rows in ``mask`` predicted favorable."""
    return float(preds.predictions[mask].mean())


def disparate_impact(preds: PredictionSet, group: GroupAssignment) -> float:
    """Unprivileged over privileged favorable-prediction rate.

    Both rates zero -> 1.0; only the privileged rate zero -> inf (reported
    as undefined).
    """
    unpriv, priv = _group_masks(preds, group)
    rate_u = selection_rate(preds, unpriv)
    rate_p = selection_rate(preds, priv)
    if rate_p == 0.0:
        return 1.0 if rate_u == 0.0 else math.inf
    return rate_u / rate_p


def statistical_parity_difference(preds: PredictionSet, group: GroupAssignment) -> float:
    """Unprivileged minus privileged favorable-prediction rate."""
    unpriv, priv = _group_masks(preds, group)
    return selection_rate(preds, unpriv) - selection_rate(preds, priv)


def _rate(preds: PredictionSet, mask: np.ndarray) -> float:
    # Empty conditioning set contributes rate 0 (flagged as partial support).
    return float(preds.predictions[mask].mean()) if mask.any() else 0.0


def average_odds_difference(preds: PredictionSet, group: GroupAssignment) -> float:
    """Mean of the FPR and TPR gaps, unprivileged minus privileged.

    A group missing positives (or negatives) contributes TPR (FPR) 0; use
    :func:`odds_support_complete` to detect that case.
    """
    unpriv, priv = _group_masks(preds, group)
    pos = preds.labels == 1
    tpr_u = _rate(preds, unpriv & pos)
    tpr_p = _rate(preds, priv & pos)
    fpr_u = _rate(preds, unpriv & ~pos)
    fpr_p = _rate(preds, priv & ~pos)
    return 0.5 * ((fpr_u - fpr_p) + (tpr_u - tpr_p))


def odds_support_complete(preds: PredictionSet, group: GroupAssignment) -> bool:
    """True when both groups contain at least one positive and one negative."""
    unpriv, priv = _group_masks(preds, group)
    pos = preds.labels == 1
    return all(
        (mask & side).any()
        for mask in (pos, ~pos)
        for side in (unpriv, priv)
    )


def equal_opportunity_difference(preds: PredictionSet, group: GroupAssignment) -> float:
    """TPR gap, unprivileged minus privileged."""
    unpriv, priv = _group_masks(preds, group)
    pos = preds.labels == 1
    if not (unpriv & pos).any() or not (priv & pos).any():
        raise MetricUndefinedError(
            f"EOD undefined: attribute {group.attribute_name!r} has a group with no positive labels"
        )
    tpr_u = float(preds.predictions[unpriv & pos].mean())
    tpr_p = float(preds.predictions[priv & pos].mean())
    return tpr_u - tpr_p
