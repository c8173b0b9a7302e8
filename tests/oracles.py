"""Test oracles: the group-fairness metrics and the privileged-side rule
written out one mask at a time, AUROC's average ranks from ``np.unique``,
AUPRC's sweep over a stable sort, and one model's scores and one
partition's reweighting multipliers as they were computed before
``multifair`` stacked them.

``multifair`` computes the first from label and prediction counts in one
kernel (``metrics.side_cells`` and ``metrics.group_fairness``, and
``data.privileged_side``).  The functions here select rows by boolean
masks and take means, so a test that compares the two checks the kernel
against code that shares none of it.  Likewise ``metrics._average_ranks``
ranks many score rows from one sort and tie blocks found between
neighbours, where :func:`average_ranks` ranks one vector by its distinct
values.  ``metrics.auprc`` sorts the scores in no set order within a
tie, where :func:`auprc` keeps the rows' order.
``model.stacked_predict_scores`` scores many models in one
stacked pass and ``reweighting.stacked_cell_multipliers`` reweights many
partitions in two bincounts; :func:`predict_scores` and
:func:`cell_multipliers` do one model or one partition at a time.
``model.fit`` solves on one design ``[z | 1]`` with one product for the
Newton system and one for the gradient; :func:`separate_products_fit` is
the loop as it ran before that design, on the gathered columns z with the
intercept's Hessian entries and gradient taken apart.
"""

from __future__ import annotations

import math

import numpy as np

import multifair.model
from multifair.data import Dataset, GroupAssignment
from multifair.errors import DataError, MetricUndefinedError, UnreachableCellError
from multifair.metrics import PredictionSet, _scores_and_positives
from multifair.model import ModelParams, TrainConfig, _sigmoid, _sigmoid_from_exp, _standardized


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


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, tied values sharing their average rank;
    the half-integer ranks are exact in float64."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # rank of the last value in each tied block
    return (last - (counts - 1) / 2.0)[inverse]


def auprc(scores, labels) -> float:
    """Average precision over the descending-score sweep, tied scores in
    row order, each tied block of finite scores one threshold step."""
    scores, positives, n_pos = _scores_and_positives(scores, labels)
    if scores.ndim != 1:
        raise DataError("scores must be a vector")
    if n_pos == 0:
        raise MetricUndefinedError("AUPRC undefined: no positive labels")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # Threshold step boundaries: last index of each tied block.
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0)
    boundaries = np.append(boundaries, sorted_scores.shape[0] - 1)
    tp = np.cumsum(positives[order])[boundaries].astype(np.float64)
    predicted = (boundaries + 1).astype(np.float64)
    precision = tp / predicted
    recall = tp / n_pos
    recall_steps = np.diff(recall, prepend=0.0)
    return float(np.sum(recall_steps * precision))


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


def predict_scores(model: ModelParams, data: Dataset) -> np.ndarray:
    """Sigmoid scores in (0, 1) for each row of ``data`` under one model:
    ``(x - mean) / scale`` in a copy of the features, taken in place, with
    any column that overflows recomputed as ``x / scale - mean / scale``."""
    if data.n_cols != model.n_cols:
        raise DataError(
            f"column count mismatch: model fit on {model.n_cols}, data has {data.n_cols}"
        )
    if data.column_names != model.feature_names:
        i = next(i for i, (a, b) in enumerate(zip(model.feature_names, data.column_names)) if a != b)
        raise DataError(f"column name mismatch: model column {i} is {model.feature_names[i]!r}, "
                        f"data has {data.column_names[i]!r}")
    z = data.features.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        z -= model.means
        z /= model.scales
    overflow = ~np.isfinite(z).all(axis=0)
    if overflow.any():
        x = data.features[:, overflow]
        z[:, overflow] = x / model.scales[overflow] - model.means[overflow] / model.scales[overflow]
    return np.clip(_sigmoid(z @ model.coefficients + model.intercept), 1e-12, 1.0 - 1e-12)


def cell_multipliers(labels, partition, weights) -> np.ndarray:
    """Each item's reweighting multiplier for one partition, from its
    sorted distinct group ids; raises UnreachableCellError for the first
    cell (groups in sorted order, label 0 first) that must carry mass but
    has no items or zero prior weight."""
    ids, group = np.unique(partition, return_inverse=True)
    cell = 2 * group + labels
    count = np.bincount(cell, minlength=2 * ids.shape[0]).reshape(-1, 2)
    mass = np.bincount(cell, weights=weights, minlength=2 * ids.shape[0]).reshape(-1, 2)
    demand = mass.sum(axis=1)[:, None] * mass.sum(axis=0)
    empty = count == 0
    unreachable = np.flatnonzero((empty & (demand > 0.0)) | (~empty & (mass <= 0.0)))
    if unreachable.size:
        g, d = divmod(int(unreachable[0]), 2)
        if empty[g, d]:
            raise UnreachableCellError(f"unreachable cell: group {ids[g]} has no rows with label {d}")
        raise UnreachableCellError(f"unreachable cell: group {ids[g]}, label {d} has zero prior weight")
    multiplier = np.divide(demand, weights.sum() * mass, out=np.zeros_like(mass), where=~empty)
    return multiplier[group, labels]


def _separate_moments(features, weights, constant):
    """Weighted means and scales and the centered features, each column's
    sums overflowing into the scaled form."""
    total = weights.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        means = (weights @ features) / total
        centered = features - means
        scales = np.sqrt((weights @ (centered * centered)) / total)
    huge = ~np.isfinite(scales)
    if huge.any():
        m = np.abs(features[:, huge]).max(axis=0)
        scaled = features[:, huge] / m
        mean = (weights @ scaled) / total
        scaled -= mean
        means[huge] = m * mean
        scales[huge] = m * np.sqrt((weights @ (scaled * scaled)) / total)
        with np.errstate(over="ignore", invalid="ignore"):
            centered[:, huge] = features[:, huge] - means[huge]
    means[constant] = features[0, constant]
    centered[:, constant] = 0.0
    scales[constant] = 1.0
    scales[scales <= 0.0] = 1.0
    return means, scales, centered


def _separate_loss(coefficients, intercept, z, labels, weights, l2_penalty, zero=False):
    """Loss, stacked gradient and probabilities with the intercept apart
    from the coefficients; ``zero`` fills the start's rows."""
    if zero:
        ce, p = np.full(labels.shape[0], np.log1p(1.0)), np.full(labels.shape[0], 0.5)
    else:
        margins = z @ coefficients + intercept
        e = np.abs(margins)
        np.exp(np.negative(e, out=e), out=e)
        p = _sigmoid_from_exp(margins, e)
        ce = np.maximum(np.where(labels == 1.0, -margins, margins), 0.0)
        ce += np.log1p(e, out=e)
    loss = float(weights @ ce + l2_penalty * (coefficients @ coefficients))
    residual = (p - labels) * weights
    grad = np.append(z.T @ residual + 2.0 * l2_penalty * coefficients, residual.sum())
    return loss, grad, p


def separate_products_fit(train: Dataset, weights, config: TrainConfig = TrainConfig()) -> ModelParams:
    """``model.fit`` as it ran on gathered columns z: the feature block of
    the Newton system from z alone, by the same shape rule on (rows,
    columns of z), its intercept row and corner from ``s @ z`` and
    ``s.sum()``, and the intercept's gradient from ``residual.sum()``."""
    import multifair.model

    first, cell = train.cells
    features, y = train.features[first], train.float_labels[first]
    w = np.bincount(cell, weights=weights.values, minlength=first.shape[0])
    constant = train.constant_columns
    means, scales, centered = _separate_moments(features, w, constant)
    active = np.flatnonzero(~constant)
    z = _standardized(centered[:, active], features, active, means[active], scales[active])
    k = active.shape[0]
    hessian = np.empty((k + 1, k + 1))
    diagonal = hessian.reshape(-1)[:: k + 2]
    x = np.zeros(k + 1)
    loss, grad, p = _separate_loss(x[:k], 0.0, z, y, w, config.l2_penalty, zero=True)
    for n_iter in range(config.max_iterations + 1):
        grad_max = np.abs(grad).max()
        converged = bool(grad_max < config.gradient_tolerance * w.sum())
        if converged or n_iter == config.max_iterations:
            break
        s = w * p
        s *= 1.0 - p
        if z.shape[0] * k * k <= multifair.model._SYRK_WORK:
            hessian[:k, :k] = z.T @ (s[:, None] * z)
        else:
            r = np.sqrt(s)[:, None] * z
            hessian[:k, :k] = r.T @ r
        hessian[:k, k] = hessian[k, :k] = s @ z
        hessian[k, k] = s.sum()
        floor = 1e-10 * diagonal.max()
        diagonal[:k] += floor + 2.0 * config.l2_penalty
        diagonal[k] += floor
        step = np.linalg.solve(hessian, grad)
        decrease = 1e-4 * float(grad @ step)
        t = 1.0
        while decrease > 0.0 and t >= 1e-10:
            candidate = x - t * step
            cand_loss, cand_grad, cand_p = _separate_loss(candidate[:k], candidate[k], z, y, w, config.l2_penalty)
            if cand_loss <= loss - t * decrease:
                break
            within_rounding = abs(cand_loss - loss) <= 8.0 * np.finfo(np.float64).eps * abs(loss)
            if within_rounding and np.abs(cand_grad).max() < grad_max:
                break
            t *= 0.5
        else:
            break
        x, loss, grad, p = candidate, cand_loss, cand_grad, cand_p
    coefficients = np.zeros(train.n_cols)
    coefficients[active] = x[:k]
    return ModelParams(train.column_names, coefficients, float(x[k]), means, scales, converged, n_iter)
