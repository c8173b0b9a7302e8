"""Weighted logistic regression trained by damped Newton (IRLS).

The fit minimizes

    L(theta, b) = sum_i w_i * CE(sigmoid(z_i theta + b), y_i) + l2 * ||theta||^2

over weight-standardized features z (so zero-weight rows influence
nothing and constant columns keep coefficient exactly 0).  Each iteration
solves the (d+1)x(d+1) Newton system and backtracks on the loss (Armijo),
so the loss never increases; the method starts from zero parameters, uses
no randomness, and is bit-reproducible on a fixed platform.  The fit
converges when max|dL| / sum_i w_i < gradient_tolerance: the tolerance is
per unit of weight mass, so it does not depend on the row count or on the
scale of the weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError
from .reweighting import SampleWeights


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; the defaults suit datasets up to Adult scale.

    ``seed`` is kept for config compatibility: the optimizer starts from
    zero parameters and uses no randomness.
    """

    l2_penalty: float = 1e-4
    max_iterations: int = 500
    gradient_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.l2_penalty < 0:
            raise DataError("l2_penalty must be non-negative")
        if self.max_iterations < 1:
            raise DataError("max_iterations must be positive")
        if self.gradient_tolerance <= 0:
            raise DataError("gradient_tolerance must be positive")


@dataclass(frozen=True)
class ModelParams:
    """Fitted coefficients plus the standardization applied at fit time."""

    feature_names: tuple[str, ...]
    coefficients: np.ndarray
    intercept: float
    means: np.ndarray
    scales: np.ndarray
    converged: bool
    n_iter: int

    def __post_init__(self):
        for name in ("coefficients", "means", "scales"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise DataError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_cols(self) -> int:
        return self.coefficients.shape[0]


def _sigmoid(z):
    """Logistic function in the stable form: exp only ever sees -|z|, so no
    input overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def weighted_loss_and_gradient(coefficients, intercept, features, labels, weights, l2_penalty):
    """Weighted cross-entropy loss with L2 on the coefficients, and its
    analytic gradient (d/dcoefficients, d/dintercept).

    Uses log1p/exp-free softplus via logaddexp for numerical stability.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    z = features @ coefficients + intercept
    # CE_i = y*softplus(-z) + (1-y)*softplus(z)
    ce = labels * np.logaddexp(0.0, -z) + (1.0 - labels) * np.logaddexp(0.0, z)
    loss = float(weights @ ce + l2_penalty * (coefficients @ coefficients))
    residual = weights * (_sigmoid(z) - labels)
    grad_coef = features.T @ residual + 2.0 * l2_penalty * coefficients
    grad_intercept = float(residual.sum())
    return loss, grad_coef, grad_intercept


def _standardization(features: np.ndarray, weights: np.ndarray):
    """Weighted per-column mean and scale.

    Exactly constant columns get mean = the constant and scale 1, so the
    standardized column is identically zero and its coefficient never
    moves off 0.  Columns with no weighted variation likewise get scale 1.
    """
    total = weights.sum()
    means = (weights @ features) / total
    centered = features - means
    variances = (weights @ (centered * centered)) / total
    scales = np.sqrt(variances)
    constant = np.ptp(features, axis=0) == 0.0
    means[constant] = features[0, constant]
    scales[constant] = 1.0
    scales[scales <= 0.0] = 1.0
    return means, scales


def fit(train: Dataset, weights: SampleWeights, config: TrainConfig = TrainConfig()) -> ModelParams:
    """Train weighted logistic regression on ``train`` by damped Newton
    from zero parameters.

    Raises DataError when the weights are misaligned or when either class
    carries zero weight mass (a single-class problem has no finite
    cross-entropy optimum of interest).
    """
    if len(weights) != train.n_rows:
        raise DataError("weights not row-aligned with the training data")
    if train.n_rows < 2:
        raise DataError("need at least 2 training rows")
    w = weights.values
    y = train.labels.astype(np.float64)
    if w[train.labels == 1].sum() <= 0.0 or w[train.labels == 0].sum() <= 0.0:
        raise DataError("single-class training labels (one class has zero weight mass)")

    means, scales = _standardization(train.features, w)
    # Exactly constant columns standardize to 0; leaving them out of the
    # solve keeps their coefficients bit-exact 0.
    active = np.flatnonzero(np.ptp(train.features, axis=0) > 0.0)
    z = (train.features[:, active] - means[active]) / scales[active]
    k = active.shape[0]

    def loss_grad(params):
        loss, grad_coef, grad_b = weighted_loss_and_gradient(
            params[:k], params[k], z, y, w, config.l2_penalty
        )
        return loss, np.append(grad_coef, grad_b)

    x = np.zeros(k + 1)
    loss, grad = loss_grad(x)
    for n_iter in range(config.max_iterations + 1):
        converged = bool(np.abs(grad).max() < config.gradient_tolerance * w.sum())
        if converged or n_iter == config.max_iterations:
            break
        p = _sigmoid(z @ x[:k] + x[k])
        s = w * p * (1.0 - p)
        r = np.sqrt(s)[:, None] * z
        hessian = np.empty((k + 1, k + 1))
        hessian[:k, :k] = r.T @ r  # same operand transposed: a symmetric rank-k update
        hessian[:k, k] = hessian[k, :k] = s @ z
        hessian[k, k] = s.sum()
        # A relative floor on the curvature bounds the step where collinear
        # columns (both sides of a one-hot pair) leave an unpenalized
        # Hessian numerically singular; it changes the steps, not the optimum.
        ridge = np.full(k + 1, 1e-10 * hessian.diagonal().max())
        ridge[:k] += 2.0 * config.l2_penalty
        hessian[np.diag_indices(k + 1)] += ridge
        step = np.linalg.solve(hessian, grad)
        decrease = 1e-4 * float(grad @ step)  # Armijo sufficient decrease per unit step
        t = 1.0
        while decrease > 0.0 and t >= 1e-10:
            candidate = x - t * step
            cand_loss, cand_grad = loss_grad(candidate)
            if cand_loss <= loss - t * decrease:
                break
            t *= 0.5
        else:
            break  # numerically flat: no step along the Newton direction lowers the loss
        x, loss, grad = candidate, cand_loss, cand_grad
    coefficients = np.zeros(train.n_cols)
    coefficients[active] = x[:k]
    return ModelParams(
        feature_names=train.column_names,
        coefficients=coefficients,
        intercept=float(x[k]),
        means=means,
        scales=scales,
        converged=converged,
        n_iter=n_iter,
    )


def predict_scores(model: ModelParams, data: Dataset) -> np.ndarray:
    """Sigmoid scores in (0, 1) for each row, applying the stored
    standardization."""
    if data.n_cols != model.n_cols:
        raise DataError(
            f"column count mismatch: model fit on {model.n_cols}, data has {data.n_cols}"
        )
    z = ((data.features - model.means) / model.scales) @ model.coefficients + model.intercept
    return np.clip(_sigmoid(z), 1e-12, 1.0 - 1e-12)


def save_model(model: ModelParams, path) -> None:
    """Audit-friendly JSON serialization of the fitted parameters."""
    payload = {
        "feature_names": list(model.feature_names),
        "coefficients": model.coefficients.tolist(),
        "intercept": model.intercept,
        "means": model.means.tolist(),
        "scales": model.scales.tolist(),
        "converged": model.converged,
        "n_iter": model.n_iter,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_model(path) -> ModelParams:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return ModelParams(
        feature_names=tuple(payload["feature_names"]),
        coefficients=np.array(payload["coefficients"], dtype=np.float64),
        intercept=float(payload["intercept"]),
        means=np.array(payload["means"], dtype=np.float64),
        scales=np.array(payload["scales"], dtype=np.float64),
        converged=bool(payload["converged"]),
        n_iter=int(payload["n_iter"]),
    )
