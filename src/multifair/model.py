"""Weighted logistic regression trained by damped Newton (IRLS).

The fit minimizes

    L(theta, b) = sum_i w_i * CE(sigmoid(z_i theta + b), y_i) + l2 * ||theta||^2

over weight-standardized features z (so zero-weight rows influence
nothing and constant columns keep coefficient exactly 0).  Each iteration
solves the (d+1)x(d+1) Newton system and backtracks on the loss (Armijo),
so the loss never increases beyond its rounding: where a candidate's loss
is within rounding of the current one, the smaller gradient decides.  The
Hessian's feature block z.T diag(s) z comes from whichever of two BLAS
products is faster for its shape, a choice made from (rows, columns)
alone, so a fit is still reproducible (see :func:`_hessian_block`).  The
method starts from zero parameters, uses no randomness, and is
bit-reproducible on a fixed platform.  The fit converges when
max|dL| / sum_i w_i < gradient_tolerance: the tolerance is per unit of
weight mass, so it does not depend on the row count or on the scale of
the weights.  Each row's cross-entropy is one softplus of v = +-z, taken
as max(v, 0) + log1p(exp(-|z|)) with the exponential the sigmoid also
uses (see :func:`weighted_loss_and_gradient`).

Every term of L, its derivatives and the standardization is a sum over
rows of a function of the row's (features, label), so the fit runs on the
distinct (feature row, label) cells of :attr:`Dataset.cells`, each weighted
by the sum of its rows' weights.  The objective is the same; only the order
of summation differs.  A dataset without repeated rows is its own cells
and fits bit for bit as a row-level fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _read_only
from .errors import ConfigError, DataError, check_fields
from .reweighting import SampleWeights

# Two losses this close (relative) differ by rounding only
_LOSS_ROUNDING = 8.0 * np.finfo(np.float64).eps

# The Hessian block's work n * k * k (rows times squared columns) above
# which the symmetric rank-k update beats the general product; measured by
# scripts/hessian_crossover.py with single-threaded OpenBLAS 0.3.31, where
# the ratio crosses 1 between about 1e6 and 2e6
_SYRK_WORK = 1 << 20


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
        check_fields(self)
        # json reads NaN and Infinity; NaN fails every comparison.  The
        # gradient takes 2 * l2_penalty, so that must be finite too; a
        # Python float bound compares exactly with an integer of any size
        if not 0.0 <= self.l2_penalty <= np.finfo(np.float64).max.item() / 2:
            raise ConfigError(f"l2_penalty must be finite and non-negative, as must twice it, got {self.l2_penalty!r}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive")
        if not 0.0 < self.gradient_tolerance < np.inf:
            raise ConfigError(f"gradient_tolerance must be finite and positive, got {self.gradient_tolerance!r}")


@dataclass(frozen=True)
class ModelParams:
    """Fitted coefficients plus the standardization applied at fit time.

    Coefficients, means and scales given as float64 arrays are not copied:
    the model keeps a read-only view of each, which stays writable to its
    owner.
    """

    feature_names: tuple[str, ...]
    coefficients: np.ndarray
    intercept: float
    means: np.ndarray
    scales: np.ndarray
    converged: bool
    n_iter: int

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        for name in ("coefficients", "means", "scales"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (len(self.feature_names),):
                raise DataError(f"{name} must be 1-D with one entry per feature name")
            if not np.isfinite(arr).all():
                raise DataError(f"{name} must be finite")
            object.__setattr__(self, name, _read_only(arr))
        if not (self.scales > 0.0).all():
            raise DataError("scales must be positive")

    @property
    def n_cols(self) -> int:
        return self.coefficients.shape[0]


def _sigmoid(z):
    """Logistic function in the stable form: exp only ever sees -|z|, so no
    input overflows."""
    return _sigmoid_from_exp(z, np.exp(-np.abs(z)))


def _sigmoid_from_exp(z, e):
    """sigmoid(z) given ``e = exp(-|z|)``: 1 / (1 + e) where z >= 0, else
    e / (1 + e)."""
    p = np.where(z >= 0.0, 1.0, e)
    p /= 1.0 + e
    return p


def weighted_loss_and_gradient(coefficients, intercept, features, labels, weights, l2_penalty):
    """Weighted cross-entropy loss with L2 on the coefficients, its
    analytic gradient (d/dcoefficients, d/dintercept), and the predicted
    probabilities sigmoid(features @ coefficients + intercept).

    ``labels`` must be exactly 0 or 1: the cross-entropy
    y*softplus(-z) + (1-y)*softplus(z) is then one softplus, of v = -z
    where y = 1 and of v = z where y = 0.  softplus(v) is taken as
    max(v, 0) + log1p(exp(-|v|)), which never overflows, and |v| = |z|,
    so the one exponential exp(-|z|) serves the loss and the sigmoid.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    z = features @ coefficients + intercept
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    p = _sigmoid_from_exp(z, e)
    ce = np.maximum(np.where(labels == 1.0, -z, z), 0.0)
    ce += np.log1p(e, out=e)
    return _loss_and_gradient(coefficients, features, labels, weights, l2_penalty, ce, p)


def _loss_and_gradient(coefficients, features, labels, weights, l2_penalty, ce, p):
    """weighted_loss_and_gradient from each row's cross-entropy ``ce`` and
    probability ``p``."""
    loss = float(weights @ ce + l2_penalty * (coefficients @ coefficients))
    residual = p - labels
    residual *= weights
    grad_coef = features.T @ residual + 2.0 * l2_penalty * coefficients
    grad_intercept = float(residual.sum())
    return loss, grad_coef, grad_intercept, p


def _loss_and_gradient_at_zero(features, labels, weights, l2_penalty):
    """weighted_loss_and_gradient at zero coefficients and intercept, bit
    for bit, with no margins formed: every margin ``features @ 0 + 0.0`` is
    +0, so each row's cross-entropy is exactly log1p(exp(-0)) = log1p(1)
    and its probability exactly 1/2.  The arguments are float64 arrays."""
    n = labels.shape[0]
    ce, p = np.full(n, np.log1p(1.0)), np.full(n, 0.5)
    return _loss_and_gradient(np.zeros(features.shape[1]), features, labels, weights, l2_penalty, ce, p)


def _standardization(features: np.ndarray, weights: np.ndarray, constant: np.ndarray):
    """Weighted per-column mean and scale, and the centered features
    ``features - means`` in one new array.

    Exactly constant columns (the mask ``constant``, see
    :attr:`Dataset.constant_columns`) get mean = the constant and scale 1,
    so the standardized column is identically zero and its coefficient
    never moves off 0.  Columns with no weighted variation likewise get
    scale 1.  A column whose sums overflow (finite values beyond about
    1e154) gets its mean and scale in scaled form; every other column's
    are unchanged, bit for bit.  A column whose mean is so replaced is
    centered again on the new mean.
    """
    total = weights.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        means = (weights @ features) / total
        centered = features - means
        scales = np.sqrt((weights @ (centered * centered)) / total)
    huge = ~np.isfinite(scales)
    if huge.any():
        # The same moments of x / m, m = max |x|, scaled back by m: both lie
        # within [-m, m], so neither overflows
        m = np.abs(features[:, huge]).max(axis=0)
        scaled = features[:, huge] / m
        mean = (weights @ scaled) / total
        scaled -= mean
        means[huge] = m * mean
        scales[huge] = m * np.sqrt((weights @ (scaled * scaled)) / total)
        with np.errstate(over="ignore", invalid="ignore"):
            centered[:, huge] = features[:, huge] - means[huge]
    means[constant] = features[0, constant]
    centered[:, constant] = 0.0  # x - x
    scales[constant] = 1.0
    scales[scales <= 0.0] = 1.0
    return means, scales, centered


def _standardized(z: np.ndarray, features: np.ndarray, columns, means: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """``z`` divided by ``scales`` in place, where ``z`` holds
    ``features[:, columns] - means`` for an index array or a slice
    ``columns`` and the columns' ``means`` and ``scales``; these may carry
    leading axes (one entry per model), which ``z`` then carries before its
    row axis.

    The quotient is taken in place, the same IEEE operation as the
    formula, so every entry that does not overflow keeps its bits.  A
    column with an entry that does overflow (its values lie further apart
    than the largest double) is computed as ``x / scale - mean / scale``
    instead, for each model on its own.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z /= scales[..., None, :]
        # An overflowed entry makes the sum inf or nan (a sum of finite
        # entries may overflow too, and then no column is redone); unlike
        # np.isfinite(z) it makes no mask as large as z
        overflowed = not np.isfinite(z.sum())
    if overflowed:
        x = features[:, columns]
        for *stack, j in np.argwhere(~np.isfinite(z).all(axis=-2)).tolist():
            mean, scale = means[(*stack, j)], scales[(*stack, j)]
            z[(*stack, slice(None), j)] = x[:, j] / scale - mean / scale
    return z


def _hessian_block(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``z.T @ diag(s) @ z`` for n x k ``z`` and non-negative ``s``.

    Narrow systems (work n * k * k at most ``_SYRK_WORK``) take the general
    product ``z.T @ (s[:, None] * z)``, which BLAS ``dgemm`` runs through
    its small-matrix path about twice as fast on the grid's 3200 x 7 fits.
    Wider ones scale the rows by ``sqrt(s)`` and take ``r.T @ r``, which
    numpy hands to ``dsyrk`` (same operand transposed), faster there.  The
    two differ in rounding only, and the choice reads the shape, never a
    timing, so a given problem always takes the same path.  The general
    product's (i, j) and (j, i) entries may round apart; the Newton solve
    is a general LU, which does not need the block exactly symmetric.
    """
    n, k = z.shape
    if n * k * k <= _SYRK_WORK:
        return z.T @ (s[:, None] * z)
    r = np.sqrt(s)[:, None] * z
    return r.T @ r


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
    # The fit runs on the distinct (feature row, label) cells, each carrying
    # its rows' summed weight (see the module docstring)
    first, cell = train.cells
    if first.shape[0] == train.n_rows:  # every row is its own cell
        features, y, w = train.features, train.float_labels, weights.values
    else:
        features = np.take(train.features, first, axis=0)
        y = np.take(train.float_labels, first)
        w = np.bincount(cell, weights=weights.values, minlength=first.shape[0])
    # With non-negative weights, a class's mass is zero exactly when its dot product is
    if w @ y <= 0.0 or w @ (1.0 - y) <= 0.0:
        raise DataError("single-class training labels (one class has zero weight mass)")

    constant = train.constant_columns
    means, scales, centered = _standardization(features, w, constant)
    # Exactly constant columns standardize to 0; leaving them out of the
    # solve keeps their coefficients bit-exact 0.
    active = np.flatnonzero(~constant)
    # The index array gathers a column-major copy, the layout the products
    # below have always summed in
    z = _standardized(centered[:, active], features, active, means[active], scales[active])
    del centered  # n x d, not needed by the Newton loop
    k = active.shape[0]

    def stacked(loss, grad_coef, grad_b, p):
        """The loss, the gradient as one (k+1)-vector, and the probabilities."""
        grad = np.empty(k + 1)
        grad[:k], grad[k] = grad_coef, grad_b
        return loss, grad, p

    hessian = np.empty((k + 1, k + 1))  # every iteration overwrites it
    diagonal = hessian.reshape(-1)[:: k + 2]  # a view
    tolerance = config.gradient_tolerance * w.sum()
    x = np.zeros(k + 1)
    # p: the probabilities at x, reused by the Hessian
    loss, grad, p = stacked(*_loss_and_gradient_at_zero(z, y, w, config.l2_penalty))
    for n_iter in range(config.max_iterations + 1):
        grad_max = np.abs(grad).max()
        converged = bool(grad_max < tolerance)
        if converged or n_iter == config.max_iterations:
            break
        s = w * p
        s *= 1.0 - p  # w * p * (1 - p)
        # gemm for narrow systems, dsyrk for wide ones (see _hessian_block)
        hessian[:k, :k] = _hessian_block(z, s)
        hessian[:k, k] = hessian[k, :k] = s @ z
        hessian[k, k] = s.sum()
        # A relative floor on the curvature bounds the step where collinear
        # columns (both sides of a one-hot pair) leave an unpenalized
        # Hessian numerically singular; it changes the steps, not the optimum.
        floor = 1e-10 * diagonal.max()
        diagonal[:k] += floor + 2.0 * config.l2_penalty
        diagonal[k] += floor
        step = np.linalg.solve(hessian, grad)
        decrease = 1e-4 * float(grad @ step)  # Armijo sufficient decrease per unit step
        t = 1.0
        while decrease > 0.0 and t >= 1e-10:
            candidate = x - t * step
            cand_loss, cand_grad, cand_p = stacked(*weighted_loss_and_gradient(
                candidate[:k], candidate[k], z, y, w, config.l2_penalty))
            if cand_loss <= loss - t * decrease:
                break
            # Within the loss's rounding the Armijo test is decided by that
            # rounding, so the smaller gradient decides instead
            within_rounding = abs(cand_loss - loss) <= _LOSS_ROUNDING * abs(loss)
            if within_rounding and np.abs(cand_grad).max() < grad_max:
                break
            t *= 0.5
        else:
            break  # numerically flat: no step along the Newton direction lowers the loss
        x, loss, grad, p = candidate, cand_loss, cand_grad, cand_p
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
    standardization: the one-model case of :func:`stacked_predict_scores`."""
    return stacked_predict_scores([model], data)[0]


def stacked_predict_scores(models, data: Dataset) -> np.ndarray:
    """Each model's :func:`predict_scores` on ``data``, one row per model,
    from one stacked standardize, product, sigmoid and clip.

    Every step is elementwise but the product, and a stacked ``matmul``
    with a trailing vector takes one matrix-vector product per model, so
    each row is bit for bit the model's scores computed on their own.
    """
    for model in models:
        if data.n_cols != model.n_cols:
            raise DataError(
                f"column count mismatch: model fit on {model.n_cols}, data has {data.n_cols}"
            )
        if data.column_names != model.feature_names:
            i = next(i for i, (a, b) in enumerate(zip(model.feature_names, data.column_names)) if a != b)
            raise DataError(f"column name mismatch: model column {i} is {model.feature_names[i]!r}, "
                            f"data has {data.column_names[i]!r}")
    means = np.array([model.means for model in models])
    scales = np.array([model.scales for model in models])
    with np.errstate(over="ignore", invalid="ignore"):
        z = data.features - means[:, None, :]
    z = _standardized(z, data.features, slice(None), means, scales)
    margins = np.matmul(z, np.array([model.coefficients for model in models])[:, :, None])[..., 0]
    margins += np.array([model.intercept for model in models])[:, None]
    return np.clip(_sigmoid(margins), 1e-12, 1.0 - 1e-12)
