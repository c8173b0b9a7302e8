"""Weighted logistic regression trained by damped Newton (IRLS).

The fit minimizes

    L(theta, b) = sum_i w_i * CE(sigmoid(z_i theta + b), y_i) + l2 * ||theta||^2

over weight-standardized features z (so zero-weight rows influence
nothing and constant columns keep coefficient exactly 0).  It works on one
column-major design ``[z | 1]``, the ones column last, built in one pass
that also gives the weighted means and scales (see :func:`_design`): with
x = (theta, b), the margins are one matrix-vector product, design @ x, and
so is the whole gradient.  Each iteration solves the (k+1)x(k+1) Newton
system and backtracks on the loss (Armijo), so the loss never increases
beyond its rounding: where a candidate's loss is within rounding of the
current one, the smaller gradient decides.  The whole system
design.T diag(s) design comes from one BLAS product, whichever of two is
faster for its shape, a choice made from (rows, columns) alone, so a fit
is still reproducible (see :func:`_hessian_block`).  The method starts
from zero parameters, uses no randomness, and is bit-reproducible on a
fixed platform.  The fit converges when max|dL| / sum_i w_i <
gradient_tolerance: the tolerance is per unit of weight mass, so it does
not depend on the row count or on the scale of the weights.  Each row's
cross-entropy is one softplus of v = +-z, taken as max(v, 0) +
log1p(exp(-|z|)) with the exponential the sigmoid also uses (see
:func:`weighted_loss_and_gradient`).

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

# The Newton system's work n * m * m (rows times squared design columns)
# above which the symmetric rank-k update beats the general product;
# measured by scripts/hessian_crossover.py on the design [z | 1] with
# single-threaded OpenBLAS 0.3.31, where the ratio crosses 1 between about
# 1e6 and 1.7e6
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


def weighted_loss_and_gradient(x, design, labels, sign, weights, penalty):
    """Weighted cross-entropy loss with a quadratic penalty, its gradient
    and the predicted probabilities, at the parameters ``x`` of the n x m
    ``design``: the margins are ``design @ x`` and the probabilities their
    sigmoid.  Returns (loss, gradient m-vector, probabilities).

    The arguments are float64 arrays.  ``labels`` must be exactly 0 or 1,
    ``sign`` is ``1 - 2 * labels`` and ``penalty`` holds each coordinate's
    curvature: the loss is sum_i w_i CE_i + sum_j penalty_j x_j^2 / 2 and
    the gradient ``design.T @ (w * (p - y)) + penalty * x``.  ``fit`` passes
    its design ``[z | 1]``, with penalty 2 * l2_penalty on the coefficients
    and 0 on the intercept.

    The cross-entropy y*softplus(-z) + (1-y)*softplus(z) is one softplus,
    of v = sign * z: bitwise -z where y = 1 and z where y = 0.  softplus(v)
    is taken as max(v, 0) + log1p(exp(-|v|)), which never overflows, and
    |v| = |z|, so the one exponential exp(-|z|) serves the loss and the
    sigmoid.
    """
    z = design @ x
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    p = _sigmoid_from_exp(z, e)
    ce = np.maximum(sign * z, 0.0)
    ce += np.log1p(e, out=e)
    ridge = penalty * x
    residual = p - labels
    residual *= weights
    grad = residual @ design
    grad += ridge
    return float(weights @ ce + 0.5 * (ridge @ x)), grad, p


# fit evaluates its start through this second name and each line-search
# candidate through the module global, so that a wrapper over the global
# (the benchmark's loss-evaluation count) sees one call per candidate
_start_loss = weighted_loss_and_gradient


def _design(features: np.ndarray, weights: np.ndarray, constant: np.ndarray):
    """The fit's design ``[z | 1]`` and every column's weighted mean and
    scale.

    The design is n x (k+1) and column-major: its first k columns are the
    columns of ``features`` outside the mask ``constant`` (see
    :attr:`Dataset.constant_columns`), centered on their means and divided
    by their scales, and its last column is ones.  Exactly constant columns
    get mean = the constant and scale 1 and no design column, so their
    coefficients stay exactly 0.  Columns with no weighted variation get
    scale 1.  The columns are centered into the design as they are
    gathered, and their moments read from it there.  A column whose sums
    overflow (finite values beyond about 1e154) gets its moments in scaled
    form, and one whose entry overflows its column as
    ``x / scale - mean / scale`` (:func:`_standardized`); every other
    column keeps its bits.
    """
    active = np.flatnonzero(~constant)
    k = active.shape[0]
    design = np.empty((features.shape[0], k + 1), order="F")
    design[:, k] = 1.0
    z = design[:, :k]
    total = weights.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        means = (weights @ features) / total
        np.subtract(features[:, active], means[active], out=z)
        scale = np.sqrt((weights @ np.square(z)) / total)
    huge = ~np.isfinite(scale)
    if huge.any():
        # The same moments of x / m, m = max |x|, scaled back by m: both lie
        # within [-m, m], so neither overflows; the column is centered again
        columns = active[huge]
        x = features[:, columns]
        m = np.abs(x).max(axis=0)
        scaled = x / m
        mean = (weights @ scaled) / total
        scaled -= mean
        means[columns] = m * mean
        scale[huge] = m * np.sqrt((weights @ (scaled * scaled)) / total)
        with np.errstate(over="ignore", invalid="ignore"):
            z[:, huge] = x - means[columns]
    scale[scale <= 0.0] = 1.0
    _standardized(z, features, active, means[active], scale)
    means[constant] = features[0, constant]
    scales = np.ones(features.shape[1])
    scales[active] = scale
    return design, means, scales


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


def _hessian_block(design: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``design.T @ diag(s) @ design`` for n x m ``design`` and non-negative
    ``s``: for fit's ``[z | 1]``, the whole (k+1) x (k+1) Newton system
    before its diagonal terms.

    Narrow systems (work n * m * m at most ``_SYRK_WORK``) take the general
    product ``design.T @ (s[:, None] * design)``, which BLAS ``dgemm`` runs
    through its small-matrix path about twice as fast on the grid's 3200 x
    8 fits.  Wider ones scale the rows by ``sqrt(s)`` and take ``r.T @ r``,
    which numpy hands to ``dsyrk`` (same operand transposed), faster there.
    The two differ in rounding only, and the choice reads the shape, never
    a timing, so a given problem always takes the same path.  The general
    product's (i, j) and (j, i) entries may round apart; the Newton solve
    is a general LU, which does not need the system exactly symmetric.
    """
    n, m = design.shape
    if n * m * m <= _SYRK_WORK:
        return design.T @ (s[:, None] * design)
    r = np.sqrt(s)[:, None] * design
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
    design, means, scales = _design(features, w, constant)
    k = design.shape[1] - 1
    sign = 1.0 - 2.0 * y
    # The penalty's curvature: 2 * l2 on each coefficient, none on the intercept
    penalty = np.full(k + 1, 2.0 * config.l2_penalty)
    penalty[k] = 0.0
    tolerance = config.gradient_tolerance * w.sum()
    x = np.zeros(k + 1)
    # p: the probabilities at x, reused by the Hessian
    loss, grad, p = _start_loss(x, design, y, sign, w, penalty)
    for n_iter in range(config.max_iterations + 1):
        grad_max = np.abs(grad).max()
        converged = bool(grad_max < tolerance)
        if converged or n_iter == config.max_iterations:
            break
        s = w * p
        s *= 1.0 - p  # w * p * (1 - p)
        # gemm for narrow systems, dsyrk for wide ones (see _hessian_block)
        hessian = _hessian_block(design, s)
        diagonal = hessian.reshape(-1)[:: k + 2]  # a view
        # A relative floor on the curvature bounds the step where collinear
        # columns (both sides of a one-hot pair) leave an unpenalized
        # Hessian numerically singular; it changes the steps, not the optimum.
        diagonal += penalty + 1e-10 * diagonal.max()
        step = np.linalg.solve(hessian, grad)
        decrease = 1e-4 * float(grad @ step)  # Armijo sufficient decrease per unit step
        t = 1.0
        while decrease > 0.0 and t >= 1e-10:
            candidate = x - t * step
            cand_loss, cand_grad, cand_p = weighted_loss_and_gradient(candidate, design, y, sign, w, penalty)
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
    coefficients[~constant] = x[:k]
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
