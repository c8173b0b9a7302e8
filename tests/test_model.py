import decimal
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import minimize
from scipy.special import expit

import multifair.data
import multifair.model
import oracles
from conftest import REPO_ROOT
from multifair.data import (
    Dataset, SplitSpec, _constant_columns, binarize_by_mean, binarize_by_threshold, load_csv,
    set_privileged, split,
)
from multifair.errors import ConfigError, DataError
from multifair.experiment import DatasetConfig, ExperimentConfig, compute_training_weights
from multifair.metrics import PredictionSet, auroc, evaluate_fairness
from multifair.model import (
    ModelParams,
    TrainConfig,
    _hessian_block,
    _loss_and_gradient_at_zero,
    _sigmoid,
    _standardization,
    fit,
    predict_scores,
    stacked_predict_scores,
    weighted_loss_and_gradient,
)
from multifair.reweighting import SampleWeights


def separable_toy(n_per_side=12, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.normal(-2.0, 0.3, (n_per_side, 2))
    hi = rng.normal(2.0, 0.3, (n_per_side, 2))
    features = np.vstack([lo, hi])
    labels = np.array([0] * n_per_side + [1] * n_per_side)
    return Dataset(features, labels, ("x0", "x1"))


def random_problem(rng, n, d):
    features = rng.standard_normal((n, d))
    true = rng.standard_normal(d)
    labels = rng.binomial(1, 1.0 / (1.0 + np.exp(-(features @ true))))
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == len(labels):
        labels[0] = 0
    weights = SampleWeights(rng.uniform(0.1, 3.0, n))
    return Dataset(features, labels, tuple(f"c{i}" for i in range(d))), weights


class TestFit:
    def test_separable_toy_perfect_training_accuracy(self):
        ds = separable_toy()
        model = fit(ds, SampleWeights.unit(ds.n_rows), TrainConfig(l2_penalty=1e-4))
        predictions = (predict_scores(model, ds) >= 0.5).astype(int)
        assert (predictions == ds.labels).mean() == 1.0

    def test_doubling_weights_with_coscaled_penalty_identical(self):
        # doubling both the weights and l2 scales the whole loss by 2:
        # the argmin (and the optimizer path) is unchanged
        ds = separable_toy(seed=3)
        base = fit(ds, SampleWeights.unit(ds.n_rows),
                   TrainConfig(l2_penalty=1e-4, max_iterations=5000, gradient_tolerance=1e-12))
        co = fit(ds, SampleWeights(np.full(ds.n_rows, 2.0)),
                 TrainConfig(l2_penalty=2e-4, max_iterations=5000, gradient_tolerance=1e-12))
        np.testing.assert_allclose(predict_scores(base, ds), predict_scores(co, ds), atol=1e-9)

    def test_doubling_weights_barely_moves_predictions(self):
        # with a fixed small penalty the data term dominates and the argmin
        # barely moves; on a separable toy, shrinking the penalty drives the
        # disagreement to zero
        rng = np.random.default_rng(9)
        n = 400
        features = rng.standard_normal((n, 4))
        labels = rng.binomial(1, 1.0 / (1.0 + np.exp(-features @ np.array([1.0, -0.5, 0.3, 0.0]))))
        ds = Dataset(features, labels, ("a", "b", "c", "d"))
        config = TrainConfig(l2_penalty=1e-4, max_iterations=20000, gradient_tolerance=1e-12)
        base = fit(ds, SampleWeights.unit(n), config)
        doubled = fit(ds, SampleWeights(np.full(n, 2.0)), config)
        np.testing.assert_allclose(
            predict_scores(base, ds), predict_scores(doubled, ds), atol=1e-6
        )

    def test_doubling_weights_separable_disagreement_vanishes_with_penalty(self):
        ds = separable_toy(seed=3)
        gaps = []
        for l2 in (1e-4, 1e-6, 1e-8):
            config = TrainConfig(l2_penalty=l2, max_iterations=50000, gradient_tolerance=1e-13)
            base = fit(ds, SampleWeights.unit(ds.n_rows), config)
            doubled = fit(ds, SampleWeights(np.full(ds.n_rows, 2.0)), config)
            gaps.append(np.abs(predict_scores(base, ds) - predict_scores(doubled, ds)).max())
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6

    def test_zero_weight_rows_equal_removed_rows(self):
        rng = np.random.default_rng(8)
        ds, weights = random_problem(rng, 60, 4)
        keep = rng.uniform(size=60) > 0.3
        # both classes must survive among the kept rows
        assert 0 < ds.labels[keep].sum() < keep.sum()
        zeroed = weights.values.copy()
        zeroed[~keep] = 0.0
        config = TrainConfig(max_iterations=3000, gradient_tolerance=1e-10)
        with_zeros = fit(ds, SampleWeights(zeroed), config)
        removed = fit(ds.take(np.flatnonzero(keep)), SampleWeights(weights.values[keep]), config)
        np.testing.assert_allclose(with_zeros.coefficients, removed.coefficients, atol=1e-8)
        assert with_zeros.intercept == pytest.approx(removed.intercept, abs=1e-8)
        np.testing.assert_allclose(with_zeros.means, removed.means, atol=1e-12)
        np.testing.assert_allclose(with_zeros.scales, removed.scales, atol=1e-12)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(5)
        ds, weights = random_problem(rng, 50, 3)
        a = fit(ds, weights)
        b = fit(ds, weights)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.intercept == b.intercept
        assert a.n_iter == b.n_iter

    def test_constant_column_coefficient_exactly_zero(self):
        rng = np.random.default_rng(6)
        features = np.column_stack([rng.standard_normal(40), np.full(40, 7.0)])
        labels = (features[:, 0] > 0).astype(int)
        ds = Dataset(features, labels, ("x", "const"))
        model = fit(ds, SampleWeights.unit(40))
        assert model.coefficients[1] == 0.0
        assert model.scales[1] == 1.0

    def test_single_class_rejected(self):
        ds = Dataset(np.random.default_rng(0).standard_normal((10, 2)),
                     np.ones(10, dtype=int), ("a", "b"))
        with pytest.raises(DataError, match="single-class"):
            fit(ds, SampleWeights.unit(10))

    def test_class_with_zero_weight_mass_rejected(self):
        ds = Dataset(np.random.default_rng(0).standard_normal((4, 1)),
                     np.array([0, 0, 1, 1]), ("a",))
        with pytest.raises(DataError, match="single-class"):
            fit(ds, SampleWeights(np.array([1.0, 1.0, 0.0, 0.0])))

    def test_misaligned_weights_rejected(self):
        ds = separable_toy()
        with pytest.raises(DataError, match="row-aligned"):
            fit(ds, SampleWeights.unit(ds.n_rows + 1))


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(5, 50))
            d = int(rng.integers(1, 10))
            features = rng.standard_normal((n, d))
            labels = rng.binomial(1, 0.5, n).astype(float)
            weights = rng.uniform(0.1, 2.0, n)
            coef = rng.standard_normal(d)
            intercept = float(rng.standard_normal())
            l2 = float(rng.uniform(0, 1e-2))
            _, grad_coef, grad_b, _ = weighted_loss_and_gradient(
                coef, intercept, features, labels, weights, l2
            )
            analytic = np.append(grad_coef, grad_b)
            step = 1e-5
            numeric = np.empty(d + 1)
            for k in range(d + 1):
                plus = np.append(coef, intercept)
                minus = plus.copy()
                plus[k] += step
                minus[k] -= step
                lp = weighted_loss_and_gradient(plus[:d], plus[d], features, labels, weights, l2)[0]
                lm = weighted_loss_and_gradient(minus[:d], minus[d], features, labels, weights, l2)[0]
                numeric[k] = (lp - lm) / (2 * step)
            denom = max(1.0, float(np.linalg.norm(analytic)))
            assert np.linalg.norm(analytic - numeric) / denom < 1e-5

    def test_unit_weights_reduce_to_unweighted_gradient(self):
        # oracle: closed-form gradient of plain (unweighted) cross entropy
        rng = np.random.default_rng(3)
        n, d = 30, 4
        features = rng.standard_normal((n, d))
        labels = rng.binomial(1, 0.5, n).astype(float)
        coef = rng.standard_normal(d)
        intercept = 0.3
        z = features @ coef + intercept
        p = 1.0 / (1.0 + np.exp(-z))
        plain_grad = features.T @ (p - labels)
        _, grad_coef, grad_b, _ = weighted_loss_and_gradient(
            coef, intercept, features, labels, np.ones(n), 0.0
        )
        np.testing.assert_allclose(grad_coef, plain_grad, rtol=1e-12)
        assert grad_b == pytest.approx((p - labels).sum(), rel=1e-12)


def objective(model, ds, weights, l2_penalty):
    """The fit's objective at ``model``'s parameters, in its standardized
    coordinates."""
    z = (ds.features - model.means) / model.scales
    return weighted_loss_and_gradient(
        model.coefficients, model.intercept, z, ds.labels, weights.values, l2_penalty
    )[0]


def lbfgs_scores(ds, weights, l2_penalty):
    """Test oracle: scipy's L-BFGS-B on the same objective and coordinates,
    scored on the training rows."""
    means, scales, _ = _standardization(ds.features, weights.values, _constant_columns(ds.features))
    z = (ds.features - means) / scales
    y = ds.labels.astype(np.float64)
    w = weights.values
    d = z.shape[1]

    def fun(x):
        margin = z @ x[:d] + x[d]
        loss = w @ (np.logaddexp(0.0, margin) - y * margin) + l2_penalty * (x[:d] @ x[:d])
        residual = w * (1.0 / (1.0 + np.exp(-margin)) - y)
        grad = np.append(z.T @ residual + 2.0 * l2_penalty * x[:d], residual.sum())
        return loss / w.sum(), grad / w.sum()

    result = minimize(fun, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                      options={"maxiter": 20000, "ftol": 0.0, "gtol": 1e-11})
    assert np.abs(result.jac).max() < 1e-9
    return 1.0 / (1.0 + np.exp(-(z @ result.x[:d] + result.x[d])))


class TestDescent:
    def test_loss_non_increasing(self):
        rng = np.random.default_rng(21)
        ds, weights = random_problem(rng, 80, 5)
        losses = [
            objective(fit(ds, weights, TrainConfig(max_iterations=k, gradient_tolerance=1e-14)),
                      ds, weights, 1e-4)
            for k in range(1, 9)
        ]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_reports_convergence_flag(self):
        ds = separable_toy()
        tight = fit(ds, SampleWeights.unit(ds.n_rows),
                    TrainConfig(max_iterations=5000, gradient_tolerance=1e-6))
        assert tight.converged
        starved = fit(ds, SampleWeights.unit(ds.n_rows),
                      TrainConfig(max_iterations=2, gradient_tolerance=1e-12))
        assert not starved.converged
        assert starved.n_iter == 2

    def test_matches_lbfgs_oracle(self):
        rng = np.random.default_rng(31)
        for n, d, l2 in ((200, 3, 1e-4), (500, 8, 1e-2), (120, 1, 0.0)):
            ds, weights = random_problem(rng, n, d)
            model = fit(ds, weights, TrainConfig(l2_penalty=l2, gradient_tolerance=1e-10))
            assert model.converged
            np.testing.assert_allclose(
                predict_scores(model, ds), lbfgs_scores(ds, weights, l2), atol=1e-6
            )

    def test_collinear_one_hot_without_penalty_matches_lbfgs_oracle(self):
        # both sides of a one-hot pair sum to 1, so with no penalty the
        # Hessian is singular and the coefficients are not unique, but the
        # predictions are
        rng = np.random.default_rng(32)
        n = 300
        male = rng.binomial(1, 0.6, n).astype(np.float64)
        age = rng.normal(40.0, 10.0, n)
        labels = rng.binomial(1, 1.0 / (1.0 + np.exp(-(0.8 * male + 0.05 * (age - 40.0) - 0.5))))
        ds = Dataset(np.column_stack([age, male, 1.0 - male]), labels,
                     ("age", "sex=Male", "sex=Female"))
        weights = SampleWeights(rng.uniform(0.5, 2.0, n))
        model = fit(ds, weights, TrainConfig(l2_penalty=0.0, gradient_tolerance=1e-10))
        assert model.converged
        np.testing.assert_allclose(
            predict_scores(model, ds), lbfgs_scores(ds, weights, 0.0), atol=1e-6
        )

    def test_convergence_is_scale_free(self):
        # ten copies of every row and ten times every weight are the same
        # objective; the stopping rule is per unit of weight mass, so
        # neither takes more iterations than the original rows
        rng = np.random.default_rng(33)
        ds, weights = random_problem(rng, 400, 6)
        base = fit(ds, weights)
        copies = np.tile(np.arange(ds.n_rows), 10)
        duplicated = fit(ds.take(copies), SampleWeights(weights.values[copies]))
        heavier = fit(ds, SampleWeights(10.0 * weights.values))
        assert base.converged and duplicated.converged and heavier.converged
        assert duplicated.n_iter <= base.n_iter and heavier.n_iter <= base.n_iter
        np.testing.assert_allclose(predict_scores(duplicated, ds), predict_scores(heavier, ds),
                                   atol=1e-9)
        # with the penalty unscaled, the heavier data term moves the optimum
        # only slightly
        np.testing.assert_allclose(predict_scores(heavier, ds), predict_scores(base, ds),
                                   atol=1e-5)


class TestTrainConfig:
    @pytest.mark.parametrize("key, value, noun", [
        ("max_iterations", 2.5, "an integer"),
        ("max_iterations", True, "an integer"),
        ("seed", 1.0, "an integer"),
        ("l2_penalty", True, "a number"),
        ("gradient_tolerance", "1e-6", "a number"),
    ])
    def test_bad_python_values_rejected_at_construction(self, key, value, noun):
        # a float max_iterations used to fail later, inside the fit
        with pytest.raises(ConfigError, match=rf"^'{key}' must be {noun}, got {value!r}$"):
            TrainConfig(**{key: value})

    def test_integer_penalty_is_a_number(self):
        assert TrainConfig(l2_penalty=0).l2_penalty == 0

    # twice the largest accepted penalty is the largest double
    @pytest.mark.parametrize("value", [1e308, math.nextafter(sys.float_info.max / 2, math.inf), 2**1023, 10**400])
    def test_penalty_whose_double_overflows_rejected(self, value):
        with pytest.raises(ConfigError, match=r"^l2_penalty must be finite and non-negative, as must twice it, got "):
            TrainConfig(l2_penalty=value)

    @pytest.mark.parametrize("value", [8.98e307, sys.float_info.max / 2])
    def test_largest_penalties_still_fit(self, value):
        # the penalty's gradient term stays finite, so the fit takes steps
        # and drives every coefficient to about zero
        ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 0, 1]), ("x",))
        model = fit(ds, SampleWeights.unit(4), TrainConfig(l2_penalty=value))
        assert model.converged and model.n_iter >= 1
        assert np.abs(model.coefficients).max() < 1e-300


class TestModelParams:
    def test_callers_arrays_stay_writable(self):
        coefficients, means, scales = np.zeros(2), np.zeros(2), np.ones(2)
        model = ModelParams(("a", "b"), coefficients, 0.0, means, scales, converged=True, n_iter=0)
        for name, array in (("coefficients", coefficients), ("means", means), ("scales", scales)):
            kept = getattr(model, name)
            assert np.shares_memory(kept, array), name  # a view, not a copy
            assert array.flags.writeable and not kept.flags.writeable, name

    @pytest.mark.parametrize("name, value", [
        ("coefficients", np.zeros(3)),
        ("means", np.zeros(1)),
        ("scales", np.ones(3)),
        ("coefficients", np.zeros((2, 1))),
        ("scales", np.ones((1, 2))),
    ])
    def test_arrays_need_one_entry_per_feature_name(self, name, value):
        arrays = {"coefficients": np.zeros(2), "means": np.zeros(2), "scales": np.ones(2), name: value}
        with pytest.raises(DataError, match="one entry per feature name"):
            ModelParams(("a", "b"), intercept=0.0, converged=True, n_iter=0, **arrays)

    def test_feature_names_need_one_entry_per_array_entry(self):
        with pytest.raises(DataError, match="one entry per feature name"):
            ModelParams(("a", "b", "c"), np.zeros(2), 0.0, np.zeros(2), np.ones(2), True, 0)

    @pytest.mark.parametrize("scale", [0.0, -0.0, -1.0])
    def test_scales_must_be_positive(self, scale):
        with pytest.raises(DataError, match="scales must be positive"):
            ModelParams(("a", "b"), np.zeros(2), 0.0, np.zeros(2), np.array([1.0, scale]), True, 0)


class TestPredict:
    def test_sigmoid_matches_expit_without_overflow(self):
        z = np.array([-800.0, -745.5, -40.0, -1.0, -1e-300, 0.0, 1e-300, 1.0, 40.0, 800.0])
        # RuntimeWarnings are errors in this suite, so an overflowing exp fails here
        p = _sigmoid(z)
        np.testing.assert_allclose(p, expit(z), rtol=1e-15, atol=0.0)
        assert p[0] == 0.0 and p[-1] == 1.0 and p[5] == 0.5

    def test_zero_parameters_score_half(self):
        ds = separable_toy()
        model = ModelParams(
            feature_names=ds.column_names,
            coefficients=np.zeros(2),
            intercept=0.0,
            means=np.zeros(2),
            scales=np.ones(2),
            converged=True,
            n_iter=0,
        )
        assert np.all(predict_scores(model, ds) == 0.5)

    def test_scores_increase_with_intercept(self):
        ds = separable_toy()
        previous = None
        for intercept in (0.0, 2.0, 8.0, 30.0):
            model = ModelParams(ds.column_names, np.zeros(2), intercept,
                                np.zeros(2), np.ones(2), True, 0)
            score = predict_scores(model, ds)[0]
            if previous is not None:
                assert score > previous
            previous = score
        assert previous < 1.0  # clipped into the open interval

    def test_positive_rows_score_above_half_when_separable(self):
        ds = separable_toy(seed=2)
        model = fit(ds, SampleWeights.unit(ds.n_rows))
        scores = predict_scores(model, ds)
        assert (scores[ds.labels == 1] > 0.5).all()

    def test_column_mismatch_rejected(self):
        ds = separable_toy()
        model = fit(ds, SampleWeights.unit(ds.n_rows))
        narrow = Dataset(ds.features[:, :1], ds.labels, ("x0",))
        with pytest.raises(DataError, match="column count mismatch"):
            predict_scores(model, narrow)

    @pytest.mark.parametrize("names", [("x1", "x0"), ("x0", "y")])
    def test_column_name_mismatch_rejected(self, names):
        # the same count of columns, in another order or under another name
        ds = separable_toy()
        model = fit(ds, SampleWeights.unit(ds.n_rows))
        other = Dataset(ds.features[:, ::-1], ds.labels, names)
        with pytest.raises(DataError, match="column name mismatch"):
            predict_scores(model, other)


def make_model(names, coefficients, intercept, means, scales):
    return ModelParams(names, np.array(coefficients, dtype=np.float64), intercept,
                       np.array(means, dtype=np.float64), np.array(scales, dtype=np.float64), True, 0)


@st.composite
def scoring_cases(draw):
    """Rows to score and 1-6 models for them; a model may name another
    column or have another count of columns."""
    n_rows, n_cols = draw(st.integers(1, 25)), draw(st.integers(1, 5))
    names = tuple(f"c{j}" for j in range(n_cols))
    values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, 7.0]))
    features = draw(arrays(np.float64, (n_rows, n_cols), elements=values))
    models = []
    for _ in range(draw(st.integers(1, 6))):
        model_names = draw(st.sampled_from([names, names, names, names[:-1] + ("other",), names + ("extra",)]))
        d = len(model_names)
        models.append(make_model(
            model_names,
            draw(arrays(np.float64, d, elements=st.floats(-5.0, 5.0))),
            draw(st.floats(-5.0, 5.0)),
            draw(arrays(np.float64, d, elements=st.floats(-1e3, 1e3))),
            draw(arrays(np.float64, d, elements=st.floats(1e-3, 1e3))),
        ))
    return Dataset(features, np.zeros(n_rows, dtype=int), names), models


def constant_column_case():
    """Models fit on rows with a constant column: it gets mean 7 and scale 1."""
    rng = np.random.default_rng(3)
    features = np.column_stack([rng.standard_normal(40), np.full(40, 7.0), rng.standard_normal(40)])
    ds = Dataset(features, rng.integers(0, 2, 40), ("a", "b", "c"))
    models = [fit(ds, SampleWeights(rng.uniform(0.5, 2.0, 40))) for _ in range(3)]
    assert all(model.means[1] == 7.0 and model.scales[1] == 1.0 for model in models)
    return ds, models


def overflow_case():
    """x - mean overflows in column 0 under the first model and in column 1
    under the third; the second model overflows nowhere."""
    features = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.5e308], [1.0e308, 0.0], [0.0, -1.0e308]])
    names = ("a", "b")
    models = [
        make_model(names, [1.0, -0.5], 0.25, [1.2e308, 0.0], [1e308, 1.5e308]),
        make_model(names, [0.5, 0.5], -1.0, [1.1e307, -1.1e307], [1.5e308, 1.5e308]),
        make_model(names, [-1.0, 2.0], 0.0, [0.0, -1.2e308], [1.5e308, 1e308]),
    ]
    return Dataset(features, np.zeros(4, dtype=int), names), models


def mismatch_case(kind):
    """A model that names another column, or has one column more, second of three."""
    ds = separable_toy()
    names = {"name": ("x0", "y"), "count": ("x0", "x1", "x2")}[kind]
    good = make_model(ds.column_names, [1.0, -1.0], 0.5, [0.0, 0.0], [1.0, 1.0])
    bad = make_model(names, [1.0] * len(names), 0.0, [0.0] * len(names), [1.0] * len(names))
    return ds, [good, bad, good]


def scores_or_error(score):
    try:
        return score().tobytes()
    except DataError as exc:
        return str(exc)


class TestStackedPredict:
    """Each row of the stacked prediction is bit for bit one model's scores
    as the one-model predictor computed them (tests/oracles.py), and a
    mismatched model raises the same DataError."""

    @settings(max_examples=200, deadline=None)
    @given(case=scoring_cases())
    @example(case=constant_column_case())
    @example(case=overflow_case())
    @example(case=mismatch_case("name"))
    @example(case=mismatch_case("count"))
    def test_rows_equal_per_model_oracle(self, case):
        data, models = case
        per_model = [scores_or_error(lambda m=model: oracles.predict_scores(m, data)) for model in models]
        errors = [outcome for outcome in per_model if isinstance(outcome, str)]
        stacked = scores_or_error(lambda: stacked_predict_scores(models, data))
        if errors:
            assert stacked == errors[0]
        else:
            assert stacked == b"".join(per_model)
        for model, expected in zip(models, per_model):
            assert scores_or_error(lambda m=model: predict_scores(m, data)) == expected

    def test_overflow_is_redone_per_model(self):
        data, models = overflow_case()
        with np.errstate(over="ignore", invalid="ignore"):
            naive = (data.features - np.array([m.means for m in models])[:, None, :]) / \
                np.array([m.scales for m in models])[:, None, :]
        # the first and third models overflow in one column each, the second in none
        assert (~np.isfinite(naive).all(axis=1)).tolist() == [[True, False], [False, False], [False, True]]
        # and the overflow form would move the second model's bits in both columns
        second = models[1]
        fallback = data.features / second.scales - second.means / second.scales
        assert (fallback != naive[1]).any(axis=0).all()
        scores = stacked_predict_scores(models, data)
        assert np.isfinite(scores).all()
        assert scores.tobytes() == b"".join(oracles.predict_scores(m, data).tobytes() for m in models)

    def test_grid_shaped_stack(self):
        # 52 models on 800 rows of 7 columns, the shape of the benchmark grid's scoring pass
        rng = np.random.default_rng(8)
        names = tuple(f"c{j}" for j in range(7))
        data = Dataset(rng.standard_normal((800, 7)), rng.integers(0, 2, 800), names)
        models = [make_model(names, rng.standard_normal(7), float(rng.standard_normal()),
                             rng.standard_normal(7), rng.uniform(0.5, 2.0, 7)) for _ in range(52)]
        scores = stacked_predict_scores(models, data)
        assert scores.shape == (52, 800)
        assert scores.tobytes() == b"".join(oracles.predict_scores(m, data).tobytes() for m in models)



# ---------------------------------------------------------------------------
# Bit identity with the first-written forms of the loss, the sigmoid and the
# constant-column mask
# ---------------------------------------------------------------------------


def two_term_sigmoid(z):
    """Test-only copy of the stable sigmoid with ``1 + e`` formed twice."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def two_term_loss_and_gradient(coefficients, intercept, features, labels, weights, l2_penalty):
    """Test-only copy of the loss with the cross-entropy in its two-term
    form y*softplus(-z) + (1-y)*softplus(z), returning the probabilities
    too."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    z = features @ coefficients + intercept
    ce = labels * np.logaddexp(0.0, -z) + (1.0 - labels) * np.logaddexp(0.0, z)
    loss = float(weights @ ce + l2_penalty * (coefficients @ coefficients))
    p = two_term_sigmoid(z)
    residual = weights * (p - labels)
    grad_coef = features.T @ residual + 2.0 * l2_penalty * coefficients
    grad_intercept = float(residual.sum())
    return loss, grad_coef, grad_intercept, p


def one_exp_softplus(v):
    """Test-only softplus in the form max(v, 0) + log1p(exp(-|v|))."""
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def one_exp_two_term_loss(coefficients, intercept, features, labels, weights, l2_penalty):
    """Test-only loss of two_term_loss_and_gradient with one_exp_softplus
    in place of ``logaddexp(0, .)``."""
    z = features @ coefficients + intercept
    ce = labels * one_exp_softplus(-z) + (1.0 - labels) * one_exp_softplus(z)
    return float(weights @ ce + l2_penalty * (coefficients @ coefficients))


def decimal_softplus(x):
    """softplus(x) = ln(1 + e^x) in decimal arithmetic, rounded once to the
    nearest double.  For x < 0, 1 + e^x keeps the digits of e^x only with
    about |x| / ln 10 more digits of precision, so the precision widens."""
    with decimal.localcontext() as context:
        context.prec = 40 + (int(-x / math.log(10)) if x < 0 else 0)
        return float((1 + decimal.Decimal(x).exp()).ln())


def ulps_apart(a, b):
    """How many doubles apart two non-negative doubles are."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def ptp_constant_columns(features):
    return np.ptp(features, axis=0) == 0.0


def first_written_fit(ds, weights, config):
    """Test-only copy of ``fit``'s Newton loop as first written, with the
    two-term loss: a gradient joined by np.append, a Hessian and a ridge
    vector made anew each iteration, the stopping threshold recomputed
    each iteration, the mask taken from the rows and the standardized
    features formed by the formula.  It always gathers the cells (a dataset
    without repeated rows is its own cells), and builds the Hessian block
    by ``fit``'s rule, gemm up to ``_SYRK_WORK`` and syrk above.  Returns the
    coefficients, the intercept, n_iter and converged."""
    first, cell = ds.cells
    features, y = ds.features[first], ds.float_labels[first]
    w = np.bincount(cell, weights=weights.values, minlength=first.shape[0])
    constant = ptp_constant_columns(ds.features)
    means, scales, _ = _standardization(features, w, constant)
    active = np.flatnonzero(~constant)
    z = (features[:, active] - means[active]) / scales[active]
    k = active.shape[0]

    def loss_grad(params):
        loss, grad_coef, grad_b, p = two_term_loss_and_gradient(params[:k], params[k], z, y, w, config.l2_penalty)
        return loss, np.append(grad_coef, grad_b), p

    x = np.zeros(k + 1)
    loss, grad, p = loss_grad(x)
    for n_iter in range(config.max_iterations + 1):
        converged = bool(np.abs(grad).max() < config.gradient_tolerance * w.sum())
        if converged or n_iter == config.max_iterations:
            break
        s = w * p * (1.0 - p)
        hessian = np.empty((k + 1, k + 1))
        if z.shape[0] * k * k <= multifair.model._SYRK_WORK:
            hessian[:k, :k] = z.T @ (s[:, None] * z)
        else:
            r = np.sqrt(s)[:, None] * z
            hessian[:k, :k] = r.T @ r
        hessian[:k, k] = hessian[k, :k] = s @ z
        hessian[k, k] = s.sum()
        ridge = np.full(k + 1, 1e-10 * hessian.diagonal().max())
        ridge[:k] += 2.0 * config.l2_penalty
        hessian[np.diag_indices(k + 1)] += ridge
        step = np.linalg.solve(hessian, grad)
        decrease = 1e-4 * float(grad @ step)
        t = 1.0
        while decrease > 0.0 and t >= 1e-10:
            candidate = x - t * step
            cand_loss, cand_grad, cand_p = loss_grad(candidate)
            if cand_loss <= loss - t * decrease:
                break
            within_rounding = abs(cand_loss - loss) <= 8.0 * np.finfo(np.float64).eps * abs(loss)
            if within_rounding and np.abs(cand_grad).max() < np.abs(grad).max():
                break
            t *= 0.5
        else:
            break
        x, loss, grad, p = candidate, cand_loss, cand_grad, cand_p
    coefficients = np.zeros(ds.n_cols)
    coefficients[active] = x[:k]
    return coefficients, x[k], n_iter, converged


EDGE_MARGINS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                -2.2250738585072014e-308, 36.7, -36.7, 745.2, -745.2, 800.0, -800.0)
margins = st.one_of(st.sampled_from(EDGE_MARGINS), st.floats(-800.0, 800.0, allow_nan=False))


def result_bits(loss, grad_coef, grad_b, p):
    return float.hex(loss), grad_coef.tobytes(), float.hex(grad_b), p.tobytes()


START_FEATURES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0, -1.5, 7.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def zero_start_problems(draw):
    """(features, labels, weights) with negative, signed-zero and subnormal
    features, constant columns (few distinct values make them common) and
    zero weights."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(0, 5))
    features = draw(arrays(np.float64, (n, d), elements=START_FEATURES))
    labels = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    weights = draw(arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, 5e-324, 0.37, 1.0]), st.floats(0.0, 1e3))))
    return features, labels, weights


class TestBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), margins), min_size=1, max_size=30),
           st.sampled_from([0.0, 1e-4, 0.5]))
    @example([(1, 800.0), (0, -800.0), (1, -800.0), (0, 800.0)], 0.0)
    @example([(1, 0.0), (1, -0.0), (0, 0.0), (0, -0.0)], 0.0)
    @example([(1, 5e-324), (0, -5e-324), (1, -1e-310), (0, 1e-310)], 1e-4)
    @example([(0, -0.4448625582358705), (1, 0.4448625582358705)], 0.0)  # 2 ulps from logaddexp
    def test_one_softplus_equals_two_term_form(self, rows, l2):
        labels = np.array([y for y, _ in rows], dtype=np.float64)
        z = np.array([margin for _, margin in rows])
        weights = 0.37 * np.arange(1, len(rows) + 1)
        # z passes through the margin exactly: z * 1.0 + (-0.0) is z, signed zeros included
        problems = [(np.ones(1), -0.0, z[:, None], labels, weights, l2)]
        # row by row, so that no row's difference can cancel in the sum
        problems += [(np.ones(1), -0.0, z[i:i + 1, None], labels[i:i + 1], np.ones(1), 0.0)
                     for i in range(len(rows))]
        for i, args in enumerate(problems):
            result = weighted_loss_and_gradient(*args)
            reference = two_term_loss_and_gradient(*args)
            # the gradient, the intercept's gradient and the probabilities
            assert result_bits(*result)[1:] == result_bits(*reference)[1:]
            assert float.hex(result[0]) == float.hex(one_exp_two_term_loss(*args))
            if i > 0:
                # Both softplus forms are within 1 ulp of the exact value
                # (test_softplus_within_one_ulp_of_decimal_reference), on
                # either side of it in some rows
                assert ulps_apart(result[0], reference[0]) <= 2

    def test_softplus_within_one_ulp_of_decimal_reference(self):
        rng = np.random.default_rng(41)
        magnitudes = 10.0 ** rng.uniform(-320.0, np.log10(800.0), 200)
        xs = np.concatenate([EDGE_MARGINS, rng.uniform(-800.0, 800.0, 200), rng.uniform(-5.0, 5.0, 300),
                             magnitudes * rng.choice([-1.0, 1.0], 200)])
        for x in xs.tolist():
            exact = decimal_softplus(x)
            # a label-0 row with margin x has cross-entropy softplus(x)
            kernel = weighted_loss_and_gradient(np.ones(1), -0.0, np.array([[x]]), np.zeros(1), np.ones(1), 0.0)[0]
            assert ulps_apart(kernel, exact) <= 1, x
            assert ulps_apart(np.logaddexp(0.0, x), exact) <= 1, x

    def test_sigmoid_equals_two_term_form(self):
        z = np.concatenate([EDGE_MARGINS, np.random.default_rng(40).uniform(-800.0, 800.0, 2000)])
        assert _sigmoid(z).tobytes() == two_term_sigmoid(z).tobytes()

    @pytest.mark.parametrize("features", [
        np.array([[1.5, -2.0, 0.0]]),  # one row: every column is constant
        np.full((5, 3), 7.0),
        np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]),  # 0.0 and -0.0 are one value
        np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.5]]),  # only the last row differs
        np.array([[5e-324, 3.0], [0.0, 3.0], [5e-324, 3.0]]),
    ])
    def test_constant_mask_equals_zero_range(self, features):
        assert np.array_equal(_constant_columns(features), ptp_constant_columns(features))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.sampled_from([0.0, -0.0, 1.0, -1.5, 5e-324, 1e300])))
    def test_constant_mask_equals_zero_range_on_few_values(self, features):
        assert np.array_equal(_constant_columns(features), ptp_constant_columns(features))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
                  elements=st.sampled_from([0.0, -0.0, 1.0, -1.5, 5e-324])),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=1, max_size=20))
    @example(np.array([[0.0, 2.0, 1.0], [-0.0, 2.0, 1.0]]), [(0, 1), (1, 0), (0, 1), (1, 1), (0, 1)])
    def test_dataset_mask_from_cells_equals_row_mask(self, source, picks):
        # rows drawn with replacement plant duplicates, so some rows merge into cells
        rows = [i % source.shape[0] for i, _ in picks]
        ds = Dataset(source[rows], [y for _, y in picks], tuple(f"c{j}" for j in range(source.shape[1])))
        assert np.array_equal(ds.constant_columns, ptp_constant_columns(ds.features))

    @settings(max_examples=300, deadline=None)
    @given(zero_start_problems(), st.sampled_from([0.0, 1e-4, 0.5]))
    @example((np.array([[-1.0, 7.0, -0.0], [-2.5, 7.0, -0.0], [-5e-324, 7.0, -0.0]]),
              np.array([1.0, 0.0, 1.0]), np.array([0.0, 2.5, 0.0])), 1e-4)
    @example((np.zeros((4, 0)), np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 0.0, 5e-324, 3.0])), 0.5)
    def test_filled_start_equals_loss_at_zero(self, problem, l2):
        features, labels, weights = problem
        zero = weighted_loss_and_gradient(np.zeros(features.shape[1]), 0.0, features, labels, weights, l2)
        start = _loss_and_gradient_at_zero(features, labels, weights, l2)
        assert result_bits(*start) == result_bits(*zero)

    @staticmethod
    def assert_same_fit(ds, weights, config, monkeypatch):
        calls = []

        def counted(*args):
            calls.append("loss")
            return two_term_loss_and_gradient(*args)

        def counted_mask(features):
            calls.append("mask")
            return ptp_constant_columns(features)

        def fresh():  # a dataset computes its constant-column mask once
            return Dataset(ds.features, ds.labels, ds.column_names)

        with monkeypatch.context() as patch:
            patch.setattr(multifair.model, "weighted_loss_and_gradient", counted)
            patch.setattr(multifair.model, "_sigmoid", two_term_sigmoid)
            patch.setattr(multifair.data, "_constant_columns", counted_mask)
            reference = fit(fresh(), weights, config)
        assert set(calls) == {"loss", "mask"}  # the reference forms were the ones that ran
        model = fit(fresh(), weights, config)
        assert model.coefficients.tobytes() == reference.coefficients.tobytes()
        assert float.hex(model.intercept) == float.hex(reference.intercept)
        assert model.means.tobytes() == reference.means.tobytes()
        assert model.scales.tobytes() == reference.scales.tobytes()
        assert (model.n_iter, model.converged) == (reference.n_iter, reference.converged)
        # and the Newton loop takes the first-written loop's steps, bit for bit
        coefficients, intercept, n_iter, converged = first_written_fit(fresh(), weights, config)
        assert model.coefficients.tobytes() == coefficients.tobytes()
        assert float.hex(model.intercept) == float.hex(intercept)
        assert (model.n_iter, model.converged) == (n_iter, converged)

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_equals_two_term_fit_on_random_problems(self, seed, monkeypatch):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(20, 400))
        ds, weights = random_problem(rng, n, int(rng.integers(1, 8)))
        last_differs = np.full(n, 2.0)
        last_differs[-1] = 2.5
        features = np.column_stack([
            ds.features,
            np.full(n, 7.0),
            np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0),
            last_differs,
        ])
        ds = Dataset(features, ds.labels, tuple(f"c{i}" for i in range(features.shape[1])))
        config = TrainConfig(l2_penalty=(0.0, 1e-4, 1e-2)[seed % 3],
                             gradient_tolerance=(1e-6, 1e-10)[seed % 2])
        self.assert_same_fit(ds, weights, config, monkeypatch)

    @pytest.mark.parametrize("unit", [True, False])
    def test_fit_equals_two_term_fit_on_committed_data(self, unit, monkeypatch):
        ds = load_csv(REPO_ROOT / "data" / "synthetic.csv", "outcome", "yes")
        weights = (SampleWeights.unit(ds.n_rows) if unit
                   else SampleWeights(np.random.default_rng(60).uniform(0.2, 3.0, ds.n_rows)))
        self.assert_same_fit(ds, weights, TrainConfig(), monkeypatch)


# ---------------------------------------------------------------------------
# The fit on distinct (feature row, label) cells against the row-level fit
# ---------------------------------------------------------------------------


def census_train():
    ds = load_csv(REPO_ROOT / "data" / "census_surrogate.csv", "income", ">50K")
    return split(ds, SplitSpec())


def assert_same_model_bytes(a, b):
    assert a.coefficients.tobytes() == b.coefficients.tobytes()
    assert float.hex(a.intercept) == float.hex(b.intercept)
    assert a.means.tobytes() == b.means.tobytes()
    assert a.scales.tobytes() == b.scales.tobytes()
    assert (a.n_iter, a.converged) == (b.n_iter, b.converged)


class TestCellFit:
    @staticmethod
    def row_level_fit(ds, weights, config, monkeypatch):
        """Test-only reference: the same fit with the identity partition
        patched in, so that every row is its own cell."""
        with monkeypatch.context() as patch:
            patch.setattr(multifair.data, "_row_cells", lambda features, labels: (np.arange(labels.shape[0]),) * 2)
            return fit(Dataset(ds.features, ds.labels, ds.column_names), weights, config)

    def assert_matches_row_level_fit(self, ds, weights, config, monkeypatch):
        assert ds.cells[0].shape[0] < ds.n_rows  # some rows do merge
        reference = self.row_level_fit(ds, weights, config, monkeypatch)
        model = fit(ds, weights, config)
        assert (model.n_iter, model.converged) == (reference.n_iter, reference.converged)
        np.testing.assert_allclose(predict_scores(model, ds), predict_scores(reference, ds), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("zeros", [False, True])
    def test_census_surrogate(self, zeros, monkeypatch):
        train, _ = census_train()
        rng = np.random.default_rng(70)
        w = rng.uniform(0.2, 3.0, train.n_rows)
        if zeros:
            w[rng.uniform(size=train.n_rows) < 0.3] = 0.0
        self.assert_matches_row_level_fit(train, SampleWeights(w), TrainConfig(), monkeypatch)

    @staticmethod
    def planted_duplicates_problem(seed):
        """A random problem of 3n rows drawn with replacement from n = 20-199
        random rows of 1-5 columns, with some zero weights for odd seeds,
        and its l2_penalty."""
        rng = np.random.default_rng(80 + seed)
        n = int(rng.integers(20, 200))
        ds, _ = random_problem(rng, n, int(rng.integers(1, 6)))
        ds = ds.take(rng.integers(0, n, 3 * n))
        w = rng.uniform(0.1, 3.0, ds.n_rows)
        w[rng.uniform(size=ds.n_rows) < (0.0, 0.3)[seed % 2]] = 0.0
        return ds, SampleWeights(w), (0.0, 1e-4, 1e-2)[seed % 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_problems_with_planted_duplicates(self, seed, monkeypatch):
        ds, weights, l2_penalty = self.planted_duplicates_problem(seed)
        config = TrainConfig(l2_penalty=l2_penalty, gradient_tolerance=(1e-6, 1e-8)[seed % 2])
        self.assert_matches_row_level_fit(ds, weights, config, monkeypatch)

    @pytest.mark.parametrize("tolerance", [1e-6, 1e-12])
    def test_fit_equals_two_term_fit_with_planted_duplicates(self, tolerance, monkeypatch):
        # Every Armijo and within-rounding decision of the 200 fits is the
        # one the logaddexp loss makes
        for seed in range(200):
            ds, weights, l2_penalty = self.planted_duplicates_problem(seed)
            config = TrainConfig(l2_penalty=l2_penalty, gradient_tolerance=tolerance)
            TestBitIdentity.assert_same_fit(ds, weights, config, monkeypatch)

    def test_census_surrogate_fit_equals_two_term_fit(self, monkeypatch):
        # the m3fair fit of the census_m3fair benchmark, on its 5051 cells
        config = ExperimentConfig(
            dataset=DatasetConfig(str(REPO_ROOT / "data" / "census_surrogate.csv"), "income", ">50K"),
            sensitive_attributes=("sex=Male", "race=White"),
            method="m3fair",
            level_weights={"sex=Male": 1, "race=White": 2},
        )
        train, _ = census_train()
        TestBitIdentity.assert_same_fit(train, compute_training_weights(config), TrainConfig(), monkeypatch)

    @pytest.mark.parametrize("tolerance", [1e-10, 1e-12])
    def test_tight_tolerances_converge_on_random_problems(self, tolerance):
        # Near the optimum a candidate's loss can differ from the current one
        # by rounding only, and the Armijo test alone then rejected good
        # steps until the fit crawled to max_iterations (3 of these 200 fits
        # at 1e-10, 16 at 1e-12).  A fit that stops as numerically flat also
        # reports converged False, so none does that either.
        iterations = []
        for seed in range(200):
            ds, weights, l2_penalty = self.planted_duplicates_problem(seed)
            model = fit(ds, weights, TrainConfig(l2_penalty=l2_penalty, gradient_tolerance=tolerance))
            assert model.converged, seed
            iterations.append(model.n_iter)
        assert max(iterations) <= 20

    @pytest.mark.parametrize("source", ["census", "distinct"])
    def test_duplicated_rows_equal_weight_two_bit_for_bit(self, source):
        # The doubled rows merge into the cells of the original rows, each
        # cell weighing twice its row count in both fits
        if source == "census":
            train, test = census_train()
        else:
            train, _ = random_problem(np.random.default_rng(90), 300, 4)
            test, _ = random_problem(np.random.default_rng(91), 100, 4)
        n = train.n_rows
        doubled = fit(train.take(np.tile(np.arange(n), 2)), SampleWeights.unit(2 * n))
        heavier = fit(train, SampleWeights(np.full(n, 2.0)))
        assert_same_model_bytes(doubled, heavier)
        groups = [set_privileged(binarize_by_mean(train, name), train) for name in train.column_names[:2]]
        on_test = [binarize_by_threshold(test, g.attribute_name, float(train.column(g.attribute_name).mean()))
                   .with_privileged(g.privileged_value) for g in groups]
        outcomes = []
        for model in (doubled, heavier):
            preds = PredictionSet(predict_scores(model, test), test.labels)
            outcomes.append((evaluate_fairness(preds, on_test), float.hex(auroc(preds.scores, preds.labels))))
        assert outcomes[0] == outcomes[1]


class TestFitMemory:
    def test_peak_stays_near_three_feature_matrices(self):
        # The centered matrix that gives the standardized features is freed
        # before the Newton loop, which holds z and its row-scaled copy r; a
        # fit that kept it alive peaked at about 4.1x the features
        rng = np.random.default_rng(0)
        n, d = 3200, 201
        ds = Dataset(rng.standard_normal((n, d)), rng.integers(0, 2, n), tuple(f"c{j}" for j in range(d)))
        ds.cells, ds.constant_columns  # a dataset computes these once, not per fit
        tracemalloc.start()
        try:
            fit(ds, SampleWeights.unit(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * ds.features.nbytes


class TestHugeFeatures:
    def test_overflowing_column_fits_in_scaled_form(self):
        # RuntimeWarnings are errors in this suite, so an overflowing square fails here
        features = np.array([[1.0, 0.0], [2.0, 1e300], [0.5, 0.0], [3.0, 0.0]])
        labels = np.array([0, 1, 0, 1])
        shrunk = features.copy()
        shrunk[:, 1] /= 1e290
        huge, small = Dataset(features, labels, ("a", "b")), Dataset(shrunk, labels, ("a", "b"))
        model = fit(huge, SampleWeights.unit(4))
        reference = fit(small, SampleWeights.unit(4))
        assert model.scales[0] == reference.scales[0]  # the column that does not overflow keeps its bits
        np.testing.assert_allclose(predict_scores(model, huge), predict_scores(reference, small),
                                   rtol=0.0, atol=1e-9)

    def test_column_near_the_largest_double_fits(self):
        # the weighted sum itself overflows here, not only the squares
        features = np.array([[1.0, 1e308], [2.0, 1e308], [0.5, -1e308], [3.0, 0.0]])
        ds = Dataset(features, np.array([0, 1, 0, 1]), ("a", "b"))
        model = fit(ds, SampleWeights(np.full(4, 2.0)))
        assert model.converged
        assert model.means[1] == pytest.approx(2.5e307) and model.scales[1] == pytest.approx(np.sqrt(0.6875) * 1e308)

    @pytest.mark.parametrize("signs", [(1.0,), (1.0, -1.0)])
    def test_column_wider_than_the_largest_double_fits_and_predicts(self, signs):
        # x - mean overflows here (-1.5e308 - 1.2e308), in fit and in predict_scores;
        # with a negated copy of the column, to +inf and -inf both
        features = np.array([1.5e308] * 9 + [-1.5e308])[:, None] * np.array(signs)
        labels = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1])
        names = ("a", "b")[:len(signs)]
        huge, small = Dataset(features, labels, names), Dataset(features * 1e-300, labels, names)
        model = fit(huge, SampleWeights.unit(10))
        assert model.converged
        np.testing.assert_allclose(predict_scores(model, huge),
                                   predict_scores(fit(small, SampleWeights.unit(10)), small), rtol=0.0, atol=1e-9)


# _SYRK_WORK values that send every shape to one form
FORMS = {"gemm": sys.maxsize, "syrk": -1}


class TestHessianBlock:
    """``_hessian_block`` takes the general product for narrow systems and
    the symmetric rank-k update for wide ones; both are z.T diag(s) z."""

    @staticmethod
    def problem(n, k, seed=0):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.01, 0.99, n)
        return rng.standard_normal((n, k + 1))[:, np.arange(k)], rng.uniform(0.0, 3.0, n) * p * (1.0 - p)

    # (n, k) with n * k * k at most 2^20, then above it
    @pytest.mark.parametrize("n, k", [(1, 1), (40, 0), (40, 3), (3200, 7), (5051, 12),
                                      (3200, 24), (26049, 7), (1200, 40)])
    @pytest.mark.parametrize("form", FORMS)
    def test_matches_an_exact_sum(self, monkeypatch, n, k, form):
        z, s = self.problem(n, k)
        monkeypatch.setattr(multifair.model, "_SYRK_WORK", FORMS[form])
        block = _hessian_block(z, s)
        assert block.shape == (k, k)
        products = s[:, None, None] * z[:, :, None] * z[:, None, :]
        for i, j in np.ndindex(k, k):
            # math.fsum rounds the sum of the products once; entries that
            # cancel are measured against the sum of the products' sizes
            column = products[:, i, j].tolist()
            exact, size = math.fsum(column), math.fsum(map(abs, column))
            assert abs(block[i, j] - exact) <= 1e-12 * size

    @pytest.mark.parametrize("n, k, form", [(3200, 7, "gemm"), (5051, 9, "gemm"), (5051, 12, "gemm"),
                                            (3200, 24, "syrk"), (26049, 7, "syrk"), (3200, 201, "syrk")])
    def test_shape_picks_the_form(self, monkeypatch, n, k, form):
        z, s = self.problem(n, k)
        chosen = _hessian_block(z, s)
        blocks = {}
        for name, work in FORMS.items():
            monkeypatch.setattr(multifair.model, "_SYRK_WORK", work)
            blocks[name] = _hessian_block(z, s).tobytes()
        # the two forms round apart on these shapes, so the bytes tell them apart
        assert blocks["gemm"] != blocks["syrk"] and chosen.tobytes() == blocks[form]

    @pytest.mark.parametrize("form", FORMS)
    def test_weights_near_the_double_limit(self, monkeypatch, form):
        # 100 rows of 1.7e306 sum to 1.7e308, just under the largest
        # double; RuntimeWarnings are errors in this suite, so an
        # overflowing curvature or product fails here
        ds, _ = random_problem(np.random.default_rng(3), 100, 3)
        monkeypatch.setattr(multifair.model, "_SYRK_WORK", FORMS[form])
        model = fit(ds, SampleWeights(np.full(100, 1.7e306)))
        assert model.converged and np.isfinite(model.coefficients).all()

    @pytest.mark.parametrize("n, d", [(3200, 7), (1100, 32)])  # 3200 x 7 takes gemm, 1100 x 32 syrk
    def test_refit_gives_identical_bytes(self, n, d):
        ds, weights = random_problem(np.random.default_rng(n), n, d)
        assert_same_model_bytes(fit(ds, weights), fit(ds, weights))
