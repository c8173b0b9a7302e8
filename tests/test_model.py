import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from multifair.data import Dataset
from multifair.errors import DataError
from multifair.model import (
    ModelParams,
    TrainConfig,
    _sigmoid,
    _standardization,
    fit,
    load_model,
    predict_scores,
    save_model,
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
            _, grad_coef, grad_b = weighted_loss_and_gradient(
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
                lp, _, _ = weighted_loss_and_gradient(plus[:d], plus[d], features, labels, weights, l2)
                lm, _, _ = weighted_loss_and_gradient(minus[:d], minus[d], features, labels, weights, l2)
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
        _, grad_coef, grad_b = weighted_loss_and_gradient(
            coef, intercept, features, labels, np.ones(n), 0.0
        )
        np.testing.assert_allclose(grad_coef, plain_grad, rtol=1e-12)
        assert grad_b == pytest.approx((p - labels).sum(), rel=1e-12)


def objective(model, ds, weights, l2_penalty):
    """The fit's objective at ``model``'s parameters, in its standardized
    coordinates."""
    z = (ds.features - model.means) / model.scales
    loss, _, _ = weighted_loss_and_gradient(
        model.coefficients, model.intercept, z, ds.labels, weights.values, l2_penalty
    )
    return loss


def lbfgs_scores(ds, weights, l2_penalty):
    """Test oracle: scipy's L-BFGS-B on the same objective and coordinates,
    scored on the training rows."""
    means, scales = _standardization(ds.features, weights.values)
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


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = separable_toy(seed=9)
        model = fit(ds, SampleWeights.unit(ds.n_rows))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.feature_names == model.feature_names
        assert np.array_equal(back.coefficients, model.coefficients)
        assert back.intercept == model.intercept
        np.testing.assert_array_equal(back.means, model.means)
        np.testing.assert_array_equal(back.scales, model.scales)
        assert back.converged == model.converged and back.n_iter == model.n_iter
        np.testing.assert_array_equal(predict_scores(back, ds), predict_scores(model, ds))
