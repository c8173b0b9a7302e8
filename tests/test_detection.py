import math

import numpy as np
import pytest

from multifair.data import Dataset
from multifair.detection import METRIC_NAMES, DetectionConfig, detect
from multifair.errors import DataError, DegenerateAttributeError
from multifair.metrics import PredictionSet
from multifair.model import fit, predict_scores
from multifair.reweighting import SampleWeights
from multifair.synth import planted_bias_dataset


def baseline_predictions(dataset):
    model = fit(dataset, SampleWeights.unit(dataset.n_rows))
    return PredictionSet(predict_scores(model, dataset), dataset.labels)


def direct_unfairness(dataset, preds, column):
    """Recompute the four unfairness scores with plain loops (independent of
    the detection module's ranking machinery)."""
    values = dataset.column(column)
    member = values > values.mean()
    labels = dataset.labels
    rate1 = labels[member].mean()
    rate0 = labels[~member].mean()
    privileged = member if rate1 >= rate0 else ~member
    unpriv = ~privileged
    p = preds.predictions
    sel_u, sel_p = p[unpriv].mean(), p[privileged].mean()
    di = math.inf if (sel_p == 0 and sel_u > 0) else (1.0 if sel_p == 0 else sel_u / sel_p)
    pos = labels == 1
    def rate(mask):
        return p[mask].mean() if mask.any() else 0.0
    aod = 0.5 * ((rate(unpriv & ~pos) - rate(privileged & ~pos))
                 + (rate(unpriv & pos) - rate(privileged & pos)))
    if not (unpriv & pos).any() or not (privileged & pos).any():
        eod = math.inf
    else:
        eod = abs(p[unpriv & pos].mean() - p[privileged & pos].mean())
    return {
        "di": math.inf if math.isinf(di) else abs(1 - di),
        "spd": abs(sel_u - sel_p),
        "aod": abs(aod),
        "eod": eod,
    }


class TestDetect:
    def test_single_candidate_is_the_intersection(self):
        ds = planted_bias_dataset(200, n_noise=4, seed=1)
        preds = baseline_predictions(ds)
        result = detect(ds, preds, DetectionConfig(top_n=1, candidate_columns=("planted",)))
        assert result.intersection == {"planted"}

    def test_planted_column_tops_all_rankings(self):
        ds = planted_bias_dataset(500, n_noise=30, seed=7)
        preds = baseline_predictions(ds)
        # oracle: direct rate computation says the planted column is the most
        # unfair on every metric
        for metric in METRIC_NAMES:
            scores = {c: direct_unfairness(ds, preds, c)[metric] for c in ds.column_names}
            top = max(scores, key=lambda c: (scores[c], c != "planted"))
            assert top == "planted", metric
        result = detect(ds, preds, DetectionConfig(top_n=5))
        assert "planted" in result.intersection
        for metric in METRIC_NAMES:
            assert result.per_metric_rankings[metric][0][0] == "planted"

    def test_intersection_grows_with_top_n(self):
        ds = planted_bias_dataset(300, n_noise=10, seed=3)
        preds = baseline_predictions(ds)
        previous = frozenset()
        for top_n in (1, 2, 4, 8, 11):
            current = detect(ds, preds, DetectionConfig(top_n=top_n)).intersection
            assert previous <= current
            previous = current

    def test_deterministic(self):
        ds = planted_bias_dataset(300, n_noise=8, seed=5)
        preds = baseline_predictions(ds)
        a = detect(ds, preds, DetectionConfig(top_n=4))
        b = detect(ds, preds, DetectionConfig(top_n=4))
        assert a.intersection == b.intersection
        assert a.per_metric_rankings == b.per_metric_rankings
        assert a.skipped == b.skipped

    def test_constant_column_skipped_not_fatal(self):
        rng = np.random.default_rng(0)
        features = np.column_stack([rng.standard_normal(100), np.full(100, 3.0)])
        labels = (features[:, 0] + rng.standard_normal(100) * 0.5 > 0).astype(int)
        ds = Dataset(features, labels, ("signal", "flat"))
        preds = baseline_predictions(ds)
        result = detect(ds, preds, DetectionConfig(top_n=2))
        assert ("flat", "degenerate attribute") in result.skipped
        assert "flat" not in result.intersection

    def test_all_degenerate_rejected(self):
        ds = Dataset(np.full((10, 2), 1.0), (np.arange(10) % 2), ("a", "b"))
        preds = PredictionSet(np.full(10, 0.6), ds.labels)
        with pytest.raises(DegenerateAttributeError, match="no detectable attributes"):
            detect(ds, preds)

    def test_perfectly_fair_column_excluded(self):
        # three clearly unfair columns, one column balanced in both
        # predictions and labels across its groups; with top_n=3 the fair
        # column cannot enter the intersection
        n = 80
        labels = np.array(([1] * 10 + [0] * 10) * 4)
        pred = np.array(([1] * 5 + [0] * 5) * 8)
        fair = np.tile([1, 0], n // 2)  # alternates inside every (label, pred) cell
        biased = (pred * 0.8 + labels * 0.2 > 0.5).astype(float)
        noisy1 = np.roll(biased, 1)
        noisy2 = np.roll(biased, 2)
        ds = Dataset(
            np.column_stack([biased, noisy1, noisy2, fair.astype(float)]),
            labels,
            ("b0", "b1", "b2", "fair"),
        )
        preds = PredictionSet(pred.astype(float), labels)
        result = detect(ds, preds, DetectionConfig(top_n=3))
        scores = {c: direct_unfairness(ds, preds, c) for c in ("b0", "b1", "b2")}
        assert all(all(v > 0 for v in s.values()) for s in scores.values())
        assert "fair" not in result.intersection

    def test_privileged_side_selecting_nobody_ranks_first_on_di(self):
        # "blocked": members carry the higher label base rate, so they are the
        # privileged side, and no member is predicted favorable while half of
        # the others are: DI is undefined, and the column maximally unfair on it
        blocked = np.repeat([1.0, 0.0], 20)
        labels = np.concatenate([np.repeat([1, 0], [15, 5]), np.repeat([1, 0], [5, 15])])
        scores = np.where(blocked == 1.0, 0.2, np.tile([0.8, 0.2], 20))
        mild = np.tile([1.0, 1.0, 0.0, 0.0], 10)
        ds = Dataset(np.column_stack([mild, blocked]), labels, ("mild", "blocked"))
        preds = PredictionSet(scores, labels)
        assert direct_unfairness(ds, preds, "blocked")["di"] == math.inf
        result = detect(ds, preds, DetectionConfig(top_n=1))
        assert result.per_metric_rankings["di"][0] == ("blocked", math.inf)
        assert math.isfinite(result.per_metric_rankings["di"][1][1])

    def test_misaligned_predictions_rejected(self):
        ds = planted_bias_dataset(50, n_noise=2, seed=0)
        preds = PredictionSet(np.full(49, 0.4), np.zeros(49, dtype=int) + (np.arange(49) % 2))
        with pytest.raises(DataError, match="row-aligned"):
            detect(ds, preds)
