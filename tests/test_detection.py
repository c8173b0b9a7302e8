import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multifair.data import Dataset, binarize_by_mean, set_privileged
from multifair.detection import METRIC_NAMES, DetectionConfig, DetectionResult, detect
from multifair.errors import ConfigError, DataError, DegenerateAttributeError, MetricUndefinedError
from multifair.metrics import (
    PredictionSet,
    average_odds_difference,
    disparate_impact,
    equal_opportunity_difference,
    statistical_parity_difference,
)
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


def loop_detect(dataset, preds, config=DetectionConfig()):
    """Test oracle: detection as a per-column loop over binarize_by_mean,
    set_privileged and the per-metric functions, with detect's checks,
    ranking key, intersection and skip list."""
    if len(preds) != dataset.n_rows:
        raise DataError("baseline predictions not row-aligned with the dataset")
    candidates = config.candidate_columns or dataset.column_names
    for column in candidates:
        if column not in dataset.column_names:
            raise DataError(f"candidate column {column!r} not in dataset")
    scored = {m: [] for m in METRIC_NAMES}
    skipped = []
    for column in candidates:
        try:
            group = set_privileged(binarize_by_mean(dataset, column), dataset)
        except DegenerateAttributeError:
            skipped.append((column, "degenerate attribute"))
            continue
        scored["di"].append((column, abs(1.0 - disparate_impact(preds, group))))
        scored["spd"].append((column, abs(statistical_parity_difference(preds, group))))
        scored["aod"].append((column, abs(average_odds_difference(preds, group))))
        try:
            eod = abs(equal_opportunity_difference(preds, group))
        except MetricUndefinedError:
            eod = math.inf
        scored["eod"].append((column, eod))
    if not scored["di"]:
        raise DegenerateAttributeError("no detectable attributes: all candidates degenerate")
    rankings = {m: tuple(sorted(pairs, key=lambda p: (-p[1], p[0]))) for m, pairs in scored.items()}
    prefixes = [{c for c, _ in rankings[m][: config.top_n]} for m in METRIC_NAMES]
    return DetectionResult(rankings, frozenset(set.intersection(*prefixes)), tuple(skipped))


def outcome(run, dataset, preds, config):
    """The result with every score as its exact bits, or the error's type
    and message."""
    try:
        result = run(dataset, preds, config)
    except (DataError, DegenerateAttributeError) as exc:
        return type(exc), str(exc)
    rankings = {
        metric: [(column, score.hex()) for column, score in pairs]
        for metric, pairs in result.per_metric_rankings.items()
    }
    return rankings, result.intersection, result.skipped


@st.composite
def detection_cases(draw):
    """(columns, labels, scores, candidates, top_n).  Small-integer and
    few-valued float columns put rows exactly on the mean, make constant
    columns and tie label rates; short label lists leave sides without
    positives or negatives."""
    n = draw(st.integers(1, 24))
    column = st.one_of(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7]), min_size=n, max_size=n),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
    )
    columns = draw(st.lists(column, min_size=1, max_size=6))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    scores = draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), min_size=n, max_size=n))
    names = [f"c{i}" for i in range(len(columns))]
    order = draw(st.permutations(names))
    candidates = draw(st.none() | st.integers(1, len(names)).map(lambda k: tuple(order[:k])))
    return columns, labels, scores, candidates, draw(st.integers(1, 7))


def case_outcomes(columns, labels, scores, candidates, top_n):
    dataset = Dataset(np.array(columns, dtype=np.float64).T, labels, tuple(f"c{i}" for i in range(len(columns))))
    preds = PredictionSet(scores, labels)
    config = DetectionConfig(top_n=top_n, candidate_columns=candidates)
    return outcome(detect, dataset, preds, config), outcome(loop_detect, dataset, preds, config)


class TestVectorDetectMatchesLoop:
    """detect scores every candidate in one matrix pass; its result equals
    the per-column loop's, every score bit for bit."""

    @given(detection_cases())
    @settings(max_examples=300, deadline=None)
    # integer and binary columns with rows exactly at the mean (c0 mean 1)
    @example(([[0, 1, 2, 1], [0, 1, 0, 1]], [1, 0, 1, 0], [1.0, 1.0, 0.0, 0.0], None, 2))
    # a constant column among split ones
    @example(([[5, 5, 5, 5], [1, 2, 3, 4]], [1, 0, 1, 1], [0.9, 0.3, 0.9, 0.3], None, 1))
    # tied label rates: the side above the mean is privileged
    @example(([[0, 0, 1, 1]], [1, 0, 1, 0], [0.9, 0.0, 0.3, 0.9], None, 1))
    # a side with no positives (EOD infinite, TPR 0 in AOD)
    @example(([[0, 0, 1, 1], [0, 1, 0, 1]], [0, 0, 1, 1], [0.9, 0.3, 0.9, 0.3], None, 1))
    # a side with no negatives (FPR 0 in AOD)
    @example(([[0, 0, 1, 1], [0, 1, 1, 0]], [1, 1, 0, 1], [0.9, 0.3, 0.9, 0.3], None, 1))
    # all-zero and all-one predictions
    @example(([[0, 1, 2, 3], [3, 1, 2, 0]], [1, 0, 1, 0], [0.0] * 4, None, 1))
    @example(([[0, 1, 2, 3], [3, 1, 2, 0]], [1, 0, 1, 0], [1.0] * 4, None, 1))
    # a candidate subset in non-schema order
    @example(([[0, 1, 2, 3], [1, 1, 0, 0], [3, 0, 2, 1]], [1, 0, 1, 0], [0.9, 0.3, 0.3, 0.9], ("c2", "c0"), 1))
    # rows exactly at a mean that, summed in another order, is one ulp lower
    @example((
        [[0.3, 0.2, 0.1, 0.1, 0.1, 0.3, 0.2, 0.3, 0.2, 0.2], list(range(10))],
        [1, 0, 0, 1, 0, 1, 1, 0, 1, 0], [0.9, 0.9, 0.3, 0.3, 0.9, 0.3, 0.9, 0.3, 0.3, 0.9], None, 1,
    ))
    # a constant column whose computed mean is below its value (all rows above)
    @example(([[0.7, 0.7, 0.7], [0, 1, 2]], [1, 0, 1], [0.9, 0.3, 0.9], None, 1))
    # every candidate degenerate
    @example(([[2, 2, 2], [0.5, 0.5, 0.5], [0.7, 0.7, 0.7]], [1, 0, 1], [0.9, 0.3, 0.9], None, 1))
    def test_equals_per_column_loop(self, case):
        vector, loop = case_outcomes(*case)
        assert vector == loop

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_datasets(self, seed):
        ds = planted_bias_dataset(400 + 100 * seed, n_noise=12, rate_gap=0.3, seed=seed)
        preds = baseline_predictions(ds)
        config = DetectionConfig(top_n=5)
        assert outcome(detect, ds, preds, config) == outcome(loop_detect, ds, preds, config)

    def test_wide_planted_dataset(self):
        # wide enough that a mean summed along the other axis differs in its
        # last bit for most columns
        ds = planted_bias_dataset(4000, n_noise=200, rate_gap=0.3, seed=1)
        preds = baseline_predictions(ds)
        config = DetectionConfig(top_n=10)
        assert outcome(detect, ds, preds, config) == outcome(loop_detect, ds, preds, config)


class TestDetectionConfig:
    def test_duplicate_candidate_columns_rejected(self):
        with pytest.raises(ConfigError, match=r"duplicate candidate columns: \['planted'\]"):
            DetectionConfig(top_n=2, candidate_columns=("planted", "planted", "noise_00"))

    def test_string_candidate_columns_rejected(self):
        with pytest.raises(ConfigError, match="'candidate_columns' must be a list, got 'noise_00'"):
            DetectionConfig(candidate_columns="noise_00")

    def test_top_n_below_one_rejected(self):
        with pytest.raises(ConfigError, match="top_n must be at least 1"):
            DetectionConfig(top_n=0)

    @pytest.mark.parametrize("value", [True, 2.5, 2.0, "2"])
    def test_top_n_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match=rf"^'top_n' must be an integer, got {value!r}$"):
            DetectionConfig(top_n=value)
