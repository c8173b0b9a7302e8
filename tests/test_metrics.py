import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from multifair import metrics
from multifair.data import GroupAssignment
from multifair.errors import DataError, MetricUndefinedError
from multifair.metrics import (
    FairnessReport,
    PredictionSet,
    accuracy,
    auprc,
    auroc,
    evaluate_fairness,
)
from oracles import (
    average_odds_difference,
    disparate_impact,
    equal_opportunity_difference,
    odds_support_complete,
    statistical_parity_difference,
)


def preds_from(predictions, labels):
    predictions = np.asarray(predictions, dtype=float)
    return PredictionSet(predictions, np.asarray(labels))


def group_of(membership, privileged=1):
    return GroupAssignment("g", np.asarray(membership), privileged_value=privileged)


def zero_ones(k):
    """Lists of k values, each 0 or 1."""
    return st.lists(st.integers(0, 1), min_size=k, max_size=k)


def auroc_bruteforce(scores, labels):
    """Independent pairwise-enumeration oracle (ties count one half)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestPredictionSet:
    def test_predictions_are_scores_at_or_above_the_threshold(self):
        below = np.nextafter(0.5, 0.0)  # the largest float below 0.5
        scores, labels = np.array([0.2, below, 0.5, 0.7]), np.array([0, 1, 1, 1])
        assert PredictionSet(scores, labels).predictions.tolist() == [0, 0, 1, 1]

    def test_callers_array_stays_writable(self):
        scores = np.array([0.2, 0.7])
        preds = PredictionSet(scores, [0, 1])
        assert np.shares_memory(preds.scores, scores)  # a view, not a copy
        assert scores.flags.writeable and not preds.scores.flags.writeable

    @pytest.mark.parametrize("scores, labels", [([0.2, 0.7], [1]), (0.7, 1), ([[0.7]], [[1]])])
    def test_non_vector_or_misaligned_input_rejected(self, scores, labels):
        with pytest.raises(DataError, match="equal-length vectors"):
            PredictionSet(np.array(scores), np.array(labels))


def rate_metric_tests(m):
    """The DI and SPD hand values, tested on the metric functions of module ``m``:
    ``multifair.metrics`` or the oracles."""
    disparate_impact = m.disparate_impact
    statistical_parity_difference = m.statistical_parity_difference

    class RateMetrics:
        def test_di_is_rate_ratio(self):
            # unprivileged rate 0.3, privileged rate 0.6
            predictions = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0] + [1, 1, 1, 1, 1, 1, 0, 0, 0, 0]
            membership = [0] * 10 + [1] * 10
            preds = preds_from(predictions, [0] * 20)
            assert disparate_impact(preds, group_of(membership)) == pytest.approx(0.5)

        def test_di_equal_rates_is_one(self):
            predictions = [1, 1, 0, 0, 0] + [1, 1, 0, 0, 0]
            preds = preds_from(predictions, [0] * 10)
            assert disparate_impact(preds, group_of([0] * 5 + [1] * 5)) == pytest.approx(1.0)

        def test_di_zero_over_zero_is_one(self):
            preds = preds_from([0, 0, 0, 0], [0, 1, 0, 1])
            assert disparate_impact(preds, group_of([0, 0, 1, 1])) == 1.0

        def test_di_only_denominator_zero_is_inf(self):
            preds = preds_from([1, 0, 0, 0], [1, 1, 0, 0])
            assert math.isinf(disparate_impact(preds, group_of([0, 0, 1, 1])))

        def test_spd_is_rate_difference(self):
            predictions = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0] + [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
            preds = preds_from(predictions, [0] * 20)
            spd = statistical_parity_difference(preds, group_of([0] * 10 + [1] * 10))
            assert spd == pytest.approx(-0.2)

        def test_spd_identical_rates_zero(self):
            preds = preds_from([1, 0, 1, 0], [0, 0, 1, 1])
            assert statistical_parity_difference(preds, group_of([0, 0, 1, 1])) == 0.0

        def test_empty_group_rejected(self):
            preds = preds_from([1, 0], [1, 0])
            with pytest.raises(DataError, match="empty group"):
                disparate_impact(preds, group_of([1, 1]))

    return RateMetrics


class TestRateMetrics(rate_metric_tests(metrics)):
    pass


class TestRateMetricsOnOracles(rate_metric_tests(oracles)):
    pass


def odds_metric_tests(m):
    """The AOD and EOD hand values, tested on the metric functions of module ``m``:
    ``multifair.metrics`` or the oracles."""
    average_odds_difference = m.average_odds_difference
    equal_opportunity_difference = m.equal_opportunity_difference

    class OddsMetrics:
        def _rates_case(self):
            # Hand-enumerated confusion matrices:
            #   unprivileged: 5 pos (3 predicted 1 -> TPR 0.6), 5 neg (1 predicted 1 -> FPR 0.2)
            #   privileged: 5 pos (4 predicted 1 -> TPR 0.8), 10 neg (3 predicted 1 -> FPR 0.3)
            labels = [1] * 5 + [0] * 5 + [1] * 5 + [0] * 10
            predictions = [1, 1, 1, 0, 0] + [1, 0, 0, 0, 0] + [1, 1, 1, 1, 0] + [1, 1, 1] + [0] * 7
            membership = [0] * 10 + [1] * 15
            return preds_from(predictions, labels), group_of(membership)

        def test_aod_hand_enumerated(self):
            preds, group = self._rates_case()
            # oracle: recount the four rates directly
            y = preds.labels
            p = preds.predictions
            unpriv = group.membership == 0
            tpr_u = p[unpriv & (y == 1)].mean()
            fpr_u = p[unpriv & (y == 0)].mean()
            tpr_p = p[~unpriv & (y == 1)].mean()
            fpr_p = p[~unpriv & (y == 0)].mean()
            expected = 0.5 * ((fpr_u - fpr_p) + (tpr_u - tpr_p))
            assert expected == pytest.approx(-0.15, abs=1e-12)
            assert average_odds_difference(preds, group) == pytest.approx(-0.15, abs=1e-12)

        def test_aod_identical_confusions_zero(self):
            labels = [1, 1, 0, 0] * 2
            predictions = [1, 0, 1, 0] * 2
            preds = preds_from(predictions, labels)
            assert average_odds_difference(preds, group_of([0] * 4 + [1] * 4)) == 0.0

        def test_aod_partial_support_flagged(self):
            labels = [0, 0, 1, 0]  # unprivileged group has no positives
            preds = preds_from([0, 1, 1, 0], labels)
            group = group_of([0, 0, 1, 1])
            assert not odds_support_complete(preds, group)
            average_odds_difference(preds, group)  # still computable, rate 0 convention

        def test_eod_hand_values(self):
            preds, group = self._rates_case()
            assert equal_opportunity_difference(preds, group) == pytest.approx(-0.2, abs=1e-12)

        def test_eod_equal_tprs_zero(self):
            labels = [1, 1, 0, 1, 1, 0]
            predictions = [1, 0, 0, 1, 0, 1]
            preds = preds_from(predictions, labels)
            assert equal_opportunity_difference(preds, group_of([0, 0, 0, 1, 1, 1])) == 0.0

        def test_eod_undefined_without_positives(self):
            preds = preds_from([1, 0, 1, 0], [0, 0, 1, 1])
            with pytest.raises(MetricUndefinedError, match="EOD undefined"):
                equal_opportunity_difference(preds, group_of([0, 0, 1, 1]))

    return OddsMetrics


class TestOddsMetrics(odds_metric_tests(metrics)):
    pass


class TestOddsMetricsOnOracles(odds_metric_tests(oracles)):
    pass


class TestAuroc:
    def test_known_value(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_half(self):
        assert auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError, match="AUROC undefined"):
            auroc([0.1, 0.2], [1, 1])

    def test_average_ranks_match_scipy_rankdata(self):
        # test-only oracle: the library ranks in numpy so that importing it
        # does not pay for scipy.stats
        from scipy.stats import rankdata

        rng = np.random.default_rng(14)
        for n in (1, 2, 17, 1000):
            untied = rng.uniform(size=n)
            tied = rng.integers(0, max(2, n // 10), n) / 7.0
            for values in (untied, tied, np.full(n, 0.5)):
                np.testing.assert_array_equal(oracles.average_ranks(values), rankdata(values))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_kernel_matches_the_oracle_bit_for_bit(self, data):
        shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 30)))
        # any floats, or a few rounded scores for heavy ties
        elements = data.draw(st.sampled_from([st.floats(allow_nan=False), st.sampled_from([0.0, 0.1, 0.5, 1.0])]))
        values = data.draw(hnp.arrays(np.float64, shape, elements=elements))
        if data.draw(st.booleans()):
            values[-1] = values[-1, 0]  # an all-tied row
        want = np.array([oracles.average_ranks(row) for row in values])
        ranks = metrics._average_ranks(values, np.argsort(values, axis=-1))
        assert ranks.tobytes() == want.tobytes()
        assert metrics._average_ranks(values[-1], np.argsort(values[-1])).tobytes() == want[-1].tobytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_score_rows_match_the_vector_auroc_bit_for_bit(self, data):
        n = data.draw(st.integers(2, 40))
        labels = data.draw(zero_ones(n).filter(lambda ls: 0 < sum(ls) < len(ls)))
        rows = data.draw(st.integers(1, 5))
        elements = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
        scores = data.draw(hnp.arrays(np.float64, (rows, n), elements=elements))
        got = auroc(scores, labels)
        assert got.tolist() == [auroc(row, labels) for row in scores]
        positives = np.array(labels) == 1
        n_pos = int(positives.sum())
        for row, value in zip(scores, got):  # the rank sum over the oracle's ranks
            u = oracles.average_ranks(row)[positives].sum() - n_pos * (n_pos + 1) / 2.0
            assert value == u / (n_pos * (n - n_pos))

    def test_single_positive_and_all_tied_rows(self):
        scores = np.array([[0.1, 0.2, 0.3, 0.4], [0.5] * 4, [0.9, 0.2, 0.2, 0.1]])
        assert auroc(scores, [0, 0, 1, 0]).tolist() == [2 / 3, 0.5, 0.5]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, data):
        n = data.draw(st.integers(2, 60))
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda ls: 0 < sum(ls) < len(ls)
            )
        )
        # coarse grid of score values makes ties likely
        scores = data.draw(
            st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=n, max_size=n)
        )
        assert auroc(scores, labels) == pytest.approx(auroc_bruteforce(scores, labels), abs=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_monotone_transform(self, data):
        n = data.draw(st.integers(2, 40))
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda ls: 0 < sum(ls) < len(ls)
            )
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        scores = rng.uniform(0.05, 0.95, n)
        transformed = scores**3 / (scores**3 + (1 - scores) ** 3)  # strictly monotone on (0,1)
        assert auroc(scores, labels) == pytest.approx(auroc(transformed, labels), abs=1e-12)


@st.composite
def tied_scores(draw):
    """Scores taking at most four distinct values, so that most are tied,
    and labels with at least one positive."""
    n = draw(st.integers(1, 80))
    values = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-12, 0.5, 1.0]),
                           min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), draw(zero_ones(n).filter(any))


def auprc_tests(m):
    """The AUPRC hand values, tested on the ``auprc`` of module ``m``:
    ``multifair.metrics`` or the oracles."""
    auprc = m.auprc

    class Auprc:
        def test_perfect_separation(self):
            assert auprc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

        def test_two_row_sweep(self):
            # descending sweep: 0.9 (neg) then 0.2 (pos); precision at full recall is 1/2
            assert auprc([0.2, 0.9], [1, 0]) == pytest.approx(0.5)

        def test_random_scores_approach_prevalence(self):
            rng = np.random.default_rng(11)
            n, p = 10_000, 0.25
            labels = rng.binomial(1, p, n)
            scores = rng.uniform(size=n)
            assert auprc(scores, labels) == pytest.approx(p, abs=0.02)

        def test_no_positives_undefined(self):
            with pytest.raises(MetricUndefinedError, match="AUPRC undefined"):
                auprc([0.4, 0.5], [0, 0])

        def test_ties_grouped_into_one_step(self):
            # all scores tied: single threshold step, AP = prevalence exactly
            assert auprc([0.3] * 8, [1, 0, 0, 1, 0, 0, 1, 0]) == pytest.approx(3 / 8)

    return Auprc


class TestAuprc(auprc_tests(metrics)):
    def test_tied_infinite_scores_are_one_step(self):
        # inf - inf is NaN, so neighbours compared by their difference would
        # split this tie into steps that depend on the rows' order
        assert auprc([np.inf, np.inf, 0.5], [1, 0, 1]) == auprc([np.inf, np.inf, 0.5], [0, 1, 1])
        assert auprc([-np.inf, -np.inf], [1, 0]) == 0.5

    @given(case=tied_scores())
    @settings(max_examples=300, deadline=None)
    @example(case=([0.0, -0.0, 0.0, -0.0, 0.5], [1, 0, 0, 1, 1]))  # zeros of both signs tie
    @example(case=(np.repeat([0.2, 0.7, 0.9], 300), np.tile([0, 1, 1], 300)))
    def test_matches_the_stable_sort_oracle(self, case):
        scores, labels = case
        assert auprc(scores, labels).hex() == oracles.auprc(scores, labels).hex()


class TestAuprcOnOracles(auprc_tests(oracles)):
    pass


@st.composite
def random_scores(draw):
    """Scores drawn from [0, 1], ties unlikely, and labels of both kinds."""
    n = draw(st.integers(2, 80))
    scores = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return scores, draw(zero_ones(n).filter(lambda labels: 0 < sum(labels) < n))


class TestRankingMetrics:
    """``ranking_metrics`` gives AUROC and AUPRC from one ascending sort of
    the scores, which AUPRC reads reversed."""

    @given(case=random_scores() | tied_scores())
    @settings(max_examples=300, deadline=None)
    @example(case=([0.0, -0.0, 0.0, -0.0, 0.5], [1, 0, 0, 1, 1]))  # zeros of both signs tie
    @example(case=(np.repeat([0.2, 0.7, 0.9], 300), np.tile([0, 1, 1], 300)))
    def test_equals_the_two_sort_path_bit_for_bit(self, case):
        scores, labels = case
        if 0 < sum(labels) < len(labels):
            got = metrics.ranking_metrics(scores, labels)
            # AUROC's ascending sort, and AUPRC's own descending one
            want = (auroc(scores, labels), oracles.auprc(scores, labels))
            assert [value.hex() for value in got] == [value.hex() for value in want]
            assert got == (auroc(scores, labels), auprc(scores, labels))
        else:
            # AUROC's check comes first, so a report fails with AUROC's message
            with pytest.raises(MetricUndefinedError, match="AUROC undefined"):
                metrics.ranking_metrics(scores, labels)


@pytest.mark.parametrize("metric", [auroc, auprc, metrics.ranking_metrics])
class TestScoreMetricInputs:
    def test_scores_and_labels_must_have_one_length(self, metric):
        with pytest.raises(DataError, match="differ in length"):
            metric([0.1, 0.2, 0.3], [0, 1])
        with pytest.raises(DataError, match="differ in length"):
            metric(np.full((2, 3), 0.5), [0, 1])  # score rows against the labels

    def test_labels_must_be_zero_or_one(self, metric):
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            metric([0.1, 0.2, 0.3], [0, 1, 2])

    def test_scores_must_not_be_nan(self, metric):
        with pytest.raises(DataError, match="NaN"):
            metric([0.1, np.nan, 0.3], [0, 1, 1])


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(preds_from([1, 0, 1], [1, 0, 1])) == 1.0

    def test_complement_is_zero(self):
        assert accuracy(preds_from([1, 0, 1], [0, 1, 0])) == 0.0


def random_instance(seed, n=40):
    rng = np.random.default_rng(seed)
    labels = rng.binomial(1, 0.5, n)
    predictions = rng.binomial(1, 0.5, n)
    membership = rng.binomial(1, 0.5, n)
    # keep both groups populated
    membership[0], membership[1] = 0, 1
    preds = preds_from(predictions, labels)
    return preds, membership


def property_tests(m):
    """The metric properties, tested on the metric functions of module ``m``:
    ``multifair.metrics`` or the oracles."""
    disparate_impact = m.disparate_impact
    statistical_parity_difference = m.statistical_parity_difference
    average_odds_difference = m.average_odds_difference

    class Properties:
        @given(st.integers(0, 10**6))
        @settings(max_examples=60, deadline=None)
        def test_swapping_privileged_negates_differences(self, seed):
            preds, membership = random_instance(seed)
            g1 = group_of(membership, privileged=1)
            g0 = group_of(membership, privileged=0)
            spd = statistical_parity_difference(preds, g1)
            assert -1.0 <= spd <= 1.0
            assert disparate_impact(preds, g1) >= 0.0
            assert spd == pytest.approx(
                -statistical_parity_difference(preds, g0), abs=1e-12
            )
            assert average_odds_difference(preds, g1) == pytest.approx(
                -average_odds_difference(preds, g0), abs=1e-12
            )

        @given(st.integers(0, 10**6))
        @settings(max_examples=60, deadline=None)
        def test_swapping_privileged_inverts_di(self, seed):
            preds, membership = random_instance(seed)
            g1 = group_of(membership, privileged=1)
            g0 = group_of(membership, privileged=0)
            di = disparate_impact(preds, g1)
            if 0 < di < math.inf:
                assert disparate_impact(preds, g0) == pytest.approx(1.0 / di, rel=1e-12)

        @given(st.integers(0, 10**6))
        @settings(max_examples=60, deadline=None)
        def test_di_one_iff_spd_zero(self, seed):
            preds, membership = random_instance(seed)
            group = group_of(membership)
            if preds.predictions[group.privileged_mask].mean() > 0:
                di = disparate_impact(preds, group)
                spd = statistical_parity_difference(preds, group)
                assert (di == pytest.approx(1.0, abs=1e-12)) == (spd == pytest.approx(0.0, abs=1e-12))

        @given(st.integers(0, 10**6), st.integers(0, 10**6))
        @settings(max_examples=40, deadline=None)
        def test_joint_row_permutation_invariance(self, seed, perm_seed):
            preds, membership = random_instance(seed)
            group = group_of(membership)
            perm = np.random.default_rng(perm_seed).permutation(len(preds))
            permuted = PredictionSet(preds.scores[perm], preds.labels[perm])
            pgroup = group_of(membership[perm])
            assert statistical_parity_difference(preds, group) == pytest.approx(
                statistical_parity_difference(permuted, pgroup), abs=1e-12
            )
            assert average_odds_difference(preds, group) == pytest.approx(
                average_odds_difference(permuted, pgroup), abs=1e-12
            )
            assert accuracy(preds) == accuracy(permuted)
            if 0 < preds.labels.sum() < len(preds):
                assert auroc(preds.scores, preds.labels) == pytest.approx(
                    auroc(permuted.scores, permuted.labels), abs=1e-12
                )

    return Properties


class TestProperties(property_tests(metrics)):
    pass


class TestPropertiesOnOracles(property_tests(oracles)):
    pass


class TestEvaluateFairness:
    def test_flags_undefined_di(self):
        # privileged group (code 1) selected nobody, unprivileged selected one
        preds = preds_from([1, 0, 0, 0], [1, 0, 1, 0])
        (report,) = evaluate_fairness(preds, [group_of([0, 0, 1, 1], privileged=1)])
        assert math.isinf(report.di)
        assert "di_undefined" in report.flags

    def test_report_fields_round(self):
        preds, membership = random_instance(5)
        (report,) = evaluate_fairness(preds, [group_of(membership)])
        for field in ("spd", "aod", "eod"):
            assert math.isfinite(getattr(report, field))

    @staticmethod
    def oracle(preds, group):
        """evaluate_fairness assembled from the per-metric oracles."""
        di = disparate_impact(preds, group)
        flags = []
        if math.isinf(di):
            flags.append("di_undefined")
        if not odds_support_complete(preds, group):
            flags.append("aod_partial_support")
        return FairnessReport(
            evaluated_attribute=group.attribute_name,
            di=di,
            spd=statistical_parity_difference(preds, group),
            aod=average_odds_difference(preds, group),
            eod=equal_opportunity_difference(preds, group),
            flags=tuple(flags),
        )

    @staticmethod
    def evaluate_one(preds, group):
        (report,) = evaluate_fairness(preds, [group])
        return report

    @staticmethod
    def outcome(evaluate, rows, privileged):
        """The report's name, flags and value bits, or the error's type and
        message, for (label, prediction, membership) rows."""
        labels, predictions, membership = (np.array(column) for column in zip(*rows))
        preds = preds_from(predictions, labels)
        try:
            report = evaluate(preds, group_of(membership, privileged))
        except (DataError, MetricUndefinedError) as exc:
            return type(exc), str(exc)
        values = [getattr(report, name).hex() for name in ("di", "spd", "aod", "eod")]
        return report.evaluated_attribute, report.flags, values

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40),
        st.sampled_from((0, 1)),
    )
    @settings(max_examples=300, deadline=None)
    @example(rows=[(0, 1, 0), (0, 0, 0), (1, 1, 1), (0, 0, 1)], privileged=1)  # a side with no positives
    @example(rows=[(1, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 1)], privileged=1)  # a side with no negatives
    @example(rows=[(1, 1, 1), (0, 0, 1)], privileged=0)  # an empty side
    @example(rows=[(1, 0, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)], privileged=1)  # DI undefined
    def test_bincount_matches_per_metric_oracles(self, rows, privileged):
        assert self.outcome(self.evaluate_one, rows, privileged) == self.outcome(self.oracle, rows, privileged)

    @pytest.mark.parametrize("rows, privileged, error, message", [
        ([(0, 1, 0), (0, 0, 0), (1, 1, 1), (0, 0, 1)], 1, MetricUndefinedError, "EOD undefined"),
        ([(1, 1, 1), (0, 0, 1)], 0, DataError, "empty group"),
    ])
    def test_undefined_cases_raise(self, rows, privileged, error, message):
        kind, text = self.outcome(self.evaluate_one, rows, privileged)
        assert kind is error and message in text

    @given(
        st.integers(1, 4).flatmap(lambda k: st.tuples(
            # (label, prediction, each group's membership) rows, and each group's privileged code
            st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), zero_ones(k)),
                     min_size=1, max_size=40),
            zero_ones(k),
        ))
    )
    @settings(max_examples=300, deadline=None)
    # the second of three groups fails EOD, the third has an empty side
    @example(([(1, 1, [0, 1, 1]), (0, 0, [1, 0, 1]), (1, 0, [0, 1, 1]), (1, 1, [1, 1, 1])], [1, 1, 1]))
    # every group defined
    @example(([(1, 1, [0, 0]), (0, 0, [0, 1]), (1, 0, [1, 1]), (0, 1, [1, 0])], [1, 0]))
    def test_many_groups_match_per_group_oracles(self, case):
        """One call over k groups of the same rows gives each group's oracle
        report bit for bit, or the first failing group's error."""
        rows, privileged = case
        labels, predictions, memberships = zip(*rows)
        preds = preds_from(predictions, labels)
        groups = [
            GroupAssignment(f"g{i}", np.array(membership), privileged_value=side)
            for i, (membership, side) in enumerate(zip(zip(*memberships), privileged))
        ]

        def bits(report):
            values = [getattr(report, name).hex() for name in ("di", "spd", "aod", "eod")]
            return report.evaluated_attribute, report.flags, values

        try:
            expected = [bits(self.oracle(preds, group)) for group in groups]
        except (DataError, MetricUndefinedError) as exc:
            expected = (type(exc), str(exc))
        try:
            actual = [bits(report) for report in evaluate_fairness(preds, groups)]
        except (DataError, MetricUndefinedError) as exc:
            actual = (type(exc), str(exc))
        assert actual == expected
