import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifair.data import GroupAssignment
from multifair.errors import ConfigError, DataError, UnreachableCellError
from multifair.reweighting import (
    LevelWeightConfig,
    SampleWeights,
    compute_sensitivity_levels,
    m3fair,
    reweight,
    reweight_sequential,
    reweight_single_attribute,
)


def frequency_oracle(labels, partition, prior):
    """Independent per-cell oracle in plain Python: each row's new weight is
    prior * mass(label) * mass(group) / (mass(all) * mass(cell))."""
    labels = list(labels)
    partition = list(partition)
    prior = [float(w) for w in prior]
    total = sum(prior)
    label_mass = {d: sum(w for w, y in zip(prior, labels) if y == d) for d in (0, 1)}
    group_mass = {}
    cell_mass = {}
    for g, y, w in zip(partition, labels, prior):
        group_mass[g] = group_mass.get(g, 0.0) + w
        cell_mass[(g, y)] = cell_mass.get((g, y), 0.0) + w
    return [
        w * label_mass[y] * group_mass[g] / (total * cell_mass[(g, y)])
        for g, y, w in zip(partition, labels, prior)
    ]


def random_partition_instance(seed, max_rows=100, n_groups=None):
    """Random labels/partition/priors whose every occurring (group, label)
    cell is populated, so reweighting is well defined."""
    rng = np.random.default_rng(seed)
    if n_groups is None:
        n_groups = int(rng.integers(2, 5))
    while True:
        n = int(rng.integers(2 * n_groups, max_rows + 1))
        labels = rng.binomial(1, rng.uniform(0.2, 0.8), n)
        partition = rng.integers(0, n_groups, n)
        occupied = {(g, d) for g, d in zip(partition.tolist(), labels.tolist())}
        groups = set(partition.tolist())
        wanted = {(g, d) for g in groups for d in set(labels.tolist())}
        if occupied == wanted:
            prior = SampleWeights(rng.uniform(0.1, 5.0, n))
            return labels, partition, prior


class TestSensitivityLevels:
    def test_single_attribute_equals_membership(self):
        group = GroupAssignment("a", np.array([0, 1, 1, 0]), privileged_value=0)
        levels = compute_sensitivity_levels([group], LevelWeightConfig({"a": 1}))
        assert levels.dtype == np.int64 and levels.tolist() == [0, 1, 1, 0]

    def test_two_attribute_enumeration(self):
        # weights (sexish=1, raceish=2); all four membership combinations
        a = GroupAssignment("a", np.array([1, 1, 0, 0]), privileged_value=0)
        b = GroupAssignment("b", np.array([1, 0, 1, 0]), privileged_value=0)
        levels = compute_sensitivity_levels([a, b], LevelWeightConfig({"a": 1, "b": 2}))
        assert levels.tolist() == [3, 1, 2, 0]

    def test_three_attribute_maximum(self):
        rows = np.array([1, 0])
        groups = [
            GroupAssignment(name, rows, privileged_value=0) for name in ("a", "b", "c")
        ]
        levels = compute_sensitivity_levels(groups, LevelWeightConfig({"a": 1, "b": 2, "c": 2}))
        assert levels.tolist() == [5, 0]

    def test_membership_counted_on_unprivileged_side(self):
        group = GroupAssignment("a", np.array([0, 1]), privileged_value=1)
        levels = compute_sensitivity_levels([group], LevelWeightConfig({"a": 3}))
        assert levels.tolist() == [3, 0]

    def test_missing_assignment_rejected(self):
        with pytest.raises(ConfigError, match="no group assignment"):
            compute_sensitivity_levels([], LevelWeightConfig({"a": 1}))

    def test_unset_privileged_rejected(self):
        group = GroupAssignment("a", np.array([0, 1]))
        with pytest.raises(DataError, match="privileged side not set"):
            compute_sensitivity_levels([group], LevelWeightConfig({"a": 1}))

    def test_level_weights_must_be_positive_integers(self):
        with pytest.raises(ConfigError):
            LevelWeightConfig({"a": 0})
        with pytest.raises(ConfigError):
            LevelWeightConfig({"a": 1.5})
        with pytest.raises(ConfigError):
            LevelWeightConfig({})


class TestReweight:
    def test_worked_ten_row_example(self):
        # groups of size 6/4; favorable counts 2 and 3 (5 total)
        labels = np.array([1, 1, 0, 0, 0, 0, 1, 1, 1, 0])
        partition = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
        out = reweight(labels, partition, SampleWeights.unit(10)).values
        assert out[0] == pytest.approx(1.5)       # (g0, y1)
        assert out[2] == pytest.approx(0.75)      # (g0, y0)
        assert out[6] == pytest.approx(2 / 3)     # (g1, y1)
        assert out[9] == pytest.approx(2.0)       # (g1, y0)

    def test_independent_partition_gives_unit_weights(self):
        labels = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        partition = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        out = reweight(labels, partition, SampleWeights.unit(8))
        assert out.values.tolist() == [1.0] * 8

    def test_total_mass_conserved(self):
        labels, partition, prior = random_partition_instance(0)
        out = reweight(labels, partition, prior)
        assert out.total == pytest.approx(prior.total, rel=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_mass_conservation_property(self, seed):
        labels, partition, prior = random_partition_instance(seed)
        out = reweight(labels, partition, prior)
        assert out.total == pytest.approx(prior.total, rel=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_exact_balance_property(self, seed):
        labels, partition, prior = random_partition_instance(seed)
        out = reweight(labels, partition, prior).values
        favorable = labels == 1
        rates = [
            out[(partition == g) & favorable].sum() / out[partition == g].sum()
            for g in np.unique(partition)
        ]
        assert max(rates) - min(rates) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_matches_frequency_oracle(self, seed):
        labels, partition, prior = random_partition_instance(seed)
        ours = reweight(labels, partition, prior).values
        oracle = frequency_oracle(labels, partition, prior.values)
        np.testing.assert_allclose(ours, oracle, rtol=1e-12, atol=0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, seed):
        labels, partition, prior = random_partition_instance(seed)
        out = reweight(labels, partition, prior).values
        scaled = reweight(labels, partition, SampleWeights(2.5 * prior.values)).values
        np.testing.assert_allclose(scaled, 2.5 * out, rtol=1e-12)
        doubled = reweight(labels, partition, SampleWeights(2.0 * prior.values)).values
        assert np.array_equal(doubled, 2.0 * out)  # power-of-two scaling is exact

    def test_empty_cell_with_demand_rejected(self):
        labels = np.array([1, 1, 1, 0, 1, 1])  # group 1 has no unfavorable rows
        partition = np.array([0, 0, 0, 0, 1, 1])
        with pytest.raises(UnreachableCellError, match="group 1 has no rows with label 0"):
            reweight(labels, partition, SampleWeights.unit(6))

    def test_zero_weight_cell_rejected(self):
        labels = np.array([1, 0, 1, 0])
        partition = np.array([0, 0, 1, 1])
        prior = SampleWeights(np.array([1.0, 1.0, 0.0, 1.0]))
        with pytest.raises(UnreachableCellError, match="zero prior weight"):
            reweight(labels, partition, prior)

    @pytest.mark.parametrize(
        "labels, partition, prior, message",
        [
            # groups 9 and 5 each miss a label; 5 sorts first
            ([1, 1, 0, 0, 1, 0], [9, 9, 5, 5, 2, 2], [1.0] * 6,
             "group 5 has no rows with label 1"),
            # group 2's label-1 cell has no weight; group 5 has no label-0 rows
            ([0, 1, 1, 1, 0, 1], [2, 2, 5, 5, 7, 7], [1.0, 0.0, 1.0, 1.0, 1.0, 1.0],
             "group 2, label 1 has zero prior weight"),
            # within one group, label 0 comes before label 1
            ([0, 1, 1, 0, 0, 1], [3, 3, 4, 4, 4, 4], [0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
             "group 3, label 0 has zero prior weight"),
        ],
    )
    def test_first_unreachable_cell_is_named(self, labels, partition, prior, message):
        with pytest.raises(UnreachableCellError) as info:
            reweight(np.array(labels), np.array(partition), SampleWeights(np.array(prior)))
        assert str(info.value) == f"unreachable cell: {message}"

    def test_single_class_labels_keep_weights(self):
        # no label-0 mass anywhere: every cell already balanced
        labels = np.array([1, 1, 1, 1])
        partition = np.array([0, 0, 1, 1])
        prior = SampleWeights(np.array([0.5, 1.5, 2.0, 1.0]))
        out = reweight(labels, partition, prior)
        np.testing.assert_allclose(out.values, prior.values, rtol=1e-15)

    def test_weight_vector_validation(self):
        with pytest.raises(DataError, match="non-negative"):
            SampleWeights(np.array([1.0, -0.1]))
        with pytest.raises(DataError, match="zero total"):
            SampleWeights(np.zeros(3))
        with pytest.raises(DataError, match="NaN or infinite"):
            SampleWeights(np.array([1.0, np.nan]))

    def test_csv_export_round_trips_exactly(self, tmp_path):
        from multifair.reweighting import save_weights_csv

        labels, partition, prior = random_partition_instance(3)
        out = reweight(labels, partition, prior)
        path = tmp_path / "weights.csv"
        save_weights_csv(out, path)
        assert path.read_text().startswith("weight\n")
        assert np.array_equal(np.loadtxt(path, skiprows=1), out.values)


class TestSingleAttributeAndSequential:
    def _ten_row(self):
        labels = np.array([1, 1, 0, 0, 0, 0, 1, 1, 1, 0])
        group = GroupAssignment(
            "g", np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1]), privileged_value=1
        )
        return labels, group

    def test_single_attribute_matches_partition_form(self):
        labels, group = self._ten_row()
        a = reweight_single_attribute(labels, group, SampleWeights.unit(10))
        b = reweight(labels, group.membership, SampleWeights.unit(10))
        assert np.array_equal(a.values, b.values)

    def test_single_attribute_balances_favorable_rate(self):
        labels, group = self._ten_row()
        out = reweight_single_attribute(labels, group, SampleWeights.unit(10)).values
        member = group.membership == 1
        rate1 = out[member & (labels == 1)].sum() / out[member].sum()
        rate0 = out[~member & (labels == 1)].sum() / out[~member].sum()
        assert rate1 == pytest.approx(rate0, abs=1e-15)

    def test_degenerate_single_group(self):
        labels = np.array([1, 0, 1, 0])
        group = GroupAssignment("g", np.array([1, 1, 1, 1]), privileged_value=1)
        # one-group partition collapses to label-frequency weights (all 1 here)
        out = reweight_single_attribute(labels, group, SampleWeights.unit(4))
        assert out.values.tolist() == [1.0] * 4

    def test_sequential_of_one_equals_single(self):
        labels, group = self._ten_row()
        a = reweight_sequential(labels, [group], SampleWeights.unit(10))
        b = reweight_single_attribute(labels, group, SampleWeights.unit(10))
        assert np.array_equal(a.values, b.values)

    def test_sequential_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            reweight_sequential(np.array([0, 1]), [], SampleWeights.unit(2))

    def test_conditionally_independent_attributes_commute(self):
        # 16 rows with A and B independent within each label stratum:
        #   y=1 (8 rows): P(a=1)=3/4, P(b=1)=1/2
        #   y=0 (8 rows): P(a=1)=1/2, P(b=1)=1/4
        rows = []
        rows += [(1, 1, 1)] * 3 + [(1, 0, 1)] * 3 + [(0, 1, 1)] * 1 + [(0, 0, 1)] * 1
        rows += [(1, 1, 0)] * 1 + [(1, 0, 0)] * 3 + [(0, 1, 0)] * 1 + [(0, 0, 0)] * 3
        a = GroupAssignment("a", np.array([r[0] for r in rows]), privileged_value=1)
        b = GroupAssignment("b", np.array([r[1] for r in rows]), privileged_value=1)
        labels = np.array([r[2] for r in rows])
        ab = reweight_sequential(labels, [a, b], SampleWeights.unit(16)).values
        ba = reweight_sequential(labels, [b, a], SampleWeights.unit(16)).values
        np.testing.assert_allclose(ab, ba, rtol=1e-12)
        # cross-check one order against the fold of the frequency oracle
        first = frequency_oracle(labels, a.membership, np.ones(16))
        second = frequency_oracle(labels, b.membership, first)
        np.testing.assert_allclose(ab, second, rtol=1e-12)


class TestM3Fair:
    def _instance(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        while True:
            a = rng.binomial(1, 0.5, n)
            b = rng.binomial(1, 0.5, n)
            labels = rng.binomial(1, 0.5, n)
            ga = GroupAssignment("a", a, privileged_value=1)
            gb = GroupAssignment("b", b, privileged_value=1)
            levels = compute_sensitivity_levels([ga, gb], LevelWeightConfig({"a": 1, "b": 2}))
            cells = {(lv, y) for lv, y in zip(levels.tolist(), labels.tolist())}
            if cells == {(lv, y) for lv in set(levels.tolist()) for y in (0, 1)}:
                return labels, ga, gb

    def test_single_attribute_collapse_bit_identical(self):
        rng = np.random.default_rng(4)
        labels = rng.binomial(1, 0.5, 30)
        membership = rng.binomial(1, 0.5, 30)
        labels[:4] = [0, 1, 0, 1]
        membership[:4] = [0, 0, 1, 1]
        group = GroupAssignment("a", membership, privileged_value=1)
        prior = SampleWeights(rng.uniform(0.5, 2.0, 30))
        direct = reweight_single_attribute(labels, group, prior)
        for level_weight in (1, 2, 5):
            via_levels = m3fair(labels, [group], LevelWeightConfig({"a": level_weight}), prior)
            assert np.array_equal(direct.values, via_levels.values)

    def test_two_attribute_weights_match_oracle_on_level_partition(self):
        labels, ga, gb = self._instance(2)
        config = LevelWeightConfig({"a": 1, "b": 2})
        levels = compute_sensitivity_levels([ga, gb], config)
        assert set(levels.tolist()) <= {0, 1, 2, 3}
        ours = m3fair(labels, [ga, gb], config, SampleWeights.unit(len(labels))).values
        oracle = frequency_oracle(labels, levels, np.ones(len(labels)))
        np.testing.assert_allclose(ours, oracle, rtol=1e-12)

    def test_level_relabeling_same_fibers_same_weights(self):
        labels, ga, gb = self._instance(9)
        rng = np.random.default_rng(9)
        # bit-identical for any prior: the grid shares one fit between such maps
        for prior in (SampleWeights.unit(len(labels)), SampleWeights(rng.uniform(0.5, 2.0, len(labels)))):
            for first, second in (((1, 2), (2, 4)), ((1, 2), (2, 1)), ((1, 1), (2, 2))):
                w1 = m3fair(labels, [ga, gb], LevelWeightConfig(dict(zip("ab", first))), prior)
                w2 = m3fair(labels, [ga, gb], LevelWeightConfig(dict(zip("ab", second))), prior)
                assert w1.values.tobytes() == w2.values.tobytes()

    @pytest.mark.parametrize("level_weights", [(1, 2, 4), (4, 2, 1), (3, 5, 11)])
    def test_injective_levels_equal_full_pattern_partition(self, level_weights):
        # intersectional reference: when no two unprivileged-attribute
        # patterns share a level, m3fair is reweighting over the pattern code
        rng = np.random.default_rng(17)
        n = 400
        groups = [GroupAssignment(name, rng.binomial(1, 0.5, n), privileged_value=1) for name in "abc"]
        labels = rng.binomial(1, 0.5, n)
        prior = SampleWeights(rng.uniform(0.5, 2.0, n))
        code = sum(2**j * g.unprivileged_indicator() for j, g in enumerate(groups))
        assert len({(c, y) for c, y in zip(code.tolist(), labels.tolist())}) == 16
        config = LevelWeightConfig(dict(zip("abc", level_weights)))
        ours = m3fair(labels, groups, config, prior)
        assert ours.values.tobytes() == reweight(labels, code, prior).values.tobytes()

    def test_unreachable_level_cell_names_level(self):
        # rows unprivileged on both attributes (level 3) all have favorable labels
        a = GroupAssignment("a", np.array([1, 1, 1, 1, 0, 0, 0, 0]), privileged_value=0)
        b = GroupAssignment("b", np.array([1, 1, 0, 0, 1, 1, 0, 0]), privileged_value=0)
        labels = np.array([1, 1, 1, 0, 1, 0, 1, 0])
        with pytest.raises(UnreachableCellError, match="group 3"):
            m3fair(labels, [a, b], LevelWeightConfig({"a": 1, "b": 2}), SampleWeights.unit(8))


class TestDuplicatedRowEqualsDoubledWeight:
    """A training row duplicated gives the same total weight per original
    row as that row once with twice its prior weight: every cell mass, and
    so every multiplier, is the same either way."""

    METHODS = {
        "rw_single": lambda labels, groups, prior: reweight_single_attribute(labels, groups[0], prior),
        "rw_sequential": lambda labels, groups, prior: reweight_sequential(labels, groups, prior),
        "m3fair": lambda labels, groups, prior: m3fair(labels, groups, LevelWeightConfig({"a": 1, "b": 2}), prior),
    }

    @staticmethod
    def instance(seed, n=30):
        """Labels, two attributes and a prior with every (a, b, label)
        cell occupied, so every method's cells are reachable."""
        rng = np.random.default_rng(seed)
        while True:
            a, b, labels = rng.binomial(1, 0.5, (3, n))
            if len(set(zip(a.tolist(), b.tolist(), labels.tolist()))) == 8:
                groups = [GroupAssignment("a", a, privileged_value=1), GroupAssignment("b", b, privileged_value=0)]
                return labels, groups, SampleWeights(rng.uniform(0.5, 2.0, n))

    @pytest.mark.parametrize("method", sorted(METHODS))
    @given(seed=st.integers(0, 10**6), copies=st.lists(st.integers(0, 29), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_duplicates_match_doubled_prior(self, method, seed, copies):
        labels, groups, prior = self.instance(seed)
        run = self.METHODS[method]
        rows = np.concatenate([np.arange(len(labels)), copies])
        duplicated = run(
            labels[rows],
            [GroupAssignment(g.attribute_name, g.membership[rows], g.privileged_value) for g in groups],
            SampleWeights(prior.values[rows]),
        )
        heavier = run(labels, groups, SampleWeights(prior.values * (1 + np.bincount(copies, minlength=len(labels)))))
        per_row = np.bincount(rows, weights=duplicated.values)
        np.testing.assert_allclose(per_row, heavier.values, rtol=1e-12)
