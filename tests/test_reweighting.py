from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles

from multifair.data import GroupAssignment
from multifair.errors import ConfigError, DataError, UnreachableCellError
from multifair.reweighting import (
    LevelWeightConfig,
    SampleWeights,
    cell_multipliers,
    compute_sensitivity_levels,
    distinct_ids,
    m3fair,
    reweight,
    reweight_sequential,
    reweight_single_attribute,
    stacked_cell_multipliers,
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

    def test_level_sum_beyond_int64_rejected(self):
        # summed in int64 this would wrap to level 0, merging the rows
        # unprivileged on every attribute with the fully privileged ones
        top = 2**63 - 1
        with pytest.raises(ConfigError, match=rf"^level weights can sum to {2 * top + 2}, above the int64 maximum {top}$"):
            LevelWeightConfig({"a": top, "b": top, "c": 2})
        a = GroupAssignment("a", np.array([0, 1, 0, 1]), privileged_value=0)
        b = GroupAssignment("b", np.array([0, 0, 1, 1]), privileged_value=0)
        levels = compute_sensitivity_levels([a, b], LevelWeightConfig({"a": 2**62, "b": 2**62 - 1}))
        assert levels.tolist() == [0, 2**62, 2**62 - 1, top]

    @pytest.mark.parametrize("seed", range(20))
    def test_levels_equal_the_python_int_sum(self, seed):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        bound = [k, 2**20, 2**63 - 1][seed % 3]  # the weights sum to at most this
        weights = [int(w) for w in rng.integers(1, bound // k, size=k, endpoint=True)]
        groups = [GroupAssignment(f"g{j}", rng.integers(0, 2, n), privileged_value=int(rng.integers(0, 2)))
                  for j in range(k)]
        config = LevelWeightConfig({g.attribute_name: w for g, w in zip(groups, weights)})
        expected = [sum(w for g, w in zip(groups, weights) if g.membership[i] != g.privileged_value)
                    for i in range(n)]
        assert compute_sensitivity_levels(groups, config).tolist() == expected


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

    @pytest.mark.parametrize("partition", [
        [0.5, 0.9, 1.7, 1.2],  # an int64 cast would truncate to [0, 0, 1, 1]
        [0.0, 0.0, 1.0, 1.0],  # whole floats are still not group ids
        ["0", "0", "1", "1"],  # an int64 cast would parse the strings
        np.array([0, 0, 1, 1], dtype=object),
    ])
    def test_rejects_non_integer_partition(self, partition):
        with pytest.raises(DataError, match="partition must hold integer group ids"):
            reweight([0, 1, 0, 1], partition, SampleWeights.unit(4))

    @pytest.mark.parametrize("partition", [
        np.array([0, 0, 1, 1], dtype=np.uint8),
        np.array([False, False, True, True]),
    ])
    def test_accepts_unsigned_and_bool_partitions(self, partition):
        want = reweight([0, 1, 0, 1], [0, 0, 1, 1], SampleWeights.unit(4))
        got = reweight([0, 1, 0, 1], partition, SampleWeights.unit(4))
        assert got.values.tobytes() == want.values.tobytes()

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
        with pytest.raises(DataError, match="total weight overflows"):
            SampleWeights(np.full(6, 1e308))  # each weight finite, their sum not

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


def cell_count_weights(labels, groups, config, rng):
    """m3fair's unit-prior weights from (atom, label) cells: a row's atom is
    the tuple of its unprivileged indicators.  The cells go to the kernel in
    a shuffled order, with their row counts as prior mass, and each row
    takes its cell's multiplier."""
    atoms = np.array([g.unprivileged_indicator() for g in groups]).T.tolist()
    counts = Counter(zip(map(tuple, atoms), labels.tolist()))
    cells = list(counts)
    rng.shuffle(cells)
    weights = list(config.entries.values())
    levels = np.array([sum(w for w, u in zip(weights, atom) if u) for atom, _ in cells], dtype=np.int64)
    rows = np.array([counts[cell] for cell in cells], dtype=np.float64)
    multipliers = cell_multipliers(np.array([y for _, y in cells], dtype=np.int64), levels, rows)
    by_cell = dict(zip(cells, multipliers.tolist()))
    return np.array([by_cell[(tuple(atom), y)] for atom, y in zip(atoms, labels.tolist())])


class TestCellCountKernel:
    """The grid sweep reweights from (atom, label) cell counts; with the
    unit prior that must give m3fair's per-row weights bit for bit, and the
    same UnreachableCellError."""

    def test_cell_counts_equal_m3fair_rows(self):
        outcomes = Counter()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(2, 60)), int(rng.integers(1, 5))
            groups = [GroupAssignment(f"g{j}", rng.binomial(1, rng.uniform(0.1, 0.9), n),
                                      privileged_value=int(rng.integers(0, 2))) for j in range(k)]
            labels = rng.binomial(1, rng.uniform(0.05, 0.95), n)
            config = LevelWeightConfig({g.attribute_name: int(rng.integers(1, 6)) for g in groups})
            try:
                expected = m3fair(labels, groups, config, SampleWeights.unit(n)).values
            except UnreachableCellError as exc:
                with pytest.raises(UnreachableCellError) as raised:
                    cell_count_weights(labels, groups, config, rng)
                assert str(raised.value) == str(exc)
                outcomes["unreachable"] += 1
                continue
            assert cell_count_weights(labels, groups, config, rng).tobytes() == expected.tobytes()
            outcomes["weights"] += 1
        assert min(outcomes["unreachable"], outcomes["weights"]) >= 30  # both paths are exercised


def kernel_outcomes(labels, partitions, weights):
    """Per point, the one-partition oracle's multiplier bytes or its
    UnreachableCellError message."""
    outcomes = []
    for partition in partitions:
        try:
            outcomes.append(oracles.cell_multipliers(labels, partition, weights).tobytes())
        except UnreachableCellError as exc:
            outcomes.append(str(exc))
    return outcomes


def stacked_outcomes(labels, partitions, weights):
    multipliers, reasons = stacked_cell_multipliers(labels, partitions, weights)
    return [row.tobytes() if reason is None else reason for row, reason in zip(multipliers, reasons)]


@st.composite
def kernel_cases(draw):
    """Labels, 1-8 partitions of the same items, and prior masses: counts,
    non-integer masses, or masses with zeros."""
    n = draw(st.integers(1, 40))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    # few ids or many: numpy sums more than 8 groups' masses in another order
    ids = draw(st.sampled_from([st.sampled_from([-3, 0, 1, 2, 5, 12, 2**62]), st.integers(-3, 30)]))
    partitions = np.array(draw(st.lists(st.lists(ids, min_size=n, max_size=n), min_size=1, max_size=8)),
                          dtype=np.int64)
    masses = st.sampled_from([st.integers(1, 40).map(float), st.floats(0.01, 3.0), st.sampled_from([0.0, 0.5, 1.0, 2.75])])
    weights = np.array(draw(st.lists(draw(masses), min_size=n, max_size=n)), dtype=np.float64)
    assume(weights.sum() > 0.0)
    return labels, partitions, weights


class TestStackedKernel:
    """Each point of the stacked multiplier kernel is bit for bit one
    partition's multipliers (tests/oracles.py), or its own unreachable-cell
    message."""

    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    # the same fibers under two labellings: each point names its own group
    @example(case=(np.array([0, 1, 1, 1]), np.array([[1, 1, 2, 2], [3, 3, 5, 5], [5, 5, 3, 3]]), np.ones(4)))
    # a reachable point beside one whose cell has items but zero prior weight
    @example(case=(np.array([0, 1, 0, 1]), np.array([[0, 0, 1, 1], [0, 1, 0, 1]]), np.array([0.0, 1.0, 2.5, 0.5])))
    def test_points_equal_per_partition_oracle(self, case):
        labels, partitions, weights = case
        expected = kernel_outcomes(labels, partitions, weights)
        assert stacked_outcomes(labels, partitions, weights) == expected
        for partition, outcome in zip(partitions, expected):
            try:
                got = cell_multipliers(labels, partition, weights).tobytes()
            except UnreachableCellError as exc:
                got = str(exc)
            assert got == outcome

    def test_own_group_named_per_point(self):
        labels = np.array([0, 1, 1, 1])
        _, reasons = stacked_cell_multipliers(labels, np.array([[1, 1, 2, 2], [3, 3, 5, 5], [1, 1, 1, 1]]), np.ones(4))
        assert reasons == ["unreachable cell: group 2 has no rows with label 0",
                           "unreachable cell: group 5 has no rows with label 0", None]

    def test_sequential_second_pass_masses(self):
        # rw_sequential's second pass reweights on the first pass's weights,
        # whose masses are not integers
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 80))
            labels = rng.binomial(1, 0.4, n)
            a, b = (GroupAssignment(name, rng.binomial(1, 0.5, n), privileged_value=1) for name in "ab")
            try:
                first = reweight_single_attribute(labels, a, SampleWeights.unit(n)).values
            except UnreachableCellError:
                continue
            assert not np.array_equal(first, np.round(first))
            partitions = np.array([b.membership, a.membership, 3 * b.membership - a.membership], dtype=np.int64)
            expected = kernel_outcomes(labels, partitions, first)
            assert stacked_outcomes(labels, partitions, first) == expected
            if isinstance(expected[0], bytes):
                second = reweight_single_attribute(labels, b, SampleWeights(first)).values
                assert second.tobytes() == (first * np.frombuffer(expected[0])).tobytes()


INT64 = np.iinfo(np.int64)


@st.composite
def id_arrays(draw):
    """int64 ids, 1-D or points x items: a few small ids, ids at either
    int64 extreme, one id repeated, or ids spread wider than their count."""
    n = draw(st.integers(0, 30))
    shape = draw(st.sampled_from([(n,), (draw(st.integers(1, 6)), n)]))
    elements = draw(st.sampled_from([
        st.integers(-3, 12),
        st.integers(INT64.min, INT64.min + 20),
        st.integers(INT64.max - 20, INT64.max),
        st.sampled_from([INT64.min, -1, 0, INT64.max]),
        st.integers(INT64.min, INT64.max),
        st.just(draw(st.integers(INT64.min, INT64.max))),
    ]))
    return draw(arrays(np.int64, shape, elements=elements))


class TestDistinctIds:
    """distinct_ids is np.unique(ids, return_inverse=True), dtypes and
    shapes included, whether it counts the ids or sorts them."""

    @settings(max_examples=300, deadline=None)
    @given(ids=id_arrays())
    def test_equals_np_unique(self, ids):
        for got, want in zip(distinct_ids(ids), np.unique(ids, return_inverse=True)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("ids, sorts", [
        ([5, 6, 7], False),
        ([[3, 3], [0, 1]], False),
        ([INT64.max, INT64.max - 1], False),
        ([INT64.min, INT64.min], False),
        ([5, 7], True),  # three values spanned by two ids
        ([INT64.min, INT64.max], True),
        ([], True),
    ])
    def test_counts_unless_the_ids_span_more_values_than_they_number(self, monkeypatch, ids, sorts):
        real, calls = np.unique, []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        distinct_ids(np.array(ids, dtype=np.int64))
        assert len(calls) == sorts


@st.composite
def level_cases(draw):
    """Labels, 1-3 attributes' memberships (privileged side 0), their level
    weights, some summing near the int64 limit, and a prior."""
    n = draw(st.integers(2, 30))
    rows = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    memberships = draw(st.lists(rows, min_size=1, max_size=3))
    top = draw(st.sampled_from([3, 2**20, int(INT64.max)])) // len(memberships)
    level_weights = draw(st.lists(st.integers(1, top), min_size=len(memberships), max_size=len(memberships)))
    masses = draw(st.sampled_from([st.just(1.0), st.floats(0.01, 3.0)]))
    return draw(rows), memberships, level_weights, np.array(draw(st.lists(masses, min_size=n, max_size=n)))


def level_outcomes(labels, memberships, level_weights, prior):
    """m3fair's and reweight's weight bytes or UnreachableCellError
    messages, and the one-partition oracle's on the same levels."""
    labels = np.array(labels)
    groups = [GroupAssignment(f"g{j}", np.array(m), privileged_value=0) for j, m in enumerate(memberships)]
    config = LevelWeightConfig({group.attribute_name: w for group, w in zip(groups, level_weights)})
    levels = compute_sensitivity_levels(groups, config)
    outcomes = []
    for weigh in (lambda: m3fair(labels, groups, config, SampleWeights(prior)).values,
                  lambda: reweight(labels, levels, SampleWeights(prior)).values,
                  lambda: prior * oracles.cell_multipliers(labels, levels, prior)):
        try:
            outcomes.append(weigh().tobytes())
        except UnreachableCellError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestLevelsNearTheInt64Limit:
    """Levels spanning more values than there are rows take np.unique's
    branch of distinct_ids; m3fair's weights and unreachable-cell messages
    are still the one-partition oracle's."""

    @settings(max_examples=150, deadline=None)
    @given(case=level_cases())
    # levels 0, 2**62 - 1, 2**62 and 2**63 - 1, the int64 maximum
    @example(case=([0, 1, 0, 1, 0, 1, 0, 1], [[0, 0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1]],
                   [2**62, 2**62 - 1], np.ones(8)))
    # rows at the int64 maximum level all have label 1
    @example(case=([0, 1, 0, 1, 0, 1, 1, 1], [[0, 0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1]],
                   [2**62, 2**62 - 1], np.ones(8)))
    def test_m3fair_equals_the_oracle(self, case):
        m3fair_outcome, reweight_outcome, oracle_outcome = level_outcomes(*case)
        assert m3fair_outcome == reweight_outcome == oracle_outcome

    def test_unreachable_top_level_is_named(self):
        labels = [0, 1, 0, 1, 0, 1, 1, 1]
        memberships = [[0, 0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1]]
        outcome = level_outcomes(labels, memberships, [2**62, 2**62 - 1], np.ones(8))[0]
        assert outcome == f"unreachable cell: group {INT64.max} has no rows with label 0"


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
