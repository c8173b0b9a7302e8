import csv
import itertools
import json
import math
from dataclasses import replace
from typing import get_args, get_type_hints

import numpy as np
import pytest

import multifair.experiment
import multifair.reweighting
from conftest import REPO_ROOT
from multifair.data import Dataset, SplitSpec, binarize_by_threshold, save_csv, set_privileged, split
from multifair.detection import DetectionConfig
from multifair.errors import (
    ConfigError, DegenerateAttributeError, MetricUndefinedError, PipelineError, UnreachableCellError,
)
from multifair.experiment import (
    DatasetConfig,
    ExperimentConfig,
    ExperimentReport,
    GridPoint,
    GridSearchConfig,
    ReportRow,
    _binarize_on_train,
    _evaluate,
    _load_split,
    _run_condition,
    _training_weights,
    compute_training_weights,
    emit_report,
    format_report_table,
    grid_search,
    load_report,
    run_detection,
    run_experiment,
    select_grid_winner,
)
from multifair.metrics import auroc, unfairness
from multifair.model import TrainConfig, fit
from multifair.reweighting import LevelWeightConfig, SampleWeights, m3fair, reweight
from multifair.synth import planted_bias_dataset, two_attribute_biased_dataset


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    save_csv(two_attribute_biased_dataset(1500, seed=11), path,
             label_column="outcome", positive_label="yes", negative_label="no")
    return path


def config_for(path, method="none", **overrides):
    base = dict(
        dataset=DatasetConfig(str(path), "outcome", "yes"),
        sensitive_attributes=("attr_a", "attr_b"),
        method=method,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def _dataset(self):
        return DatasetConfig("x.csv", "y", "1")

    def test_method_specific_fields_exactly_when_required(self):
        ds = self._dataset()
        with pytest.raises(ConfigError, match="requires attribute_order"):
            ExperimentConfig(ds, ("a", "b"), method="rw_sequential")
        with pytest.raises(ConfigError, match="only valid for rw_sequential"):
            ExperimentConfig(ds, ("a", "b"), method="none", attribute_order=("a",))
        with pytest.raises(ConfigError, match="requires level_weights"):
            ExperimentConfig(ds, ("a", "b"), method="m3fair")
        with pytest.raises(ConfigError, match="only valid for m3fair"):
            ExperimentConfig(ds, ("a", "b"), method="none", level_weights={"a": 1})
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(ds, ("a", "b"), method="rw_single")
        with pytest.raises(ConfigError, match="unknown method"):
            ExperimentConfig(ds, ("a",), method="massage")

    def test_attribute_names_must_resolve(self):
        ds = self._dataset()
        with pytest.raises(ConfigError, match="not in sensitive_attributes"):
            ExperimentConfig(ds, ("a",), method="rw_sequential", attribute_order=("b",))
        with pytest.raises(ConfigError, match="not in sensitive_attributes"):
            ExperimentConfig(ds, ("a",), method="m3fair", level_weights={"b": 1})

    def test_repeated_names_rejected(self):
        ds = self._dataset()
        with pytest.raises(ConfigError, match=r"^duplicate names in 'attribute_order': \['a'\]$"):
            ExperimentConfig(ds, ("a", "b"), method="rw_sequential", attribute_order=("a", "a", "b"))
        with pytest.raises(ConfigError, match=r"^duplicate names in 'sensitive_attributes': \['a', 'b'\]$"):
            ExperimentConfig(ds, ("b", "a", "b", "a"))

    def test_string_attribute_lists_rejected(self):
        # tuple("ab") would silently be ("a", "b")
        ds = self._dataset()
        with pytest.raises(ConfigError, match=r"^'sensitive_attributes' must be a list, got 'ab'$"):
            ExperimentConfig(ds, "ab")
        with pytest.raises(ConfigError, match=r"^'attribute_order' must be a list, got 'ab'$"):
            ExperimentConfig(ds, ("a", "b"), method="rw_sequential", attribute_order="ab")
        config = ExperimentConfig(ds, ["a", "b"], method="rw_sequential", attribute_order=["b", "a"])
        assert (config.sensitive_attributes, config.attribute_order) == (("a", "b"), ("b", "a"))
        payload = {"dataset": {"path": "x.csv", "label_column": "y", "positive_label": "1"}}
        with pytest.raises(ConfigError, match=r"^'sensitive_attributes' must be a list, got 'ab'$"):
            ExperimentConfig.from_dict({**payload, "sensitive_attributes": "ab"})
        with pytest.raises(ConfigError, match=r"^'attribute_order' must be a list, got 'ab'$"):
            ExperimentConfig.from_dict({**payload, "sensitive_attributes": ["a", "b"],
                                        "method": "rw_sequential", "attribute_order": "ab"})

    def test_dict_round_trip(self):
        config = ExperimentConfig(
            self._dataset(), ("a", "b"), method="m3fair", level_weights={"a": 1, "b": 2}
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_required_keys_named(self):
        with pytest.raises(ConfigError, match=r"missing config keys: \['dataset'\]"):
            ExperimentConfig.from_dict({"sensitive_attributes": ["a"]})
        with pytest.raises(ConfigError, match=r"missing keys in 'dataset': \['positive_label'\]"):
            ExperimentConfig.from_dict({
                "dataset": {"path": "x.csv", "label_column": "y"},
                "sensitive_attributes": ["a"],
            })

    def test_empty_candidate_list_means_all_columns(self):
        # as before the section parser: [] and null are one config, one hash
        payload = {
            "dataset": {"path": "x.csv", "label_column": "y", "positive_label": "1"},
            "sensitive_attributes": ["a"],
        }
        empty = ExperimentConfig.from_dict({**payload, "detection": {"candidate_columns": []}})
        assert empty == ExperimentConfig.from_dict(payload)

    def test_unknown_keys_rejected(self):
        payload = {
            "dataset": {"path": "x.csv", "label_column": "y", "positive_label": "1"},
            "sensitive_attributes": ["a"],
            "typo": True,
        }
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(payload)

    def test_hash_stable_and_sensitive(self):
        c1 = config_for("x.csv")
        c2 = config_for("x.csv")
        c3 = config_for("x.csv", split=SplitSpec(0.2, 43))
        assert c1.config_hash() == c2.config_hash()
        assert c1.config_hash() != c3.config_hash()


# Valid arguments for each config class, one field of which each generated
# case replaces with a value of the wrong type
VALID_CONFIG_ARGUMENTS = {
    DatasetConfig: {"path": "x.csv", "label_column": "y", "positive_label": "1"},
    ExperimentConfig: {"dataset": DatasetConfig("x.csv", "y", "1"), "sensitive_attributes": ("a",)},
    GridSearchConfig: {},
    SplitSpec: {},
    TrainConfig: {},
    DetectionConfig: {},
    LevelWeightConfig: {"entries": {"a": 1}},
}


def wrong_typed_fields():
    """One case per field of every config class: 5 where the field holds a
    string, else a string (for a number, a list, an object or a section)."""
    for cls, valid in VALID_CONFIG_ARGUMENTS.items():
        cls(**valid)
        for name, hint in get_type_hints(cls).items():
            value = 5 if str in (hint, *get_args(hint)) else "x"
            build = lambda cls=cls, name=name, value=value, valid=valid: cls(**{**valid, name: value})  # noqa: E731
            yield pytest.param(build, name, id=f"{cls.__name__}.{name}")


@pytest.mark.parametrize("build, key", [
    (lambda: SplitSpec(test_fraction="0.2"), "test_fraction"),
    (lambda: GridSearchConfig(validation_fraction="x"), "validation_fraction"),
    (lambda: GridSearchConfig(candidates={"a": 3}), "candidates.a"),
    (lambda: GridSearchConfig(candidates=[("a", (1, 2))]), "candidates"),
    (lambda: DatasetConfig(None, "y", "1"), "path"),
    (lambda: ExperimentConfig(dataset={"path": "x.csv", "label_column": "y", "positive_label": "1"},
                              sensitive_attributes=("a",)), "dataset"),
    (lambda: ExperimentConfig(DatasetConfig("x.csv", "y", "1"), ("a",), train=None), "train"),
    (lambda: ExperimentConfig(DatasetConfig("x.csv", "y", "1"), ("a",), split={}), "split"),
    (lambda: ExperimentConfig(DatasetConfig("x.csv", "y", "1"), ("a",), detection=None), "detection"),
    (lambda: ExperimentConfig(DatasetConfig("x.csv", "y", "1"), ("a",), report_path=5), "report_path"),
    (lambda: ExperimentConfig(DatasetConfig("x.csv", "y", "1"), 5), "sensitive_attributes"),
    (lambda: ExperimentConfig(DatasetConfig("x.csv", "y", "1"), (1,)), r"sensitive_attributes\[0\]"),
    (lambda: ExperimentConfig(DatasetConfig("x.csv", "y", "1"), ("a",), method="rw_sequential",
                              attribute_order=5), "attribute_order"),
    (lambda: ExperimentConfig(DatasetConfig("x.csv", "y", "1"), ("a", "b"), method="rw_sequential",
                              attribute_order=("a", 2)), r"attribute_order\[1\]"),
    *wrong_typed_fields(),
])
def test_configs_built_from_python_check_their_types(build, key):
    with pytest.raises(ConfigError, match=rf"^'{key}' must be "):
        build()


class TestRunExperiment:
    def test_baseline_condition(self, synth_csv):
        report = run_experiment(config_for(synth_csv))
        assert [row.evaluated_attribute for row in report.rows] == ["attr_a", "attr_b"]
        row_a, row_b = report.rows
        assert row_a.acc == row_b.acc and row_a.auroc == row_b.auroc and row_a.auprc == row_b.auprc
        for field in ("acc", "auroc", "auprc"):
            assert 0.0 <= getattr(row_a, field) <= 1.0
        assert row_a.di < 0.8  # baseline is biased by construction
        assert report.converged

    def test_none_invariant_to_attribute_list(self, synth_csv):
        both = run_experiment(config_for(synth_csv))
        only_a = run_experiment(
            config_for(synth_csv, sensitive_attributes=("attr_a",))
        )
        row_both = next(r for r in both.rows if r.evaluated_attribute == "attr_a")
        row_only = only_a.rows[0]
        for field in ("acc", "auroc", "auprc", "di", "spd", "aod", "eod"):
            assert getattr(row_both, field) == getattr(row_only, field)

    def test_m3fair_single_attribute_equals_rw_single(self, synth_csv):
        single = run_experiment(
            config_for(synth_csv, method="rw_single", sensitive_attributes=("attr_a",))
        )
        collapsed = run_experiment(
            config_for(
                synth_csv,
                method="m3fair",
                sensitive_attributes=("attr_a",),
                level_weights={"attr_a": 1},
            )
        )
        for field in ("acc", "auroc", "auprc", "di", "spd", "aod", "eod"):
            assert getattr(single.rows[0], field) == getattr(collapsed.rows[0], field)

    def test_sequential_of_one_equals_rw_single(self, synth_csv):
        single = run_experiment(
            config_for(synth_csv, method="rw_single", sensitive_attributes=("attr_a",))
        )
        seq = run_experiment(
            config_for(
                synth_csv,
                method="rw_sequential",
                sensitive_attributes=("attr_a",),
                attribute_order=("attr_a",),
            )
        )
        for field in ("acc", "auroc", "di", "spd", "aod", "eod"):
            assert getattr(single.rows[0], field) == getattr(seq.rows[0], field)

    def test_mitigation_improves_fairness(self, synth_csv):
        baseline = run_experiment(config_for(synth_csv))
        mitigated = run_experiment(
            config_for(synth_csv, method="m3fair", level_weights={"attr_a": 1, "attr_b": 2})
        )
        base_di = {r.evaluated_attribute: r.di for r in baseline.rows}
        fair_di = {r.evaluated_attribute: r.di for r in mitigated.rows}
        for attr in ("attr_a", "attr_b"):
            assert abs(1 - fair_di[attr]) < abs(1 - base_di[attr])

    def test_stage_named_diagnostics(self, tmp_path):
        config = config_for(tmp_path / "missing.csv")
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == "load"

    @pytest.mark.parametrize("relabelled", [{"attr_a": 2, "attr_b": 4}, {"attr_a": 2, "attr_b": 1}])
    def test_relabelled_levels_keep_weights_and_report(self, synth_csv, relabelled):
        # same level fibers, and the unit prior makes every cell mass exact
        config = config_for(synth_csv, method="m3fair", level_weights={"attr_a": 1, "attr_b": 2})
        other = replace(config, level_weights=relabelled)
        assert compute_training_weights(other).values.tobytes() == compute_training_weights(config).values.tobytes()
        assert run_experiment(other).rows == run_experiment(config).rows

    def test_training_weights_balance_each_level(self, synth_csv):
        config = config_for(synth_csv, method="m3fair", level_weights={"attr_a": 1, "attr_b": 2})
        weights = compute_training_weights(config)
        assert weights.values.sum() == pytest.approx(len(weights), rel=1e-9)


class TestBinarizeOnTrain:
    """Both splits' groups are those of the per-attribute functions on the
    training split's means, and a degenerate attribute fails attribute by
    attribute, in the order given."""

    def test_groups_match_the_per_attribute_functions(self, synth_csv):
        train, test = _load_split(config_for(synth_csv))
        names = ("proxy_a", "attr_b", "x_0")
        train_groups, test_groups = _binarize_on_train(train, test, names)
        assert list(train_groups) == list(test_groups) == list(names)
        for name in names:
            threshold = float(train.column(name).mean())
            expected = set_privileged(binarize_by_threshold(train, name, threshold), train)
            for got, want in ((train_groups[name], expected),
                              (test_groups[name], binarize_by_threshold(test, name, threshold))):
                assert got.attribute_name == name and got.privileged_value == expected.privileged_value
                assert got.membership.dtype == np.int8 and np.array_equal(got.membership, want.membership)

    @staticmethod
    def datasets(train_a, train_b, other_a, other_b):
        def dataset(a, b):
            return Dataset(np.column_stack([a, b]).astype(float), np.arange(len(a)) % 2, ("a", "b"))
        return dataset(train_a, train_b), dataset(other_a, other_b)

    @pytest.mark.parametrize("names, columns, failing, threshold", [
        # a is one-sided on the training split
        (("a", "b"), ([1, 1, 1], [0, 1, 1], [1, 1], [0, 1]), "a", "1.0"),
        # a is one-sided only on the other split: it still fails before b,
        # which is one-sided on the training split
        (("a", "b"), ([1, 3, 5, 7], [2, 2, 2, 2], [1, 2], [0, 3]), "a", "4.0"),
        (("b", "a"), ([1, 3, 5, 7], [2, 2, 2, 2], [1, 2], [0, 3]), "b", "2.0"),
        # only b, only on the other split; the threshold prints as a Python float
        (("a", "b"), ([0, 0, 1], [0, 0, 1], [0, 1], [1, 1]), "b", "0.3333333333333333"),
    ])
    def test_degenerate_attribute_messages_and_order(self, names, columns, failing, threshold):
        train, other = self.datasets(*columns)
        with pytest.raises(DegenerateAttributeError) as err:
            _binarize_on_train(train, other, names)
        assert str(err.value) == f"degenerate attribute {failing!r}: threshold {threshold} leaves one group empty"


class TestReports:
    def test_emitted_report_round_trips(self, synth_csv, tmp_path):
        out = tmp_path / "report.json"
        config = config_for(synth_csv, report_path=str(out))
        report = run_experiment(config)
        assert load_report(out) == report

    def test_byte_identical_across_runs(self, synth_csv, tmp_path):
        out = tmp_path / "r.json"
        config = config_for(synth_csv, report_path=str(out))
        run_experiment(config)
        first_json = out.read_bytes()
        first_txt = (tmp_path / "r.txt").read_bytes()
        run_experiment(config)
        assert out.read_bytes() == first_json
        assert (tmp_path / "r.txt").read_bytes() == first_txt

    def test_empty_report_header_only(self, tmp_path):
        report = ExperimentReport(rows=(), seed=1, config_hash="x", converged=True, n_iter=0)
        emit_report(report, tmp_path / "empty.json")
        table = (tmp_path / "empty.txt").read_text()
        assert table.splitlines() == [table.splitlines()[0]]
        assert "Method" in table
        assert load_report(tmp_path / "empty.json") == report

    def test_undefined_di_round_trips(self, tmp_path):
        row = ReportRow(
            method="none", sensitive_attributes=("a",), evaluated_attribute="a",
            acc=0.5, auroc=0.5, auprc=0.5, di=math.inf, spd=0.1, aod=0.1, eod=0.1,
            flags=("di_undefined",),
        )
        report = ExperimentReport(rows=(row,), seed=0, config_hash="h", converged=True, n_iter=3)
        emit_report(report, tmp_path / "u.json")
        payload = json.loads((tmp_path / "u.json").read_text())
        assert payload["rows"][0]["di"] is None
        assert "undefined" in (tmp_path / "u.txt").read_text()
        assert load_report(tmp_path / "u.json") == report

    def test_failed_read_makes_no_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            load_report("made/by/read/r.json")
        assert list(tmp_path.iterdir()) == []

    def test_performance_columns_span_condition_rows(self, synth_csv):
        report = run_experiment(config_for(synth_csv))
        table = format_report_table(report)
        lines = table.splitlines()
        assert len(lines) == 3
        assert lines[2].lstrip().startswith("attr_b")  # continuation row: EA first


class TestPipelineMetamorphic:
    """Surrogate checks on the committed synthetic data, not paper
    reproduction: moving the label column first and reversing the feature
    columns of the CSV changes no result, and neither does permuting the
    train or the test rows handed to one condition."""

    @pytest.fixture(scope="class")
    def reordered_csv(self, tmp_path_factory):
        with (REPO_ROOT / "data" / "synthetic.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        label = rows[0].index("outcome")
        order = [label] + [i for i in reversed(range(len(rows[0]))) if i != label]
        path = tmp_path_factory.mktemp("reordered") / "synthetic.csv"
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows([row[i] for i in order] for row in rows)
        return path

    @staticmethod
    def committed(name, csv_path):
        payload = json.loads((REPO_ROOT / "configs" / name).read_text())
        payload.pop("grid", None)
        config = ExperimentConfig.from_dict(payload)
        return replace(config, dataset=replace(config.dataset, path=str(csv_path)), report_path=None)

    @pytest.mark.parametrize("name", ["synthetic_baseline.json", "synthetic_m3fair.json"])
    def test_run_metrics_unchanged(self, reordered_csv, name):
        original = run_experiment(self.committed(name, REPO_ROOT / "data" / "synthetic.csv"))
        reordered = run_experiment(self.committed(name, reordered_csv))
        assert [r.evaluated_attribute for r in reordered.rows] == ["attr_a", "attr_b"]
        for before, after in zip(original.rows, reordered.rows, strict=True):
            assert after.evaluated_attribute == before.evaluated_attribute
            assert after.flags == before.flags
            for metric in ("acc", "auroc", "auprc", "di", "spd", "aod", "eod"):
                assert getattr(after, metric) == pytest.approx(getattr(before, metric), rel=0, abs=1e-9)

    @pytest.mark.parametrize("permuted", ["train", "test"])
    @pytest.mark.parametrize("method, fields", [
        ("none", {}),
        ("rw_sequential", {"attribute_order": ("attr_b", "attr_a")}),
        ("m3fair", {"level_weights": {"attr_a": 1, "attr_b": 2}}),
    ])
    def test_stage_row_permutation_leaves_metrics(self, permuted, method, fields):
        config = config_for(REPO_ROOT / "data" / "synthetic.csv", method, **fields)
        splits = dict(zip(("train", "test"), _load_split(config)))
        rows = splits[permuted]
        order = np.random.default_rng(3).permutation(rows.n_rows)
        shuffled = {**splits, permuted: Dataset(rows.features[order], rows.labels[order], rows.column_names)}
        original = _run_condition(config, splits["train"], splits["test"])
        reordered = _run_condition(config, shuffled["train"], shuffled["test"])
        for before, after in zip(original.rows, reordered.rows, strict=True):
            assert after.evaluated_attribute == before.evaluated_attribute
            assert after.flags == before.flags
            for metric in ("acc", "auroc", "auprc", "di", "spd", "aod", "eod"):
                assert getattr(after, metric) == pytest.approx(getattr(before, metric), rel=0, abs=1e-9)

    def test_detect_intersection_unchanged(self, reordered_csv):
        name = "synthetic_baseline.json"
        original = run_detection(self.committed(name, REPO_ROOT / "data" / "synthetic.csv"))
        reordered = run_detection(self.committed(name, reordered_csv))
        assert original.intersection
        assert reordered.intersection == original.intersection


class TestDetectionPipeline:
    def test_detects_planted_column(self, tmp_path):
        path = tmp_path / "planted.csv"
        save_csv(planted_bias_dataset(600, n_noise=10, seed=3), path,
                 label_column="label", positive_label="1", negative_label="0")
        config = ExperimentConfig(
            dataset=DatasetConfig(str(path), "label", "1"),
            sensitive_attributes=("planted",),
            detection=DetectionConfig(top_n=5),
        )
        result = run_detection(config)
        assert "planted" in result.intersection


class TestGridSearch:
    def test_requires_m3fair(self, synth_csv):
        with pytest.raises(ConfigError, match="requires method 'm3fair'"):
            grid_search(config_for(synth_csv))

    def test_enumerates_cartesian_product(self, synth_csv):
        config = config_for(synth_csv, method="m3fair", level_weights={"attr_a": 1, "attr_b": 1})
        result = grid_search(config)
        assert len(result.points) == 4
        combos = {tuple(p.level_weights.values()) for p in result.points}
        assert combos == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert result.report.rows  # winner re-run on the full training split

    def test_every_ok_point_conserves_mass_and_balances(self, synth_csv):
        from dataclasses import replace

        config = config_for(synth_csv, method="m3fair", level_weights={"attr_a": 1, "attr_b": 1})
        result = grid_search(config)
        for point in result.points:
            if point.status != "ok":
                continue
            weights = compute_training_weights(replace(config, level_weights=point.level_weights))
            assert weights.values.sum() == pytest.approx(len(weights), rel=1e-9)
            assert (weights.values > 0).all()

    def test_winner_minimizes_composite(self):
        points = [
            GridPoint({"a": 1, "b": 1}, "ok", score=0.30, val_auroc=0.80),
            GridPoint({"a": 1, "b": 2}, "ok", score=0.00, val_auroc=0.70),
            GridPoint({"a": 2, "b": 1}, "ok", score=0.10, val_auroc=0.90),
            GridPoint({"a": 2, "b": 2}, "failed", reason="unreachable cell"),
        ]
        assert select_grid_winner(points).level_weights == {"a": 1, "b": 2}

    def test_tie_breaks_auroc_then_lexicographic(self):
        points = [
            GridPoint({"a": 2, "b": 1}, "ok", score=0.2, val_auroc=0.75),
            GridPoint({"a": 1, "b": 2}, "ok", score=0.2, val_auroc=0.80),
            GridPoint({"a": 1, "b": 1}, "ok", score=0.2, val_auroc=0.80),
        ]
        assert select_grid_winner(points).level_weights == {"a": 1, "b": 1}

    def test_all_failed_is_pipeline_error(self):
        points = [GridPoint({"a": 1}, "failed", reason="x")]
        with pytest.raises(PipelineError, match="all grid points failed"):
            select_grid_winner(points)

    def test_unreachable_points_recorded_failed(self, tmp_path):
        # rows unprivileged on A only are all favorable, so any level setting
        # isolating them (weights (1,2) and (2,1)) has an empty unfavorable
        # cell; (1,1) and (2,2) merge them with mixed rows and succeed
        blocks = (
            [(1, 0, 1)] * 3 + [(0, 1, 1)] * 2 + [(0, 1, 0)] * 2
            + [(1, 1, 1)] * 1 + [(1, 1, 0)] * 5 + [(0, 0, 1)] * 4 + [(0, 0, 0)] * 2
        )
        rows = blocks * 12
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(len(rows))
        features = np.column_stack(
            [np.array([r[0] for r in rows], dtype=float),
             np.array([r[1] for r in rows], dtype=float),
             noise]
        )
        labels = np.array([r[2] for r in rows])
        path = tmp_path / "crafted.csv"
        save_csv(Dataset(features, labels, ("attr_a", "attr_b", "x")), path)
        config = ExperimentConfig(
            dataset=DatasetConfig(str(path), "label", "1"),
            sensitive_attributes=("attr_a", "attr_b"),
            method="m3fair",
            level_weights={"attr_a": 1, "attr_b": 2},
        )
        result = grid_search(config)
        status = {tuple(p.level_weights.values()): p.status for p in result.points}
        assert status[(1, 2)] == "failed"
        assert status[(2, 1)] == "failed"
        # each failed point names its own level for the A-only rows
        reason = {tuple(p.level_weights.values()): p.reason for p in result.points}
        assert reason[(1, 2)] == "unreachable cell: group 1 has no rows with label 0"
        assert reason[(2, 1)] == "unreachable cell: group 2 has no rows with label 0"
        assert status[(1, 1)] == "ok"
        assert status[(2, 2)] == "ok"
        assert tuple(result.winner.entries.values()) in {(1, 1), (2, 2)}

    def test_grid_config_validation(self):
        with pytest.raises(ConfigError, match="unsupported selection metric"):
            GridSearchConfig.from_dict({"selection_metric": "accuracy"})
        assert GridSearchConfig.from_dict({"selection_metric": "composite_unfairness"}) == GridSearchConfig()
        with pytest.raises(ConfigError, match="empty candidate set"):
            GridSearchConfig(candidates={"a": ()})
        with pytest.raises(ConfigError, match=r"^candidate level weights must be positive integers, got 0$"):
            GridSearchConfig(candidates={"a": [2, 0]})
        assert GridSearchConfig(candidates={"a": [2, 1]}).candidates == {"a": (2, 1)}
        with pytest.raises(ConfigError, match=r"^duplicate candidate level weights for 'b': \[2\]$"):
            GridSearchConfig(candidates={"a": [1, 2], "b": (2, 1, 2)})
        # the largest point's levels would wrap in int64
        with pytest.raises(ConfigError, match=rf"^level weights can sum to {2**63}, above the int64 maximum {2**63 - 1}$"):
            GridSearchConfig(candidates={"a": (1, 2**62), "b": (2**62, 3)})
        assert GridSearchConfig(candidates={"a": (1, 2**62), "b": (2**62 - 1, 3)}).candidates["a"] == (1, 2**62)

    @pytest.mark.parametrize("value", [True, 1.5, 2.0, "2"])
    def test_grid_candidates_must_be_integers(self, value):
        with pytest.raises(ConfigError, match=rf"^'candidates\.a\[0\]' must be an integer, got {value!r}$"):
            GridSearchConfig(candidates={"a": (value, 3)})

    @pytest.mark.parametrize("values, message", [
        ([True], "'grid.candidates.a[0]' must be an integer, got True"),
        ([1.5], "'grid.candidates.a[0]' must be an integer, got 1.5"),
        ("12", "'grid.candidates.a' must be a list, got '12'"),
        ([0], "candidate level weights must be positive integers, got 0"),
        ([], "empty candidate set for attribute 'a'"),
        ([1, 1], "duplicate candidate level weights for 'a': [1]"),
        ([3, 1, 3, 2, 1], "duplicate candidate level weights for 'a': [1, 3]"),
    ])
    def test_grid_config_json_messages(self, values, message):
        with pytest.raises(ConfigError) as err:
            GridSearchConfig.from_dict({"candidates": {"a": values}})
        assert str(err.value) == message


class TestGridDeduplication:
    """The committed {1, 2} x {1, 2} grid has two weight classes: (1, 1) and
    (2, 2) share a partition, and so do (1, 2) and (2, 1)."""

    @pytest.fixture
    def committed_grid(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        payload = json.loads((REPO_ROOT / "configs" / "synthetic_m3fair.json").read_text())
        grid = GridSearchConfig.from_dict(payload.pop("grid"))
        return replace(ExperimentConfig.from_dict(payload), report_path=None), grid

    @staticmethod
    def by_levels(result):
        return {tuple(p.level_weights.values()): p for p in result.points}

    def test_one_fit_per_weight_class_plus_winner(self, committed_grid, monkeypatch):
        real_fit, calls = multifair.experiment.fit, []

        def counted_fit(*args, **kwargs):
            calls.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(multifair.experiment, "fit", counted_fit)
        points = self.by_levels(grid_search(*committed_grid))
        assert len(calls) == 3
        for first, second in (((1, 1), (2, 2)), ((1, 2), (2, 1))):
            assert points[first].status == "ok"
            assert replace(points[first], level_weights={}) == replace(points[second], level_weights={})
        assert points[(1, 1)].score != points[(1, 2)].score

    def test_auroc_calls_do_not_grow_with_the_classes(self, committed_grid, monkeypatch):
        real_fit, fits, aurocs = multifair.experiment.fit, [], []
        monkeypatch.setattr(multifair.experiment, "fit", lambda *args: fits.append(args) or real_fit(*args))
        # the winner's run scores AUROC through ranking_metrics
        for name in ("auroc", "ranking_metrics"):
            real = getattr(multifair.experiment, name)
            monkeypatch.setattr(multifair.experiment, name,
                                lambda *args, real=real: aurocs.append(args) or real(*args))
        config, _ = committed_grid
        attrs = ("attr_a", "attr_b", "proxy_a")
        wider = replace(config, sensitive_attributes=attrs, level_weights=dict.fromkeys(attrs, 1))
        counts = []
        for args in (committed_grid, (wider, GridSearchConfig(dict.fromkeys(attrs, (1, 2, 3))))):
            fits.clear()
            aurocs.clear()
            grid_search(*args)
            counts.append((len(fits), len(aurocs)))
        assert counts[0][0] < counts[1][0]
        # the first class's definedness check, one pass over all classes, the winner's run
        assert counts[0][1] == counts[1][1] == 3

    def test_undefined_metric_fails_every_reachable_point(self, tmp_path, monkeypatch):
        # the validation rows with attr_b = 1 are all unfavorable, so EOD on
        # attr_b is undefined whatever the model predicts
        config = config_for(tmp_path / "no_positives.csv", method="m3fair",
                            level_weights={"attr_a": 1, "attr_b": 2})
        data = two_attribute_biased_dataset(1500, seed=11)
        row_ids = Dataset(np.arange(data.n_rows, dtype=float)[:, None], data.labels, ("id",))
        train, _ = split(row_ids, config.split)
        _, validation = split(train, SplitSpec(GridSearchConfig().validation_fraction, config.split.seed))
        rows = validation.column("id").astype(int)
        labels = data.labels.copy()
        labels[rows[data.column("attr_b")[rows] == 1]] = 0
        save_csv(Dataset(data.features, labels, data.column_names), config.dataset.path,
                 label_column="outcome", positive_label="yes", negative_label="no")
        real_select, swept = multifair.experiment.select_grid_winner, []
        real_fit, fits = multifair.experiment.fit, []
        monkeypatch.setattr(multifair.experiment, "select_grid_winner",
                            lambda points: swept.append(points) or real_select(points))
        monkeypatch.setattr(multifair.experiment, "fit", lambda *args: fits.append(args) or real_fit(*args))
        with pytest.raises(PipelineError, match=r"^\[grid\] all grid points failed$"):
            grid_search(config)
        (points,) = swept
        assert len(points) == 4 and len(fits) == 1  # definedness is checked on the first class only
        for point in points:
            assert (point.status, point.reason) == (
                "failed", "EOD undefined: attribute 'attr_b' has a group with no positive labels"
            )


def weight_classes(box, k):
    """Every weight class a grid over ``box`` per attribute reaches, with
    all 2^k atoms present: a point acts only through which atoms share a
    level sum, so each class is the atoms' levels numbered by first
    appearance, as the sweep keys its points."""
    classes = set()
    for weights in itertools.product(box, repeat=k):
        first: dict[int, int] = {}
        levels = (sum(w for i, w in enumerate(weights) if atom >> i & 1) for atom in range(2 ** k))
        classes.add(tuple(first.setdefault(level, len(first)) for level in levels))
    return classes


class TestWhatAGridPointMeans:
    """README, "what a grid point means": the classes each box reaches, and
    M³Fair as intersectional RW at the committed census grid winner."""

    @pytest.mark.parametrize("k, box, reached, total", [
        (2, (1, 2), 2, 2),
        (3, (1, 2), 7, 11),
        (3, (1, 2, 3), 10, 11),
        (4, (1, 2, 3), 52, 216),  # the benchmark's grid
    ])
    def test_classes_a_box_reaches(self, k, box, reached, total):
        every = weight_classes(range(1, 9), k)
        assert len(every) == total
        assert len(weight_classes(box, k)) == reached
        assert weight_classes(box, k) <= every
        # joint intersectional RW, every atom its own level, is reached only for k = 2
        assert (tuple(range(2 ** k)) in weight_classes(box, k)) == (k == 2)

    def test_census_grid_winner_is_intersectional_rw(self):
        attrs = ("sex=Male", "race=White")  # as configs/census_surrogate_m3fair.json
        config = ExperimentConfig(
            DatasetConfig(str(REPO_ROOT / "data" / "census_surrogate.csv"), "income", ">50K"), attrs)
        train, test = _load_split(config)
        groups = _binarize_on_train(train, test, attrs)[0]
        ordered = [groups[name] for name in attrs]
        unit = SampleWeights.unit(train.n_rows)
        atom = sum(2 ** i * group.unprivileged_indicator() for i, group in enumerate(ordered))
        joint = reweight(train.labels, atom, unit).values

        def weights(levels):
            return m3fair(train.labels, ordered, LevelWeightConfig(dict(zip(attrs, levels))), unit).values

        winner = json.loads((REPO_ROOT / "out" / "census_surrogate_grid.json").read_text())["winner_level_weights"]
        assert tuple(winner.values()) == (1, 2)
        assert weights((1, 2)).tobytes() == weights((2, 1)).tobytes() == joint.tobytes()
        assert np.abs(weights((1, 1)) / joint - 1).max() > 0.4  # {1, 1} pools two atoms


def per_point_oracle(config, grid):
    """Every point scored on its own, without keying points on their level
    fibers: its own config, weights, fit, fairness reports, Python-sum
    composite and AUROC.  Also returns the number of distinct weight vectors."""
    train, _ = _load_split(config)
    subtrain, validation = split(train, SplitSpec(grid.validation_fraction, config.split.seed))
    sub_groups, val_groups = _binarize_on_train(subtrain, validation, config.sensitive_attributes)
    attrs = tuple(config.level_weights)
    points, distinct = [], set()
    for combo in itertools.product(*(grid.candidates[name] for name in attrs)):
        level_weights = dict(zip(attrs, combo))
        try:
            weights = _training_weights(replace(config, level_weights=level_weights), subtrain, sub_groups)
            distinct.add(weights.values.tobytes())
            preds, fairness = _evaluate(fit(subtrain, weights, config.train), validation, val_groups)
            val_auroc = auroc(preds.scores, preds.labels)
        except (UnreachableCellError, MetricUndefinedError) as exc:
            points.append(GridPoint(level_weights, "failed", reason=str(exc)))
            continue
        score = sum(sum(unfairness(f.di, f.spd, f.aod, f.eod)) for f in fairness)
        points.append(GridPoint(level_weights, "ok", score=score, val_auroc=val_auroc))
    return points, len(distinct)


class TestSweepOracle:
    """The keyed, batch-scored sweep gives every point the outcome it gets
    when scored on its own, with one reweight per weight class."""

    @staticmethod
    def committed_cube():
        attrs = ("attr_a", "attr_b", "proxy_a")
        config = config_for(REPO_ROOT / "data" / "synthetic.csv", method="m3fair",
                            sensitive_attributes=attrs, level_weights=dict.fromkeys(attrs, 1))
        return config, GridSearchConfig(candidates=dict.fromkeys(attrs, (1, 2, 3)))

    @staticmethod
    def unreachable_square(tmp_path):
        # rows unprivileged on attr_a only are all favorable: a level map
        # that gives them a level of their own leaves its unfavorable cell empty
        blocks = [(1, 0, 1)] * 3 + [(0, 1, 1)] * 2 + [(0, 1, 0)] * 2 + [(1, 1, 1)] * 1 \
            + [(1, 1, 0)] * 5 + [(0, 0, 1)] * 4 + [(0, 0, 0)] * 2
        rows = np.array(blocks * 12, dtype=float)
        noise = np.random.default_rng(0).standard_normal(len(rows))
        path = tmp_path / "crafted.csv"
        save_csv(Dataset(np.column_stack([rows[:, :2], noise]), rows[:, 2].astype(int),
                         ("attr_a", "attr_b", "x")), path)
        config = ExperimentConfig(DatasetConfig(str(path), "label", "1"), ("attr_a", "attr_b"),
                                  method="m3fair", level_weights={"attr_a": 1, "attr_b": 1})
        return config, GridSearchConfig(candidates={"attr_a": (1, 2, 3), "attr_b": (1, 2, 3)})

    @pytest.mark.parametrize("case", ["committed_cube", "unreachable_square"])
    def test_sweep_equals_per_point_oracle(self, case, tmp_path, monkeypatch):
        config, grid = self.committed_cube() if case == "committed_cube" else self.unreachable_square(tmp_path)
        expected, distinct = per_point_oracle(config, grid)
        unreachable = sum((p.reason or "").startswith("unreachable cell") for p in expected)
        assert distinct < len(expected) - unreachable  # some points share a class
        assert (unreachable > 0) == (case == "unreachable_square")
        # the multiplier kernel, as the sweep calls it and as m3fair's reweight does
        real_kernel, calls = multifair.reweighting.stacked_cell_multipliers, []
        for module in (multifair.experiment, multifair.reweighting):
            monkeypatch.setattr(module, "stacked_cell_multipliers",
                                lambda *args: calls.append(args) or real_kernel(*args))
        assert grid_search(config, grid).points == tuple(expected)
        # one call for every point of the sweep, one for the winner
        assert [len(args[1]) for args in calls] == [len(expected), 1]
