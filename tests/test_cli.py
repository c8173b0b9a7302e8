import contextlib
import io
import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multifair.cli
import multifair.experiment
from conftest import REPO_ROOT
from multifair.cli import main
from multifair.data import Dataset, SplitSpec, save_csv, split
from multifair.errors import DataError
from multifair.synth import planted_bias_dataset, two_attribute_biased_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    csv_path = root / "synth.csv"
    save_csv(two_attribute_biased_dataset(1200, seed=4), csv_path,
             label_column="outcome", positive_label="yes", negative_label="no")
    return root, csv_path


def write_config(root, csv_path, name="config.json", **extra):
    payload = {
        "dataset": {"path": str(csv_path), "label_column": "outcome", "positive_label": "yes"},
        "split": {"test_fraction": 0.2, "seed": 42},
        "sensitive_attributes": ["attr_a", "attr_b"],
        "method": "none",
    }
    payload.update(extra)
    path = root / name
    path.write_text(json.dumps(payload, indent=2))
    return path


class TestRun:
    def test_run_writes_reports_and_exits_zero(self, workspace, capsys):
        root, csv_path = workspace
        config = write_config(root, csv_path, report_path=str(root / "base.json"))
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "Method" in out and "attr_a" in out
        assert (root / "base.json").exists() and (root / "base.txt").exists()

    def test_output_flag_overrides_report_path(self, workspace):
        root, csv_path = workspace
        config = write_config(root, csv_path, name="c2.json")
        assert main(["run", "--config", str(config), "--output", str(root / "o2")]) == 0
        assert (root / "o2.json").exists()

    def test_m3fair_condition(self, workspace, capsys):
        root, csv_path = workspace
        config = write_config(
            root, csv_path, name="c3.json",
            method="m3fair", level_weights={"attr_a": 1, "attr_b": 2},
        )
        assert main(["run", "--config", str(config)]) == 0
        assert "m3fair" in capsys.readouterr().out

    def test_missing_dataset_exits_nonzero_with_stage(self, workspace, capsys):
        root, _ = workspace
        config = write_config(root, root / "gone.csv", name="c4.json")
        assert main(["run", "--config", str(config)]) == 1
        assert "[load]" in capsys.readouterr().err

    def test_invalid_config_exits_nonzero(self, workspace, capsys):
        root, csv_path = workspace
        config = write_config(root, csv_path, name="c5.json", method="nonsense")
        assert main(["run", "--config", str(config)]) == 1
        assert "[config]" in capsys.readouterr().err


COMMANDS = ["run", "detect", "grid", "weights"]


@pytest.mark.parametrize("command", COMMANDS)
class TestStageErrors:
    """A bad dataset ends every subcommand in one line naming its stage."""

    def run(self, root, command, csv_path, capsys):
        config = write_config(root, csv_path, name=f"{command}.json", method="m3fair",
                              level_weights={"attr_a": 1, "attr_b": 2})
        argv = [command, "--config", str(config), "--output", str(root / f"{command}-out")]
        assert main(argv) == 1
        return capsys.readouterr().err

    def test_one_data_row_fails_at_split(self, tmp_path, command, capsys):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("attr_a,attr_b,outcome\n1,0,yes\n")
        assert self.run(tmp_path, command, csv_path, capsys) == "error [split] need at least 2 rows to split\n"

    def test_missing_file_fails_at_load(self, tmp_path, command, capsys):
        err = self.run(tmp_path, command, tmp_path / "gone.csv", capsys)
        assert err.startswith("error [load] ") and err.count("\n") == 1 and "gone.csv" in err


class TestConfigTypes:
    """A config value of the wrong JSON type is a config error naming its
    key, never a traceback or a value used as something else."""

    @pytest.mark.parametrize("extra, message", [
        ({"sensitive_attributes": None}, "'sensitive_attributes' must be a list"),
        ({"sensitive_attributes": "attr_a"}, "'sensitive_attributes' must be a list"),
        ({"train": {"l2_penalty": "x"}}, "'train.l2_penalty' must be a number"),
        ({"train": {"max_iterations": 1000.0}}, "'train.max_iterations' must be an integer"),
        ({"train": {"max_iterations": True}}, "'train.max_iterations' must be an integer"),
        ({"split": {"test_fraction": "0.2"}}, "'split.test_fraction' must be a number"),
        ({"split": None}, "'split' must be an object"),
        ({"grid": {"candidates": [1, 2]}}, "'grid.candidates' must be an object"),
        ({"level_weights": [1]}, "'level_weights' must be an object"),
    ])
    def test_wrong_typed_value(self, workspace, capsys, extra, message):
        root, csv_path = workspace
        config = write_config(root, csv_path, name="typed.json", **extra)
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [config] ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, extra", [
        ("run", {"method": "m3fair", "level_weights": {"attr_a": 2**63 - 1, "attr_b": 2}}),
        ("grid", {"method": "m3fair", "level_weights": {"attr_a": 1, "attr_b": 1},
                  "grid": {"candidates": {"attr_a": [1, 2**63 - 2], "attr_b": [3]}}}),
    ])
    def test_level_sum_beyond_int64(self, workspace, capsys, command, extra):
        root, csv_path = workspace
        config = write_config(root, csv_path, name="wrap.json", **extra)
        assert main([command, "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error [config] level weights can sum to {2**63 + 1}, above the int64 maximum {2**63 - 1}\n"
        )

    @pytest.mark.parametrize("key", ["l2_penalty", "gradient_tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_train_setting(self, workspace, capsys, key, value):
        # json reads NaN and Infinity; either once gave an all-zero model
        root, csv_path = workspace
        config = write_config(root, csv_path, name="nonfinite.json", train={key: value})
        assert ("NaN" if math.isnan(value) else "Infinity") in config.read_text()
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error [config] {key} must be finite")

    @pytest.mark.parametrize("value", [1e308, 10**400])
    def test_l2_penalty_whose_double_overflows(self, workspace, capsys, value):
        # the gradient's 2 * l2_penalty was inf: the fit stopped at n_iter 0
        # and the run wrote an unfitted model's report
        root, csv_path = workspace
        config = write_config(root, csv_path, name="huge_l2.json", train={"l2_penalty": value},
                              report_path=str(root / "huge_l2" / "report"))
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error [config] l2_penalty must be finite and non-negative, as must twice it, got {value!r}\n")
        assert not (root / "huge_l2").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"config"'])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, text):
        config = tmp_path / "top.json"
        config.write_text(text)
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error [config] 'config' must be an object")


class TestUnreadableConfig:
    """A config that cannot be read ends in a one-line error, never a
    traceback."""

    @pytest.mark.parametrize("command", ["run", "detect", "grid", "weights"])
    def test_directory_is_an_io_error(self, tmp_path, capsys, command):
        assert main([command, "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [io] ") and "Is a directory" in err
        assert "Traceback" not in err

    def test_missing_file_is_an_io_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "gone.json")]) == 1
        assert capsys.readouterr().err.startswith("error [io] ")

    @pytest.mark.parametrize("raw", [b"\xff{}", b'{"method": "caf\xe9"}'])
    def test_invalid_utf8_is_a_config_error(self, tmp_path, capsys, raw):
        config = tmp_path / "latin1.json"
        config.write_bytes(raw)
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [config] invalid UTF-8: ")
        assert "Traceback" not in err


class TestUnparsableConfig:
    """JSON that Python's parser rejects for a limit rather than its syntax
    is a config error too, not a traceback."""

    @pytest.mark.parametrize("text, reason", [
        ('{"split": {"seed": ' + "1" * 5001 + "}}", "Exceeds the limit (4300 digits)"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["5001-digit integer", "arrays nested 100000 deep"])
    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_one_invalid_json_line(self, tmp_path, capsys, command, text, reason):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main([command, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error [config] invalid JSON: {reason}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""


class TestDetect:
    def test_detect_emits_structured_report(self, tmp_path, capsys):
        csv_path = tmp_path / "planted.csv"
        save_csv(planted_bias_dataset(500, n_noise=8, seed=2), csv_path,
                 label_column="label", positive_label="1", negative_label="0")
        config = tmp_path / "detect.json"
        config.write_text(json.dumps({
            "dataset": {"path": str(csv_path), "label_column": "label", "positive_label": "1"},
            "sensitive_attributes": ["planted"],
            "detection": {"top_n": 4},
        }))
        out = tmp_path / "detection.json"
        assert main(["detect", "--config", str(config), "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "planted" in payload["intersection"]
        assert set(payload["rankings"]) == {"di", "spd", "aod", "eod"}
        assert "planted" in capsys.readouterr().out

    @pytest.mark.parametrize("output", ["d", "d.json"])
    def test_prints_the_path_it_writes(self, tmp_path, capsys, output):
        # --output d.json once printed "report written to d.json.json"
        csv_path = tmp_path / "planted.csv"
        save_csv(planted_bias_dataset(200, n_noise=2, seed=2), csv_path,
                 label_column="label", positive_label="1", negative_label="0")
        config = tmp_path / "detect.json"
        config.write_text(json.dumps({
            "dataset": {"path": str(csv_path), "label_column": "label", "positive_label": "1"},
            "sensitive_attributes": ["planted"],
        }))
        assert main(["detect", "--config", str(config), "--output", str(tmp_path / output)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"report written to {tmp_path / 'd.json'}"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["d.json", "detect.json", "planted.csv"]

    def test_duplicate_candidate_columns_are_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "detect.json"
        config.write_text(json.dumps({
            "dataset": {"path": str(tmp_path / "unread.csv"), "label_column": "label", "positive_label": "1"},
            "sensitive_attributes": ["planted"],
            "detection": {"top_n": 2, "candidate_columns": ["planted", "planted", "noise_00"]},
        }))
        assert main(["detect", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == "error [config] duplicate candidate columns: ['planted']\n"


class TestColumnWhoseSumOverflows:
    """A column of 1e308 on every fourth of 200 rows: its training sum
    overflows, but its mean, about 2.5e307, does not.  Once the threshold
    came out inf, with numpy's overflow warning (an error under this
    suite's settings), and ``run`` failed at binarize."""

    @staticmethod
    def config(tmp_path, **extra):
        rng = np.random.default_rng(11)
        big = np.arange(200) % 4 == 0
        rows = [f"{x!r},{1e308 if b else 0.0!r},{int(u < (0.7 if b else 0.4))}"
                for x, b, u in zip(rng.normal(size=200).tolist(), big, rng.random(200))]
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("x,big,label\n" + "\n".join(rows) + "\n")
        config = tmp_path / "big.json"
        config.write_text(json.dumps({
            "dataset": {"path": str(csv_path), "label_column": "label", "positive_label": "1"},
            "sensitive_attributes": ["big"], **extra,
        }))
        return config

    def test_run(self, tmp_path, capsys):
        config = self.config(tmp_path, method="m3fair", level_weights={"big": 1})
        assert main(["run", "--config", str(config), "--output", str(tmp_path / "r")]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.splitlines()[1].startswith("m3fair  [big]  big")
        assert json.loads((tmp_path / "r.json").read_text())["rows"][0]["sensitive_attributes"] == ["big"]

    def test_detect(self, tmp_path, capsys):
        config = self.config(tmp_path)
        assert main(["detect", "--config", str(config), "--output", str(tmp_path / "d")]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads((tmp_path / "d.json").read_text())
        assert payload["skipped"] == [] and {"x", "big"} == {column for column, _ in payload["rankings"]["spd"]}


class TestGrid:
    def test_grid_sweeps_and_reports(self, workspace, capsys):
        root, csv_path = workspace
        config = write_config(
            root, csv_path, name="grid.json",
            method="m3fair", level_weights={"attr_a": 1, "attr_b": 1},
            report_path=str(root / "winner.json"),
        )
        assert main(["grid", "--config", str(config), "--output", str(root / "sweep")]) == 0
        sweep = json.loads((root / "sweep.json").read_text())
        assert len(sweep["points"]) == 4
        assert set(sweep["winner_level_weights"]) == {"attr_a", "attr_b"}
        assert (root / "winner.json").exists()
        assert "selected level weights" in capsys.readouterr().out

    def test_unexpected_point_error_aborts_the_grid(self, workspace, monkeypatch, capsys):
        # Only a point whose weighting leaves a cell unreachable is recorded
        # as failed; any other error is a fault and stops the grid.
        root, csv_path = workspace
        config = write_config(
            root, csv_path, name="grid_fault.json",
            method="m3fair", level_weights={"attr_a": 1, "attr_b": 1},
        )

        def misaligned(*args, **kwargs):
            raise DataError("weights not row-aligned with the training data")

        monkeypatch.setattr(multifair.experiment, "fit", misaligned)
        assert main(["grid", "--config", str(config), "--output", str(root / "fault")]) == 1
        assert capsys.readouterr().err == "error [grid] weights not row-aligned with the training data\n"
        assert not (root / "fault.json").exists()

    def grid_on(self, tmp_path, labels_of, capsys):
        """Exit code, stderr and whether a sweep file was written, for the
        default grid on a dataset whose labels ``labels_of`` rewrites."""
        data = two_attribute_biased_dataset(1500, seed=11)
        csv_path = tmp_path / "data.csv"
        save_csv(Dataset(data.features, labels_of(data), data.column_names), csv_path,
                 label_column="outcome", positive_label="yes", negative_label="no")
        config = write_config(tmp_path, csv_path, method="m3fair", level_weights={"attr_a": 1, "attr_b": 2})
        code = main(["grid", "--config", str(config), "--output", str(tmp_path / "sweep")])
        return code, capsys.readouterr().err, (tmp_path / "sweep.json").exists()

    def test_undefined_validation_metric_is_one_named_error(self, tmp_path, capsys):
        def no_positives_on_validation_attr_b(data):
            # the validation rows with attr_b = 1 are all unfavorable, so EOD
            # on attr_b is undefined whatever a model predicts
            row_ids = Dataset(np.arange(data.n_rows, dtype=float)[:, None], data.labels, ("id",))
            train, _ = split(row_ids, SplitSpec(0.2, 42))
            rows = split(train, SplitSpec(0.2, 42))[1].column("id").astype(int)
            labels = data.labels.copy()
            labels[rows[data.column("attr_b")[rows] == 1]] = 0
            return labels

        assert self.grid_on(tmp_path, no_positives_on_validation_attr_b, capsys) == (
            1, "error [grid] EOD undefined: attribute 'attr_b' has a group with no positive labels\n", False)

    def test_single_class_labels_fail_at_the_first_fit(self, tmp_path, capsys):
        # the fits run before the scoring pass, so the fit's error comes first
        assert self.grid_on(tmp_path, lambda data: np.zeros(data.n_rows, dtype=int), capsys) == (
            1, "error [grid] single-class training labels (one class has zero weight mass)\n", False)

    def test_duplicate_candidates_are_a_config_error(self, workspace, capsys):
        # a repeated level weight would sweep, and print, the same point twice
        root, csv_path = workspace
        config = write_config(
            root, csv_path, name="grid_dup.json",
            method="m3fair", level_weights={"attr_a": 1, "attr_b": 1},
            grid={"candidates": {"attr_a": [1, 1], "attr_b": [1, 2]}},
        )
        assert main(["grid", "--config", str(config), "--output", str(root / "dup")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error [config] duplicate candidate level weights for 'attr_a': [1]\n"
        assert captured.out == ""
        assert not (root / "dup.json").exists()

    def test_empty_candidate_map_is_a_config_error(self, workspace, capsys):
        # an empty map names no attribute; only a missing map means {1, 2} each
        root, csv_path = workspace
        config = write_config(
            root, csv_path, name="grid_empty.json",
            method="m3fair", level_weights={"attr_a": 1, "attr_b": 1},
            grid={"candidates": {}},
        )
        assert main(["grid", "--config", str(config), "--output", str(root / "empty")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error [config] no candidate level weights for attributes: ['attr_a', 'attr_b']\n"
        assert captured.out == ""
        assert not (root / "empty.json").exists()

    def test_grid_section_in_config(self, workspace):
        root, csv_path = workspace
        config = write_config(
            root, csv_path, name="grid2.json",
            method="m3fair", level_weights={"attr_a": 1, "attr_b": 1},
            grid={"candidates": {"attr_a": [1], "attr_b": [1, 2]}},
        )
        out = root / "sweep2"
        assert main(["grid", "--config", str(config), "--output", str(out)]) == 0
        sweep = json.loads((root / "sweep2.json").read_text())
        assert len(sweep["points"]) == 2

    def test_winner_unreachable_on_the_full_split_keeps_the_sweep(self, tmp_path, capsys):
        # The winner is picked on the sub-training split's thresholds; on the
        # full training split's, its level partition leaves a cell empty.
        attrs = ("attr_a", "attr_b", "proxy_a", "proxy_b")
        csv_path = tmp_path / "small.csv"
        save_csv(two_attribute_biased_dataset(120, seed=1), csv_path,
                 label_column="outcome", positive_label="yes", negative_label="no")
        config = write_config(
            tmp_path, csv_path, sensitive_attributes=list(attrs),
            method="m3fair", level_weights={a: 1 for a in attrs},
            grid={"candidates": {a: [1, 2, 3] for a in attrs}},
            report_path=str(tmp_path / "winner"),
        )
        assert main(["grid", "--config", str(config), "--output", str(tmp_path / "sweep")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error [reweight] winning level weights attr_a=2, attr_b=1, proxy_a=3, proxy_b=1: "
            "unreachable cell: group 1 has no rows with label 0\n"
        )
        assert captured.out == ""
        sweep = json.loads((tmp_path / "sweep.json").read_text())
        assert sweep["winner_level_weights"] == {"attr_a": 2, "attr_b": 1, "proxy_a": 3, "proxy_b": 1}
        assert sum(point["status"] == "ok" for point in sweep["points"]) == 48
        assert (tmp_path / "sweep.txt").read_text().endswith(
            "selected level weights: attr_a=2, attr_b=1, proxy_a=3, proxy_b=1\n")
        assert not (tmp_path / "winner.json").exists()


class TestConvergenceWarning:
    """A fit that stops short of convergence is reported on stderr alone:
    stdout and the report files are what they would be without it."""

    STARVED = {"train": {"max_iterations": 1}}

    @staticmethod
    def warnings(err):
        return [line for line in err.splitlines() if line.startswith("warning [fit]")]

    def test_converged_run_prints_no_warning(self, workspace, capsys):
        root, csv_path = workspace
        config = write_config(root, csv_path, name="conv.json", report_path=str(root / "conv"))
        assert main(["run", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((root / "conv.json").read_text())["metadata"]["converged"] is True

    def test_run_warns_once(self, workspace, capsys):
        root, csv_path = workspace
        config = write_config(root, csv_path, name="starved.json",
                              report_path=str(root / "starved"), **self.STARVED)
        assert main(["run", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert self.warnings(captured.err) == [
            "warning [fit] did not converge: n_iter 1, max_iterations 1, "
            "gradient_tolerance 1e-06 per unit of weight mass"
        ]
        assert captured.out == (root / "starved.txt").read_text()
        report = json.loads((root / "starved.json").read_text())
        assert report["metadata"]["converged"] is False and report["metadata"]["n_iter"] == 1
        assert "warning" not in captured.out + (root / "starved.json").read_text()

    def test_grid_warns_for_every_fit(self, workspace, capsys):
        root, csv_path = workspace
        config = write_config(
            root, csv_path, name="starved_grid.json",
            method="m3fair", level_weights={"attr_a": 1, "attr_b": 1},
            report_path=str(root / "starved_winner"), **self.STARVED,
        )
        assert main(["grid", "--config", str(config), "--output", str(root / "starved_sweep")]) == 0
        captured = capsys.readouterr()
        # the sweep's two weight classes, each named by its first point's
        # level weights, then the winner, as a run names it
        tail = ": n_iter 1, max_iterations 1, gradient_tolerance 1e-06 per unit of weight mass"
        assert self.warnings(captured.err) == [
            "warning [fit] did not converge for level weights attr_a=1, attr_b=1" + tail,
            "warning [fit] did not converge for level weights attr_a=1, attr_b=2" + tail,
            "warning [fit] did not converge" + tail,
        ]
        assert captured.out.endswith((root / "starved_winner.txt").read_text())
        assert "warning" not in captured.out

    def test_detect_warns_for_the_baseline_fit(self, tmp_path, capsys):
        csv_path = tmp_path / "planted.csv"
        save_csv(planted_bias_dataset(500, n_noise=8, seed=2), csv_path,
                 label_column="label", positive_label="1", negative_label="0")
        config = tmp_path / "detect.json"
        config.write_text(json.dumps({
            "dataset": {"path": str(csv_path), "label_column": "label", "positive_label": "1"},
            "sensitive_attributes": ["planted"],
            **self.STARVED,
        }))
        assert main(["detect", "--config", str(config), "--output", str(tmp_path / "d")]) == 0
        captured = capsys.readouterr()
        assert len(self.warnings(captured.err)) == 1
        assert "warning" not in captured.out + (tmp_path / "d.json").read_text()


class TestWeights:
    def test_weights_exported_aligned_with_training_rows(self, workspace, capsys):
        root, csv_path = workspace
        config = write_config(
            root, csv_path, name="w.json",
            method="m3fair", level_weights={"attr_a": 1, "attr_b": 2},
        )
        out = root / "weights.csv"
        assert main(["weights", "--config", str(config), "--output", str(out)]) == 0
        weights = np.loadtxt(out, skiprows=1)
        assert weights.shape == (960,)  # 1200 rows, 20% test split
        assert weights.sum() == pytest.approx(960, rel=1e-9)
        assert "wrote 960 training weights" in capsys.readouterr().out

    def test_output_directory_is_created(self, workspace):
        root, csv_path = workspace
        config = write_config(root, csv_path, name="w2.json")
        out = root / "new" / "dir" / "weights.csv"
        assert main(["weights", "--config", str(config), "--output", str(out)]) == 0
        assert np.loadtxt(out, skiprows=1).shape == (960,)


class TestParser:
    """Help, usage and parse errors, byte for byte as the parser of all four
    subcommands gives them: ``tests/cli_goldens.json`` holds each command
    line's stdout, stderr and exit code under Python 3.11's argparse at 80
    columns."""

    GOLDENS = json.loads((REPO_ROOT / "tests" / "cli_goldens.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("case", GOLDENS, ids=lambda case: " ".join(case["argv"]) or "(no arguments)")
    def test_output_is_unchanged(self, case, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("argv, built", [
        (["run", "--config", "c.json"], ["run"]),
        (["weights", "--config", "c.json", "--output", "w.csv"], ["weights"]),
        # left over for the top level to report: parsed again in full
        (["run", "--config", "c.json", "--bogus"], ["run", None]),
    ])
    def test_a_subcommand_line_builds_that_subcommand_alone(self, argv, built, monkeypatch, capsys):
        real, calls = multifair.cli.build_parser, []
        monkeypatch.setattr(multifair.cli, "build_parser",
                            lambda command=None: calls.append(command) or real(command))
        try:
            args = multifair.cli._parse_args(argv)
        except SystemExit:
            args = None
        assert calls == built
        if args is not None:
            assert vars(args) == vars(real().parse_args(argv))


def parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` returns, or its exit code, with what it
    printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict("os.environ", COLUMNS="80"):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


PARSER_TOKENS = ["run", "grid", "detect", "weights", "--config", "c.json", "--output", "o", "-h", "--help",
                 "--", "x", "--bogus", "--conf", "--config=c", "-", "Run"]


@given(argv=st.lists(st.sampled_from(PARSER_TOKENS), max_size=7))
@settings(max_examples=300, deadline=None)
def test_parse_args_is_the_full_parser(argv):
    assert parse_outcome(multifair.cli._parse_args, argv) == parse_outcome(
        lambda argv: multifair.cli.build_parser().parse_args(argv), argv)


class TestEntryPoint:
    def test_module_invocation(self, workspace):
        root, csv_path = workspace
        config = write_config(root, csv_path, name="entry.json")
        proc = subprocess.run(
            [sys.executable, "-m", "multifair", "run", "--config", str(config)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Method" in proc.stdout

    def test_import_loads_no_scipy(self):
        # scipy.stats, then scipy.special, once made up most of the CLI's
        # start-up time; scipy is now a test-only dependency
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, multifair, multifair.cli, multifair.synth;"
             " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCommittedOutputs:
    """The README's five commands regenerate the committed ``out/synthetic_*``
    files byte for byte.  They run from the repository root, because the
    dataset path is part of ``config_hash``; the output paths, which the hash
    ignores, point into a temporary directory."""

    @staticmethod
    def config_copy(tmp_path, name, report_path):
        payload = json.loads((REPO_ROOT / "configs" / name).read_text())
        payload["report_path"] = str(report_path)
        path = tmp_path / f"config_{name}"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_readme_commands_reproduce_committed_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        baseline = self.config_copy(tmp_path, "synthetic_baseline.json", tmp_path / "synthetic_baseline")
        m3fair = self.config_copy(tmp_path, "synthetic_m3fair.json", tmp_path / "synthetic_m3fair")
        commands = [
            ["run", "--config", baseline],
            ["run", "--config", m3fair],
            ["grid", "--config", m3fair, "--output", str(tmp_path / "synthetic_grid")],
            ["detect", "--config", baseline, "--output", str(tmp_path / "synthetic_detection")],
            ["weights", "--config", m3fair, "--output", str(tmp_path / "synthetic_weights.csv")],
        ]
        for argv in commands:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert capsys.readouterr().err == ""
        committed = sorted(p.name for p in (REPO_ROOT / "out").glob("synthetic_*"))
        assert committed == sorted(p.name for p in tmp_path.glob("synthetic_*"))
        for name in committed:
            assert (tmp_path / name).read_bytes() == (REPO_ROOT / "out" / name).read_bytes(), name
