import json
import subprocess
import sys

import pytest

from multifair.cli import main
from multifair.data import save_csv
from multifair.reweighting import load_weights_csv
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

    def test_grid_warns_for_the_winner_only(self, workspace, capsys):
        root, csv_path = workspace
        config = write_config(
            root, csv_path, name="starved_grid.json",
            method="m3fair", level_weights={"attr_a": 1, "attr_b": 1},
            report_path=str(root / "starved_winner"), **self.STARVED,
        )
        assert main(["grid", "--config", str(config), "--output", str(root / "starved_sweep")]) == 0
        captured = capsys.readouterr()
        assert len(self.warnings(captured.err)) == 1
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
        weights = load_weights_csv(out)
        assert len(weights) == 960  # 1200 rows, 20% test split
        assert weights.total == pytest.approx(960, rel=1e-9)
        assert "wrote 960 training weights" in capsys.readouterr().out


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

    def test_import_does_not_load_scipy_stats(self):
        # scipy.stats, then scipy.special, once made up most of the CLI's
        # start-up time
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, multifair.cli; print(sorted(m for m in sys.modules"
             " if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'special'])))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
