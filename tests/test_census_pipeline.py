"""End-to-end coverage of the census tooling on a synthetic surrogate.

The real census file cannot ship with the repository, so these tests run
the same staging -> reduced-view -> mitigate pipeline the acceptance
criteria use, against a generated stand-in with comparable marginals, and
assert directional fairness improvements rather than the reported-table
bands.
"""

import json

import pytest
from conftest import REPO_ROOT

import multifair.model
from multifair.census import (
    CENSUS_COLUMNS,
    reduced_census_view,
    stage_census_csv,
)
from multifair.cli import main
from multifair.data import load_csv
from multifair.errors import DataError
from multifair.experiment import DatasetConfig, ExperimentConfig, run_experiment
from multifair.model import TrainConfig
from multifair.synth import write_census_like_csv

SENSITIVE = ("sex=Male", "race=White")


class TestStaging:
    def test_stage_from_raw_lines(self, tmp_path):
        raw = [
            "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
            " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K",
            "",
            "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse,"
            " Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, >50K.",
        ]
        out = tmp_path / "adult.csv"
        assert stage_census_csv(raw, out) == 2
        ds = load_csv(out, "income", ">50K")
        assert ds.n_rows == 2
        assert ds.labels.tolist() == [0, 1]  # trailing period stripped
        assert "sex=Male" in ds.column_names

    def test_stage_rejects_wrong_arity(self, tmp_path):
        with pytest.raises(DataError, match="expected 15"):
            stage_census_csv(["1,2,3"], tmp_path / "bad.csv")

    def test_canonical_header_written(self, tmp_path):
        out = tmp_path / "adult.csv"
        stage_census_csv([], out)
        assert out.read_text().strip() == ",".join(CENSUS_COLUMNS)


class TestReducedView:
    def test_buckets_and_columns(self, tmp_path):
        src = tmp_path / "full.csv"
        src.write_text(
            "age,education-num,sex,race,income\n"
            "23,5,Male,White,>50K\n47,12,Female,Black,<=50K\n68,14,Male,Other,<=50K\n"
        )
        out = tmp_path / "reduced.csv"
        reduced_census_view(src, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "age_decade,education_band,sex,race,income"
        assert lines[1].startswith("20s,<6,Male")
        assert lines[2].startswith("40s,6-12,Female")
        assert lines[3].startswith("60s,>12,Male")

    def test_missing_columns_rejected(self, tmp_path):
        src = tmp_path / "odd.csv"
        src.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="missing expected census column"):
            reduced_census_view(src, tmp_path / "out.csv")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("census")
    raw = root / "surrogate.csv"
    write_census_like_csv(raw, n_rows=9000, seed=1)
    reduced = reduced_census_view(raw, root / "reduced.csv")

    def config(**kw):
        return ExperimentConfig(
            dataset=DatasetConfig(str(reduced), "income", ">50K"),
            sensitive_attributes=SENSITIVE,
            train=TrainConfig(max_iterations=600),
            **kw,
        )

    baseline = run_experiment(config())
    mitigated = run_experiment(
        config(method="m3fair", level_weights={SENSITIVE[0]: 1, SENSITIVE[1]: 2})
    )
    return baseline, mitigated


class TestSurrogatePipeline:
    def test_baseline_is_biased(self, reports):
        baseline, _ = reports
        rows = {r.evaluated_attribute: r for r in baseline.rows}
        assert rows[SENSITIVE[0]].di < 0.6
        assert rows[SENSITIVE[1]].di < 0.8

    def test_mitigation_moves_both_attributes_toward_parity(self, reports):
        baseline, mitigated = reports
        base = {r.evaluated_attribute: r for r in baseline.rows}
        fair = {r.evaluated_attribute: r for r in mitigated.rows}
        for attr in SENSITIVE:
            assert abs(1.0 - fair[attr].di) < abs(1.0 - base[attr].di)
            assert abs(fair[attr].spd) < abs(base[attr].spd)

    def test_accuracy_cost_is_small(self, reports):
        baseline, mitigated = reports
        assert baseline.rows[0].acc - mitigated.rows[0].acc <= 0.03

    def test_surrogate_marginals_are_census_like(self, tmp_path):
        raw = tmp_path / "s.csv"
        write_census_like_csv(raw, n_rows=20000, seed=5)
        ds = load_csv(raw, "income", ">50K")
        positive = ds.labels.mean()
        assert 0.2 < positive < 0.32
        male = ds.column("sex=Male") == 1
        assert ds.labels[male].mean() > ds.labels[~male].mean() + 0.1


@pytest.mark.parametrize("method, level_weights", [
    ("none", None),
    ("m3fair", {SENSITIVE[0]: 1, SENSITIVE[1]: 2}),
])
def test_committed_surrogate_fit_converges_quickly(method, level_weights):
    # 26049 training rows under the default settings: the stopping rule is
    # per unit of weight mass, so the row count does not keep the fit from
    # converging
    report = run_experiment(ExperimentConfig(
        dataset=DatasetConfig(str(REPO_ROOT / "data" / "census_surrogate.csv"), "income", ">50K"),
        sensitive_attributes=SENSITIVE,
        method=method,
        level_weights=level_weights,
    ))
    assert report.converged
    assert report.n_iter <= 20


class TestCommittedCensusOutputs:
    """The README's census-surrogate commands regenerate the committed
    ``out/census_surrogate_*`` files byte for byte.  Unlike
    ``data/synthetic.csv``, the surrogate repeats most of its lines and
    rows, so this covers the loader's distinct-line parse and the fit on
    distinct cells.  The commands run from the repository root, because the
    dataset path is part of ``config_hash``; the output paths, which the
    hash ignores, point into a temporary directory."""

    CONDITIONS = ("baseline", "rw_sex_race", "rw_race_sex", "m3fair")

    def test_readme_commands_reproduce_committed_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        configs = {}
        for name in self.CONDITIONS:
            stem = f"census_surrogate_{name}"
            payload = json.loads((REPO_ROOT / "configs" / f"{stem}.json").read_text())
            payload["report_path"] = str(tmp_path / stem)
            configs[name] = tmp_path / f"config_{stem}.json"
            configs[name].write_text(json.dumps(payload))
        commands = [["run", "--config", str(configs[name])] for name in self.CONDITIONS]
        grid_output = str(tmp_path / "census_surrogate_grid")
        commands.append(["grid", "--config", str(configs["m3fair"]), "--output", grid_output])
        for argv in commands:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert capsys.readouterr().err == ""
        committed = sorted(p.name for p in (REPO_ROOT / "out").glob("census_surrogate_*"))
        assert len(committed) == 10
        assert committed == sorted(p.name for p in tmp_path.glob("census_surrogate_*"))
        for name in committed:
            assert (tmp_path / name).read_bytes() == (REPO_ROOT / "out" / name).read_bytes(), name


def test_surrogate_fit_runs_on_distinct_cells(monkeypatch):
    # A structural guard with no timing: the census fit works on the 5051
    # distinct (feature row, label) cells of its 26049 training rows, so a
    # fall back to row-level fitting fails here.
    real, rows_seen = multifair.model.weighted_loss_and_gradient, []

    def counted(coefficients, intercept, features, *args):
        rows_seen.append(features.shape[0])
        return real(coefficients, intercept, features, *args)

    monkeypatch.setattr(multifair.model, "weighted_loss_and_gradient", counted)
    report = run_experiment(ExperimentConfig(
        dataset=DatasetConfig(str(REPO_ROOT / "data" / "census_surrogate.csv"), "income", ">50K"),
        sensitive_attributes=SENSITIVE,
        method="m3fair",
        level_weights={SENSITIVE[0]: 1, SENSITIVE[1]: 2},
    ))
    assert report.converged
    assert len(rows_seen) >= report.n_iter > 0
    assert set(rows_seen) == {5051}


# ---------------------------------------------------------------------------
# Surrogate checks of the census criteria (c7, c8).  These run the four
# census conditions on the reduced view of the committed surrogate.  They
# check the shape of the claims on generated data; they are not a
# reproduction of the paper's census table (tests/test_acceptance.py holds
# that, on the staged census file).  c7's post-mitigation band DI(sex) in
# [0.9, 1.1] does not hold on the surrogate (m3fair reaches 0.607) and is
# not checked here; see the README.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def surrogate_runs(tmp_path_factory):
    reduced = reduced_census_view(
        REPO_ROOT / "data" / "census_surrogate.csv",
        tmp_path_factory.mktemp("surrogate") / "reduced.csv",
    )

    def run(**kw):
        report = run_experiment(ExperimentConfig(
            dataset=DatasetConfig(str(reduced), "income", ">50K"),
            sensitive_attributes=SENSITIVE,
            **kw,
        ))
        return {row.evaluated_attribute: row for row in report.rows}

    return {
        "baseline": run(),
        "seq_sex_race": run(method="rw_sequential", attribute_order=SENSITIVE),
        "seq_race_sex": run(method="rw_sequential", attribute_order=SENSITIVE[::-1]),
        "m3fair": run(method="m3fair", level_weights={SENSITIVE[0]: 1, SENSITIVE[1]: 2}),
    }


def test_surrogate_c7_baseline_bands_and_accuracy_drop(surrogate_runs):
    base = surrogate_runs["baseline"]
    acc_base = base[SENSITIVE[0]].acc
    acc_fair = surrogate_runs["m3fair"][SENSITIVE[0]].acc
    assert 0.78 <= acc_base <= 0.82, f"baseline ACC {acc_base:.4f}"
    assert base[SENSITIVE[0]].di < 0.55, f"baseline DI(sex) {base[SENSITIVE[0]].di:.4f}"
    assert base[SENSITIVE[1]].di < 0.80, f"baseline DI(race) {base[SENSITIVE[1]].di:.4f}"
    assert acc_base - acc_fair <= 0.03, f"ACC drop {acc_base - acc_fair:.4f} > 3 points"


def test_surrogate_c8_m3fair_not_worse_than_worse_sequential_order(surrogate_runs):
    slack = 0.02  # as in c8

    def deviations(row):
        return {"di": abs(1.0 - row.di), "spd": abs(row.spd), "aod": abs(row.aod), "eod": abs(row.eod)}

    for attr in SENSITIVE:
        ours = deviations(surrogate_runs["m3fair"][attr])
        orders = [deviations(surrogate_runs[order][attr]) for order in ("seq_sex_race", "seq_race_sex")]
        for key, value in ours.items():
            worse = max(order[key] for order in orders)
            assert value <= worse + slack, f"{attr}/{key}: m3fair {value:.4f} vs worse order {worse:.4f}"
