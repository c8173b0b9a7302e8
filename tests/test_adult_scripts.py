"""The census income (Adult) tooling lives in ``scripts/``: ``census.py``
stages the file, ``fetch_adult.py`` downloads it and ``run_adult.py``
runs the census block.  Each runs offline here, and
``tests/test_acceptance.py``, which loads ``census.py``, still collects."""

import os
import subprocess
import sys
import urllib.request

import pytest

from conftest import REPO_ROOT, load_script
from multifair.synth import write_census_like_csv

RAW_LINES = (
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
    " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K\n"
    "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse,"
    " Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, >50K\n"
)


@pytest.fixture
def script(monkeypatch):
    """A loader for a script that imports ``census`` as the scripts do, with
    every network request made to fail."""
    monkeypatch.setitem(sys.modules, "census", load_script("census"))

    def offline(*args, **kwargs):
        raise AssertionError("network access")

    monkeypatch.setattr(urllib.request, "urlopen", offline)
    return load_script


def test_fetch_adult_help_runs_as_a_script():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "fetch_adult.py"), "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: ")


def test_fetch_adult_help_fetches_nothing(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fetch_adult.py", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        script("fetch_adult").main()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_fetch_adult_stages_a_local_copy(script, tmp_path, monkeypatch, capsys):
    raw = tmp_path / "adult.data"
    raw.write_text(RAW_LINES)
    monkeypatch.setattr(sys, "argv", ["fetch_adult.py", "--local", str(raw), "--out-dir", str(tmp_path / "data")])
    assert script("fetch_adult").main() == 0
    assert (tmp_path / "data" / "adult.csv").read_text().count("\n") == 3
    assert (tmp_path / "data" / "adult_reduced.csv").read_text().splitlines()[1:] == [
        "30s,>12,Male,White,<=50K", "50s,>12,Male,White,>50K",
    ]
    assert "expected the documented 32561 training rows, got 2" in capsys.readouterr().err


def test_run_adult_without_the_staged_file(script, tmp_path, monkeypatch, capsys):
    module = script("run_adult")
    monkeypatch.setattr(module, "__file__", str(tmp_path / "scripts" / "run_adult.py"))
    assert module.main() == 1
    assert "run scripts/fetch_adult.py first" in capsys.readouterr().err


def test_run_adult_on_a_census_like_file(script, tmp_path, monkeypatch, capsys):
    module = script("run_adult")
    monkeypatch.setattr(module, "__file__", str(tmp_path / "scripts" / "run_adult.py"))
    (tmp_path / "data").mkdir()
    write_census_like_csv(tmp_path / "data" / "adult.csv", n_rows=3000, seed=1)
    assert module.main() == 0
    written = sorted(path.name for path in (tmp_path / "out").iterdir())
    assert written == sorted(f"adult_{name}.{ext}" for ext in ("json", "txt") for name in (
        "baseline", "rw_sex_race", "rw_race_sex", "m3fair", "m3fair_gridwinner", "grid"))
    assert (tmp_path / "data" / "adult_reduced.csv").exists()


def test_acceptance_collects_and_its_census_tests_skip(tmp_path):
    tests = [f"tests/test_acceptance.py::{name}" for name in (
        "test_c7_census_end_to_end", "test_census_detection_flags_sex_and_race",
        "test_c8_simultaneous_not_worse_than_sequential")]
    env = dict(os.environ, ADULT_CSV=str(tmp_path / "absent.csv"),
               PYTHONPATH=os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rs", *tests],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "3 skipped" in result.stdout.splitlines()[-1]
    assert result.stdout.count("SKIPPED") == 3
