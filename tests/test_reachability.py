"""Every function and method that ``src/multifair`` defines runs when the
four commands and the documented library calls run, so the package holds
no code that only tests, scripts or the benchmark use.

Under ``sys.setprofile`` the guard runs ``run``, ``detect`` and
``weights`` on every committed config whose data ships with the
repository (``grid`` too on the m3fair ones), then the README's JSON
config example and its ``python`` library block, both read out of
``README.md`` so that the docs stay executable, the four per-metric calls
README documents, and ``load_report`` on an emitted report.  Nested
functions count; class bodies, comprehensions and lambdas do not.
"""

import ast
import json
import os
import re
import sys
from pathlib import Path

import pytest

import multifair as mf
from conftest import REPO_ROOT
from multifair.cli import main

PACKAGE = Path(mf.__file__).resolve().parent

# Defined in src/multifair but run by none of the calls above: each is
# the other-input or error path that the named test reaches, or a data
# generator that the benchmark imports
ALLOWED_UNREACHED = {
    # the csv-module route, for files the fast routes cannot read exactly:
    # tests/test_data.py::TestFastPathMatchesCsvPath
    ("data", "_load_rows"),
    # rows whose sort keys tie but whose bytes differ (0.0 and -0.0):
    # tests/test_data.py::TestCells
    ("data", "_row_cells.equal_to_next"),
    # a stage that fails: tests/test_cli.py::TestStageErrors
    ("errors", "PipelineError.__init__"),
    # a grid winner that leaves a cell unreachable on the full training
    # split: tests/test_cli.py::TestGrid::test_winner_unreachable_on_the_full_split_keeps_the_sweep
    ("experiment", "GridWinnerError.__init__"),
    # perfbench/workloads.py writes the benchmark's inputs with these (and
    # scripts/make_synthetic.py the committed data files); they can leave
    # src/ only together with a change to the benchmark
    ("data", "save_csv"),
    ("synth", "planted_bias_dataset"),
    ("synth", "two_attribute_biased_dataset"),
    ("synth", "write_census_like_csv"),
}

# Its data, the staged census file, cannot ship with the repository
SKIPPED_CONFIGS = {"adult_m3fair.json"}


def defined_functions(source: str) -> dict[int, str]:
    """Each function and method that ``source`` defines, nested ones
    included, as {the line its code object starts on: its dotted name}.
    A decorated function's code starts on its first decorator's line."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [decorator.lineno for decorator in child.decorator_list])
                found[line] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def package_functions(package: Path) -> set[tuple[str, str]]:
    """(module, dotted name) of every function ``package`` defines."""
    return {
        (path.stem, name)
        for path in sorted(package.glob("*.py"))
        for name in defined_functions(path.read_text(encoding="utf-8")).values()
    }


def reached_functions(package: Path, run) -> set[tuple[str, str]]:
    """(module, dotted name) of every function of ``package`` that a
    Python call entered while ``run()`` ran."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    by_line = {}
    for code in codes:
        path = Path(code.co_filename).resolve()
        if path.parent == package:
            by_line.setdefault(path, set()).add(code.co_firstlineno)
    reached = set()
    for path, lines in by_line.items():
        names = defined_functions(path.read_text(encoding="utf-8"))
        reached.update((path.stem, names[line]) for line in lines if line in names)
    return reached


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under README's ``heading``."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def local_config(payload: dict, tmp: Path, name: str) -> str:
    """``payload`` written to ``tmp/<name>.config.json``, its dataset path
    made absolute and its report path ``tmp/<name>``."""
    payload["dataset"]["path"] = str(REPO_ROOT / payload["dataset"]["path"])
    payload["report_path"] = str(tmp / name)
    path = tmp / f"{name}.config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def documented_calls(tmp: Path) -> None:
    """The commands on every committed config, then README's examples."""
    for source in sorted((REPO_ROOT / "configs").glob("*.json")):
        if source.name in SKIPPED_CONFIGS:
            continue
        payload = json.loads(source.read_text(encoding="utf-8"))
        config = local_config(payload, tmp, source.stem)
        base = str(tmp / source.stem)
        commands = [
            ["run", "--config", config],
            ["detect", "--config", config, "--output", f"{base}_detection"],
            ["weights", "--config", config, "--output", f"{base}_weights.csv"],
        ]
        if payload.get("method") == "m3fair":
            commands.append(["grid", "--config", config, "--output", f"{base}_grid"])
        for argv in commands:
            assert main(argv) == 0, argv

    readme_config = json.loads(readme_block("Config file", "json"))
    assert main(["run", "--config", local_config(readme_config, tmp, "readme")]) == 0
    assert mf.load_report(tmp / "readme").rows

    namespace = {}
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)  # the block reads data/synthetic.csv
    try:
        exec(compile(readme_block("Library use", "python"), "README.md", "exec"), namespace)
    finally:
        os.chdir(cwd)
    test, groups = namespace["test"], namespace["groups"]
    preds = mf.PredictionSet(namespace["scores"], test.labels)
    test_group = mf.set_privileged(mf.binarize_by_mean(test, groups[0].attribute_name), test)
    for metric in (mf.disparate_impact, mf.statistical_parity_difference,
                   mf.average_odds_difference, mf.equal_opportunity_difference):
        metric(preds, test_group)


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    # a call that an earlier test left in a functools cache would not run
    for name, module in list(sys.modules.items()):
        if name.startswith("multifair."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    return reached_functions(PACKAGE, lambda: documented_calls(tmp_path_factory.mktemp("reach")))


def test_every_function_runs(reached):
    unreached = package_functions(PACKAGE) - reached - ALLOWED_UNREACHED
    assert sorted(unreached) == []


def test_every_allowed_function_exists_and_stays_unreached(reached):
    # an entry for a function that is gone, or that the calls now reach,
    # would hide the next one that no call reaches
    assert ALLOWED_UNREACHED <= package_functions(PACKAGE)
    assert sorted(ALLOWED_UNREACHED & reached) == []


def test_nested_functions_count_and_lambdas_do_not():
    source = (
        "import functools\n"
        "def outer():\n"
        "    def inner():\n"
        "        return [x for x in ()]\n"
        "    return lambda: inner\n"
        "class C:\n"
        "    y = 1\n"
        "    @functools.cache\n"
        "    def method(self):\n"
        "        pass\n"
    )
    assert defined_functions(source) == {2: "outer", 3: "outer.inner", 8: "C.method"}


def test_a_function_no_call_enters_is_unreached(tmp_path):
    package = tmp_path / "reach_probe"
    package.mkdir()
    (package / "module.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return 2\n", encoding="utf-8"
    )
    sys.path.insert(0, str(tmp_path))
    try:
        from reach_probe import module
        reached = reached_functions(package.resolve(), module.used)
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("reach_probe.module", None)
        sys.modules.pop("reach_probe", None)
    assert package_functions(package.resolve()) - reached == {("module", "unused")}
