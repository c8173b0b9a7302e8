"""Every name a ``src/multifair`` module imports is used in it.  The
package's ``__init__`` re-exports, so it is exempt.  An import kept only
for the benchmark's traced mode is marked ``noqa: F401``, and each unused
name it keeps must be a function that ``perfbench/spans.py`` binds in that
module (``WRAP_POINTS``)."""

import ast

import pytest

from conftest import REPO_ROOT
from test_wrap_points import load_spans

SOURCES = REPO_ROOT / "src" / "multifair"
MODULES = sorted(path.stem for path in SOURCES.glob("*.py") if path.name != "__init__.py")


def stray_imports(module: str, source: str) -> set[str]:
    """The names ``source`` imports and never reads, less those that an
    import marked ``noqa: F401`` keeps for a wrap point of ``module``."""
    bound = {attr for name, attr, _ in load_spans().WRAP_POINTS if name == f"multifair.{module}"}
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    stray = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        marked = any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and not (marked and name in bound):
                stray.add(name)
    return stray


def read(module: str) -> str:
    return (SOURCES / f"{module}.py").read_text(encoding="utf-8")


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert stray_imports(module, read(module)) == set()


def test_a_kept_import_that_no_wrap_point_binds_is_stray():
    source = read("experiment").replace("    split,\n)", "    split,\n    split_source,\n)", 1)
    assert "split_source" in source and "noqa: F401" in source
    assert stray_imports("experiment", source) == {"split_source"}


def test_an_unmarked_unused_import_is_stray():
    source = read("detection").replace("  # noqa: F401", "")
    assert stray_imports("detection", source) == {
        "binarize_by_mean", "set_privileged", "average_odds_difference", "disparate_impact",
        "equal_opportunity_difference", "statistical_parity_difference",
    }
