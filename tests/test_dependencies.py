"""Every third-party module that ``src/multifair`` imports, at module level
or inside a function, is declared in ``pyproject.toml``'s dependencies."""

import ast
import re
import sys

import pytest

from conftest import REPO_ROOT

tomllib = pytest.importorskip("tomllib")


def imported_modules(source: str) -> set[str]:
    """The top-level module of every absolute import in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def third_party(names: set[str]) -> set[str]:
    return names - set(sys.stdlib_module_names) - {"multifair"}


def declared_dependencies() -> set[str]:
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {re.match(r"[\w.-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_every_third_party_import_is_declared():
    sources = sorted((REPO_ROOT / "src" / "multifair").glob("*.py"))
    imported = set().union(*(imported_modules(path.read_text()) for path in sources))
    assert third_party(imported) - declared_dependencies() == set()
    assert {"numpy", "orjson"} <= third_party(imported)  # orjson is imported in a function


def test_imports_inside_functions_are_found():
    source = (
        "import os.path\nfrom . import data\nfrom .errors import DataError\n"
        "def f():\n    import scipy.optimize\n    from yaml import safe_load\n"
    )
    assert third_party(imported_modules(source)) == {"scipy", "yaml"}
