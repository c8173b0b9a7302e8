"""``scripts/code_lines.py`` counts the lines that hold code: not blank
lines, comment-only lines or docstrings."""

import importlib.util

from conftest import REPO_ROOT

SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line


# a comment-only line
def f(a,
      b):
    """One-line docstring."""
    text = """a string that is
not a docstring"""
    return (a +

            b)


class C:
    """Class docstring."""
    x = 1
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", REPO_ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_an_inline_sample():
    # import, def (2 lines), text = (2 lines), return (2 lines, not the blank one between), class, x = 1
    assert load_script().code_lines(SAMPLE) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    assert load_script().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["9", "1", "10"]
    assert lines[-1].split()[1] == "total"
