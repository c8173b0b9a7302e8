"""``scripts/make_synthetic.py`` writes the two committed data files only
when it is run without arguments: ``--help`` and an unknown flag write
nothing."""

import importlib.util

import pytest

from conftest import REPO_ROOT


@pytest.fixture
def script(monkeypatch):
    """The script's ``main`` and the names of the files it wrote, its two
    writers replaced by recorders."""
    spec = importlib.util.spec_from_file_location("make_synthetic", REPO_ROOT / "scripts" / "make_synthetic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    written = []
    monkeypatch.setattr(module, "save_csv", lambda dataset, path, **_: written.append(path.name))
    monkeypatch.setattr(module, "write_census_like_csv", lambda path, **_: written.append(path.name))
    return module.main, written


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["-h"], 0), (["--bogus"], 2), (["extra"], 2)])
def test_help_and_unknown_arguments_write_nothing(script, argv, code, capsys):
    main, written = script
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    assert written == []
    out, err = capsys.readouterr()
    assert (out if code == 0 else err).startswith("usage: ")


def test_no_arguments_write_both_files(script, capsys):
    main, written = script
    assert main([]) == 0
    assert written == ["synthetic.csv", "census_surrogate.csv"]
