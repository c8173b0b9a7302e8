"""The benchmark's traced mode (``perfbench/spans.py``) swaps each layer's
function in the module namespace its caller looks it up in.  A point whose
attribute is gone is skipped there and its per-layer metrics read 0, so the
bindings, and that calls go through them, are checked here."""

import importlib.util
import sys

import multifair.cli
import multifair.experiment
from conftest import REPO_ROOT


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_is_bound_after_importing_the_cli():
    spans = load_spans()
    points = [(module, attr) for module, attr, _ in spans.WRAP_POINTS] + [spans.LOSS_EVAL_POINT]
    assert [p for p in points if not hasattr(sys.modules[p[0]], p[1])] == []


def test_run_fits_through_the_experiment_module_global(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    real_fit, calls = multifair.experiment.fit, []

    def counted_fit(*args, **kwargs):
        calls.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(multifair.experiment, "fit", counted_fit)
    argv = ["run", "--config", "configs/synthetic_baseline.json", "--output", str(tmp_path / "r")]
    assert multifair.cli.main(argv) == 0
    assert len(calls) == 1
