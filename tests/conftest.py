import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from multifair.data import Dataset

REPO_ROOT = Path(__file__).resolve().parent.parent
ADULT_DEFAULT = REPO_ROOT / "data" / "adult.csv"


def load_script(name: str):
    """``scripts/<name>.py`` as a fresh module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def adult_csv_path() -> Path | None:
    """Staged Adult CSV, if present (see scripts/fetch_adult.py)."""
    override = os.environ.get("ADULT_CSV")
    if override:
        path = Path(override)
        return path if path.exists() else None
    return ADULT_DEFAULT if ADULT_DEFAULT.exists() else None


@pytest.fixture(scope="session")
def adult_csv() -> Path:
    path = adult_csv_path()
    if path is None:
        pytest.skip(
            "Adult census CSV not staged (no general network in this environment); "
            "run scripts/fetch_adult.py where outbound access exists, or set ADULT_CSV"
        )
    return path


def random_dataset(rng: np.random.Generator, n_rows: int, n_cols: int = 3) -> Dataset:
    features = rng.standard_normal((n_rows, n_cols))
    labels = rng.binomial(1, 0.5, size=n_rows)
    return Dataset(features, labels, tuple(f"c{i}" for i in range(n_cols)))
