#!/usr/bin/env python3
"""Reproduce the census-data result block: unmitigated baseline, both
sequential reweighting orders, simultaneous reweighting with level weights
(sex=1, race=2), and the {1,2}x{1,2} level-weight grid search.

Expects data/adult.csv staged by scripts/fetch_adult.py.  Reports land in
out/ as JSON plus aligned text tables.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from census import reduced_census_view
from multifair.experiment import (
    DatasetConfig,
    ExperimentConfig,
    emit_grid,
    format_grid_table,
    format_report_table,
    grid_search,
    run_experiment,
)
from multifair.model import TrainConfig

SENSITIVE = ("sex=Male", "race=White")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    staged = root / "data" / "adult.csv"
    if not staged.exists():
        print(f"{staged} not found; run scripts/fetch_adult.py first", file=sys.stderr)
        return 1
    reduced = root / "data" / "adult_reduced.csv"
    if not reduced.exists():
        reduced_census_view(staged, reduced)
    out = root / "out"
    out.mkdir(exist_ok=True)

    def config(name, **kw):
        return ExperimentConfig(
            dataset=DatasetConfig(str(reduced), "income", ">50K"),
            sensitive_attributes=SENSITIVE,
            train=TrainConfig(max_iterations=1000),
            report_path=str(out / name),
            **kw,
        )

    conditions = [
        ("adult_baseline", {}),
        ("adult_rw_sex_race", {"method": "rw_sequential", "attribute_order": SENSITIVE}),
        ("adult_rw_race_sex", {"method": "rw_sequential", "attribute_order": SENSITIVE[::-1]}),
        ("adult_m3fair", {"method": "m3fair", "level_weights": {SENSITIVE[0]: 1, SENSITIVE[1]: 2}}),
    ]
    for name, kw in conditions:
        report = run_experiment(config(name, **kw))
        print(format_report_table(report))

    result = grid_search(
        config("adult_m3fair_gridwinner", method="m3fair",
               level_weights={SENSITIVE[0]: 1, SENSITIVE[1]: 2})
    )
    emit_grid(result, out / "adult_grid")
    print(format_grid_table(result))
    print(format_report_table(result.report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
