#!/usr/bin/env python3
"""Download and stage the public census income (Adult) training data.

Writes:
  data/adult.csv          canonical 15-column headered CSV (32561 rows)
  data/adult_reduced.csv  coarse demographic view used by the acceptance runs

Needs outbound network access; in offline environments, download
``adult.data`` elsewhere and run this script with ``--local path``.
"""

import argparse
import sys
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from census import CENSUS_TRAIN_ROWS, reduced_census_view, stage_census_csv

URLS = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/adult/adult.data",
    "https://raw.githubusercontent.com/jbrownlee/Datasets/master/adult-all.csv",
)


def download(url: str, timeout: float = 60.0) -> list[str]:
    print(f"fetching {url}")
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8", errors="replace").splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data", help="output directory (default: data)")
    parser.add_argument("--local", help="use an already-downloaded adult.data instead of fetching")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = out_dir / "adult.csv"

    lines = None
    if args.local:
        lines = Path(args.local).read_text(encoding="utf-8", errors="replace").splitlines()
    else:
        for url in URLS:
            try:
                lines = download(url)
                break
            except OSError as exc:
                print(f"  failed: {exc}")
        if lines is None:
            print(
                "could not reach any mirror; download adult.data manually and rerun "
                "with --local <path>",
                file=sys.stderr,
            )
            return 1

    rows = stage_census_csv(lines, staged)
    print(f"wrote {staged} ({rows} rows)")
    if rows != CENSUS_TRAIN_ROWS:
        print(
            f"warning: expected the documented {CENSUS_TRAIN_ROWS} training rows, got {rows}; "
            "check that the source is the canonical training file",
            file=sys.stderr,
        )
    reduced = out_dir / "adult_reduced.csv"
    reduced_census_view(staged, reduced)
    print(f"wrote {reduced}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
