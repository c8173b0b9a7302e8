#!/usr/bin/env python3
"""Generate the synthetic CSVs used by the example configs.

Writes:
  data/synthetic.csv         two-attribute biased outcome data
  data/census_surrogate.csv  census-schema surrogate (offline stand-in)
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multifair.data import save_csv
from multifair.synth import two_attribute_biased_dataset, write_census_like_csv


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    data_dir = Path(__file__).resolve().parent.parent / "data"
    data_dir.mkdir(exist_ok=True)
    save_csv(
        two_attribute_biased_dataset(5000, seed=0),
        data_dir / "synthetic.csv",
        label_column="outcome",
        positive_label="yes",
        negative_label="no",
    )
    print(f"wrote {data_dir / 'synthetic.csv'}")
    write_census_like_csv(data_dir / "census_surrogate.csv", n_rows=32561, seed=0)
    print(f"wrote {data_dir / 'census_surrogate.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
