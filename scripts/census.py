"""Staging for the public census income (Adult) dataset, used by
``fetch_adult.py`` and ``run_adult.py``.

The canonical training file ships without a header and with comma-space
separated values; :func:`stage_census_csv` normalizes it into the headered
CSV the loader expects.  :func:`reduced_census_view` projects a staged file
onto the coarse demographic view (age by decade, education years in three
bands, sex, race) used when comparing against previously reported results,
whose exact preprocessing is unstated.
"""

from __future__ import annotations

import csv

from multifair.errors import DataError

CENSUS_COLUMNS = (
    "age", "workclass", "fnlwgt", "education", "education-num",
    "marital-status", "occupation", "relationship", "race", "sex",
    "capital-gain", "capital-loss", "hours-per-week", "native-country", "income",
)

CENSUS_TRAIN_ROWS = 32561  # documented size of the public training file


def stage_census_csv(raw_lines, out_path) -> int:
    """Write the canonical 15-column headered CSV from raw data lines.

    Accepts the training-file format: no header, comma(-space) separated,
    possibly blank lines, possibly a trailing period on the label.
    Returns the number of data rows written.
    """
    count = 0
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CENSUS_COLUMNS)
        for line in raw_lines:
            line = line.strip()
            if not line or line.startswith("|"):
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if len(cells) != len(CENSUS_COLUMNS):
                raise DataError(
                    f"census line has {len(cells)} fields, expected {len(CENSUS_COLUMNS)}: {line[:80]!r}"
                )
            cells[-1] = cells[-1].rstrip(".")  # test-file labels carry a period
            writer.writerow(cells)
            count += 1
    return count


def reduced_census_view(src_path, out_path):
    """Project a staged census CSV onto the coarse demographic view:
    age_decade, education_band, sex, race, income."""
    with open(src_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = [cell.strip() for cell in next(reader)]
        try:
            idx = {
                name: header.index(name)
                for name in ("age", "education-num", "sex", "race", "income")
            }
        except ValueError as exc:
            raise DataError(f"{src_path}: missing expected census column ({exc})") from None
        with open(out_path, "w", newline="", encoding="utf-8") as out:
            writer = csv.writer(out)
            writer.writerow(["age_decade", "education_band", "sex", "race", "income"])
            for row in reader:
                if not row:
                    continue
                age = float(row[idx["age"]])
                edu = float(row[idx["education-num"]])
                decade = f"{int(age // 10) * 10}s"
                band = "<6" if edu < 6 else ("6-12" if edu <= 12 else ">12")
                writer.writerow(
                    [decade, band, row[idx["sex"]].strip(), row[idx["race"]].strip(),
                     row[idx["income"]].strip()]
                )
    return out_path
