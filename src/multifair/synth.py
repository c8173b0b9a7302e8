"""Seeded synthetic tabular datasets for tests and offline experiments.

The generators stand in for access-restricted survival/outcome data: one
plants a single strongly biased column among independent noise (for
detection tests), the other couples two sensitive attributes of different
strengths to the outcome (for end-to-end mitigation tests).
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .model import _sigmoid


def planted_bias_dataset(
    n_rows: int = 500,
    n_noise: int = 30,
    rate_gap: float = 0.6,
    seed: int = 0,
) -> Dataset:
    """One binary column ("planted") with favorable-rate gap ``rate_gap``
    between its groups, amid independent standard-normal noise columns.

    P(y=1 | planted=1) = 0.5 + rate_gap/2, P(y=1 | planted=0) = 0.5 - rate_gap/2.
    """
    rng = np.random.default_rng(seed)
    planted = rng.binomial(1, 0.5, size=n_rows)
    rate_high = 0.5 + rate_gap / 2.0
    rate_low = 0.5 - rate_gap / 2.0
    labels = rng.binomial(1, np.where(planted == 1, rate_high, rate_low))
    noise = rng.standard_normal((n_rows, n_noise))
    features = np.column_stack([planted.astype(np.float64), noise])
    names = ("planted",) + tuple(f"noise_{i:02d}" for i in range(n_noise))
    return Dataset(features, labels, names)


def write_census_like_csv(path, n_rows: int = 32561, seed: int = 0) -> None:
    """Census-style CSV surrogate with the column schema of the public
    income dataset (age, education-num, sex, race, income) and comparable
    marginals: ~26% favorable labels, male and White groups with higher
    favorable base rates.

    Stands in for the restricted data when exercising the end-to-end
    pipeline offline; not a substitute for the real file in reporting.
    """
    rng = np.random.default_rng(seed)
    male = rng.binomial(1, 0.67, n_rows)
    white = rng.binomial(1, 0.85, n_rows)
    age = np.clip(rng.normal(38.6, 13.6, n_rows), 17, 90).round()
    edu = np.clip(rng.normal(10.1, 2.6, n_rows), 1, 16).round()
    logits = -8.8 + 0.035 * age + 0.42 * edu + 1.55 * male + 0.85 * white
    labels = rng.binomial(1, _sigmoid(logits))
    other_races = ("Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("age,education-num,sex,race,income\n")
        for i in range(n_rows):
            race = "White" if white[i] else other_races[int(rng.integers(0, 4))]
            handle.write(
                f"{int(age[i])},{int(edu[i])},"
                f"{'Male' if male[i] else 'Female'},{race},"
                f"{'>50K' if labels[i] else '<=50K'}\n"
            )


def two_attribute_biased_dataset(n_rows: int = 2000, seed: int = 0) -> Dataset:
    """Two binary sensitive attributes with different outcome pull, plus
    proxy and noise features; the baseline model discriminates on both.

    "attr_a" is the stronger bias source, "attr_b" the weaker, mimicking
    a sex/race style pair.
    """
    rng = np.random.default_rng(seed)
    a = rng.binomial(1, 0.5, size=n_rows)
    b = rng.binomial(1, 0.4, size=n_rows)
    proxy_a = rng.standard_normal(n_rows) + 0.9 * a
    proxy_b = rng.standard_normal(n_rows) + 0.7 * b
    noise = rng.standard_normal((n_rows, 3))
    logits = -1.2 + 1.6 * a + 1.0 * b + 0.8 * proxy_a + 0.5 * proxy_b + 0.4 * noise[:, 0]
    labels = rng.binomial(1, _sigmoid(logits))
    features = np.column_stack(
        [a.astype(np.float64), b.astype(np.float64), proxy_a, proxy_b, noise]
    )
    names = ("attr_a", "attr_b", "proxy_a", "proxy_b", "x_0", "x_1", "x_2")
    return Dataset(features, labels, names)
