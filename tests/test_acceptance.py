"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The census-data
criteria (7 and 8) need ``data/adult.csv`` staged by
``scripts/fetch_adult.py`` and skip with an explanation when it is
absent.
"""

import math
import time

import numpy as np
import pytest

from multifair.data import (
    Dataset,
    GroupAssignment,
    SplitSpec,
    binarize_by_mean,
    load_csv,
    set_privileged,
    split,
)
from multifair.detection import DetectionConfig, detect
from multifair.experiment import (
    DatasetConfig,
    ExperimentConfig,
    run_experiment,
)
from multifair.metrics import PredictionSet, auprc, auroc
from multifair.model import TrainConfig, fit, predict_scores, weighted_loss_and_gradient
from multifair.reweighting import (
    LevelWeightConfig,
    SampleWeights,
    m3fair,
    reweight,
    reweight_single_attribute,
)
from multifair.synth import planted_bias_dataset

from conftest import adult_csv_path, load_script

census = load_script("census")


def report_pass(number, text):
    print(f"\n[criterion {number}] PASS  {text}")


def random_binary_instance(rng):
    """Random labels, binary partition, and positive priors with every
    occurring (group, label) cell populated."""
    while True:
        n = int(rng.integers(4, 101))
        labels = rng.binomial(1, rng.uniform(0.2, 0.8), n)
        partition = rng.integers(0, 2, n)
        cells = {(g, d) for g, d in zip(partition.tolist(), labels.tolist())}
        present_labels = set(labels.tolist())
        if cells == {(g, d) for g in set(partition.tolist()) for d in present_labels}:
            if len(set(partition.tolist())) == 2:
                return labels, partition, SampleWeights(rng.uniform(0.05, 4.0, n))


def weighted_frequency_oracle(labels, partition, prior):
    total = float(sum(prior))
    label_mass = {d: sum(w for w, y in zip(prior, labels) if y == d) for d in (0, 1)}
    group_mass = {}
    cell_mass = {}
    for g, y, w in zip(partition, labels, prior):
        group_mass[g] = group_mass.get(g, 0.0) + w
        cell_mass[(g, y)] = cell_mass.get((g, y), 0.0) + w
    return [
        w * label_mass[y] * group_mass[g] / (total * cell_mass[(g, y)])
        for g, y, w in zip(partition, labels, prior)
    ]


@pytest.fixture(scope="module")
def binary_instances():
    rng = np.random.default_rng(20240501)
    return [random_binary_instance(rng) for _ in range(100)]


def test_c1_reweight_matches_oracle(binary_instances):
    start = time.perf_counter()
    for labels, partition, prior in binary_instances:
        ours = reweight(labels, partition, prior).values
        oracle = weighted_frequency_oracle(
            labels.tolist(), partition.tolist(), prior.values.tolist()
        )
        np.testing.assert_allclose(ours, oracle, rtol=1e-12, atol=0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(1, f"100 random instances match the frequency oracle within 1e-12 ({elapsed:.2f}s)")


def test_c2_exact_balance(binary_instances):
    worst = 0.0
    for labels, partition, prior in binary_instances:
        group = GroupAssignment("g", partition, privileged_value=1)
        out = reweight_single_attribute(labels, group, prior).values
        favorable = labels == 1
        rates = [
            out[(partition == g) & favorable].sum() / out[partition == g].sum()
            for g in (0, 1)
        ]
        worst = max(worst, abs(rates[0] - rates[1]))
    assert worst < 1e-12
    report_pass(2, f"weighted favorable rates agree across groups (worst gap {worst:.2e})")


def test_c3_mass_conservation(binary_instances):
    worst = 0.0
    for labels, partition, prior in binary_instances:
        out = reweight(labels, partition, prior)
        worst = max(worst, abs(out.values.sum() - prior.values.sum()) / prior.values.sum())
    assert worst < 1e-9
    report_pass(3, f"total weight conserved on all instances (worst relative drift {worst:.2e})")


def test_c4_single_attribute_collapse():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        labels, partition, prior = random_binary_instance(rng)
        group = GroupAssignment("g", partition, privileged_value=int(rng.integers(0, 2)))
        direct = reweight_single_attribute(labels, group, prior).values
        level_weight = int(rng.integers(1, 4))
        via_levels = m3fair(
            labels, [group], LevelWeightConfig({"g": level_weight}), prior
        ).values
        assert np.array_equal(direct, via_levels)
        checked += 1
    report_pass(4, "m3fair with one attribute is bit-identical to single-attribute reweighting (50 instances)")


def test_c5_metric_oracles():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 201))
        labels = rng.binomial(1, 0.5, n)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        # quantized scores so ties occur
        scores = rng.integers(0, 10, n) / 10.0
        fast = auroc(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        brute = wins / (len(pos) * len(neg))
        assert fast == pytest.approx(brute, abs=1e-12)

    prevalence = 0.3
    labels = rng.binomial(1, prevalence, 10_000)
    scores = rng.uniform(size=10_000)
    ap = auprc(scores, labels)
    assert ap == pytest.approx(prevalence, abs=0.02)
    report_pass(5, f"rank AUROC equals brute force on 200 instances; random-score AUPRC {ap:.4f} ~ prevalence {prevalence}")


def test_c6_gradient_check():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 51))
        d = int(rng.integers(1, 11))
        features = rng.standard_normal((n, d))
        labels = rng.binomial(1, 0.5, n).astype(float)
        weights = rng.uniform(0.05, 2.0, n)
        coef = rng.standard_normal(d)
        intercept = float(rng.standard_normal())
        l2 = float(rng.uniform(0.0, 1e-3))
        # the kernel's design [features | 1], label signs and per-coordinate
        # penalty, 2 * l2 on the coefficients and none on the intercept
        design = np.column_stack([features, np.ones(n)])
        rest = (design, labels, 1.0 - 2.0 * labels, weights, np.append(np.full(d, 2.0 * l2), 0.0))
        x = np.append(coef, intercept)
        analytic = weighted_loss_and_gradient(x, *rest)[1]
        numeric = np.empty(d + 1)
        step = 1e-5
        for k in range(d + 1):
            plus = x.copy()
            minus = x.copy()
            plus[k] += step
            minus[k] -= step
            lp = weighted_loss_and_gradient(plus, *rest)[0]
            lm = weighted_loss_and_gradient(minus, *rest)[0]
            numeric[k] = (lp - lm) / (2 * step)
        rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
        worst = max(worst, rel)
    assert worst <= 1e-5
    report_pass(6, f"analytic gradient matches central differences (worst relative error {worst:.2e})")


# ---------------------------------------------------------------------------
# Census-data criteria
# ---------------------------------------------------------------------------

SENSITIVE = ("sex=Male", "race=White")
ADULT_TRAIN = TrainConfig(max_iterations=1000)


@pytest.fixture(scope="module")
def adult_runs(tmp_path_factory):
    path = adult_csv_path()
    if path is None:
        pytest.skip(
            "criteria 7/8 need data/adult.csv; this environment has no outbound network "
            "(verified), so run scripts/fetch_adult.py on a connected machine first"
        )
    full = load_csv(path, "income", ">50K")
    assert full.n_rows == census.CENSUS_TRAIN_ROWS, (
        f"staged census file has {full.n_rows} rows, expected the documented "
        f"{census.CENSUS_TRAIN_ROWS} of the public training file"
    )
    reduced = census.reduced_census_view(path, tmp_path_factory.mktemp("adult") / "adult_reduced.csv")

    def config(**kw):
        return ExperimentConfig(
            dataset=DatasetConfig(str(reduced), "income", ">50K"),
            sensitive_attributes=SENSITIVE,
            train=ADULT_TRAIN,
            **kw,
        )

    start = time.perf_counter()
    runs = {
        "baseline": run_experiment(config()),
        "seq_sex_race": run_experiment(
            config(method="rw_sequential", attribute_order=SENSITIVE)
        ),
        "seq_race_sex": run_experiment(
            config(method="rw_sequential", attribute_order=SENSITIVE[::-1])
        ),
        "m3fair": run_experiment(
            config(method="m3fair", level_weights={SENSITIVE[0]: 1, SENSITIVE[1]: 2})
        ),
    }
    runs["elapsed"] = time.perf_counter() - start
    runs["reduced_csv"] = reduced
    return runs


def by_attr(report):
    return {row.evaluated_attribute: row for row in report.rows}


def test_c7_census_end_to_end(adult_runs):
    base = by_attr(adult_runs["baseline"])
    fair = by_attr(adult_runs["m3fair"])
    acc_base = adult_runs["baseline"].rows[0].acc
    acc_fair = adult_runs["m3fair"].rows[0].acc

    assert 0.78 <= acc_base <= 0.82, f"baseline ACC {acc_base:.4f} outside [0.78, 0.82]"
    assert base[SENSITIVE[0]].di < 0.55, f"baseline DI(sex) {base[SENSITIVE[0]].di:.4f}"
    assert base[SENSITIVE[1]].di < 0.80, f"baseline DI(race) {base[SENSITIVE[1]].di:.4f}"
    for attr in SENSITIVE:
        assert 0.90 <= fair[attr].di <= 1.10, f"post-mitigation DI({attr}) {fair[attr].di:.4f}"
        assert abs(fair[attr].spd) <= 0.05, f"post-mitigation SPD({attr}) {fair[attr].spd:.4f}"
    assert acc_base - acc_fair <= 0.03, f"ACC drop {acc_base - acc_fair:.4f} > 3 points"
    assert adult_runs["elapsed"] < 120.0

    # mass conservation on every grid point of the sweep space
    ds = load_csv(adult_runs["reduced_csv"], "income", ">50K")
    train, _ = split(ds, SplitSpec())
    groups = []
    for name in SENSITIVE:
        groups.append(set_privileged(binarize_by_mean(train, name), train))
    for w_sex in (1, 2):
        for w_race in (1, 2):
            config = LevelWeightConfig({SENSITIVE[0]: w_sex, SENSITIVE[1]: w_race})
            weights = m3fair(train.labels, groups, config, SampleWeights.unit(train.n_rows))
            assert abs(weights.values.sum() - train.n_rows) / train.n_rows < 1e-9
    report_pass(
        7,
        f"census block reproduced: ACC {acc_base:.4f}->{acc_fair:.4f}, "
        f"DI(sex) {base[SENSITIVE[0]].di:.4f}->{fair[SENSITIVE[0]].di:.4f}, "
        f"DI(race) {base[SENSITIVE[1]].di:.4f}->{fair[SENSITIVE[1]].di:.4f} "
        f"({adult_runs['elapsed']:.0f}s); all grid points conserve mass",
    )


def test_census_detection_flags_sex_and_race(adult_runs):
    # qualitative companion to the census block: the detector, run on the
    # full staged file, should surface sex and race indicator columns
    path = adult_csv_path()
    dataset = load_csv(path, "income", ">50K")
    train, _ = split(dataset, SplitSpec())
    model = fit(train, SampleWeights.unit(train.n_rows), ADULT_TRAIN)
    preds = PredictionSet(predict_scores(model, train), train.labels)
    result = detect(train, preds, DetectionConfig(top_n=20))
    hits = sorted(result.intersection)
    assert any(name.startswith("sex=") for name in hits), hits
    assert any(name.startswith("race=") for name in hits), hits
    print(f"\n[census detection] intersection: {', '.join(hits)}")


def test_c8_simultaneous_not_worse_than_sequential(adult_runs):
    fair = by_attr(adult_runs["m3fair"])
    seq_a = by_attr(adult_runs["seq_sex_race"])
    seq_b = by_attr(adult_runs["seq_race_sex"])
    slack = 0.02

    def deviations(row):
        di_dev = math.inf if math.isinf(row.di) else abs(1.0 - row.di)
        return {"di": di_dev, "spd": abs(row.spd), "aod": abs(row.aod), "eod": abs(row.eod)}

    for attr in SENSITIVE:
        ours = deviations(fair[attr])
        worse = {
            key: max(deviations(seq_a[attr])[key], deviations(seq_b[attr])[key])
            for key in ours
        }
        for key in ours:
            assert ours[key] <= worse[key] + slack, (
                f"{attr}/{key}: m3fair {ours[key]:.4f} vs worse sequential {worse[key]:.4f}"
            )
    report_pass(8, "simultaneous reweighting is never worse than the worse sequential order (+0.02 slack)")


def test_c9_detection_recovers_planted_bias():
    hits = 0
    for seed in range(20):
        ds = planted_bias_dataset(n_rows=500, n_noise=30, rate_gap=0.6, seed=seed)
        model = fit(ds, SampleWeights.unit(ds.n_rows))
        preds = PredictionSet(predict_scores(model, ds), ds.labels)
        result = detect(ds, preds, DetectionConfig(top_n=20))
        hits += "planted" in result.intersection
    assert hits >= 19
    report_pass(9, f"planted column detected in {hits}/20 seeded runs")


def test_c10_run_determinism(tmp_path):
    import json

    from multifair.cli import main
    from multifair.data import save_csv
    from multifair.synth import two_attribute_biased_dataset

    csv_path = tmp_path / "synth.csv"
    save_csv(two_attribute_biased_dataset(900, seed=17), csv_path,
             label_column="outcome", positive_label="yes", negative_label="no")
    out = tmp_path / "report.json"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset": {"path": str(csv_path), "label_column": "outcome", "positive_label": "yes"},
        "sensitive_attributes": ["attr_a", "attr_b"],
        "method": "m3fair",
        "level_weights": {"attr_a": 1, "attr_b": 2},
        "report_path": str(out),
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    first = out.read_bytes()
    assert main(["run", "--config", str(config_path)]) == 0
    assert out.read_bytes() == first
    report_pass(10, "identical configs emit byte-identical structured reports")
