"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 2 and 3 need the real KDDTrain+/KDDTest+ files and skip with
instructions when they are absent; everything else runs on bundled synthetic
data. Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import itertools

import numpy as np
import pytest

from gafs.ga import GAConfig, compute_fitness, run
from gafs.metrics import ConfusionMatrix, metrics
from gafs.nslkdd import (
    DOS_ATTACKS,
    BinaryLabeledDataset,
    FeatureMask,
    build_codebook,
    encode,
    parse_file,
    project,
    relabel,
)
from gafs.tree import fit, impurity, predict_batch

from conftest import tiny_binary41
from oracles import brute_force_splits
from synthdata import REDUCED_CANDIDATES, reduced_rows, write_nslkdd


def gate(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def pct_close(value: float, expected: float, tol_pp: float = 0.01) -> bool:
    """value is a [0,1] rate; expected is a percentage; tol in percent points."""
    return abs(100.0 * value - expected) <= tol_pp


# ------------------------------------------------------------- criterion 1


def test_criterion_1_metrics_oracle():
    pod = metrics(ConfusionMatrix(39, 2, 15, 22488))
    checks = [
        pct_close(pod.precision, 72.22),
        pct_close(pod.recall, 95.12),
        pct_close(pod.f_measure, 82.11),
        pct_close(pod.accuracy, 99.92),
        pct_close(pod.specificity, 99.93),
        abs(pod.detection_rate - 95.06) <= 0.01,
    ]
    teardrop = metrics(ConfusionMatrix(12, 0, 37, 22495))
    checks.append(pct_close(teardrop.f_measure, 39.34))
    dos = metrics(ConfusionMatrix(5718, 23, 57, 16746))
    checks.append(pct_close(dos.f_measure, 99.31))
    checks.append(pct_close(dos.accuracy, 99.65))
    gate(
        "criterion-1 metrics oracle",
        all(checks),
        "pod/teardrop/dos-all confusion rows reproduce the recorded benchmark rates to 0.01pp",
    )


# ------------------------------------------------------------- criterion 2


@pytest.fixture(scope="module")
def real_binary(real_encoded):
    train, test, _ = real_encoded

    def for_target(targets) -> tuple[BinaryLabeledDataset, BinaryLabeledDataset]:
        return relabel(train, targets), relabel(test, targets)

    return for_target


@pytest.mark.real_data
def test_criterion_2_fixed_feature_reproduction(real_binary):
    results = {}

    train, test = real_binary({"land"})
    land = compute_fitness(FeatureMask.from_names(["land"]), train, test, "entropy")
    results["land"] = land.cm.as_tuple() == (7, 0, 0, 22537)

    train, test = real_binary({"smurf"})
    smurf = compute_fitness(
        FeatureMask.from_names(["protocol_type", "src_bytes"]), train, test, "entropy"
    )
    results["smurf"] = abs(smurf.metrics.detection_rate - 100.0) <= 0.05

    train, test = real_binary({"back"})
    back = compute_fitness(
        FeatureMask.from_names(["dst_bytes", "dst_host_srv_diff_host_rate"]),
        train, test, "entropy",
    )
    results["back"] = back.metrics.f_measure >= 0.995

    train, test = real_binary({"teardrop"})
    teardrop = compute_fitness(
        FeatureMask.from_names(["protocol_type", "wrong_fragment"]),
        train, test, "entropy",
    )
    results["teardrop"] = (
        teardrop.metrics.recall == 1.0 and 30 <= teardrop.cm.fp <= 45
    )

    eleven = FeatureMask.from_names([
        "protocol_type", "service", "dst_bytes", "land", "wrong_fragment",
        "logged_in", "count", "serror_rate", "same_srv_rate", "diff_srv_rate",
        "dst_host_srv_serror_rate",
    ])
    train, test = real_binary(DOS_ATTACKS)
    dos = compute_fitness(eleven, train, test, "entropy")
    results["dos-all"] = (
        dos.metrics.accuracy >= 0.994 and dos.metrics.f_measure >= 0.99
    )

    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in results.items())
    gate("criterion-2 fixed-feature reproduction", all(results.values()), detail)


# ------------------------------------------------------------- criterion 3


@pytest.mark.real_data
def test_criterion_3_ga_convergence(real_binary):
    train, test = real_binary({"land"})
    # early stop disabled so tie-breaking by feature count can shrink the mask
    land_cfg = GAConfig(
        seed=2016, criterion="entropy", population_size=30, generations=20,
        early_stop_fitness=-1.0,
    )
    land = run(land_cfg, train, test)
    land_ok = land.best.fitness == 0.0 and land.best.selected_count <= 3

    train, test = real_binary({"smurf"})
    smurf_cfg = GAConfig(
        seed=2016, criterion="entropy", population_size=30, generations=20,
        early_stop_fitness=0.005,
    )
    smurf = run(smurf_cfg, train, test)
    smurf_ok = smurf.best.fitness <= 0.005

    gate(
        "criterion-3 ga convergence",
        land_ok and smurf_ok,
        f"land fitness={land.best.fitness} features={land.best.selected_count}; "
        f"smurf fitness={smurf.best.fitness:.6f}",
    )


# ------------------------------------------------------------- criterion 4


def test_criterion_4_brute_force_equivalence(tmp_path):
    train_path = tmp_path / "train.txt"
    test_path = tmp_path / "test.txt"
    write_nslkdd(train_path, reduced_rows(2000, seed=101))
    write_nslkdd(test_path, reduced_rows(1000, seed=202))
    train_raw = parse_file(train_path, role="training")
    book = build_codebook(train_raw)
    train = relabel(encode(train_raw, book), {"burst"})
    test = relabel(encode(parse_file(test_path), book), {"burst"})

    candidates = FeatureMask.from_names(REDUCED_CANDIDATES)
    candidate_idx = candidates.indices()
    assert len(candidate_idx) == 8

    # exhaustive oracle first: every non-empty subset of the candidates
    best_exhaustive = None
    n_subsets = 0
    for r in range(1, len(candidate_idx) + 1):
        for subset in itertools.combinations(candidate_idx, r):
            n_subsets += 1
            individual = compute_fitness(
                FeatureMask.from_indices(subset), train, test, "entropy"
            )
            if best_exhaustive is None or individual.fitness < best_exhaustive.fitness:
                best_exhaustive = individual
    assert n_subsets == 255

    cfg = GAConfig(
        seed=77, criterion="entropy", population_size=40, generations=30,
        early_stop_fitness=-1.0, candidate_features=candidates,
    )
    result = run(cfg, train, test)
    ok = result.best.fitness == best_exhaustive.fitness
    gate(
        "criterion-4 brute-force oracle equivalence",
        ok,
        f"exhaustive optimum {best_exhaustive.fitness:.6f} "
        f"({best_exhaustive.selected_count} features), "
        f"ga best {result.best.fitness:.6f} ({result.best.selected_count} features)",
    )


# ------------------------------------------------------------- criterion 5


def test_criterion_5_property_suites(synth_flood):
    rng = np.random.default_rng(20_16)
    failures = []

    # impurity bounds and purity-iff-zero
    for _ in range(400):
        a, b = int(rng.integers(0, 2000)), int(rng.integers(0, 2000))
        if a + b == 0:
            continue
        for criterion, upper in (("entropy", 1.0), ("gini", 0.5)):
            value = impurity((a, b), criterion)
            if not (-1e-12 <= value <= upper + 1e-12):
                failures.append(f"impurity bounds ({a},{b},{criterion})")
            if (value == 0.0) != (a == 0 or b == 0):
                failures.append(f"purity iff zero ({a},{b},{criterion})")

    # metric identities on random confusion matrices
    for _ in range(400):
        cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 30_000, size=4)))
        if cm.total == 0:
            continue
        rep = metrics(cm)
        if abs(rep.fitness + rep.f_measure - 1.0) > 1e-12:
            failures.append(f"fitness+f != 1 for {cm}")
        if abs(rep.f_measure * (rep.precision + rep.recall)
               - 2.0 * rep.precision * rep.recall) > 1e-12:
            failures.append(f"f-harmonic identity for {cm}")
        if rep.detection_rate != 100.0 - 100.0 * rep.fp_rate - 100.0 * rep.fn_rate:
            failures.append(f"detection-rate identity for {cm}")

    # elitism monotonicity across >= 50 random seeds
    train41 = tiny_binary41(n=90, seed=1, noise=0.12)
    test41 = tiny_binary41(n=60, seed=2, noise=0.12)
    for seed in range(50):
        cfg = GAConfig(seed=seed, population_size=6, generations=3,
                       early_stop_fitness=-1.0)
        history = run(cfg, train41, test41).history
        if any(later > earlier for earlier, later in zip(history, history[1:])):
            failures.append(f"elitism violated for seed {seed}: {history}")

    # bit-exact determinism with the fitness memo on and off
    for seed in (3, 14):
        cfg = GAConfig(seed=seed, population_size=8, generations=3,
                       early_stop_fitness=-1.0)
        serial = run(cfg, train41, test41)
        uncached = run(cfg, train41, test41, use_cache=False)
        if not (serial.best.mask == uncached.best.mask
                and serial.history == uncached.history):
            failures.append(f"determinism violated for seed {seed}")

    # masked-out features can never affect predictions
    train_f, test_f = synth_flood
    mask = FeatureMask.from_names(["protocol_type", "wrong_fragment", "count"])
    tree = fit(project(train_f, mask), "entropy")
    baseline = predict_batch(tree, project(test_f, mask).features)
    masked_out = [i for i, g in enumerate(mask.genes) if not g]
    for trial in range(5):
        noisy = test_f.features.copy()
        noisy[:, masked_out] = rng.random((len(test_f), len(masked_out))) * 1e9
        perturbed = BinaryLabeledDataset(noisy, test_f.targets, test_f.feature_names)
        if not np.array_equal(
            predict_batch(tree, project(perturbed, mask).features), baseline
        ):
            failures.append(f"masked-feature independence trial {trial}")

    # root split equals exhaustive search on tiny instances
    for trial in range(150):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(n, k)).astype(float)
        y = [bool(v) for v in rng.integers(0, 2, size=n)]
        criterion = "entropy" if trial % 2 else "gini"
        tree = fit(BinaryLabeledDataset(X, np.array(y), ("",) * k), criterion)
        feature, threshold = tree.feature[0], tree.threshold[0]
        oracle = brute_force_splits(X, y, criterion)
        pos = sum(y)
        if pos in (0, n) or not oracle:
            if feature != -1:
                failures.append(f"split expected None on trial {trial}")
            continue
        best_decrease = max(d for _, _, d in oracle)
        if feature == -1:
            failures.append(f"missing split on trial {trial}")
            continue
        if abs(tree.impurity_decrease[0] - best_decrease) > 1e-9:
            failures.append(f"suboptimal split on trial {trial}")
            continue
        optimal = [
            (f, t) for f, t, d in oracle if d >= best_decrease - 1e-9
        ]
        if not any(
            feature == f and abs(threshold - t) <= 1e-12
            for f, t in optimal
        ):
            failures.append(f"split not in optimal set on trial {trial}")

    gate(
        "criterion-5 property suites",
        not failures,
        "impurity bounds, metric identities, elitism x50 seeds, parallel/cache "
        "determinism, masked independence, root-split oracle"
        + ("" if not failures else f" -- {failures[:3]}"),
    )


# --------------------------------------------------- real-data count anchors


@pytest.mark.real_data
def test_real_data_table_counts(real_encoded):
    train, test, _ = real_encoded
    ok = len(train) == 125_973 and len(test) == 22_544
    positives = int(relabel(test, DOS_ATTACKS).targets.sum())
    ok = ok and positives == 5741
    gate(
        "real-data count anchors",
        ok,
        f"train={len(train)} test={len(test)} dos-test-positives={positives}",
    )
