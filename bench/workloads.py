"""Workloads: their sizes, the timed user-level call, and the output checks.

Each workload drives the package only through its public entry points, on
files generated from the workload seed (see ``synth.py``).

* ``fixed_sweep`` is the ``--verify-appendix`` path: one ``verify_appendix``
  call over 12 fixed masks, {flood, burst} x {entropy, gini} x
  k in {8, 20, 41}, at NSL-KDD scale. It has the only full-scale load and the
  only Gini trees, tree fit dominates (its burst cases fit noise into trees
  of thousands of nodes), the all-feature masks show the mask-independent
  sort cost, and it never touches the GA cache. The masks
  are fixed rather than drawn per seed: most synthetic columns are constant,
  so a random draw swings a case between a one-node tree and a 67k-node one
  and the sweep's work would depend on the draw instead of on the code.
* ``ga_flood`` is a GA run through ``run_experiment`` + ``emit_reports`` on
  the separable target with early stop off (fitness 0 would otherwise end it
  after generation 0). Masks converge to few features and shallow trees, so
  repeats (the fitness cache), projection, prediction and GA self time weigh
  more.

The GA seed is part of the workload, not of the inputs: with it fixed, the
search takes nearly the same path on every data seed (the same number of
fits, within 1% of the same node count), while a GA seed drawn per data seed
swings a run's cost by a factor of four.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from synth import FEATURE_NAMES, UNSEEN_SERVICE

SWEEP_TARGETS = ("flood", "burst")
SWEEP_CRITERIA = ("entropy", "gini")
# k=8 keeps only low-cardinality columns plus two constant ones; k=20 adds
# the noisy numeric columns except src_bytes, the strongest burst signal, so
# burst trees fit noise; k=41 is every column
_MASK_8 = ("protocol_type", "service", "flag", "land", "wrong_fragment",
           "urgent", "logged_in", "count")
_MASK_20 = _MASK_8 + ("duration", "hot", "num_failed_logins", "num_compromised",
                      "root_shell", "su_attempted", "num_root", "num_file_creations",
                      "num_shells", "srv_count", "same_srv_rate", "dst_host_count")
SWEEP_MASKS = {8: _MASK_8, 20: _MASK_20, 41: FEATURE_NAMES}


@dataclass(frozen=True)
class Workload:
    name: str
    train_rows: int
    test_rows: int
    targets: tuple[str, ...]  # relabeled at set-up
    population: int = 0  # GA workloads only
    generations: int = 0
    ga_seed: int = 0

    @property
    def is_ga(self) -> bool:
        return self.population > 0

    def encoded_feature_bytes(self) -> int:
        """Bytes of the two float64 feature matrices that encoding produces."""
        return (self.train_rows + self.test_rows) * len(FEATURE_NAMES) * 8

    def evals_requested(self) -> int:
        """Fitness evaluations one call asks for (early stop is off)."""
        if self.is_ga:
            return self.population * (self.generations + 1)
        return len(sweep_specs())


WORKLOADS = {
    "full": {
        "fixed_sweep": Workload("fixed_sweep", 125_973, 22_544, SWEEP_TARGETS),
        "ga_flood": Workload("ga_flood", 20_000, 4_000, ("flood",),
                             population=12, generations=16, ga_seed=2),
    },
    # seconds per workload; used by the benchmark's own tests
    "tiny": {
        "fixed_sweep": Workload("fixed_sweep", 3_000, 800, SWEEP_TARGETS),
        "ga_flood": Workload("ga_flood", 1_500, 400, ("flood",),
                             population=6, generations=4, ga_seed=2),
    },
}


def sweep_specs() -> list[tuple[str, str, str, tuple[str, ...]]]:
    """(case name, target, criterion, features) of the 12 fixed-mask cases."""
    return [
        (f"{target}/{criterion}/k{k}", target, criterion, names)
        for k, names in SWEEP_MASKS.items()
        for target in SWEEP_TARGETS
        for criterion in SWEEP_CRITERIA
    ]


def sweep_cases():
    """The fixed-mask cases as ``ReferenceCase``s for ``verify_appendix``."""
    from gafs.metrics import ConfusionMatrix
    from gafs.reference import ReferenceCase

    unchecked = ConfusionMatrix(tp=0, fn=0, fp=0, tn=0)  # the benchmark checks instead
    return tuple(
        ReferenceCase(name=name, target=target, criterion=criterion, features=features,
                      expected_cm=unchecked)
        for name, target, criterion, features in sweep_specs()
    )


def run_setup(workload: Workload, train_path: str, test_path: str) -> tuple[float, dict]:
    """Time files -> relabeled binary datasets through the public functions."""
    from gafs.nslkdd import build_codebook, encode, parse_file, relabel

    started = time.perf_counter()
    train_raw = parse_file(train_path, role="training")
    test_raw = parse_file(test_path, role="test")
    book = build_codebook(train_raw)
    train = encode(train_raw, book)
    test = encode(test_raw, book)
    binary = {t: (relabel(train, {t}), relabel(test, {t})) for t in workload.targets}
    elapsed = time.perf_counter() - started

    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(train.features).tobytes())
    digest.update(np.ascontiguousarray(test.features).tobytes())
    digest.update(json.dumps(book.to_dict(), sort_keys=True).encode())
    for target in workload.targets:
        for data in binary[target]:
            digest.update(data.targets.tobytes())
    output = {
        "digest": digest.hexdigest(),
        "rows": [len(train), len(test)],
        "feature_bytes": int(train.features.nbytes + test.features.nbytes),
        "positives": {t: [int(d.targets.sum()) for d in binary[t]] for t in workload.targets},
        "warnings": book.warnings(),
    }
    return elapsed, output


def run_call(workload: Workload, train_path: str, test_path: str,
             out_dir: Path, tracer=None) -> tuple[float, object]:
    """Time one user-level call of the workload; return (seconds, output).

    The output is what the checks compare: the confusion counts of every
    sweep case, or ``result.json`` with its file paths normalised.
    """
    from gafs.experiment import (
        ExperimentConfig, emit_reports, format_verification, run_experiment, verify_appendix,
    )
    from gafs.ga import GAConfig

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    if workload.is_ga:
        cfg = ExperimentConfig(
            train_path=train_path,
            test_path=test_path,
            mode="ga",
            target=workload.targets[0],
            criterion="entropy",
            ga=GAConfig(
                seed=workload.ga_seed,
                population_size=workload.population,
                generations=workload.generations,
                early_stop_fitness=-1.0,
            ),
        )
        started = time.perf_counter()
        with span("experiment.run_experiment"):
            result = run_experiment(cfg, workers=1)
        with span("experiment.report"):
            emit_reports(result, out_dir)
        elapsed = time.perf_counter() - started
        doc = json.loads((out_dir / "result.json").read_text())
        for key in ("train_path", "test_path"):
            doc["config"][key] = Path(doc["config"][key]).name
        return elapsed, doc

    cases = sweep_cases()
    started = time.perf_counter()
    with span("experiment.verify_appendix"):
        rows = verify_appendix(train_path, test_path, cases)
    with span("experiment.report"):
        format_verification(rows)
    elapsed = time.perf_counter() - started
    return elapsed, [
        {"case": row.case.name, "tp": row.cm.tp, "fn": row.cm.fn, "fp": row.cm.fp, "tn": row.cm.tn}
        for row in rows
    ]


# ---------------------------------------------------------------- checks


def canonical_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def record_of(workload: Workload, output) -> dict:
    """The compact form of a call's output kept in ``expected.json``."""
    if not workload.is_ga:
        return {row["case"]: [row["tp"], row["fn"], row["fp"], row["tn"]] for row in output}
    return {
        "digest": canonical_digest(output),
        "fitness": output["fitness"],
        "mask_bits": output["mask_bits"],
        "confusion": output["confusion"],
        "history": output["ga"]["history"],
    }


def compare_record(expected: dict, got: dict) -> list[str]:
    """Every field where a recorded value and a fresh one differ."""
    return [
        f"{key}: expected {expected[key]!r}, got {got.get(key)!r}"
        for key in expected
        if got.get(key) != expected[key]
    ]


def _positives(facts: dict, role: str, target: str) -> int:
    return facts[role]["labels"][target]


def setup_problems(workload: Workload, facts: dict, output: dict) -> list[str]:
    """Checks of one set-up that hold on every seed."""
    problems = []
    rows = [facts["train"]["rows"], facts["test"]["rows"]]
    if output["rows"] != rows:
        problems.append(f"rows {output['rows']} != generated {rows}")
    if output["feature_bytes"] != workload.encoded_feature_bytes():
        problems.append(f"encoded matrices hold {output['feature_bytes']} bytes, "
                        f"not {workload.encoded_feature_bytes()}")
    for target in workload.targets:
        want = [_positives(facts, "train", target), _positives(facts, "test", target)]
        if output["positives"][target] != want:
            problems.append(f"{target} positives {output['positives'][target]} != generated {want}")
    if not any(UNSEEN_SERVICE in w for w in output["warnings"]):
        problems.append(f"codebook did not report the unseen service {UNSEEN_SERVICE!r}")
    return problems


def _cm_problems(where: str, cm: dict, test_rows: int, positives: int) -> list[str]:
    problems = []
    if cm["tp"] + cm["fn"] + cm["fp"] + cm["tn"] != test_rows:
        problems.append(f"{where}: confusion counts do not sum to {test_rows} test rows")
    if cm["tp"] + cm["fn"] != positives:
        problems.append(f"{where}: tp+fn={cm['tp'] + cm['fn']} but the test file has {positives} positives")
    return problems


def call_problems(workload: Workload, facts: dict, output) -> list[str]:
    """Checks of one call's output that hold on every seed."""
    test_rows = facts["test"]["rows"]
    if not workload.is_ga:
        names = [name for name, _, _, _ in sweep_specs()]
        if [row["case"] for row in output] != names:
            return [f"sweep returned cases {[row['case'] for row in output]}, expected {names}"]
        problems = []
        for row in output:
            target = row["case"].split("/")[0]
            problems += _cm_problems(row["case"], row, test_rows, _positives(facts, "test", target))
        return problems

    doc = output
    target = workload.targets[0]
    problems = []
    cm = doc["confusion"]
    if cm is None:
        return ["result.json has no confusion matrix"]
    problems += _cm_problems("result", cm, test_rows, _positives(facts, "test", target))
    tp, fn, fp = cm["tp"], cm["fn"], cm["fp"]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_measure = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    if not math.isclose(doc["fitness"], 1.0 - f_measure, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"fitness {doc['fitness']} != 1 - f_measure {1.0 - f_measure}")
    bits = doc["mask_bits"]
    if len(bits) != len(FEATURE_NAMES) or set(bits) - {"0", "1"}:
        problems.append(f"mask_bits {bits!r} is not a {len(FEATURE_NAMES)}-gene mask")
    elif doc["selected_features"] != [n for n, b in zip(FEATURE_NAMES, bits) if b == "1"]:
        problems.append("selected_features disagree with mask_bits")
    ga = doc["ga"]
    history = ga["history"]
    if len(history) != workload.generations + 1:
        problems.append(f"history has {len(history)} entries, expected {workload.generations + 1}")
    if any(b > a for a, b in zip(history, history[1:])):
        problems.append("best fitness got worse between generations")
    if history and history[-1] != doc["fitness"]:
        problems.append("final history entry differs from the reported fitness")
    echo = (ga["seed"], ga["population_size"], ga["generations"])
    want = (workload.ga_seed, workload.population, workload.generations)
    if echo != want:
        problems.append(f"result echoes GA config {echo}, expected {want}")
    return problems
