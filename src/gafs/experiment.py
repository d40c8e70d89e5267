"""End-to-end experiment orchestration and report emission.

An experiment is: load both NSL-KDD files (parse them, build the codebook
from the training set, encode both sets with it), relabel for the target
attack(s), then either run the genetic search (ga mode) or evaluate one
fixed feature set (fixed mode). Every emitted machine-readable file is
byte-stable for identical inputs and seeds.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .ga import EvaluatedIndividual, GAConfig, GAResult, Tracer, compute_fitness, run
from .metrics import ConfusionMatrix, MetricsReport, table_header, table_row
from .nslkdd import (
    DOS_ATTACKS,
    Codebook,
    Dataset,
    FeatureMask,
    ParseError,
    build_codebook,
    encode,
    parse_file,
    relabel,
    report_alias,
)
from .reference import REFERENCE_CASES, ReferenceCase
from .tree import SplitTable, check_criterion

DOS_ALL = "dos-all"


@dataclass
class ExperimentConfig:
    train_path: str | Path
    test_path: str | Path
    mode: str  # "ga" | "fixed"
    target: str  # attack name, comma-separated names, or "dos-all"
    criterion: str = "entropy"
    fixed_features: tuple[str, ...] | None = None  # required in fixed mode, refused in ga mode
    ga: GAConfig | None = None  # required in ga mode, refused in fixed mode

    def __post_init__(self) -> None:
        check_criterion(self.criterion)
        if isinstance(self.fixed_features, str):
            raise ValueError(f"fixed_features must be a collection of feature names, "
                             f"got the str {self.fixed_features!r}")
        if self.mode not in ("ga", "fixed"):
            raise ValueError(f"mode must be 'ga' or 'fixed', got {self.mode!r}")
        if self.mode == "fixed":
            if not any(n.strip() for n in self.fixed_features or ()):
                raise ValueError("fixed mode requires a non-empty feature list")
            self.fixed_mask()  # unknown names fail here, before any file is read
        if self.mode == "ga" and self.ga is None:
            raise ValueError("ga mode requires a GAConfig")
        if self.mode == "ga" and self.fixed_features is not None:
            raise ValueError("ga mode searches for its features and takes no fixed_features")
        if self.ga is not None and self.ga.criterion != self.criterion:
            raise ValueError(f"GA criterion {self.ga.criterion!r} differs from the "
                             f"experiment criterion {self.criterion!r}")
        if self.mode == "fixed" and self.ga is not None:
            raise ValueError("fixed mode runs no search and takes no GAConfig")

    def fixed_mask(self) -> FeatureMask:
        """The mask of ``fixed_features``, blank names skipped."""
        return FeatureMask.from_names(n.strip() for n in self.fixed_features if n.strip())


@dataclass
class ExperimentResult:
    """One run's outcome: its best individual and, in ga mode, its search."""

    config: ExperimentConfig
    target_attacks: tuple[str, ...]
    best: EvaluatedIndividual  # cm and metrics are None only if a search ended on the empty mask
    codebook: Codebook
    duration_seconds: float
    search: GAResult | None = None  # the GA run's trajectory and counts; None in fixed mode

    @property
    def history(self) -> tuple[float, ...]:
        """The search's best-fitness trajectory; empty in fixed mode."""
        return self.search.history if self.search is not None else ()

    @property
    def selected_features(self) -> tuple[str, ...]:
        return self.best.mask.selected_names()

    @property
    def selected_aliases(self) -> tuple[str, ...]:
        return tuple(report_alias(n) for n in self.selected_features)

    def table_text(self) -> str:
        """The result table's header and row, or why there is no classifier."""
        best = self.best
        if best.cm is None:
            return ("no classifier: the search ended on the empty feature mask "
                    f"(fitness {best.fitness})")
        return table_header() + "\n" + table_row(
            best.mask.selected_count, self.config.target, best.cm, best.metrics)

    def feature_line(self) -> str:
        """Selected features in report style: ``target: 'alias', 'alias'``."""
        names = ", ".join(f"'{alias}'" for alias in self.selected_aliases)
        return f"{self.config.target}: {names or '(none)'}"

    def to_dict(self) -> dict:
        """Canonical machine-readable form; excludes wall-clock timing."""
        best = self.best
        doc = {
            "config": {
                "train_path": str(self.config.train_path),
                "test_path": str(self.config.test_path),
                "mode": self.config.mode,
                "target": self.config.target,
                "criterion": self.config.criterion,
                "fixed_features": (
                    list(self.config.fixed_features)
                    if self.config.fixed_features
                    else None
                ),
            },
            "target_attacks": sorted(self.target_attacks),
            "mask_bits": best.mask.bits(),
            "fitness": best.fitness,
            "selected_features": list(self.selected_features),
            "selected_aliases": list(self.selected_aliases),
            "confusion": None if best.cm is None else {**asdict(best.cm), "total": best.cm.total},
            "metrics": None if best.metrics is None else best.metrics.as_dict(),
            "codebook_warnings": self.codebook.warnings(),
        }
        if self.config.ga is not None:
            ga = self.config.ga
            doc["ga"] = {
                "seed": ga.seed,
                "population_size": ga.population_size,
                "generations": ga.generations,
                "mutation_rate": ga.mutation_rate,
                "crossover_rate": ga.crossover_rate,
                "tournament_size": ga.tournament_size,
                "early_stop_fitness": ga.early_stop_fitness,
                "history": list(self.history),
            }
        return doc


def resolve_target(target: str, known_labels: set[str]) -> frozenset[str]:
    """Expand and validate a target string against the attack roster and data.

    ``dos-all`` means the six denial-of-service attacks; otherwise the
    target is one attack name or a comma-separated set. A name is valid if
    it is in the six-attack roster or actually present among the dataset
    labels.
    """
    target = target.strip().lower()
    if target == DOS_ALL:
        return frozenset(DOS_ATTACKS)
    names = frozenset(n.strip().lower() for n in target.split(",") if n.strip())
    if not names:
        raise ValueError("target attack set is empty: no positive class to learn")
    valid = DOS_ATTACKS | {l.strip().lower() for l in known_labels}
    unknown = sorted(names - valid)
    if unknown:
        raise ValueError(
            f"unknown attack name(s) {', '.join(unknown)}; "
            f"valid names: {DOS_ALL}, {', '.join(sorted(valid))}"
        )
    return names


def _load(train_path: str | Path, test_path: str | Path) -> tuple[Dataset, Dataset, Codebook]:
    """Encoded sets and the training codebook; a file without records is a ParseError."""
    train_raw = parse_file(train_path, role="training")
    test_raw = parse_file(test_path, role="test")
    for path, raw in ((train_path, train_raw), (test_path, test_raw)):
        if not len(raw):
            raise ParseError(f"{Path(path).name}: no records")
    codebook = build_codebook(train_raw)
    return encode(train_raw, codebook), encode(test_raw, codebook), codebook


def run_experiment(
    cfg: ExperimentConfig,
    *,
    workers: int = 1,
    trace: Tracer | None = None,
) -> ExperimentResult:
    """Run one full experiment; all randomness comes from cfg.ga.seed."""
    # evaluation is serial; the keyword is accepted only because the benchmark
    # harness (bench/workloads.py) calls run_experiment(cfg, workers=1)
    if workers != 1:
        raise ValueError(f"workers must be 1 (evaluation is serial), got {workers!r}")
    started = time.perf_counter()
    train, test, codebook = _load(cfg.train_path, cfg.test_path)
    attacks = resolve_target(cfg.target, {*train.labels.values, *test.labels.values})
    train_binary = relabel(train, attacks)
    test_binary = relabel(test, attacks)

    if cfg.mode == "fixed":
        search = None
        best = compute_fitness(cfg.fixed_mask(), train_binary, test_binary, cfg.criterion)
    else:
        search = run(cfg.ga, train_binary, test_binary, trace=trace)
        best = search.best

    return ExperimentResult(
        config=cfg,
        target_attacks=tuple(sorted(attacks)),
        best=best,
        codebook=codebook,
        duration_seconds=time.perf_counter() - started,
        search=search,
    )


def emit_reports(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write the result files; contents are byte-stable for identical results.

    Emits result.json (``to_dict``), table.txt (``table_text``, as the console
    prints it), features.txt (``feature_line``), codebook.json, and history.csv
    when the run has a GA trajectory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    result_path = out / "result.json"
    result_path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    written.append(result_path)

    table_path = out / "table.txt"
    table_path.write_text(result.table_text() + "\n")
    written.append(table_path)

    features_path = out / "features.txt"
    features_path.write_text(result.feature_line() + "\n")
    written.append(features_path)

    codebook_path = out / "codebook.json"
    result.codebook.save(codebook_path)
    written.append(codebook_path)

    if result.history:
        history_path = out / "history.csv"
        lines = ["generation,best_fitness"]
        lines += [f"{gen},{fitness:.17g}" for gen, fitness in enumerate(result.history)]
        history_path.write_text("\n".join(lines) + "\n")
        written.append(history_path)

    return written


@dataclass
class VerificationRow:
    case: ReferenceCase
    cm: ConfusionMatrix
    report: MetricsReport

    def computed_pct(self) -> dict[str, float]:
        """Every metric in percent, under the keys of ``ReferenceCase.expected_pct``."""
        pct = {name: 100.0 * value for name, value in self.report.as_dict().items()}
        return {**pct, "detection_rate": self.report.detection_rate,  # already percent
                "fp_pct": pct["fp_rate"], "fn_pct": pct["fn_rate"]}


def verify_appendix(
    train_path: str | Path,
    test_path: str | Path,
    cases: tuple[ReferenceCase, ...] = REFERENCE_CASES,
) -> list[VerificationRow]:
    """Re-evaluate every bundled reference feature set on local data.

    Every case's target, criterion and features are checked before the first
    fit, and a case without features is refused. The cases of one target and
    criterion form a chain: one split table, its cases fitted in case order.
    Chains share nothing but the relabelled sets, so they run on threads, at
    most one per usable CPU; the rows come back in case order and equal a
    serial run's.
    """
    train, test, _ = _load(train_path, test_path)
    labels = {*train.labels.values, *test.labels.values}
    chains: dict[tuple[frozenset[str], str], list[int]] = {}  # (target, criterion) -> cases
    masks = []
    for i, case in enumerate(cases):
        attacks = resolve_target(case.target, labels)
        check_criterion(case.criterion)
        masks.append(FeatureMask.from_names(case.features))
        if not masks[-1].selected_count:
            raise ValueError(f"case {case.name!r} selects no features")
        chains.setdefault((attacks, case.criterion), []).append(i)
    # each target's sets are relabelled once and serve all its chains
    relabelled = {attacks: (relabel(train, attacks), relabel(test, attacks))
                  for attacks in dict.fromkeys(attacks for attacks, _ in chains)}

    def fit_chain(chain):
        (attacks, criterion), indices = chain
        train_binary, test_binary = relabelled[attacks]
        table = SplitTable(train_binary, criterion)  # used by this thread alone
        return [compute_fitness(masks[i], train_binary, test_binary, criterion, table)
                for i in indices]

    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    fitted = {}
    with ThreadPoolExecutor(max(1, min(len(chains), usable or 1))) as pool:
        for indices, individuals in zip(chains.values(), pool.map(fit_chain, chains.items())):
            fitted.update(zip(indices, individuals))
    return [VerificationRow(case=case, cm=fitted[i].cm, report=fitted[i].metrics)
            for i, case in enumerate(cases)]


def format_verification(rows: list[VerificationRow]) -> str:
    """Side-by-side computed vs expected table with per-metric deltas."""
    lines: list[str] = []
    for row in rows:
        case = row.case
        lines.append(f"== {case.name} ({len(case.features)} features) ==")
        exp, got = case.expected_cm, row.cm
        lines.append(
            f"  confusion  computed TP={got.tp} FN={got.fn} FP={got.fp} TN={got.tn}"
            f"  expected TP={exp.tp} FN={exp.fn} FP={exp.fp} TN={exp.tn}"
        )
        computed = row.computed_pct()
        for key, expected in case.expected_pct.items():
            value = computed[key]
            lines.append(
                f"  {key:<15} computed {value:7.2f}%  expected {expected:7.2f}%"
                f"  delta {value - expected:+7.2f}"
            )
    return "\n".join(lines)
