"""End-to-end experiment orchestration and report emission.

An experiment is: load both NSL-KDD files (parse them, build the codebook
from the training set, encode both sets with it), relabel for the target
attack(s), then either run the genetic search (ga mode) or evaluate one
fixed feature set (fixed mode). Every emitted machine-readable file is
byte-stable for identical inputs and seeds.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

from .ga import EvaluatedIndividual, GAConfig, Tracer, compute_fitness, run
from .metrics import ConfusionMatrix, MetricsReport, table_header, table_row
from .nslkdd import (
    DOS_ATTACKS,
    FEATURE_NAMES,
    Codebook,
    Dataset,
    FeatureMask,
    build_codebook,
    encode,
    parse_file,
    relabel,
    report_alias,
)
from .reference import REFERENCE_CASES, ReferenceCase

DOS_ALL = "dos-all"


@dataclass
class ExperimentConfig:
    train_path: str | Path
    test_path: str | Path
    mode: str  # "ga" | "fixed"
    target: str  # attack name, comma-separated names, or "dos-all"
    criterion: str = "entropy"
    fixed_features: tuple[str, ...] | None = None
    ga: GAConfig | None = None
    output_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("ga", "fixed"):
            raise ValueError(f"mode must be 'ga' or 'fixed', got {self.mode!r}")
        if self.mode == "fixed" and not self.fixed_features:
            raise ValueError("fixed mode requires a non-empty feature list")
        if self.mode == "ga" and self.ga is None:
            raise ValueError("ga mode requires a GAConfig")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    target_attacks: tuple[str, ...]
    best: EvaluatedIndividual
    history: tuple[float, ...]  # empty in fixed mode
    codebook: Codebook
    duration_seconds: float

    @property
    def mask(self) -> FeatureMask:
        return self.best.mask

    @property
    def cm(self) -> ConfusionMatrix | None:
        # None only when a search ended on the empty mask (fitness 1.0)
        return self.best.cm

    @property
    def report(self) -> MetricsReport | None:
        return self.best.metrics

    @property
    def selected_features(self) -> tuple[str, ...]:
        return self.best.mask.selected_names()

    @property
    def selected_aliases(self) -> tuple[str, ...]:
        return tuple(report_alias(n) for n in self.selected_features)

    def feature_line(self) -> str:
        """Selected features in report style: ``target: 'alias', 'alias'``."""
        names = ", ".join(f"'{alias}'" for alias in self.selected_aliases)
        return f"{self.config.target}: {names or '(none)'}"

    def to_dict(self) -> dict:
        """Canonical machine-readable form; excludes wall-clock timing."""
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
            "mask_bits": self.mask.bits(),
            "fitness": self.best.fitness,
            "selected_features": list(self.selected_features),
            "selected_aliases": list(self.selected_aliases),
            "confusion": None if self.cm is None else {
                "tp": self.cm.tp, "fn": self.cm.fn,
                "fp": self.cm.fp, "tn": self.cm.tn,
                "total": self.cm.total,
            },
            "metrics": None if self.report is None else self.report.as_dict(),
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


def _validate_features(names) -> tuple[str, ...]:
    cleaned = tuple(n.strip() for n in names if n.strip())
    unknown = [n for n in cleaned if n not in FEATURE_NAMES]
    if unknown:
        raise ValueError(
            f"unknown feature name(s) {', '.join(unknown)}; "
            f"valid names: {', '.join(FEATURE_NAMES)}"
        )
    return cleaned


def _load(train_path: str | Path, test_path: str | Path) -> tuple[Dataset, Dataset, Codebook]:
    """Encoded training and test sets, and the codebook built from training."""
    train_raw = parse_file(train_path, role="training")
    test_raw = parse_file(test_path, role="test")
    codebook = build_codebook(train_raw)
    return encode(train_raw, codebook), encode(test_raw, codebook), codebook


def run_experiment(
    cfg: ExperimentConfig,
    *,
    workers: int = 1,
    use_cache: bool = True,
    trace: Tracer | None = None,
) -> ExperimentResult:
    """Run one full experiment; all randomness comes from cfg.ga.seed."""
    started = time.perf_counter()
    train, test, codebook = _load(cfg.train_path, cfg.test_path)
    attacks = resolve_target(cfg.target, set(train.labels) | set(test.labels))
    train_binary = relabel(train, attacks)
    test_binary = relabel(test, attacks)

    if cfg.mode == "fixed":
        mask = FeatureMask.from_names(_validate_features(cfg.fixed_features))
        best = compute_fitness(mask, train_binary, test_binary, cfg.criterion)
        history: tuple[float, ...] = ()
    else:
        ga_cfg = dataclasses.replace(cfg.ga, criterion=cfg.criterion)
        result = run(
            ga_cfg, train_binary, test_binary,
            workers=workers, use_cache=use_cache, trace=trace,
        )
        best, history = result.best, result.history

    return ExperimentResult(
        config=cfg,
        target_attacks=tuple(sorted(attacks)),
        best=best,
        history=history,
        codebook=codebook,
        duration_seconds=time.perf_counter() - started,
    )


def emit_reports(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write the result files; contents are byte-stable for identical results.

    Emits result.json (machine-readable), table.txt (fixed-width result row),
    features.txt (selected features in report alias style), codebook.json,
    and history.csv when the run has a GA trajectory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    result_path = out / "result.json"
    result_path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    written.append(result_path)

    table_path = out / "table.txt"
    if result.cm is None:
        body = "no classifier: the search ended on the empty feature mask (fitness 1.0)"
    else:
        body = table_header() + "\n" + table_row(
            result.mask.selected_count, result.config.target, result.cm, result.report
        )
    table_path.write_text(body + "\n")
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
        rep = self.report
        return {
            "accuracy": 100.0 * rep.accuracy,
            "precision": 100.0 * rep.precision,
            "recall": 100.0 * rep.recall,
            "f_measure": 100.0 * rep.f_measure,
            "specificity": 100.0 * rep.specificity,
            "detection_rate": rep.detection_rate,
            "fp_pct": 100.0 * rep.fp_rate,
            "fn_pct": 100.0 * rep.fn_rate,
        }

    def deltas(self) -> dict[str, float]:
        computed = self.computed_pct()
        return {
            key: computed[key] - expected
            for key, expected in self.case.expected_pct.items()
        }


def verify_appendix(
    train_path: str | Path,
    test_path: str | Path,
    cases: tuple[ReferenceCase, ...] = REFERENCE_CASES,
) -> list[VerificationRow]:
    """Re-evaluate every bundled reference feature set on local data."""
    train, test, _ = _load(train_path, test_path)

    rows: list[VerificationRow] = []
    for case in cases:
        attacks = resolve_target(case.target, set(train.labels) | set(test.labels))
        mask = FeatureMask.from_names(case.features)
        individual = compute_fitness(
            mask, relabel(train, attacks), relabel(test, attacks), case.criterion
        )
        rows.append(VerificationRow(case=case, cm=individual.cm,
                                    report=individual.metrics))
    return rows


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
