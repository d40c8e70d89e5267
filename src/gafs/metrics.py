"""Confusion-matrix bookkeeping and every rate derived from it.

All rates are kept at full precision; percentage rounding happens only in the
formatting helpers. The detection rate follows percent semantics:
``100 - fp_rate% - fn_rate%``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.tp, self.fn, self.fp, self.tn)


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f_measure: float
    fitness: float
    accuracy: float
    specificity: float
    fp_rate: float
    fn_rate: float
    detection_rate: float  # percent, per the 100 - FP% - FN% convention

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def confusion(predictions, targets) -> ConfusionMatrix:
    """Count TP/FN/FP/TN for boolean predictions against boolean targets,
    from one bincount of ``2 * target + prediction``."""
    preds = np.asarray(predictions, dtype=bool)
    truth = np.asarray(targets, dtype=bool)
    if preds.shape != truth.shape:
        raise ValueError(
            f"predictions and targets differ in length: {preds.shape} vs {truth.shape}"
        )
    if preds.size == 0:
        raise ValueError("cannot build a confusion matrix from zero samples")
    tn, fp, fn, tp = np.bincount(2 * truth.ravel() + preds.ravel(), minlength=4).tolist()
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Derive precision, recall, f-measure, fitness and the companion rates.

    Zero-denominator conventions: precision is 0 with no positive predictions,
    recall is 0 with no positive targets, specificity is 1 with no negatives;
    fp_rate and fn_rate are defined as the exact complements of specificity
    and recall so the detection-rate identity holds at full precision.
    """
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    tp, fn, fp, tn = cm.tp, cm.fn, cm.fp, cm.tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_measure = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    fitness = 1.0 - f_measure
    accuracy = (tp + tn) / cm.total
    specificity = tn / (fp + tn) if fp + tn else 1.0
    fp_rate = 1.0 - specificity
    fn_rate = 1.0 - recall
    detection_rate = 100.0 - 100.0 * fp_rate - 100.0 * fn_rate
    return MetricsReport(
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        fitness=fitness,
        accuracy=accuracy,
        specificity=specificity,
        fp_rate=fp_rate,
        fn_rate=fn_rate,
        detection_rate=detection_rate,
    )


def ranking_key(individual):
    """Total-order key: fitness, then feature count, then the gene string."""
    return (individual.fitness, individual.selected_count, individual.mask.genes)


def pct(value: float) -> str:
    """Display form of a [0, 1] rate: two-decimal percentage."""
    return f"{100.0 * value:.2f}%"


TABLE_COLUMNS = (
    ("Features", 8),
    ("Attack", 10),
    ("TP", 6),
    ("FN", 6),
    ("FP", 6),
    ("TN", 7),
    ("Total", 7),
    ("Accuracy", 9),
    ("Precision", 10),
    ("Recall", 8),
    ("F-Measure", 10),
    ("Specificity", 12),
)


def table_header() -> str:
    return "  ".join(name.ljust(width) for name, width in TABLE_COLUMNS)


def table_row(n_features: int, attack: str, cm: ConfusionMatrix,
              report: MetricsReport) -> str:
    """One fixed-width result row in the standard report column layout."""
    cells = (
        str(n_features), attack, str(cm.tp), str(cm.fn), str(cm.fp), str(cm.tn),
        str(cm.total), pct(report.accuracy), pct(report.precision),
        pct(report.recall), pct(report.f_measure), pct(report.specificity),
    )
    return "  ".join(cell.ljust(width) for cell, (_, width) in zip(cells, TABLE_COLUMNS))
