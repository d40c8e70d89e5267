import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gafs.ga import EvaluatedIndividual
from gafs.metrics import (
    ConfusionMatrix,
    confusion,
    metrics,
    pct,
    ranking_key,
    table_header,
    table_row,
)
from gafs.nslkdd import N_FEATURES, FeatureMask


# ----------------------------------------------------------------- confusion


def test_confusion_all_correct_positive():
    cm = confusion([True] * 5, [True] * 5)
    assert cm.as_tuple() == (5, 0, 0, 0)


def test_confusion_complement_has_no_correct_cells():
    targets = [True, False, True, False]
    preds = [not t for t in targets]
    cm = confusion(preds, targets)
    assert cm.tp == 0 and cm.tn == 0
    assert cm.fn == 2 and cm.fp == 2


def test_confusion_counts_sum_to_length():
    rng = np.random.default_rng(0)
    preds = rng.random(500) < 0.4
    targets = rng.random(500) < 0.3
    assert confusion(preds, targets).total == 500


def test_confusion_rejects_length_mismatch_and_empty():
    with pytest.raises(ValueError):
        confusion([True], [True, False])
    with pytest.raises(ValueError):
        confusion([], [])


def test_confusion_matrix_rejects_negative_counts():
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, fn=0, fp=0, tn=1)


# ------------------------------------------------------------------- metrics


def test_metrics_perfect_classifier():
    report = metrics(ConfusionMatrix(tp=4, fn=0, fp=0, tn=9))
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.f_measure == 1.0
    assert report.accuracy == 1.0
    assert report.specificity == 1.0
    assert report.fitness == 0.0
    assert report.detection_rate == 100.0


def test_metrics_zero_denominator_conventions():
    # no positive predictions -> precision 0; no true positives -> recall 0
    report = metrics(ConfusionMatrix(tp=0, fn=3, fp=0, tn=7))
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f_measure == 0.0
    assert report.fitness == 1.0
    # no negatives at all -> specificity 1, fp_rate 0
    report2 = metrics(ConfusionMatrix(tp=5, fn=1, fp=0, tn=0))
    assert report2.specificity == 1.0
    assert report2.fp_rate == 0.0


def test_metrics_empty_matrix_rejected():
    with pytest.raises(ValueError):
        metrics(ConfusionMatrix(0, 0, 0, 0))


cms = st.tuples(
    st.integers(0, 30_000), st.integers(0, 30_000),
    st.integers(0, 30_000), st.integers(0, 30_000),
).filter(lambda t: sum(t) > 0).map(lambda t: ConfusionMatrix(*t))


@given(cm=cms)
def test_fitness_complements_f_measure(cm):
    report = metrics(cm)
    assert abs(report.fitness + report.f_measure - 1.0) <= 1e-12


@given(cm=cms)
def test_f_measure_harmonic_identity(cm):
    report = metrics(cm)
    p, r, f = report.precision, report.recall, report.f_measure
    assert abs(f * (p + r) - 2.0 * p * r) <= 1e-12


@given(cm=cms)
def test_accuracy_integer_identity(cm):
    report = metrics(cm)
    assert report.accuracy == (cm.tp + cm.tn) / cm.total


@given(cm=cms)
def test_detection_rate_identity(cm):
    report = metrics(cm)
    assert report.detection_rate == 100.0 - 100.0 * report.fp_rate - 100.0 * report.fn_rate


@given(cm=cms)
def test_rates_complement_their_sources(cm):
    report = metrics(cm)
    assert report.fp_rate == 1.0 - report.specificity
    assert report.fn_rate == 1.0 - report.recall


# ------------------------------------------------------------------- ranking


def individual(fitness, n_selected, first_gene_on=False):
    genes = [first_gene_on] + [True] * (n_selected - (1 if first_gene_on else 0))
    genes += [False] * (N_FEATURES - len(genes))
    mask = FeatureMask(tuple(genes[:N_FEATURES]))
    return EvaluatedIndividual(mask=mask, fitness=fitness,
                               selected_count=mask.selected_count)


def ranked(*individuals):
    return sorted(individuals, key=ranking_key)


def test_compare_fitness_dominates_feature_count():
    a = individual(0.1, 5)
    b = individual(0.2, 1)
    assert ranked(a, b) == [a, b]
    assert ranked(b, a) == [a, b]


def test_compare_ties_break_on_feature_count():
    a = individual(0.1, 3)
    b = individual(0.1, 7)
    assert ranked(b, a) == [a, b]


def test_compare_final_tie_breaks_on_gene_string():
    mask_a = FeatureMask.from_bits("0" + "1" + "0" * 39)
    mask_b = FeatureMask.from_bits("1" + "0" * 40)
    a = EvaluatedIndividual(mask=mask_a, fitness=0.5, selected_count=1)
    b = EvaluatedIndividual(mask=mask_b, fitness=0.5, selected_count=1)
    assert ranked(b, a) == [a, b]  # "01..." sorts before "10..."
    assert ranking_key(a) == ranking_key(a)


individuals = st.builds(
    lambda bits, fitness: EvaluatedIndividual(
        mask=FeatureMask(tuple(bits)),
        fitness=fitness,
        selected_count=sum(bits),
    ),
    bits=st.lists(st.booleans(), min_size=N_FEATURES, max_size=N_FEATURES),
    fitness=st.sampled_from([0.0, 0.25, 0.25, 0.5, 1.0]),  # repeats force ties
)


@settings(max_examples=200)
@given(a=individuals, b=individuals, c=individuals)
def test_compare_is_a_total_order(a, b, c):
    keys = [ranking_key(x) for x in ranked(a, b, c)]
    assert keys == sorted(keys)
    # every input order ranks to the same keys: no two individuals are incomparable
    assert [ranking_key(x) for x in ranked(c, b, a)] == keys
    assert [ranking_key(x) for x in ranked(b, c, a)] == keys
    # equal keys only for identical genes and fitness
    assert (ranking_key(a) == ranking_key(b)) == (
        a.fitness == b.fitness and a.mask.genes == b.mask.genes)


# ---------------------------------------------------------------- formatting


def test_pct_rounds_to_two_decimals():
    assert pct(0.951219) == "95.12%"
    assert pct(1.0) == "100.00%"


def test_table_row_layout():
    cm = ConfusionMatrix(39, 2, 15, 22488)
    report = metrics(cm)
    header = table_header()
    row = table_row(2, "pod", cm, report)
    for column in ("Features", "Attack", "TP", "Total", "F-Measure"):
        assert column in header
    for cell in ("2", "pod", "39", "22544", "82.11%", "95.12%", "72.22%"):
        assert cell in row
