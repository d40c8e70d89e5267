import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gafs import ga
from gafs.ga import (
    EvaluatedIndividual,
    FitnessMemo,
    GAConfig,
    Population,
    compute_fitness,
    crossover,
    evolve,
    init_population,
    mutate,
    run,
    select_parent,
)
from gafs.metrics import ranking_key
from gafs.nslkdd import N_FEATURES, FeatureMask

from conftest import tiny_binary41
from oracles import SubsetMemo


class FakeRng:
    """Scripted stand-in for a numpy Generator (random() and integers())."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self, size=None):
        value = self._randoms.pop(0)
        if size is None:
            return value
        return np.asarray(value)

    def integers(self, low, high=None, size=None):
        value = self._integers.pop(0)
        if size is None:
            return value
        return np.asarray(value)


@pytest.fixture(scope="module")
def tiny_sets():
    return tiny_binary41(n=90, seed=5, noise=0.1), tiny_binary41(n=60, seed=6, noise=0.1)


# -------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        GAConfig(seed=0, population_size=1)
    with pytest.raises(ValueError):
        GAConfig(seed=0, mutation_rate=1.5)
    with pytest.raises(ValueError):
        GAConfig(seed=0, crossover_rate=-0.1)
    with pytest.raises(ValueError):
        GAConfig(seed=0, tournament_size=1)
    with pytest.raises(ValueError):
        GAConfig(seed=0, generations=0)
    with pytest.raises(ValueError):
        GAConfig(seed=0, candidate_features=FeatureMask((False,) * N_FEATURES))
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        GAConfig(seed=-1)


@pytest.mark.parametrize("name", ["seed", "population_size", "generations", "tournament_size"])
@pytest.mark.parametrize("value", [2.5, 4.0, "3", None, True, np.int64(4)])
def test_config_integer_fields_take_only_ints(name, value):
    # 2.5 generations would run 3 and echo 2.5; 4.0 would fail later, in range()
    with pytest.raises(ValueError) as err:
        GAConfig(**{"seed": 1, name: value})
    assert str(err.value) == f"{name} must be an integer, got {value!r}"


def test_benchmark_defaults():
    cfg = GAConfig(seed=1)
    assert cfg.population_size == 100
    assert cfg.generations == 80
    assert cfg.mutation_rate == 0.024
    assert cfg.criterion == "entropy"


# ----------------------------------------------------------- compute_fitness


def test_all_zero_mask_short_circuits(tiny_sets):
    train, test = tiny_sets
    out = compute_fitness(FeatureMask((False,) * N_FEATURES), train, test)
    assert out.fitness == 1.0
    assert out.selected_count == 0
    assert out.metrics is None and out.cm is None


def test_fitness_complements_f_measure(tiny_sets):
    train, test = tiny_sets
    mask = FeatureMask.from_indices([0, 4, 22])
    out = compute_fitness(mask, train, test, "entropy")
    assert out.fitness == 1.0 - out.metrics.f_measure
    assert out.selected_count == 3
    assert out.cm.total == len(test)


def test_separable_target_reaches_zero_fitness(synth_flood):
    train, test = synth_flood
    out = compute_fitness(FeatureMask.from_names(["wrong_fragment"]), train, test)
    assert out.fitness == 0.0
    assert out.metrics.f_measure == 1.0


def test_compute_fitness_does_not_import_numpy_ma():
    # numpy 2 imports numpy.ma lazily, on np.unique's first call: about 13 ms in
    # every fresh process; numpy 1.x imports it with numpy, so there is no call to check
    script = "\n".join([
        "import sys",
        "from conftest import tiny_binary41",
        "from gafs.ga import compute_fitness",
        "from gafs.nslkdd import FeatureMask",
        "train, test = tiny_binary41(n=90, seed=5), tiny_binary41(n=60, seed=6)",
        "if 'numpy.ma' in sys.modules:",
        "    print('preloaded')",
        "    sys.exit()",
        "out = compute_fitness(FeatureMask.from_indices([0, 4, 22]), train, test)",
        "assert out.used_features.selected_count > 0, out.used_features",
        "assert 'numpy.ma' not in sys.modules",
    ])
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    if run.stdout.strip() == "preloaded":
        pytest.skip("this numpy imports numpy.ma with numpy itself")


# ----------------------------------------------------------- init_population


def evaluator(cfg, train, test):
    """A fresh memo's ``evaluate``: what ``run`` hands init_population and evolve."""
    return FitnessMemo(train, test, cfg.criterion).evaluate


def test_init_population_is_seeded_and_sorted(tiny_sets):
    train, test = tiny_sets
    cfg = GAConfig(seed=42, population_size=12, generations=3)
    a = init_population(cfg, evaluator(cfg, train, test))
    b = init_population(cfg, evaluator(cfg, train, test))
    assert [i.mask.genes for i in a.individuals] == [i.mask.genes for i in b.individuals]
    assert a.individuals == sorted(a.individuals, key=ranking_key)
    assert a.generation == 0


def test_init_population_size_and_no_empty_masks(tiny_sets):
    train, test = tiny_sets
    cfg = GAConfig(seed=7, population_size=30, generations=3)
    pop = init_population(cfg, evaluator(cfg, train, test))
    assert len(pop.individuals) == 30
    assert all(ind.selected_count >= 1 for ind in pop.individuals)


def test_init_population_respects_candidates(tiny_sets):
    train, test = tiny_sets
    candidates = FeatureMask.from_indices(range(8))
    cfg = GAConfig(seed=3, population_size=20, generations=3,
                   candidate_features=candidates)
    pop = init_population(cfg, evaluator(cfg, train, test))
    allowed = set(candidates.indices())
    for ind in pop.individuals:
        assert set(ind.mask.indices()) <= allowed
        assert ind.selected_count >= 1


# ------------------------------------------------------------- select_parent


def test_select_parent_identical_population(tiny_sets):
    train, test = tiny_sets
    mask = FeatureMask.from_indices([0, 1])
    ind = compute_fitness(mask, train, test)
    pop = Population([ind] * 5, 0, np.random.default_rng(0))
    assert select_parent(pop, pop.rng, 3) == mask


def test_select_parent_prefers_better_individual():
    best = EvaluatedIndividual(FeatureMask.from_indices([0]), 0.1, 1)
    worst = EvaluatedIndividual(FeatureMask.from_indices([1]), 0.9, 1)
    pop = Population([best, worst], 0, np.random.default_rng(123))
    wins = sum(
        select_parent(pop, pop.rng, 2) == best.mask for _ in range(20_000)
    )
    # P(best drawn at least once in two uniform draws with replacement) = 3/4
    assert wins / 20_000 == pytest.approx(0.75, abs=0.01)


# ----------------------------------------------------------------- crossover


def test_crossover_rate_zero_copies_parents():
    a = FeatureMask.from_indices(range(10))
    b = FeatureMask.from_indices(range(30, 41))
    out = crossover(a, b, FakeRng(randoms=[0.5]), crossover_rate=0.0)
    assert out == (a, b)


def test_crossover_cut_ten_counts():
    ones = FeatureMask((True,) * N_FEATURES)
    zeros = FeatureMask((False,) * N_FEATURES)
    rng = FakeRng(randoms=[0.0], integers=[10])
    c1, c2 = crossover(ones, zeros, rng, crossover_rate=0.9)
    assert c1.selected_count == 10  # head of all-ones, tail of all-zeros
    assert c2.selected_count == 31


def test_crossover_identical_parents_any_cut():
    parent = FeatureMask.from_indices([1, 5, 9])
    for cut in (1, 20, 40):
        rng = FakeRng(randoms=[0.0], integers=[cut])
        assert crossover(parent, parent, rng, 1.0) == (parent, parent)


def test_crossover_children_recombine_head_and_tail():
    a = FeatureMask.from_indices(range(0, 41, 2))
    b = FeatureMask.from_indices(range(1, 41, 2))
    rng = FakeRng(randoms=[0.0], integers=[17])
    c1, c2 = crossover(a, b, rng, 1.0)
    assert c1.genes[:17] == a.genes[:17] and c1.genes[17:] == b.genes[17:]
    assert c2.genes[:17] == b.genes[:17] and c2.genes[17:] == a.genes[17:]


# -------------------------------------------------------------------- mutate


def test_mutate_rate_zero_is_identity():
    mask = FeatureMask.from_indices([3, 7])
    rng = np.random.default_rng(0)
    assert mutate(mask, rng, 0.0) == mask


def test_mutate_rate_one_is_complement():
    mask = FeatureMask.from_indices([3, 7])
    rng = np.random.default_rng(0)
    out = mutate(mask, rng, 1.0)
    assert out.genes == tuple(not g for g in mask.genes)


def test_mutate_mean_flip_count_matches_binomial():
    rng = np.random.default_rng(99)
    mask = FeatureMask((False,) * N_FEATURES)
    trials = 4000
    rate = 0.024
    flips = [mutate(mask, rng, rate).selected_count for _ in range(trials)]
    expected = N_FEATURES * rate  # 0.984
    se = (N_FEATURES * rate * (1 - rate) / trials) ** 0.5
    assert abs(np.mean(flips) - expected) <= 3 * se


def test_mask_length_survives_all_operators(tiny_sets):
    rng = np.random.default_rng(17)
    a = FeatureMask.from_array(rng.random(N_FEATURES) < 0.5)
    b = FeatureMask.from_array(rng.random(N_FEATURES) < 0.5)
    for _ in range(50):
        c1, c2 = crossover(a, b, rng, 0.9)
        a = mutate(c1, rng, 0.1)
        b = mutate(c2, rng, 0.1)
        assert len(a.genes) == N_FEATURES
        assert len(b.genes) == N_FEATURES


# -------------------------------------------------------------------- evolve


def test_evolve_keeps_size_and_never_worsens_best(tiny_sets):
    train, test = tiny_sets
    cfg = GAConfig(seed=11, population_size=14, generations=5)
    evaluate = evaluator(cfg, train, test)
    pop = init_population(cfg, evaluate)
    for _ in range(4):
        best_before = pop.individuals[0].fitness
        pop = evolve(pop, cfg, evaluate)
        assert len(pop.individuals) == 14
        assert pop.individuals[0].fitness <= best_before
    assert pop.generation == 4


def test_evolve_is_deterministic(tiny_sets):
    train, test = tiny_sets
    cfg = GAConfig(seed=21, population_size=10, generations=3)
    runs = []
    for _ in range(2):
        evaluate = evaluator(cfg, train, test)
        runs.append(evolve(init_population(cfg, evaluate), cfg, evaluate))
    a, b = runs
    assert [i.mask.genes for i in a.individuals] == [i.mask.genes for i in b.individuals]


def test_evolved_individuals_obey_zero_mask_penalty_rule(tiny_sets):
    train, test = tiny_sets
    cfg = GAConfig(seed=2, population_size=10, generations=4, mutation_rate=0.4)
    evaluate = evaluator(cfg, train, test)
    pop = init_population(cfg, evaluate)
    for _ in range(3):
        pop = evolve(pop, cfg, evaluate)
        for ind in pop.individuals:
            assert ind.selected_count >= 1 or ind.fitness == 1.0


# ----------------------------------------------------------------------- run


def test_run_is_bit_exact_per_seed(tiny_sets):
    train, test = tiny_sets
    cfg = GAConfig(seed=5, population_size=10, generations=4,
                   early_stop_fitness=-1.0)
    a = run(cfg, train, test)
    b = run(cfg, train, test)
    assert a.best.mask == b.best.mask
    assert a.history == b.history


def test_run_cache_does_not_change_results(tiny_sets):
    train, test = tiny_sets
    cfg = GAConfig(seed=9, population_size=12, generations=4,
                   early_stop_fitness=-1.0)
    assert_same_run(run(cfg, train, test, use_cache=True),
                    run(cfg, train, test, use_cache=False))


def test_run_history_is_monotone_and_bounded(tiny_sets):
    train, test = tiny_sets
    for seed in range(6):
        cfg = GAConfig(seed=seed, population_size=8, generations=5,
                       early_stop_fitness=-1.0)
        result = run(cfg, train, test)
        assert len(result.history) <= cfg.generations + 1
        assert all(b <= a + 1e-15 for a, b in zip(result.history, result.history[1:]))


def test_run_single_generation_history(tiny_sets):
    train, test = tiny_sets
    cfg = GAConfig(seed=1, population_size=6, generations=1,
                   early_stop_fitness=-1.0)
    result = run(cfg, train, test)
    assert len(result.history) <= 2


def test_run_early_stop_on_separable_target(synth_flood):
    train, test = synth_flood
    cfg = GAConfig(seed=13, population_size=12, generations=10)
    result = run(cfg, train, test)
    assert result.best.fitness == 0.0
    # early stop fired: history is shorter than the full budget
    assert len(result.history) < cfg.generations + 1


def test_run_trace_sees_every_generation(tiny_sets):
    train, test = tiny_sets
    seen = []
    cfg = GAConfig(seed=4, population_size=6, generations=3,
                   early_stop_fitness=-1.0)
    run(cfg, train, test, trace=lambda gen, best: seen.append(gen))
    assert seen == [0, 1, 2, 3]


def test_run_respects_candidate_features(tiny_sets):
    train, test = tiny_sets
    candidates = FeatureMask.from_indices([0, 4, 5, 22, 23])
    cfg = GAConfig(seed=8, population_size=10, generations=4,
                   candidate_features=candidates, early_stop_fitness=-1.0)
    result = run(cfg, train, test)
    assert set(result.best.mask.indices()) <= set(candidates.indices())


# ------------------------------------------------------- used-feature memo

RESULT_FIELDS = ("mask", "fitness", "selected_count", "cm", "metrics")


def assert_same_run(a, b):
    assert a.history == b.history
    for name in RESULT_FIELDS:
        assert getattr(a.best, name) == getattr(b.best, name), name


@pytest.mark.parametrize("criterion", ["entropy", "gini"])
@pytest.mark.parametrize("target", ["flood", "burst"])
def test_memo_matches_uncached_runs_with_fewer_fits(request, monkeypatch, target, criterion):
    train, test = request.getfixturevalue(f"synth_{target}")
    fits = []
    real = ga.fit
    monkeypatch.setattr(ga, "fit", lambda *args: fits.append(args) or real(*args))
    for seed in (1, 2, 3):
        cfg = GAConfig(seed=seed, criterion=criterion, population_size=10, generations=6,
                       early_stop_fitness=-1.0)
        fits.clear()
        uncached = run(cfg, train, test, use_cache=False)
        uncached_fits = len(fits)
        fits.clear()
        memo = run(cfg, train, test, use_cache=True)
        memo_fits = len(fits)
        assert_same_run(memo, uncached)
        assert memo.requested == uncached.requested == uncached.fitted == uncached_fits
        assert memo.requested == memo.exact_hits + memo.memo_hits + memo.fitted
        assert memo.memo_hits > 0 and memo_fits == memo.fitted < uncached_fits
        assert memo.split_hits > 0 and uncached.split_hits == 0


def test_memo_serves_leaf_trees_but_never_the_empty_mask(tiny_sets):
    train, test = tiny_sets
    empty = FeatureMask((False,) * N_FEATURES)
    constant = FeatureMask.from_indices([1, 2, 3])  # constant columns: the root is a leaf
    leaf = compute_fitness(constant, train, test)
    assert leaf.used_features == empty and leaf.cm is not None
    memo = FitnessMemo(train, test, "entropy")
    memo.add(leaf)
    assert memo.lookup(empty) is None
    smaller = FeatureMask.from_indices([2])
    served = memo.lookup(smaller)
    assert served == compute_fitness(smaller, train, test)
    assert (served.mask, served.selected_count) == (smaller, 1)
    assert (memo.exact_hits, memo.memo_hits) == (0, 1)
    # through a run: constant candidates with heavy mutation breed empty children
    cfg = GAConfig(seed=1, population_size=4, generations=6, mutation_rate=0.5,
                   candidate_features=FeatureMask.from_indices([1, 2, 3, 6]),
                   early_stop_fitness=-1.0)
    with_memo = run(cfg, train, test, use_cache=True)
    assert_same_run(with_memo, run(cfg, train, test, use_cache=False))
    assert with_memo.memo_hits > 0
    best = with_memo.best  # every mask scores 1.0, so the fewest genes win
    assert (best.selected_count, best.fitness, best.cm, best.used_features) == (0, 1.0, None, None)


SERVED_FIELDS = ("fitness", "cm", "metrics", "used_features", "mask", "selected_count")


def assert_same_evaluation(served, fresh):
    for name in SERVED_FIELDS:
        assert getattr(served, name) == getattr(fresh, name), name


@pytest.mark.parametrize("sets, a, b, x, outside", [
    # tiny_sets: columns 1-3 and 6 are constant, so they never win a node
    ("tiny_sets", [0, 1, 2, 5], [0, 3, 5, 6], [0, 2, 3, 5], 9),
    # synth_flood: column 7 separates the target, every other column loses
    ("synth_flood", [0, 1, 7], [7, 22, 23], [1, 7, 22], 28),
], ids=["tiny_sets", "synth_flood"])
def test_memo_serves_masks_between_a_group_and_its_union(request, monkeypatch, sets, a, b, x,
                                                          outside):
    train, test = request.getfixturevalue(sets)
    a, b, x = (FeatureMask.from_indices(m) for m in (a, b, x))
    fitted_a, fitted_b = (compute_fitness(m, train, test) for m in (a, b))
    used = fitted_a.used_features
    assert used == fitted_b.used_features  # one group
    assert used.bitmask & ~x.bitmask == 0 and x.bitmask & ~(a.bitmask | b.bitmask) == 0
    assert x.bitmask & ~a.bitmask and x.bitmask & ~b.bitmask  # in neither mask alone
    memo = FitnessMemo(train, test, "entropy")
    memo.add(fitted_a)
    memo.add(fitted_b)
    fits = []
    real = ga.fit
    monkeypatch.setattr(ga, "fit", lambda *args: fits.append(args) or real(*args))
    [served] = memo.evaluate([x])
    assert fits == [] and (memo.exact_hits, memo.memo_hits) == (0, 1)
    assert_same_evaluation(served, compute_fitness(x, train, test))
    beyond = FeatureMask.from_indices(x.indices() + (outside,))
    assert memo.lookup(beyond) is None  # one column outside a | b


def test_memo_counts_a_repeat_of_a_smaller_fitted_mask_as_exact(tiny_sets):
    train, test = tiny_sets
    small = FeatureMask.from_indices([0, 5])
    large = FeatureMask.from_indices([0, 1, 2, 5])
    fitted_small, fitted_large = (compute_fitness(m, train, test) for m in (small, large))
    assert fitted_small.used_features == fitted_large.used_features  # one group
    memo = FitnessMemo(train, test, "entropy")
    memo.add(fitted_small)
    memo.add(fitted_large)
    assert memo.lookup(small) is fitted_small
    assert memo.lookup(large) is fitted_large
    assert (memo.exact_hits, memo.memo_hits) == (2, 0)


def test_memo_keeps_the_empty_mask_apart_from_leaf_trees(tiny_sets):
    train, test = tiny_sets
    # the empty mask shares its group with leaf trees but is never merged into them
    empty = compute_fitness(FeatureMask((False,) * N_FEATURES), train, test)
    leaf = compute_fitness(FeatureMask.from_indices([1, 2, 3]), train, test)
    for order in ((empty, leaf), (leaf, empty)):
        memo = FitnessMemo(train, test, "entropy")
        for individual in order:
            memo.add(individual)
        assert memo.lookup(empty.mask) is empty and memo.lookup(leaf.mask) is leaf


def _mask_sequence(rng, length):
    """Random masks, mutations and crossovers of earlier ones, and empty masks."""
    masks = []
    while len(masks) < length:
        draw = rng.random()
        if len(masks) < 8 or draw < 0.1:
            mask = FeatureMask.from_array(rng.random(N_FEATURES) < 0.25)
        elif draw < 0.15:
            mask = FeatureMask((False,) * N_FEATURES)
        elif draw < 0.6:
            mask = mutate(masks[rng.integers(len(masks))], rng, 0.05)
        else:
            first, second = (masks[i] for i in rng.integers(len(masks), size=2))
            mask = crossover(first, second, rng, 1.0)[int(rng.integers(2))]
        masks.append(mask)
    return masks


@pytest.mark.parametrize("criterion", ["entropy", "gini"])
@pytest.mark.parametrize("target", ["flood", "burst"])
def test_memo_serves_all_the_subset_oracle_serves(request, target, criterion):
    train, test = request.getfixturevalue(f"synth_{target}")
    fresh = {}
    memo, oracle = FitnessMemo(train, test, criterion), SubsetMemo()
    fits = {"memo": 0, "oracle": 0}
    for mask in _mask_sequence(np.random.default_rng(13), 160):
        if mask.bitmask not in fresh:
            fresh[mask.bitmask] = compute_fitness(mask, train, test, criterion)
        expected = fresh[mask.bitmask]
        from_oracle = oracle.lookup(mask)
        served = memo.lookup(mask)
        if from_oracle is not None:
            assert served is not None
            assert_same_evaluation(from_oracle, expected)
        if served is None:
            memo.add(expected)
            fits["memo"] += 1
        else:
            assert_same_evaluation(served, expected)
        if from_oracle is None:
            oracle.add(expected)
            fits["oracle"] += 1
        assert fits["memo"] <= fits["oracle"]
    assert fits["memo"] < fits["oracle"]


def test_memo_serves_a_mask_fitted_earlier_in_the_same_batch(tiny_sets, monkeypatch):
    train, test = tiny_sets
    large = FeatureMask.from_indices([0, 1, 2, 5])
    between = FeatureMask.from_indices([0, 1, 5])
    used = compute_fitness(large, train, test).used_features
    assert set(used.indices()) < set(between.indices()) < set(large.indices())
    fits = []
    real = ga.fit
    monkeypatch.setattr(ga, "fit", lambda *args: fits.append(args) or real(*args))
    memo = FitnessMemo(train, test, "entropy")
    _, served = memo.evaluate([large, between])
    assert len(fits) == 1 and (memo.exact_hits, memo.memo_hits, memo.fitted) == (0, 1, 1)
    expected = compute_fitness(between, train, test)
    for name in ("mask", "selected_count", "fitness", "cm", "metrics"):
        assert getattr(served, name) == getattr(expected, name), name


def test_memo_fits_each_miss_through_the_module_compute_fitness(synth_burst, monkeypatch):
    # a tracer counts and times fits by replacing gafs.ga.compute_fitness
    train, test = synth_burst
    calls = []
    real = ga.compute_fitness
    monkeypatch.setattr(ga, "compute_fitness", lambda *args: calls.append(args) or real(*args))
    memo = FitnessMemo(train, test, "gini")
    masks = _mask_sequence(np.random.default_rng(5), 40)
    assert [individual.mask for individual in memo.evaluate(masks)] == masks
    assert len(calls) == memo.fitted < len(masks)
    assert memo.exact_hits + memo.memo_hits + memo.fitted == len(masks)
    assert all(args[3:] == ("gini", memo.table) for args in calls)
    calls.clear()
    result = run(GAConfig(seed=2, population_size=8, generations=3, early_stop_fitness=-1.0),
                 train, test)
    assert len(calls) == result.fitted < result.requested


def test_mask_bitmask_sets_bit_i_for_gene_i():
    assert FeatureMask.from_indices([]).bitmask == 0
    assert FeatureMask.from_indices([0, 3, 40]).bitmask == (1 << 0) | (1 << 3) | (1 << 40)
    assert FeatureMask.all_on().bitmask == (1 << N_FEATURES) - 1


def test_memo_lives_for_one_run(synth_flood, synth_burst):
    cfg = GAConfig(seed=3, population_size=10, generations=4, early_stop_fitness=-1.0)
    first = run(cfg, *synth_burst)
    run(cfg, *synth_flood)  # the same seed asks for the same first masks
    again = run(cfg, *synth_burst)
    assert_same_run(again, run(cfg, *synth_burst, use_cache=False))
    assert (again.exact_hits, again.memo_hits, again.fitted, again.split_hits) == \
        (first.exact_hits, first.memo_hits, first.fitted, first.split_hits)
    assert first.split_hits > 0
    gini = dataclasses.replace(cfg, criterion="gini")
    assert_same_run(run(gini, *synth_burst), run(gini, *synth_burst, use_cache=False))
