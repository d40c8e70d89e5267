"""Seeded genetic search over feature masks, scored by a wrapped decision tree.

Each candidate mask is evaluated by fitting a tree on the mask's training
columns and validating it on the test set projected through the mask;
fitness is ``1 - f_measure`` (lower is better, 0 is perfect). Survivor
selection is merge-and-truncate over parents plus children, so the best
individual can never get worse.

Random draws for selection, crossover and mutation are made sequentially
from one seeded stream before any evaluation is dispatched; evaluations are
pure and gathered by index, so enabling worker threads or the fitness memo
cannot change the outcome of a run.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import ConfusionMatrix, MetricsReport, confusion, metrics, ranking_key
from .nslkdd import N_FEATURES, BinaryLabeledDataset, FeatureMask, mask_columns, project
from .tree import TreeConfig, fit, predict_batch

Tracer = Callable[[int, "EvaluatedIndividual"], None]


@dataclass(frozen=True)
class GAConfig:
    seed: int
    criterion: str = "entropy"
    population_size: int = 100
    generations: int = 80
    mutation_rate: float = 0.024
    crossover_rate: float = 0.9
    tournament_size: int = 2
    early_stop_fitness: float = 0.0
    # restricts which genes may ever be on; None means every feature is a
    # candidate (used for reduced instances with most features frozen off)
    candidate_features: FeatureMask | None = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be a positive integer")
        for name in ("mutation_rate", "crossover_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        if self.tournament_size < 2:
            raise ValueError("tournament_size must be at least 2")
        if self.candidate_features is not None and self.candidate_features.selected_count == 0:
            raise ValueError("candidate_features must allow at least one gene")


@dataclass(frozen=True)
class EvaluatedIndividual:
    mask: FeatureMask
    fitness: float
    selected_count: int
    metrics: MetricsReport | None = None
    cm: ConfusionMatrix | None = None
    # the features the fitted tree splits on; None when no tree was fitted
    used_features: FeatureMask | None = None


@dataclass
class Population:
    individuals: list[EvaluatedIndividual]  # sorted, best first
    generation: int
    rng: np.random.Generator


@dataclass(frozen=True)
class GAResult:
    best: EvaluatedIndividual
    history: tuple[float, ...]  # best fitness at init and after each generation
    requested: int  # masks the search asked to evaluate
    exact_hits: int  # served by an evaluation of the same mask
    memo_hits: int  # served by the tree of a larger mask (FitnessMemo)
    fitted: int  # passed to compute_fitness


def compute_fitness(
    mask: FeatureMask,
    train: BinaryLabeledDataset,
    test: BinaryLabeledDataset,
    criterion: str = "entropy",
) -> EvaluatedIndividual:
    """Train on the mask's training columns, validate on the masked test set.

    The tree reads the training columns in place; only the test set is
    projected. The all-zero mask never reaches the classifier: it is
    assigned the worst possible fitness of 1.0 directly.
    """
    if mask.selected_count == 0:
        return EvaluatedIndividual(mask=mask, fitness=1.0, selected_count=0)
    tree = fit(train, TreeConfig(criterion=criterion), mask_columns(train, mask))
    projected_test = project(test, mask)
    predictions = predict_batch(tree, projected_test.features)
    cm = confusion(predictions, projected_test.targets)
    report = metrics(cm)
    used = np.unique(tree.feature[tree.feature >= 0])
    return EvaluatedIndividual(
        mask=mask,
        fitness=report.fitness,
        selected_count=mask.selected_count,
        metrics=report,
        cm=cm,
        used_features=FeatureMask.from_names([tree.feature_names[f] for f in used]),
    )


def _bits(mask: FeatureMask) -> int:
    return sum(1 << i for i, gene in enumerate(mask.genes) if gene)


class FitnessMemo:
    """Evaluations of one run, served to every mask known to grow the same tree.

    Say the tree fitted for mask M splits only on features U. Every mask X
    with U <= X <= M grows that tree too: dropping features that won no node
    leaves each node's first best split (lowest feature index, then lowest
    threshold) in place. So a non-empty X takes M's fitness, confusion and
    metrics without a fit, keeping its own mask and selected_count; X = M is
    an exact repeat. Masks are int bitmasks, entries are grouped by U.
    """

    def __init__(self) -> None:
        self._groups: dict[int, dict[int, EvaluatedIndividual]] = {}  # U -> M -> result
        self.exact_hits = 0
        self.memo_hits = 0

    def lookup(self, mask: FeatureMask) -> EvaluatedIndividual | None:
        x = _bits(mask)
        served = None
        for used, fitted in self._groups.items():
            if used & ~x:
                continue
            if x in fitted:
                self.exact_hits += 1
                return fitted[x]
            if served is None and x:  # only its own evaluation serves the empty mask
                served = next((r for m, r in fitted.items() if not x & ~m), None)
        if served is None:
            return None
        self.memo_hits += 1
        return dataclasses.replace(served, mask=mask, selected_count=mask.selected_count)

    def add(self, individual: EvaluatedIndividual) -> None:
        used = individual.used_features
        group = self._groups.setdefault(0 if used is None else _bits(used), {})
        group[_bits(individual.mask)] = individual


class _Evaluator:
    """Evaluates mask batches, optionally memoized and threaded.

    Results are returned in input order, and a batch is looked up only in the
    memo of earlier batches, before any evaluation is dispatched, so neither
    the memo nor the thread pool can perturb a run.
    """

    def __init__(
        self,
        train: BinaryLabeledDataset,
        test: BinaryLabeledDataset,
        criterion: str,
        memo: FitnessMemo | None,
        workers: int,
    ) -> None:
        self.train = train
        self.test = test
        self.criterion = criterion
        self.memo = memo
        self.workers = max(1, workers)

    def _evaluate_one(self, mask: FeatureMask) -> EvaluatedIndividual:
        return compute_fitness(mask, self.train, self.test, self.criterion)

    def __call__(self, masks: list[FeatureMask]) -> list[EvaluatedIndividual]:
        if self.memo is None:
            return self._evaluate_batch(masks)
        served = [self.memo.lookup(m) for m in masks]
        # dedupe while preserving order; repeated masks are common late in a run
        missing = list(dict.fromkeys(m for m, s in zip(masks, served) if s is None))
        fitted = dict(zip(missing, self._evaluate_batch(missing)))
        self.memo.exact_hits += sum(s is None for s in served) - len(missing)
        for individual in fitted.values():
            self.memo.add(individual)
        return [fitted[m] if s is None else s for m, s in zip(masks, served)]

    def _evaluate_batch(self, masks: list[FeatureMask]) -> list[EvaluatedIndividual]:
        if self.workers == 1 or len(masks) <= 1:
            return [self._evaluate_one(m) for m in masks]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(self._evaluate_one, masks))


def _random_mask(rng: np.random.Generator, candidates: FeatureMask | None) -> FeatureMask:
    allowed = candidates.as_array() if candidates is not None else None
    while True:
        genes = rng.random(N_FEATURES) < 0.5
        if allowed is not None:
            genes &= allowed
        if genes.any():
            return FeatureMask.from_array(genes)


def init_population(
    cfg: GAConfig,
    train: BinaryLabeledDataset,
    test: BinaryLabeledDataset,
    *,
    cache: FitnessMemo | None = None,
    workers: int = 1,
) -> Population:
    """Draw, evaluate and sort the seeded initial population.

    Genes start on with probability one half; an all-zero draw is redrawn, so
    generation zero never contains the degenerate mask.
    """
    rng = np.random.default_rng(cfg.seed)
    masks = [_random_mask(rng, cfg.candidate_features) for _ in range(cfg.population_size)]
    evaluator = _Evaluator(train, test, cfg.criterion, cache, workers)
    individuals = sorted(evaluator(masks), key=ranking_key)
    return Population(individuals=individuals, generation=0, rng=rng)


def select_parent(
    pop: Population, rng: np.random.Generator, tournament_size: int = 2
) -> FeatureMask:
    """Tournament selection: best of ``tournament_size`` uniform draws."""
    draws = rng.integers(0, len(pop.individuals), size=tournament_size)
    winner = min((pop.individuals[i] for i in draws), key=ranking_key)
    return winner.mask


def crossover(
    a: FeatureMask,
    b: FeatureMask,
    rng: np.random.Generator,
    crossover_rate: float = 0.9,
) -> tuple[FeatureMask, FeatureMask]:
    """Single-point crossover with the given per-pair probability.

    The cut is drawn from 1..40 so both parents always contribute; when the
    coin says no crossover, the children are copies of the parents.
    """
    if rng.random() >= crossover_rate:
        return a, b
    cut = int(rng.integers(1, N_FEATURES))
    child1 = FeatureMask(a.genes[:cut] + b.genes[cut:])
    child2 = FeatureMask(b.genes[:cut] + a.genes[cut:])
    return child1, child2


def mutate(
    m: FeatureMask, rng: np.random.Generator, mutation_rate: float
) -> FeatureMask:
    """Flip each gene independently with probability ``mutation_rate``."""
    flips = rng.random(N_FEATURES) < mutation_rate
    return FeatureMask.from_array(m.as_array() ^ flips)


def evolve(
    pop: Population,
    cfg: GAConfig,
    train: BinaryLabeledDataset,
    test: BinaryLabeledDataset,
    *,
    cache: FitnessMemo | None = None,
    workers: int = 1,
) -> Population:
    """One generation: breed population_size children, merge, sort, truncate."""
    rng = pop.rng
    child_masks: list[FeatureMask] = []
    while len(child_masks) < cfg.population_size:
        parent_a = select_parent(pop, rng, cfg.tournament_size)
        parent_b = select_parent(pop, rng, cfg.tournament_size)
        for child in crossover(parent_a, parent_b, rng, cfg.crossover_rate):
            child = mutate(child, rng, cfg.mutation_rate)
            if cfg.candidate_features is not None:
                child = child.constrain(cfg.candidate_features)
            child_masks.append(child)
    child_masks = child_masks[: cfg.population_size]
    evaluator = _Evaluator(train, test, cfg.criterion, cache, workers)
    children = evaluator(child_masks)
    merged = sorted(pop.individuals + children, key=ranking_key)
    return Population(
        individuals=merged[: cfg.population_size],
        generation=pop.generation + 1,
        rng=rng,
    )


def run(
    cfg: GAConfig,
    train: BinaryLabeledDataset,
    test: BinaryLabeledDataset,
    *,
    workers: int = 1,
    use_cache: bool = True,
    trace: Tracer | None = None,
) -> GAResult:
    """Full search: init, then evolve until the budget or the stop fitness.

    Returns the best individual of the final population (fitness, then fewest
    features, then gene order) and the best-fitness trajectory, one entry for
    the initial population plus one per completed generation.
    """
    memo = FitnessMemo() if use_cache else None
    pop = init_population(cfg, train, test, cache=memo, workers=workers)
    history = [pop.individuals[0].fitness]
    if trace is not None:
        trace(0, pop.individuals[0])
    while pop.individuals[0].fitness > cfg.early_stop_fitness and pop.generation < cfg.generations:
        pop = evolve(pop, cfg, train, test, cache=memo, workers=workers)
        history.append(pop.individuals[0].fitness)
        if trace is not None:
            trace(pop.generation, pop.individuals[0])
    requested = cfg.population_size * len(history)
    exact, served = (memo.exact_hits, memo.memo_hits) if memo is not None else (0, 0)
    return GAResult(pop.individuals[0], tuple(history), requested, exact, served,
                    requested - exact - served)
