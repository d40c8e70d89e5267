"""Seeded genetic search over feature masks, scored by a wrapped decision tree.

Each candidate mask is evaluated by fitting a tree on the mask's training
columns and validating it on the test set;
fitness is ``1 - f_measure`` (lower is better, 0 is perfect). Survivor
selection is merge-and-truncate over parents plus children, so the best
individual can never get worse.

Random draws for selection, crossover and mutation are made sequentially
from one seeded stream before a generation is evaluated, and evaluations
are pure, so the way a run evaluates cannot change its outcome. A run's
``FitnessMemo`` owns its evaluations: it holds the training and test sets,
the criterion and the run's split table, serves a mask only when earlier
fits prove that it grows the same tree, fits every other mask through the
table, and counts both.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import ConfusionMatrix, MetricsReport, confusion, metrics, ranking_key
# project is not called here, but the benchmark's tracer wraps gafs.ga.project
from .nslkdd import N_FEATURES, BinaryLabeledDataset, FeatureMask, project  # noqa: F401
from .tree import SplitTable, check_criterion, fit, predict_batch

Tracer = Callable[[int, "EvaluatedIndividual"], None]
Evaluator = Callable[[list[FeatureMask]], list["EvaluatedIndividual"]]


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
        for name in ("seed", "population_size", "generations", "tournament_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("mutation_rate", "crossover_rate", "early_stop_fitness"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        check_criterion(self.criterion)
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
        if not np.isfinite(self.early_stop_fitness):
            raise ValueError(f"early_stop_fitness must be finite, got {self.early_stop_fitness}")
        candidates = self.candidate_features
        if candidates is not None and not isinstance(candidates, FeatureMask):
            raise ValueError(f"candidate_features must be a FeatureMask or None, "
                             f"got {candidates!r}")
        if candidates is not None and candidates.selected_count == 0:
            raise ValueError("candidate_features must allow at least one gene")


@dataclass(frozen=True)
class EvaluatedIndividual:
    mask: FeatureMask
    fitness: float
    metrics: MetricsReport | None = None
    cm: ConfusionMatrix | None = None
    # the features the fitted tree splits on; None when no tree was fitted
    used_features: FeatureMask | None = None

    @property
    def selected_count(self) -> int:
        return self.mask.selected_count


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
    memo_hits: int  # served by the tree of other masks that grew it (FitnessMemo)
    fitted: int  # passed to compute_fitness
    split_hits: int  # (node, column) split searches served by the SplitTable

    def evaluation_line(self) -> str:
        """The evaluation counts in one line, for the console and run.log."""
        return (f"evaluations requested={self.requested} exact_hits={self.exact_hits} "
                f"memo_hits={self.memo_hits} fitted={self.fitted} split_hits={self.split_hits}")


def compute_fitness(
    mask: FeatureMask,
    train: BinaryLabeledDataset,
    test: BinaryLabeledDataset,
    criterion: str = "entropy",
    table: SplitTable | None = None,
) -> EvaluatedIndividual:
    """Train on the mask's training columns, validate on the test set.

    Both sets hold the 41 features, column j being feature j, so gene j of
    the mask, column j of either matrix and a tree ``feature`` of j are one
    feature. The tree reads the mask's training columns in place, through
    ``table`` (its own when None), and predicts on the test matrix in place:
    nothing is projected. ``used_features`` is the mask of the columns the
    tree splits on. The all-zero mask never reaches the classifier: it is
    assigned the worst possible fitness of 1.0 directly.
    """
    if np.shape(train.features)[1:] != (N_FEATURES,):
        raise ValueError(f"the training set must hold the {N_FEATURES} feature columns, "
                         f"got shape {np.shape(train.features)}")
    if mask.selected_count == 0:
        return EvaluatedIndividual(mask=mask, fitness=1.0)
    tree = fit(train, criterion, list(mask.indices()), table)
    predictions = predict_batch(tree, test.features)
    cm = confusion(predictions, test.targets)
    report = metrics(cm)
    # not np.unique, which imports numpy.ma (about 13 ms) on a process's first call
    used = np.flatnonzero(np.bincount(tree.feature[tree.feature >= 0]))
    return EvaluatedIndividual(
        mask=mask,
        fitness=report.fitness,
        metrics=report,
        cm=cm,
        used_features=FeatureMask.from_indices(used.tolist()),
    )


class FitnessMemo:
    """The evaluations of one run: each mask is served or fitted, and counted.

    Say the trees fitted for masks M1, M2, ... split only on features U. Each
    is the tree of U: at every node, each column of each Mi lost to the split
    (a lower gain, or an equal gain and a higher index), and at every impure
    leaf none had a candidate. Both hold per column on the node's rows, which
    its path fixes, so every non-empty X with U <= X <= M1 | M2 | ... grows
    that tree too and takes its fitness, confusion and metrics without a fit,
    keeping its own mask. At most one group serves X: a tree has one used
    set. Each fitted mask also keeps its own evaluation, which alone serves
    the empty mask and counts repeats as exact hits. Masks are int bitmasks.
    Every fit grows through the memo's ``table``, which lives as long as it.
    """

    def __init__(self, train: BinaryLabeledDataset, test: BinaryLabeledDataset,
                 criterion: str) -> None:
        self.train, self.test, self.criterion = train, test, criterion
        self.table = SplitTable(train, criterion)
        self._exact: dict[int, EvaluatedIndividual] = {}  # fitted mask -> result
        self._groups: dict[int, tuple[int, EvaluatedIndividual]] = {}  # U -> (union, result)
        self.exact_hits = 0
        self.memo_hits = 0
        self.fitted = 0

    def lookup(self, mask: FeatureMask) -> EvaluatedIndividual | None:
        x = mask.bitmask
        if x in self._exact:
            self.exact_hits += 1
            return self._exact[x]
        if x:  # only its own evaluation serves the empty mask
            for used, (union, served) in self._groups.items():
                if not used & ~x and not x & ~union:
                    self.memo_hits += 1
                    return dataclasses.replace(served, mask=mask)
        return None

    def add(self, individual: EvaluatedIndividual) -> None:
        x = individual.mask.bitmask
        self._exact[x] = individual
        if x:  # the empty mask has no tree
            used = individual.used_features.bitmask
            union, served = self._groups.get(used, (0, individual))
            self._groups[used] = (union | x, served)

    def evaluate(self, masks: list[FeatureMask]) -> list[EvaluatedIndividual]:
        """Evaluate a batch of masks one at a time, in input order.

        Each mask is looked up first, so it can be served by any mask
        evaluated before it, earlier in the same batch included; a miss is
        fitted through the table and added.
        """
        results = []
        for mask in masks:
            individual = self.lookup(mask)
            if individual is None:
                individual = compute_fitness(mask, self.train, self.test, self.criterion,
                                             self.table)
                self.fitted += 1
                self.add(individual)
            results.append(individual)
        return results


def _random_mask(rng: np.random.Generator, candidates: FeatureMask | None) -> FeatureMask:
    allowed = candidates.as_array() if candidates is not None else None
    while True:
        genes = rng.random(N_FEATURES) < 0.5
        if allowed is not None:
            genes &= allowed
        if genes.any():
            return FeatureMask.from_array(genes)


def init_population(cfg: GAConfig, evaluate: Evaluator) -> Population:
    """Draw, evaluate and sort the seeded initial population.

    Genes start on with probability one half; an all-zero draw is redrawn, so
    generation zero never contains the degenerate mask.
    """
    rng = np.random.default_rng(cfg.seed)
    masks = [_random_mask(rng, cfg.candidate_features) for _ in range(cfg.population_size)]
    individuals = sorted(evaluate(masks), key=ranking_key)
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


def evolve(pop: Population, cfg: GAConfig, evaluate: Evaluator) -> Population:
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
    children = evaluate(child_masks)
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
    use_cache: bool = True,
    trace: Tracer | None = None,
) -> GAResult:
    """Full search: init, then evolve until the budget or the stop fitness.

    Returns the best individual of the final population (fitness, then fewest
    features, then gene order) and the best-fitness trajectory, one entry for
    the initial population plus one per completed generation. With
    ``use_cache`` a ``FitnessMemo`` evaluates the run's masks and counts them.
    Without it every mask is fitted through a split table of its own, so
    nothing is shared between evaluations.
    """
    if use_cache:
        memo = FitnessMemo(train, test, cfg.criterion)
        evaluate = memo.evaluate
    else:
        def evaluate(masks):
            return [compute_fitness(mask, train, test, cfg.criterion) for mask in masks]
    pop = init_population(cfg, evaluate)
    history = [pop.individuals[0].fitness]
    if trace is not None:
        trace(0, pop.individuals[0])
    while pop.individuals[0].fitness > cfg.early_stop_fitness and pop.generation < cfg.generations:
        pop = evolve(pop, cfg, evaluate)
        history.append(pop.individuals[0].fitness)
        if trace is not None:
            trace(pop.generation, pop.individuals[0])
    requested = cfg.population_size * len(history)
    counts = ((memo.exact_hits, memo.memo_hits, memo.fitted, memo.table.hits) if use_cache
              else (0, 0, requested, 0))
    return GAResult(pop.individuals[0], tuple(history), requested, *counts)
