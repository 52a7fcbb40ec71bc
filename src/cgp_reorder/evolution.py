"""(1 + 4) evolutionary strategy with optional genotype reordering.

Each iteration reorders the surviving parent (subject to the variant's
gate probability, ``p_reorder``), breeds four mutants, scores them, and
keeps the best mutant whenever it is at least as fit as the parent; the
equal-fitness replacement is what lets inactive genes drift.  Reordering
never changes the parent's phenotype, so its fitness carries over without
re-evaluation.

Only the first genome of a run is decoded and evaluated in full.  An active
set is one list: for every node, the genes that read it.  A reorder carries
the parent's set and evaluation vector over to the new positions.  A
mutant's set is derived from its parent's by moving the reads of the genes
the mutation changed, and its evaluation walks only the nodes whose value
that change can reach, from the readers its own set lists, starting from
its parent's vector.  The vector and the active set are run state: the
final genome a run returns carries neither.

Iterations-to-solution is the number of iterations run; a run that exhausts
its budget reports the budget itself as its iteration count.  Exactly four
fitness evaluations are spent per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .benchmarks import boolean_fitness, graph_params, mae_fitness
from .draws import DrawFeed
from .genome import Genotype, decode_active, random_genome
from .mutation import single_mutation
from .reorder import maybe_reorder

if TYPE_CHECKING:
    from .cli import Settings

OFFSPRING_PER_ITERATION = 4


@dataclass
class RunResult:
    seed: int
    converged: bool
    iterations: int
    evaluations: int
    final_train_fitness: float
    final_test_fitness: float | None
    active_count: int
    active_bitmap: str
    # sparse (iteration, best fitness so far) samples; monotone under elitism
    trace: list[tuple[int, float]]
    final_genome: Genotype | None = None
    # positions active at any point during the run (tracked on request only)
    union_active_bitmap: str | None = None


def run_rng(master_seed: int, seed: int) -> np.random.Generator:
    """Independent stream per (master seed, run seed) pair."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, seed)))


def select_parent(
    parent_fitness: float, offspring_fitnesses: list[float], maximize: bool
) -> int | None:
    """Index of the replacing offspring, or None to retain the parent.

    The best offspring wins ties among offspring by lowest index and
    replaces the parent when its fitness is equal or better.
    """
    best = offspring_fitnesses.index(
        max(offspring_fitnesses) if maximize else min(offspring_fitnesses)
    )
    fit = offspring_fitnesses[best]
    return best if (fit >= parent_fitness if maximize else fit <= parent_fitness) else None


def run_es(settings: Settings, bench, seed: int) -> RunResult:
    """Run one seed of the (1+4)-ES under finalized settings on a benchmark
    until convergence or budget.

    Every draw of the run comes from one :class:`DrawFeed` over the PCG64
    bit generator of ``run_rng(settings.master_seed, seed)``, which the feed
    leaves in the state that generator's own draws would have left it in.
    """
    draws = DrawFeed(run_rng(settings.master_seed, seed))

    maximize = bench.maximize
    if maximize:
        fitness = lambda g, a, p=None: boolean_fitness(g, bench, a, p)
        is_converged = lambda f: f >= settings.threshold
    else:
        fitness = lambda g, a, p=None: mae_fitness(g, bench.train, a, p)
        is_converged = lambda f: f < settings.threshold

    params = graph_params(bench, settings.nodes)
    parent = random_genome(params, draws)
    parent_active = decode_active(parent)
    parent_fitness = fitness(parent, parent_active)

    trace = [(0, parent_fitness)]
    union_active = parent_active.bitmap if settings.track_union_active else None

    converged = False
    iteration = 0
    while iteration < settings.max_iterations:
        iteration += 1

        reordered = maybe_reorder(
            parent, settings.variant, settings.p_reorder, draws, parent_active
        )
        if reordered is not parent:
            parent = reordered
            parent_active = reordered.active

        offspring = []
        offspring_active = []
        offspring_fitness = []
        for _ in range(OFFSPRING_PER_ITERATION):
            child = single_mutation(parent, parent_active, draws)
            child_active = decode_active(child, parent, parent_active)
            offspring.append(child)
            offspring_active.append(child_active)
            offspring_fitness.append(fitness(child, child_active, parent))

        choice = select_parent(parent_fitness, offspring_fitness, maximize)
        improved = False
        if choice is not None:
            improved = offspring_fitness[choice] != parent_fitness
            parent = offspring[choice]
            parent_active = offspring_active[choice]
            parent_fitness = offspring_fitness[choice]

        if union_active is not None:
            for i in parent_active.positions():
                union_active[i] = True

        if is_converged(parent_fitness):
            converged = True
            break
        if improved or settings.trace_full or iteration % 100 == 0:
            trace.append((iteration, parent_fitness))

    # the loop's sample at this iteration, if any, holds this fitness
    if trace[-1][0] != iteration:
        trace.append((iteration, parent_fitness))

    test_fitness = None
    if not maximize and bench.test is not None:
        test_fitness = mae_fitness(parent, bench.test, parent_active)
    # a kept vector, or a carried active set, would hold an entry per
    # position in every result, and workers would send those back
    parent.values = parent.active = None
    draws.flush()

    return RunResult(
        seed=seed,
        converged=converged,
        iterations=iteration,
        evaluations=OFFSPRING_PER_ITERATION * iteration,
        final_train_fitness=parent_fitness,
        final_test_fitness=test_fitness,
        active_count=parent_active.count,
        active_bitmap="".join("1" if r else "0" for r in parent_active.readers),
        trace=trace,
        final_genome=parent,
        union_active_bitmap=(
            "".join("1" if a else "0" for a in union_active)
            if union_active is not None
            else None
        ),
    )
