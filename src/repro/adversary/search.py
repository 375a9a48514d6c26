"""The evolutionary selection loop: mutate → evaluate → select.

A (μ+λ)-style search over attack genomes, seeded end to end: the
population, every mutation, every crossover, and every evaluation is
a pure function of ``(config, seed)``, and fitness values are
memoized by genome digest (one genome is never evaluated twice).  The
population is seeded with :func:`baseline_genome` — the hand-tuned
:meth:`~repro.serve.chaos.ChaosSchedule.generate` schedule re-encoded
as genes — so "did evolution beat the baseline" is a single fitness
comparison, which is E23's headline gate.
"""

from __future__ import annotations

import dataclasses

from repro.adversary.evaluate import EvalConfig, Evaluation, evaluate
from repro.adversary.genome import FaultGene, Genome, random_genome
from repro.adversary.operators import crossover, mutate
from repro.errors import ParameterError
from repro.faults import FaultConfig
from repro.serve.chaos import ChaosSchedule
from repro.serve.service import build_service
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_integer

#: Baseline arrival rate — the E21 experiment's hand-tuned choice.
BASELINE_RATE = 64.0


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """Everything one search run produced, ready for tables/fixtures."""

    best_genome: Genome
    best: Evaluation
    baseline_genome: Genome
    baseline: Evaluation
    #: One ``{generation, best_fitness, mean_fitness}`` row per generation.
    history: list
    #: Distinct genomes actually evaluated (memoization hits excluded).
    evaluations: int

    @property
    def beat_baseline(self) -> bool:
        """True when evolution strictly out-scored the hand-tuned schedule."""
        return self.best.fitness > self.baseline.fitness


def _instance_geometry(config: EvalConfig, seed) -> tuple:
    """The evaluation target's ``(universe_size, inner_cells)``."""
    # Imported lazily: repro.experiments.e23_adversary imports this
    # package, so a module-level import would be circular.
    from repro.experiments.common import make_instance

    keys, N = make_instance(config.n, int(seed))
    service = build_service(
        keys, N, num_shards=1, replicas=config.replicas, router="random",
        faults=FaultConfig(armed=True), seed=int(seed) + 1,
    )
    return N, service.shards[0].inner_cells


def baseline_genome(config: EvalConfig, seed) -> Genome:
    """The hand-tuned chaos baseline, re-encoded as a genome.

    Runs :meth:`ChaosSchedule.generate` with E21's defaults (one
    crash, one corruption, one stuck-cell burst, one spike at rate
    :data:`BASELINE_RATE`) and converts each event back into a
    :class:`~repro.adversary.genome.FaultGene` at the equivalent
    horizon fraction — so the baseline occupies the exact genome
    search space and its fitness is directly comparable.
    """
    horizon = config.requests / BASELINE_RATE
    _, inner_cells = _instance_geometry(config, seed)
    # Fit the fault mix inside generate's own honest-majority budget.
    budget = (config.replicas - 1) // 2
    schedule = ChaosSchedule.generate(
        int(seed), horizon, config.replicas, inner_cells,
        crashes=min(1, budget),
        corruptions=1 if budget >= 2 else 0,
        stuck=1 if budget >= 3 else 0,
    )
    genes: list[FaultGene] = []
    spike_start = None
    for event in schedule.events:
        frac = float(event.time) / horizon
        if event.kind == "spike-start":
            spike_start = frac
            continue
        if event.kind == "spike-end":
            start = 0.0 if spike_start is None else spike_start
            genes.append(FaultGene(
                frac=start, kind="spike",
                span=max(frac - start, 0.02),
            ))
            spike_start = None
            continue
        genes.append(FaultGene(
            frac=frac, kind=event.kind, replica=event.replica,
            cells=event.cells, masks=event.masks, values=event.values,
        ))
    return Genome(rate=BASELINE_RATE, events=tuple(genes))


def search(
    config: EvalConfig,
    seed,
    generations: int = 4,
    population: int = 6,
    elites: int = 2,
) -> SearchResult:
    """Evolve attack genomes against the harness; pure in ``(config, seed)``.

    Each generation evaluates the population (memoized by genome
    digest), carries the ``elites`` fittest genomes over unchanged,
    and fills the rest with mutated crossovers of parents drawn from
    the top half.  Ties break on genome digest so the result is
    deterministic even when fitness values collide.
    """
    generations = check_positive_integer("generations", generations)
    population = check_positive_integer("population", population)
    if not 1 <= int(elites) < population:
        raise ParameterError(
            f"elites must be in [1, population), got {elites}"
        )
    elites = int(elites)
    rng = as_generator(seed)
    universe, inner_cells = _instance_geometry(config, seed)
    memo: dict[str, Evaluation] = {}

    def score(genome: Genome) -> Evaluation:
        digest = genome.digest()
        if digest not in memo:
            memo[digest] = evaluate(genome, config, int(seed))
        return memo[digest]

    base = baseline_genome(config, seed)
    pop = [base] + [
        random_genome(
            int(rng.integers(0, 2**31)), universe, inner_cells,
            replicas=config.replicas,
        )
        for _ in range(population - 1)
    ]
    history: list[dict] = []
    ranked: list[tuple] = []
    for gen in range(generations):
        ranked = sorted(
            ((g, score(g)) for g in pop),
            key=lambda pair: (-pair[1].fitness, pair[0].digest()),
        )
        fits = [e.fitness for _, e in ranked]
        history.append({
            "generation": gen,
            "best_fitness": round(fits[0], 6),
            "mean_fitness": round(sum(fits) / len(fits), 6),
            "evaluated": len(memo),
        })
        if gen == generations - 1:
            break
        parents = [g for g, _ in ranked[:max(2, population // 2)]]
        children = [g for g, _ in ranked[:elites]]
        while len(children) < population:
            a = parents[int(rng.integers(0, len(parents)))]
            b = parents[int(rng.integers(0, len(parents)))]
            child = crossover(a, b, int(rng.integers(0, 2**31)))
            child = mutate(
                child, int(rng.integers(0, 2**31)), universe, inner_cells
            )
            children.append(child)
        pop = children
    best_genome, best = ranked[0]
    return SearchResult(
        best_genome=best_genome,
        best=best,
        baseline_genome=base,
        baseline=score(base),
        history=history,
        evaluations=len(memo),
    )
