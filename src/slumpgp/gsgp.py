"""Semantic GP engine: individuals as output vectors, operators as pointwise maps.

An individual never owns an expression tree during evolution. It owns its
semantics — the vector of its outputs on the train and test rows — plus an
ancestry record saying how those vectors were produced (an initial tree, or
a crossover/mutation over earlier records). Crossover and mutation therefore
cost O(n) array arithmetic instead of tree surgery, and the symbolic
expression is only materialized on demand by `reconstruct`.

The arithmetic in the operators is mirrored exactly by the expression
templates that `reconstruct` emits, so an expanded tree reproduces the
stored semantics bit for bit; tests rely on that.

The generational loop, `run_generations`, takes its operators as
arguments, so standard tree GP (`baselines.stgp_run`) runs on it too. Both
engines build individuals with `make_individual`, which ranks NaN as +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Union

import numpy as np

from .dataset import Dataset
from .expr import (
    ExprTree,
    GenMethod,
    ParseError,
    binop,
    constant,
    eval_matrix,
    parse_infix,
    ramped_half_and_half,
    random_tree,
    sigmoid,
    sigmoid_node,
    to_infix,
)

# Semantics are plain float64 vectors, one entry per dataset row, in row order.
Semantics = np.ndarray

INIT_MIN_DEPTH = 2
INIT_MAX_DEPTH = 6


class GsgpError(ValueError):
    """Invalid configuration or malformed engine input."""


@dataclass(frozen=True, eq=False)
class TreeOrigin:
    """The individual is a literal initial tree."""

    tree: ExprTree


@dataclass(frozen=True, eq=False)
class CrossoverOrigin:
    """Convex combination tr·parent1 + (1−tr)·parent2."""

    parent1: "AncestryRecord"
    parent2: "AncestryRecord"
    tr: float


@dataclass(frozen=True, eq=False)
class MutationOrigin:
    """Perturbation parent + ms·(sigmoid(r1) − sigmoid(r2))."""

    parent: "AncestryRecord"
    r1: ExprTree
    r2: ExprTree
    ms: float


AncestryRecord = Union[TreeOrigin, CrossoverOrigin, MutationOrigin]


@dataclass(frozen=True, eq=False)
class Individual:
    train_semantics: Semantics
    test_semantics: Semantics
    train_fitness: float
    ancestry: AncestryRecord


@dataclass(frozen=True)
class BudgetExceeded:
    """Reconstruction refused: the expanded tree would have `estimate` nodes."""

    estimate: int


def check_loop_fields(cfg, error: type[ValueError] = GsgpError) -> None:
    """Reject out-of-range values of the six config fields `run_generations` reads."""
    if cfg.population_size < 1:
        raise error(f"population_size must be >= 1, got {cfg.population_size}")
    if cfg.generations < 0:
        raise error(f"generations must be >= 0, got {cfg.generations}")
    if not 0.0 <= cfg.p_crossover <= 1.0 or not 0.0 <= cfg.p_mutation <= 1.0:
        raise error("operator probabilities must lie in [0, 1]")
    if cfg.p_crossover + cfg.p_mutation > 1.0:
        raise error(
            f"p_crossover + p_mutation must be <= 1, got {cfg.p_crossover} + {cfg.p_mutation}"
        )
    if cfg.tournament_size < 2:
        raise error(f"tournament_size must be >= 2, got {cfg.tournament_size}")
    if cfg.tournament_size > cfg.population_size:
        raise error("tournament_size cannot exceed population_size")
    if not 1 <= cfg.elitism <= cfg.population_size:
        raise error("elitism must be in 1..population_size")


@dataclass(frozen=True)
class GsgpConfig:
    population_size: int = 500
    generations: int = 50
    mutation_step: float = 0.1
    p_crossover: float = 0.7
    p_mutation: float = 0.3
    tournament_size: int = 4
    elitism: int = 1
    random_tree_depth: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        check_loop_fields(self)
        if not self.mutation_step > 0:
            raise GsgpError(f"mutation_step must be > 0, got {self.mutation_step}")
        if self.random_tree_depth < 1:
            raise GsgpError(f"random_tree_depth must be >= 1, got {self.random_tree_depth}")


@dataclass(frozen=True)
class GenerationStats:
    """Best-of-generation errors: raw absolute-error sums and per-sample means."""

    train_fitness: float
    test_fitness: float
    train_mean_error: float
    test_mean_error: float


@dataclass(frozen=True)
class RunResult:
    history: tuple[GenerationStats, ...]
    best: Individual
    predictions: Semantics


def fitness(s: Semantics, targets: np.ndarray) -> float:
    """Sum of absolute errors against the targets; lower is better."""
    s = np.asarray(s, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if s.shape != targets.shape:
        raise GsgpError(f"semantics length {s.shape} does not match targets {targets.shape}")
    return float(np.abs(s - targets).sum())


def semantics_of(t: ExprTree, ds: Dataset) -> Semantics:
    """Evaluate a tree on every row of the dataset."""
    return eval_matrix(t, ds.features)


def make_individual(
    train_sem: Semantics, test_sem: Semantics, targets: np.ndarray, origin: AncestryRecord
) -> Individual:
    """Individual with its L1 train fitness; a NaN fitness becomes +inf.

    NaN compares false against everything, so a NaN entrant could win a
    tournament depending on entrant order; +inf always ranks last.
    """
    fit = fitness(train_sem, targets)
    return Individual(
        train_semantics=train_sem,
        test_semantics=test_sem,
        train_fitness=math.inf if math.isnan(fit) else fit,
        ancestry=origin,
    )


def _complement_pair(u: float) -> tuple[float, float]:
    """Snap u to a weight pair (tr, 1−tr) whose float values sum to exactly 1.

    1−x is exact in float arithmetic only when x ≥ 0.5, so the complement is
    taken through whichever side of the pair is ≥ 0.5. Reconstruction can
    then recover the second weight from the first bit for bit, which keeps
    expanded expressions semantically identical to the stored vectors.
    """
    if u < 0.5:
        comp = 1.0 - u
        tr = 1.0 - comp
    else:
        tr = u
        comp = 1.0 - tr
    return tr, comp


def geometric_crossover(
    p1: Individual, p2: Individual, rng: Random, train: Dataset
) -> Individual:
    """Offspring semantics = tr·p1 + (1−tr)·p2, with one tr drawn per call."""
    tr, comp = _complement_pair(rng.random())
    train_sem = tr * p1.train_semantics + comp * p2.train_semantics
    test_sem = tr * p1.test_semantics + comp * p2.test_semantics
    origin = CrossoverOrigin(parent1=p1.ancestry, parent2=p2.ancestry, tr=tr)
    return make_individual(train_sem, test_sem, train.targets, origin)


def geometric_mutation(
    p: Individual,
    ms: float,
    rng: Random,
    train: Dataset,
    test: Dataset,
    tree_depth: int = 4,
) -> Individual:
    """Offspring semantics = parent + ms·(sigmoid(r1) − sigmoid(r2)).

    r1 and r2 are fresh grow trees; the logistic map bounds each term to
    [0, 1], so no coordinate moves by more than ms.
    """
    if not ms > 0:
        raise GsgpError(f"mutation step must be > 0, got {ms}")
    gen = GenMethod("grow", tree_depth)
    r1 = random_tree(rng, gen, force_root_function=True)
    r2 = random_tree(rng, gen, force_root_function=True)
    delta_train = sigmoid(semantics_of(r1, train)) - sigmoid(semantics_of(r2, train))
    delta_test = sigmoid(semantics_of(r1, test)) - sigmoid(semantics_of(r2, test))
    train_sem = p.train_semantics + ms * delta_train
    test_sem = p.test_semantics + ms * delta_test
    origin = MutationOrigin(parent=p.ancestry, r1=r1, r2=r2, ms=ms)
    return make_individual(train_sem, test_sem, train.targets, origin)


def tournament_select(pop: list[Individual], k: int, rng: Random) -> int:
    """Sample k distinct indices and pick one of them.

    Return the entrant with the lowest `train_fitness` (L1 error), ties to
    the lowest index.
    """
    if not 1 <= k <= len(pop):
        raise GsgpError(f"tournament size {k} invalid for population of {len(pop)}")
    entrants = rng.sample(range(len(pop)), k)
    return min(entrants, key=lambda i: (pop[i].train_fitness, i))


def _best_indices(pop: list[Individual], count: int) -> list[int]:
    order = sorted(range(len(pop)), key=lambda i: (pop[i].train_fitness, i))
    return order[:count]


def run_generations(
    cfg,
    pop: list[Individual],
    rng: Random,
    test: Dataset,
    crossover: Callable[[Individual, Individual, Random], Individual],
    mutation: Callable[[Individual, Random], Individual],
) -> RunResult:
    """The elitist generational loop that GSGP and standard tree GP share.

    cfg supplies population_size, generations, p_crossover, p_mutation,
    tournament_size and elitism; GsgpConfig and StgpConfig both do. Each
    generation keeps the elitism best of the previous one, then fills every
    other slot with crossover, mutation or reproduction. Per slot the draws
    come in a fixed order: the operator draw, its tournaments, then the
    operator's own draws from rng. History row g holds the
    best-of-generation-g fitness pair; when the test set has no targets the
    test columns are NaN.
    """

    def generation_stats(best: Individual) -> GenerationStats:
        if test.targets is None:
            test_fit = math.nan
        else:
            test_fit = fitness(best.test_semantics, test.targets)
        return GenerationStats(
            train_fitness=best.train_fitness,
            test_fitness=test_fit,
            train_mean_error=best.train_fitness / len(best.train_semantics),
            test_mean_error=test_fit / len(test),
        )

    best_ever = pop[_best_indices(pop, 1)[0]]
    history = [generation_stats(best_ever)]

    for _ in range(cfg.generations):
        next_pop = [pop[i] for i in _best_indices(pop, cfg.elitism)]
        while len(next_pop) < cfg.population_size:
            draw = rng.random()
            if draw < cfg.p_crossover:
                i1 = tournament_select(pop, cfg.tournament_size, rng)
                i2 = tournament_select(pop, cfg.tournament_size, rng)
                child = crossover(pop[i1], pop[i2], rng)
            elif draw < cfg.p_crossover + cfg.p_mutation:
                child = mutation(pop[tournament_select(pop, cfg.tournament_size, rng)], rng)
            else:
                child = pop[tournament_select(pop, cfg.tournament_size, rng)]
            next_pop.append(child)
        pop = next_pop
        gen_best = pop[_best_indices(pop, 1)[0]]
        if gen_best.train_fitness < best_ever.train_fitness:
            best_ever = gen_best
        history.append(generation_stats(gen_best))

    return RunResult(
        history=tuple(history),
        best=best_ever,
        predictions=best_ever.test_semantics,
    )


def evolve(cfg: GsgpConfig, train: Dataset, test: Dataset) -> RunResult:
    """Run GSGP; deterministic for a fixed config.

    All stochastic draws come from one generator seeded with cfg.rng_seed:
    the ramped half-and-half initial trees first, then `run_generations`
    with geometric crossover and mutation as its operators.
    """
    if not train.has_targets:
        raise GsgpError("training dataset must carry slump targets")
    rng = Random(cfg.rng_seed)
    pop = [
        make_individual(semantics_of(t, train), semantics_of(t, test), train.targets, TreeOrigin(t))
        for t in ramped_half_and_half(rng, cfg.population_size, INIT_MIN_DEPTH, INIT_MAX_DEPTH)
    ]
    return run_generations(
        cfg,
        pop,
        rng,
        test,
        crossover=lambda p1, p2, rng: geometric_crossover(p1, p2, rng, train),
        mutation=lambda p, rng: geometric_mutation(
            p, cfg.mutation_step, rng, train, test, cfg.random_tree_depth
        ),
    )


def estimate_size(ind: Individual) -> int:
    """Node count of the expression `reconstruct` would build, without building it.

    Counting rule per record: an initial tree counts its literal nodes; a
    crossover adds its two weight constants plus four structural nodes on
    top of the operand sizes; a mutation adds four nodes on top of parent
    and both perturbation trees. Exact integer arithmetic — along deep
    ancestries this grows far past what could ever be materialized.
    """
    memo: dict[AncestryRecord, int] = {}

    def size(rec: AncestryRecord) -> int:
        got = memo.get(rec)
        if got is not None:
            return got
        if isinstance(rec, TreeOrigin):
            result = rec.tree.size
        elif isinstance(rec, CrossoverOrigin):
            result = size(rec.parent1) + size(rec.parent2) + 2 + 4
        else:
            result = size(rec.parent) + rec.r1.size + rec.r2.size + 4
        memo[rec] = result
        return result

    return size(ind.ancestry)


def reconstruct(ind: Individual, node_budget: int) -> ExprTree | BudgetExceeded:
    """Expand the ancestry into a literal expression tree.

    Refuses with BudgetExceeded when the estimated node count is past
    node_budget. The emitted templates perform the exact arithmetic the
    operators performed on semantics, in the same order, so evaluating the
    result reproduces the individual's stored vectors bit for bit.
    """
    if node_budget < 1:
        raise GsgpError(f"node_budget must be >= 1, got {node_budget}")
    est = estimate_size(ind)
    if est > node_budget:
        return BudgetExceeded(estimate=est)

    memo: dict[AncestryRecord, ExprTree] = {}

    def expand(rec: AncestryRecord) -> ExprTree:
        got = memo.get(rec)
        if got is not None:
            return got
        if isinstance(rec, TreeOrigin):
            result = rec.tree
        elif isinstance(rec, CrossoverOrigin):
            comp = 1.0 - rec.tr  # exact: tr came from _complement_pair
            result = binop(
                "add",
                binop("mul", expand(rec.parent1), constant(rec.tr)),
                binop("mul", constant(comp), expand(rec.parent2)),
            )
        else:
            result = binop(
                "add",
                expand(rec.parent),
                binop(
                    "mul",
                    constant(rec.ms),
                    binop("sub", sigmoid_node(rec.r1), sigmoid_node(rec.r2)),
                ),
            )
        memo[rec] = result
        return result

    return expand(ind.ancestry)


def archive_individual(ind: Individual) -> dict:
    """Serialize the ancestry reachable from an individual to JSON-able data.

    Trees go into one textual archive; records reference archive positions.
    Only records reachable from this individual are kept, numbered in
    topological order with the individual's own record last.
    """
    trees: list[str] = []
    tree_ids: dict[ExprTree, int] = {}
    records: list[dict] = []
    record_ids: dict[AncestryRecord, int] = {}

    def tree_id(t: ExprTree) -> int:
        got = tree_ids.get(t)
        if got is not None:
            return got
        trees.append(to_infix(t))
        tree_ids[t] = len(trees) - 1
        return tree_ids[t]

    def record_id(rec: AncestryRecord) -> int:
        got = record_ids.get(rec)
        if got is not None:
            return got
        if isinstance(rec, TreeOrigin):
            entry = {"op": "tree", "tree": tree_id(rec.tree)}
        elif isinstance(rec, CrossoverOrigin):
            entry = {
                "op": "crossover",
                "parent1": record_id(rec.parent1),
                "parent2": record_id(rec.parent2),
                "tr": rec.tr,
            }
        else:
            entry = {
                "op": "mutation",
                "parent": record_id(rec.parent),
                "r1": tree_id(rec.r1),
                "r2": tree_id(rec.r2),
                "ms": rec.ms,
            }
        records.append(entry)
        record_ids[rec] = len(records) - 1
        return record_ids[rec]

    root = record_id(ind.ancestry)
    return {"trees": trees, "records": records, "root": root}


def replay_semantics(payload: dict, ds: Dataset) -> Semantics:
    """Re-derive an archived individual's semantics on an arbitrary dataset.

    Replays the recorded operations with the same arithmetic the engine
    used, so on the original training/test data the result is bitwise
    identical to the stored vectors.
    """
    try:
        trees = [parse_infix(text) for text in payload["trees"]]
        records = payload["records"]
        root = payload["root"]
    except (KeyError, TypeError, ParseError) as exc:
        raise GsgpError(f"malformed model payload: {exc}") from None
    if not isinstance(root, int) or not 0 <= root < len(records):
        raise GsgpError(f"model root {root!r} out of range")

    tree_sem: dict[int, Semantics] = {}

    def sem_of_tree(i: int) -> Semantics:
        if not 0 <= i < len(trees):
            raise GsgpError(f"tree index {i!r} out of range")
        if i not in tree_sem:
            tree_sem[i] = semantics_of(trees[i], ds)
        return tree_sem[i]

    out: list[Semantics] = []
    for pos, rec in enumerate(records):
        try:
            op = rec["op"]
            if op == "tree":
                sem = sem_of_tree(rec["tree"])
            elif op == "crossover":
                p1, p2 = rec["parent1"], rec["parent2"]
                if not (0 <= p1 < pos and 0 <= p2 < pos):
                    raise GsgpError(f"record {pos} references a later record")
                tr = float(rec["tr"])
                sem = tr * out[p1] + (1.0 - tr) * out[p2]
            elif op == "mutation":
                p = rec["parent"]
                if not 0 <= p < pos:
                    raise GsgpError(f"record {pos} references a later record")
                ms = float(rec["ms"])
                delta = sigmoid(sem_of_tree(rec["r1"])) - sigmoid(sem_of_tree(rec["r2"]))
                sem = out[p] + ms * delta
            else:
                raise GsgpError(f"unknown record op {op!r}")
        except (KeyError, TypeError, IndexError) as exc:
            raise GsgpError(f"malformed model record {pos}: {exc}") from None
        out.append(sem)
    return out[root]
