"""Semantic GP engine: individuals as output vectors, operators as pointwise maps.

An individual never owns an expression tree during evolution. It owns its
semantics — one vector of its outputs on the training rows, then the test
rows — plus an ancestry record saying how that vector was produced (an
initial tree, or a crossover/mutation over earlier records). Crossover and
mutation therefore cost O(n) array arithmetic instead of tree surgery, and
the symbolic expression is only materialized on demand by `reconstruct`.
Trees are evaluated once on the stacked train+test features; `eval_matrix`
and `sigmoid` act on each row alone, so stacking changes no value.

`archive_individual` writes an individual's ancestry as JSON-able data, and
`load_ancestry`, its inverse, checks such a payload and rebuilds the
records; no other code knows that format. `replay_semantics` replays the
loaded records on new rows in bounded memory. Every walk over an ancestry
(sizing, reconstruction, archiving, replay) is a fold over `_post_order`.

The arithmetic in the operators is mirrored exactly by the expression
templates that `reconstruct` emits, so an expanded tree reproduces the
stored semantics bit for bit; tests rely on that.

The generational loop, `run_generations`, takes its operators as
arguments, so standard tree GP (`baselines.stgp_run`) runs on it too. Both
engines build individuals with `make_individual`, which ranks NaN as +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

# Semantics are plain float64 vectors, one entry per dataset row, in row order;
# an individual's vector holds the training rows first, then the test rows.
Semantics = np.ndarray

INIT_MIN_DEPTH = 2
INIT_MAX_DEPTH = 6
REPLAY_ROWS = 4096  # rows per block of `replay_semantics`


class GsgpError(ValueError):
    """Invalid configuration or malformed engine input."""


@dataclass(frozen=True, eq=False)
class TreeOrigin:
    """The individual is a literal initial tree."""

    tree: ExprTree


@dataclass(frozen=True, eq=False)
class CrossoverOrigin:
    """Convex combination tr·parent1 + (1−tr)·parent2.

    The parents are left out of the repr: the ancestry is a DAG whose
    shared records a nested repr would print once per path, so it would
    grow exponentially with the generations.
    """

    parent1: "AncestryRecord" = field(repr=False)
    parent2: "AncestryRecord" = field(repr=False)
    tr: float


@dataclass(frozen=True, eq=False)
class MutationOrigin:
    """Perturbation parent + ms·(sigmoid(r1) − sigmoid(r2)); parent is not in the repr."""

    parent: "AncestryRecord" = field(repr=False)
    r1: ExprTree
    r2: ExprTree
    ms: float


AncestryRecord = Union[TreeOrigin, CrossoverOrigin, MutationOrigin]


@dataclass(frozen=True, eq=False)
class Individual:
    semantics: Semantics
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

    def __post_init__(self):
        check_loop_fields(self)
        if not self.mutation_step > 0:
            raise GsgpError(f"mutation_step must be > 0, got {self.mutation_step}")
        if self.random_tree_depth < 1:
            raise GsgpError(f"random_tree_depth must be >= 1, got {self.random_tree_depth}")


@dataclass(frozen=True)
class GenerationStats:
    """Best-of-generation absolute-error sums on the train and test rows."""

    train_fitness: float
    test_fitness: float


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


def make_individual(sem: Semantics, targets: np.ndarray, origin: AncestryRecord) -> Individual:
    """Individual with its L1 train fitness; a NaN fitness becomes +inf.

    sem holds the training rows, then the test rows; fitness reads the first
    len(targets). NaN compares false against everything, so a NaN entrant
    could win a tournament depending on entrant order; +inf always ranks last.
    """
    fit = fitness(sem[: len(targets)], targets)
    return Individual(
        semantics=sem,
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
    p1: Individual, p2: Individual, rng: Random, targets: np.ndarray
) -> Individual:
    """Offspring semantics = tr·p1 + (1−tr)·p2, with one tr drawn per call."""
    tr, comp = _complement_pair(rng.random())
    origin = CrossoverOrigin(parent1=p1.ancestry, parent2=p2.ancestry, tr=tr)
    return make_individual(tr * p1.semantics + comp * p2.semantics, targets, origin)


def geometric_mutation(
    p: Individual,
    ms: float,
    rng: Random,
    features: np.ndarray,
    targets: np.ndarray,
    tree_depth: int = 4,
) -> Individual:
    """Offspring semantics = parent + ms·(sigmoid(r1) − sigmoid(r2)).

    r1 and r2 are fresh grow trees evaluated on features, one row per entry
    of the parent's semantics; the logistic map bounds each term to [0, 1],
    so no coordinate moves by more than ms.
    """
    if not ms > 0:
        raise GsgpError(f"mutation step must be > 0, got {ms}")
    gen = GenMethod("grow", tree_depth)
    r1 = random_tree(rng, gen, force_root_function=True)
    r2 = random_tree(rng, gen, force_root_function=True)
    delta = sigmoid(eval_matrix(r1, features)) - sigmoid(eval_matrix(r2, features))
    origin = MutationOrigin(parent=p.ancestry, r1=r1, r2=r2, ms=ms)
    return make_individual(p.semantics + ms * delta, targets, origin)


def tournament_select(pop: list[Individual], k: int, rng: Random) -> int:
    """Sample k distinct indices and pick one of them.

    Return the entrant with the lowest `train_fitness` (L1 error), ties to
    the lowest index: the least (train_fitness, index) pair in tuple order.

    Draw contract: the entrants are the same values as
    `rng.sample(range(len(pop)), k)`, from the same draws, so the generator
    ends in the same state; the oracle tests in tests/test_gsgp.py pin this.
    The draws follow CPython's `sample`, taken straight from `getrandbits`:
    a pool of all n indices when a k-set would take more memory than an
    n-list, else up to k draws below n, each drawn again while it repeats
    an earlier entrant.
    """
    n = len(pop)
    if not 1 <= k <= n:
        raise GsgpError(f"tournament size {k} invalid for population of {n}")
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    entrants = []
    if n <= setsize:
        pool = list(range(n))
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            entrants.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in entrants:
                j = getrandbits(bits)
            entrants.append(j)

    best_i = entrants[0]
    best_f = pop[best_i].train_fitness
    for i in entrants:
        f = pop[i].train_fitness
        # Tuple order: the fitnesses count as equal when == or the same
        # object, so a NaN ties only with itself, as in min(key=...).
        if f < best_f or ((f == best_f or f is best_f) and i < best_i):
            best_i, best_f = i, f
    return best_i


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
    observer: Callable[[list[Individual]], None] | None = None,
) -> RunResult:
    """The elitist generational loop that GSGP and standard tree GP share.

    cfg supplies population_size, generations, p_crossover, p_mutation,
    tournament_size and elitism; GsgpConfig and StgpConfig both do. Each
    generation keeps the elitism best of the previous one, then fills every
    other slot with crossover, mutation or reproduction. Per slot the draws
    come in a fixed order: the operator draw, its tournaments, then the
    operator's own draws from rng. History row g holds the
    best-of-generation-g fitness pair; when the test set has no targets the
    test column is NaN. The last len(test) entries of a semantics vector are
    its test rows.

    observer, when given, is called once per generation with the new
    population, after it is complete and before its statistics are taken.
    It must draw nothing from rng and must not change the population; the
    run's result is then the same with or without it.
    """

    def generation_stats(best: Individual) -> GenerationStats:
        if test.targets is None:
            test_fit = math.nan
        else:
            test_fit = fitness(best.semantics[-len(test) :], test.targets)
        return GenerationStats(train_fitness=best.train_fitness, test_fitness=test_fit)

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
        if observer is not None:
            observer(pop)
        gen_best = pop[_best_indices(pop, 1)[0]]
        if gen_best.train_fitness < best_ever.train_fitness:
            best_ever = gen_best
        history.append(generation_stats(gen_best))

    return RunResult(
        history=tuple(history),
        best=best_ever,
        predictions=best_ever.semantics[-len(test) :],
    )


def evolve(cfg: GsgpConfig, train: Dataset, test: Dataset, seed: int) -> RunResult:
    """Run GSGP; deterministic for a fixed config, data and seed.

    All stochastic draws come from one generator seeded with seed:
    the ramped half-and-half initial trees first, then `run_generations`
    with geometric crossover and mutation as its operators.
    """
    if not train.has_targets:
        raise GsgpError("training dataset must carry slump targets")
    rng = Random(seed)
    stacked = np.vstack([train.features, test.features])
    pop = [
        make_individual(eval_matrix(t, stacked), train.targets, TreeOrigin(t))
        for t in ramped_half_and_half(rng, cfg.population_size, INIT_MIN_DEPTH, INIT_MAX_DEPTH)
    ]
    return run_generations(
        cfg,
        pop,
        rng,
        test,
        crossover=lambda p1, p2, rng: geometric_crossover(p1, p2, rng, train.targets),
        mutation=lambda p, rng: geometric_mutation(
            p, cfg.mutation_step, rng, stacked, train.targets, cfg.random_tree_depth
        ),
    )


def _post_order(root: AncestryRecord) -> list[AncestryRecord]:
    """Every record reachable from root once, each after the records it reads.

    The order is that of a depth-first walk which visits parent1 before
    parent2, and a mutation's parent before the mutation itself. It uses
    an explicit stack, so ancestries of any depth are walked.
    """
    order: list[AncestryRecord] = []
    seen: set[AncestryRecord] = set()
    stack: list[tuple[AncestryRecord, bool]] = [(root, False)]
    while stack:
        rec, parents_done = stack.pop()
        if parents_done:
            order.append(rec)
        elif rec not in seen:
            seen.add(rec)
            stack.append((rec, True))
            if isinstance(rec, CrossoverOrigin):
                stack += [(rec.parent2, False), (rec.parent1, False)]
            elif isinstance(rec, MutationOrigin):
                stack.append((rec.parent, False))
    return order


def estimate_size(ind: Individual) -> int:
    """Node count of the expression `reconstruct` would build, without building it.

    Counting rule per record: an initial tree counts its literal nodes; a
    crossover adds five nodes on top of both parents (add, two mul, the
    two weight constants); a mutation adds six on top of the parent and
    both perturbation trees (add, mul, the ms constant, sub, two sigmoid).
    Exact integer arithmetic — along deep ancestries this grows far past
    what could ever be materialized.
    """
    size: dict[AncestryRecord, int] = {}
    for rec in _post_order(ind.ancestry):
        if isinstance(rec, TreeOrigin):
            size[rec] = rec.tree.size
        elif isinstance(rec, CrossoverOrigin):
            size[rec] = size[rec.parent1] + size[rec.parent2] + 5
        else:
            size[rec] = size[rec.parent] + rec.r1.size + rec.r2.size + 6
    return size[ind.ancestry]


def reconstruct(ind: Individual, node_budget: int) -> ExprTree | BudgetExceeded:
    """Expand the ancestry into a literal expression tree.

    Refuses with BudgetExceeded when the estimated node count is past
    node_budget. The emitted templates perform the exact arithmetic the
    operators performed on semantics, in the same order, so evaluating the
    result reproduces the individual's stored semantics bit for bit.
    """
    if node_budget < 1:
        raise GsgpError(f"node_budget must be >= 1, got {node_budget}")
    est = estimate_size(ind)
    if est > node_budget:
        return BudgetExceeded(estimate=est)

    tree: dict[AncestryRecord, ExprTree] = {}
    for rec in _post_order(ind.ancestry):
        if isinstance(rec, TreeOrigin):
            tree[rec] = rec.tree
        elif isinstance(rec, CrossoverOrigin):
            comp = 1.0 - rec.tr  # exact: tr came from _complement_pair
            tree[rec] = binop(
                "add",
                binop("mul", tree[rec.parent1], constant(rec.tr)),
                binop("mul", constant(comp), tree[rec.parent2]),
            )
        else:
            tree[rec] = binop(
                "add",
                tree[rec.parent],
                binop(
                    "mul",
                    constant(rec.ms),
                    binop("sub", sigmoid_node(rec.r1), sigmoid_node(rec.r2)),
                ),
            )
    return tree[ind.ancestry]


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

    for rec in _post_order(ind.ancestry):
        if isinstance(rec, TreeOrigin):
            entry = {"op": "tree", "tree": tree_id(rec.tree)}
        elif isinstance(rec, CrossoverOrigin):
            entry = {
                "op": "crossover",
                "parent1": record_ids[rec.parent1],
                "parent2": record_ids[rec.parent2],
                "tr": rec.tr,
            }
        else:
            entry = {
                "op": "mutation",
                "parent": record_ids[rec.parent],
                "r1": tree_id(rec.r1),
                "r2": tree_id(rec.r2),
                "ms": rec.ms,
            }
        record_ids[rec] = len(records)
        records.append(entry)
    return {"trees": trees, "records": records, "root": record_ids[ind.ancestry]}


def _index(value) -> int:
    """A record's tree or parent index: a JSON integer, never a boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"index {value!r} is not an integer")
    return value


def _weight(value) -> float:
    """A record's tr or ms: a finite JSON number, never a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"could not convert {value!r} to a finite weight")
    return float(value)


def load_ancestry(payload: dict) -> AncestryRecord:
    """The root record of an `archive_individual` payload; its inverse.

    Each tree is parsed once, into one ExprTree that every record naming
    it shares, and each record is checked once, in archive order, so a
    malformed payload fails here with a GsgpError before anything is
    evaluated. Records the root does not reach are checked, then dropped.
    """
    try:
        trees = [parse_infix(text) for text in payload["trees"]]
        records = payload["records"]
        root = payload["root"]
        n_records = len(records)
    except (KeyError, TypeError, ParseError) as exc:
        raise GsgpError(f"malformed model payload: {exc}") from None
    if isinstance(root, bool) or not isinstance(root, int) or not 0 <= root < n_records:
        raise GsgpError(f"model root {root!r} out of range")
    built: list[AncestryRecord] = []

    def tree(i) -> ExprTree:
        if not 0 <= _index(i) < len(trees):
            raise GsgpError(f"tree index {i!r} out of range")
        return trees[i]

    def parent(i) -> AncestryRecord:
        if not 0 <= _index(i) < len(built):
            raise GsgpError(f"record {len(built)} references a later record")
        return built[i]

    for pos, rec in enumerate(records):
        try:
            op = rec["op"]
            if op == "tree":
                built.append(TreeOrigin(tree(rec["tree"])))
            elif op == "crossover":
                p1, p2 = parent(rec["parent1"]), parent(rec["parent2"])
                built.append(CrossoverOrigin(p1, p2, _weight(rec["tr"])))
            elif op == "mutation":
                p, ms = parent(rec["parent"]), _weight(rec["ms"])
                built.append(MutationOrigin(p, tree(rec["r1"]), tree(rec["r2"]), ms))
            else:
                raise GsgpError(f"unknown record op {op!r}")
        except GsgpError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise GsgpError(f"malformed model record {pos}: {exc}") from None
    return built[root]


def replay_semantics(payload: dict, ds: Dataset) -> Semantics:
    """Re-derive an archived individual's semantics on an arbitrary dataset.

    Loads the payload with `load_ancestry`, so a malformed one fails before
    any row is evaluated, then replays the root's records with the engine's
    own arithmetic: on the original training or test data the result is
    bitwise identical to those rows of the stored semantics.

    The records are replayed once per block of at most REPLAY_ROWS rows,
    into one output array; every operation acts on each row alone, so
    blocking changes no value. Within a block, each record's vector and
    each tree's values and sigmoid are dropped right after the last record
    that reads them. Memory is thus bounded by the ancestry DAG's live
    width × REPLAY_ROWS rows, plus the output, not by the DAG's size or
    the number of rows.
    """
    order = _post_order(load_ancestry(payload))
    reads = [
        (rec.tree,) if isinstance(rec, TreeOrigin)
        else (rec.parent1, rec.parent2) if isinstance(rec, CrossoverOrigin)
        else (rec.parent, rec.r1, rec.r2)
        for rec in order
    ]
    # The position of the last record that reads each record and tree, by id.
    last_reader = {id(read): pos for pos, inputs in enumerate(reads) for read in inputs}

    def replay_block(X: np.ndarray) -> Semantics:
        live: dict[int, Semantics] = {}  # record vectors and tree values, by id
        sig: dict[int, Semantics] = {}  # tree sigmoids, by id

        def values(t: ExprTree) -> Semantics:
            if id(t) not in live:
                live[id(t)] = eval_matrix(t, X)
            return live[id(t)]

        def sigmoid_of(t: ExprTree) -> Semantics:
            if id(t) not in sig:
                sig[id(t)] = sigmoid(values(t))
            return sig[id(t)]

        for pos, rec in enumerate(order):
            if isinstance(rec, TreeOrigin):
                sem = values(rec.tree)
            elif isinstance(rec, CrossoverOrigin):
                sem = rec.tr * live[id(rec.parent1)] + (1.0 - rec.tr) * live[id(rec.parent2)]
            else:
                sem = live[id(rec.parent)] + rec.ms * (sigmoid_of(rec.r1) - sigmoid_of(rec.r2))
            live[id(rec)] = sem
            for read in reads[pos]:
                if last_reader[id(read)] == pos:
                    live.pop(id(read), None)
                    sig.pop(id(read), None)
        return live[id(order[-1])]

    X = ds.features
    out = np.empty(len(X))
    for start in range(0, len(X), REPLAY_ROWS):
        out[start : start + REPLAY_ROWS] = replay_block(X[start : start + REPLAY_ROWS])
    return out
