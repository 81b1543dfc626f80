"""Semantic GP engine: individuals as output vectors, operators as pointwise maps.

An individual never owns an expression tree during evolution. It owns its
semantics — one vector of its outputs on the training rows, then the test
rows — plus an ancestry record saying how that vector was produced (an
initial tree, or a crossover/mutation over earlier records). Crossover and
mutation therefore cost O(n) array arithmetic instead of tree surgery. The
symbolic expression is never built: `estimate_size` counts its nodes, 9.3
× 10⁹ for the model of a default run at seed 42.
Trees are evaluated once on the stacked train+test features; `eval_matrix`,
`eval_trees` and `sigmoid` act on each row alone, so stacking changes no
value.

A generation is a matrix with an individual per row, their fitnesses and
their ancestry records, made in two phases by `run_generations`, which runs
a whole run from its seed. The draw phase makes every draw; the operators
only build the children's records. The loop copies each elite, reproduced
or rejected slot's row and record from its first parent; the evaluate
phase, `breed`, then computes the children's rows in a few numpy calls,
and `fitnesses` scores the rows with one row-sum `fitness`. No draw reads
a child, and each step is element-wise IEEE arithmetic, so the draws and
every child's vector are, bit for bit, those of computing each child alone
as it is drawn. A run's result is its history and the best individual's
row and record. Standard tree GP (`baselines.stgp_run`) runs on the same
loop with each individual's tree as its record: its operators graft and
reject a too-deep offspring as they draw it, and its evaluate phase reads
each kept offspring's values from the memos its nodes keep
(`expr.eval_memo`).

`archive_individual` writes an ancestry as JSON-able data, and
`load_ancestry`, its inverse, checks such a payload and rebuilds the
records; no other code knows that format. Every walk over an ancestry
(sizing, archiving, folding) is a fold over `_post_order`.

Each operator's arithmetic is its record type's `apply`, which `breed`
calls over a batch. The operators only take convex combinations and add
ms·(σ(r1) − σ(r2)), so an ancestry is a weighted sum of trees and of
sigmoids of trees, its `linear_form`. `replay_semantics` evaluates that
sum on new rows, one tree at a time. It computes the same sum in another
order, so it gives the stored semantics up to rounding, not bit for bit.

numpy's floating-point warnings are off in `run_generations` and
`replay_semantics`: an overflow is a value, inf or NaN, and a NaN
fitness ranks last, as +inf.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Union

import numpy as np

from .dataset import Dataset
from .expr import (
    ExprTree,
    ParseError,
    eval_matrix,
    eval_trees,
    parse_infix,
    ramped_half_and_half,
    random_tree,
    sigmoid,
    to_infix,
)

# Semantics are plain float64 vectors, one entry per dataset row, in row order;
# an individual's vector holds the training rows first, then the test rows.
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
    """Convex combination tr·parent1 + (1−tr)·parent2.

    The parents are left out of the repr: the ancestry is a DAG whose
    shared records a nested repr would print once per path, so it would
    grow exponentially with the generations.
    """

    parent1: "AncestryRecord" = field(repr=False)
    parent2: "AncestryRecord" = field(repr=False)
    tr: float

    @staticmethod
    def apply(tr, v1: Semantics, v2: Semantics) -> Semantics:
        """The child's vector, from the vectors v1 of parent1 and v2 of parent2.

        tr is one record's weight with its parents' vectors, or a column of
        weights with the parents stacked a child per row.
        """
        return tr * v1 + (1.0 - tr) * v2


@dataclass(frozen=True, eq=False)
class MutationOrigin:
    """Perturbation parent + ms·(sigmoid(r1) − sigmoid(r2)); parent is not in the repr."""

    parent: "AncestryRecord" = field(repr=False)
    r1: ExprTree
    r2: ExprTree
    ms: float

    @staticmethod
    def apply(ms, v: Semantics, s1: Semantics, s2: Semantics) -> Semantics:
        """The child's vector, from the parent's v and the sigmoids s1, s2 of r1, r2.

        ms is one record's step with its vectors, or a column of steps with
        the vectors stacked a child per row.
        """
        return v + ms * (s1 - s2)


AncestryRecord = Union[TreeOrigin, CrossoverOrigin, MutationOrigin]


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
    """A run's history and its best individual's semantics and record.

    The record is an ancestry record for GSGP, the tree itself for tree GP.
    Elitism keeps the best, so history's train column never rises, and its
    last entry is the train fitness of semantics.
    """

    history: tuple[GenerationStats, ...]
    semantics: Semantics
    ancestry: AncestryRecord | ExprTree


def fitness(s: Semantics, targets: np.ndarray):
    """Sum of absolute errors against the targets; lower is better.

    s is one semantics vector, which gives a float, or a matrix with one
    vector per row, which gives an array of their sums. Each row sums as
    the vector would alone, bit for bit.
    """
    s = np.asarray(s, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if s.shape[-1:] != targets.shape:
        raise GsgpError(f"semantics length {s.shape} does not match targets {targets.shape}")
    errors = np.abs(s - targets).sum(axis=-1)
    return float(errors) if s.ndim == 1 else errors


def fitnesses(sem: np.ndarray, targets: np.ndarray) -> list[float]:
    """The L1 train fitness of each row of sem; a NaN fitness becomes +inf.

    `run_generations` scores every generation of both engines here. Each
    row holds the training rows, then the test rows; fitness reads the
    first len(targets), with one call for all rows. NaN compares false
    against everything, so a NaN entrant could win a tournament depending
    on entrant order; +inf always ranks last.
    """
    fits = fitness(sem[:, : len(targets)], targets)
    fits[np.isnan(fits)] = math.inf
    return fits.tolist()


def _snap_weight(u: float) -> float:
    """Snap u in [0, 1) to a weight tr whose complement 1 − tr is exact.

    1 − x is exact in float arithmetic when x ≥ 0.5, so below 0.5 tr is
    taken as 1 − (1 − u). Then tr + (1 − tr) == 1, and 1 − tr is the one
    complement of tr: `CrossoverOrigin.apply` and `linear_form` compute it,
    and the record's literal expression (see `estimate_size`) holds it as
    a constant.
    """
    return 1.0 - (1.0 - u) if u < 0.5 else u


def draw_crossover(rec1: AncestryRecord, rec2: AncestryRecord, rng: Random) -> CrossoverOrigin:
    """The record of a child tr·rec1 + (1−tr)·rec2, with one tr drawn per call.

    Only the draw: `breed` computes the child's vector.
    """
    return CrossoverOrigin(rec1, rec2, _snap_weight(rng.random()))


def draw_mutation(
    rec: AncestryRecord, ms: float, rng: Random, tree_depth: int = 4
) -> MutationOrigin:
    """The record of a child parent + ms·(sigmoid(r1) − sigmoid(r2)), rec the parent's.

    Draws r1, then r2: fresh grow trees with a function at the root.
    `breed` computes the child's vector. The logistic map bounds each
    sigmoid to [0, 1], so no coordinate of the child moves by more than ms.
    """
    if not ms > 0:
        raise GsgpError(f"mutation step must be > 0, got {ms}")
    r1 = random_tree(rng, tree_depth, force_root_function=True)
    r2 = random_tree(rng, tree_depth, force_root_function=True)
    return MutationOrigin(parent=rec, r1=r1, r2=r2, ms=ms)


# A slot of the next generation, as the draw phase of `run_generations` fills
# it: the indices of its parents in the current generation, and its child.
# A reproduced, elite or rejected child is None, and the loop copies its
# first parent's row and record; the evaluate phase writes only the rows of
# an operator's other children, which are whatever it returned.
Slot = tuple[tuple[int, ...], object]


def breed(out: np.ndarray, sem: np.ndarray, slots: list[Slot], features: np.ndarray) -> None:
    """GSGP's evaluate phase: write each child's row of out, row j from slot j.

    sem holds the current generation, a row each; out holds, in row j, the
    row of slot j's first parent, and features the rows of a semantics
    vector. A slot's child is None (out's row is already its copy), a
    CrossoverOrigin or a MutationOrigin. Each kind is computed for all its
    slots at once: one `CrossoverOrigin.apply` and one `MutationOrigin.apply`
    over stacked parents with a column of weights, and one `eval_trees` and
    one `sigmoid` over every perturbation tree, r1s then r2s.
    """
    crossed, parents2, trs = [], [], []
    mutated, steps, r1s, r2s = [], [], [], []
    for row, (parents, child) in enumerate(slots):
        if isinstance(child, CrossoverOrigin):
            crossed.append(row)
            parents2.append(parents[1])
            trs.append(child.tr)
        elif isinstance(child, MutationOrigin):
            mutated.append(row)
            steps.append(child.ms)
            r1s.append(child.r1)
            r2s.append(child.r2)
    if crossed:
        tr = np.array(trs)[:, np.newaxis]
        out[crossed] = CrossoverOrigin.apply(tr, out[crossed], sem[parents2])
    if mutated:
        squashed = sigmoid(eval_trees(r1s + r2s, features))
        ms = np.array(steps)[:, np.newaxis]
        s1, s2 = squashed[: len(mutated)], squashed[len(mutated) :]
        out[mutated] = MutationOrigin.apply(ms, out[mutated], s1, s2)


def tournament_select(fits: list[float], k: int, rng: Random) -> int:
    """Sample k distinct indices of fits and pick one of them.

    Return the entrant with the lowest fitness (L1 error), ties to the
    lowest index: the least (fits[i], i) pair in tuple order.

    Draw contract: the entrants are the same values as
    `rng.sample(range(len(fits)), k)`, from the same draws, so the generator
    ends in the same state; the oracle tests in tests/test_gsgp.py pin this.
    The draws follow CPython's `sample`, taken straight from `getrandbits`:
    a pool of all n indices when a k-set would take more memory than an
    n-list, else up to k draws below n, each drawn again while it repeats
    an earlier entrant.
    """
    n = len(fits)
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
    best_f = fits[best_i]
    for i in entrants:
        f = fits[i]
        # Tuple order: the fitnesses count as equal when == or the same
        # object, so a NaN ties only with itself, as in min(key=...).
        if f < best_f or ((f == best_f or f is best_f) and i < best_i):
            best_i, best_f = i, f
    return best_i


@np.errstate(all="ignore")
def run_generations(
    cfg,
    train: Dataset,
    test: Dataset,
    seed: int,
    first: Callable[[Random, np.ndarray], tuple[np.ndarray, list]],
    crossover: Callable[[AncestryRecord, AncestryRecord, Random], object],
    mutation: Callable[[AncestryRecord, Random], object],
    evaluate: Callable[[np.ndarray, np.ndarray, list[Slot], np.ndarray], None],
) -> RunResult:
    """The elitist generational run that GSGP and standard tree GP share.

    Deterministic for a fixed config, data and seed: every draw comes from
    one generator seeded with seed, and numpy's floating-point warnings are
    off. X stacks train's feature rows, then test's, so the last len(test)
    entries of a semantics vector are its test rows. first(rng, X) makes
    generation 0's matrix and records: ancestry records for GSGP, the trees
    themselves for tree GP. Only the loop holds a generation, so it is freed
    once the loop moves on. cfg supplies population_size, generations,
    p_crossover, p_mutation, tournament_size and elitism; GsgpConfig and
    StgpConfig both do. History row g holds the best-of-generation-g fitness
    pair; when the test set has no targets the test column is NaN.

    Each generation is scored by `fitnesses` and sorted once by (fitness,
    index), which gives its best row and the elitism rows the next
    generation keeps. The result is the last generation's best row and
    record, which is the best of the run: elitism copies each generation's
    best row, bit for bit, into row 0 of the next, where it keeps its
    fitness and ranks first among equal fitnesses. So a generation's best
    is its predecessor's unless some row is strictly fitter. The other
    slots (see `Slot`) are made in two phases. The draw phase fills them in
    order, each with its operator draw, its tournaments over the fitnesses,
    then crossover(rec1, rec2, rng) or mutation(rec, rng) on the parents'
    records, or a reproduction; an operator returns None to reject its
    child. Each slot then starts as a copy of its first parent's row, and a
    None child as its record too; the evaluate phase, evaluate(out, sem,
    slots, X), writes the other children's rows of out. Tournaments read
    only the previous generation, and no draw reads a child, so the draws
    are the same as if each child were computed as soon as it is drawn.
    """
    k = cfg.tournament_size
    rng = Random(seed)
    X = np.vstack([train.features, test.features])
    sem, records = first(rng, X)
    history: list[GenerationStats] = []
    while True:
        fits = fitnesses(sem, train.targets)
        # fitnesses holds no NaN and the sort is stable, so ties keep index order.
        order = sorted(range(len(fits)), key=fits.__getitem__)
        b = order[0]
        test_fit = math.nan if test.targets is None else fitness(sem[b, -len(test) :], test.targets)
        history.append(GenerationStats(train_fitness=fits[b], test_fitness=test_fit))
        if len(history) > cfg.generations:
            return RunResult(tuple(history), sem[b], records[b])

        slots: list[Slot] = [((i,), None) for i in order[: cfg.elitism]]
        while len(slots) < cfg.population_size:
            draw = rng.random()
            if draw < cfg.p_crossover:
                i1 = tournament_select(fits, k, rng)
                i2 = tournament_select(fits, k, rng)
                slots.append(((i1, i2), crossover(records[i1], records[i2], rng)))
            elif draw < cfg.p_crossover + cfg.p_mutation:
                i = tournament_select(fits, k, rng)
                slots.append(((i,), mutation(records[i], rng)))
            else:
                slots.append(((tournament_select(fits, k, rng),), None))
        firsts = [parents[0] for parents, _ in slots]
        records = [records[i] if c is None else c for i, (_, c) in zip(firsts, slots)]
        out = sem[firsts]
        evaluate(out, sem, slots, X)
        sem = out


def evolve(cfg: GsgpConfig, train: Dataset, test: Dataset, seed: int) -> RunResult:
    """Run GSGP; deterministic for a fixed config, data and seed.

    `run_generations` makes every draw: the ramped half-and-half initial
    trees first, each evaluated alone and stacked into generation 0's
    matrix, then the loop with `draw_crossover` and `draw_mutation` as its
    operators and `breed` as its evaluate phase.
    """
    if not train.has_targets:
        raise GsgpError("training dataset must carry slump targets")

    def first(rng: Random, X: np.ndarray):
        trees = ramped_half_and_half(rng, cfg.population_size, INIT_MIN_DEPTH, INIT_MAX_DEPTH)
        return np.stack([eval_matrix(t, X) for t in trees]), [TreeOrigin(t) for t in trees]

    def mutation(rec: AncestryRecord, rng: Random) -> MutationOrigin:
        return draw_mutation(rec, cfg.mutation_step, rng, cfg.random_tree_depth)

    return run_generations(cfg, train, test, seed, first, draw_crossover, mutation, breed)


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


def estimate_size(root: AncestryRecord) -> int:
    """Node count of the literal expression of the ancestry root, without building it.

    That expression is not an `ExprTree`: it spells the weights and ms out
    as constant leaves and the logistic maps as sigmoid nodes, which no
    `ExprTree` holds. Counting rule per record: an initial tree counts its
    nodes; a crossover adds five nodes on top of both parents (add, two
    mul, the two weight constants); a mutation adds six on top of the
    parent and both perturbation trees (add, mul, the ms constant, sub,
    two sigmoid).
    Exact integer arithmetic — along deep ancestries this grows far past
    what could ever be materialized.
    """
    size: dict[AncestryRecord, int] = {}
    for rec in _post_order(root):
        if isinstance(rec, TreeOrigin):
            size[rec] = rec.tree.size
        elif isinstance(rec, CrossoverOrigin):
            size[rec] = size[rec.parent1] + size[rec.parent2] + 5
        else:
            size[rec] = size[rec.parent] + rec.r1.size + rec.r2.size + 6
    return size[root]


def archive_individual(root: AncestryRecord) -> dict:
    """Serialize the ancestry reachable from the record root to JSON-able data.

    Trees go into one textual archive; records reference archive positions.
    Only records reachable from root are kept, numbered in topological
    order with root last.
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

    for rec in _post_order(root):
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
    return {"trees": trees, "records": records, "root": record_ids[root]}


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


def linear_form(root: AncestryRecord) -> list[tuple[ExprTree, float | None, float | None]]:
    """root's model as Σ wᵢ·Tᵢ(x) + Σ cⱼ·σ(Rⱼ(x)): a term (tree, w, c) per tree it reaches.

    Crossover is a convex combination and mutation adds ms·(σ(r1) − σ(r2)),
    so every ancestry is this sum over its initial trees Tᵢ and perturbation
    trees Rⱼ (Moraglio, Krawiec & Johnson, PPSN 2012). The fold walks
    `_post_order` backwards, so each record is met after every record that
    reads it, starting with weight 1 at root. A crossover passes w·tr to
    parent1 and w·(1 − tr) to parent2; a mutation passes w to its parent and
    adds w·ms to r1's sigmoid coefficient and −w·ms to r2's; an initial tree
    adds w to its tree's weight. A tree read in several places, as an initial
    tree and a perturbation tree too, is one term, with None for a way it is
    not read. Trees are told apart by object, as `load_ancestry` shares them,
    and the terms come in the order the walk first reaches their trees, so
    no id or hash order reaches a prediction.
    """
    weight: defaultdict[AncestryRecord, float] = defaultdict(float, {root: 1.0})
    terms: dict[int, list] = {}  # id(tree) -> [tree, w, c]

    def add(t: ExprTree, slot: int, value: float) -> None:
        term = terms.setdefault(id(t), [t, None, None])
        term[slot] = value if term[slot] is None else term[slot] + value

    for rec in reversed(_post_order(root)):
        w = weight.pop(rec)
        if isinstance(rec, TreeOrigin):
            add(rec.tree, 1, w)
        elif isinstance(rec, CrossoverOrigin):
            weight[rec.parent1] += w * rec.tr
            weight[rec.parent2] += w * (1.0 - rec.tr)
        else:
            weight[rec.parent] += w
            add(rec.r1, 2, w * rec.ms)
            add(rec.r2, 2, -w * rec.ms)
    return [tuple(term) for term in terms.values()]


def replay_semantics(payload: dict, ds: Dataset) -> Semantics:
    """An archived individual's semantics on an arbitrary dataset, from its linear form.

    Loads the payload with `load_ancestry`, so a malformed one fails before
    any row is evaluated, folds the records with `linear_form`, then
    evaluates each term's tree once, by `eval_matrix` over all rows, and
    adds w·T(x) and c·σ(T(x)) into one output vector. Memory is that vector
    plus one term's temporaries, whatever the size of the ancestry.

    The sum is the ancestry's, taken in another order, so on the original
    rows it equals the stored semantics up to rounding: each finite row
    within 1e-12 · Σ (|w·T(x)| + |c·σ(T(x))|), and the same rows are not
    finite. A row may read ±inf where the ancestry gives NaN, or the other
    way round, only where the ancestry multiplies an infinity by a weight of
    0: an archived tr of 0 or 1, or weights whose product underflows
    (`draw_crossover` draws tr = 0 with probability 2^-53). Every operation
    acts on each row alone, so a row's value does not depend on which other
    rows are replayed with it.
    """
    terms = linear_form(load_ancestry(payload))
    X = ds.features
    out = np.zeros(len(X))
    with np.errstate(all="ignore"):
        for tree, w, c in terms:
            values = eval_matrix(tree, X)
            if w is not None:
                out += w * values
            if c is not None:
                out += c * sigmoid(values)
    return out
