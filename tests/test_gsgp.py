"""Semantic engine: operators, evolution loop, lineage, persistence."""

import gc
import hashlib
import itertools
import json
import math
import operator
import tracemalloc
import warnings
from collections import Counter
from dataclasses import dataclass, field
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slumpgp.baselines as baselines_module
import slumpgp.expr as expr_module
import slumpgp.gsgp as gsgp_module
from slumpgp.baselines import StgpConfig, stgp_run
from slumpgp.dataset import Dataset, Sample, SplitSpec, builtin_table1, split
from slumpgp.expr import (
    ExprTree,
    ParseError,
    binop,
    eval_matrix,
    parse_infix,
    ramped_half_and_half,
    random_tree,
    sigmoid,
    to_infix,
    variable,
)
from slumpgp.gsgp import (
    INIT_MAX_DEPTH,
    INIT_MIN_DEPTH,
    AncestryRecord,
    CrossoverOrigin,
    GsgpConfig,
    GsgpError,
    MutationOrigin,
    TreeOrigin,
    _post_order,
    _snap_weight,
    archive_individual,
    breed,
    draw_crossover,
    draw_mutation,
    estimate_size,
    evolve,
    fitness,
    fitnesses,
    linear_form,
    load_ancestry,
    replay_semantics,
    tournament_select,
)
from test_expr import leaves, masked_sigmoid, same_bits

FROZEN_TABLE_PAIR_FITNESS = 21.299999999999997  # sum |computed - measured| over 6 rows


class FixedRandom:
    """Stand-in generator returning a preset uniform draw."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def tiny_dataset(targets=(2.0, 2.0)):
    samples = tuple(
        Sample(100.0 + i, 1.0, 180.0 + i, 700.0, 1000.0, 5.0, 10.0, 2000.0, t)
        for i, t in enumerate(targets)
    )
    return Dataset(samples)


@dataclass(frozen=True, eq=False)
class Individual:
    """One row of a generation as the oracles here hold it: its vector,
    train fitness and ancestry record."""

    semantics: np.ndarray
    train_fitness: float
    ancestry: AncestryRecord


def raw_individual(train_sem, test_sem, ds):
    """Individual whose semantics are train_sem then test_sem; ds holds the train targets."""
    sem = np.concatenate([np.asarray(train_sem, dtype=float), np.asarray(test_sem, dtype=float)])
    return Individual(
        semantics=sem,
        train_fitness=fitness(sem[: len(ds)], ds.targets),
        ancestry=TreeOrigin(variable(1)),
    )


def stacked(train, test):
    """Feature rows of train, then of test: the rows of an individual's semantics."""
    return np.vstack([train.features, test.features])


def bred(parents, child, features, targets) -> Individual:
    """The batch of one: `breed`'s child of a single slot over the parents' stacked rows."""
    sem = np.stack([p.semantics for p in parents])
    rows = sem[[0]]
    breed(rows, sem, [(tuple(range(len(parents))), child)], features)
    return Individual(rows[0], fitnesses(rows, targets)[0], child)


def geometric_crossover(p1, p2, rng, targets) -> Individual:
    """One crossover child of p1 and p2: its draw, then its vector."""
    return bred([p1, p2], draw_crossover(p1.ancestry, p2.ancestry, rng), None, targets)


def geometric_mutation(p, ms, rng, features, targets, tree_depth=4) -> Individual:
    """One mutation child of p: its draws, then its vector on the rows of features."""
    return bred([p], draw_mutation(p.ancestry, ms, rng, tree_depth), features, targets)


@dataclass(frozen=True)
class BudgetExceeded:
    """Reconstruction refused: the expanded tree would have `estimate` nodes."""

    estimate: int


@dataclass(frozen=True)
class Literal:
    """A node of the expression `reconstruct` writes: 'add', 'sub' or 'mul'
    over two children, 'sigmoid' over one, or a 'const' leaf holding value.
    Its other leaves are ExprTrees. size is the node count, as on ExprTree."""

    kind: str
    children: tuple = ()
    value: float = 0.0
    size: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "size", 1 + sum(c.size for c in self.children))


def const(value: float) -> Literal:
    return Literal("const", value=value)


def eval_literal(e: ExprTree | Literal, X: np.ndarray) -> np.ndarray:
    """Oracle: the values of reconstruct's expression on every row of X.

    ExprTree leaves go through eval_matrix and 'sigmoid' through
    expr.sigmoid, the functions evolution and replay use."""
    if isinstance(e, ExprTree):
        return eval_matrix(e, X)
    if e.kind == "const":
        return np.full(X.shape[0], e.value)
    if e.kind == "sigmoid":
        return sigmoid(eval_literal(e.children[0], X))
    left, right = e.children
    op = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}[e.kind]
    return op(eval_literal(left, X), eval_literal(right, X))


def reconstruct(root: AncestryRecord, node_budget: int) -> ExprTree | Literal | BudgetExceeded:
    """Oracle: expand the ancestry of the record root into one literal expression.

    Refuses with BudgetExceeded when the estimated node count is past
    node_budget; no command builds this expression, and `estimate_size`
    puts a model at the default config at billions of nodes. The emitted
    templates are the symbolic mirror of each record's `apply`, the same
    arithmetic in the same order, so `eval_literal` of the result
    reproduces the individual's stored semantics bit for bit. An initial
    tree is returned as it is.
    """
    if node_budget < 1:
        raise GsgpError(f"node_budget must be >= 1, got {node_budget}")
    est = estimate_size(root)
    if est > node_budget:
        return BudgetExceeded(estimate=est)

    tree: dict[AncestryRecord, ExprTree | Literal] = {}
    for rec in _post_order(root):
        if isinstance(rec, TreeOrigin):
            tree[rec] = rec.tree
        elif isinstance(rec, CrossoverOrigin):
            # tr·p1 + (1 − tr)·p2, as in CrossoverOrigin.apply.
            tree[rec] = Literal(
                "add",
                (
                    Literal("mul", (tree[rec.parent1], const(rec.tr))),
                    Literal("mul", (const(1.0 - rec.tr), tree[rec.parent2])),
                ),
            )
        else:
            # p + ms·(σ(r1) − σ(r2)), as in MutationOrigin.apply.
            squashed = Literal("sub", (Literal("sigmoid", (rec.r1,)), Literal("sigmoid", (rec.r2,))))
            tree[rec] = Literal("add", (tree[rec.parent], Literal("mul", (const(rec.ms), squashed))))
    return tree[root]


def count_nodes(t: ExprTree) -> int:
    """Node count by recursion, independent of the stored size."""
    return 1 + sum(count_nodes(c) for c in t.children)


class TestFitness:
    def test_identity_is_zero(self):
        t = np.array([1.0, 2.0, 3.0])
        assert fitness(t, t) == 0.0

    def test_direct_sum(self):
        assert fitness(np.array([1.0, 2.0]), np.array([1.0, 3.0])) == 1.0

    def test_frozen_table_pairs(self):
        computed = np.array([130.9, 111.5, 125.2, 148.6, 131.9, 128.6])
        measured = np.array([129.0, 113.0, 126.0, 142.0, 127.0, 123.0])
        assert fitness(computed, measured) == FROZEN_TABLE_PAIR_FITNESS

    def test_length_mismatch(self):
        with pytest.raises(GsgpError):
            fitness(np.array([1.0]), np.array([1.0, 2.0]))


class TestSemanticsOf:
    """A tree's semantics on a dataset: eval_matrix over its feature rows."""

    def test_water_column(self, table1):
        water = eval_matrix(variable(3), table1.features)
        assert water.shape == (34,)
        assert water[:3].tolist() == [180.0, 180.0, 190.0]
        assert np.array_equal(water, table1.features[:, 2])

    def test_self_subtraction_is_zero(self, table1):
        t = binop("sub", variable(1), variable(1))
        assert np.array_equal(eval_matrix(t, table1.features), np.zeros(34))

    def test_single_row_dataset(self):
        ds = tiny_dataset(targets=(5.0,))
        assert eval_matrix(variable(3), ds.features).tolist() == [180.0]


class TestGeometricCrossover:
    def test_midpoint(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 3.0], [1.0, 3.0], ds)
        p2 = raw_individual([3.0, 1.0], [3.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.5), ds.targets)
        assert child.semantics.tolist() == [2.0, 2.0, 2.0, 2.0]
        assert child.train_fitness == 0.0

    def test_endpoint_tr_one_copies_first_parent(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.25, 3.5], [0.5, 9.0], ds)
        p2 = raw_individual([7.0, -2.0], [4.0, 4.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(1.0 - 1e-17), ds.targets)
        # u rounds to 1.0, so the blend is exactly p1
        assert np.array_equal(child.semantics, p1.semantics)

    def test_endpoint_tr_zero_copies_second_parent(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.25, 3.5], [0.5, 9.0], ds)
        p2 = raw_individual([7.0, -2.0], [4.0, 4.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.0), ds.targets)
        assert np.array_equal(child.semantics, p2.semantics)

    def test_ancestry_records_parents_and_tr(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 3.0], [1.0, 3.0], ds)
        p2 = raw_individual([3.0, 1.0], [3.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.25), ds.targets)
        rec = child.ancestry
        assert isinstance(rec, CrossoverOrigin)
        assert rec.parent1 is p1.ancestry
        assert rec.parent2 is p2.ancestry
        assert 0.0 <= rec.tr <= 1.0

    def test_convexity_fuzz(self):
        ds = tiny_dataset(targets=tuple(range(2, 8)))
        rng = Random(71)
        for _ in range(300):
            a = [rng.uniform(-50, 50) for _ in range(6)]
            b = [rng.uniform(-50, 50) for _ in range(6)]
            p1 = raw_individual(a, a, ds)
            p2 = raw_individual(b, b, ds)
            child = geometric_crossover(p1, p2, rng, ds.targets)
            lo = np.minimum(p1.semantics, p2.semantics)
            hi = np.maximum(p1.semantics, p2.semantics)
            assert np.all(child.semantics >= lo - 1e-12)
            assert np.all(child.semantics <= hi + 1e-12)

    def test_fitness_recomputed(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 3.0], [1.0, 3.0], ds)
        p2 = raw_individual([3.0, 1.0], [3.0, 1.0], ds)
        rng = Random(73)
        for _ in range(50):
            child = geometric_crossover(p1, p2, rng, ds.targets)
            assert child.train_fitness == pytest.approx(
                fitness(child.semantics[:2], ds.targets), abs=1e-12
            )

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_max=True))
    @example(0.1)  # 1 - (1 - 0.1) != 0.1: unsnapped, this weight fails
    @example(5e-324)
    @example(0.49999999999999994)
    @example(0.5)
    def test_snapped_weight_has_an_exact_complement(self, u):
        """reconstruct's constant 1 - tr and apply's both rely on this."""
        tr = _snap_weight(u)
        assert 1.0 - (1.0 - tr) == tr
        assert tr + (1.0 - tr) == 1.0
        if u >= 0.5:
            assert tr == u

    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(*[st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)] * 3)
        ),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_child_is_no_worse_than_its_worse_parent(self, vectors, u):
        """The L1 fitness is convex and a child lies between its parents, so
        it is at most as far from any targets as the farther parent, up to
        the rounding of its blend and of the sums."""
        a, b, y = (np.array(v) for v in vectors)
        child = CrossoverOrigin.apply(_snap_weight(u), a, b)
        tol = 8 * len(y) * np.finfo(float).eps * (np.abs(a) + np.abs(b) + np.abs(y)).sum()
        assert fitness(child, y) <= max(fitness(a, y), fitness(b, y)) + tol


class TestGeometricMutation:
    def test_displacement_formula(self):
        # offspring = parent + ms•(s1 - s2), e.g. (1,1) with squashed
        # perturbations (0.6,0.2) and (0.1,0.7) at ms=0.1 -> (1.05, 0.95)
        parent = np.array([1.0, 1.0])
        moved = parent + 0.1 * (np.array([0.6, 0.2]) - np.array([0.1, 0.7]))
        assert moved == pytest.approx([1.05, 0.95], abs=1e-15)

    def test_engine_matches_formula_bitwise(self):
        train, test = split(builtin_table1(), SplitSpec(28))
        rng = Random(79)
        p = raw_individual(np.linspace(100, 150, 28), np.linspace(100, 150, 6), train)
        for _ in range(50):
            child = geometric_mutation(p, 0.1, rng, stacked(train, test), train.targets)
            rec = child.ancestry
            assert isinstance(rec, MutationOrigin)
            for rows, ds in ((slice(0, 28), train), (slice(28, 34), test)):
                delta = sigmoid(eval_matrix(rec.r1, ds.features)) - sigmoid(
                    eval_matrix(rec.r2, ds.features)
                )
                assert np.array_equal(child.semantics[rows], p.semantics[rows] + 0.1 * delta)

    def test_identical_perturbation_trees_cancel(self, monkeypatch):
        fixed = binop("add", variable(1), variable(2))
        monkeypatch.setattr(
            gsgp_module, "random_tree", lambda rng, max_depth, force_root_function=False: fixed
        )
        ds = tiny_dataset()
        p = raw_individual([1.0, 2.0], [3.0, 4.0], ds)
        child = geometric_mutation(p, 0.1, Random(0), stacked(ds, ds), ds.targets)
        assert np.array_equal(child.semantics, p.semantics)

    def test_bounded_displacement_fuzz(self):
        train, test = split(builtin_table1(), SplitSpec(28))
        rng = Random(83)
        p = raw_individual(np.zeros(28), np.zeros(6), train)
        for _ in range(200):
            ms = rng.choice([0.01, 0.1, 1.0])
            child = geometric_mutation(p, ms, rng, stacked(train, test), train.targets)
            assert np.max(np.abs(child.semantics - p.semantics)) <= ms

    def test_invalid_step_rejected(self):
        ds = tiny_dataset()
        p = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        for bad in (0.0, -0.1):
            with pytest.raises(GsgpError):
                geometric_mutation(p, bad, Random(0), stacked(ds, ds), ds.targets)


class TestTournament:
    def test_exhaustive_tournament_returns_global_best(self):
        assert tournament_select([5.0, 1.0, 3.0, 4.0], 4, Random(0)) == 1

    def test_population_of_one(self):
        assert tournament_select([5.0], 1, Random(0)) == 0

    def test_tie_breaks_to_lowest_index(self):
        assert tournament_select([7.0, 7.0, 7.0], 3, Random(9)) == 0

    def test_deterministic_under_seed(self):
        fits = [3.0, 9.0, 1.0, 4.0, 8.0, 2.0]
        picks_a = [tournament_select(fits, 2, Random(55)) for _ in range(20)]
        picks_b = [tournament_select(fits, 2, Random(55)) for _ in range(20)]
        assert picks_a == picks_b

    def test_nan_fitness_is_worst(self):
        """A NaN in the semantics gives +inf fitness, so no tournament order
        can pick it over a finite entrant."""
        ds = tiny_dataset(targets=(1000.0, 1000.0))
        broken = raw_individual([math.nan, 1000.0], [0.0, 0.0], ds)
        finite = raw_individual([1000.0, 1000.0], [0.0, 0.0], ds)
        child = geometric_crossover(broken, finite, FixedRandom(0.5), ds.targets)
        assert math.isnan(child.semantics[0])
        assert child.train_fitness == math.inf
        # The child's train rows, then rows at fitness 5, 1 and 3: target + f/2.
        rows = np.stack([child.semantics[:2]] + [ds.targets + f / 2 for f in (5.0, 1.0, 3.0)])
        fits = fitnesses(rows, ds.targets)
        assert fits == [math.inf, 5.0, 1.0, 3.0]
        for seed in range(20):
            assert tournament_select(fits, len(fits), Random(seed)) == 2

    def test_invalid_k(self):
        for k in (0, 3):
            with pytest.raises(GsgpError):
                tournament_select([1.0, 2.0], k, Random(0))


    # A NaN that is one object ties with itself in tuple order; separate NaN
    # objects never compare equal.
    FITNESS = st.sampled_from([0.0, 1.0, 2.5, math.inf, math.nan]) | st.builds(
        float, st.just("nan")
    )

    # n and k either side of each sample branch's limit: n <= 21 for k <= 5,
    # n <= 21 + 256 for k = 40, and the default config's 500 x 4.
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 600),
        k=st.integers(2, 40),
        levels=st.lists(FITNESS, min_size=1, max_size=4),
        seed=st.integers(0, 2**64),
    )
    @example(n=21, k=4, levels=[0.0], seed=1)
    @example(n=22, k=4, levels=[0.0], seed=1)
    @example(n=277, k=40, levels=[1.0, 2.5], seed=2)
    @example(n=278, k=40, levels=[1.0, 2.5], seed=2)
    @example(n=500, k=4, levels=[math.nan, 0.0, math.inf], seed=3)
    def test_draws_match_sample_oracle(self, n, k, levels, seed):
        k = min(k, n)
        # Few distinct values over many entrants, so tournaments hold ties.
        fits = Random(seed).choices(levels, k=n)
        mine, oracle = Random(seed), Random(seed)
        for _ in range(10):
            want = min(oracle.sample(range(n), k), key=lambda i: (fits[i], i))
            assert tournament_select(fits, k, mine) == want
        assert mine.getstate() == oracle.getstate()


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = GsgpConfig()
        assert cfg.population_size == 500
        assert cfg.generations == 50
        assert cfg.mutation_step == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 0},
            {"generations": -1},
            {"mutation_step": 0.0},
            {"mutation_step": -0.5},
            {"p_crossover": -0.1},
            {"p_mutation": 1.2},
            {"p_crossover": 0.8, "p_mutation": 0.5},  # sum > 1
            {"tournament_size": 1},
            {"tournament_size": 600},
            {"elitism": 0},
            {"elitism": 501},
            {"random_tree_depth": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(GsgpError):
            GsgpConfig(**kwargs)


class TestEvolve:
    small = dict(population_size=12, generations=4)
    seed = 5

    @pytest.mark.parametrize(
        "kwargs, seed, train_fits, test_fits, records, archive_sha256",
        [
            (
                small,
                seed,
                [1557.0, 1263.1908990198203, 1095.0051105838436, 1095.0051105838436,
                 1093.631742782007],
                [335.0, 291.85040852974987, 268.7425925231021, 268.7425925231021,
                 270.09557233456724],
                12,
                "8dfea932f1c6a440a220cc343fe0d4dbfffd3beaffcd65fcaf5003fc62cf063b",
            ),
            (
                dict(population_size=30, generations=10),
                7,
                [1557.0, 1224.7775007479731, 737.3913667118098, 670.6177166986176,
                 668.417716698618, 668.417716698618, 668.417716698618, 666.7443724535045,
                 664.5443724535048, 663.3464888233663, 662.2943724535048],
                [335.0, 285.1065938813018, 159.1599285228855, 153.78957921838415,
                 153.38957921838417, 153.38957921838417, 153.38957921838417,
                 153.0267251664527, 152.62672516645273, 152.4427212876721,
                 152.22672516645275],
                18,
                "fbde3bac961ed795417981f2a482018833d37eb0baa6ff7af59358f2547725a8",
            ),
        ],
        ids=["pop12-seed5", "pop30-seed7"],
    )
    def test_pinned_run(
        self, table1_split, kwargs, seed, train_fits, test_fits, records, archive_sha256
    ):
        """Exact values of small runs; any change to the RNG draw order, the
        operators or the loop moves them."""
        train, test = table1_split
        res = evolve(GsgpConfig(**kwargs), train, test, seed=seed)
        assert [st.train_fitness for st in res.history] == train_fits
        assert [st.test_fitness for st in res.history] == test_fits
        payload = archive_individual(res.ancestry)
        assert len(payload["records"]) == records
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == archive_sha256

    def test_history_length(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(**self.small), train, test, seed=self.seed)
        assert len(res.history) == 5

    def test_zero_generations_returns_initial_best(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(population_size=10, generations=0), train, test, seed=3)
        assert len(res.history) == 1
        assert res.history[0].train_fitness == fitness(res.semantics[: len(train)], train.targets)
        assert res.history[0].test_fitness == fitness(res.semantics[len(train) :], test.targets)

    def test_same_seed_identical_results(self, table1_split):
        train, test = table1_split
        r1 = evolve(GsgpConfig(**self.small), train, test, seed=self.seed)
        r2 = evolve(GsgpConfig(**self.small), train, test, seed=self.seed)
        assert r1.history == r2.history
        assert np.array_equal(r1.semantics[len(train) :], r2.semantics[len(train) :])

    def test_best_train_fitness_non_increasing(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(population_size=30, generations=10), train, test, seed=7)
        fits = [st.train_fitness for st in res.history]
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_best_fitness_recomputation(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(**self.small), train, test, seed=self.seed)
        assert res.history[-1].train_fitness == pytest.approx(
            fitness(res.semantics[:28], train.targets), abs=1e-12
        )

    def test_unlabeled_test_set_gives_nan_test_stats(self, table1_split):
        train, _ = table1_split
        plain = Dataset(builtin_table1().features[28:])
        res = evolve(GsgpConfig(population_size=8, generations=2), train, plain, seed=1)
        assert math.isnan(res.history[-1].test_fitness)
        assert res.semantics[len(train) :].shape == (6,)


def per_vector_individual(sem, targets, origin) -> Individual:
    """An individual with the fitness of its vector alone; a NaN fitness becomes +inf."""
    fit = fitness(sem[: len(targets)], targets)
    return Individual(sem, math.inf if math.isnan(fit) else fit, origin)


def evolve_per_child(cfg: GsgpConfig, train: Dataset, test: Dataset, seed: int):
    """Oracle: GSGP's generational loop as it was before batching.

    Each child's vector and fitness are computed as soon as its draws are
    made, with the operators' arithmetic written out and the two-branch
    sigmoid, and each fitness is its vector's own sum. Returns (history as
    (train, test) pairs, best individual).
    """
    rng = Random(seed)
    X = stacked(train, test)
    k = cfg.tournament_size

    def best_of(pop):
        return pop[min(range(len(pop)), key=lambda i: (pop[i].train_fitness, i))]

    def stats(best):
        if test.targets is None:
            return best.train_fitness, math.nan
        return best.train_fitness, fitness(best.semantics[len(train) :], test.targets)

    with np.errstate(all="ignore"):
        trees = ramped_half_and_half(rng, cfg.population_size, INIT_MIN_DEPTH, INIT_MAX_DEPTH)
        pop = [per_vector_individual(eval_matrix(t, X), train.targets, TreeOrigin(t)) for t in trees]
        best_ever = best_of(pop)
        history = [stats(best_ever)]
        for _ in range(cfg.generations):
            order = sorted(range(len(pop)), key=lambda i: (pop[i].train_fitness, i))
            next_pop = [pop[i] for i in order[: cfg.elitism]]
            fits = [ind.train_fitness for ind in pop]
            while len(next_pop) < cfg.population_size:
                draw = rng.random()
                if draw < cfg.p_crossover:
                    p1 = pop[tournament_select(fits, k, rng)]
                    p2 = pop[tournament_select(fits, k, rng)]
                    tr = _snap_weight(rng.random())
                    sem = tr * p1.semantics + (1.0 - tr) * p2.semantics
                    origin = CrossoverOrigin(p1.ancestry, p2.ancestry, tr)
                    next_pop.append(per_vector_individual(sem, train.targets, origin))
                elif draw < cfg.p_crossover + cfg.p_mutation:
                    p = pop[tournament_select(fits, k, rng)]
                    r1 = random_tree(rng, cfg.random_tree_depth, force_root_function=True)
                    r2 = random_tree(rng, cfg.random_tree_depth, force_root_function=True)
                    delta = masked_sigmoid(eval_matrix(r1, X)) - masked_sigmoid(eval_matrix(r2, X))
                    sem = p.semantics + cfg.mutation_step * delta
                    origin = MutationOrigin(p.ancestry, r1, r2, cfg.mutation_step)
                    next_pop.append(per_vector_individual(sem, train.targets, origin))
                else:
                    next_pop.append(pop[tournament_select(fits, k, rng)])
            pop = next_pop
            gen_best = best_of(pop)
            if gen_best.train_fitness < best_ever.train_fitness:
                best_ever = gen_best
            history.append(stats(gen_best))
    return history, best_ever


class TestRunResult:
    """A run returns its best individual's row and record. Elitism keeps the
    best, so the train column of history never rises, and it ends at the
    fitness of that row."""

    ENGINES = {"gsgp": (evolve, GsgpConfig), "stgp": (stgp_run, StgpConfig)}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("split_name", ["table1_split", "huge_split"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_history_ends_at_the_best(self, engine, split_name, seed, request):
        run, config = self.ENGINES[engine]
        train, test = request.getfixturevalue(split_name)
        cfg = config(population_size=20, generations=6, p_crossover=0.6, elitism=1 + seed % 2)
        res = run(cfg, train, test, seed)
        column = [row.train_fitness for row in res.history]
        assert all(a >= b for a, b in zip(column, column[1:]))
        assert column[-1] == fitnesses(res.semantics[np.newaxis], train.targets)[0]
        # A tree GP individual is its tree: archived as an initial tree.
        ancestry = TreeOrigin(res.ancestry) if engine == "stgp" else res.ancestry
        assert_replays(archive_individual(ancestry), train, res.semantics[: len(train)])


class TestBatchedGenerations:
    """evolve breeds each generation as one matrix; that changes no draw and no bit."""

    CONFIGS = {
        "default": ({}, 42),
        "pop200x30": ({"population_size": 200, "generations": 30}, 3),
        "pop30x10": ({"population_size": 30, "generations": 10}, 7),
        "elitism3-reproduction": (
            {"population_size": 60, "generations": 12, "p_crossover": 0.5,
             "p_mutation": 0.3, "elitism": 3},
            11,
        ),
        "tournament7": ({"population_size": 50, "generations": 10, "tournament_size": 7}, 13),
        "mutation-only": (
            {"population_size": 40, "generations": 10, "p_crossover": 0.0, "p_mutation": 1.0},
            17,
        ),
    }

    def assert_matches_oracle(self, cfg, train, test, seed):
        res = evolve(cfg, train, test, seed)
        history, best = evolve_per_child(cfg, train, test, seed)
        got = np.array([(row.train_fitness, row.test_fitness) for row in res.history])
        assert same_bits(got, np.array(history))
        assert same_bits(res.semantics, best.semantics)
        assert res.history[-1].train_fitness == best.train_fitness
        assert json.dumps(archive_individual(res.ancestry)) == json.dumps(
            archive_individual(best.ancestry)
        )

    @pytest.mark.parametrize("name", CONFIGS)
    def test_matches_per_child_oracle(self, name, table1_split):
        kwargs, seed = self.CONFIGS[name]
        self.assert_matches_oracle(GsgpConfig(**kwargs), *table1_split, seed)

    def test_matches_oracle_on_unlabeled_test_set(self, table1_split):
        train, _ = table1_split
        unlabeled = Dataset(builtin_table1().features[28:])
        self.assert_matches_oracle(
            GsgpConfig(population_size=30, generations=5), train, unlabeled, seed=1
        )

    def test_matches_oracle_on_overflowing_features(self, huge_split):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_matches_oracle(
                GsgpConfig(population_size=100, generations=10), *huge_split, seed=42
            )

    def test_a_generation_is_rows_of_one_array(self, table1_split, monkeypatch):
        cfg = GsgpConfig(population_size=20, generations=4, p_crossover=0.5, elitism=2)
        assert_generations_are_rows_of_one_array(
            monkeypatch, lambda: evolve(cfg, *table1_split, seed=9)
        )


def assert_generations_are_rows_of_one_array(monkeypatch, run):
    """Each generation that run() scores through `fitnesses`, generation 0
    first, is one (20 × 34) array of its own, a new array each generation,
    and the best individual's semantics is a row of one of them."""
    seen = []

    def recorded(sem, targets):
        seen.append(sem)
        return fitnesses(sem, targets)

    monkeypatch.setattr(gsgp_module, "fitnesses", recorded)
    semantics = run().semantics
    assert len(seen) == 5
    for sem in seen:
        assert sem.shape == (20, 34)
        assert sem.flags.owndata
    # Survivors are copied, not shared across generations.
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(seen, 2))
    assert any(semantics.base is sem for sem in seen)


class TestCopiedSlots:
    """The loop copies an elite, reproduced or rejected slot's row from its
    first parent, bit for bit, and the evaluate phase leaves that row alone.
    The configs are test_cli's mixed one: reproductions in both engines, and
    depth rejects in tree GP, whose run at seed 40 rejects 2 offspring."""

    ENGINES = {
        "gsgp": (
            gsgp_module, evolve,
            GsgpConfig(population_size=20, generations=3, p_crossover=0.5,
                       p_mutation=0.3, elitism=3),
        ),
        "stgp": (
            baselines_module, stgp_run,
            StgpConfig(population_size=20, generations=3, p_crossover=0.5,
                       p_mutation=0.2, elitism=2, max_depth=4),
        ),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_none_slot_rows_are_first_parent_rows(self, engine, table1_split, monkeypatch):
        module, run, cfg = self.ENGINES[engine]
        run_generations = gsgp_module.run_generations
        children, copied = [], []

        def counted(operator):
            def drawn(*args):
                children.append(operator(*args))
                return children[-1]

            return drawn

        def loop(cfg, train, test, seed, first, crossover, mutation, evaluate):
            def checked(out, sem, slots, X):
                evaluate(out, sem, slots, X)
                for row, (parents, child) in enumerate(slots):
                    if child is None:
                        assert same_bits(out[row], sem[parents[0]])
                        copied.append(row >= cfg.elitism)

            return run_generations(
                cfg, train, test, seed, first, counted(crossover), counted(mutation), checked
            )

        monkeypatch.setattr(module, "run_generations", loop)
        run(cfg, *table1_split, seed=40)
        rejects = children.count(None)
        assert copied.count(False) == 3 * cfg.elitism
        assert copied.count(True) - rejects >= 1  # reproductions
        assert rejects >= (1 if engine == "stgp" else 0)


class TestOverflowWarnsNothing:
    """An overflow inside the engine is a value: no numpy warning escapes."""

    def test_evolve_and_replay(self, huge_split):
        train, test = huge_split
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evolve(GsgpConfig(population_size=20, generations=3), train, test, seed=42)
            payload = archive_individual(res.ancestry)
            replay_semantics(payload, test)
        assert_replays(payload, test, res.semantics[len(train) :])


class TestEnginesShareLeaves:
    """Both engines build their trees on the shared `var` leaves of
    `random_tree`, give those leaves no memo, and leave no cyclic garbage,
    so the cyclic collector finds nothing to free."""

    def runs(self, train, test):
        yield evolve(GsgpConfig(population_size=50, generations=5), train, test, seed=42)
        yield stgp_run(StgpConfig(population_size=50, generations=5), train, test, seed=42)

    def test_var_nodes_are_shared_and_bare(self, table1_split):
        gsgp, stgp = self.runs(*table1_split)
        trees = [stgp.ancestry]
        for rec in _post_order(gsgp.ancestry):
            if isinstance(rec, TreeOrigin):
                trees.append(rec.tree)
            elif isinstance(rec, MutationOrigin):
                trees += [rec.r1, rec.r2]
        shared = {id(leaf) for leaf in expr_module._LEAVES}
        assert all(id(leaf) in shared for t in trees for leaf in leaves(t))
        assert all(leaf.memo is None for leaf in expr_module._LEAVES)

    def test_no_cyclic_garbage(self, table1_split):
        gc.collect()
        gc.disable()
        try:
            for res in self.runs(*table1_split):
                assert len(res.history) == 6
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestEstimateSize:
    def test_initial_individual_is_tree_size(self):
        t = binop("add", binop("add", variable(1), variable(2)), binop("add", variable(3), variable(4)))
        assert t.size == 7
        assert estimate_size(TreeOrigin(t)) == 7

    def test_crossover_of_two_leaves(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        p2 = raw_individual([2.0, 1.0], [2.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.5), ds.targets)
        # (x1 * tr) + (comp * x1): two leaves, add, two mul, two constants
        assert estimate_size(child.ancestry) == 7

    def test_mutation_of_leaf_with_leaf_perturbations(self, monkeypatch):
        monkeypatch.setattr(
            gsgp_module, "random_tree", lambda rng, max_depth, force_root_function=False: variable(2)
        )
        ds = tiny_dataset()
        p = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        child = geometric_mutation(p, 0.1, Random(0), stacked(ds, ds), ds.targets)
        # x1 + (ms * (sigmoid(x2) - sigmoid(x2))): three leaves, add, mul,
        # the ms constant, sub, two sigmoid
        assert estimate_size(child.ancestry) == 9

    def test_monotone_along_lineage(self, table1_split):
        train, test = table1_split
        rng = Random(91)
        pop = [raw_individual(np.full(28, 130.0 + i), np.full(6, 130.0), train) for i in range(4)]
        ind = pop[0]
        prev = estimate_size(ind.ancestry)
        for _ in range(15):
            if rng.random() < 0.5:
                ind = geometric_crossover(ind, pop[rng.randrange(4)], rng, train.targets)
            else:
                ind = geometric_mutation(ind, 0.1, rng, stacked(train, test), train.targets)
            cur = estimate_size(ind.ancestry)
            assert cur > prev
            prev = cur


class TestReconstruct:
    def test_initial_returns_tree_verbatim(self):
        t = binop("mul", variable(1), variable(5))
        assert reconstruct(TreeOrigin(t), 100) == t

    def test_budget_exceeded_carries_estimate(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        p2 = raw_individual([2.0, 1.0], [2.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.5), ds.targets)
        out = reconstruct(child.ancestry, 1)
        assert isinstance(out, BudgetExceeded)
        assert out.estimate == estimate_size(child.ancestry)

    def test_crossover_chain_reconstruction_is_bitwise(self, table1_split):
        train, test = table1_split
        rng = Random(97)
        res = evolve(GsgpConfig(population_size=10, generations=4), train, test, seed=17)
        tree = reconstruct(res.ancestry, 10**9)
        assert not isinstance(tree, BudgetExceeded)
        assert np.array_equal(eval_literal(tree, stacked(train, test)), res.semantics)

    def test_reconstruction_equivalence_fuzz(self, table1_split):
        train, test = table1_split
        rng = Random(201)
        for _ in range(6):
            cfg = GsgpConfig(
                population_size=rng.randrange(4, 11),
                generations=rng.randrange(0, 6),
                tournament_size=2,
            )
            res = evolve(cfg, train, test, seed=rng.randrange(10**6))
            tree = reconstruct(res.ancestry, 10**9)
            assert not isinstance(tree, BudgetExceeded)
            assert np.array_equal(eval_literal(tree, stacked(train, test)), res.semantics)


    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 8), st.integers(0, 4))
    def test_reconstructed_size_is_node_count(self, seed, pop_size, generations):
        train, test = split(builtin_table1(), SplitSpec(28))
        cfg = GsgpConfig(population_size=pop_size, generations=generations)
        res = evolve(cfg, train, test, seed=seed)
        tree = reconstruct(res.ancestry, 10**6)
        assert not isinstance(tree, BudgetExceeded)
        assert tree.size == count_nodes(tree)
        assert estimate_size(res.ancestry) == tree.size


def flat_call(fn, *args):
    """fn(*args), where a RecursionError fails the test with one line.

    pytest's report would otherwise repr every frame's arguments, and the
    repr of a record walks its ancestry as a tree, not as a DAG.
    """
    try:
        return fn(*args)
    except RecursionError:
        pytest.fail(f"{fn.__name__} exceeded the recursion limit", pytrace=False)


class TestDeepAncestry:
    """Ancestries far deeper than Python's recursion limit."""

    DEPTH = 5000

    def deep_record(self):
        leaf = TreeOrigin(variable(1))
        rec = leaf
        for i in range(self.DEPTH):
            if i % 2:
                rec = CrossoverOrigin(parent1=rec, parent2=leaf, tr=0.5)
            else:
                rec = MutationOrigin(parent=rec, r1=variable(2), r2=variable(3), ms=0.1)
        return rec

    def test_estimate_size_and_reconstruct(self):
        rec = self.deep_record()
        half = self.DEPTH // 2
        # the leaf, 8 nodes per mutation, 6 per crossover (its leaf parent included)
        assert flat_call(estimate_size, rec) == 1 + 8 * half + 6 * half
        tree = flat_call(reconstruct, rec, 10**9)
        assert not isinstance(tree, BudgetExceeded)
        assert tree.size == estimate_size(rec)

    def test_repr_is_bounded(self):
        """Parents are left out of a record's repr, which would otherwise
        print the DAG as a tree."""
        assert len(flat_call(repr, self.deep_record())) < 1000

    def test_archive_numbers_parents_first(self):
        payload = flat_call(archive_individual, self.deep_record())
        assert payload["trees"] == ["x1", "x2", "x3"]
        assert len(payload["records"]) == self.DEPTH + 1
        assert payload["records"][0] == {"op": "tree", "tree": 0}
        assert payload["records"][1] == {"op": "mutation", "parent": 0, "r1": 1, "r2": 2, "ms": 0.1}
        assert payload["records"][2] == {"op": "crossover", "parent1": 1, "parent2": 0, "tr": 0.5}
        assert payload["root"] == self.DEPTH


# Payloads load_ancestry, and so replay_semantics, must reject with a
# GsgpError. From the eleventh on they hold an index of the wrong type,
# records that are not a list, a malformed record after a valid one, or a
# boolean, string or non-finite number where an index or weight belongs.
MALFORMED_PAYLOADS = [
    {},
    {"trees": [], "records": [], "root": 0},
    {"trees": ["x1"], "records": [{"op": "tree", "tree": 5}], "root": 0},
    {"trees": ["x1"], "records": [{"op": "volcano"}], "root": 0},
    {
        "trees": ["x1"],
        "records": [{"op": "crossover", "parent1": 7, "parent2": 0, "tr": 0.5}],
        "root": 0,
    },
    {"trees": ["x1"], "records": [{"op": "tree", "tree": 0}], "root": 9},
    {"trees": ["(x1 +"], "records": [{"op": "tree", "tree": 0}], "root": 0},
    {"trees": ["x1"], "records": [{"op": "tree", "tree": -1}], "root": 0},
    {
        "trees": ["x1"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "mutation", "parent": 0, "r1": -1, "r2": 0, "ms": 0.1},
        ],
        "root": 1,
    },
    {
        "trees": ["x1"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "mutation", "parent": 0, "r1": 0, "r2": -1, "ms": 0.1},
        ],
        "root": 1,
    },
    {
        "trees": ["x1"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "crossover", "parent1": 0.0, "parent2": 0, "tr": 0.5},
        ],
        "root": 1,
    },
    {"trees": ["x1"], "records": None, "root": 0},
    {"trees": ["x1"], "records": [{"op": "tree", "tree": 0}, [1, 2]], "root": 0},
    {"trees": ["x1"], "records": [{"op": "tree", "tree": [0]}], "root": 0},
    {"trees": ["x1"], "records": [{"op": "tree", "tree": 0.0}], "root": 0},
    # A float index is rejected even where tree 0 has been read before it.
    {
        "trees": ["x1"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "mutation", "parent": 0, "r1": 0.0, "r2": 0, "ms": 0.1},
        ],
        "root": 1,
    },
    # JSON booleans are not indices: true would read as tree 1 or record 1.
    {"trees": ["x1", "x2"], "records": [{"op": "tree", "tree": True}], "root": 0},
    {
        "trees": ["x1", "x2"],
        "records": [{"op": "tree", "tree": 0}, {"op": "tree", "tree": 1}],
        "root": True,
    },
    {
        "trees": ["x1", "x2"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "tree", "tree": 1},
            {"op": "crossover", "parent1": True, "parent2": 0, "tr": 0.5},
        ],
        "root": 2,
    },
    # Weights are finite numbers: not strings, booleans, NaN or infinities.
    {
        "trees": ["x1", "x2"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "tree", "tree": 1},
            {"op": "crossover", "parent1": 0, "parent2": 1, "tr": "0.5"},
        ],
        "root": 2,
    },
    {
        "trees": ["x1", "x2"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "tree", "tree": 1},
            {"op": "crossover", "parent1": 0, "parent2": 1, "tr": True},
        ],
        "root": 2,
    },
    {
        "trees": ["x1"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "mutation", "parent": 0, "r1": 0, "r2": 0, "ms": "nan"},
        ],
        "root": 1,
    },
    {
        "trees": ["x1"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "mutation", "parent": 0, "r1": 0, "r2": 0, "ms": math.nan},
        ],
        "root": 1,
    },
    {
        "trees": ["x1", "x2"],
        "records": [
            {"op": "tree", "tree": 0},
            {"op": "tree", "tree": 1},
            {"op": "crossover", "parent1": 0, "parent2": 1, "tr": -math.inf},
        ],
        "root": 2,
    },
]


class TestPersistence:
    def round_trip(self, root, sem, train, test):
        """The archive of the record root, whose vector sem it replays on train and test."""
        payload = archive_individual(root)
        assert_replays(payload, train, sem[: len(train)])
        assert_replays(payload, test, sem[len(train) :])
        return payload

    def test_round_trip_after_small_run(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(population_size=10, generations=4), train, test, seed=23)
        payload = self.round_trip(res.ancestry, res.semantics, train, test)
        assert set(payload) == {"trees", "records", "root"}
        assert all(isinstance(t, str) for t in payload["trees"])

    def test_payload_is_json_safe(self, table1_split):
        import json

        train, test = table1_split
        res = evolve(GsgpConfig(population_size=8, generations=3), train, test, seed=29)
        payload = archive_individual(res.ancestry)
        restored = json.loads(json.dumps(payload))
        assert_replays(restored, train, res.semantics[:28])

    def test_initial_individual_round_trip(self, table1_split):
        train, test = table1_split
        t = binop("div", variable(3), variable(8))
        sem = eval_matrix(t, stacked(train, test))
        payload = self.round_trip(TreeOrigin(t), sem, train, test)
        assert payload["trees"] == [to_infix(t)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 20), st.integers(0, 6))
    def test_replay_equals_stored_semantics(self, seed, pop_size, generations):
        train, test = split(builtin_table1(), SplitSpec(28))
        cfg = GsgpConfig(population_size=pop_size, generations=generations)
        res = evolve(cfg, train, test, seed=seed)
        self.round_trip(res.ancestry, res.semantics, train, test)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 20), st.integers(0, 6))
    def test_load_ancestry_inverts_archive(self, seed, pop_size, generations):
        train, test = split(builtin_table1(), SplitSpec(28))
        cfg = GsgpConfig(population_size=pop_size, generations=generations)
        res = evolve(cfg, train, test, seed=seed)
        payload = json.loads(json.dumps(archive_individual(res.ancestry)))
        assert archive_individual(load_ancestry(payload)) == payload

    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
    def test_malformed_payload_rejected(self, payload, table1_split, monkeypatch):
        """Every fault is found before any row is evaluated."""

        def no_eval(*args):
            pytest.fail("eval_matrix was called on a malformed payload")

        monkeypatch.setattr(gsgp_module, "eval_matrix", no_eval)
        train, _ = table1_split
        with pytest.raises(GsgpError):
            replay_semantics(payload, train)


    @pytest.mark.parametrize(
        "record",
        [
            {"op": "crossover", "parent1": 0, "parent2": 0, "tr": "half"},
            {"op": "mutation", "parent": 0, "r1": 0, "r2": 0, "ms": "tiny"},
        ],
        ids=["tr", "ms"],
    )
    def test_non_numeric_weight_rejected(self, record, table1_split):
        train, _ = table1_split
        payload = {"trees": ["x1"], "records": [{"op": "tree", "tree": 0}, record], "root": 1}
        with pytest.raises(GsgpError, match="^malformed model record 1: could not convert"):
            replay_semantics(payload, train)


def replay_keep_all(payload: dict, ds: Dataset) -> np.ndarray:
    """Oracle: the ancestry replayed record by record, keeping every vector
    until it returns. Its arithmetic is that of each record's `apply`, so
    on the rows a model evolved on it gives the stored semantics bit for
    bit."""
    try:
        trees = [parse_infix(text) for text in payload["trees"]]
        records = payload["records"]
        root = payload["root"]
    except (KeyError, TypeError, ParseError) as exc:
        raise GsgpError(f"malformed model payload: {exc}") from None
    if isinstance(root, bool) or not isinstance(root, int) or not 0 <= root < len(records):
        raise GsgpError(f"model root {root!r} out of range")

    def index(i):
        if isinstance(i, bool) or not isinstance(i, int):
            raise TypeError(f"index {i!r} is not an integer")
        return i

    def weight(w):
        if isinstance(w, bool) or not isinstance(w, (int, float)) or not math.isfinite(w):
            raise ValueError(f"could not convert {w!r} to a finite weight")
        return float(w)

    tree_sem = {}

    def sem_of_tree(i):
        if not 0 <= index(i) < len(trees):
            raise GsgpError(f"tree index {i!r} out of range")
        if i not in tree_sem:
            tree_sem[i] = eval_matrix(trees[i], ds.features)
        return tree_sem[i]

    out = []
    for pos, rec in enumerate(records):
        try:
            op = rec["op"]
            if op == "tree":
                sem = sem_of_tree(rec["tree"])
            elif op == "crossover":
                p1, p2 = index(rec["parent1"]), index(rec["parent2"])
                if not (0 <= p1 < pos and 0 <= p2 < pos):
                    raise GsgpError(f"record {pos} references a later record")
                tr = weight(rec["tr"])
                sem = tr * out[p1] + (1.0 - tr) * out[p2]
            elif op == "mutation":
                p = index(rec["parent"])
                if not 0 <= p < pos:
                    raise GsgpError(f"record {pos} references a later record")
                ms = weight(rec["ms"])
                delta = sigmoid(sem_of_tree(rec["r1"])) - sigmoid(sem_of_tree(rec["r2"]))
                sem = out[p] + ms * delta
            else:
                raise GsgpError(f"unknown record op {op!r}")
        except GsgpError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise GsgpError(f"malformed model record {pos}: {exc}") from None
        out.append(sem)
    return out[root]


def replay_outcome(replay, payload, ds):
    """The replayed vector, or the message of the GsgpError raised."""
    try:
        return replay(payload, ds)
    except GsgpError as exc:
        return str(exc)


REPLAY_TREES = ["x1", "(x2 * x3)", "(x4 - x5)", "(x8 /p x3)"]


@st.composite
def valid_payloads(draw):
    """Archive payloads whose records read random earlier records and trees."""
    n_trees = draw(st.integers(1, len(REPLAY_TREES)))
    tree = st.integers(0, n_trees - 1)
    records = [{"op": "tree", "tree": draw(tree)}]
    for pos in range(1, draw(st.integers(1, 14))):
        parent = st.integers(0, pos - 1)
        op = draw(st.sampled_from(["tree", "crossover", "mutation"]))
        if op == "tree":
            records.append({"op": "tree", "tree": draw(tree)})
        elif op == "crossover":
            records.append(
                {
                    "op": op, "parent1": draw(parent), "parent2": draw(parent),
                    "tr": draw(st.floats(0, 1)),
                }
            )
        else:
            records.append(
                {
                    "op": op, "parent": draw(parent), "r1": draw(tree), "r2": draw(tree),
                    "ms": draw(st.floats(0.01, 1)),
                }
            )
    root = draw(st.integers(0, len(records) - 1))
    return {"trees": REPLAY_TREES[:n_trees], "records": records, "root": root}


# Every sharing shape at once: tree 0 is read by a tree record and by a
# mutation, record 1 by three records, record 2 twice by one crossover,
# record 4 mutates with r1 == r2, and records 6 and 8 are read by none.
SHARED_PAYLOAD = {
    "trees": REPLAY_TREES[:3],
    "records": [
        {"op": "tree", "tree": 0},
        {"op": "tree", "tree": 1},
        {"op": "mutation", "parent": 0, "r1": 0, "r2": 2, "ms": 0.1},
        {"op": "crossover", "parent1": 2, "parent2": 2, "tr": 0.3},
        {"op": "mutation", "parent": 1, "r1": 1, "r2": 1, "ms": 0.2},
        {"op": "crossover", "parent1": 3, "parent2": 1, "tr": 0.6},
        {"op": "tree", "tree": 2},
        {"op": "mutation", "parent": 5, "r1": 2, "r2": 0, "ms": 0.05},
        {"op": "crossover", "parent1": 7, "parent2": 1, "tr": 0.25},
    ],
    "root": 8,
}


def term_scale(payload: dict, ds: Dataset) -> np.ndarray:
    """Each row's Σ |w·T(x)| + |c·σ(T(x))| over the terms of payload's linear form."""
    scale = np.zeros(len(ds))
    with np.errstate(all="ignore"):
        for tree, w, c in linear_form(load_ancestry(payload)):
            values = eval_matrix(tree, ds.features)
            if w is not None:
                scale += np.abs(w * values)
            if c is not None:
                scale += np.abs(c * sigmoid(values))
    return scale


def assert_near_ancestry(got, payload, ds, same_non_finite=True):
    """got is the ancestry's replay on ds up to rounding: the same finite rows,
    each within 1e-12 · `term_scale`, and, with same_non_finite, the same NaN
    and ±inf rows."""
    with np.errstate(all="ignore"):
        want = replay_keep_all(payload, ds)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    if same_non_finite:
        assert same_bits(got[~finite], want[~finite])
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * term_scale(payload, ds)[finite])


def assert_replays(payload, ds, stored):
    """The archive replays to the stored semantics on ds: the ancestry oracle
    bit for bit, and replay_semantics up to rounding."""
    with np.errstate(all="ignore"):
        assert same_bits(replay_keep_all(payload, ds), stored)
    assert_near_ancestry(replay_semantics(payload, ds), payload, ds)


def drawable_weights(payload: dict) -> bool:
    """Every crossover weight lies in [2^-53, 1 − 2^-53], as every tr that
    `draw_crossover` draws does but 0 (probability 2^-53)."""
    return all(
        2.0**-53 <= rec["tr"] <= 1.0 - 2.0**-53
        for rec in payload["records"]
        if rec["op"] == "crossover"
    )


class TestReplayFreesVectors:
    """replay_semantics keeps no record's vector: it sums one term per tree.
    That gives the keep-everything replay's values up to rounding, and its
    errors exactly."""

    @settings(max_examples=200, deadline=None)
    @given(valid_payloads())
    def test_matches_keep_all_oracle(self, payload):
        """On table 1 and on table 1 × 1e200. A crossover weight of 0 or 1,
        or weights whose product underflows to 0, can turn the ancestry's
        0·∞ = NaN into ±∞ or back (see `test_zero_weight_can_turn_nan_into_inf`),
        so the NaN and ±inf rows are compared only for drawable weights."""
        table = builtin_table1()
        for ds in (table, Dataset(table.features * 1e200)):
            got = replay_semantics(payload, ds)
            assert_near_ancestry(got, payload, ds, same_non_finite=drawable_weights(payload))

    def test_zero_weight_can_turn_nan_into_inf(self, huge_split):
        """tr = 0 with both parents one record: the ancestry computes
        0·∞ + 1·∞ = NaN, the linear form (0 + 1)·∞ = ∞."""
        train, _ = huge_split
        payload = {
            "trees": ["(x2 * x3)"],
            "records": [
                {"op": "tree", "tree": 0},
                {"op": "crossover", "parent1": 0, "parent2": 0, "tr": 0.0},
            ],
            "root": 1,
        }
        with np.errstate(all="ignore"):
            want = replay_keep_all(payload, train)
            overflowed = np.isinf(eval_matrix(parse_infix("(x2 * x3)"), train.features))
        got = replay_semantics(payload, train)
        assert overflowed.any()
        assert np.isnan(want[overflowed]).all()
        assert same_bits(got[overflowed], np.full(overflowed.sum(), np.inf))
        assert_near_ancestry(got, payload, train, same_non_finite=False)

    @pytest.mark.parametrize("root", range(len(SHARED_PAYLOAD["records"])))
    def test_shared_reads_match_oracle_at_every_root(self, root, table1):
        payload = {**SHARED_PAYLOAD, "root": root}
        assert_near_ancestry(replay_semantics(payload, table1), payload, table1)

    @pytest.mark.parametrize(
        "payload", [p for p in MALFORMED_PAYLOADS if isinstance(p.get("records"), list)]
    )
    def test_malformed_outcome_matches_oracle(self, payload, table1):
        got = replay_outcome(replay_semantics, payload, table1)
        want = replay_outcome(replay_keep_all, payload, table1)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_only_records_the_root_reaches_are_evaluated(self, table1, monkeypatch):
        evaluated = []

        def counted(t, X):
            evaluated.append(to_infix(t))
            return eval_matrix(t, X)

        monkeypatch.setattr(gsgp_module, "eval_matrix", counted)
        replay_semantics({**SHARED_PAYLOAD, "root": 4}, table1)  # reads records 1 and 4
        assert evaluated == [REPLAY_TREES[1]]

    def test_peak_memory_bounded_by_live_width(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(population_size=100, generations=20), train, test, seed=1)
        payload = archive_individual(res.ancestry)
        rng = Random(5)
        lo, hi = train.features.min(axis=0), train.features.max(axis=0)
        wide = Dataset(
            tuple(
                Sample(*(rng.uniform(float(a), float(b)) for a, b in zip(lo, hi)))
                for _ in range(5000)
            )
        )
        tracemalloc.start()
        try:
            replay_semantics(payload, wide)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        keep_all = (len(payload["records"]) + len(payload["trees"])) * len(wide) * 8
        assert peak < 0.25 * keep_all


class TestLinearForm:
    def test_shared_payload_terms(self):
        """SHARED_PAYLOAD's root: r8 = 0.25·r7 + 0.75·r1, r7 = r5 + 0.05·(σ(t2) − σ(t0)),
        r5 = 0.6·r3 + 0.4·r1, r3 = 0.3·r2 + 0.7·r2 and r2 = r0 + 0.1·(σ(t0) − σ(t2)).
        So record 1 is reached twice, and tree 0 both as an initial tree and as
        a perturbation tree. The terms come in the order the walk first
        reaches their trees."""
        terms = linear_form(load_ancestry(SHARED_PAYLOAD))
        assert [to_infix(t) for t, _, _ in terms] == ["(x4 - x5)", "x1", "(x2 * x3)"]
        w0 = 0.25 * 0.6 * (0.3 + 0.7)
        want = [
            (None, 0.25 * 0.05 - w0 * 0.1),
            (w0, w0 * 0.1 - 0.25 * 0.05),
            (0.75 + 0.25 * 0.4, None),
        ]
        for got, expected in zip([term[1:] for term in terms], want):
            for value, want_value in zip(got, expected):
                if want_value is None:
                    assert value is None
                else:
                    assert value == pytest.approx(want_value, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 20), st.integers(0, 6))
    def test_weights_of_an_evolved_model_sum_to_one(self, seed, pop_size, generations):
        """Crossovers are convex, so the initial trees' weights sum to 1, and
        each mutation moves Σ c by +w·ms − w·ms = 0."""
        train, test = split(builtin_table1(), SplitSpec(28))
        cfg = GsgpConfig(population_size=pop_size, generations=generations)
        terms = linear_form(evolve(cfg, train, test, seed).ancestry)
        weights = [w for _, w, _ in terms if w is not None]
        coefficients = [c for _, _, c in terms if c is not None]
        assert all(w >= 0 for w in weights)
        assert math.fsum(weights) == pytest.approx(1.0, rel=1e-12)
        assert abs(math.fsum(coefficients)) <= 1e-12


def uniform_rows(n: int, seed: int) -> Dataset:
    """n unlabeled rows drawn uniformly within the built-in table's feature ranges."""
    cols = builtin_table1().features
    lo, hi = cols.min(axis=0), cols.max(axis=0)
    rng = Random(seed)
    ds = Dataset(
        tuple(
            Sample(*(rng.uniform(float(a), float(b)) for a, b in zip(lo, hi)))
            for _ in range(n)
        )
    )
    return ds


@pytest.fixture(scope="module")
def seed1_payload(table1_split):
    """The archived best of pop 100 x 20 generations at seed 1."""
    train, test = table1_split
    res = evolve(GsgpConfig(population_size=100, generations=20), train, test, seed=1)
    return archive_individual(res.ancestry)


@pytest.fixture(scope="module")
def wide_rows():
    return uniform_rows(8193, seed=0)


# A malformed record after valid ones, so load_ancestry has built some
# records when it fails.
LATE_FAULT_PAYLOAD = {
    **SHARED_PAYLOAD,
    "records": SHARED_PAYLOAD["records"][:6] + [{"op": "mutation", "parent": 5, "r1": 9}],
    "root": 5,
}


class TestBlockedReplay:
    """Replay acts on each row alone: a block of rows, any rows in any order,
    replays bit for bit as those rows of one replay of all of them, and a
    malformed payload fails with the same message whatever the rows."""

    @pytest.mark.parametrize("n_rows", [1, 4095, 4096, 4097, 8193])
    def test_matches_single_block_oracle(self, n_rows, seed1_payload, wide_rows):
        rows = Random(n_rows).sample(range(len(wide_rows)), n_rows)
        block = Dataset(wide_rows.features[rows])
        for payload in (seed1_payload, SHARED_PAYLOAD):
            whole = replay_semantics(payload, wide_rows)
            assert same_bits(replay_semantics(payload, block), whole[rows])
            assert_near_ancestry(whole, payload, wide_rows)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.integers(0, 67), min_size=1, max_size=80))
    def test_any_rows_replay_as_within_all_rows(self, rows, seed1_payload):
        """Rows repeated or in any order; table 1's rows, then its rows × 1e200,
        whose values overflow."""
        table = builtin_table1().features
        every = Dataset(np.vstack([table, table * 1e200]))
        for payload in (seed1_payload, SHARED_PAYLOAD):
            got = replay_semantics(payload, Dataset(every.features[rows]))
            assert same_bits(got, replay_semantics(payload, every)[rows])

    @settings(max_examples=100, deadline=None)
    @given(valid_payloads())
    def test_same_bits_on_column_major_rows(self, payload):
        """`predict` replays column-major rows, every other caller row-major
        ones; the layout changes no bit. Table 1's rows, then × 1e200."""
        table = builtin_table1().features
        rows = np.vstack([table, table * 1e200])
        want = replay_semantics(payload, Dataset(rows))
        assert same_bits(replay_semantics(payload, Dataset(np.asfortranarray(rows))), want)

    def test_trained_model_same_bits_on_column_major_rows(self, seed1_payload, wide_rows):
        column_major = Dataset(np.asfortranarray(wide_rows.features))
        assert column_major.features.flags.f_contiguous
        assert same_bits(
            replay_semantics(seed1_payload, column_major),
            replay_semantics(seed1_payload, wide_rows),
        )

    @pytest.mark.parametrize(
        "payload",
        [p for p in MALFORMED_PAYLOADS if isinstance(p.get("records"), list)]
        + [LATE_FAULT_PAYLOAD],
    )
    def test_malformed_message_same_on_many_blocks(self, payload, table1, wide_rows):
        one_block = replay_outcome(replay_semantics, payload, table1)
        assert isinstance(one_block, str)
        assert replay_outcome(replay_semantics, payload, wide_rows) == one_block

    @pytest.mark.parametrize("name", ["seed1", "shared-root-4"])
    def test_each_tree_evaluated_and_squashed_once(self, name, seed1_payload, monkeypatch):
        """Every tree the root reaches is evaluated once, and every
        perturbation tree squashed once, also a tree read both ways (root 4
        of SHARED_PAYLOAD); no other tree is evaluated."""
        payload = seed1_payload if name == "seed1" else {**SHARED_PAYLOAD, "root": 4}
        evaluated, squashed = Counter(), Counter()
        text_of = {}  # id of a tree's values -> the tree's text; values kept alive

        def counted_eval(t, X):
            values = eval_matrix(t, X)
            text_of[id(values)] = (to_infix(t), values)
            evaluated[to_infix(t)] += 1
            return values

        def counted_sigmoid(v):
            squashed[text_of[id(v)][0]] += 1
            return sigmoid(v)

        monkeypatch.setattr(gsgp_module, "eval_matrix", counted_eval)
        monkeypatch.setattr(gsgp_module, "sigmoid", counted_sigmoid)
        replay_semantics(payload, uniform_rows(100, 11))
        reached, perturbations = {}, {}  # id(tree) -> tree
        for rec in _post_order(load_ancestry(payload)):
            if isinstance(rec, TreeOrigin):
                reached[id(rec.tree)] = rec.tree
            elif isinstance(rec, MutationOrigin):
                perturbations.update({id(rec.r1): rec.r1, id(rec.r2): rec.r2})
        assert perturbations
        assert evaluated == Counter(to_infix(t) for t in {**reached, **perturbations}.values())
        assert squashed == Counter(to_infix(t) for t in perturbations.values())

    def test_peak_memory_per_row_bounded_by_term_depth(self, seed1_payload):
        """Each added row costs at most (deepest term's depth + 4) vectors:
        the output, one tree's values and temporaries, and sigmoid's."""

        def peak(n_rows: int) -> int:
            ds = uniform_rows(n_rows, seed=3)
            tracemalloc.start()
            try:
                replay_semantics(seed1_payload, ds)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        depth = max(tree.depth for tree, _, _ in linear_form(load_ancestry(seed1_payload)))
        assert peak(40_000) - peak(4096) <= (depth + 4) * 8 * (40_000 - 4096)
