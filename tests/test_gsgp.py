"""Semantic engine: operators, evolution loop, lineage, persistence."""

import hashlib
import json
import math
import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slumpgp.gsgp as gsgp_module
from slumpgp.dataset import Dataset, Sample, SplitSpec, builtin_table1, split
from slumpgp.expr import (
    ExprTree,
    GenMethod,
    ParseError,
    binop,
    eval_matrix,
    parse_infix,
    sigmoid,
    to_infix,
    variable,
)
from slumpgp.gsgp import (
    BudgetExceeded,
    CrossoverOrigin,
    GsgpConfig,
    GsgpError,
    REPLAY_ROWS,
    Individual,
    MutationOrigin,
    TreeOrigin,
    archive_individual,
    estimate_size,
    evolve,
    fitness,
    geometric_crossover,
    geometric_mutation,
    load_ancestry,
    reconstruct,
    replay_semantics,
    tournament_select,
)
from test_expr import same_bits

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
            gsgp_module, "random_tree", lambda rng, gen, force_root_function=False: fixed
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
    def population(self, fits, ds):
        """Individuals whose train_fitness equals fits: target + f/2 on both rows."""
        pop = [raw_individual(ds.targets + f / 2, ds.targets + f / 2, ds) for f in fits]
        assert [ind.train_fitness for ind in pop] == fits
        return pop

    def test_exhaustive_tournament_returns_global_best(self):
        ds = tiny_dataset(targets=(1000.0, 1000.0))
        pop = self.population([5.0, 1.0, 3.0, 4.0], ds)
        assert tournament_select(pop, 4, Random(0)) == 1

    def test_population_of_one(self):
        ds = tiny_dataset(targets=(1000.0, 1000.0))
        pop = self.population([5.0], ds)
        assert tournament_select(pop, 1, Random(0)) == 0

    def test_tie_breaks_to_lowest_index(self):
        ds = tiny_dataset(targets=(1000.0, 1000.0))
        pop = self.population([7.0, 7.0, 7.0], ds)
        assert tournament_select(pop, 3, Random(9)) == 0

    def test_deterministic_under_seed(self):
        ds = tiny_dataset(targets=(1000.0, 1000.0))
        pop = self.population([3.0, 9.0, 1.0, 4.0, 8.0, 2.0], ds)
        picks_a = [tournament_select(pop, 2, Random(55)) for _ in range(20)]
        picks_b = [tournament_select(pop, 2, Random(55)) for _ in range(20)]
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
        pop = [child] + self.population([5.0, 1.0, 3.0], ds)
        for seed in range(20):
            assert tournament_select(pop, len(pop), Random(seed)) == 2

    def test_invalid_k(self):
        ds = tiny_dataset(targets=(1000.0, 1000.0))
        pop = self.population([1.0, 2.0], ds)
        for k in (0, 3):
            with pytest.raises(GsgpError):
                tournament_select(pop, k, Random(0))


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
        pop = [Individual(semantics=None, train_fitness=f, ancestry=None) for f in fits]
        mine, oracle = Random(seed), Random(seed)
        for _ in range(10):
            want = min(oracle.sample(range(n), k), key=lambda i: (fits[i], i))
            assert tournament_select(pop, k, mine) == want
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
        payload = archive_individual(res.best)
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
        assert res.history[0].train_fitness == res.best.train_fitness
        assert np.array_equal(res.predictions, res.best.semantics[28:])

    def test_same_seed_identical_results(self, table1_split):
        train, test = table1_split
        r1 = evolve(GsgpConfig(**self.small), train, test, seed=self.seed)
        r2 = evolve(GsgpConfig(**self.small), train, test, seed=self.seed)
        assert r1.history == r2.history
        assert np.array_equal(r1.predictions, r2.predictions)

    def test_best_train_fitness_non_increasing(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(population_size=30, generations=10), train, test, seed=7)
        fits = [st.train_fitness for st in res.history]
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_best_fitness_recomputation(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(**self.small), train, test, seed=self.seed)
        assert res.best.train_fitness == pytest.approx(
            fitness(res.best.semantics[:28], train.targets), abs=1e-12
        )

    def test_observer_sees_each_population_and_changes_nothing(self, table1_split, monkeypatch):
        train, test = table1_split
        plain = evolve(GsgpConfig(**self.small), train, test, seed=self.seed)
        seen = []
        loop = gsgp_module.run_generations
        monkeypatch.setattr(
            gsgp_module,
            "run_generations",
            lambda *args, **kwargs: loop(*args, **kwargs, observer=lambda pop: seen.append(pop)),
        )
        observed = evolve(GsgpConfig(**self.small), train, test, seed=self.seed)
        assert observed.history == plain.history
        assert archive_individual(observed.best) == archive_individual(plain.best)
        assert [len(pop) for pop in seen] == [12] * 4
        for pop, row in zip(seen, observed.history[1:]):
            assert min(ind.train_fitness for ind in pop) == row.train_fitness
        assert any(ind is observed.best for ind in seen[-1])

    def test_unlabeled_test_set_gives_nan_test_stats(self, table1_split):
        train, _ = table1_split
        plain = Dataset(
            tuple(
                Sample(*s.features(), slump=None)
                for s in builtin_table1().samples[28:]
            )
        )
        res = evolve(GsgpConfig(population_size=8, generations=2), train, plain, seed=1)
        assert math.isnan(res.history[-1].test_fitness)
        assert res.predictions.shape == (6,)


class TestEstimateSize:
    def test_initial_individual_is_tree_size(self):
        t = binop("add", binop("add", variable(1), variable(2)), binop("add", variable(3), variable(4)))
        assert t.size == 7
        ds = tiny_dataset()
        sem = eval_matrix(t, ds.features)
        ind = Individual(sem, fitness(sem, ds.targets), TreeOrigin(t))
        assert estimate_size(ind) == 7

    def test_crossover_of_two_leaves(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        p2 = raw_individual([2.0, 1.0], [2.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.5), ds.targets)
        # (x1 * tr) + (comp * x1): two leaves, add, two mul, two constants
        assert estimate_size(child) == 7

    def test_mutation_of_leaf_with_leaf_perturbations(self, monkeypatch):
        monkeypatch.setattr(
            gsgp_module, "random_tree", lambda rng, gen, force_root_function=False: variable(2)
        )
        ds = tiny_dataset()
        p = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        child = geometric_mutation(p, 0.1, Random(0), stacked(ds, ds), ds.targets)
        # x1 + (ms * (sigmoid(x2) - sigmoid(x2))): three leaves, add, mul,
        # the ms constant, sub, two sigmoid
        assert estimate_size(child) == 9

    def test_monotone_along_lineage(self, table1_split):
        train, test = table1_split
        rng = Random(91)
        pop = [raw_individual(np.full(28, 130.0 + i), np.full(6, 130.0), train) for i in range(4)]
        ind = pop[0]
        prev = estimate_size(ind)
        for _ in range(15):
            if rng.random() < 0.5:
                ind = geometric_crossover(ind, pop[rng.randrange(4)], rng, train.targets)
            else:
                ind = geometric_mutation(ind, 0.1, rng, stacked(train, test), train.targets)
            cur = estimate_size(ind)
            assert cur > prev
            prev = cur


class TestReconstruct:
    def test_initial_returns_tree_verbatim(self):
        t = binop("mul", variable(1), variable(5))
        ds = tiny_dataset()
        sem = eval_matrix(t, ds.features)
        ind = Individual(sem, fitness(sem, ds.targets), TreeOrigin(t))
        assert reconstruct(ind, 100) == t

    def test_budget_exceeded_carries_estimate(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        p2 = raw_individual([2.0, 1.0], [2.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.5), ds.targets)
        out = reconstruct(child, 1)
        assert isinstance(out, BudgetExceeded)
        assert out.estimate == estimate_size(child)

    def test_crossover_chain_reconstruction_is_bitwise(self, table1_split):
        train, test = table1_split
        rng = Random(97)
        res = evolve(GsgpConfig(population_size=10, generations=4), train, test, seed=17)
        tree = reconstruct(res.best, 10**9)
        assert not isinstance(tree, BudgetExceeded)
        assert np.array_equal(eval_matrix(tree, stacked(train, test)), res.best.semantics)

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
            tree = reconstruct(res.best, 10**9)
            assert not isinstance(tree, BudgetExceeded)
            assert np.array_equal(eval_matrix(tree, stacked(train, test)), res.best.semantics)


    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 8), st.integers(0, 4))
    def test_reconstructed_size_is_node_count(self, seed, pop_size, generations):
        train, test = split(builtin_table1(), SplitSpec(28))
        cfg = GsgpConfig(population_size=pop_size, generations=generations)
        res = evolve(cfg, train, test, seed=seed)
        tree = reconstruct(res.best, 10**6)
        assert not isinstance(tree, BudgetExceeded)
        assert tree.size == count_nodes(tree)
        assert estimate_size(res.best) == tree.size


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

    def deep_individual(self):
        leaf = TreeOrigin(variable(1))
        rec = leaf
        for i in range(self.DEPTH):
            if i % 2:
                rec = CrossoverOrigin(parent1=rec, parent2=leaf, tr=0.5)
            else:
                rec = MutationOrigin(parent=rec, r1=variable(2), r2=variable(3), ms=0.1)
        return Individual(np.zeros(1), 0.0, rec)

    def test_estimate_size_and_reconstruct(self):
        ind = self.deep_individual()
        half = self.DEPTH // 2
        # the leaf, 8 nodes per mutation, 6 per crossover (its leaf parent included)
        assert flat_call(estimate_size, ind) == 1 + 8 * half + 6 * half
        tree = flat_call(reconstruct, ind, 10**9)
        assert not isinstance(tree, BudgetExceeded)
        assert tree.size == estimate_size(ind)

    def test_repr_is_bounded(self):
        """Parents are left out of a record's repr, which would otherwise
        print the DAG as a tree."""
        assert len(flat_call(repr, self.deep_individual())) < 1000

    def test_archive_numbers_parents_first(self):
        payload = flat_call(archive_individual, self.deep_individual())
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
    def round_trip(self, ind, train, test):
        payload = archive_individual(ind)
        assert np.array_equal(replay_semantics(payload, train), ind.semantics[: len(train)])
        assert np.array_equal(replay_semantics(payload, test), ind.semantics[len(train) :])
        return payload

    def test_round_trip_after_small_run(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(population_size=10, generations=4), train, test, seed=23)
        payload = self.round_trip(res.best, train, test)
        assert set(payload) == {"trees", "records", "root"}
        assert all(isinstance(t, str) for t in payload["trees"])

    def test_payload_is_json_safe(self, table1_split):
        import json

        train, test = table1_split
        res = evolve(GsgpConfig(population_size=8, generations=3), train, test, seed=29)
        payload = archive_individual(res.best)
        restored = json.loads(json.dumps(payload))
        assert np.array_equal(replay_semantics(restored, train), res.best.semantics[:28])

    def test_initial_individual_round_trip(self, table1_split):
        train, test = table1_split
        t = binop("div", variable(3), variable(8))
        sem = eval_matrix(t, stacked(train, test))
        ind = Individual(sem, fitness(sem[:28], train.targets), TreeOrigin(t))
        payload = self.round_trip(ind, train, test)
        assert payload["trees"] == [to_infix(t)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 20), st.integers(0, 6))
    def test_replay_equals_stored_semantics(self, seed, pop_size, generations):
        train, test = split(builtin_table1(), SplitSpec(28))
        cfg = GsgpConfig(population_size=pop_size, generations=generations)
        self.round_trip(evolve(cfg, train, test, seed=seed).best, train, test)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 20), st.integers(0, 6))
    def test_load_ancestry_inverts_archive(self, seed, pop_size, generations):
        train, test = split(builtin_table1(), SplitSpec(28))
        cfg = GsgpConfig(population_size=pop_size, generations=generations)
        payload = json.loads(json.dumps(archive_individual(evolve(cfg, train, test, seed=seed).best)))
        loaded = Individual(np.empty(0), 0.0, load_ancestry(payload))
        assert archive_individual(loaded) == payload

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
    """Oracle: the replay loop that keeps every vector until it returns."""
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


REPLAY_TREES = ["x1", "(x2 * x3)", "sigmoid((x4 - 0.5))", "(x8 /p x3)"]


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


class TestReplayFreesVectors:
    """replay_semantics drops vectors after their last use; that changes no
    value and no error of the keep-everything replay."""

    @settings(max_examples=200, deadline=None)
    @given(valid_payloads())
    def test_matches_keep_all_oracle(self, payload):
        ds = builtin_table1()
        assert np.array_equal(replay_semantics(payload, ds), replay_keep_all(payload, ds))

    @pytest.mark.parametrize("root", range(len(SHARED_PAYLOAD["records"])))
    def test_shared_reads_match_oracle_at_every_root(self, root, table1):
        payload = {**SHARED_PAYLOAD, "root": root}
        assert np.array_equal(replay_semantics(payload, table1), replay_keep_all(payload, table1))

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
        payload = archive_individual(res.best)
        rng = Random(5)
        lo, hi = train.features.min(axis=0), train.features.max(axis=0)
        wide = Dataset(
            tuple(
                Sample(*(rng.uniform(float(a), float(b)) for a, b in zip(lo, hi)))
                for _ in range(5000)
            )
        )
        wide.features  # built before tracing: the replay's input, not its memory
        tracemalloc.start()
        try:
            replay_semantics(payload, wide)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        keep_all = (len(payload["records"]) + len(payload["trees"])) * len(wide) * 8
        assert peak < 0.25 * keep_all


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
    ds.features  # built here: the replay's input, not its memory
    return ds


@pytest.fixture(scope="module")
def seed1_payload(table1_split):
    """The archived best of pop 100 x 20 generations at seed 1."""
    train, test = table1_split
    res = evolve(GsgpConfig(population_size=100, generations=20), train, test, seed=1)
    return archive_individual(res.best)


# A malformed record after valid ones, so the first block replays some records
# before it fails.
LATE_FAULT_PAYLOAD = {
    **SHARED_PAYLOAD,
    "records": SHARED_PAYLOAD["records"][:6] + [{"op": "mutation", "parent": 5, "r1": 9}],
    "root": 5,
}


class TestBlockedReplay:
    """replay_semantics replays REPLAY_ROWS rows at a time; that changes no
    value and no error of the one-block, keep-everything replay."""

    @pytest.mark.parametrize(
        "n_rows", [1, REPLAY_ROWS - 1, REPLAY_ROWS, REPLAY_ROWS + 1, 2 * REPLAY_ROWS + 1]
    )
    def test_matches_single_block_oracle(self, n_rows, seed1_payload):
        ds = uniform_rows(n_rows, seed=n_rows)
        for payload in (seed1_payload, SHARED_PAYLOAD):
            got = replay_semantics(payload, ds)
            assert same_bits(got, replay_keep_all(payload, ds))

    @pytest.mark.parametrize(
        "payload",
        [p for p in MALFORMED_PAYLOADS if isinstance(p.get("records"), list)]
        + [LATE_FAULT_PAYLOAD],
    )
    def test_malformed_message_same_on_many_blocks(self, payload, table1):
        one_block = replay_outcome(replay_semantics, payload, table1)
        assert isinstance(one_block, str)
        assert replay_outcome(replay_semantics, payload, uniform_rows(2 * REPLAY_ROWS + 1, 7)) == (
            one_block
        )

    def test_peak_memory_does_not_grow_with_rows(self, seed1_payload):
        def peak_beyond_output(n_rows: int) -> int:
            ds = uniform_rows(n_rows, seed=3)
            tracemalloc.start()
            try:
                replay_semantics(seed1_payload, ds)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - n_rows * 8

        assert peak_beyond_output(40_000) <= 1.5 * peak_beyond_output(REPLAY_ROWS)
