"""Semantic engine: operators, evolution loop, lineage, persistence."""

import hashlib
import json
import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slumpgp.gsgp as gsgp_module
from slumpgp.dataset import Dataset, Sample, SplitSpec, builtin_table1, split
from slumpgp.expr import ExprTree, GenMethod, binop, to_infix, variable
from slumpgp.gsgp import (
    BudgetExceeded,
    CrossoverOrigin,
    GsgpConfig,
    GsgpError,
    Individual,
    MutationOrigin,
    TreeOrigin,
    archive_individual,
    estimate_size,
    evolve,
    fitness,
    geometric_crossover,
    geometric_mutation,
    reconstruct,
    replay_semantics,
    semantics_of,
    tournament_select,
)

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
    sem = np.asarray(train_sem, dtype=float)
    return Individual(
        train_semantics=sem,
        test_semantics=np.asarray(test_sem, dtype=float),
        train_fitness=fitness(sem, ds.targets),
        ancestry=TreeOrigin(variable(1)),
    )


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
    def test_water_column(self, table1):
        water = semantics_of(variable(3), table1)
        assert water.shape == (34,)
        assert water[:3].tolist() == [180.0, 180.0, 190.0]
        assert np.array_equal(water, table1.features[:, 2])

    def test_self_subtraction_is_zero(self, table1):
        t = binop("sub", variable(1), variable(1))
        assert np.array_equal(semantics_of(t, table1), np.zeros(34))

    def test_single_row_dataset(self):
        ds = tiny_dataset(targets=(5.0,))
        assert semantics_of(variable(3), ds).tolist() == [180.0]


class TestGeometricCrossover:
    def test_midpoint(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 3.0], [1.0, 3.0], ds)
        p2 = raw_individual([3.0, 1.0], [3.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.5), ds)
        assert child.train_semantics.tolist() == [2.0, 2.0]
        assert child.test_semantics.tolist() == [2.0, 2.0]
        assert child.train_fitness == 0.0

    def test_endpoint_tr_one_copies_first_parent(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.25, 3.5], [0.5, 9.0], ds)
        p2 = raw_individual([7.0, -2.0], [4.0, 4.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(1.0 - 1e-17), ds)
        # u rounds to 1.0, so the blend is exactly p1
        assert np.array_equal(child.train_semantics, p1.train_semantics)
        assert np.array_equal(child.test_semantics, p1.test_semantics)

    def test_endpoint_tr_zero_copies_second_parent(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.25, 3.5], [0.5, 9.0], ds)
        p2 = raw_individual([7.0, -2.0], [4.0, 4.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.0), ds)
        assert np.array_equal(child.train_semantics, p2.train_semantics)
        assert np.array_equal(child.test_semantics, p2.test_semantics)

    def test_ancestry_records_parents_and_tr(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 3.0], [1.0, 3.0], ds)
        p2 = raw_individual([3.0, 1.0], [3.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.25), ds)
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
            child = geometric_crossover(p1, p2, rng, ds)
            lo = np.minimum(p1.train_semantics, p2.train_semantics)
            hi = np.maximum(p1.train_semantics, p2.train_semantics)
            assert np.all(child.train_semantics >= lo - 1e-12)
            assert np.all(child.train_semantics <= hi + 1e-12)

    def test_fitness_recomputed(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 3.0], [1.0, 3.0], ds)
        p2 = raw_individual([3.0, 1.0], [3.0, 1.0], ds)
        rng = Random(73)
        for _ in range(50):
            child = geometric_crossover(p1, p2, rng, ds)
            assert child.train_fitness == pytest.approx(
                fitness(child.train_semantics, ds.targets), abs=1e-12
            )


class TestGeometricMutation:
    def test_displacement_formula(self):
        # offspring = parent + ms•(s1 - s2), e.g. (1,1) with squashed
        # perturbations (0.6,0.2) and (0.1,0.7) at ms=0.1 -> (1.05, 0.95)
        parent = np.array([1.0, 1.0])
        moved = parent + 0.1 * (np.array([0.6, 0.2]) - np.array([0.1, 0.7]))
        assert moved == pytest.approx([1.05, 0.95], abs=1e-15)

    def test_engine_matches_formula_bitwise(self):
        from slumpgp.expr import sigmoid

        train, test = split(builtin_table1(), SplitSpec(28))
        rng = Random(79)
        p = raw_individual(np.linspace(100, 150, 28), np.linspace(100, 150, 6), train)
        for _ in range(50):
            child = geometric_mutation(p, 0.1, rng, train, test)
            rec = child.ancestry
            assert isinstance(rec, MutationOrigin)
            delta = sigmoid(semantics_of(rec.r1, train)) - sigmoid(semantics_of(rec.r2, train))
            assert np.array_equal(child.train_semantics, p.train_semantics + 0.1 * delta)

    def test_identical_perturbation_trees_cancel(self, monkeypatch):
        fixed = binop("add", variable(1), variable(2))
        monkeypatch.setattr(
            gsgp_module, "random_tree", lambda rng, gen, force_root_function=False: fixed
        )
        ds = tiny_dataset()
        p = raw_individual([1.0, 2.0], [3.0, 4.0], ds)
        child = geometric_mutation(p, 0.1, Random(0), ds, ds)
        assert np.array_equal(child.train_semantics, p.train_semantics)
        assert np.array_equal(child.test_semantics, p.test_semantics)

    def test_bounded_displacement_fuzz(self):
        train, test = split(builtin_table1(), SplitSpec(28))
        rng = Random(83)
        p = raw_individual(np.zeros(28), np.zeros(6), train)
        for _ in range(200):
            ms = rng.choice([0.01, 0.1, 1.0])
            child = geometric_mutation(p, ms, rng, train, test)
            assert np.max(np.abs(child.train_semantics - p.train_semantics)) <= ms
            assert np.max(np.abs(child.test_semantics - p.test_semantics)) <= ms

    def test_invalid_step_rejected(self):
        ds = tiny_dataset()
        p = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        for bad in (0.0, -0.1):
            with pytest.raises(GsgpError):
                geometric_mutation(p, bad, Random(0), ds, ds)


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
        child = geometric_crossover(broken, finite, FixedRandom(0.5), ds)
        assert math.isnan(child.train_semantics[0])
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
    small = dict(population_size=12, generations=4, rng_seed=5)

    @pytest.mark.parametrize(
        "kwargs, train_fits, test_fits, records, archive_sha256",
        [
            (
                small,
                [1557.0, 1263.1908990198203, 1095.0051105838436, 1095.0051105838436,
                 1093.631742782007],
                [335.0, 291.85040852974987, 268.7425925231021, 268.7425925231021,
                 270.09557233456724],
                12,
                "8dfea932f1c6a440a220cc343fe0d4dbfffd3beaffcd65fcaf5003fc62cf063b",
            ),
            (
                dict(population_size=30, generations=10, rng_seed=7),
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
    def test_pinned_run(self, table1_split, kwargs, train_fits, test_fits, records, archive_sha256):
        """Exact values of small runs; any change to the RNG draw order, the
        operators or the loop moves them."""
        train, test = table1_split
        res = evolve(GsgpConfig(**kwargs), train, test)
        assert [st.train_fitness for st in res.history] == train_fits
        assert [st.test_fitness for st in res.history] == test_fits
        payload = archive_individual(res.best)
        assert len(payload["records"]) == records
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == archive_sha256

    def test_history_length(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(**self.small), train, test)
        assert len(res.history) == 5

    def test_zero_generations_returns_initial_best(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(population_size=10, generations=0, rng_seed=3), train, test)
        assert len(res.history) == 1
        assert res.history[0].train_fitness == res.best.train_fitness
        assert np.array_equal(res.predictions, res.best.test_semantics)

    def test_same_seed_identical_results(self, table1_split):
        train, test = table1_split
        r1 = evolve(GsgpConfig(**self.small), train, test)
        r2 = evolve(GsgpConfig(**self.small), train, test)
        assert r1.history == r2.history
        assert np.array_equal(r1.predictions, r2.predictions)

    def test_best_train_fitness_non_increasing(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(population_size=30, generations=10, rng_seed=7), train, test)
        fits = [st.train_fitness for st in res.history]
        assert all(a >= b for a, b in zip(fits, fits[1:]))

    def test_best_fitness_recomputation(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(**self.small), train, test)
        assert res.best.train_fitness == pytest.approx(
            fitness(res.best.train_semantics, train.targets), abs=1e-12
        )

    def test_unlabeled_test_set_gives_nan_test_stats(self, table1_split):
        train, _ = table1_split
        plain = Dataset(
            tuple(
                Sample(*s.features(), slump=None)
                for s in builtin_table1().samples[28:]
            )
        )
        res = evolve(GsgpConfig(population_size=8, generations=2, rng_seed=1), train, plain)
        assert math.isnan(res.history[-1].test_fitness)
        assert res.predictions.shape == (6,)

    def test_mean_error_consistent_with_fitness(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(**self.small), train, test)
        last = res.history[-1]
        assert last.train_mean_error == pytest.approx(last.train_fitness / 28, abs=1e-12)


class TestEstimateSize:
    def test_initial_individual_is_tree_size(self):
        t = binop("add", binop("add", variable(1), variable(2)), binop("add", variable(3), variable(4)))
        assert t.size == 7
        ds = tiny_dataset()
        ind = Individual(semantics_of(t, ds), semantics_of(t, ds), fitness(semantics_of(t, ds), ds.targets), TreeOrigin(t))
        assert estimate_size(ind) == 7

    def test_crossover_of_two_leaves(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        p2 = raw_individual([2.0, 1.0], [2.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.5), ds)
        # size(p1) + size(p2) + two Tr constants + four operator nodes
        assert estimate_size(child) == 8

    def test_mutation_of_leaf_with_leaf_perturbations(self, monkeypatch):
        monkeypatch.setattr(
            gsgp_module, "random_tree", lambda rng, gen, force_root_function=False: variable(2)
        )
        ds = tiny_dataset()
        p = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        child = geometric_mutation(p, 0.1, Random(0), ds, ds)
        # parent + two size-1 trees + ms constant + three operator nodes
        assert estimate_size(child) == 7

    def test_monotone_along_lineage(self, table1_split):
        train, test = table1_split
        rng = Random(91)
        pop = [raw_individual(np.full(28, 130.0 + i), np.full(6, 130.0), train) for i in range(4)]
        ind = pop[0]
        prev = estimate_size(ind)
        for _ in range(15):
            if rng.random() < 0.5:
                ind = geometric_crossover(ind, pop[rng.randrange(4)], rng, train)
            else:
                ind = geometric_mutation(ind, 0.1, rng, train, test)
            cur = estimate_size(ind)
            assert cur > prev
            prev = cur


class TestReconstruct:
    def test_initial_returns_tree_verbatim(self):
        t = binop("mul", variable(1), variable(5))
        ds = tiny_dataset()
        sem = semantics_of(t, ds)
        ind = Individual(sem, sem, fitness(sem, ds.targets), TreeOrigin(t))
        assert reconstruct(ind, 100) == t

    def test_budget_exceeded_carries_estimate(self):
        ds = tiny_dataset()
        p1 = raw_individual([1.0, 2.0], [1.0, 2.0], ds)
        p2 = raw_individual([2.0, 1.0], [2.0, 1.0], ds)
        child = geometric_crossover(p1, p2, FixedRandom(0.5), ds)
        out = reconstruct(child, 1)
        assert isinstance(out, BudgetExceeded)
        assert out.estimate == estimate_size(child)

    def test_crossover_chain_reconstruction_is_bitwise(self, table1_split):
        train, test = table1_split
        rng = Random(97)
        res = evolve(
            GsgpConfig(population_size=10, generations=4, rng_seed=17), train, test
        )
        tree = reconstruct(res.best, 10**9)
        assert not isinstance(tree, BudgetExceeded)
        assert np.array_equal(semantics_of(tree, train), res.best.train_semantics)
        assert np.array_equal(semantics_of(tree, test), res.best.test_semantics)

    def test_reconstruction_equivalence_fuzz(self, table1_split):
        train, test = table1_split
        rng = Random(201)
        for _ in range(6):
            cfg = GsgpConfig(
                population_size=rng.randrange(4, 11),
                generations=rng.randrange(0, 6),
                tournament_size=2,
                rng_seed=rng.randrange(10**6),
            )
            res = evolve(cfg, train, test)
            tree = reconstruct(res.best, 10**9)
            assert not isinstance(tree, BudgetExceeded)
            diff = np.abs(semantics_of(tree, train) - res.best.train_semantics)
            assert diff.max() <= 1e-9


    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 8), st.integers(0, 4))
    def test_reconstructed_size_is_node_count(self, seed, pop_size, generations):
        train, test = split(builtin_table1(), SplitSpec(28))
        cfg = GsgpConfig(population_size=pop_size, generations=generations, rng_seed=seed)
        res = evolve(cfg, train, test)
        tree = reconstruct(res.best, 10**6)
        assert not isinstance(tree, BudgetExceeded)
        assert tree.size == count_nodes(tree)


class TestPersistence:
    def round_trip(self, ind, train, test):
        payload = archive_individual(ind)
        assert np.array_equal(replay_semantics(payload, train), ind.train_semantics)
        assert np.array_equal(replay_semantics(payload, test), ind.test_semantics)
        return payload

    def test_round_trip_after_small_run(self, table1_split):
        train, test = table1_split
        res = evolve(GsgpConfig(population_size=10, generations=4, rng_seed=23), train, test)
        payload = self.round_trip(res.best, train, test)
        assert set(payload) == {"trees", "records", "root"}
        assert all(isinstance(t, str) for t in payload["trees"])

    def test_payload_is_json_safe(self, table1_split):
        import json

        train, test = table1_split
        res = evolve(GsgpConfig(population_size=8, generations=3, rng_seed=29), train, test)
        payload = archive_individual(res.best)
        restored = json.loads(json.dumps(payload))
        assert np.array_equal(replay_semantics(restored, train), res.best.train_semantics)

    def test_initial_individual_round_trip(self, table1_split):
        train, test = table1_split
        t = binop("div", variable(3), variable(8))
        sem = semantics_of(t, train)
        ind = Individual(sem, semantics_of(t, test), fitness(sem, train.targets), TreeOrigin(t))
        payload = self.round_trip(ind, train, test)
        assert payload["trees"] == [to_infix(t)]

    @pytest.mark.parametrize(
        "payload",
        [
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
        ],
    )
    def test_malformed_payload_rejected(self, payload, table1_split):
        train, _ = table1_split
        with pytest.raises(GsgpError):
            replay_semantics(payload, train)
