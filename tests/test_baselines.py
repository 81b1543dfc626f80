"""Baselines: pinned tree-GP runs, the depth cap, the node memos tree GP
evaluates through, the OLS and LS-SVM solves against independent solvers,
and the LS-SVM's min-max scaling."""

import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slumpgp.baselines as baselines_module
from slumpgp.baselines import (
    RIDGE_JITTER,
    STGP_MUTATION_DEPTH,
    BaselineError,
    StgpConfig,
    _minmax,
    _node_at,
    _ols_coefficients,
    _replace_at,
    _solve_dual,
    ols_outputs,
    stgp_run,
)
from slumpgp.dataset import FEATURE_NAMES, Dataset, builtin_table1
from slumpgp.expr import (
    ExprTree,
    binop,
    eval_matrix,
    eval_memo,
    ramped_half_and_half,
    random_tree,
    to_infix,
    variable,
)
from slumpgp.gsgp import (
    INIT_MAX_DEPTH,
    INIT_MIN_DEPTH,
    fitness,
    run_generations,
    tournament_select,
)
from test_dataset import make_sample
from test_expr import same_bits, tree_depth
from test_gsgp import assert_generations_are_rows_of_one_array, per_vector_individual


def run(table1_split, seed, **kwargs):
    train, test = table1_split
    return stgp_run(StgpConfig(population_size=30, generations=5, **kwargs), train, test, seed=seed)


def test_stgp_overflow_warns_nothing(huge_split):
    """As in GSGP, an overflow inside the engine is a value, not a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(huge_split, seed=42)


class TestStgpPinned:
    """Exact values of small runs; any change to the RNG draw order, the
    operators or the loop moves them."""

    @pytest.mark.parametrize(
        "seed, train_fits, test_fits, best",
        [
            (0, [3401.3699999999994] + [1557.0] * 5, [710.29] + [335.0] * 5, "x3"),
            (1, [1557.0] * 6, [335.0] * 6, "x3"),
            (
                4,
                [1557.0, 1557.0, 1101.5012091308622, 1099.4379328338896,
                 1099.4379328338896, 906.7863210997649],
                [335.0, 335.0, 133.11120372773217, 135.23579653613325,
                 135.23579653613325, 118.68912200683839],
                "((((x3 /p x3) * (x8 - x5)) + ((x1 * x5) + (x4 * x7)))"
                " * ((x2 /p x2) /p ((x7 + x8) + (x3 * x6))))",
            ),
        ],
        ids=["seed0", "seed1", "seed4"],
    )
    def test_history_and_best_tree(self, table1_split, seed, train_fits, test_fits, best):
        res = run(table1_split, seed)
        assert [st.train_fitness for st in res.history] == train_fits
        assert [st.test_fitness for st in res.history] == test_fits
        assert isinstance(res.ancestry, ExprTree)
        assert to_infix(res.ancestry) == best
        train = table1_split[0]
        assert fitness(res.semantics[: len(train)], train.targets) == train_fits[-1]

    def test_depth_capped_run(self, table1_split):
        res = run(table1_split, 3, max_depth=5)
        assert [st.train_fitness for st in res.history] == [
            1350.3699999999994, 1350.3699999999994, 1350.3699999999994,
            1143.7399999999998, 772.0799999999997, 772.0799999999997,
        ]
        assert to_infix(res.ancestry) == "((((x3 - x6) - x6) - x6) - x6)"


def stgp_per_child(cfg: StgpConfig, train: Dataset, test: Dataset, seed: int):
    """Oracle: tree GP's generational loop with each child computed as it is drawn.

    Each offspring is evaluated whole with `eval_matrix`, its depth is
    `tree_depth`'s, and each fitness is its vector's own sum. Returns
    (history as (train, test) pairs, best individual).
    """
    rng = Random(seed)
    X = np.vstack([train.features, test.features])
    k = cfg.tournament_size

    def individual(tree):
        return per_vector_individual(eval_matrix(tree, X), train.targets, tree)

    def capped(tree, fallback):
        return fallback if tree_depth(tree) > cfg.max_depth else individual(tree)

    def best_of(pop):
        return pop[min(range(len(pop)), key=lambda i: (pop[i].train_fitness, i))]

    def stats(best):
        if test.targets is None:
            return best.train_fitness, math.nan
        return best.train_fitness, fitness(best.semantics[len(train) :], test.targets)

    init_hi = min(INIT_MAX_DEPTH, cfg.max_depth)
    init_lo = min(INIT_MIN_DEPTH, init_hi)
    with np.errstate(all="ignore"):
        trees = ramped_half_and_half(rng, cfg.population_size, init_lo, init_hi)
        pop = [individual(t) for t in trees]
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
                    t1, t2 = p1.ancestry, p2.ancestry
                    i1 = rng.randrange(t1.size)
                    i2 = rng.randrange(t2.size)
                    next_pop.append(capped(_replace_at(t1, i1, _node_at(t2, i2)), p1))
                elif draw < cfg.p_crossover + cfg.p_mutation:
                    p = pop[tournament_select(fits, k, rng)]
                    i = rng.randrange(p.ancestry.size)
                    graft = random_tree(rng, STGP_MUTATION_DEPTH)
                    next_pop.append(capped(_replace_at(p.ancestry, i, graft), p))
                else:
                    next_pop.append(pop[tournament_select(fits, k, rng)])
            pop = next_pop
            gen_best = best_of(pop)
            if gen_best.train_fitness < best_ever.train_fitness:
                best_ever = gen_best
            history.append(stats(gen_best))
    return history, best_ever


class TestStgpMatchesPerChild:
    """stgp_run evaluates each generation after drawing it, as one matrix;
    that changes no draw and no bit."""

    CONFIGS = {
        "pop200x30": ({"population_size": 200, "generations": 30}, 3),
        "max-depth5": ({"population_size": 60, "generations": 10, "max_depth": 5}, 5),
        # Seed 5 above rejects no offspring; seed 2 rejects 119 of 590.
        "max-depth5-rejects": ({"population_size": 60, "generations": 10, "max_depth": 5}, 2),
        "elitism3-reproduction": (
            {"population_size": 60, "generations": 12, "p_crossover": 0.5,
             "p_mutation": 0.3, "elitism": 3},
            11,
        ),
        "mutation-only": (
            {"population_size": 40, "generations": 10, "p_crossover": 0.0, "p_mutation": 1.0},
            17,
        ),
    }

    def assert_matches_oracle(self, cfg, train, test, seed):
        res = stgp_run(cfg, train, test, seed)
        history, best = stgp_per_child(cfg, train, test, seed)
        got = np.array([(row.train_fitness, row.test_fitness) for row in res.history])
        assert same_bits(got, np.array(history))
        assert to_infix(res.ancestry) == to_infix(best.ancestry)
        assert same_bits(res.semantics, best.semantics)
        assert res.history[-1].train_fitness == best.train_fitness

    @pytest.mark.parametrize("name", CONFIGS)
    def test_matches_per_child_oracle(self, name, table1_split):
        kwargs, seed = self.CONFIGS[name]
        self.assert_matches_oracle(StgpConfig(**kwargs), *table1_split, seed)

    def test_matches_oracle_on_unlabeled_test_set(self, table1_split):
        train, _ = table1_split
        unlabeled = Dataset(builtin_table1().features[28:])
        self.assert_matches_oracle(
            StgpConfig(population_size=30, generations=5), train, unlabeled, seed=1
        )

    def test_matches_oracle_on_overflowing_features(self, huge_split):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_matches_oracle(
                StgpConfig(population_size=100, generations=10), *huge_split, seed=42
            )

    def test_a_generation_is_rows_of_one_array(self, table1_split, monkeypatch):
        cfg = StgpConfig(population_size=20, generations=4, p_crossover=0.5, elitism=2)
        assert_generations_are_rows_of_one_array(
            monkeypatch, lambda: stgp_run(cfg, *table1_split, seed=9)
        )


class TestStgpRun:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_depth_cap_holds(self, table1_split, seed):
        res = run(table1_split, seed, max_depth=5)
        assert tree_depth(res.ancestry) <= 5

    def test_too_deep_offspring_is_never_evaluated(self, table1_split, monkeypatch):
        """The depth cap rejects an offspring as it is drawn: its operator
        returns None, and eval_memo never sees a tree deeper than max_depth."""
        depths, children = [], []

        def recorded_eval_memo(t, X):
            depths.append(tree_depth(t))
            return eval_memo(t, X)

        def counted(operator):
            def drawn(*args):
                children.append(operator(*args))
                return children[-1]

            return drawn

        def loop(cfg, train, test, seed, first, crossover, mutation, evaluate):
            crossover, mutation = counted(crossover), counted(mutation)
            return run_generations(
                cfg, train, test, seed, first, crossover, mutation, evaluate
            )

        monkeypatch.setattr(baselines_module, "eval_memo", recorded_eval_memo)
        monkeypatch.setattr(baselines_module, "run_generations", loop)
        train, test = table1_split
        cfg = StgpConfig(population_size=60, generations=10, max_depth=5)
        res = stgp_run(cfg, train, test, seed=2)
        assert max(depths) <= 5
        assert children.count(None) >= 1
        # Generation 0 and every offspring kept are evaluated, nothing else.
        assert len(depths) == 60 + len(children) - children.count(None)
        assert tree_depth(res.ancestry) <= 5

    def test_predictions_are_best_test_semantics(self, table1_split):
        train, test = table1_split
        res = run(table1_split, 4)
        with np.errstate(all="ignore"):
            on_test = eval_matrix(res.ancestry, test.features)
        assert np.array_equal(res.semantics[len(train) :], on_test)
        assert len(res.history) == 6


class TestStgpConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 0},
            {"generations": -1},
            {"p_crossover": -0.1},
            {"p_mutation": 0.2},  # sum with the default 0.9 > 1
            {"tournament_size": 1},
            {"tournament_size": 600},
            {"elitism": 0},
            {"max_depth": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(BaselineError):
            StgpConfig(**kwargs)


# Feature values that drive protected division to |b| < 1e-6 and back,
# products to ±inf, and sums of infinities to NaN.
EXTREMES = (0.0, 1e-7, -5e-7, 2e-6, 1.0, -3.5, 1e155, -1e155, 1e300)


def bitwise_equal(a, b) -> bool:
    """Same shape and the same bytes, so NaNs sit in the same places."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def memo_owners(trees) -> set[int]:
    """ids of the matrices that the memos of trees' nodes belong to."""
    owners, stack = set(), list(trees)
    while stack:
        t = stack.pop()
        if t.memo is not None:
            owners.add(id(t.memo[0]))
        stack.extend(t.children)
    return owners


class TestEvalMemo:
    """eval_memo's values equal eval_matrix, and stored depths tree_depth, on
    chains of grafts built the way stgp_run builds them, on one matrix or
    several."""

    def check(self, t, X):
        with np.errstate(all="ignore"):
            values = eval_memo(t, X)
            want = eval_matrix(t, X)
        assert bitwise_equal(values, want)
        assert t.depth == tree_depth(t)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.lists(st.sampled_from(EXTREMES), min_size=8, max_size=8),
                      min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(st.sampled_from(["crossover", "mutation", "recheck"]),
                      st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=40,
        ),
    )
    def test_graft_chains_match_direct_evaluation(self, rows, seed, steps):
        X = np.array(rows, dtype=float)
        rng = Random(seed)
        pool = [random_tree(rng, d, full=full) for full in (True, False) for d in (1, 3, 5)]
        for t in pool:
            self.check(t, X)
        for op, a, b, c in steps:
            t1 = pool[a % len(pool)]
            if op == "recheck":  # memos made many grafts ago are still right
                self.check(pool[b % len(pool)], X)
                continue
            if op == "crossover":
                t2 = pool[c % len(pool)]
                graft = _node_at(t2, c % t2.size)
            else:
                graft = random_tree(rng, 3)
            child = _replace_at(t1, b % t1.size, graft)
            self.check(child, X)
            pool.append(child)
        for t in pool:
            self.check(t, X)
        assert memo_owners(pool) <= {id(X)}

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.lists(st.sampled_from(EXTREMES), min_size=8, max_size=8),
                      min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        order=st.lists(st.integers(0, 2), min_size=1, max_size=8),
    )
    def test_each_matrix_gets_its_own_values(self, rows, seed, order):
        """A memo belongs to the matrix it was computed on: a tree evaluated on
        several matrices in turn gives each matrix's own values, never another's."""
        base = np.array(rows, dtype=float)
        # Copies share no memory, so each is another owner; same values too.
        matrices = [base, base * -2.0 + 1.0, base.copy()]
        rng = Random(seed)
        t = random_tree(rng, 5)
        child = _replace_at(t, t.size // 2, random_tree(rng, 3))
        for i in order:
            for tree in (t, child):
                self.check(tree, matrices[i])
        assert len(memo_owners([t, child])) <= 1

    def test_memo_of_another_matrix_is_recomputed(self):
        t = binop("mul", binop("add", variable(1), variable(2)), variable(4))
        X1 = np.arange(16, dtype=float).reshape(2, 8)
        X2 = X1 + 1.0
        assert t.memo is None
        assert eval_memo(t, X1).tolist() == [3.0, 187.0]
        assert t.memo[0] is X1 and t.children[0].memo[0] is X1
        assert eval_memo(t, X2).tolist() == [12.0, 228.0]
        assert t.memo[0] is X2 and t.children[0].memo[0] is X2
        assert eval_memo(t, X1.copy()).tolist() == [3.0, 187.0]


class TestStgpMemory:
    @pytest.mark.parametrize("seed", [42, 43, 44])
    def test_cache_peak_bounded(self, table1_split, seed):
        """Memos die with their nodes, so memory follows the live trees.

        Measured tracemalloc peaks: 2.1-2.3 MB with a memo on each node;
        7.8-19 MB for a cache that keeps every node's values for the run;
        0.9 MB for direct evaluation without memos.
        """
        train, test = table1_split
        cfg = StgpConfig(population_size=200, generations=30)
        tracemalloc.start()
        try:
            stgp_run(cfg, train, test, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_first_generation_is_handed_over(self, table1_split, monkeypatch):
        """stgp_run hands generation 0's list of trees to the loop as its
        records and keeps no reference of its own, so the list, and the trees
        and memos that no individual of the next generation holds, are freed
        before the next generation is evaluated."""

        class Trees(list):  # a list that a weak reference can watch
            pass

        made, alive = [], []

        def ramped(*args):
            trees = Trees(ramped_half_and_half(*args))
            made.append(weakref.ref(trees))
            return trees

        def loop(cfg, train, test, seed, first, crossover, mutation, evaluate):
            def watched(*args):
                alive.append(made[0]() is not None)
                return evaluate(*args)

            return run_generations(cfg, train, test, seed, first, crossover, mutation, watched)

        monkeypatch.setattr(baselines_module, "ramped_half_and_half", ramped)
        monkeypatch.setattr(baselines_module, "run_generations", loop)
        run(table1_split, seed=42)
        assert len(made) == 1
        assert alive == [False] * 5


def ols_scaled_system(features):
    """The design `_ols_coefficients` solves on: a ones column, then each
    feature column centred on its mean and divided by its range (1 for a
    constant column). Returns (design, mean, range)."""
    mean = features.mean(axis=0)
    spread = np.ptp(features, axis=0)
    spread = np.where(spread > 0, spread, 1.0)
    return np.column_stack([np.ones(len(features)), (features - mean) / spread]), mean, spread


class TestOlsFit:
    @pytest.mark.parametrize("n", [10, 20, 28, 34])
    def test_matches_lstsq_on_augmented_system(self, table1, n):
        train = Dataset(table1.features[:n], table1.targets[:n])
        intercept, coefficients = _ols_coefficients(train)
        design, mean, spread = ols_scaled_system(train.features)
        # The fit's coefficients in the scaled units the system is solved in.
        got = np.array([intercept + np.dot(coefficients, mean), *(coefficients * spread)])
        A = np.vstack([design, math.sqrt(RIDGE_JITTER) * np.eye(9)])
        rhs = np.concatenate([train.targets, np.zeros(9)])
        want = np.linalg.lstsq(A, rhs, rcond=None)[0]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        # and it solves the ridge normal equations (ZᵀZ + λI)γ = Zᵀy
        normal = design.T @ design + RIDGE_JITTER * np.eye(9)
        residual = normal @ got - design.T @ train.targets
        assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(design.T @ train.targets)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-6.0, 8.0), min_size=8, max_size=8))
    @example([-6.0] * 8)
    @example([8.0] * 8)
    @example([-6.0, 8.0] * 4)
    def test_predictions_do_not_depend_on_feature_units(self, table1, exponents):
        """Rescaling each column by a factor in [1e-6, 1e8] moves no
        prediction by more than 1e-9 relative."""
        factors = 10.0 ** np.array(exponents)
        train = Dataset(table1.features[:28], table1.targets[:28])
        rescaled = Dataset(train.features * factors, train.targets)
        want = ols_outputs(train, table1.features)
        got = ols_outputs(rescaled, table1.features * factors)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_constant_column_gets_no_weight(self, table1):
        features = table1.features[:28].copy()
        features[:, 6] = 535.0
        _, coefficients = _ols_coefficients(Dataset(features, table1.targets[:28]))
        assert coefficients[6] == 0.0


class TestScaleMinmax:
    """`_minmax`, the scaling the LS-SVM fits and predicts on."""

    def three_water_rows(self, waters):
        base = make_sample()
        return Dataset(tuple(replace(base, water=w) for w in waters)).features

    def test_affine_map(self):
        rows = self.three_water_rows([180.0, 185.0, 190.0])
        water = _minmax(rows, rows)[:, FEATURE_NAMES.index("water")]
        assert water.tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_every_row_to_zero(self):
        train = self.three_water_rows([185.0, 185.0])
        i = FEATURE_NAMES.index("total_mass")
        assert _minmax(train, train)[:, i].tolist() == [0.0, 0.0]
        others = train.copy()
        others[:, i] = [0.0, 2500.0]
        assert _minmax(train, others)[:, i].tolist() == [0.0, 0.0]

    def test_params_applied_to_others(self):
        train = self.three_water_rows([180.0, 190.0])
        other = self.three_water_rows([185.0, 195.0])
        water = _minmax(train, other)[:, FEATURE_NAMES.index("water")]
        assert water.tolist() == [0.5, 1.5]  # outside train range may leave [0,1]


class TestSolveDual:
    @pytest.mark.parametrize("gamma, sigma_sq", [(1.0, 1.0), (100.0, 8.0), (1000.0, 64.0)])
    def test_matches_scipy_solve(self, table1_split, gamma, sigma_sq):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        train, _ = table1_split
        lo, hi = train.features.min(axis=0), train.features.max(axis=0)
        scaled = (train.features - lo) / np.where(hi > lo, hi - lo, 1.0)
        K = np.exp(-((scaled[:, None, :] - scaled[None, :, :]) ** 2).sum(axis=2) / sigma_sq)
        n = len(train)
        A = np.block([[np.zeros((1, 1)), np.ones((1, n))],
                      [np.ones((n, 1)), K + np.eye(n) / gamma]])
        want = scipy_linalg.solve(A, np.concatenate([[0.0], train.targets]))
        bias, alphas = _solve_dual(K, train.targets, gamma)
        scale = np.abs(want).max()
        np.testing.assert_allclose(bias, want[0], rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(alphas, want[1:], rtol=0, atol=1e-9 * scale)
