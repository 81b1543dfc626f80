"""Baselines: pinned tree-GP runs, the depth cap, the subtree cache, and
the OLS and LS-SVM solves against independent solvers."""

import math
import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slumpgp.baselines import (
    RIDGE_JITTER,
    BaselineError,
    StgpConfig,
    SubtreeCache,
    _node_at,
    _replace_at,
    _solve_dual,
    ols_fit,
    stgp_run,
)
from slumpgp.dataset import Dataset
from slumpgp.expr import (
    GenMethod,
    binop,
    constant,
    eval_matrix,
    random_tree,
    sigmoid_node,
    to_infix,
)
from slumpgp.gsgp import TreeOrigin
from test_expr import tree_depth


def run(table1_split, seed, **kwargs):
    train, test = table1_split
    return stgp_run(StgpConfig(population_size=30, generations=5, **kwargs), train, test, seed=seed)


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
        assert isinstance(res.best.ancestry, TreeOrigin)
        assert to_infix(res.best.ancestry.tree) == best
        assert res.best.train_fitness == train_fits[-1]

    def test_depth_capped_run(self, table1_split):
        res = run(table1_split, 3, max_depth=5)
        assert [st.train_fitness for st in res.history] == [
            1350.3699999999994, 1350.3699999999994, 1350.3699999999994,
            1143.7399999999998, 772.0799999999997, 772.0799999999997,
        ]
        assert to_infix(res.best.ancestry.tree) == "((((x3 - x6) - x6) - x6) - x6)"


class TestStgpRun:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_depth_cap_holds(self, table1_split, seed):
        res = run(table1_split, seed, max_depth=5)
        assert tree_depth(res.best.ancestry.tree) <= 5

    def test_predictions_are_best_test_semantics(self, table1_split):
        res = run(table1_split, 4)
        assert np.array_equal(res.predictions, res.best.semantics[28:])
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


def inner_node_ids(trees) -> set[int]:
    ids, stack = set(), list(trees)
    while stack:
        t = stack.pop()
        if t.kind != "var":
            ids.add(id(t))
            stack.extend(t.children)
    return ids


class TestSubtreeCache:
    """Cached values and depths equal eval_matrix and tree_depth on chains of
    grafts built the way stgp_run builds them, eviction included."""

    def check(self, cache, t, X):
        with np.errstate(all="ignore"):
            values, depth = cache.lookup(t)
            want = eval_matrix(t, X)
        assert bitwise_equal(values, want)
        assert depth == tree_depth(t)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.lists(st.sampled_from(EXTREMES), min_size=8, max_size=8),
                      min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(st.sampled_from(["crossover", "mutation", "wrapped", "evict"]),
                      st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=40,
        ),
    )
    def test_graft_chains_match_direct_evaluation(self, rows, seed, steps):
        X = np.array(rows, dtype=float)
        rng = Random(seed)
        pool = [random_tree(rng, GenMethod(m, d)) for m in ("full", "grow") for d in (1, 3, 5)]
        cache = SubtreeCache(X)
        for t in pool:
            self.check(cache, t, X)
        for op, a, b, c in steps:
            t1 = pool[a % len(pool)]
            if op == "evict":
                live = pool[-1 - b % len(pool):] + [t1]
                for t in live:  # an evicted tree is looked up again before it is kept
                    self.check(cache, t, X)
                cache.keep_reachable(live)
                assert set(cache.entries) == inner_node_ids(live)
                assert all(id(entry[0]) == key for key, entry in cache.entries.items())
                for t in live:
                    self.check(cache, t, X)
                continue
            if op == "crossover":
                t2 = pool[c % len(pool)]
                graft = _node_at(t2, c % t2.size)
            else:
                graft = random_tree(rng, GenMethod("grow", 3))
                if op == "wrapped":  # constants and sigmoid, as reconstruct writes them
                    scale = constant(EXTREMES[c % len(EXTREMES)])
                    graft = sigmoid_node(binop("mul", scale, graft))
            child = _replace_at(t1, b % t1.size, graft)
            self.check(cache, child, X)
            pool.append(child)
        for t in pool:  # entries made before an eviction are still right
            self.check(cache, t, X)


class TestStgpMemory:
    @pytest.mark.parametrize("seed", [42, 43, 44])
    def test_cache_peak_bounded(self, table1_split, seed):
        """Eviction bounds the cache by the live population's distinct nodes.

        Measured tracemalloc peaks: 2.4-2.6 MB with eviction; 7.8-19 MB for a
        cache that never evicts; 0.9 MB for direct evaluation without a cache.
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


class TestOlsFit:
    @pytest.mark.parametrize("n", [10, 20, 28, 34])
    def test_matches_lstsq_on_augmented_system(self, table1, n):
        train = Dataset(table1.samples[:n])
        m = ols_fit(train)
        got = np.array([m.intercept, *m.coefficients])
        design = np.column_stack([np.ones(n), train.features])
        A = np.vstack([design, math.sqrt(RIDGE_JITTER) * np.eye(9)])
        rhs = np.concatenate([train.targets, np.zeros(9)])
        want = np.linalg.lstsq(A, rhs, rcond=None)[0]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        # and it solves the ridge normal equations (XᵀX + λI)β = Xᵀy
        normal = design.T @ design + RIDGE_JITTER * np.eye(9)
        residual = normal @ got - design.T @ train.targets
        assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(design.T @ train.targets)


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
