"""Standard tree GP: pinned runs, the depth cap, and its shared loop."""

import numpy as np
import pytest

from slumpgp.baselines import BaselineError, StgpConfig, stgp_run
from slumpgp.expr import to_infix, tree_depth
from slumpgp.gsgp import TreeOrigin


def run(table1_split, **kwargs):
    train, test = table1_split
    return stgp_run(StgpConfig(population_size=30, generations=5, **kwargs), train, test)


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
        res = run(table1_split, rng_seed=seed)
        assert [st.train_fitness for st in res.history] == train_fits
        assert [st.test_fitness for st in res.history] == test_fits
        assert isinstance(res.best.ancestry, TreeOrigin)
        assert to_infix(res.best.ancestry.tree) == best
        assert res.best.train_fitness == train_fits[-1]

    def test_depth_capped_run(self, table1_split):
        res = run(table1_split, max_depth=5, rng_seed=3)
        assert [st.train_fitness for st in res.history] == [
            1350.3699999999994, 1350.3699999999994, 1350.3699999999994,
            1143.7399999999998, 772.0799999999997, 772.0799999999997,
        ]
        assert to_infix(res.best.ancestry.tree) == "((((x3 - x6) - x6) - x6) - x6)"


class TestStgpRun:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_depth_cap_holds(self, table1_split, seed):
        res = run(table1_split, max_depth=5, rng_seed=seed)
        assert tree_depth(res.best.ancestry.tree) <= 5

    def test_predictions_are_best_test_semantics(self, table1_split):
        res = run(table1_split, rng_seed=4)
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
