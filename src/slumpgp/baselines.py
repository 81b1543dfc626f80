"""Comparison models: multiple linear regression, standard tree GP, LS-SVM.

All three consume the same Dataset type as the semantic engine. Tree GP
works on raw features. OLS centres and scales each column internally, so
its fit does not depend on the features' units, and the LS-SVM scales
features to [0, 1] per column because the RBF kernel is scale-sensitive.
OLS and the LS-SVM keep no fitted model: `ols_outputs` and `lssvm_outputs`
fit on the training set and return the fit's outputs on the rows asked for.
Each output is its own `np.dot` over one row, so it does not depend on the
other rows asked for; a matrix product over all rows differs in the last
bits.

Tree GP evaluates through `expr.eval_memo` (Keijzer, "Alternatives in
Subtree Caching for Genetic Programming", EuroGP 2004), which keeps each
node's stacked train+test values on the node. A child that `_replace_at`
builds shares every subtree off the grafted path with a tree already
evaluated, so evaluating it costs one `eval_node` call per node on that
path, not one per node of the tree. A child too deep to keep is rejected
by the depth its root stores, before any of it is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from .dataset import Dataset
from .expr import ExprTree, eval_memo, ramped_half_and_half, random_tree
from .gsgp import (
    INIT_MAX_DEPTH,
    INIT_MIN_DEPTH,
    RunResult,
    Slot,
    check_loop_fields,
    run_generations,
)


class BaselineError(ValueError):
    """Invalid input or unsolvable system in a baseline model."""


def _check_finite(values) -> None:
    """Raise for the first fitted parameter that is not finite."""
    for v in values:
        if not math.isfinite(v):
            raise BaselineError(f"model parameters must be finite, got {v!r}")


# ---------------------------------------------------------------------------
# Multiple linear regression

RIDGE_JITTER = 1e-8


def _ols_coefficients(train: Dataset) -> tuple[float, np.ndarray]:
    """(intercept, coefficients) of the least-squares fit of slump ~ features.

    Each column is centred on its training mean and divided by its range
    (1 if constant), so the fit does not depend on the features' units;
    the range, unlike the std, squares nothing that could overflow. On
    these columns Z it solves (ZᵀZ + λI)γ = Zᵀy with λ = 1e-8, as the
    total-mass column is near-collinear with the rest, through the
    augmented least-squares problem [Z; √λ·I], which keeps ~5 digits that
    a dense solve of the normal matrix loses. γ is then mapped back.
    """
    if not train.has_targets:
        raise BaselineError("training dataset must carry slump targets")
    n = len(train)
    if n <= 9:
        raise BaselineError(f"need more than 9 training rows, got {n}")
    X = train.features
    mean = X.mean(axis=0)
    spread = X.max(axis=0) - X.min(axis=0)
    spread[spread == 0] = 1.0
    design = np.hstack([np.ones((n, 1)), (X - mean) / spread])
    augmented = np.vstack([design, math.sqrt(RIDGE_JITTER) * np.eye(9)])
    rhs = np.concatenate([train.targets, np.zeros(9)])
    beta, _, rank, _ = np.linalg.lstsq(augmented, rhs, rcond=None)
    if rank < 9:
        raise BaselineError("design matrix is singular even after ridge jitter")
    coefficients = beta[1:] / spread
    intercept = float(beta[0] - float(np.dot(coefficients, mean)))
    _check_finite([intercept, *coefficients.tolist()])
    return intercept, coefficients


def ols_outputs(train: Dataset, rows: np.ndarray) -> np.ndarray:
    """The OLS fit on train (see `_ols_coefficients`) applied to each of rows.

    Slumps so large that the fit overflows fail its finiteness check alone,
    with no numpy warning before it.
    """
    with np.errstate(all="ignore"):
        intercept, coefficients = _ols_coefficients(train)
        return np.array([intercept + np.dot(coefficients, x) for x in rows])


# ---------------------------------------------------------------------------
# Standard tree GP

STGP_MUTATION_DEPTH = 4  # grow depth for replacement subtrees


@dataclass(frozen=True)
class StgpConfig:
    population_size: int = 500
    generations: int = 50
    max_depth: int = 17
    p_crossover: float = 0.9
    p_mutation: float = 0.1
    tournament_size: int = 4
    elitism: int = 1

    def __post_init__(self):
        check_loop_fields(self, BaselineError)
        if self.max_depth < 1:
            raise BaselineError(f"max_depth must be >= 1, got {self.max_depth}")


def _node_at(t: ExprTree, idx: int) -> ExprTree:
    """Node at preorder position idx (root is 0)."""
    while idx:
        left, right = t.children
        if idx <= left.size:
            t, idx = left, idx - 1
        else:
            t, idx = right, idx - 1 - left.size
    return t


def _replace_at(t: ExprTree, idx: int, sub: ExprTree) -> ExprTree:
    """Copy of t with the subtree at preorder position idx swapped for sub."""
    if idx == 0:
        return sub
    left, right = t.children
    if idx <= left.size:
        return ExprTree(t.kind, t.index, (_replace_at(left, idx - 1, sub), right))
    return ExprTree(t.kind, t.index, (left, _replace_at(right, idx - 1 - left.size, sub)))


def stgp_run(cfg: StgpConfig, train: Dataset, test: Dataset, seed: int) -> RunResult:
    """Koza-style tree GP with subtree crossover/mutation and a depth cap.

    Runs on GSGP's loop, `gsgp.run_generations`, which makes every draw
    from seed, with each individual's tree as its record, so selection,
    elitism, fitness and history rows match the semantic engine's, and the
    result's ancestry is the best tree. Generation 0 is ramped half-and-half
    trees no deeper than max_depth. Crossover picks one node uniformly in
    each parent and grafts the second parent's subtree into the first;
    mutation grafts a fresh grow tree at a uniform node. An offspring deeper
    than max_depth is rejected as it is drawn, so the loop copies the first
    parent's row and tree into its slot, as for elites and reproductions.
    The evaluate phase writes each kept offspring's values on the stacked
    train+test rows, by `eval_memo`.
    """
    if not train.has_targets:
        raise BaselineError("training dataset must carry slump targets")
    init_hi = min(INIT_MAX_DEPTH, cfg.max_depth)
    init_lo = min(INIT_MIN_DEPTH, init_hi)

    def first(rng: Random, X: np.ndarray):
        trees = ramped_half_and_half(rng, cfg.population_size, init_lo, init_hi)
        return np.stack([eval_memo(t, X) for t in trees]), trees

    def capped(child: ExprTree) -> ExprTree | None:
        return None if child.depth > cfg.max_depth else child

    def crossover(t1: ExprTree, t2: ExprTree, rng: Random) -> ExprTree | None:
        i1 = rng.randrange(t1.size)
        i2 = rng.randrange(t2.size)
        return capped(_replace_at(t1, i1, _node_at(t2, i2)))

    def mutation(t: ExprTree, rng: Random) -> ExprTree | None:
        i = rng.randrange(t.size)
        return capped(_replace_at(t, i, random_tree(rng, STGP_MUTATION_DEPTH)))

    def evaluate(out: np.ndarray, sem: np.ndarray, slots: list[Slot], X: np.ndarray) -> None:
        for row, (_, child) in enumerate(slots):
            if child is not None:
                out[row] = eval_memo(child, X)

    return run_generations(cfg, train, test, seed, first, crossover, mutation, evaluate)


# ---------------------------------------------------------------------------
# Least-squares SVM

LSSVM_GAMMA = 100.0
LSSVM_SIGMA_SQ = 8.0


def _minmax(fit: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows under the per-column min-max map that takes fit's columns onto [0, 1].

    Other rows may land outside that range. A constant column of fit
    (span 0) maps every row to 0.
    """
    lo = fit.min(axis=0)
    span = fit.max(axis=0) - lo
    constant = span == 0
    out = (rows - lo) / np.where(constant, 1.0, span)
    out[:, constant] = 0.0
    return out


def _rbf_kernel(A: np.ndarray, B: np.ndarray, sigma_sq: float) -> np.ndarray:
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / sigma_sq)


def _solve_dual(K: np.ndarray, y: np.ndarray, gamma: float) -> tuple[float, np.ndarray]:
    n = len(y)
    A = np.zeros((n + 1, n + 1))
    A[0, 1:] = 1.0
    A[1:, 0] = 1.0
    A[1:, 1:] = K + np.eye(n) / gamma
    rhs = np.concatenate([[0.0], y])
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise BaselineError(f"LS-SVM system is singular: {exc}") from None
    return float(sol[0]), sol[1:]


def lssvm_outputs(
    train: Dataset, rows: np.ndarray, gamma: float, sigma_sq: float
) -> np.ndarray:
    """The LS-SVM fitted on train, ŷ(x) = Σ_i α_i·K(x_i, x) + b, at each of rows.

    b and α solve the dual system [[0, 1ᵀ], [1, K + I/γ]]·[b; α] = [0; y],
    where K is the RBF kernel exp(−‖x_i−x_j‖²/σ²) over features min-max
    scaled on train (`_minmax`); rows are scaled by the same map.
    """
    if not train.has_targets:
        raise BaselineError("training dataset must carry slump targets")
    if not gamma > 0 or not sigma_sq > 0:
        raise BaselineError(f"gamma and sigma_sq must be > 0, got {gamma}, {sigma_sq}")
    scaled = _minmax(train.features, train.features)
    bias, alphas = _solve_dual(_rbf_kernel(scaled, scaled, sigma_sq), train.targets, gamma)
    _check_finite([*alphas.tolist(), bias])
    # One row of kernel values per output row, each row contiguous.
    K = _rbf_kernel(_minmax(train.features, rows), scaled, sigma_sq)
    return np.array([np.dot(alphas, k) + bias for k in K])


LSSVM_GAMMA_GRID = (1.0, 10.0, 100.0, 1000.0)
LSSVM_SIGMA_SQ_GRID = (1.0, 8.0, 64.0)


def lssvm_grid_search(train: Dataset) -> tuple[float, float, float]:
    """Pick (γ, σ²) by naive leave-one-out mean absolute error.

    The grid is LSSVM_GAMMA_GRID × LSSVM_SIGMA_SQ_GRID. Features are scaled
    once on the full training set; each fold refits the dual system on the
    remaining rows. Returns (gamma, sigma_sq, loo_error) of the strict
    minimum, first grid cell winning ties.
    """
    if not train.has_targets:
        raise BaselineError("training dataset must carry slump targets")
    n = len(train)
    if n < 2:
        raise BaselineError("leave-one-out needs at least 2 training rows")
    scaled = _minmax(train.features, train.features)
    y = train.targets
    best: tuple[float, float, float] | None = None
    for gamma in LSSVM_GAMMA_GRID:
        for sigma_sq in LSSVM_SIGMA_SQ_GRID:
            K = _rbf_kernel(scaled, scaled, sigma_sq)
            total = 0.0
            for held in range(n):
                keep = [i for i in range(n) if i != held]
                bias, alphas = _solve_dual(K[np.ix_(keep, keep)], y[keep], gamma)
                pred = float(np.dot(alphas, K[keep, held]) + bias)
                total += abs(pred - y[held])
            loo = total / n
            if best is None or loo < best[2]:
                best = (gamma, sigma_sq, loo)
    return best
