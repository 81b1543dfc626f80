"""Comparison models: multiple linear regression, standard tree GP, LS-SVM.

All three consume the same Dataset type as the semantic engine. OLS and
tree GP work on raw features; the LS-SVM scales features to [0, 1] per
column internally because the RBF kernel is scale-sensitive.

Tree GP evaluates through a `SubtreeCache` (Keijzer, "Alternatives in
Subtree Caching for Genetic Programming", EuroGP 2004). It maps id(node)
to that node's stacked train+test values and its depth, and each entry
holds the node itself, so the id cannot pass to another node while the
entry lives. A child that `_replace_at` builds shares every subtree off
the grafted path with a tree already evaluated, so evaluating it and
checking its depth cost one `eval_node` call per node on that path, not
one per node of the tree.
After every generation only the entries that the new population reaches
are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from .dataset import Dataset, ScaleParams, scale_minmax
from .expr import (
    ExprTree,
    GenMethod,
    eval_node,
    ramped_half_and_half,
    random_tree,
    randbelow,
)
from .gsgp import (
    INIT_MAX_DEPTH,
    INIT_MIN_DEPTH,
    Individual,
    RunResult,
    TreeOrigin,
    check_loop_fields,
    make_individual,
    run_generations,
)


class BaselineError(ValueError):
    """Invalid input or unsolvable system in a baseline model."""


# ---------------------------------------------------------------------------
# Multiple linear regression

@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.coefficients) != 8:
            raise BaselineError(f"expected 8 coefficients, got {len(self.coefficients)}")
        for v in (self.intercept, *self.coefficients):
            if not math.isfinite(v):
                raise BaselineError(f"model parameters must be finite, got {v!r}")


RIDGE_JITTER = 1e-8


def ols_fit(train: Dataset) -> LinearModel:
    """Least-squares fit of slump ~ intercept + features.

    Solves the normal equations (XᵀX + λI)β = Xᵀy with λ = 1e-8 on the
    diagonal — the total-mass column is near-collinear with the rest, so a
    tiny ridge keeps the system well-posed. The solve goes through the
    equivalent augmented least-squares problem [X; √λ·I] for numerical
    stability; a plain dense solve of the normal matrix loses ~5 digits.
    """
    if not train.has_targets:
        raise BaselineError("training dataset must carry slump targets")
    n = len(train)
    if n <= 9:
        raise BaselineError(f"need more than 9 training rows, got {n}")
    design = np.hstack([np.ones((n, 1)), train.features])
    augmented = np.vstack([design, math.sqrt(RIDGE_JITTER) * np.eye(9)])
    rhs = np.concatenate([train.targets, np.zeros(9)])
    beta, _, rank, _ = np.linalg.lstsq(augmented, rhs, rcond=None)
    if rank < 9:
        raise BaselineError("design matrix is singular even after ridge jitter")
    return LinearModel(intercept=float(beta[0]), coefficients=tuple(float(c) for c in beta[1:]))


def ols_predict(m: LinearModel, x) -> float:
    """Affine forward pass on one 8-feature row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (8,):
        raise BaselineError(f"expected an 8-feature row, got shape {x.shape}")
    return float(m.intercept + np.dot(np.asarray(m.coefficients), x))


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
    if idx == 0:
        return t
    pos = 1
    for c in t.children:
        if idx < pos + c.size:
            return _node_at(c, idx - pos)
        pos += c.size
    raise IndexError(idx)


def _replace_at(t: ExprTree, idx: int, sub: ExprTree) -> ExprTree:
    """Copy of t with the subtree at preorder position idx swapped for sub."""
    if idx == 0:
        return sub
    pos = 1
    children = list(t.children)
    for ci, c in enumerate(children):
        if idx < pos + c.size:
            children[ci] = _replace_at(c, idx - pos, sub)
            return ExprTree(t.kind, t.index, t.value, tuple(children))
        pos += c.size
    raise IndexError(idx)


class SubtreeCache:
    """Values on the rows of X and depth of each tree node met so far.

    Keyed by id(node). An entry holds (node, values, depth): keeping the
    node alive keeps its id from being reused by another node while the
    entry lives, and trees are immutable, so an entry never goes stale.
    `var` leaves are not stored; they map to the column views of X. Every
    stored node's children are stored too, because `lookup` stores a node
    only after its children and `keep_reachable` keeps whole subtrees.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.columns = [X[:, j] for j in range(X.shape[1])]
        self.entries: dict[int, tuple[ExprTree, np.ndarray, int]] = {}

    def lookup(self, t: ExprTree) -> tuple[np.ndarray, int]:
        """t's values, equal bit for bit to eval_matrix(t, X), and its depth.

        Runs `eval_node` once for each node of t, other than a `var` leaf,
        that has no entry yet.
        """
        hit = self.entries.get(id(t))
        if hit is not None:
            return hit[1], hit[2]
        if t.kind == "var":
            return self.columns[t.index - 1], 1
        args = []
        depth = 1
        for c in t.children:
            values, d = self.lookup(c)
            args.append(values)
            depth = max(depth, d + 1)
        values = eval_node(t, self.X, args)
        self.entries[id(t)] = (t, values, depth)
        return values, depth

    def keep_reachable(self, trees) -> None:
        """Drop every entry whose node is not reached from one of trees.

        A tree looked up since the last eviction, or kept by it, has an entry
        for every inner node, so the walk stops at the first node without one
        (a `var` leaf) and at nodes already kept. A node missed otherwise is
        only evaluated again by its next lookup.
        """
        entries = self.entries
        kept: dict[int, tuple[ExprTree, np.ndarray, int]] = {}
        stack = list(trees)
        while stack:
            t = stack.pop()
            key = id(t)
            if key in kept:
                continue
            entry = entries.get(key)
            if entry is not None:
                kept[key] = entry
                stack.extend(t.children)
        self.entries = kept


def stgp_run(cfg: StgpConfig, train: Dataset, test: Dataset, seed: int) -> RunResult:
    """Koza-style tree GP with subtree crossover/mutation and a depth cap.

    Deterministic for a fixed config, data and seed: every stochastic draw
    comes from one generator seeded with seed.

    Runs on GSGP's loop, `gsgp.run_generations`, with the literal tree as
    each individual's ancestry (TreeOrigin), so selection, elitism, fitness
    and history rows match the semantic engine's. Crossover picks one node
    uniformly in each parent and grafts the second parent's subtree into
    the first; mutation grafts a fresh grow tree at a uniform node.
    Offspring deeper than max_depth are rejected in favour of the first
    parent.

    Trees are evaluated on the stacked train+test rows through one
    `SubtreeCache`, which also gives each offspring's depth for the cap. It
    is keyed by id(node), and each entry holds the node with its values and
    depth, so the id cannot pass to a new node while the entry lives. An
    offspring shares all but its grafted path with trees already looked
    up, so only that path is evaluated, rejected offspring included. After
    each generation the cache keeps only the nodes reachable from the new
    population's trees, one entry per distinct live inner node.
    """
    if not train.has_targets:
        raise BaselineError("training dataset must carry slump targets")
    rng = Random(seed)
    cache = SubtreeCache(np.vstack([train.features, test.features]))

    def evaluate(tree: ExprTree) -> tuple[np.ndarray, int]:
        with np.errstate(all="ignore"):
            return cache.lookup(tree)

    def capped(offspring: ExprTree, fallback: Individual) -> Individual:
        sem, depth = evaluate(offspring)
        if depth > cfg.max_depth:
            return fallback
        return make_individual(sem, train.targets, TreeOrigin(offspring))

    def crossover(p1: Individual, p2: Individual, rng: Random) -> Individual:
        t1, t2 = p1.ancestry.tree, p2.ancestry.tree
        i1 = randbelow(rng, t1.size)
        i2 = randbelow(rng, t2.size)
        return capped(_replace_at(t1, i1, _node_at(t2, i2)), p1)

    def mutation(p: Individual, rng: Random) -> Individual:
        i = randbelow(rng, p.ancestry.tree.size)
        graft = random_tree(rng, GenMethod("grow", STGP_MUTATION_DEPTH))
        return capped(_replace_at(p.ancestry.tree, i, graft), p)

    init_hi = min(INIT_MAX_DEPTH, cfg.max_depth)
    init_lo = min(INIT_MIN_DEPTH, init_hi)
    pop = [
        make_individual(evaluate(t)[0], train.targets, TreeOrigin(t))
        for t in ramped_half_and_half(rng, cfg.population_size, init_lo, init_hi)
    ]
    return run_generations(
        cfg,
        pop,
        rng,
        test,
        crossover,
        mutation,
        observer=lambda new_pop: cache.keep_reachable(ind.ancestry.tree for ind in new_pop),
    )


# ---------------------------------------------------------------------------
# Least-squares SVM

LSSVM_GAMMA = 100.0
LSSVM_SIGMA_SQ = 8.0


@dataclass(frozen=True)
class LssvmModel:
    """RBF-kernel LS-SVM: ŷ(x) = Σ_i α_i·K(x_i, x) + b on scaled features."""

    alphas: tuple[float, ...]
    bias: float
    gamma: float
    sigma_sq: float
    scale: ScaleParams
    train_features: np.ndarray  # scaled, one row per training sample

    def __post_init__(self):
        if len(self.alphas) != len(self.train_features):
            raise BaselineError("one support value per training row required")
        for v in (*self.alphas, self.bias):
            if not math.isfinite(v):
                raise BaselineError(f"model parameters must be finite, got {v!r}")


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


def lssvm_fit(
    train: Dataset, gamma: float = LSSVM_GAMMA, sigma_sq: float = LSSVM_SIGMA_SQ
) -> LssvmModel:
    """Fit the LS-SVM dual system [[0, 1ᵀ], [1, K + I/γ]]·[b; α] = [0; y].

    K is the RBF kernel exp(−‖x_i−x_j‖²/σ²) over min-max-scaled features;
    the scaling parameters are fitted here and stored on the model.
    """
    if not train.has_targets:
        raise BaselineError("training dataset must carry slump targets")
    if not gamma > 0 or not sigma_sq > 0:
        raise BaselineError(f"gamma and sigma_sq must be > 0, got {gamma}, {sigma_sq}")
    params = scale_minmax(train)
    scaled = params.transform(train.features)
    K = _rbf_kernel(scaled, scaled, sigma_sq)
    bias, alphas = _solve_dual(K, train.targets, gamma)
    return LssvmModel(
        alphas=tuple(float(a) for a in alphas),
        bias=bias,
        gamma=gamma,
        sigma_sq=sigma_sq,
        scale=params,
        train_features=scaled,
    )


def lssvm_predict(m: LssvmModel, x) -> float:
    """Kernel expansion ŷ = Σ_i α_i·K(x_i, x) + b for one raw feature row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (8,):
        raise BaselineError(f"expected an 8-feature row, got shape {x.shape}")
    scaled = m.scale.transform(x[None, :])
    k = _rbf_kernel(m.train_features, scaled, m.sigma_sq)[:, 0]
    return float(np.dot(np.asarray(m.alphas), k) + m.bias)


LSSVM_GAMMA_GRID = (1.0, 10.0, 100.0, 1000.0)
LSSVM_SIGMA_SQ_GRID = (1.0, 8.0, 64.0)


def lssvm_grid_search(
    train: Dataset,
    gammas: tuple[float, ...] = LSSVM_GAMMA_GRID,
    sigma_sqs: tuple[float, ...] = LSSVM_SIGMA_SQ_GRID,
) -> tuple[float, float, float]:
    """Pick (γ, σ²) by naive leave-one-out mean absolute error.

    Features are scaled once on the full training set; each fold refits the
    dual system on the remaining rows. Returns (gamma, sigma_sq, loo_error)
    of the strict minimum, first grid cell winning ties.
    """
    if not train.has_targets:
        raise BaselineError("training dataset must carry slump targets")
    n = len(train)
    if n < 2:
        raise BaselineError("leave-one-out needs at least 2 training rows")
    params = scale_minmax(train)
    scaled = params.transform(train.features)
    y = train.targets
    best: tuple[float, float, float] | None = None
    for gamma in gammas:
        for sigma_sq in sigma_sqs:
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
