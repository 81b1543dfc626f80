"""Expression trees: construction, evaluation, generation, text format."""

import dataclasses
import gc
import math
import re
import warnings
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import slumpgp.expr as expr_module
from slumpgp.baselines import _node_at, _replace_at
from slumpgp.dataset import builtin_table1
from slumpgp.expr import (
    DIV_EPS,
    FUNCTIONS,
    MAX_PARSE_DEPTH,
    ExprTree,
    N_VARS,
    ParseError,
    binop,
    eval_matrix,
    eval_memo,
    eval_node,
    eval_trees,
    parse_infix,
    ramped_half_and_half,
    random_tree,
    sigmoid,
    to_infix,
    variable,
)

ROW1 = builtin_table1().features[0]


def eval_tree(t: ExprTree, x) -> float:
    """Oracle: evaluate one tree on a single 8-feature row, in scalar floats."""
    if t.kind == "var":
        return float(x[t.index - 1])
    a = eval_tree(t.children[0], x)
    b = eval_tree(t.children[1], x)
    if t.kind == "add":
        return a + b
    if t.kind == "sub":
        return a - b
    if t.kind == "mul":
        return a * b
    return a / b if abs(b) >= DIV_EPS else 1.0


def scalar_sigmoid(v: float) -> float:
    """Oracle: the two-branch logistic map on one float."""
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    ev = math.exp(v)
    return ev / (1.0 + ev)


def tree_depth(t: ExprTree) -> int:
    """Oracle: longest root-to-leaf path, counted in nodes (a leaf has depth 1)."""
    if not t.children:
        return 1
    return 1 + max(tree_depth(c) for c in t.children)


def masked_sigmoid(v: np.ndarray) -> np.ndarray:
    """Oracle: the two-branch logistic map, each half of the array masked apart."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and np.array_equal(
        x[~nan].view(np.int64), y[~nan].view(np.int64)
    )


def leaves(t: ExprTree):
    if not t.children:
        yield t
    else:
        for c in t.children:
            yield from leaves(c)


def leaf_depths(t: ExprTree, d=1):
    if not t.children:
        yield d
    for c in t.children:
        yield from leaf_depths(c, d + 1)


def randrange_tree(rng: Random, max_depth: int, full=False, force_root_function=False):
    """Oracle: random_tree's recursion as first written, one rng.randrange per
    node and a new node for every leaf."""

    def leaf():
        return ExprTree("var", rng.randrange(N_VARS) + 1)

    def branch(depth_left):
        op = FUNCTIONS[rng.randrange(len(FUNCTIONS))]
        return ExprTree(op, children=(node(depth_left - 1), node(depth_left - 1)))

    def node(depth_left):
        if depth_left == 1:
            return leaf()
        if full:
            return branch(depth_left)
        pick = rng.randrange(len(FUNCTIONS) + N_VARS)
        if pick < len(FUNCTIONS):
            return ExprTree(FUNCTIONS[pick], children=(node(depth_left - 1), node(depth_left - 1)))
        return ExprTree("var", pick - len(FUNCTIONS) + 1)

    if max_depth == 1:
        return leaf()
    if full or force_root_function:
        return branch(max_depth)
    return node(max_depth)


# --- independent infix evaluation, deliberately sharing no code with the
# --- package parser: token scan + shunting-yard-free recursive walk.
def independent_eval(text: str, x) -> float:
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos] == " ":
            pos += 1

    def expr() -> float:
        nonlocal pos
        skip_ws()
        if text[pos] == "(":
            pos += 1
            left = expr()
            skip_ws()
            for sym in ("+", "-", "*", "/p"):
                if text.startswith(sym, pos):
                    op = sym
                    pos += len(sym)
                    break
            else:
                raise AssertionError(f"operator expected at {pos}")
            right = expr()
            skip_ws()
            assert text[pos] == ")"
            pos += 1
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            return left / right if abs(right) >= 1e-6 else 1.0
        assert text[pos] == "x", f"variable expected at {pos}"
        pos += 1
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        return x[int(text[start:pos]) - 1]

    out = expr()
    assert pos == len(text)
    return out


class TestTreeConstruction:
    def test_variable_index_bounds(self):
        variable(1)
        variable(8)
        for bad in (0, 9, -1):
            with pytest.raises(ValueError):
                variable(bad)

    def test_binop_requires_known_operator(self):
        with pytest.raises(ValueError):
            binop("pow", variable(1), variable(2))

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            ExprTree("add", children=(variable(1),))
        with pytest.raises(ValueError):
            ExprTree("var", index=1, children=(variable(1), variable(2)))
        with pytest.raises(ValueError):
            ExprTree("sub", children=(variable(1),) * 3)
        with pytest.raises(ValueError):
            ExprTree("cosh", children=(variable(1), variable(2)))

    def test_trees_hashable_and_equal_by_structure(self):
        a = binop("add", variable(1), variable(2))
        b = binop("add", variable(1), variable(2))
        assert a == b and hash(a) == hash(b)


class TestExprTreeContract:
    """Each invalid node is one ValueError with a fixed message, and a node
    never changes after it is built."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ExprTree("add"), "add node needs 2 children"),
            (lambda: ExprTree("div", children=(variable(1),)), "div node needs 2 children"),
            (lambda: ExprTree("mul", children=(variable(1),) * 3), "mul node needs 2 children"),
            (
                lambda: ExprTree("var", 1, children=(variable(2),)),
                "variable leaves have no children",
            ),
            (lambda: ExprTree("var", 0), "variable index must be in 1..8, got 0"),
            (lambda: ExprTree("var", 9), "variable index must be in 1..8, got 9"),
            (lambda: ExprTree("var", -1), "variable index must be in 1..8, got -1"),
            (lambda: ExprTree("cosh", children=(variable(1),)), "unknown node kind 'cosh'"),
            # Evolution draws neither constants nor sigmoid nodes, so a tree holds none.
            (lambda: ExprTree("const"), "unknown node kind 'const'"),
            (lambda: ExprTree("sigmoid", children=(variable(1),)), "unknown node kind 'sigmoid'"),
        ],
    )
    def test_invalid_node_message(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("name", ["kind", "index", "children", "size", "depth", "memo"])
    def test_assignment_raises(self, name):
        t = binop("add", variable(1), variable(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, getattr(t, name))

    def test_fields_as_built(self):
        leaf = ExprTree("var", 3)
        t = ExprTree("sub", children=(leaf, variable(5)))
        assert (leaf.kind, leaf.index, leaf.children, leaf.size) == ("var", 3, (), 1)
        assert (t.kind, t.index, t.children, t.size) == ("sub", 0, (leaf, variable(5)), 3)
        assert binop("mul", t, leaf).size == 5
        assert (leaf.depth, t.depth, binop("mul", leaf, t).depth) == (1, 2, 3)
        assert repr(leaf) == "ExprTree(kind='var', index=3, children=())"
        assert leaf.memo is None and t.memo is None

    def test_memo_takes_no_part_in_equality_hash_or_repr(self):
        t = binop("div", variable(1), variable(5))
        twin = binop("div", variable(1), variable(5))
        eval_memo(t, ROW1[None, :])
        assert t.memo is not None and twin.memo is None
        assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)

    def test_derived_fields_take_no_part_in_equality_hash_or_repr(self):
        """size, depth and memo follow from kind, index and children. Equal
        trees always agree on size and depth, so only the field flags show
        that equality, hashing (which reads the compared fields) and repr
        skip them."""
        skipped = [f.name for f in dataclasses.fields(ExprTree) if not (f.compare or f.repr)]
        assert skipped == ["size", "depth", "memo"]
        assert all(f.hash is None for f in dataclasses.fields(ExprTree))


class TestEvalTree:
    def test_single_variable_reads_water_column(self):
        assert eval_tree(variable(3), ROW1) == 180.0

    def test_subtraction_symmetry(self):
        t = binop("sub", variable(1), variable(1))
        for row in builtin_table1().features:
            assert eval_tree(t, row) == 0.0

    def test_protected_division_fallback(self):
        # row 1 has fly_ash = 0, so x1/x2 trips the protection
        t = binop("div", variable(1), variable(2))
        assert eval_tree(t, ROW1) == 1.0

    def test_protection_threshold(self):
        t = binop("div", variable(2), variable(1))
        x = np.zeros(8)
        x[1] = 1.0
        x[0] = DIV_EPS
        assert eval_tree(t, x) == 1.0 / DIV_EPS
        x[0] = DIV_EPS / 2
        assert eval_tree(t, x) == 1.0

    def test_totality_on_generated_trees(self):
        rng = Random(11)
        rows = builtin_table1().features
        for _ in range(300):
            full = rng.randrange(2) == 0
            t = random_tree(rng, rng.randrange(1, 7), full=full)
            v = eval_tree(t, rows[rng.randrange(len(rows))])
            assert math.isfinite(v)

    def test_eval_matrix_agrees_bitwise(self):
        rng = Random(13)
        rows = builtin_table1().features
        for _ in range(100):
            t = random_tree(rng, rng.randrange(2, 7))
            vec = eval_matrix(t, rows)
            assert vec.shape == (34,)
            for j, row in enumerate(rows):
                assert vec[j] == eval_tree(t, row)

    def test_eval_matrix_sigmoid_close(self):
        rng = Random(17)
        rows = builtin_table1().features
        for _ in range(50):
            t = random_tree(rng, 3)
            vec = sigmoid(eval_matrix(t, rows))
            for j, row in enumerate(rows):
                assert vec[j] == pytest.approx(scalar_sigmoid(eval_tree(t, row)), rel=1e-12)

    def test_sigmoid_stable_and_bounded(self):
        v = sigmoid(np.array([-1e6, -50.0, 0.0, 50.0, 1e6]))
        assert np.all((v >= 0.0) & (v <= 1.0))
        assert v[2] == 0.5
        assert math.isfinite(v[0]) and math.isfinite(v[-1])


# Signed zeros, infinities, NaN, subnormals, and |v| past where e^|v|
# overflows (709.8) or e^-|v| underflows to 0 (745.2). Then sigmoid's own
# edges: its exp clamp at -700 and the zero below -746, each with its
# neighbours, and arguments where numpy's exp leaves its fast path (-707.9),
# gives subnormals (-708.4) and gives the least subnormal (-745.13).
SPECIAL_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, -1e-310,
    36.7, -36.7, 709.8, -709.8, 710.0, -710.0, 745.2, -745.2, 746.0, -746.0, 1e308, -1e308,
    700.0, -700.0, math.nextafter(-700.0, -math.inf), math.nextafter(-700.0, math.inf),
    -707.9, -708.4, -745.13, math.nextafter(-746.0, 0.0),
)


class TestSigmoidFormula:
    """The branch-free sigmoid equals the two-branch masked formula bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(SPECIAL_FLOATS),
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.floats(-800.0, 800.0),
            ),
            max_size=64,
        ),
        st.sampled_from([1, 2, 3, -1, -2]),
        st.integers(0, 2),
    )
    @example(list(SPECIAL_FLOATS), 1, 0)
    def test_matches_masked_formula_bitwise(self, values, step, offset):
        v = np.array(values, dtype=float)[offset::step]  # a strided view when step != 1
        with np.errstate(all="ignore"):
            assert same_bits(sigmoid(v), masked_sigmoid(v))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.data())
    def test_matrices_match_masked_formula_bitwise(self, mutations, n_rows, data):
        """A matrix as `breed` squashes it (r1s then r2s, a row each), and its
        transposed view, element by element."""
        shape = (2 * mutations, n_rows)
        values = data.draw(
            st.lists(
                st.sampled_from(SPECIAL_FLOATS) | st.floats(-800.0, 800.0),
                min_size=shape[0] * shape[1],
                max_size=shape[0] * shape[1],
            )
        )
        m = np.array(values).reshape(shape)
        with np.errstate(all="ignore"):
            for v in (m, m.T):
                got = sigmoid(v)
                assert got.shape == v.shape
                assert same_bits(got, masked_sigmoid(v))

    def test_zero_dimensional_input(self):
        with np.errstate(all="ignore"):
            for x in SPECIAL_FLOATS:
                assert same_bits(np.atleast_1d(sigmoid(x)), masked_sigmoid(np.array([x])))

    def test_lanes_past_the_clamp_same_in_wide_and_narrow_calls(self):
        """Across [-746, -700], one 4,096-lane call and 3-lane calls give the
        same bits: exp of a few gathered lanes is exp of them within a whole
        array."""
        v = np.linspace(-746.0, -700.0, 4096)
        with np.errstate(all="ignore"):
            wide = sigmoid(v)
            narrow = np.concatenate([sigmoid(v[i : i + 3]) for i in range(0, len(v), 3)])
            assert same_bits(wide, masked_sigmoid(v))
            assert same_bits(narrow, wide)
            gathered = np.concatenate([np.exp(v[i : i + 3]) for i in range(0, len(v), 3)])
            assert same_bits(gathered, np.exp(v))


class TestRandomTree:
    def test_full_depth_one_is_single_leaf(self):
        t = random_tree(Random(0), 1, full=True)
        assert not t.children and t.kind == "var"

    def test_full_all_leaves_at_exact_depth(self):
        rng = Random(3)
        for depth in (2, 3, 4, 5):
            for _ in range(20):
                t = random_tree(rng, depth, full=True)
                assert set(leaf_depths(t)) == {depth}
                assert t.size == 2**depth - 1

    def test_grow_respects_depth_cap(self):
        rng = Random(5)
        for _ in range(200):
            depth = rng.randrange(1, 7)
            t = random_tree(rng, depth)
            assert tree_depth(t) <= depth

    def test_grow_varies_root_kind(self):
        rng = Random(9)
        kinds = {random_tree(rng, 4).kind for _ in range(200)}
        assert "var" in kinds  # a grow tree may be a single leaf
        assert kinds & set(FUNCTIONS)

    def test_force_root_function(self):
        rng = Random(9)
        for _ in range(100):
            t = random_tree(rng, 4, force_root_function=True)
            assert t.kind in FUNCTIONS
        t = random_tree(rng, 1, force_root_function=True)
        assert t.kind == "var"  # depth budget wins

    def test_determinism(self):
        for depth, full in ((4, True), (5, False)):
            first = random_tree(Random(42), depth, full=full)
            assert random_tree(Random(42), depth, full=full) == first

    def test_leaves_no_cyclic_garbage(self):
        rng = Random(13)
        shapes = [(d, full) for full in (True, False) for d in (1, 3, 5)]
        gc.collect()
        gc.disable()
        try:
            for i in range(1000):
                depth, full = shapes[i % len(shapes)]
                random_tree(rng, depth, full=full, force_root_function=i % 2 == 0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_uniform_symbol_draws(self):
        rng = Random(21)
        ops = {f: 0 for f in FUNCTIONS}
        vars_seen = {i: 0 for i in range(1, N_VARS + 1)}
        for _ in range(400):
            t = random_tree(rng, 3, full=True)
            ops[t.kind] += 1
            for leaf in leaves(t):
                vars_seen[leaf.index] += 1
        assert all(c > 0 for c in ops.values())
        assert all(c > 0 for c in vars_seen.values())

    def test_depth_below_one_rejected(self):
        for full in (True, False):
            with pytest.raises(ValueError, match=r"^max_depth must be >= 1, got 0$"):
                random_tree(Random(0), 0, full=full)


class TestDrawContract:
    """random_tree draws what rng.randrange would, draw for draw, so a seed
    builds the same trees and leaves its generator in the same state."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64), st.integers(1, 7), st.booleans(), st.booleans())
    def test_random_tree_matches_randrange_oracle(self, seed, depth, full, force_root):
        mine, oracle = Random(seed), Random(seed)
        drawn = [random_tree(mine, depth, full=full, force_root_function=force_root) for _ in range(3)]
        expected = [randrange_tree(oracle, depth, full, force_root) for _ in range(3)]
        assert drawn == expected
        assert mine.getstate() == oracle.getstate()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64), st.integers(0, 30), st.integers(1, 4), st.integers(0, 3))
    def test_ramped_half_and_half_matches_randrange_oracle(self, seed, count, lo, extra):
        hi = lo + extra
        mine, oracle = Random(seed), Random(seed)
        schedule = [(d, full) for d in range(lo, hi + 1) for full in (True, False)]
        expected = [randrange_tree(oracle, *schedule[i % len(schedule)]) for i in range(count)]
        assert ramped_half_and_half(mine, count, lo, hi) == expected
        assert mine.getstate() == oracle.getstate()


def nodes(t: ExprTree):
    yield t
    for c in t.children:
        yield from nodes(c)


class TestSharedLeaves:
    """A drawn tree's `var` nodes are the module's shared leaves, which no
    evaluation gives a memo; variable and parse_infix still build new ones."""

    def test_drawn_var_nodes_are_shared_leaves(self):
        rng = Random(31)
        drawn = ramped_half_and_half(rng, 60) + [
            random_tree(rng, d, full=full, force_root_function=force)
            for d in (1, 2, 4, 7)
            for full in (True, False)
            for force in (True, False)
        ]
        shared = {id(leaf) for leaf in expr_module._LEAVES}
        assert [leaf.index for leaf in expr_module._LEAVES] == list(range(1, N_VARS + 1))
        assert all(id(leaf) in shared for t in drawn for leaf in leaves(t))

    def test_eval_memo_gives_shared_leaves_no_memo(self):
        rng = Random(37)
        X = builtin_table1().features
        for t in ramped_half_and_half(rng, 40):
            values = eval_memo(t, X)
            assert same_bits(values, eval_matrix(t, X))
            assert all(n.memo is not None for n in nodes(t) if n.children)
        assert all(leaf.memo is None for leaf in expr_module._LEAVES)

    def test_variable_and_parse_infix_build_new_leaves(self):
        for i, leaf in enumerate(expr_module._LEAVES, start=1):
            fresh = variable(i)
            assert fresh == leaf and fresh is not leaf
            parsed = parse_infix(f"(x{i} + x{i})")
            assert all(c == leaf and c is not leaf for c in parsed.children)


class TestRampedHalfAndHalf:
    def test_count_and_depth_range(self):
        trees = ramped_half_and_half(Random(2), 100)
        assert len(trees) == 100
        assert max(tree_depth(t) for t in trees) == 6
        assert all(tree_depth(t) <= 6 for t in trees)

    def test_schedule_alternates_full_and_grow(self):
        # the slot cycle is (full,2),(grow,2),(full,3)...(grow,6)
        trees = ramped_half_and_half(Random(4), 200)
        schedule = [(m, d) for d in range(2, 7) for m in ("full", "grow")]
        for i, t in enumerate(trees):
            method, depth = schedule[i % len(schedule)]
            if method == "full":
                assert set(leaf_depths(t)) == {depth}
            else:
                assert tree_depth(t) <= depth

    def test_custom_depth_window(self):
        trees = ramped_half_and_half(Random(6), 40, min_depth=3, max_depth=3)
        assert all(tree_depth(t) <= 3 for t in trees)
        assert any(tree_depth(t) == 3 for t in trees)


def count_nodes(t: ExprTree) -> int:
    """Node count by recursion, independent of the stored size."""
    return 1 + sum(count_nodes(c) for c in t.children)


trees = st.recursive(
    st.integers(1, N_VARS).map(variable),
    lambda kids: st.tuples(st.sampled_from(FUNCTIONS), kids, kids).map(lambda a: binop(*a)),
    max_leaves=40,
)


class TestSizeDepth:
    def test_leaf(self):
        assert variable(1).size == 1
        assert tree_depth(variable(1)) == 1

    def test_pair(self):
        t = binop("add", variable(1), variable(2))
        assert t.size == 3
        assert tree_depth(t) == 2

    def test_full_tree_size_formula(self):
        rng = Random(8)
        for d in range(1, 7):
            t = random_tree(rng, d, full=True)
            assert t.size == 2**d - 1

    @settings(max_examples=200, deadline=None)
    @given(trees)
    def test_stored_size_is_node_count(self, t):
        assert t.size == count_nodes(t)
        parsed = parse_infix(to_infix(t))
        assert parsed.size == count_nodes(parsed) == t.size

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**64),
        st.integers(1, 7),
        st.booleans(),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=20),
    )
    def test_stored_depth_and_size_are_the_recursive_counts(
        self, seed, depth, full, force_root, grafts
    ):
        """At every node of a drawn tree, of its parsed text, and of each tree
        along a chain of STGP grafts (a node of an earlier tree, or a fresh
        grow tree, put in at any position), depth and size equal counts
        taken by recursion."""
        rng = Random(seed)
        t = random_tree(rng, depth, full=full, force_root_function=force_root)
        checked = [t, parse_infix(to_infix(t))]
        for at, pick in grafts:
            donor = checked[pick % len(checked)]
            sub = random_tree(rng, 1 + pick % 4) if pick % 2 else _node_at(donor, pick % donor.size)
            t = _replace_at(t, at % t.size, sub)
            checked += [t, parse_infix(to_infix(t))]
        for u in checked:
            for n in nodes(u):
                assert (n.depth, n.size) == (tree_depth(n), count_nodes(n))

    @settings(max_examples=200, deadline=None)
    @given(trees)
    def test_size_ignored_by_equality_and_hash(self, t):
        """A tree rebuilt by another path equals and hashes like the original."""
        rebuilt = parse_infix(to_infix(t))
        assert rebuilt is not t
        assert rebuilt == t and hash(rebuilt) == hash(t)
        copied = ExprTree(t.kind, t.index, t.children)
        assert copied == t and hash(copied) == hash(t)
        assert "size" not in repr(t) and "depth" not in repr(t)


class TestStackedRows:
    """eval_matrix and sigmoid act on each row alone, so evaluating stacked
    train+test rows once gives the two separate evaluations, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(trees, st.integers(1, 33))
    def test_stacked_evaluation_is_concatenation(self, t, cut):
        rows = builtin_table1().features
        a, b = rows[:cut], rows[cut:]
        with np.errstate(all="ignore"):
            whole = eval_matrix(t, np.vstack([a, b]))
            parts = np.concatenate([eval_matrix(t, a), eval_matrix(t, b)])
            assert same_bits(whole, parts)
            squashed = np.concatenate([sigmoid(eval_matrix(t, a)), sigmoid(eval_matrix(t, b))])
            assert same_bits(sigmoid(whole), squashed)


# Feature values on both sides of DIV_EPS, signed zeros, and magnitudes whose
# sums and products overflow to inf, and whose inf - inf is NaN.
BELOW_EPS = math.nextafter(DIV_EPS, 0.0)
EVAL_FLOATS = (
    0.0, -0.0, DIV_EPS, -DIV_EPS, BELOW_EPS, -BELOW_EPS, 1e-7, 1.0, -3.5, 2420.0,
    1e200, -1e200, 1e308, -1e308,
)


@st.composite
def tree_batches(draw):
    """Random grow and full trees of depth 1-6, a few trees from the `trees`
    strategy, and at times one tree object listed twice."""
    rng = Random(draw(st.integers(0, 2**32)))
    batch = [
        random_tree(rng, draw(st.integers(1, 6)), full=draw(st.booleans()))
        for _ in range(draw(st.integers(0, 12)))
    ]
    batch += draw(st.lists(trees, max_size=3))
    if batch and draw(st.booleans()):
        twice = batch[draw(st.integers(0, len(batch) - 1))]
        batch.insert(draw(st.integers(0, len(batch))), twice)
    return batch


feature_rows = st.lists(
    st.lists(st.sampled_from(EVAL_FLOATS) | st.floats(-3000.0, 3000.0), min_size=8, max_size=8),
    min_size=1,
    max_size=6,
)


class TestEvalTrees:
    """eval_trees gives each tree's eval_matrix values as one row, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(tree_batches(), feature_rows)
    def test_rows_equal_eval_matrix(self, batch, rows):
        X = np.array(rows)
        with np.errstate(all="ignore"):
            got = eval_trees(batch, X)
            assert got.shape == (len(batch), len(X))
            for row, t in zip(got, batch):
                assert same_bits(row, eval_matrix(t, X))

    def test_division_guard_and_overflow(self):
        X = np.array([[DIV_EPS, BELOW_EPS, 1e200, 1e200, -DIV_EPS, -BELOW_EPS, 3.0, -0.0]])
        x = [variable(i) for i in range(1, 9)]
        big = binop("mul", x[2], x[3])
        batch = [
            binop("div", x[6], x[0]),  # |denominator| == DIV_EPS: divides
            binop("div", x[6], x[1]),  # just below: protected, 1.0
            binop("div", x[6], x[4]),
            binop("div", x[6], x[5]),
            binop("div", x[6], x[7]),  # -0.0
            big,  # inf
            binop("sub", big, big),  # NaN
            binop("div", big, big),  # NaN
            x[2],  # a single leaf
        ]
        with np.errstate(all="ignore"):
            got = eval_trees(batch, X)[:, 0]
            want = np.array([eval_matrix(t, X)[0] for t in batch])
        assert same_bits(got, want)
        assert got[1] == got[3] == got[4] == 1.0
        assert got[0] == 3.0 / DIV_EPS and got[2] == -3.0 / DIV_EPS
        assert got[5] == math.inf and math.isnan(got[6]) and math.isnan(got[7])

    def test_empty_batch(self):
        assert eval_trees([], builtin_table1().features).shape == (0, 34)


# Denominators that divide, and those that give 1.0.
SAFE_DENOMINATORS = st.sampled_from(
    (DIV_EPS, -DIV_EPS, math.inf, -math.inf, 1.0, -3.5, 1e308, -1e308)
) | st.floats(DIV_EPS, 1e300) | st.floats(-1e300, -DIV_EPS)
UNSAFE_DENOMINATORS = st.sampled_from(
    (0.0, -0.0, BELOW_EPS, -BELOW_EPS, math.nan, 5e-324, -5e-324)
) | st.floats(-BELOW_EPS, BELOW_EPS)
NUMERATORS = st.sampled_from(EVAL_FLOATS + (math.inf, -math.inf, math.nan)) | st.floats()


class TestProtectedDivision:
    """eval_node's protected division equals eval_tree's scalar rule, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([(7,), (1,), (3, 4), (4, 3)]),
        st.sampled_from(["safe", "unsafe", "mixed"]),
        st.data(),
    )
    def test_matches_scalar_rule(self, shape, case, data):
        size = math.prod(shape)
        if case == "safe":
            b = data.draw(st.lists(SAFE_DENOMINATORS, min_size=size, max_size=size))
        elif case == "unsafe":
            b = data.draw(st.lists(UNSAFE_DENOMINATORS, min_size=size, max_size=size))
        else:
            assume(size >= 2)
            either = SAFE_DENOMINATORS | UNSAFE_DENOMINATORS
            rest = st.lists(either, min_size=size - 2, max_size=size - 2)
            b = [data.draw(SAFE_DENOMINATORS), data.draw(UNSAFE_DENOMINATORS)] + data.draw(rest)
            b = data.draw(st.permutations(b))
        a = data.draw(st.lists(NUMERATORS, min_size=size, max_size=size))
        with np.errstate(all="ignore"):
            got = eval_node("div", np.array(a).reshape(shape), np.array(b).reshape(shape))
        div = binop("div", variable(1), variable(2))
        want = np.array([eval_tree(div, (x, y)) for x, y in zip(a, b)]).reshape(shape)
        assert got.shape == shape
        assert same_bits(got, want)

    def test_zero_denominator_warns_nothing(self):
        a = np.array([[1.0, -2.0, 0.0], [3.0, math.inf, 4.0]])
        b = np.array([[0.0, -0.0, 0.0], [2.0, 0.0, BELOW_EPS]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eval_node("div", a, b)
            flat = eval_node("div", a[0], b[0])
        assert got.tolist() == [[1.0, 1.0, 1.0], [1.5, 1.0, 1.0]]
        assert flat.tolist() == [1.0, 1.0, 1.0]


class TestInfix:
    def test_leaf_rendering(self):
        assert to_infix(variable(3)) == "x3"

    def test_add_rendering(self):
        assert to_infix(binop("add", variable(1), variable(2))) == "(x1 + x2)"

    def test_protected_div_rendering(self):
        t = binop("div", variable(1), binop("sub", variable(2), variable(2)))
        assert to_infix(t) == "(x1 /p (x2 - x2))"

    def test_parse_round_trip_fuzz(self):
        rng = Random(31)
        for _ in range(200):
            t = random_tree(rng, rng.randrange(1, 6))
            assert parse_infix(to_infix(t)) == t

    def test_parse_errors(self):
        for bad in (
            "", "(x1 + x2", "x1 x2", "(x1 ? x2)", "x0", "x9", "x01", "()",
            "0.5", "-x1", "(x1 * 0.5)", "sigmoid(x1)",
        ):
            with pytest.raises(ParseError):
                parse_infix(bad)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="()+-*/px0123456789e. sigmoid", max_size=40))
    @example("1e999")
    @example("(x1 + 1e999)")
    @example("-1e999")
    @example("sigmoid(x1)")
    @example("(x1 * 0.5)")
    def test_any_text_is_a_tree_or_a_parse_error(self, text):
        """parse_infix returns a tree or raises ParseError, never another exception."""
        try:
            t = parse_infix(text)
        except ParseError:
            return
        assert parse_infix(to_infix(t)) == t

    @pytest.mark.parametrize("wrap", ["({} + x1)", "(x2 - {})"])
    def test_deepest_parsed_tree_evaluates_and_prints(self, wrap):
        # Every tree parse_infix returns must stay inside the recursion
        # limit in eval_matrix and to_infix as well.
        text = "x1"
        for _ in range(MAX_PARSE_DEPTH - 1):
            text = wrap.format(text)
        t = parse_infix(text)
        assert to_infix(t) == text
        assert eval_matrix(t, builtin_table1().features).shape == (34,)
        with pytest.raises(ParseError, match=f"deeper than {MAX_PARSE_DEPTH} levels"):
            parse_infix(wrap.format(text))

    def test_independent_evaluator_agrees(self):
        rng = Random(37)
        rows = builtin_table1().features
        for _ in range(150):
            t = random_tree(rng, rng.randrange(1, 6))
            x = rows[rng.randrange(len(rows))]
            mine = eval_tree(t, x)
            theirs = independent_eval(to_infix(t), x)
            assert mine == pytest.approx(theirs, rel=1e-12, abs=1e-12)
