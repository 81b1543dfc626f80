"""Expression trees: construction, evaluation, generation, text format."""

import dataclasses
import math
import re
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slumpgp.dataset import builtin_table1
from slumpgp.expr import (
    DIV_EPS,
    FUNCTIONS,
    MAX_PARSE_DEPTH,
    ExprTree,
    GenMethod,
    N_VARS,
    ParseError,
    binop,
    constant,
    eval_matrix,
    parse_infix,
    ramped_half_and_half,
    random_tree,
    randbelow,
    sigmoid,
    sigmoid_node,
    to_infix,
    variable,
)

ROW1 = builtin_table1().features[0]


def eval_tree(t: ExprTree, x) -> float:
    """Oracle: evaluate one tree on a single 8-feature row, in scalar floats."""
    if t.kind == "var":
        return float(x[t.index - 1])
    if t.kind == "const":
        return t.value
    if t.kind == "sigmoid":
        v = eval_tree(t.children[0], x)
        if v >= 0:
            return 1.0 / (1.0 + math.exp(-v))
        ev = math.exp(v)
        return ev / (1.0 + ev)
    a = eval_tree(t.children[0], x)
    b = eval_tree(t.children[1], x)
    if t.kind == "add":
        return a + b
    if t.kind == "sub":
        return a - b
    if t.kind == "mul":
        return a * b
    return a / b if abs(b) >= DIV_EPS else 1.0


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
        if text.startswith("sigmoid(", pos):
            pos += len("sigmoid(")
            v = expr()
            skip_ws()
            assert text[pos] == ")"
            pos += 1
            return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))
        if text[pos] == "x":
            pos += 1
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            return x[int(text[start:pos]) - 1]
        start = pos
        while pos < len(text) and text[pos] not in " )":
            pos += 1
        return float(text[start:pos])

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
            ExprTree("sigmoid", children=(variable(1), variable(2)))
        with pytest.raises(ValueError):
            ExprTree("cosh", children=(variable(1), variable(2)))

    def test_constant_must_be_finite(self):
        constant(0.5)
        with pytest.raises(ValueError):
            constant(math.inf)

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
            (lambda: ExprTree("sigmoid"), "sigmoid node needs exactly 1 child"),
            (
                lambda: ExprTree("sigmoid", children=(variable(1), variable(2))),
                "sigmoid node needs exactly 1 child",
            ),
            (
                lambda: ExprTree("var", 1, children=(variable(2),)),
                "variable leaves have no children",
            ),
            (
                lambda: ExprTree("const", value=1.0, children=(variable(2),)),
                "constant leaves have no children",
            ),
            (lambda: ExprTree("var", 0), "variable index must be in 1..8, got 0"),
            (lambda: ExprTree("var", 9), "variable index must be in 1..8, got 9"),
            (lambda: ExprTree("var", -1), "variable index must be in 1..8, got -1"),
            (lambda: ExprTree("const", value=math.inf), "constant must be finite, got inf"),
            (lambda: ExprTree("const", value=-math.inf), "constant must be finite, got -inf"),
            (lambda: ExprTree("const", value=math.nan), "constant must be finite, got nan"),
            (lambda: ExprTree("cosh", children=(variable(1),)), "unknown node kind 'cosh'"),
        ],
    )
    def test_invalid_node_message(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("name", ["kind", "index", "value", "children", "size"])
    def test_assignment_raises(self, name):
        t = binop("add", variable(1), constant(2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, getattr(t, name))

    def test_fields_as_built(self):
        leaf = ExprTree("var", 3)
        t = ExprTree("sub", children=(leaf, constant(0.5)))
        assert (leaf.kind, leaf.index, leaf.value, leaf.children, leaf.size) == ("var", 3, 0.0, (), 1)
        assert (t.kind, t.index, t.value, t.children, t.size) == (
            "sub", 0, 0.0, (leaf, constant(0.5)), 3
        )
        assert sigmoid_node(t).size == 4
        assert repr(leaf) == "ExprTree(kind='var', index=3, value=0.0, children=())"


class TestRandbelow:
    """Draw contract: randbelow(rng, n) is rng.randrange(n), draw for draw."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.just(1),
            st.integers(0, 70).map(lambda e: 2**e),
            st.integers(1, 2**70),
            st.integers(1, 20),
        ),
        st.integers(0, 2**64),
    )
    def test_same_values_and_state_as_randrange(self, n, seed):
        mine, oracle = Random(seed), Random(seed)
        assert [randbelow(mine, n) for _ in range(30)] == [oracle.randrange(n) for _ in range(30)]
        assert mine.getstate() == oracle.getstate()

    @pytest.mark.parametrize("n", [0, -1, -8])
    def test_empty_range_raises(self, n):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError):
            randbelow(rng, n)
        assert rng.getstate() == state


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
        t = binop("div", constant(1.0), variable(1))
        x = np.zeros(8)
        x[0] = DIV_EPS
        assert eval_tree(t, x) == 1.0 / DIV_EPS
        x[0] = DIV_EPS / 2
        assert eval_tree(t, x) == 1.0

    def test_totality_on_generated_trees(self):
        rng = Random(11)
        rows = builtin_table1().features
        for _ in range(300):
            gen = GenMethod(("full", "grow")[rng.randrange(2)], rng.randrange(1, 7))
            t = random_tree(rng, gen)
            v = eval_tree(t, rows[rng.randrange(len(rows))])
            assert math.isfinite(v)

    def test_eval_matrix_agrees_bitwise(self):
        rng = Random(13)
        rows = builtin_table1().features
        for _ in range(100):
            t = random_tree(rng, GenMethod("grow", rng.randrange(2, 7)))
            vec = eval_matrix(t, rows)
            assert vec.shape == (34,)
            for j, row in enumerate(rows):
                assert vec[j] == eval_tree(t, row)

    def test_eval_matrix_sigmoid_close(self):
        rng = Random(17)
        rows = builtin_table1().features
        for _ in range(50):
            t = sigmoid_node(random_tree(rng, GenMethod("grow", 3)))
            vec = eval_matrix(t, rows)
            for j, row in enumerate(rows):
                assert vec[j] == pytest.approx(eval_tree(t, row), rel=1e-12)

    def test_sigmoid_stable_and_bounded(self):
        v = sigmoid(np.array([-1e6, -50.0, 0.0, 50.0, 1e6]))
        assert np.all((v >= 0.0) & (v <= 1.0))
        assert v[2] == 0.5
        assert math.isfinite(v[0]) and math.isfinite(v[-1])


# Signed zeros, infinities, NaN, subnormals, and |v| past where e^|v|
# overflows (709.8) or e^-|v| underflows to 0 (745.2).
SPECIAL_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, -1e-310,
    36.7, -36.7, 709.8, -709.8, 710.0, -710.0, 745.2, -745.2, 746.0, -746.0, 1e308, -1e308,
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


class TestRandomTree:
    def test_full_depth_one_is_single_leaf(self):
        t = random_tree(Random(0), GenMethod("full", 1))
        assert not t.children and t.kind == "var"

    def test_full_all_leaves_at_exact_depth(self):
        rng = Random(3)
        for depth in (2, 3, 4, 5):
            for _ in range(20):
                t = random_tree(rng, GenMethod("full", depth))
                assert set(leaf_depths(t)) == {depth}
                assert t.size == 2**depth - 1

    def test_grow_respects_depth_cap(self):
        rng = Random(5)
        for _ in range(200):
            depth = rng.randrange(1, 7)
            t = random_tree(rng, GenMethod("grow", depth))
            assert tree_depth(t) <= depth

    def test_grow_varies_root_kind(self):
        rng = Random(9)
        kinds = {random_tree(rng, GenMethod("grow", 4)).kind for _ in range(200)}
        assert "var" in kinds  # a grow tree may be a single leaf
        assert kinds & set(FUNCTIONS)

    def test_force_root_function(self):
        rng = Random(9)
        for _ in range(100):
            t = random_tree(rng, GenMethod("grow", 4), force_root_function=True)
            assert t.kind in FUNCTIONS
        t = random_tree(rng, GenMethod("grow", 1), force_root_function=True)
        assert t.kind == "var"  # depth budget wins

    def test_determinism(self):
        for gen in (GenMethod("full", 4), GenMethod("grow", 5)):
            assert random_tree(Random(42), gen) == random_tree(Random(42), gen)

    def test_uniform_symbol_draws(self):
        rng = Random(21)
        ops = {f: 0 for f in FUNCTIONS}
        vars_seen = {i: 0 for i in range(1, N_VARS + 1)}
        for _ in range(400):
            t = random_tree(rng, GenMethod("full", 3))
            ops[t.kind] += 1
            for leaf in leaves(t):
                vars_seen[leaf.index] += 1
        assert all(c > 0 for c in ops.values())
        assert all(c > 0 for c in vars_seen.values())

    def test_genmethod_validation(self):
        with pytest.raises(ValueError):
            GenMethod("half", 3)
        with pytest.raises(ValueError):
            GenMethod("full", 0)


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
    st.one_of(
        st.integers(1, N_VARS).map(variable),
        st.floats(allow_nan=False, allow_infinity=False).map(constant),
    ),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(FUNCTIONS), kids, kids).map(lambda a: binop(*a)),
        kids.map(sigmoid_node),
    ),
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
            t = random_tree(rng, GenMethod("full", d))
            assert t.size == 2**d - 1

    @settings(max_examples=200, deadline=None)
    @given(trees)
    def test_stored_size_is_node_count(self, t):
        assert t.size == count_nodes(t)
        parsed = parse_infix(to_infix(t))
        assert parsed.size == count_nodes(parsed) == t.size

    @settings(max_examples=200, deadline=None)
    @given(trees)
    def test_size_ignored_by_equality_and_hash(self, t):
        """A tree rebuilt by another path equals and hashes like the original."""
        rebuilt = parse_infix(to_infix(t))
        assert rebuilt is not t
        assert rebuilt == t and hash(rebuilt) == hash(t)
        copied = ExprTree(t.kind, t.index, t.value, t.children)
        assert copied == t and hash(copied) == hash(t)
        assert "size" not in repr(t)


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
            t = random_tree(rng, GenMethod("grow", rng.randrange(1, 6)))
            assert parse_infix(to_infix(t)) == t

    def test_parse_round_trip_with_constants_and_sigmoid(self):
        t = binop(
            "add",
            binop("mul", variable(1), constant(0.25)),
            binop("mul", constant(0.1), binop("sub", sigmoid_node(variable(2)), sigmoid_node(variable(3)))),
        )
        assert parse_infix(to_infix(t)) == t

    def test_parse_constant_exact_float(self):
        v = 0.1234567890123456789
        assert parse_infix(repr(v)).value == v

    def test_parse_errors(self):
        for bad in ("", "(x1 + x2", "x1 x2", "(x1 ? x2)", "x0", "x9", "()"):
            with pytest.raises(ValueError):
                parse_infix(bad)

    @pytest.mark.parametrize("wrap", ["({} + x1)", "(x2 - {})", "sigmoid({})"])
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
            t = random_tree(rng, GenMethod("grow", rng.randrange(1, 6)))
            if rng.random() < 0.3:
                t = sigmoid_node(t)
            x = rows[rng.randrange(len(rows))]
            mine = eval_tree(t, x)
            theirs = independent_eval(to_infix(t), x)
            assert mine == pytest.approx(theirs, rel=1e-12, abs=1e-12)
