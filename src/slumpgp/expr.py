"""Expression trees over {+, -, *, protected /} and the inputs x1..x8.

Random trees drawn here feed both the semantic engine (initial population,
mutation perturbations) and the standard tree-GP baseline. A tree holds
exactly what `random_tree` draws: function nodes over two children and
variable leaves, with no constants. The logistic map of GSGP's mutation is
applied to perturbation trees' values (`sigmoid`); it is never a node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from random import Random

import numpy as np

FUNCTIONS = ("add", "sub", "mul", "div")
N_VARS = 8
DIV_EPS = 1e-6  # |denominator| below this makes protected division return 1.0
# `sigmoid` calls numpy's `exp` on a whole array only at or above EXP_FAST_MIN,
# where it stays on its fast vector path; below EXP_ZERO_BELOW, e^v is 0.
EXP_FAST_MIN = -700.0
EXP_ZERO_BELOW = -746.0
# The deepest tree parse_infix builds, in node levels. Parsing, eval_matrix
# and to_infix each recurse once per level, so every tree it returns stays
# well inside Python's default recursion limit of 1000 frames.
MAX_PARSE_DEPTH = 500

_OP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/p"}
_SYMBOL_OP = {v: k for k, v in _OP_SYMBOL.items()}


class ParseError(ValueError):
    """Unparseable expression text."""


@dataclass(frozen=True, slots=True)
class ExprTree:
    """Immutable expression node.

    kind is one of 'add', 'sub', 'mul', 'div' (two children) or 'var'
    (leaf, 1-based index). size is the node count of the subtree and depth
    its number of levels (1 for a leaf), both set at construction. memo is
    None until `eval_memo` stores (X, values) in it: the node's values on
    the rows of the feature matrix X. None of the three takes part in
    equality, hashing or repr.
    """

    kind: str
    index: int = 0
    children: tuple["ExprTree", ...] = ()
    size: int = field(init=False, compare=False, repr=False)
    depth: int = field(init=False, compare=False, repr=False)
    memo: tuple | None = field(init=False, compare=False, repr=False)

    # Written by hand, not generated: one call checks the node, sums its size,
    # takes its depth and sets the six slots through the slots' own
    # descriptors. A binary node takes 0.74-0.75 us, against 0.90-0.97 us with
    # max() for the depth (CPython 3.11.7 on an Intel Xeon), and every random
    # tree, STGP graft and parsed model builds its nodes here.
    def __init__(self, kind: str, index: int = 0, children: tuple["ExprTree", ...] = ()):
        if kind in FUNCTIONS:
            if len(children) != 2:
                raise ValueError(f"{kind} node needs 2 children")
            left, right = children
            size = 1 + left.size + right.size
            depth = 1 + (left.depth if left.depth > right.depth else right.depth)
        elif kind == "var":
            if children:
                raise ValueError("variable leaves have no children")
            if not 1 <= index <= N_VARS:
                raise ValueError(f"variable index must be in 1..{N_VARS}, got {index}")
            size = depth = 1
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        _set_kind(self, kind)
        _set_index(self, index)
        _set_children(self, children)
        _set_size(self, size)
        _set_depth(self, depth)
        _set_memo(self, None)


# A slot's own descriptor sets it past the frozen dataclass's __setattr__,
# which always raises.
_set_kind, _set_index, _set_children, _set_size, _set_depth, _set_memo = (
    ExprTree.__dict__[name].__set__
    for name in ("kind", "index", "children", "size", "depth", "memo")
)


def variable(i: int) -> ExprTree:
    return ExprTree("var", index=i)


def binop(op: str, left: ExprTree, right: ExprTree) -> ExprTree:
    return ExprTree(op, children=(left, right))


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Numerically stable logistic map 1 / (1 + e^(-v)), element-wise on v of any shape.

    The output lies in [0, 1]. With e = e^(-|v|), the result is 1/(1 + e)
    where v >= 0 and e/(1 + e) elsewhere (NaN included), computed as one
    division of the chosen numerator by 1 + e. -|v| is -v bit for bit when
    v >= 0 and v itself when v < 0, so every element takes the same
    operations as in the two-branch form 1/(1 + e^(-v)) | e^v/(1 + e^v),
    and the result is equal to it bit for bit.

    numpy's `exp` leaves its fast vector path for the whole call once one
    lane's argument is below about -707.8, near where results turn
    subnormal (-708.4): a 4,096-lane call then takes 60-660 us instead of
    3.5 us (numpy 2.4.6 on an Intel Xeon with AVX-512). In a replay, |v|
    passes 745 on about half the lanes. So `exp` runs on -|v| clamped at
    EXP_FAST_MIN = -700. Past the clamp e < 2^-53, so 1 + e rounds to 1:
    the result is exactly 1 where v > 700, which the clamped e gives as
    well, and exactly e^v where v < -700. Those lanes are set to e^v
    itself: 0 below EXP_ZERO_BELOW = -746, where it underflows, and `exp`
    of the few lanes in between, gathered, which gives each lane the bits
    it gets within a whole array.
    """
    v = np.asarray(v, dtype=float)
    e = np.exp(np.maximum(-np.abs(v), EXP_FAST_MIN))
    out = np.where(v >= 0, 1.0, e)
    out /= 1.0 + e
    far = v < EXP_FAST_MIN
    if far.any():
        out[far] = 0.0
        near = far & (v >= EXP_ZERO_BELOW)
        out[near] = np.exp(v[near])
    return out


def eval_matrix(t: ExprTree, X: np.ndarray) -> np.ndarray:
    """Evaluate one tree on every row of an (n, 8) feature matrix."""
    if t.kind == "var":
        return X[:, t.index - 1]
    left, right = t.children
    return eval_node(t.kind, eval_matrix(left, X), eval_matrix(right, X))


def eval_node(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A function node's values from its left (a) and right (b) children's values.

    Callers map a `var` leaf to column index - 1 of X themselves.
    `eval_matrix`, `eval_trees` and `eval_memo` all compose this step, so
    they give the same values bit for bit. Every kind acts element by
    element, so `eval_trees` also calls it once for many nodes of one kind,
    with one row per node in each argument.

    Protected division is a / b where |b| >= DIV_EPS and 1.0 elsewhere, NaN
    denominators included. When every denominator is safe it is the plain
    a / b; otherwise the quotient is written into an array of ones only
    where |b| >= DIV_EPS, so no lane divides by zero.
    """
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    ok = np.abs(b) >= DIV_EPS
    if ok.all():
        return a / b
    out = np.ones(b.shape)
    np.divide(a, b, out=out, where=ok)
    return out


def eval_memo(t: ExprTree, X: np.ndarray) -> np.ndarray:
    """t's values on every row of X, equal bit for bit to eval_matrix(t, X).

    Every node of t but a `var` leaf keeps (X, values) in its memo; a leaf
    carries none, which is why `random_tree` may share one leaf per
    variable among all its trees. A memo is read only while its X is this
    X, the same object. So a tree that shares subtrees with trees already
    evaluated on X costs one `eval_node` call per node that has no memo for
    X yet. Trees are immutable and X must not change in place, so a memo
    never goes stale; it dies with its node. No other code reads or writes
    the memo slot.
    """
    if t.kind == "var":
        return X[:, t.index - 1]
    memo = t.memo
    if memo is not None and memo[0] is X:
        return memo[1]
    left, right = t.children
    values = eval_node(t.kind, eval_memo(left, X), eval_memo(right, X))
    _set_memo(t, (X, values))
    return values


def eval_trees(trees: list[ExprTree], X: np.ndarray) -> np.ndarray:
    """Evaluate many trees on every row of X at once: row i holds trees[i]'s values.

    The nodes are taken level by level, from the deepest up, with every
    node's children in the level below it, in order. Each level is one
    matrix with a row per node: its `var` leaves are gathered from X's
    columns, and the function nodes of each kind are computed by one
    `eval_node` call on their left and right children's rows. Every step
    acts on each element alone, so each row equals `eval_matrix` of its
    tree bit for bit. A subtree reached twice is evaluated twice.

    On a batch of random perturbation trees this makes a few numpy calls
    per level instead of one per node. On one tree over many rows the
    gathers cost more than they save, so `eval_matrix` stays recursive.
    """
    levels = [list(trees)]
    while levels[-1]:
        levels.append([c for t in levels[-1] for c in t.children])
    columns = X.T
    below = np.empty((0, X.shape[0]))
    for level in reversed(levels[:-1]):
        out = np.empty((len(level), X.shape[0]))
        var_rows, var_columns = [], []
        kinds: dict[str, tuple[list[int], list[int]]] = {}
        first_child = 0
        for row, t in enumerate(level):
            if t.kind == "var":
                var_rows.append(row)
                var_columns.append(t.index - 1)
                continue
            group = kinds.get(t.kind)
            if group is None:
                group = kinds[t.kind] = ([], [])
            group[0].append(row)
            group[1].append(first_child)
            first_child += 2
        if var_rows:
            out[var_rows] = columns[var_columns]
        for kind, (rows, firsts) in kinds.items():
            firsts = np.array(firsts)
            out[rows] = eval_node(kind, below[firsts], below[firsts + 1])
        below = out
    return below


def random_tree(
    rng: Random, max_depth: int, *, full: bool = False, force_root_function: bool = False
) -> ExprTree:
    """Draw a random tree of at most max_depth levels; a leaf counts as depth 1.

    Draws happen in preorder. A full tree branches at every node above the
    last level, so all leaves sit at exactly max_depth. A grow tree (the
    default) picks uniformly over the 12 primitives (4 functions, 8
    variables) at every node, root included, so shapes vary and a tree may
    be a single leaf. With force_root_function a grow tree keeps a function
    at the root whenever max_depth allows — a single-leaf perturbation tree
    squashes to a near-constant, which would make a mutation step a pure
    offset.

    Draw contract: each node takes the same values as `rng.randrange` would
    give, drawn straight from `rng.getrandbits` by the rule that CPython's
    `randrange` draws by, so a seed builds the same trees as it always has;
    a randrange oracle in tests/test_expr.py pins this. Every `var` leaf
    drawn is one of the module's shared leaves, one per variable, never a
    new node.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    getrandbits = rng.getrandbits
    if max_depth == 1:
        return _leaf(getrandbits)
    if full or force_root_function:
        return _branch(getrandbits, max_depth, full)
    return _node(getrandbits, max_depth, full)


# random_tree's recursion. Module-level functions that take getrandbits and
# full as arguments, not closures that call each other: those refer to one
# another through their cells, which makes every call leave cyclic garbage
# behind. Each draw below n inlines the rule that CPython's `randrange` draws
# by: take n.bit_length() bits, not (n - 1).bit_length(), and draw again while
# the value is >= n. That skips randrange's argument checks and inner call,
# which cost more than the draw itself.
_N_OPS = len(FUNCTIONS)
_N_PICKS = _N_OPS + N_VARS
_VAR_BITS, _OP_BITS, _PICK_BITS = N_VARS.bit_length(), _N_OPS.bit_length(), _N_PICKS.bit_length()
_LEAVES = tuple(ExprTree("var", i) for i in range(1, N_VARS + 1))


def _leaf(getrandbits) -> ExprTree:
    r = getrandbits(_VAR_BITS)
    while r >= N_VARS:
        r = getrandbits(_VAR_BITS)
    return _LEAVES[r]


def _branch(getrandbits, depth_left: int, full: bool) -> ExprTree:
    r = getrandbits(_OP_BITS)
    while r >= _N_OPS:
        r = getrandbits(_OP_BITS)
    kids = (_node(getrandbits, depth_left - 1, full), _node(getrandbits, depth_left - 1, full))
    return ExprTree(FUNCTIONS[r], 0, kids)


def _node(getrandbits, depth_left: int, full: bool) -> ExprTree:
    if depth_left == 1:
        return _leaf(getrandbits)
    if full:
        return _branch(getrandbits, depth_left, full)
    r = getrandbits(_PICK_BITS)
    while r >= _N_PICKS:
        r = getrandbits(_PICK_BITS)
    if r < _N_OPS:
        kids = (_node(getrandbits, depth_left - 1, full), _node(getrandbits, depth_left - 1, full))
        return ExprTree(FUNCTIONS[r], 0, kids)
    return _LEAVES[r - _N_OPS]


def ramped_half_and_half(
    rng: Random, count: int, min_depth: int = 2, max_depth: int = 6
) -> list[ExprTree]:
    """`count` trees, cycling (depth, full) over (min, full), (min, grow), ... (max, grow)."""
    schedule = [(d, full) for d in range(min_depth, max_depth + 1) for full in (True, False)]
    slots = (schedule[i % len(schedule)] for i in range(count))
    return [random_tree(rng, depth, full=full) for depth, full in slots]


def to_infix(t: ExprTree) -> str:
    """Fully parenthesized infix text; '/p' marks protected division."""
    if t.kind == "var":
        return f"x{t.index}"
    left, right = t.children
    return f"({to_infix(left)} {_OP_SYMBOL[t.kind]} {to_infix(right)})"


_TOKEN_RE = re.compile(r"\(|\)|\+|/p|\*|-|x[1-9][0-9]*")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append(m.group())
        pos = m.end()
    return tokens


def parse_infix(text: str) -> ExprTree:
    """Parse the to_infix format back into a tree; inverse of to_infix.

    The grammar is  T := x1 | ... | x8 | "(" T op T ")"  with op one of
    + - * /p, and whitespace between tokens ignored. Any other text, and
    text that nests deeper than MAX_PARSE_DEPTH levels, is a ParseError.
    """
    tokens = _tokenize(text)
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def operand(depth: int) -> ExprTree:
        if depth > MAX_PARSE_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_PARSE_DEPTH} levels")
        tok = take()
        if tok == "(":
            left = operand(depth + 1)
            op = take()
            if op not in _SYMBOL_OP:
                raise ParseError(f"expected an operator, got {op!r}")
            right = operand(depth + 1)
            take(")")
            return binop(_SYMBOL_OP[op], left, right)
        if tok[0] == "x":
            try:
                return variable(int(tok[1:]))
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        raise ParseError(f"unexpected token {tok!r}")

    tree = operand(1)
    if pos != len(tokens):
        raise ParseError(f"trailing input starting at {tokens[pos]!r}")
    return tree
