"""Expression trees over {+, -, *, protected /} and the inputs x1..x8.

Random trees drawn here feed both the semantic engine (initial population,
mutation perturbations) and the standard tree-GP baseline. Constant leaves
and sigmoid wrapper nodes never occur in randomly generated trees; they
exist so lineage expansion can spell out crossover/mutation arithmetic as
a literal expression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from random import Random

import numpy as np

FUNCTIONS = ("add", "sub", "mul", "div")
N_VARS = 8
DIV_EPS = 1e-6  # |denominator| below this makes protected division return 1.0
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

    kind is one of 'add', 'sub', 'mul', 'div' (binary), 'var' (leaf,
    1-based index), 'const' (leaf, value) or 'sigmoid' (unary). size is the
    node count of the subtree, set at construction; it takes no part in
    equality, hashing or repr.
    """

    kind: str
    index: int = 0
    value: float = 0.0
    children: tuple["ExprTree", ...] = ()
    size: int = field(init=False, compare=False, repr=False)

    # Written by hand, not generated: one call that checks the node, sums its
    # size and sets the five slots takes about 20% less time than the
    # generated __init__ plus a __post_init__ (0.83 against 1.02 us for a
    # binary node, CPython 3.11 on an Intel Xeon), and every random tree,
    # STGP graft and parsed model builds its nodes here.
    def __init__(
        self,
        kind: str,
        index: int = 0,
        value: float = 0.0,
        children: tuple["ExprTree", ...] = (),
    ):
        if kind in FUNCTIONS:
            if len(children) != 2:
                raise ValueError(f"{kind} node needs 2 children")
            size = 1 + children[0].size + children[1].size
        elif kind == "var":
            if children:
                raise ValueError("variable leaves have no children")
            if not 1 <= index <= N_VARS:
                raise ValueError(f"variable index must be in 1..{N_VARS}, got {index}")
            size = 1
        elif kind == "sigmoid":
            if len(children) != 1:
                raise ValueError("sigmoid node needs exactly 1 child")
            size = 1 + children[0].size
        elif kind == "const":
            if children:
                raise ValueError("constant leaves have no children")
            if not math.isfinite(value):
                raise ValueError(f"constant must be finite, got {value!r}")
            size = 1
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "index", index)
        _set(self, "value", value)
        _set(self, "children", children)
        _set(self, "size", size)


_set = object.__setattr__  # a frozen dataclass's own __setattr__ always raises


def variable(i: int) -> ExprTree:
    return ExprTree("var", index=i)


def constant(v: float) -> ExprTree:
    return ExprTree("const", value=float(v))


def binop(op: str, left: ExprTree, right: ExprTree) -> ExprTree:
    return ExprTree(op, children=(left, right))


def sigmoid_node(child: ExprTree) -> ExprTree:
    return ExprTree("sigmoid", children=(child,))


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Numerically stable logistic map 1 / (1 + e^(-v)); output in [0, 1].

    With e = e^(-|v|) and d = 1 + e, the result is 1/d where v >= 0 and e/d
    elsewhere (NaN included). -|v| is -v bit for bit when v >= 0 and v
    itself when v < 0, so every element takes the same operations as in
    the two-branch form 1/(1 + e^(-v)) | e^v/(1 + e^v), and the result is
    equal to it bit for bit. Both sides are computed for every element,
    which costs less than masking the array into two halves.
    """
    v = np.asarray(v, dtype=float)
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def eval_matrix(t: ExprTree, X: np.ndarray) -> np.ndarray:
    """Evaluate one tree on every row of an (n, 8) feature matrix."""
    if t.kind == "var":
        return X[:, t.index - 1]
    args = []
    for c in t.children:
        args.append(eval_matrix(c, X))
    return eval_node(t, X, args)


def eval_node(t: ExprTree, X: np.ndarray, args: list[np.ndarray]) -> np.ndarray:
    """One node's values on every row of X, from its children's values in order.

    Callers map a `var` leaf to column index - 1 of X themselves.
    `eval_matrix` and the subtree cache of `baselines.stgp_run` both compose
    this step, so they give the same values bit for bit.
    """
    if t.kind == "const":
        return np.full(X.shape[0], t.value)
    if t.kind == "sigmoid":
        return sigmoid(args[0])
    a, b = args
    if t.kind == "add":
        return a + b
    if t.kind == "sub":
        return a - b
    if t.kind == "mul":
        return a * b
    out = np.ones_like(b)
    ok = np.abs(b) >= DIV_EPS
    np.divide(a, b, out=out, where=ok)
    return out


@dataclass(frozen=True)
class GenMethod:
    """Tree generation recipe: 'full' or 'grow' up to max_depth levels."""

    method: str
    max_depth: int

    def __post_init__(self):
        if self.method not in ("full", "grow"):
            raise ValueError(f"method must be 'full' or 'grow', got {self.method!r}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")


def randbelow(rng: Random, n: int) -> int:
    """A uniform integer in [0, n), drawn with rng.getrandbits.

    Draw contract: the same values as `rng.randrange(n)`, from the same
    draws, so the generator ends in the same state; the oracle tests in
    tests/test_expr.py pin this. Like CPython's own `_randbelow`, it takes
    n.bit_length() bits per draw (not (n - 1).bit_length()) and draws again
    while the value is >= n. It skips `randrange`'s argument checks and
    its call into `_randbelow`, which cost more than the draw itself.
    """
    if n < 1:
        raise ValueError(f"empty range for randbelow: n = {n}")
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def random_tree(
    rng: Random, gen: GenMethod, force_root_function: bool = False
) -> ExprTree:
    """Draw a random tree; a leaf counts as depth 1.

    Draws happen in preorder. 'full' branches at every node above the last
    level, so all leaves sit at exactly max_depth. 'grow' picks uniformly
    over the 12 primitives (4 functions, 8 variables) at every node, root
    included, so shapes vary and a tree may be a single leaf. With
    force_root_function a grow tree keeps a function at the root whenever
    max_depth allows — a single-leaf perturbation tree squashes to a
    near-constant, which would make a mutation step a pure offset.

    Draw contract: each node takes the same values as `rng.randrange` would
    give, through `randbelow`, so a seed builds the same trees as it always
    has; the oracle tests in tests/test_expr.py pin this.
    """
    full = gen.method == "full"

    def leaf() -> ExprTree:
        return ExprTree("var", randbelow(rng, N_VARS) + 1)

    def branch(depth_left: int) -> ExprTree:
        op = FUNCTIONS[randbelow(rng, len(FUNCTIONS))]
        return ExprTree(op, children=(build(depth_left - 1), build(depth_left - 1)))

    def build(depth_left: int) -> ExprTree:
        if depth_left == 1:
            return leaf()
        if full:
            return branch(depth_left)
        pick = randbelow(rng, len(FUNCTIONS) + N_VARS)
        if pick < len(FUNCTIONS):
            kids = (build(depth_left - 1), build(depth_left - 1))
            return ExprTree(FUNCTIONS[pick], children=kids)
        return ExprTree("var", pick - len(FUNCTIONS) + 1)

    if gen.max_depth == 1:
        return leaf()
    if full or force_root_function:
        return branch(gen.max_depth)
    return build(gen.max_depth)


def ramped_half_and_half(
    rng: Random, count: int, min_depth: int = 2, max_depth: int = 6
) -> list[ExprTree]:
    """Generate `count` trees cycling depths min..max, half full, half grow."""
    schedule = [
        GenMethod(method, depth)
        for depth in range(min_depth, max_depth + 1)
        for method in ("full", "grow")
    ]
    return [random_tree(rng, schedule[i % len(schedule)]) for i in range(count)]


def to_infix(t: ExprTree) -> str:
    """Fully parenthesized infix text; '/p' marks protected division."""
    if t.kind == "var":
        return f"x{t.index}"
    if t.kind == "const":
        return repr(t.value)
    if t.kind == "sigmoid":
        return f"sigmoid({to_infix(t.children[0])})"
    left, right = t.children
    return f"({to_infix(left)} {_OP_SYMBOL[t.kind]} {to_infix(right)})"


_TOKEN_RE = re.compile(
    r"\(|\)|\+|/p|\*|-|sigmoid|x\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
)


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


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


def parse_infix(text: str) -> ExprTree:
    """Parse the to_infix format back into a tree; inverse of to_infix.

    Text that nests deeper than MAX_PARSE_DEPTH levels is a ParseError.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

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
        if tok == "sigmoid":
            take("(")
            inner = operand(depth + 1)
            take(")")
            return sigmoid_node(inner)
        if tok.startswith("x") and tok != "x":
            try:
                return variable(int(tok[1:]))
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        if tok == "-" and peek() is not None and _NUMBER_RE.match(peek()):
            return constant(-float(take()))
        if _NUMBER_RE.match(tok):
            return constant(float(tok))
        raise ParseError(f"unexpected token {tok!r}")

    tree = operand(1)
    if pos != len(tokens):
        raise ParseError(f"trailing input starting at {tokens[pos]!r}")
    return tree
