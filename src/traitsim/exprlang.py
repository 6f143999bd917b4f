"""Tiny arithmetic expression language for scalar functions of the trait x.

Scenario files use it to define the birth rate ``b(x)``, the death rate
``d(x)`` and the initial density ``u0(x)``.  The language is deliberately
small: one variable ``x``, the constants ``pi`` and ``e``, the operators
``+ - * / ^`` and a fixed set of builtin calls.

Grammar (EBNF)::

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;
    atom   = NUMBER | "x" | "pi" | "e"
           | NAME "(" expr { "," expr } ")"
           | "(" expr ")" ;

``^`` binds tighter than unary minus and is right associative, so ``-x^2``
parses as ``-(x^2)`` and ``2^3^2`` as ``2^(3^2)``.  ``+ - * /`` are left
associative.  Nesting is bounded: at most :data:`MAX_NESTING` parentheses
open at once (a call's included), and as many minus signs and ``^``
exponents around any operand; deeper input is a :class:`ParseError`.

Builtins: ``exp``, ``sin``, ``cos``, ``sqrt``, ``abs`` (one argument),
``min``, ``max`` (two), ``clamp(v, lo, hi)`` and the indicator
``ind(lo, hi)`` which is 1 where ``lo <= x <= hi`` and 0 elsewhere.
``ind`` is the only discontinuous builtin; it is how scenario files carve
out the support of the initial density cell-exactly on the grid.

Expression values are immutable after parsing and safe to share between
threads.  Sampling, printing, ``repr``, ``==``, ``hash`` and pickling fold over one
loop-driven post-order walk, so no parsed tree is too deep for them.
Sampling has a scalar tree walk's bits and errors on arrays of nodes: exp,
sin, cos and ``^`` call libm per element, since numpy's kernels round differently.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "ExprError", "ParseError", "EvalError", "Num", "Var", "Const", "Neg", "Bin", "Call", "Expr",
    "FUNCTIONS", "CONSTANTS", "parse", "unparse", "bound_on_grid", "TraitFunction",
]

Span = tuple[int, int]

#: builtin call names mapped to their arity
FUNCTIONS: dict[str, int] = {
    "exp": 1, "sin": 1, "cos": 1, "sqrt": 1, "abs": 1, "min": 2, "max": 2, "clamp": 3, "ind": 2,
}

#: named constants
CONSTANTS: dict[str, float] = {"pi": math.pi, "e": math.e}


class ExprError(ValueError):
    """Base class for expression errors; ``offset`` is a position in the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class ParseError(ExprError):
    pass


class EvalError(ExprError):
    pass


# --------------------------------------------------------------------------
# AST
#
# ``span`` records (start, end) source offsets for error reporting and is
# excluded from structural equality, so a round-tripped tree compares equal
# to the original.

class _Node:
    """Base of the node classes: ``==``, ``hash``, ``repr`` and pickling by flat post-order."""

    def __eq__(self, other):
        return _key(self) == _key(other) if isinstance(other, _Node) else NotImplemented

    def __hash__(self):
        return hash(_key(self))

    def __reduce__(self):
        # flat, spans included, and rebuilt by a fold: pickle would recurse once per level
        return _fold, (tuple((n, type(e), own, e.span) for n, e, own in _postorder(self)), _join)

    def __repr__(self):
        """The dataclass form, e.g. ``Call(name='exp', args=(Var(),))``; spans are left out."""
        def text(step, parts):  # nested tuples of strings, joined once below
            _, e, own = step
            if isinstance(e, Call):  # the children make up one field, a tuple
                parts = [("(", parts[:1], [(", ", p) for p in parts[1:]],
                          ",)" if len(parts) == 1 else ")")]
            values = [*map(repr, own), *parts]
            items = [(f"{name}=", v) for name, v in zip(_PARTS[type(e)][0], values)]
            return f"{type(e).__qualname__}(", items[:1], [(", ", i) for i in items[1:]], ")"

        try:
            steps = _postorder(self)
        except TypeError:  # a hand-built node with a child that is no node: one level at a time
            items = (f"{name}={getattr(self, name)!r}" for name in _PARTS[type(self)][0])
            return f"{type(self).__qualname__}({', '.join(items)})"
        return _joined(_fold(steps, text))


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Node):
    value: float
    span: Span = field(default=(0, 0), repr=False)


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    span: Span = field(default=(0, 0), repr=False)


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    name: str
    span: Span = field(default=(0, 0), repr=False)


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    operand: "Expr"
    span: Span = field(default=(0, 0), repr=False)


@dataclass(frozen=True, eq=False, repr=False)
class Bin(_Node):
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Span = field(default=(0, 0), repr=False)


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    name: str
    args: tuple["Expr", ...]
    span: Span = field(default=(0, 0), repr=False)


Expr = Union[Num, Var, Const, Neg, Bin, Call]


# --------------------------------------------------------------------------
# The walk: a tree is walked in one place, ``_postorder``, with an explicit
# stack, and every operation on a whole tree folds over its steps (``_fold``),
# so a parsed sum of any length is as safe as a short one.

#: node class -> (the names of its fields but span, in constructor order;
#: a function giving its fields but span and children, and its children)
_PARTS = {
    Num: (("value",), lambda e: ((e.value,), ())),
    Var: ((), lambda e: ((), ())),
    Const: (("name",), lambda e: ((e.name,), ())),
    Neg: (("operand",), lambda e: ((), (e.operand,))),
    Bin: (("op", "lhs", "rhs"), lambda e: ((e.op,), (e.lhs, e.rhs))),
    Call: (("name", "args"), lambda e: ((e.name,), e.args)),
}


def _postorder(root: Expr) -> list[tuple[int, Expr, tuple]]:
    """``(child count, node, own fields)`` per node of ``root``, children first, left to right."""
    steps, stack = [], [root]
    while stack:
        node = stack.pop()
        if type(node) not in _PARTS:
            raise TypeError(f"not an expression node: {node!r}")
        own, children = _PARTS[type(node)][1](node)
        steps.append((len(children), node, own))
        stack.extend(children)
    steps.reverse()
    return steps


def _fold(steps, visit):
    """The root's value, where a step's value is ``visit(step, its children's values)``."""
    stack = []
    for step in steps:
        k = len(stack) - step[0]
        stack[k:] = [visit(step, stack[k:])]
    return stack[0]


def _key(e: Expr) -> tuple:
    """``e`` flat: two trees are equal, spans aside, exactly where their keys are."""
    return tuple((n, type(node), own) for n, node, own in _postorder(e))


def _join(step, children) -> Expr:
    """The node of a flat step ``(child count, class, own fields, span)``, given its children."""
    _, cls, own, span = step
    return cls(*own, tuple(children), span) if cls is Call else cls(*own, *children, span)


# --------------------------------------------------------------------------
# Lexer

#: one alternative per token class, tried in order; the last takes any other character
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<punct>[-+*/^(),])|(?P<other>.)",
    re.DOTALL,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kind is the punct char, 'num', 'name' or 'eof'."""
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN_RE.finditer(source):
        kind, text, i = m.lastgroup, m.group(), m.start()
        if kind == "other":
            number = text.isdigit() or text == "."  # a digit \d does not take, such as ²
            bad = "malformed number" if number else f"unexpected character {text!r}"
            raise ParseError(f"syntax error at offset {i}: {bad}", i)
        if kind != "space":
            tokens.append((text if kind == "punct" else kind, text, i))
    tokens.append(("eof", "", len(source)))
    return tokens


# --------------------------------------------------------------------------
# Parser

#: most parentheses open at once (a call's included), and most minus signs and
#: ^ exponents enclosing one operand: the parser recurses per level, and this
#: bound keeps it well inside Python's recursion limit
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.parens = self.operators = 0  # the nesting levels open at pos

    @staticmethod
    def nest(depth: int, offset: int) -> int:
        """``depth + 1``, the levels open once the token at ``offset`` opens one more."""
        if depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels at offset {offset}", offset)
        return depth + 1

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, expected: str) -> ParseError:
        kind, text, offset = self.peek()
        found = "end of input" if kind == "eof" else repr(text)
        message = f"syntax error at offset {offset}: expected {expected}, found {found}"
        return ParseError(message, offset)

    def expect(self, kind: str, expected: str) -> tuple[str, str, int]:
        if self.peek()[0] != kind:
            raise self.error(expected)
        return self.advance()

    def parse_expr(self, ops: str = "+-") -> Expr:
        # a left-associative chain: a sum of terms, or (ops "*/") a term of unaries
        node = self.parse_expr("*/") if ops == "+-" else self.parse_unary()
        while self.peek()[0] in ops:
            op = self.advance()[0]
            rhs = self.parse_expr("*/") if ops == "+-" else self.parse_unary()
            node = Bin(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def parse_unary(self) -> Expr:
        # a chain of signed atoms joined by ^, looped and folded from the right:
        # -a ^ -b ^ c is -(a ^ (-(b ^ c)))
        links, enclosing = [], self.operators
        while True:
            signs = []
            while self.peek()[0] == "-":
                signs.append(self.advance()[2])
                self.operators = self.nest(self.operators, signs[-1])
            links.append((signs, self.parse_atom()))
            if self.peek()[0] != "^":
                break
            self.operators = self.nest(self.operators, self.advance()[2])
        self.operators = enclosing
        node = None
        for signs, base in reversed(links):
            if node is not None:
                base = Bin("^", base, node, (base.span[0], node.span[1]))
            for offset in reversed(signs):
                base = Neg(base, (offset, base.span[1]))
            node = base
        return node

    def parse_atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text), (offset, offset + len(text)))
        if kind == "(":
            self.advance()
            self.parens = self.nest(self.parens, offset)
            inner = self.parse_expr()
            self.expect(")", "')'")
            self.parens -= 1
            return inner
        if kind == "name":
            self.advance()
            end = offset + len(text)
            if text == "x":
                return Var((offset, end))
            if text in CONSTANTS:
                return Const(text, (offset, end))
            if text in FUNCTIONS:
                return self.parse_call(text, offset)
            raise ParseError(f"unknown identifier '{text}' at offset {offset}", offset)
        raise self.error("an operand")

    def parse_call(self, name: str, start: int) -> Expr:
        self.parens = self.nest(self.parens, self.expect("(", "'('")[2])
        args = [self.parse_expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.parse_expr())
        _, _, rp = self.expect(")", "')' or ','")
        self.parens -= 1
        arity = FUNCTIONS[name]
        if len(args) != arity:
            raise ParseError(
                f"{name} expects {arity} argument(s), got {len(args)} at offset {start}", start)
        return Call(name, tuple(args), (start, rp + 1))


def parse(source: str) -> Expr:
    """Parse ``source`` into an AST, or raise :class:`ParseError`."""
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    if parser.peek()[0] != "eof":
        raise parser.error("end of input")
    return node


# --------------------------------------------------------------------------
# Evaluation
#
# A fold over the post-order evaluates a chunk of nodes, with numpy running,
# in the walk's order, only what IEEE rounding makes exact per element.
# (Where two different NaNs meet in + or *, numpy may keep the other's sign
# and payload; validation rejects any NaN in b, d or u0.)  A check that fires
# sends the chunk through again node by node, so the error is the first
# failing node's, as in a scalar walk.

#: nodes per array: libm calls map over lists of at most this many floats
_CHUNK = 4096


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _power(base: float, exponent: float, span: Span) -> float:
    try:
        return math.pow(base, exponent)
    except OverflowError:
        negative = base < 0 and exponent == int(exponent) and int(exponent) % 2 == 1
        return -math.inf if negative else math.inf
    except ValueError:
        at = span[0]
        if base == 0.0:
            raise EvalError(f"division by zero at offset {at}", at) from None
        raise EvalError(f"fractional power of negative base at offset {at}", at) from None


def _libm(f, exact, *args):
    """``f`` per element on Python floats; ``exact`` (its saturating form, or f) redoes a raise."""
    n = max(a.size for a in args)
    values = [a.tolist() if a.size == n else repeat(a.item()) for a in args]
    try:
        return np.fromiter(map(f, *values), float, n)
    except (OverflowError, ValueError):
        return np.fromiter(map(exact, *values), float, n)


#: builtin calls over the points x and their evaluated arguments (min and max as Python's)
_CALLS = {
    "exp": lambda x, v: _libm(math.exp, _exp, v),
    "sin": lambda x, v: _libm(math.sin, math.sin, v),
    "cos": lambda x, v: _libm(math.cos, math.cos, v),
    "sqrt": lambda x, v: np.sqrt(v),
    "abs": lambda x, v: np.abs(v),
    "min": lambda x, a, b: np.where(b < a, b, a),
    "max": lambda x, a, b: np.where(b > a, b, a),
    "clamp": lambda x, v, lo, hi: np.where(hi < (m := np.where(lo > v, lo, v)), hi, m),
    "ind": lambda x, lo, hi: np.where((lo <= x) & (x <= hi), 1.0, 0.0),
}

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _evaluate(steps, x: np.ndarray) -> np.ndarray:
    """The tree of post-order ``steps`` at the points ``x``."""
    if not np.isfinite(x).all():
        raise EvalError("evaluation point must be finite", 0)

    def value(step, args):
        e = step[1]
        if isinstance(e, Var):
            return x
        if isinstance(e, (Num, Const)):  # a one-element array, broadcast over the nodes
            return np.array([e.value if isinstance(e, Num) else CONSTANTS[e.name]])
        if isinstance(e, Neg):
            return -args[0]
        if isinstance(e, Call):
            if e.name == "sqrt" and (args[0] < 0.0).any():
                raise EvalError(f"square root of negative at offset {e.span[0]}", e.span[0])
            return _CALLS[e.name](x, *args)
        if e.op == "^":
            return _libm(math.pow, partial(_power, span=e.span), *args)
        if e.op == "/" and (args[1] == 0.0).any():
            raise EvalError(f"division by zero at offset {e.span[0]}", e.span[0])
        return _ARITHMETIC[e.op](*args)

    return _fold(steps, value)


def _sample(e: Expr, nodes) -> np.ndarray:
    """``e`` at every node as a float64 array, one chunk of nodes at a time."""
    nodes = np.asarray(nodes, dtype=float)
    steps, n, out = _postorder(e), nodes.size, np.empty(nodes.size)
    with np.errstate(all="ignore"):
        for i in range(0, n, _CHUNK):
            try:
                out[i:i + _CHUNK] = _evaluate(steps, nodes[i:i + _CHUNK])
            except ValueError:  # node by node: the first failing node raises
                for j in range(i, min(i + _CHUNK, n)):
                    out[j:j + 1] = _evaluate(steps, nodes[j:j + 1])
    return out


# --------------------------------------------------------------------------
# Printing

def unparse(e: Expr) -> str:
    """Canonical fully parenthesized form; ``parse(unparse(e))`` equals ``e``.

    Each operator gets parentheses of its own, so the printed form nests
    deeper than the source, and past :data:`MAX_NESTING` it does not parse.
    """
    def text(step, parts):  # nested tuples of strings, joined once below
        e = step[1]
        if isinstance(e, Num):
            v = e.value
            return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
        if isinstance(e, Neg):
            return "(-", parts[0], ")"
        if isinstance(e, Bin):
            return "(", parts[0], f" {e.op} ", parts[1], ")"
        if isinstance(e, Call):
            return f"{e.name}(", parts[:1], [(", ", p) for p in parts[1:]], ")"
        return "x" if isinstance(e, Var) else e.name

    return _joined(_fold(_postorder(e), text))


def _joined(parts) -> str:
    """The strings in nested tuples and lists ``parts``, in order, joined by an explicit stack."""
    pending, out = [parts], []
    while pending:
        part = pending.pop()
        if isinstance(part, str):
            out.append(part)
        else:
            pending.extend(reversed(part))
    return "".join(out)


# --------------------------------------------------------------------------
# Grid based range analysis

def bound_on_grid(e: Expr, grid) -> tuple[float, float]:
    """Min/max of ``e`` over the grid nodes (grid-certified bounds).

    Sampling at the solver's own nodes is exactly the certification the rest
    of the pipeline needs: the corridor constants and the discrete argmax all
    live on the same lattice.  ``grid`` may be a :class:`~traitsim.model.Grid`
    or any array of nodes.
    """
    nodes = np.asarray(getattr(grid, "nodes", grid), dtype=float)
    if nodes.size == 0:
        raise ValueError("cannot bound an expression on an empty grid")
    values = _sample(e, nodes)
    return float(values.min()), float(values.max())


class TraitFunction(NamedTuple):
    """A scalar function of the trait, kept together with its source text."""

    source: str
    expr: Expr

    @classmethod
    def from_source(cls, source: str) -> "TraitFunction":
        return cls(source, parse(source))

    def sample(self, nodes: np.ndarray) -> np.ndarray:
        """Evaluate on every node; returns a float64 array.

        Raises :class:`EvalError` for division by zero, square roots of negative
        numbers and fractional powers of negative bases; overflow saturates to
        infinity as in IEEE arithmetic.
        """
        return _sample(self.expr, nodes)
