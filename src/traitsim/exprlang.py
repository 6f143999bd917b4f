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
associative.

Builtins: ``exp``, ``sin``, ``cos``, ``sqrt``, ``abs`` (one argument),
``min``, ``max`` (two), ``clamp(v, lo, hi)`` and the indicator
``ind(lo, hi)`` which is 1 where ``lo <= x <= hi`` and 0 elsewhere.
``ind`` is the only discontinuous builtin; it is how scenario files carve
out the support of the initial density cell-exactly on the grid.

Expression values are immutable after parsing and safe to share between
threads.  Each is compiled once, at its first evaluation, into a scalar
Python function that does a tree walk's arithmetic in the walk's order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "ExprError",
    "ParseError",
    "EvalError",
    "Num",
    "Var",
    "Const",
    "Neg",
    "Bin",
    "Call",
    "Expr",
    "FUNCTIONS",
    "CONSTANTS",
    "parse",
    "eval_expr",
    "unparse",
    "bound_on_grid",
    "TraitFunction",
]

Span = tuple[int, int]

#: builtin call names mapped to their arity
FUNCTIONS: dict[str, int] = {
    "exp": 1,
    "sin": 1,
    "cos": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "clamp": 3,
    "ind": 2,
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
    """Base of the node classes: the compiled evaluator, built at first use."""

    @cached_property
    def _fn(self):
        return _compile(self)

    def __getstate__(self):
        # an exec-built function does not pickle; the copy compiles its own
        state = self.__dict__.copy()
        state.pop("_fn", None)
        return state


@dataclass(frozen=True)
class Num(_Node):
    value: float
    span: Span = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Var(_Node):
    span: Span = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Const(_Node):
    name: str
    span: Span = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Neg(_Node):
    operand: "Expr"
    span: Span = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Bin(_Node):
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Span = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Call(_Node):
    name: str
    args: tuple["Expr", ...]
    span: Span = field(default=(0, 0), compare=False, repr=False)


Expr = Union[Num, Var, Const, Neg, Bin, Call]


# --------------------------------------------------------------------------
# Lexer

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_PUNCT = "+-*/^(),"


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kind is the punct char, 'num', 'name' or 'eof'."""
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            m = _NUMBER_RE.match(source, i)
            if m is None:
                raise ParseError(f"syntax error at offset {i}: malformed number", i)
            tokens.append(("num", m.group(0), i))
            i = m.end()
            continue
        m = _NAME_RE.match(source, i)
        if m is not None:
            tokens.append(("name", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"syntax error at offset {i}: unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


# --------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, expected: str) -> ParseError:
        kind, text, offset = self.peek()
        found = "end of input" if kind == "eof" else repr(text)
        return ParseError(
            f"syntax error at offset {offset}: expected {expected}, found {found}", offset
        )

    def expect(self, kind: str, expected: str) -> tuple[str, str, int]:
        if self.peek()[0] != kind:
            raise self.error(expected)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            rhs = self.parse_term()
            node = Bin(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[0] in "*/":
            op = self.advance()[0]
            rhs = self.parse_unary()
            node = Bin(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[0] == "-":
            _, _, offset = self.advance()
            operand = self.parse_unary()
            return Neg(operand, (offset, operand.span[1]))
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            # exponent is a unary so ^ is right associative and -x can follow
            exponent = self.parse_unary()
            return Bin("^", base, exponent, (base.span[0], exponent.span[1]))
        return base

    def parse_atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text), (offset, offset + len(text)))
        if kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")", "')'")
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
        self.expect("(", "'('")
        args = [self.parse_expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.parse_expr())
        _, _, rp = self.expect(")", "')' or ','")
        arity = FUNCTIONS[name]
        if len(args) != arity:
            raise ParseError(
                f"{name} expects {arity} argument(s), got {len(args)} at offset {start}",
                start,
            )
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
# Each expression is compiled once, at first use, into straight-line Python
# making the same math calls and checks in the same order as a recursive walk
# of the tree (left to right, post-order), so values and errors are the walk's.

def eval_expr(expr: Expr, x: float) -> float:
    """Evaluate ``expr`` at the trait value ``x`` in IEEE-754 double precision.

    Raises :class:`EvalError` for division by zero, square roots of negative
    numbers and fractional powers of negative bases; overflow saturates to
    infinity as in IEEE arithmetic.
    """
    return expr._fn(x)


def _power(base: float, exponent: float, span: Span) -> float:
    try:
        return math.pow(base, exponent)
    except OverflowError:
        negative = base < 0 and exponent == int(exponent) and int(exponent) % 2 == 1
        return -math.inf if negative else math.inf
    except ValueError:
        if base == 0.0:
            raise EvalError(f"division by zero at offset {span[0]}", span[0]) from None
        raise EvalError(
            f"fractional power of negative base at offset {span[0]}", span[0]
        ) from None


#: builtin calls other than exp, as Python code over their evaluated arguments
_CALL_CODE = {
    "sin": "sin({0})",
    "cos": "cos({0})",
    "sqrt": "sqrt({0})",
    "abs": "fabs({0})",
    "min": "min({0}, {1})",
    "max": "max({0}, {1})",
    "clamp": "min(max({0}, {1}), {2})",
    "ind": "1.0 if {0} <= x <= {1} else 0.0",
}


def _compile(root: Expr):
    """Generate, compile and return the scalar evaluator of ``root``."""
    env = {"isfinite": math.isfinite, "exp": math.exp, "sin": math.sin, "cos": math.cos,
           "sqrt": math.sqrt, "fabs": math.fabs, "inf": math.inf,
           "EvalError": EvalError, "_power": _power}
    body = ["if not isfinite(x):", "    raise EvalError('evaluation point must be finite', 0)"]

    def check(condition: str, message: str, at: int) -> None:
        body.append(f"if {condition}: raise EvalError('{message} at offset {at}', {at})")

    def assign(code: str) -> str:
        name = f"t{len(body)}"
        body.append(f"{name} = {code}")
        return name

    def value(e: Expr) -> str:
        """Emit the statements computing ``e``; return the local or literal holding it."""
        if isinstance(e, Var):
            return "x"
        if isinstance(e, (Num, Const)):
            v = e.value if isinstance(e, Num) else CONSTANTS[e.name]
            if not math.isfinite(v):  # no literal spells it: bind it by name
                env[f"k{len(env)}"] = v
                return f"k{len(env) - 1}"
            return f"({v!r})"
        if isinstance(e, Neg):
            return assign(f"-{value(e.operand)}")
        if isinstance(e, Bin):
            lhs, rhs = value(e.lhs), value(e.rhs)
            if e.op == "^":
                return assign(f"_power({lhs}, {rhs}, {e.span!r})")
            if e.op == "/":
                check(f"{rhs} == 0.0", "division by zero", e.span[0])
            return assign(f"{lhs} {e.op} {rhs}")
        if isinstance(e, Call):
            args = [value(a) for a in e.args]
            if e.name == "exp":
                t = f"t{len(body)}"
                body.extend(["try:", f"    {t} = exp({args[0]})",
                             "except OverflowError:", f"    {t} = inf"])
                return t
            if e.name == "sqrt":
                check(f"{args[0]} < 0.0", "square root of negative", e.span[0])
            return assign(_CALL_CODE[e.name].format(*args))
        raise TypeError(f"not an expression node: {e!r}")

    body.append(f"return {value(root)}")
    source = "def evaluate(x):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, "<expression>", "exec"), env)
    return env["evaluate"]


def _sample(e: Expr, nodes) -> np.ndarray:
    """``e`` at every node as a float64 array, streamed without a list."""
    return np.fromiter(map(e._fn, map(float, nodes)), float, count=len(nodes))


# --------------------------------------------------------------------------
# Printing

def unparse(e: Expr) -> str:
    """Canonical fully parenthesized form; ``parse(unparse(e))`` equals ``e``."""
    if isinstance(e, Num):
        return _format_number(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Neg):
        return f"(-{unparse(e.operand)})"
    if isinstance(e, Bin):
        return f"({unparse(e.lhs)} {e.op} {unparse(e.rhs)})"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(unparse(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


def _format_number(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


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


@dataclass(frozen=True)
class TraitFunction:
    """A scalar function of the trait, kept together with its source text."""

    source: str
    expr: Expr

    @classmethod
    def from_source(cls, source: str) -> "TraitFunction":
        return cls(source, parse(source))

    def __call__(self, x: float) -> float:
        return eval_expr(self.expr, x)

    def sample(self, nodes: np.ndarray) -> np.ndarray:
        """Evaluate on every node; returns a float64 array."""
        return _sample(self.expr, nodes)
