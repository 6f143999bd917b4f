"""Shared fixtures and helpers: scenario builders, a random expression
generator and an independent expression evaluator used as an oracle."""

import math
import random
from pathlib import Path

import pytest

from traitsim.exprlang import Bin, Call, Const, Expr, Neg, Num, Var, TraitFunction
from traitsim.model import Grid, Scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def make_scenario(
    b="2",
    d="1",
    u0="ind(0, 1)",
    x_min=0.0,
    x_max=1.0,
    n_cells=100,
    c0=1.0,
    t_end=1.0,
    dt=1e-3,
    sample_every=10,
    scheme="exponential",
    **kwargs,
) -> Scenario:
    return Scenario(
        grid=Grid(x_min, x_max, n_cells),
        c0=c0,
        b=TraitFunction.from_source(b),
        d=TraitFunction.from_source(d),
        u0=TraitFunction.from_source(u0),
        t_end=t_end,
        dt=dt,
        sample_every=sample_every,
        scheme=scheme,
        **kwargs,
    )


@pytest.fixture
def scenario_factory():
    return make_scenario


# --------------------------------------------------------------------------
# Random expression ASTs (for round-trip and evaluator-agreement checks)

_LEAF_NUMBERS = [0.0, 1.0, 2.0, 0.5, 0.3, 3.0, 10.0, 0.001, 1e-05, 7.25, 100.0]
_UNARY_FUNCS = ["exp", "sin", "cos", "sqrt", "abs"]


#: each way of nesting an expression n levels deep, with its value at x
NESTED_SHAPES = {
    "parentheses": (lambda n: "(" * n + "x" + ")" * n + " + 1", lambda x: x + 1),
    "unary_minus": (lambda n: "-" * n + "x", lambda x: x),  # n even
    "power_chain": (lambda n: "^".join(["1.0"] * (n + 1)), lambda x: 1.0),
    "calls": (lambda n: "abs(" * n + "x" + ")" * n, abs),
}


def random_expr(rng: random.Random, depth: int) -> Expr:
    """A random AST; nonnegative finite literals, negation via Neg nodes."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.4:
            return Num(rng.choice(_LEAF_NUMBERS))
        if roll < 0.55:
            return Num(round(rng.uniform(0.0, 10.0), 4))
        if roll < 0.9:
            return Var()
        return Const(rng.choice(["pi", "e"]))
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice(["+", "-", "*", "/", "^"])
        if op == "^":
            # keep exponents tame so evaluation stays finite
            return Bin(op, random_expr(rng, depth - 1), Num(float(rng.randint(0, 3))))
        return Bin(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if roll < 0.7:
        return Neg(random_expr(rng, depth - 1))
    roll = rng.random()
    if roll < 0.6:
        return Call(rng.choice(_UNARY_FUNCS), (random_expr(rng, depth - 1),))
    if roll < 0.75:
        return Call(
            rng.choice(["min", "max"]),
            (random_expr(rng, depth - 1), random_expr(rng, depth - 1)),
        )
    if roll < 0.9:
        return Call("ind", (Num(rng.choice([0.0, 0.25])), Num(rng.choice([0.5, 1.0]))))
    return Call(
        "clamp",
        (random_expr(rng, depth - 1), Num(0.0), Num(rng.choice([1.0, 2.0, 5.0]))),
    )


# --------------------------------------------------------------------------
# Independent evaluator: translate the AST to Python source and eval() it.
# This exercises a completely separate arithmetic path through CPython.

def _translate(e: Expr) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Const):
        return f"math.{e.name}"
    if isinstance(e, Neg):
        return f"(-({_translate(e.operand)}))"
    if isinstance(e, Bin):
        if e.op == "^":
            return f"math.pow({_translate(e.lhs)}, {_translate(e.rhs)})"
        return f"(({_translate(e.lhs)}) {e.op} ({_translate(e.rhs)}))"
    if isinstance(e, Call):
        args = [_translate(a) for a in e.args]
        if e.name == "ind":
            return f"(1.0 if ({args[0]}) <= x <= ({args[1]}) else 0.0)"
        if e.name == "clamp":
            return f"min(max({args[0]}, {args[1]}), {args[2]})"
        if e.name == "abs":
            return f"abs({args[0]})"
        if e.name in ("min", "max"):
            return f"{e.name}({args[0]}, {args[1]})"
        return f"math.{e.name}({args[0]})"
    raise TypeError(e)


def reference_eval(e: Expr, x: float) -> float:
    """Evaluate via compiled Python source; raises on any domain problem."""
    return eval(_translate(e), {"math": math, "x": x})  # noqa: S307 - test oracle
