"""Expression language: grammar goldens, errors, round-trips, eval oracle."""

import itertools
import math
import pickle
import random
import re
import sys
import warnings

import numpy as np
import pytest

from conftest import NESTED_SHAPES, SCENARIO_DIR, random_expr, reference_eval
from traitsim.cli import load_scenario
from traitsim.exprlang import (
    FUNCTIONS,
    MAX_NESTING,
    Bin,
    Call,
    Const,
    EvalError,
    Neg,
    Num,
    ParseError,
    TraitFunction,
    Var,
    _CHUNK,
    _tokenize,
    bound_on_grid,
    parse,
    unparse,
)
from traitsim.model import Grid


def eval_at(e, x):
    """``e`` at the one trait value ``x``, sampled as a one-node array."""
    return float(TraitFunction("", e).sample(np.array([x]))[0])


class TestGrammar:
    def test_precedence_prints(self):
        assert unparse(parse("1+2*x")) == "(1 + (2 * x))"
        assert unparse(parse("-x^2")) == "(-(x ^ 2))"
        assert unparse(parse("x")) == "x"

    def test_parabola_vertex(self):
        e = parse("2 - (x-0.3)^2")
        assert eval_at(e, 0.3) == 2.0

    @pytest.mark.parametrize(
        "source,x,expected",
        [
            ("x^2 + 1", 3.0, 10.0),
            ("2^3^2", 0.0, 512.0),  # right associative
            ("2*3^2", 0.0, 18.0),
            ("-2^2", 0.0, -4.0),  # unary minus binds looser than ^
            ("2^-1", 0.0, 0.5),
            ("-2^-1^2", 0.0, -0.5),  # -(2^(-(1^2)))
            ("2^-3^2", 0.0, 2.0**-9),
            ("1-2-3", 0.0, -4.0),  # left associative
            ("8/4/2", 0.0, 1.0),
            ("2 - -3", 0.0, 5.0),
            ("exp(0)", 0.0, 1.0),
            ("clamp(10, 0, 2)", 123.0, 2.0),
            ("min(3, x)", 1.0, 1.0),
            ("max(3, x)", 1.0, 3.0),
            ("abs(0 - 2)", 0.0, 2.0),
            ("pi", 0.0, math.pi),
            ("e", 0.0, math.e),
            ("cos(0)", 0.0, 1.0),
            ("sin(0)", 0.0, 0.0),
            ("sqrt(4)", 0.0, 2.0),
        ],
    )
    def test_eval_goldens(self, source, x, expected):
        assert eval_at(parse(source), x) == pytest.approx(expected, rel=1e-15)

    def test_indicator(self):
        e = parse("ind(0,1)")
        assert eval_at(e, 0.5) == 1.0
        assert eval_at(e, 1.5) == 0.0
        assert eval_at(e, 0.0) == 1.0  # inclusive bounds
        assert eval_at(e, 1.0) == 1.0
        assert eval_at(e, -0.1) == 0.0

    def test_scientific_literals(self):
        assert eval_at(parse("1e-3"), 0.0) == 1e-3
        assert eval_at(parse("2.5E+2"), 0.0) == 250.0
        assert eval_at(parse(".5"), 0.0) == 0.5

    def test_overflow_saturates(self):
        assert eval_at(parse("exp(1000)"), 0.0) == math.inf
        assert eval_at(parse("10^400"), 0.0) == math.inf


#: source -> repr of its tree, as the dataclass-generated repr printed it
REPRS = {
    "x": "Var()",
    "2 - (x-0.3)^2": "Bin(op='-', lhs=Num(value=2.0), rhs=Bin(op='^', lhs=Bin(op='-', lhs=Var(), "
                     "rhs=Num(value=0.3)), rhs=Num(value=2.0)))",
    "exp(-50*(x-0.4)^2) + pi*e": "Bin(op='+', lhs=Call(name='exp', args=(Bin(op='*', "
                                 "lhs=Neg(operand=Num(value=50.0)), rhs=Bin(op='^', "
                                 "lhs=Bin(op='-', lhs=Var(), rhs=Num(value=0.4)), "
                                 "rhs=Num(value=2.0))),)), rhs=Bin(op='*', lhs=Const(name='pi'), "
                                 "rhs=Const(name='e')))",
    "clamp(x, 0.1, 1e-3) / min(x, 2)": "Bin(op='/', lhs=Call(name='clamp', args=(Var(), "
                                       "Num(value=0.1), Num(value=0.001))), rhs=Call(name='min', "
                                       "args=(Var(), Num(value=2.0))))",
    "-ind(0, 1) + abs(-x)^-2.5": "Bin(op='+', lhs=Neg(operand=Call(name='ind', "
                                 "args=(Num(value=0.0), Num(value=1.0)))), rhs=Bin(op='^', "
                                 "lhs=Call(name='abs', args=(Neg(operand=Var()),)), "
                                 "rhs=Neg(operand=Num(value=2.5))))",
    "sqrt(1e300) * 1.5e-310": "Bin(op='*', lhs=Call(name='sqrt', args=(Num(value=1e+300),)), "
                              "rhs=Num(value=1.5e-310))",
}


class TestRepr:
    @pytest.mark.parametrize("source", sorted(REPRS))
    def test_parsed_tree_prints_as_the_dataclass_did(self, source):
        assert repr(parse(source)) == REPRS[source]

    def test_hand_built_nodes(self):
        assert repr(Call("exp", (Var(),))) == "Call(name='exp', args=(Var(),))"
        assert repr(Call("max", ())) == "Call(name='max', args=())"
        assert repr(Num(math.nan)) == "Num(value=nan)"
        assert repr(Const("pi", (3, 5))) == "Const(name='pi')"  # the span is left out

    def test_malformed_hand_built_nodes(self):
        # a child that is no node prints as its own repr, as the dataclass repr did
        assert repr(Bin("+", Var(), 3)) == "Bin(op='+', lhs=Var(), rhs=3)"
        assert repr(Call("exp", (Var(), 3))) == "Call(name='exp', args=(Var(), 3))"
        assert repr(Neg(Bin("*", Num(1.0), "x"))) == (
            "Neg(operand=Bin(op='*', lhs=Num(value=1.0), rhs='x'))")


class TestErrors:
    def test_incomplete_expression_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + ")
        assert "syntax error at offset 4" in str(exc.value)
        assert exc.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'foo' at offset 4"):
            parse("1 + foo")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match=r"min expects 2 argument\(s\), got 1"):
            parse("min(1)")
        with pytest.raises(ParseError, match=r"clamp expects 3 argument\(s\), got 2"):
            parse("clamp(x, 1)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse("(1 + 2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse("1 2")
        assert "expected end of input" in str(exc.value)
        assert exc.value.offset == 2

    def test_malformed_number(self):
        with pytest.raises(ParseError, match="syntax error at offset 4: malformed number") as exc:
            parse("2 + .")
        assert exc.value.offset == 4

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse("1 $ 2")
        assert exc.value.offset == 2

    def test_division_by_zero_location(self):
        with pytest.raises(EvalError) as exc:
            eval_at(parse("1 + 1/(x-x)"), 0.5)
        assert "division by zero at offset 4" in str(exc.value)

    def test_sqrt_negative(self):
        with pytest.raises(EvalError, match="square root of negative"):
            eval_at(parse("sqrt(0-4)"), 0.0)
        with pytest.raises(EvalError, match="square root of negative"):
            eval_at(parse("sqrt(x)"), -1.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError, match="fractional power"):
            eval_at(parse("(0-8)^0.5"), 0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError, match="division by zero"):
            eval_at(parse("0^(0-1)"), 0.0)

    def test_non_finite_point(self):
        with pytest.raises(EvalError):
            eval_at(parse("x"), math.inf)


def loop_tokenize(source):
    """The lexer as a hand-written loop over characters: the reference that the
    one-regex lexer must match token for token, message for message."""
    number_re = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
    name_re = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            m = number_re.match(source, i)
            if m is None:
                raise ParseError(f"syntax error at offset {i}: malformed number", i)
            tokens.append(("num", m.group(0), i))
            i = m.end()
            continue
        m = name_re.match(source, i)
        if m is not None:
            tokens.append(("name", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"syntax error at offset {i}: unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


def lexed(tokenize, source):
    """The tokens of ``source``, or the message and offset of its error."""
    try:
        return tokenize(source)
    except ParseError as err:
        return str(err), err.offset


class TestLexer:
    #: ASCII and non-ASCII digits (², which \d does not take; ٣ and 𝟙, which it
    #: does), a letter-like pair and whitespace that str.isspace takes
    ALPHABET = [chr(i) for i in range(128)] + list("²٣𝟙éǅ\xa0\u3000\x1c\x85")
    NUMBERISH = list("0123456789..eE+-x ²٣𝟙")

    def test_matches_hand_written_loop(self):
        rng = random.Random(20)
        for _ in range(20_000):
            alphabet = self.ALPHABET if rng.random() < 0.5 else self.NUMBERISH
            source = "".join(rng.choices(alphabet, k=rng.randrange(13)))
            assert lexed(_tokenize, source) == lexed(loop_tokenize, source), repr(source)

    @pytest.mark.parametrize(
        "source,message",
        [("2²", "offset 1: malformed number"), ("1 + .e5", "offset 4: malformed number"),
         ("ǅ", "offset 0: unexpected character 'ǅ'"), ("٣ + x", None), ("1e+", None)],
    )
    def test_unicode_digits_and_letters(self, source, message):
        assert lexed(_tokenize, source) == lexed(loop_tokenize, source)
        if message is not None:
            with pytest.raises(ParseError, match=message):
                _tokenize(source)


class TestNesting:
    @pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
    def test_shape_at_the_limit_round_trips(self, shape):
        source, value = NESTED_SHAPES[shape]
        e = parse(source(MAX_NESTING))
        nodes = np.array([-0.5, 0.0, 0.25])
        assert TraitFunction("", e).sample(nodes).tolist() == [value(x) for x in nodes]
        assert parse(unparse(e)) == e

    @pytest.mark.parametrize("shape,offset", [("parentheses", 100), ("unary_minus", 100),
                                              ("power_chain", 403), ("calls", 403)])
    def test_one_level_past_the_limit_names_its_offset(self, shape, offset):
        # the offset is the token that opens level 101: a '(', a '-' or a '^'
        assert MAX_NESTING == 100
        with pytest.raises(ParseError) as exc:
            parse(NESTED_SHAPES[shape][0](MAX_NESTING + 1))
        assert str(exc.value) == f"nesting deeper than 100 levels at offset {offset}"
        assert exc.value.offset == offset

    def test_operator_levels_count_through_parentheses(self):
        assert parse("(-" * 100 + "x" + ")" * 100) == parse("-" * 100 + "x")
        with pytest.raises(ParseError, match="at offset 150$"):
            parse("-(" * 50 + "-" * 51 + "x" + ")" * 50)
        # levels close again: a hundred chains side by side are each 100 deep
        e = parse(" + ".join(["-" * 100 + "x"] * 100))
        assert TraitFunction("", e).sample(np.array([0.5])).tolist() == [50.0]


#: terms of the long sum that TestDeepTrees walks
LONG_SUM_TERMS = 100_000


@pytest.fixture(scope="module")
def deep_trees():
    """name -> (source, tree): a long parsed sum and every nesting shape at the limit."""
    sources = {shape: source(MAX_NESTING) for shape, (source, _) in NESTED_SHAPES.items()}
    sources["long_sum"] = " + ".join(["x"] * LONG_SUM_TERMS)
    return {name: (source, parse(source)) for name, source in sources.items()}


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def preorder(e):
    """Every node of ``e``, parents first, by an explicit stack."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Bin):
            stack += [node.rhs, node.lhs]
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack += reversed(node.args)


@pytest.mark.usefixtures("default_recursion_limit")
@pytest.mark.parametrize("name", ["long_sum", *sorted(NESTED_SHAPES)])
class TestDeepTrees:
    """No tree operation recurses: each works on any tree the parser accepts."""

    def test_equality_and_hash(self, deep_trees, name):
        source, e = deep_trees[name]
        again = parse(source)
        assert again is not e and again == e and hash(again) == hash(e)
        # a tree that differs in its deepest leaf alone is told apart
        deepest = source.replace("x", "2", 1) if "x" in source else source[:-3] + "2.0"
        assert parse(deepest) != e

    def test_unparse(self, deep_trees, name):
        _, e = deep_trees[name]
        text = unparse(e)
        if name == "long_sum":
            assert text == "(" * (LONG_SUM_TERMS - 1) + "x" + " + x)" * (LONG_SUM_TERMS - 1)
        else:
            assert parse(text) == e

    def test_repr(self, deep_trees, name):
        _, e = deep_trees[name]
        n = LONG_SUM_TERMS - 1 if name == "long_sum" else MAX_NESTING
        want = {
            "long_sum": "Bin(op='+', lhs=" * n + "Var()" + ", rhs=Var())" * n,
            "parentheses": "Bin(op='+', lhs=Var(), rhs=Num(value=1.0))",
            "unary_minus": "Neg(operand=" * n + "Var()" + ")" * n,
            "power_chain": "Bin(op='^', lhs=Num(value=1.0), rhs=" * n + "Num(value=1.0)" + ")" * n,
            "calls": "Call(name='abs', args=(" * n + "Var()" + ",))" * n,
        }
        try:
            text = repr(e)
        except RecursionError:  # pytest's report would compare the tree in every frame
            pytest.fail("repr recursed")
        assert text == want[name]

    def test_pickle_round_trip(self, deep_trees, name):
        _, e = deep_trees[name]
        copy = pickle.loads(pickle.dumps(e))
        assert copy is not e and copy == e and hash(copy) == hash(e)
        assert [(type(n), n.span) for n in preorder(copy)] == [(type(n), n.span) for n in preorder(e)]
        nodes = np.array([-0.5, 0.0, 0.25, 1.0])
        assert (TraitFunction("", copy).sample(nodes).tobytes()
                == TraitFunction("", e).sample(nodes).tobytes())


class TestRoundTrip:
    def test_random_round_trips(self):
        rng = random.Random(20260809)
        for _ in range(10_000):
            e = random_expr(rng, depth=4)
            assert parse(unparse(e)) == e

    def test_print_parse_print_fixed_point(self):
        rng = random.Random(7)
        for _ in range(500):
            text = unparse(random_expr(rng, depth=4))
            assert unparse(parse(text)) == text

    def test_span_excluded_from_equality(self):
        assert parse("1 + x") == parse("1+x")
        assert parse("1+x") != parse("x+1")


class TestEvalOracle:
    def test_agrees_with_independent_interpreter(self):
        rng = random.Random(99)
        checked = 0
        attempts = 0
        while checked < 1000:
            attempts += 1
            assert attempts < 50_000, "generator no longer produces evaluable pairs"
            e = random_expr(rng, depth=4)
            x = rng.uniform(-3.0, 3.0)
            try:
                ours = eval_at(e, x)
                ref = reference_eval(e, x)
            except (EvalError, ArithmeticError, ValueError):
                continue
            if isinstance(ref, complex) or not (
                math.isfinite(ours) and math.isfinite(ref)
            ):
                continue
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)
            checked += 1


class TestBounds:
    def test_constant(self):
        grid = Grid(0.0, 1.0, 10)
        assert bound_on_grid(parse("1"), grid) == (1.0, 1.0)

    def test_parabola_max_attained_at_node(self):
        grid = Grid(0.0, 1.0, 10)  # node exactly at 0.3
        lo, hi = bound_on_grid(parse("2 - (x-0.3)^2"), grid)
        assert hi == 2.0
        assert lo == pytest.approx(2 - 0.7**2, rel=1e-15)

    def test_identity_on_unit_interval(self):
        grid = Grid(0.0, 1.0, 10)
        assert bound_on_grid(parse("x"), grid) == (0.0, 1.0)

    def test_accepts_plain_arrays(self):
        lo, hi = bound_on_grid(parse("x^2"), np.array([-2.0, 0.0, 1.0]))
        assert (lo, hi) == (0.0, 4.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            bound_on_grid(parse("x"), np.array([]))

    def test_propagates_eval_errors(self):
        with pytest.raises(EvalError):
            bound_on_grid(parse("1/x"), Grid(0.0, 1.0, 4))


class TestTraitFunction:
    def test_sample(self):
        f = TraitFunction.from_source("2*x")
        assert f.sample(np.array([3.0]))[0] == 6.0
        np.testing.assert_allclose(
            f.sample(np.array([0.0, 0.5, 1.0])), [0.0, 1.0, 2.0]
        )

    def test_bounds_on_grid(self):
        f = TraitFunction.from_source("1 + x")
        assert bound_on_grid(f.expr, Grid(0.0, 1.0, 4)) == (1.0, 2.0)

    def test_keeps_source(self):
        f = TraitFunction.from_source("ind(0, 1)")
        assert f.source == "ind(0, 1)"


# --------------------------------------------------------------------------
# A recursive scalar tree-walking interpreter, kept as the array evaluator's
# reference: same math calls, same checks, same order.

def walk_eval(e, x):
    if not math.isfinite(x):
        raise EvalError("evaluation point must be finite", 0)
    return _walk(e, x)


def _walk(e, x):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Const):
        return {"pi": math.pi, "e": math.e}[e.name]
    if isinstance(e, Neg):
        return -_walk(e.operand, x)
    if isinstance(e, Bin):
        lhs = _walk(e.lhs, x)
        rhs = _walk(e.rhs, x)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        if e.op == "/":
            if rhs == 0.0:
                raise EvalError(f"division by zero at offset {e.span[0]}", e.span[0])
            return lhs / rhs
        return _walk_power(lhs, rhs, e.span)
    args = [_walk(a, x) for a in e.args]
    name = e.name
    if name == "exp":
        try:
            return math.exp(args[0])
        except OverflowError:
            return math.inf
    if name == "sin":
        return math.sin(args[0])
    if name == "cos":
        return math.cos(args[0])
    if name == "sqrt":
        if args[0] < 0.0:
            raise EvalError(f"square root of negative at offset {e.span[0]}", e.span[0])
        return math.sqrt(args[0])
    if name == "abs":
        return math.fabs(args[0])
    if name == "min":
        return min(args[0], args[1])
    if name == "max":
        return max(args[0], args[1])
    if name == "clamp":
        return min(max(args[0], args[1]), args[2])
    return 1.0 if args[0] <= x <= args[1] else 0.0  # ind


def _walk_power(base, exponent, span):
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


# Literals that reach every failure: signed zeros, overflow, infinity.
_WILD_NUMBERS = [0.0, -0.0, 1.0, 2.0, 0.5, 3.0, 0.3, 1e-300, 1e300, 7.25, math.inf, 2.5]


def wild_expr(rng, depth, offsets):
    """A random AST over every operator and builtin with arbitrary operands.

    Each node gets its own span, so a wrong error offset shows.
    """
    span = (next(offsets), 0)
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.45:
            return Num(rng.choice(_WILD_NUMBERS), span)
        if roll < 0.85:
            return Var(span)
        return Const(rng.choice(["pi", "e"]), span)
    roll = rng.random()
    if roll < 0.45:
        op = rng.choice("+-*/^")
        return Bin(op, wild_expr(rng, depth - 1, offsets), wild_expr(rng, depth - 1, offsets), span)
    if roll < 0.55:
        return Neg(wild_expr(rng, depth - 1, offsets), span)
    name = rng.choice(sorted(FUNCTIONS))
    args = tuple(wild_expr(rng, depth - 1, offsets) for _ in range(FUNCTIONS[name]))
    return Call(name, args, span)


def _outcome(fn):
    try:
        return "value", fn().tobytes()
    except Exception as err:  # the reference's exception, whatever it is
        return "error", (type(err), str(err), getattr(err, "offset", None))


def _kinds(e):
    if isinstance(e, Bin):
        return {e.op} | _kinds(e.lhs) | _kinds(e.rhs)
    if isinstance(e, Neg):
        return {"neg"} | _kinds(e.operand)
    if isinstance(e, Call):
        return {e.name}.union(*(_kinds(a) for a in e.args))
    return set()


class TestCompiledEvaluator:
    NODES = np.array([*np.linspace(-2.0, 2.0, 17), -0.0, 0.3, 1e-10])

    def test_bit_identical_to_tree_walk(self):
        rng = random.Random(20261018)
        offsets = itertools.count(1)
        outcomes = {"value": 0, "error": 0}
        messages, kinds = set(), set()
        for _ in range(3000):
            e = wild_expr(rng, 4, offsets)
            kinds |= _kinds(e)
            f = TraitFunction("", e)
            ours = _outcome(lambda: f.sample(self.NODES))
            ref = _outcome(
                lambda: np.array([walk_eval(e, float(x)) for x in self.NODES], dtype=float)
            )
            assert ours == ref, unparse(e)
            outcomes[ours[0]] += 1
            if ours[0] == "error":
                messages.add(ours[1][1].split(" at offset")[0])
        assert kinds == set("+-*/^") | {"neg"} | set(FUNCTIONS)
        assert {"division by zero", "square root of negative",
                "fractional power of negative base", "math domain error"} <= messages
        assert min(outcomes.values()) >= 500, outcomes

    def test_non_finite_point_error_matches(self):
        e = parse("1/x")
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(EvalError) as ours:
                TraitFunction("1/x", e).sample(np.array([0.5, x]))
            assert (str(ours.value), ours.value.offset) == ("evaluation point must be finite", 0)

    def test_signed_zero_literals_keep_their_sign(self):
        # Num(0.0) == Num(-0.0), so a cache keyed on tree equality would mix them up
        assert Num(0.0) == Num(-0.0)
        for e in (Num(0.0), Num(-0.0), Call("max", (Num(-0.0), Num(0.0))),
                  Call("min", (Num(0.0), Num(-0.0))), Bin("*", Num(-0.0), Var())):
            ours = TraitFunction("", e).sample(self.NODES)
            ref = np.array([walk_eval(e, float(x)) for x in self.NODES])
            assert ours.tobytes() == ref.tobytes(), e
        assert math.copysign(1.0, eval_at(Num(-0.0), 1.0)) == -1.0
        assert math.copysign(1.0, eval_at(Num(0.0), 1.0)) == 1.0

    def test_deep_left_nested_sum(self):
        # long sums nest deeply on the left; the evaluator's walk loops, so depth is free
        e = parse(" + ".join(["x"] * 400))
        assert eval_at(e, 0.5) == 200.0


def _walk_first_error(e, nodes):
    """The scalar walk over the nodes in order: its values, or its first error."""
    return _outcome(lambda: np.array([walk_eval(e, x) for x in nodes.tolist()], dtype=float))


# fine_grid's b at seed 0: two_peak's b, sampled on 5e4 cells
FINE_GRID_B = "1 + exp(-200*(x - 0.25)^2) + 0.8*exp(-200*(x - 0.7)^2)"


class TestArrayEvaluator:
    """Chunked array evaluation gives the scalar walk's bits and errors."""

    @staticmethod
    def canonical_sources():
        sources = {FINE_GRID_B}
        for path in sorted(SCENARIO_DIR.glob("*.ini")):
            s = load_scenario(path)
            sources |= {s.b.source, s.d.source, s.u0.source}
        return sorted(sources)

    @pytest.mark.parametrize("n_nodes", [4095, 4096, 4097, 50_001])
    def test_canonical_expressions_bitwise_across_chunk_edges(self, n_nodes):
        assert _CHUNK == 4096
        nodes = Grid(0.0, 1.0, n_nodes - 1).nodes
        for source in self.canonical_sources():
            e = parse(source)
            ours = _outcome(lambda: TraitFunction(source, e).sample(nodes))
            assert ours[0] == "value" and ours == _walk_first_error(e, nodes), source

    def test_first_failing_node_in_a_later_chunk(self):
        nodes = Grid(0.0, 1.0, 10_000).nodes  # node 9000 is 0.9, in the third chunk
        e = parse("1 + 1/(x - 0.9)")
        with pytest.raises(EvalError) as exc:
            TraitFunction("", e).sample(nodes)
        assert (str(exc.value), exc.value.offset) == ("division by zero at offset 4", 4)
        assert _outcome(lambda: TraitFunction("", e).sample(nodes)) == _walk_first_error(e, nodes)

    def test_earlier_node_wins_over_an_earlier_check(self):
        # x = 0.6 fails the sqrt check, which comes first in the walk, but
        # x = 0.2 is the earlier node and fails the later division check
        nodes = Grid(0.0, 1.0, 10).nodes
        e = parse("sqrt(0.5 - x) + 1/(x - 0.2)")
        with pytest.raises(EvalError, match="^division by zero at offset 16$"):
            TraitFunction("", e).sample(nodes)
        with pytest.raises(EvalError, match="^square root of negative at offset 0$"):
            TraitFunction("", e).sample(nodes[4:])
        assert _outcome(lambda: TraitFunction("", e).sample(nodes)) == _walk_first_error(e, nodes)

    @pytest.mark.parametrize("source", ["exp(1000*x)", "(x - 2)^1025", "2 - exp(800*x)*x"])
    def test_overflow_saturates_inside_an_array(self, source):
        nodes = Grid(0.0, 1.0, 5000).nodes
        e = parse(source)
        ours = TraitFunction(source, e).sample(nodes)
        assert np.isinf(ours).any() and np.isfinite(ours).any()
        assert _outcome(lambda: ours) == _walk_first_error(e, nodes)

    def test_no_numpy_warning(self):
        nodes = Grid(-1.0, 1.0, 9000).nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for source in ("exp(1000*x) - exp(1000*x)", "1e300*x*1e300", "0*exp(800*x)",
                           "min(exp(1000*x) - exp(1000*x), x)", "1e-300*x*1e-300",
                           "ind(exp(900*x)*0, 1)"):
                e = parse(source)
                ours = _outcome(lambda: TraitFunction(source, e).sample(nodes))
                assert ours == _walk_first_error(e, nodes), source

    def test_long_sum_needs_no_recursion(self):
        e = parse(" + ".join(["x"] * 1000 + ["0.1*x"] * 1000))
        nodes = Grid(0.0, 1.0, 10).nodes
        expected = []
        for x in nodes.tolist():  # the walk's order: ((x + x) + x) + ...
            acc = x
            for term in [x] * 999 + [0.1 * x] * 1000:
                acc = acc + term
            expected.append(acc)
        assert TraitFunction("", e).sample(nodes).tobytes() == np.array(expected).tobytes()
        assert eval_at(e, 0.5) == expected[5]
