"""Expression language: parsing, evaluation, analysis, properties."""

import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.expressions import (
    MAX_DEPTH,
    MAX_LENGTH,
    Expression,
    compile_expression,
    depth,
    evaluate,
    parse,
    unparse,
    variables,
)
from repro.errors import EvaluationError, ParseError


def ev(source, **env):
    return evaluate(parse(source), env)


class TestParsing:
    def test_number(self):
        assert ev("42") == 42.0

    def test_engineering_suffix(self):
        assert ev("253f") == pytest.approx(253e-15)
        assert ev("2M") == pytest.approx(2e6)
        assert ev("1.5k") == pytest.approx(1500.0)

    def test_suffix_not_applied_mid_name(self):
        # "2f" is 2e-15 but "2fF" would be a malformed token
        with pytest.raises(ParseError):
            parse("2fF")

    def test_scientific(self):
        assert ev("1e-3") == pytest.approx(1e-3)
        assert ev("2.5E+2") == 250.0

    def test_dotted_names(self):
        assert ev("lut.words * 2", **{"lut.words": 8}) == 16.0

    def test_name_cannot_end_with_dot(self):
        with pytest.raises(ParseError):
            parse("a. + 1")

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "1 +", "(1", "1)", "* 3", "1 ? 2", "foo(", "a b", "@x",
         "1..2", "?"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("1 + @")
        assert info.value.position == 4

    def test_non_string(self):
        with pytest.raises(ParseError):
            parse(42)


class TestPrecedence:
    def test_mul_before_add(self):
        assert ev("2 + 3 * 4") == 14.0

    def test_parentheses(self):
        assert ev("(2 + 3) * 4") == 20.0

    def test_power_right_associative(self):
        assert ev("2 ^ 3 ^ 2") == 512.0

    def test_power_binds_tighter_than_mul(self):
        assert ev("2 * 3 ^ 2") == 18.0

    def test_unary_minus(self):
        assert ev("-3 + 5") == 2.0
        assert ev("-(3 + 5)") == -8.0
        assert ev("--3") == 3.0
        assert ev("+3") == 3.0

    def test_unary_minus_with_power(self):
        # -x^2 parses as -(x)^... per our grammar unary binds the atom first
        assert ev("-2 ^ 2") == 4.0  # (-2)^2 with unary-before-power grammar

    def test_modulo(self):
        assert ev("7 % 3") == pytest.approx(1.0)

    def test_comparison_chain(self):
        assert ev("1 < 2") == 1.0
        assert ev("2 <= 1") == 0.0
        assert ev("3 == 3") == 1.0
        assert ev("3 != 3") == 0.0
        assert ev("4 >= 5") == 0.0
        assert ev("5 > 4") == 1.0

    def test_boolean_operators(self):
        assert ev("1 and 2") == 1.0
        assert ev("0 or 3") == 1.0
        assert ev("not 0") == 1.0
        assert ev("not 5") == 0.0

    def test_short_circuit(self):
        # the right side would divide by zero if evaluated
        assert ev("0 and (1 / 0)") == 0.0
        assert ev("1 or (1 / 0)") == 1.0

    def test_ternary(self):
        assert ev("1 ? 10 : 20") == 10.0
        assert ev("0 ? 10 : 20") == 20.0
        assert ev("x > 2 ? x : -x", x=5) == 5.0

    def test_ternary_lazy(self):
        assert ev("1 ? 7 : 1/0") == 7.0


class TestFunctions:
    def test_math_functions(self):
        assert ev("sqrt(9)") == 3.0
        assert ev("log2(8)") == 3.0
        assert ev("log10(1000)") == pytest.approx(3.0)
        assert ev("ln(e)") == pytest.approx(1.0)
        assert ev("abs(-4)") == 4.0
        assert ev("floor(2.7)") == 2.0
        assert ev("ceil(2.1)") == 3.0
        assert ev("exp(0)") == 1.0

    def test_varargs(self):
        assert ev("min(3, 1, 2)") == 1.0
        assert ev("max(3, 1, 2)") == 3.0
        assert ev("sum(1, 2, 3)") == 6.0
        assert ev("avg(2, 4)") == 3.0

    def test_if_and_clamp(self):
        assert ev("if(1, 5, 9)") == 5.0
        assert ev("clamp(12, 0, 10)") == 10.0

    def test_constants(self):
        assert ev("pi") == pytest.approx(math.pi)
        assert ev("kT_over_q") == pytest.approx(0.02585, rel=1e-3)

    def test_unknown_function(self):
        with pytest.raises(EvaluationError, match="unknown function"):
            ev("frobnicate(1)")

    def test_wrong_arity(self):
        with pytest.raises(EvaluationError, match="args"):
            ev("sqrt(1, 2)")
        with pytest.raises(EvaluationError):
            ev("pow(2)")

    def test_domain_errors(self):
        with pytest.raises(EvaluationError):
            ev("sqrt(-1)")
        with pytest.raises(EvaluationError):
            ev("log(0)")

    def test_pow_with_a_complex_result_fails_as_the_operator_does(self):
        with pytest.raises(EvaluationError, match=r"^complex result: -2.0 \^ 0.5$"):
            ev("pow(-2, 0.5)")
        with pytest.raises(EvaluationError, match=r"^power error: "):
            ev("pow(1e300, 10)")
        assert ev("pow(2, 10)") == ev("2 ^ 10") == 1024.0

    @pytest.mark.parametrize("source, bad", [
        ("exp(x)", 1000.0), ("pow(x, 0.5)", -2.0), ("floor(x)", math.inf),
        ("round(x)", math.nan), ("x ^ 0.5", -2.0), ("x ^ 400", 10.0),
        ("x ^ -1", 0.0), ("2 ^ x", 1e4)])
    def test_a_function_fails_over_a_column_as_over_a_float(self, source, bad):
        """A column holding one bad point raises the float's error, for
        a function and for ``^`` alike."""
        expression = compile_expression(source)
        with pytest.raises(EvaluationError) as scalar:
            expression.evaluate({"x": bad})
        with pytest.raises(EvaluationError) as column:
            expression.evaluate({"x": np.array([1.0, bad, 2.0])})
        assert str(column.value) == str(scalar.value)

    def test_a_power_over_a_column_is_the_float_power_at_every_point(self):
        bases = np.array([0.3, 1.0, 2.5, 1e-300, 7.25, 123.0, math.inf, math.nan])
        for source in ("x ^ 1.3", "x ^ -0.5", "pow(x, 3)", "1.7 ^ x", "x ^ x"):
            expression = compile_expression(source)
            points = [expression.evaluate({"x": base}) for base in bases.tolist()]
            column = expression.evaluate({"x": bases})
            assert column.tobytes() == np.array(points).tobytes(), source

    def test_modulo_of_an_infinite_dividend(self):
        with pytest.raises(EvaluationError, match=r"^modulo error: inf % 1.0$"):
            ev("(1e308 * 10) % 1")
        with pytest.raises(EvaluationError, match=r"^modulo error: inf % 1.0$"):
            compile_expression("x % 1").evaluate({"x": np.array([2.5, math.inf])})


class TestEvaluation:
    def test_names_from_env(self):
        assert ev("a * b", a=6, b=7) == 42.0

    def test_unknown_name(self):
        with pytest.raises(EvaluationError, match="unknown name 'missing'"):
            ev("missing + 1")

    def test_lazy_callable_values(self):
        assert evaluate(parse("x * 2"), {"x": lambda: 21}) == 42.0

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError, match="division by zero"):
            ev("1 / 0")

    def test_modulo_by_zero(self):
        with pytest.raises(EvaluationError):
            ev("1 % 0")

    def test_complex_power_rejected(self):
        with pytest.raises(EvaluationError):
            ev("(-1) ^ 0.5")

    def test_overflow_power(self):
        with pytest.raises(EvaluationError):
            ev("1e300 ^ 10")

    def test_non_numeric_env_value(self):
        with pytest.raises(EvaluationError, match="not numeric"):
            evaluate(parse("x"), {"x": "hello"})

    def test_env_shadows_constants(self):
        assert ev("pi", pi=3.0) == 3.0

    def test_paper_equations(self):
        # EQ 20 at the paper's Figure 4 defaults
        c = ev("bitwidthA * bitwidthB * 253f", bitwidthA=16, bitwidthB=16)
        assert c == pytest.approx(16 * 16 * 253e-15)
        # EQ 19 converter dissipation
        assert ev("P_load * (1 - eta) / eta", P_load=9.0, eta=0.9) == pytest.approx(1.0)


class TestAnalysis:
    def test_variables(self):
        assert variables(parse("a * b + sqrt(c) - a")) == {"a", "b", "c"}

    def test_constants_excluded(self):
        assert variables(parse("pi * r ^ 2")) == {"r"}

    def test_expression_class(self):
        expression = Expression("bitwidth * c0")
        assert expression.variables == {"bitwidth", "c0"}
        assert expression(bitwidth=8, c0=2.0) == 16.0
        assert expression == compile_expression("bitwidth  *  c0")
        assert hash(expression) == hash(compile_expression("bitwidth * c0"))

    def test_compile_passthrough(self):
        expression = Expression("1 + 1")
        assert compile_expression(expression) is expression


# -- property tests ---------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "x_1", "lut.words"])
_numbers = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).map(lambda value: round(value, 6))


@st.composite
def _expressions(draw, depth=0):
    if depth > 3:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 4))
    if choice == 0:
        return repr(draw(_numbers))
    if choice == 1:
        return draw(_names)
    if choice == 2:
        op = draw(st.sampled_from(["+", "-", "*"]))
        left = draw(_expressions(depth=depth + 1))
        right = draw(_expressions(depth=depth + 1))
        return f"({left} {op} {right})"
    if choice == 3:
        inner = draw(_expressions(depth=depth + 1))
        return f"(-{inner})"
    condition = draw(_expressions(depth=depth + 1))
    left = draw(_expressions(depth=depth + 1))
    right = draw(_expressions(depth=depth + 1))
    return f"(({condition}) > 0 ? {left} : {right})"


@given(_expressions())
def test_unparse_round_trip(source):
    """parse(unparse(t)) evaluates identically to t."""
    env = {"a": 1.5, "b": -2.25, "c": 3.0, "x_1": 0.5, "lut.words": 8.0}
    tree = parse(source)
    rendered = unparse(tree)
    assert evaluate(parse(rendered), env) == pytest.approx(
        evaluate(tree, env), rel=1e-12, abs=1e-12
    )


@given(_expressions())
def test_variables_complete(source):
    """Evaluation succeeds given exactly the reported variables."""
    tree = parse(source)
    env = {name: 1.0 for name in variables(tree)}
    evaluate(tree, env)  # must not raise


@given(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False))
def test_literal_evaluation(value):
    assert evaluate(parse(repr(value))) == value


class TestEnvironmentProtocol:
    def test_env_is_never_truth_tested_or_iterated(self):
        # truth-testing a scope-backed env calls __len__, which rebuilds
        # the scope chain's name list; evaluation must only look names up
        class LookupOnly(Mapping):
            def __getitem__(self, name):
                return {"a": 2.0}[name]

            def __contains__(self, name):
                return name == "a"

            def __len__(self):
                raise AssertionError("__len__ called")

            def __iter__(self):
                raise AssertionError("__iter__ called")

        assert Expression("a * 3").evaluate(LookupOnly()) == 6.0
        assert evaluate(parse("a + pi"), LookupOnly()) == 2.0 + math.pi


class TestLimits:
    """Size and depth limits, and no recursion below them."""

    # shapes a PLAY evaluated when the parser was recursive, at their
    # largest: they must still parse
    PLAYABLE = {
        "parentheses": "(" * 88 + "2" + ")" * 88,
        "calls": "abs(" * 88 + "2" + ")" * 88,
        "sum": "+".join(["1"] * 493),
        "unary": "-" * 972 + "2",
        "power": "^".join(["1"] * 493),
        "ternary": "1 ? " * 486 + "2" + " : 0" * 486,
        "not": "not " * 972 + "1",
    }

    @pytest.mark.parametrize("shape", sorted(PLAYABLE))
    def test_formulas_that_evaluated_still_parse(self, shape):
        tree = parse(self.PLAYABLE[shape])
        evaluate(tree, {})

    # the deepest and largest trees the limits admit
    ADMITTED = {
        "power": "^".join(["1"] * MAX_DEPTH),
        "ternary": "1 ? " * (MAX_DEPTH - 1) + "2" + " : 0" * (MAX_DEPTH - 1),
        "calls": "abs(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        "right_nested": "x - (" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        "sum": " + ".join(["x * 2"] * 5000),
        "unary": "-" * 5000 + "x",
        "mixed": "(" * 2000 + "x" + " + x) * 2" * 2000,
    }

    @pytest.mark.parametrize("shape", sorted(ADMITTED))
    def test_no_walker_recurses_on_admitted_trees(self, shape):
        source = self.ADMITTED[shape]
        tree = parse(source)
        assert depth(tree) <= MAX_DEPTH
        assert variables(tree) <= {"x"}
        assert parse(unparse(tree)) == tree
        assert hash(parse(source)) == hash(tree)
        assert Expression(source) == Expression(source)
        value = Expression(source).evaluate({"x": 0.5})
        assert value == evaluate(tree, {"x": 0.5})

    def test_plan_compiles_admitted_trees(self):
        from repro.core.design import Design
        from repro.core.estimator import evaluate_power
        from repro.core.model import ExpressionPowerModel

        design = Design("deep")
        design.scope.set("x", 0.5)
        for shape, source in sorted(self.ADMITTED.items()):
            design.scope.set(f"p_{shape}", source)
            design.add(shape, ExpressionPowerModel(shape, f"p_{shape} * 1n"))
        assert evaluate_power(design).evaluated_rows == len(self.ADMITTED)

    def test_one_level_deeper_is_rejected(self):
        with pytest.raises(ParseError, match="limit is 500"):
            parse("^".join(["1"] * (MAX_DEPTH + 1)))
        with pytest.raises(ParseError, match="limit is 500"):
            parse("abs(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH)

    def test_overlong_source_is_rejected(self):
        with pytest.raises(ParseError, match="characters long"):
            parse("1" + " " * MAX_LENGTH)
