"""Parser behavior: grammar, precedence, located errors."""

import math

import pytest

from srlab.calculus import parse
from srlab.calculus.expr import BinOp, Call, Num, Var
from srlab.errors import ParseError


def value(text, variables=("x", "y", "z"), **at):
    from srlab.calculus import eval_jet
    from srlab.calculus.jets import Jet

    names = list(variables)
    seeds = Jet.seeds([float(at.get(n, 0.0)) for n in names], 0)
    return eval_jet(parse(text, variables), dict(zip(names, seeds))).value


class TestGrammar:
    def test_precedence_power_over_unary_minus(self):
        # -x^2 parses as -(x^2)
        assert value("-x^2", at={}, x=3.0) == -9.0

    def test_power_right_associative(self):
        assert value("2^3^2") == 512.0

    def test_power_binds_tighter_than_mul(self):
        assert value("2*x^2", x=3.0) == 18.0

    def test_unary_minus_in_exponent(self):
        assert value("2^-x", x=2.0) == 0.25

    def test_mul_div_left_associative(self):
        assert value("8/4/2") == 1.0
        assert value("8-4-2") == 2.0

    def test_whitespace_insensitive(self):
        assert value(" 1+ 2 *x ", x=4.0) == value("1+2*x", x=4.0) == 9.0

    def test_parentheses(self):
        assert value("(1+2)*x", x=4.0) == 12.0

    def test_constants(self):
        assert value("pi") == math.pi
        assert value("e") == math.e

    def test_scientific_notation(self):
        assert value("1.5e-3 + 2E2") == 1.5e-3 + 200.0

    def test_function_calls(self):
        assert value("sin(pi/2)") == pytest.approx(1.0)
        assert value("atan2(1, 1)") == pytest.approx(math.pi / 4)

    def test_nested_ast_shape(self):
        node = parse("x + y*z")
        assert isinstance(node, BinOp) and node.op == "+"
        assert isinstance(node.left, Var)
        assert isinstance(node.right, BinOp) and node.right.op == "*"

    def test_call_node(self):
        node = parse("atan2(y, x)")
        assert isinstance(node, Call) and len(node.args) == 2

    def test_number_literal(self):
        node = parse("2.5")
        assert isinstance(node, Num) and node.value == 2.5


class TestErrors:
    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("x + foo")

    def test_variable_out_of_context(self):
        with pytest.raises(ParseError, match="unknown identifier 'x'"):
            parse("x + u", ("u", "v"))

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("floor(x)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="takes 1 argument"):
            parse("sin(x, y)")
        with pytest.raises(ParseError, match="takes 2 arguments"):
            parse("atan2(x)")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * 2")
        assert err.value.position == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("1 2")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError, match="expected"):
            parse("(1 + 2")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("1 $ 2")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_number_past_the_float_range(self):
        with pytest.raises(ParseError, match="number '1e999' is out of range") as err:
            parse("x + 1e999*y")
        assert err.value.position == 4
        # an underflow is still a number: it reads 0.0
        assert parse("1e-999") == Num(0.0, 0)
