"""Tests for parsing property expressions from strings."""

import pytest

from repro.checker import AssertionChecker, CheckerOptions, CheckStatus
from repro.netlist import Circuit
from repro.properties import (
    And,
    Assertion,
    AtMostOneHot,
    Delayed,
    Implies,
    Not,
    OneHot,
    Or,
    PropertyCompiler,
    Signal,
)
from repro.properties.parse import PropertyParseError, parse_expression
from repro.properties.spec import BinOp, Const
from repro.simulation import Simulator


# ----------------------------------------------------------------------
# Structure of parsed expressions
# ----------------------------------------------------------------------
def test_comparison_parses_to_binop():
    expr = parse_expression("hour != 13")
    assert isinstance(expr, BinOp)
    assert expr.op == "!="
    assert expr.signals() == ["hour"]


def test_arithmetic_and_bitwise_operators():
    expr = parse_expression("(a + b) * 2 == (c & mask) | flag")
    assert isinstance(expr, BinOp)
    assert sorted(expr.signals()) == ["a", "b", "c", "flag", "mask"]


def test_ampersand_and_bar_are_bitwise():
    for symbol in ("&", "|"):
        expr = parse_expression("(acc %s 1) == 0" % symbol)
        assert isinstance(expr.lhs, BinOp)
        assert expr.lhs.op == symbol
        assert isinstance(expr.lhs.rhs, Const)


def test_boolean_keywords_map_to_and_or_not():
    expr = parse_expression("a == 1 and (b == 0 or not (c == 2))")
    assert isinstance(expr, And)
    assert isinstance(expr.terms[1], Or)
    assert isinstance(expr.terms[1].terms[1], Not)


def test_rshift_and_implies_function_are_implication():
    assert isinstance(parse_expression("(a == 1) >> (b == 1)"), Implies)
    assert isinstance(parse_expression("implies(a == 1, b == 1)"), Implies)


def test_onehot_and_atmostone_functions():
    assert isinstance(parse_expression("onehot(g0, g1, g2)"), OneHot)
    assert isinstance(parse_expression("atmostone(g0, g1)"), AtMostOneHot)


def test_delayed_function():
    expr = parse_expression("delayed(minute == 59, 2)")
    assert isinstance(expr, Delayed)
    assert expr.cycles == 2


def test_bare_signal_and_constant():
    assert isinstance(parse_expression("ready"), Signal)
    assert isinstance(parse_expression("7"), Const)
    assert isinstance(parse_expression("~busy"), Not)


# ----------------------------------------------------------------------
# Error handling
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "a ===",
        "a < b < c",          # chained comparison
        "a / b == 1",         # unsupported operator
        "f(x)",               # unknown function
        "delayed(a == 1, b)", # non-constant delay
        "a == 1.5",           # non-integer constant
        "True and a == 1",    # boolean literal
        "obj.attr == 1",      # attribute access
    ],
)
def test_rejected_expressions(text):
    with pytest.raises(PropertyParseError):
        parse_expression(text)


# ----------------------------------------------------------------------
# End-to-end: parsed expressions compile and simulate like hand-built ones
# ----------------------------------------------------------------------
def test_parsed_expression_compiles_and_evaluates():
    circuit = Circuit("demo")
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    circuit.output(circuit.add(a, b), name="total")
    monitor = PropertyCompiler(circuit).compile_condition(
        parse_expression("total == a + b and total <= 12")
    )
    simulator = Simulator(circuit)
    assert simulator.step({"a": 5, "b": 6})[monitor.name] == 1
    # 9 + 5 = 14 > 12 violates the second conjunct.
    assert simulator.step({"a": 9, "b": 5})[monitor.name] == 0


def test_bitwise_and_on_multi_bit_signal_holds():
    """An accumulator stepping by 2 from 0 is always even.  A logical
    ``and`` would read ``acc & 1`` as ``acc != 0`` and fail once acc > 0."""
    circuit = Circuit("even_stride")
    step = circuit.input("step", 1)
    acc = circuit.state("acc", 4)
    circuit.dff_into(
        acc, circuit.mux(step, acc, circuit.add(acc, circuit.const(2, 4))),
        init_value=0,
    )
    circuit.output(acc)
    prop = Assertion("even", parse_expression("(acc & 1) == 0"))
    result = AssertionChecker(circuit, options=CheckerOptions(max_frames=6)).check(prop)
    assert result.status is CheckStatus.HOLDS
