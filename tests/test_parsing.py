"""Grammar, error offsets, and print/parse round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germinv import (BivarPoly, NegativeExponentError, ParseError,
                     UnknownVariableError, parse_poly)


def test_single_variables():
    assert parse_poly("x") == BivarPoly.var_x()
    assert parse_poly("y") == BivarPoly.var_y()


def test_rational_coefficients():
    p = parse_poly("3/2*x*y")
    assert p.terms == {(1, 1): Fraction(3, 2)}
    assert parse_poly("7") == BivarPoly.constant(Fraction(7))
    assert parse_poly("5/10") == BivarPoly.constant(Fraction(1, 2))


def test_powers_and_products():
    p = parse_poly("2*x^3*y^2")
    assert p.terms == {(3, 2): Fraction(2)}
    assert parse_poly("x^2*x^3") == parse_poly("x^5")


def test_leading_sign():
    assert parse_poly("-x") == -BivarPoly.var_x()
    assert parse_poly("+x") == BivarPoly.var_x()
    assert parse_poly("-3*x + y") == parse_poly("y - 3*x")


def test_parenthesized_expansion():
    assert parse_poly("(x + y)^2") == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("(x^2 - y^3)^2") == parse_poly(
        "x^4 - 2*x^2*y^3 + y^6")


def test_whitespace_insensitive():
    assert parse_poly(" x ^ 2 +  y\t^ 4 ") == parse_poly("x^2+y^4")


def test_zero_polynomial():
    assert parse_poly("0").is_zero()
    assert parse_poly("x - x").is_zero()


def test_no_juxtaposition():
    with pytest.raises(ParseError) as exc:
        parse_poly("2x")
    assert exc.value.offset == 1
    with pytest.raises(ParseError):
        parse_poly("x y")


def test_unknown_variable_offset():
    with pytest.raises(UnknownVariableError) as exc:
        parse_poly("x + 2*z")
    assert exc.value.offset == 6


def test_negative_exponent():
    with pytest.raises(NegativeExponentError):
        parse_poly("x^-2")


def test_dangling_operator():
    with pytest.raises(ParseError) as exc:
        parse_poly("x + ")
    assert exc.value.offset == 4


def test_empty_input():
    with pytest.raises(ParseError) as exc:
        parse_poly("")
    assert exc.value.offset == 0


def test_missing_exponent():
    with pytest.raises(ParseError) as exc:
        parse_poly("x^")
    assert exc.value.offset == 2


def test_double_star_power_rejected():
    with pytest.raises(ParseError) as exc:
        parse_poly("x**2")
    assert exc.value.offset == 2


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_poly("1/0*x")


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_poly("(x + y")
    with pytest.raises(ParseError):
        parse_poly("x + y)")


def test_non_ascii_rejected():
    with pytest.raises(ParseError) as exc:
        parse_poly("x²")
    assert exc.value.offset == 1


coeffs = st.fractions(min_value=-50, max_value=50).filter(bool)
exponents = st.tuples(st.integers(0, 7), st.integers(0, 7))
polys = st.dictionaries(exponents, coeffs, min_size=0, max_size=8).map(
    BivarPoly)


@settings(max_examples=80, deadline=None)
@given(polys)
def test_roundtrip_print_parse(p):
    assert parse_poly(p.to_string()) == p
