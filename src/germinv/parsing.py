"""Parser for polynomials in x and y with rational coefficients.

Grammar (ASCII, whitespace insensitive), as ``BivarPoly.to_string`` prints:

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := base ('^' natural)?
    base    := 'x' | 'y' | rational | '(' expr ')'
    rational:= natural ('/' natural)?

There is no implicit multiplication: ``2*x*y^3`` parses, ``2xy^3`` does not.
Errors carry the byte offset of the offending token.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .bivar import BivarPoly
from .errors import NegativeExponentError, ParseError, UnknownVariableError

_X = BivarPoly.var_x()
_Y = BivarPoly.var_y()


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            # the digits exceed the interpreter's integer string limit
            raise ParseError(
                f"integer literal longer than {sys.get_int_max_str_digits()}"
                " digits", start) from None


def _parse_base(s: _Scanner) -> BivarPoly:
    c = s.peek()
    if c == "x":
        s.pos += 1
        return _X
    if c == "y":
        s.pos += 1
        return _Y
    if c == "(":
        s.pos += 1
        inner = _parse_expr(s)
        if s.peek() != ")":
            raise ParseError("expected ')'", s.pos)
        s.pos += 1
        return inner
    if c.isdigit():
        num = s.natural()
        if s.peek() == "/":
            s.pos += 1
            at = s.pos
            den = s.natural()
            if den == 0:
                raise ParseError("zero denominator", at)
            return BivarPoly.constant(Fraction(num, den))
        return BivarPoly.constant(Fraction(num))
    if c.isalpha():
        raise UnknownVariableError(f"unknown variable {c!r}", s.pos)
    if c == "":
        raise ParseError("unexpected end of input", s.pos)
    raise ParseError(f"unexpected character {c!r}", s.pos)


def _parse_factor(s: _Scanner) -> BivarPoly:
    base = _parse_base(s)
    if s.peek() == "^":
        s.pos += 1
        if s.peek() == "-":
            raise NegativeExponentError("negative exponents are not allowed", s.pos)
        n = s.natural()
        return base**n
    return base


def _parse_term(s: _Scanner) -> BivarPoly:
    out = _parse_factor(s)
    while s.peek() == "*":
        s.pos += 1
        out = out * _parse_factor(s)
    return out


def _parse_expr(s: _Scanner) -> BivarPoly:
    sign = Fraction(1)
    c = s.peek()
    if c in ("+", "-"):
        s.pos += 1
        if c == "-":
            sign = Fraction(-1)
    out = _parse_term(s).scale(sign)
    while True:
        c = s.peek()
        if c not in ("+", "-"):
            return out
        s.pos += 1
        t = _parse_term(s)
        out = out + (t if c == "+" else -t)


def parse_poly(text: str) -> BivarPoly:
    """Parse a polynomial in x and y with rational coefficients."""
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError("non-ASCII input", bad)
    s = _Scanner(text)
    out = _parse_expr(s)
    s.skip_ws()
    if s.pos != len(text):
        raise ParseError(f"unexpected character {text[s.pos]!r}", s.pos)
    return out

