"""Arithmetic in a single real algebraic extension Q(c).

A ``FieldContext`` is the real algebraic number c itself (a
``unipoly.AlgebraicReal``: square-free integer defining polynomial m with no
rational root, and an isolating interval) plus reduction and inversion mod
m. An element is one integer vector in the power basis 1, c, c^2, ... over
one denominator: a polynomial in c reduced mod m when it is made, with no
trailing zero, over a denominator den > 0 with gcd(*vec, den) = 1. This is
all the field structure branch expansion ever needs: one adjoined root per
branch, with

* certified zero tests and signs, both asked of c as questions about the
  element's vector at c: ``AlgebraicReal.is_root_of`` (gcd with m and its
  signs at the ends of the isolating interval, never numerics) and
  ``AlgebraicReal.enclose`` (exact interval Horner refined by bisection,
  with a bit budget), which also gives every rational bound and float;
  both run on integer forms, m's as c holds it,
* sums and products on ints: a product is one ``unipoly.integer_product``,
  and ``FieldContext.element_from_integers`` reduces it once, by
  ``unipoly.pseudo_remainder`` by the integer form of m, and divides out
  one gcd,
* division by one half-extended remainder chain of (m, A) on integers
  (``FieldContext.invert``); if m turns out reducible and a zero divisor
  appears, m is replaced by its factor that still has c as a root, which
  changes no element's value; ``_define`` certifies it anew.

An element mixes with ``int`` and ``Fraction`` operands in ``+ - * /`` on
either side, and prints as its 9-digit value in parentheses, so code over
exact coefficients treats Q and Q(c) alike and never asks which it has.
A polynomial over Q(c) (``bivar``) holds integer vectors over one
denominator, which the context reduces all at once (``reduce_vectors``),
and an element only where a coefficient is read (``coefficient``); the
powers of a branch coefficient come as such vectors too (``integer_powers``).

m is kept square-free but is not factored into irreducibles; the isolating
interval does the job of choosing the root. When m is certified irreducible,
Q[t]/(m) is a field, and the zero test is syntactic: an element is zero
exactly when its vector reduced mod m is zero (dynamic evaluation, Della
Dora-Dicrescenzo-Duval 1985). Two rules certify m:

* degree <= 3: m has no rational root, so no factor of degree 1. Every
  context is opened by ``FieldContext.of_root`` on a root that
  ``isolate_real_roots`` made, and a shrink keeps a factor of m;
* a binomial t^n - a of degree n > 3, by Capelli's theorem
  (``_binomial_irreducible``), decided with exact integer roots. Branches
  that open an extension by pure ramification get such moduli.

Every other modulus keeps ``AlgebraicReal.is_root_of``.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import zip_longest

from .unipoly import (AlgebraicReal, exact_quotient, integer_product,
                      poly_string, pseudo_remainder)


def _exact_root(n: int, k: int) -> int | None:
    """r with r^k = n for an integer n >= 0, or None when n is no k-th
    power: integer Newton iteration from above, with no floats."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)   # 2^ceil(bits / k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x ** k == n else None
        x = y


def _is_power(num: int, den: int, k: int) -> bool:
    """Is the rational num/den, den > 0, a k-th power in Q?"""
    if num < 0:
        return k % 2 == 1 and _is_power(-num, den, k)
    g = math.gcd(num, den)
    return (_exact_root(num // g, k) is not None
            and _exact_root(den // g, k) is not None)


def _binomial_irreducible(n: int, num: int, den: int) -> bool:
    """Is t^n - a irreducible over Q, for a = num/den and den > 0?
    Capelli's theorem (Lang, *Algebra*, VI §9): iff a is no p-th power in Q
    for every prime p dividing n and, when 4 divides n, a is not -4 b^4 for
    a rational b. A d-th power for a divisor d > 1 of n is a p-th power for
    each prime p dividing d, so every such d is tried."""
    if any(_is_power(num, den, d) for d in range(2, n + 1) if n % d == 0):
        return False
    return n % 4 != 0 or not _is_power(-num, 4 * den, 4)


class FieldContext(AlgebraicReal):
    """The field Q(c) for one isolated real root c of a square-free modulus
    with no rational root: c as an ``AlgebraicReal``, whose defining
    polynomial is the modulus. ``irreducible`` is True when the modulus is
    certified irreducible, which makes the zero test syntactic, and False
    when that is not known. ``of_root`` is the one way to open Q(r), on a
    root r that ``isolate_real_roots`` made."""

    __slots__ = ("irreducible",)

    @classmethod
    def of_root(cls, r: AlgebraicReal) -> "FieldContext":
        """Q(r) on the isolated r's defining polynomial and cell."""
        return cls._of_cell(r._integer_defining, r._cell)

    def _define(self, P: list[int]) -> None:
        """Set the modulus and certify it. P has no rational root, so of
        degree <= 3 it has no factor of degree 1 and is irreducible; a
        binomial of higher degree is decided by Capelli's theorem. False
        means not known."""
        super()._define(P)
        n = len(P) - 1
        if n > 3 and not any(P[1:-1]):
            self.irreducible = _binomial_irreducible(n, -P[0], P[-1])
        else:
            self.irreducible = n <= 3

    # -- element construction -------------------------------------------------

    def generator(self) -> "FieldElement":
        return self.element_from_integers([0, 1], 1)

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, [q.numerator] if q else [], q.denominator)

    def reduce_integers(self, vec: list) -> tuple[list, int]:
        """(r, s) with s * vec = r mod the modulus, s > 0 and len(r) <= its
        degree, for an integer vector vec: the pseudo-remainder by the
        modulus's integer form."""
        return pseudo_remainder(vec, self._integer_defining)

    def element_from_integers(self, vec: list, den: int) -> "FieldElement":
        """The element sum(vec[i] c^i) / den for integers vec and den > 0:
        one pseudo-remainder, then one gcd."""
        r, s = self.reduce_integers(vec)
        den *= s
        g = math.gcd(*r, den)
        return FieldElement(self, [x // g for x in r], den // g,
                            not r if self.irreducible else None)

    def reduce_vectors(self, vecs: dict, den: int) -> tuple[dict, int]:
        """(out, D) with out[k] / D = vecs[k] / den, den > 0, for each k whose
        value is not zero (the reduced vector is empty or, over a modulus not
        certified, has c as a root): each reduced once, one gcd out."""
        red = {}
        for k, vec in vecs.items():
            r, s = self.reduce_integers(vec)
            if r and (self.irreducible or not self.is_root_of(r)):
                red[k] = r, s
        top = math.lcm(*(s for _, s in red.values()))
        g = math.gcd(den * top, *(x for r, _ in red.values() for x in r))
        return ({k: [x * (top // s) // g for x in r]
                 for k, (r, s) in red.items()}, den * top // g)

    def coefficient(self, vec: list, den: int) -> "FieldElement":
        """The element vec / den read off a polynomial's support, a reduced
        vector and den > 0, so not zero: one gcd and no zero test."""
        g = math.gcd(*vec, den)
        return FieldElement(self, [x // g for x in vec], den // g, False)

    def coerce(self, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.ctx is not self:
                raise ValueError("cannot mix elements of different extensions")
            return x
        return self.from_rational(x)

    def invert(self, vec: list, den: int) -> "FieldElement":
        """den / A(c) for the integer vector vec of A and den > 0: one
        half-extended remainder chain of (m, A) on integers, each remainder
        r with u, r = u A mod m and deg u < deg m, the pair divided by its
        content. A constant r ends it: den / A(c) = den u / r. A zero
        remainder leaves g = gcd(A, m), and c is a root of exactly one of g
        and m / g: of g when A(c) = 0, a ZeroDivisionError; else the
        modulus shrinks to m / g, which changes no element's value, and the
        chain runs again. A vector longer than m, made before a shrink,
        becomes the divisor after the first step."""
        while True:
            r, u, s, v = self._integer_defining, [], vec, [1]
            while len(s) > 1:
                # r - (lc r / lc s) t^k s, times lc s, until r is shorter
                while len(r) >= len(s):
                    k, a, b = len(r) - len(s), r[-1], s[-1]
                    r = [b * x - a * y for x, y in
                         zip_longest(r, [0] * k + s, fillvalue=0)]
                    u = [b * x - a * y for x, y in
                         zip_longest(u, [0] * k + v, fillvalue=0)]
                    while r and not r[-1]:
                        r.pop()
                g = math.gcd(*r, *u)
                r, u, s, v = s, v, [x // g for x in r], [x // g for x in u]
            if s:
                sign = 1 if s[0] > 0 else -1
                return self.element_from_integers(
                    [sign * den * x for x in v], sign * s[0])
            k = math.gcd(*r) if r[-1] > 0 else -math.gcd(*r)
            G = [x // k for x in r]
            if self.is_root_of(G):
                raise ZeroDivisionError("inverse of zero extension element")
            q = exact_quotient(self._integer_defining, G)
            if q is None:
                raise RuntimeError("inexact division of the modulus")
            self._define(q)


def integer_powers(c, n: int) -> tuple[list, int, FieldContext | None]:
    """(pows, D, ctx) with c^k = sum(pows[k][i] g^i) / D for k <= n, for a
    rational c (ctx None, vectors of length 1) or c in Q(g), ctx's field:
    the powers over one denominator, each reduced once as it is made."""
    vec, den, ctx = ((c.vec, c.den, c.ctx) if isinstance(c, FieldElement)
                     else ([c.numerator], c.denominator, None))
    if len(vec) == 1:
        x = vec[0]
        return [[x ** k * den ** (n - k)] for k in range(n + 1)], den ** n, ctx
    pows, dens = [[1]], [1]
    for _ in range(n):
        p, s = ctx.reduce_integers(integer_product(pows[-1], vec))
        pows.append(p)
        dens.append(dens[-1] * den * s)
    top = dens[-1]
    return ([[x * (top // dk) for x in p] for p, dk in zip(pows, dens)], top,
            ctx)


class FieldElement:
    """An element sum(vec[i] c^i) / den of Q(c): its integer vector reduced
    mod the modulus when it was made, with no trailing zero, over den > 0
    with gcd(*vec, den) = 1."""

    __slots__ = ("ctx", "vec", "den", "_zero_known")

    def __init__(self, ctx: FieldContext, vec: list, den: int,
                 zero_known: bool | None = None):
        self.ctx = ctx
        self.vec = vec
        self.den = den
        self._zero_known = zero_known

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        if self._zero_known is None:
            ctx = self.ctx
            if ctx.irreducible:
                # the vector may predate a shrink of the modulus
                self._zero_known = not ctx.reduce_integers(self.vec)[0]
            else:
                self._zero_known = ctx.is_root_of(self.vec)
        return self._zero_known

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sign(self, max_bits: int = 256) -> int:
        if self.is_zero():
            return 0
        lo, _ = self.interval(max_bits=max_bits)
        return 1 if lo > 0 else -1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        if not isinstance(other, FieldElement) or other.ctx is not self.ctx:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        o = self.ctx.coerce(other)
        vec = [x * o.den + y * self.den
               for x, y in zip_longest(self.vec, o.vec, fillvalue=0)]
        return self.ctx.element_from_integers(vec, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.ctx, [-x for x in self.vec], self.den)

    def __sub__(self, other):
        return self + (-self.ctx.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # a rational has a vector of length 1: the product scales vec and den
        o = self.ctx.coerce(other)
        return self.ctx.element_from_integers(integer_product(self.vec, o.vec),
                                              self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return self.ctx.invert(self.vec, self.den)

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- numeric views -------------------------------------------------------------

    def interval(self, width: Fraction | None = None,
                 max_bits: int = 4096) -> tuple[Fraction, Fraction]:
        """Rational bounds on the value, at most ``width`` apart, or, with
        no width, excluding 0 (the element must be nonzero)."""
        return self.ctx.enclose(self.vec, self.den, width, max_bits)

    def _midpoint(self) -> Fraction:
        # a relative width of 2^-60 certifies every digit a double holds
        if self.is_zero():
            return Fraction(0)
        lo, hi = self.interval()
        lo, hi = self.interval(min(abs(lo), abs(hi)) / 2**60)
        return (lo + hi) / 2

    def __float__(self) -> float:
        return float(self._midpoint())

    def _digits(self, n: int) -> str:
        """The value to n significant digits: its double's, unless that is
        not a normal finite double, then the exact midpoint's in decimal."""
        m = self._midpoint()
        try:
            v = float(m)
        except OverflowError:
            v = math.inf
        if not m or sys.float_info.min <= abs(v) < math.inf:
            return f"{v:.{n}g}"
        with localcontext() as ctx:
            ctx.prec = n
            d = Decimal(m.numerator) / Decimal(m.denominator)
            return f"{d.normalize():.{n}g}"

    def __str__(self) -> str:
        return f"({self._digits(9)})"

    def __repr__(self) -> str:
        poly = poly_string([Fraction(x, self.den) for x in self.vec], "c")
        return f"FieldElement({poly} ~ {self._digits(6)})"
