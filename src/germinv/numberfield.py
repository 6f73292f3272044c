"""Arithmetic in a single real algebraic extension Q(c).

A ``FieldContext`` fixes a monic square-free modulus m over Q together with an
isolating interval that pins down which real root c is meant. Elements are
polynomials in c of degree < deg m, reduced mod m. This is all the field
structure branch expansion ever needs: one adjoined root per branch, with

* certified zero tests (gcd with the modulus + a Sturm root count on the
  isolating interval, never numerics),
* certified signs (exact interval Horner refined by bisection, with a bit
  budget),
* division (extended Euclid; if the modulus turns out reducible and a zero
  divisor appears, the modulus is replaced by its factor that still has c as
  a root, which changes no element's value).

The modulus is kept square-free but is not factored into irreducibles; the
isolating interval does the job of choosing the root.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionExceededError
from .unipoly import UniPoly, count_real_roots, uni_gcd


def _egcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Return (g, u) with u*a = g mod b and g = gcd(a, b), g monic."""
    r0, r1 = a, b
    u0, u1 = UniPoly.constant(Fraction(1)), UniPoly()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    if r0.is_zero():
        return r0, u0
    lc = r0.lc()
    return r0.scale(1 / lc), u0.scale(1 / lc)


class FieldContext:
    """The field Q(c) for one isolated real root c of a square-free modulus."""

    def __init__(self, modulus: UniPoly, lo: Fraction, hi: Fraction):
        self.modulus = modulus.monic()
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    # -- root interval ------------------------------------------------------

    def is_degenerate(self) -> bool:
        """True when the root collapsed to an exact rational."""
        return self.lo == self.hi

    def refine_root(self) -> None:
        if self.lo == self.hi:
            return
        mid = (self.lo + self.hi) / 2
        v = self.modulus.eval(mid)
        if v == 0:
            self.lo = self.hi = mid
            return
        vlo = self.modulus.eval(self.lo)
        if (v > 0) != (vlo > 0):
            self.hi = mid
        else:
            self.lo = mid

    # -- element construction -------------------------------------------------

    def _reduce(self, coeffs) -> tuple:
        p = UniPoly(coeffs)
        if p.degree >= self.modulus.degree:
            p = p % self.modulus
        return tuple(p.coeffs)

    def element(self, coeffs) -> "FieldElement":
        return FieldElement(self, self._reduce(coeffs))

    def generator(self) -> "FieldElement":
        return self.element([Fraction(0), Fraction(1)])

    def from_rational(self, q) -> "FieldElement":
        return FieldElement(self, (Fraction(q),) if q else ())

    def coerce(self, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.ctx is not self:
                raise ValueError("cannot mix elements of different extensions")
            return x
        return self.from_rational(x)

    # -- certified queries -----------------------------------------------------

    def _root_of_in_interval(self, g: UniPoly) -> bool:
        """Does g (a divisor of the modulus) vanish at c?"""
        if self.is_degenerate():
            return g.eval(self.lo) == 0
        return count_real_roots(g, self.lo, self.hi) > 0

    def value_is_zero(self, coeffs: tuple) -> bool:
        if not coeffs:
            return True
        if len(coeffs) == 1:
            return coeffs[0] == 0
        if self.is_degenerate():
            return UniPoly(coeffs).eval(self.lo) == 0
        lo, hi = UniPoly(coeffs).eval_interval(self.lo, self.hi)
        if lo > 0 or hi < 0:
            return False
        g = uni_gcd(UniPoly(coeffs), self.modulus)
        if g.degree < 1:
            return False
        return self._root_of_in_interval(g)

    def value_sign(self, coeffs: tuple, max_bits: int = 256) -> int:
        if self.value_is_zero(coeffs):
            return 0
        p = UniPoly(coeffs)
        if self.is_degenerate():
            v = p.eval(self.lo)
            return 1 if v > 0 else -1
        for _ in range(max_bits):
            lo, hi = p.eval_interval(self.lo, self.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine_root()
            if self.is_degenerate():
                v = p.eval(self.lo)
                return 1 if v > 0 else -1
        raise PrecisionExceededError(
            f"sign of extension element undecided within {max_bits} bits")

    def value_interval(self, coeffs: tuple, width: Fraction,
                       max_bits: int = 4096) -> tuple[Fraction, Fraction]:
        p = UniPoly(coeffs)
        if self.is_degenerate():
            v = p.eval(self.lo)
            return v, v
        for _ in range(max_bits):
            lo, hi = p.eval_interval(self.lo, self.hi)
            if hi - lo <= width:
                return lo, hi
            self.refine_root()
            if self.is_degenerate():
                v = p.eval(self.lo)
                return v, v
        raise PrecisionExceededError("interval refinement budget exhausted")

    def invert(self, coeffs: tuple) -> tuple:
        """Coefficients of 1/A(c); A must be certified nonzero by the caller."""
        while True:
            a = UniPoly(coeffs)
            if a.degree >= self.modulus.degree:
                a = a % self.modulus
            if a.is_zero():
                raise ZeroDivisionError("inverse of zero extension element")
            g, u = _egcd(a, self.modulus)
            if g.degree == 0:
                inv = u.scale(1 / g.coeffs[0]) % self.modulus
                return tuple(inv.coeffs)
            # zero divisor: the modulus is reducible. c is a root of exactly
            # one of g, modulus/g; keep that factor and retry.
            if self._root_of_in_interval(g):
                raise ZeroDivisionError("inverse of zero extension element")
            q, r = self.modulus.divmod(g)
            if not r.is_zero():
                raise RuntimeError("inexact division of the modulus")
            self.modulus = q.monic()


class FieldElement:
    """An element of Q(c), stored as a reduced polynomial in the generator."""

    __slots__ = ("ctx", "coeffs", "_zero_known")

    def __init__(self, ctx: FieldContext, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs
        self._zero_known = None

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        if self._zero_known is None:
            self._zero_known = self.ctx.value_is_zero(self.coeffs)
        return self._zero_known

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sign(self, max_bits: int = 256) -> int:
        return self.ctx.value_sign(self.coeffs, max_bits=max_bits)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_rational(other)
        if not isinstance(other, FieldElement) or other.ctx is not self.ctx:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- arithmetic --------------------------------------------------------------

    def _wrap(self, coeffs) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._reduce(coeffs))

    def __add__(self, other):
        o = self.ctx.coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for k, c in enumerate(o.coeffs):
            a[k] += c
        return self._wrap(a)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.ctx, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self.ctx.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return FieldElement(self.ctx, ())
            return FieldElement(self.ctx, tuple(c * other for c in self.coeffs))
        o = self.ctx.coerce(other)
        prod = UniPoly(self.coeffs) * UniPoly(o.coeffs)
        return self._wrap(prod.coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ctx.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero extension element")
        return FieldElement(self.ctx, self.ctx.invert(self.coeffs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * self.ctx.coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- numeric views -------------------------------------------------------------

    def as_rational(self) -> Fraction | None:
        """Exact rational value if the element is visibly rational, else None."""
        if not self.coeffs:
            return Fraction(0)
        if len(self.coeffs) == 1:
            return self.coeffs[0]
        if self.ctx.is_degenerate():
            return UniPoly(self.coeffs).eval(self.ctx.lo)
        return None

    def interval(self, width: Fraction = Fraction(1, 2**40)) -> tuple[Fraction, Fraction]:
        return self.ctx.value_interval(self.coeffs, width)

    def __float__(self) -> float:
        lo, hi = self.interval(Fraction(1, 2**60))
        return float((lo + hi) / 2)

    def abs_upper(self) -> Fraction:
        lo, hi = self.interval(Fraction(1, 2))
        return max(abs(lo), abs(hi))

    def abs_lower(self) -> Fraction:
        """Positive rational lower bound on |value|; element must be nonzero."""
        if self.is_zero():
            raise ZeroDivisionError("no positive lower bound for zero")
        width = Fraction(1, 4)
        for _ in range(4096):
            lo, hi = self.interval(width)
            if lo > 0:
                return lo
            if hi < 0:
                return -hi
            width /= 16
        raise PrecisionExceededError("could not bound element away from zero")

    def __repr__(self) -> str:
        poly = UniPoly(self.coeffs).to_string("c")
        return f"FieldElement({poly} ~ {float(self):.6g})"
