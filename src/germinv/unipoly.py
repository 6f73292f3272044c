"""Dense univariate polynomials over exact coefficients, Sturm sequences,
real root isolation, and interval-refinable real algebraic numbers.

Coefficients are ``fractions.Fraction`` throughout the public API. The same
``UniPoly`` container is reused internally with coefficients in a simple real
extension field (see ``numberfield``); every routine that needs it only uses
``+ - * /``, truth testing (certified nonzero), and ``coeff_sign``.

Zero-or-not questions are decided exactly: a quantity is declared zero only
when the coefficient type proves it (``Fraction == 0``, or the extension
element's symbolic zero test). Signs of irrational numbers are decided by
interval bisection against the defining polynomial, with a hard bit budget.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PrecisionExceededError, ZeroInputError

Rational = Fraction


def coeff_sign(x) -> int:
    """Sign (-1, 0, +1) of a coefficient: Fraction, int, or extension element."""
    if isinstance(x, (Fraction, int)):
        return (x > 0) - (x < 0)
    return x.sign()


class UniPoly:
    """Dense univariate polynomial, lowest degree first.

    Invariant: the trailing (leading-degree) entry is nonzero unless the
    polynomial is zero, in which case ``coeffs`` is empty.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly([c])

    # -- shape --------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def lc(self):
        """Leading coefficient."""
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(not (a - b) for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        return f"UniPoly({self.to_string()})"

    def to_string(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                mono = str(c)
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                mono = f"{head}{var}" + (f"^{k}" if k > 1 else "")
            parts.append(mono)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly([Fraction(1)])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c) -> "UniPoly":
        if not c:
            return UniPoly()
        return UniPoly([a * c for a in self.coeffs])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Euclidean division; coefficient type must support exact division."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return UniPoly(), self
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = other.degree
        inv_lc = None
        quot = [Fraction(0)] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if not c:
                continue
            if inv_lc is None:
                inv_lc = 1 / other.lc() if isinstance(other.lc(), Fraction) else other.lc().inverse()
            q = c * inv_lc
            quot[k - dd] = q
            for j in range(dd + 1):
                rem[k - dd + j] = rem[k - dd + j] - q * dv[j]
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            return self
        l = self.lc()
        if isinstance(l, Fraction):
            if l == 1:
                return self
            return self.scale(1 / l)
        return self.scale(l.inverse())

    def eval(self, x):
        """Horner evaluation; x may be Fraction, float, or extension element."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return 0.0 if isinstance(x, float) else Fraction(0)
        return acc

    def eval_interval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Exact interval Horner bound for Fraction coefficients: returns
        (m, M) with m <= p(x) <= M for every x in [lo, hi]."""
        mlo, mhi = Fraction(0), Fraction(0)
        for c in reversed(self.coeffs):
            cands = (mlo * lo, mlo * hi, mhi * lo, mhi * hi)
            mlo, mhi = min(cands) + c, max(cands) + c
        return mlo, mhi


# -- gcd and square-free part ------------------------------------------------


def uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over a coefficient field (Euclid)."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def uni_squarefree(p: UniPoly) -> UniPoly:
    """Square-free part p / gcd(p, p'), monic, same real roots without
    multiplicity."""
    if p.is_zero():
        raise ZeroInputError("zero polynomial has no square-free part")
    if p.degree == 0:
        return UniPoly.constant(Fraction(1))
    g = uni_gcd(p, p.derivative())
    if g.degree == 0:
        return p.monic()
    q, r = p.divmod(g)
    if not r.is_zero():
        raise RuntimeError("inexact division by gcd(p, p')")
    return q.monic()


# -- Sturm machinery ----------------------------------------------------------


def sturm_sequence(p: UniPoly) -> list[UniPoly]:
    """Standard Sturm chain p, p', -rem, ... for a square-free polynomial."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero() and seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))
    if seq[-1].is_zero():
        seq.pop()
    return seq


def _variations(values: Sequence[int]) -> int:
    signs = [s for s in values if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_variations_at(seq: Sequence[UniPoly], x: Fraction) -> int:
    return _variations([coeff_sign(p.eval(x)) for p in seq])


def count_real_roots(p: UniPoly, lo: Fraction, hi: Fraction,
                     seq: Sequence[UniPoly] | None = None) -> int:
    """Number of distinct real roots of square-free p in (lo, hi]."""
    if seq is None:
        seq = sturm_sequence(p)
    return sturm_variations_at(seq, lo) - sturm_variations_at(seq, hi)


def cauchy_bound(p: UniPoly) -> Fraction:
    """B with all real roots of p in (-B, B). Needs sign-queryable coeffs."""
    if p.degree < 1:
        return Fraction(1)
    lead = p.lc()
    if isinstance(lead, Fraction):
        m = max(abs(c) for c in p.coeffs[:-1])
        return 1 + m / abs(lead)
    # extension coefficients: use rational magnitude bounds from intervals
    mags = [c.abs_upper() for c in p.coeffs[:-1]]
    low = lead.abs_lower()
    return 1 + max(mags) / low


# -- real algebraic numbers ----------------------------------------------------


class AlgebraicReal:
    """A real algebraic number: square-free defining polynomial over Q plus an
    isolating interval [lo, hi] with rational endpoints.

    Rational numbers are stored with the degenerate interval [r, r]. For
    irrational roots the endpoints are never roots of ``defining`` and the
    interval contains exactly one root. ``refine_step`` halves the interval;
    the value itself never changes, so monotone refinement is semantically
    pure and safe to share.
    """

    __slots__ = ("defining", "lo", "hi")

    def __init__(self, defining: UniPoly, lo: Fraction, hi: Fraction):
        self.defining = defining
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    def __repr__(self) -> str:
        if self.is_rational():
            return f"AlgebraicReal({self.lo})"
        return f"AlgebraicReal({self.defining.to_string()} in [{self.lo}, {self.hi}] ~ {float(self)})"

    def __float__(self) -> float:
        return float((self.lo + self.hi) / 2)

    def is_rational(self) -> bool:
        return self.lo == self.hi

    def refine_step(self) -> None:
        if self.lo == self.hi:
            return
        mid = (self.lo + self.hi) / 2
        v = self.defining.eval(mid)
        if v == 0:
            # the isolated root is exactly mid: collapse to a rational
            self.lo = self.hi = mid
            return
        if coeff_sign(v) * coeff_sign(self.defining.eval(self.lo)) < 0:
            self.hi = mid
        else:
            self.lo = mid

    def refine_to(self, width: Fraction, max_steps: int = 4096) -> None:
        steps = 0
        while self.hi - self.lo > width:
            if steps >= max_steps:
                raise PrecisionExceededError(
                    f"interval refinement exceeded {max_steps} steps")
            self.refine_step()
            steps += 1

    def sign(self, max_bits: int = 256) -> int:
        """Certified sign. Zero is reported only when the defining polynomial
        vanishes at 0 and 0 lies in the isolating interval."""
        if self.is_rational():
            return coeff_sign(self.lo)
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if not self.defining.eval(Fraction(0)):
            # 0 is a root of defining and sits in the isolating interval, and
            # that interval contains exactly one root: the number is 0.
            return 0
        for _ in range(max_bits):
            self.refine_step()
            if self.lo > 0:
                return 1
            if self.hi < 0:
                return -1
            if self.is_rational():
                return coeff_sign(self.lo)
        raise PrecisionExceededError(
            f"sign undecided after {max_bits} refinement bits")


# -- rational root extraction --------------------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of p (Fraction coefficients), by the p/q test."""
    if p.degree < 1:
        return []
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // _gcd_int(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    k = 0
    while ints[k] == 0:
        k += 1
    roots = [Fraction(0)] if k > 0 else []
    ints = ints[k:]
    a0, an = ints[0], ints[-1]
    if abs(a0) > 10**14 or abs(an) > 10**14:
        # divisor enumeration would be too costly; bisection handles any
        # rational roots it stumbles on exactly
        return roots
    cands = set()
    for num in _divisors(a0):
        for dq in _divisors(an):
            cands.add(Fraction(num, dq))
            cands.add(Fraction(-num, dq))
    q = UniPoly([Fraction(c) for c in ints])
    return roots + sorted(r for r in cands if q.eval(r) == 0)


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _deflate(p: UniPoly, r: Fraction) -> UniPoly:
    """Exact division of p by (t - r)."""
    out = []
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * r + c
        out.append(acc)
    if out[-1] != 0:
        raise RuntimeError("deflation by a non-root")
    out.pop()
    return UniPoly(list(reversed(out)))


# -- isolation -----------------------------------------------------------------


def isolate_real_roots(u: UniPoly, refine_width: Fraction = Fraction(1, 4)) -> list[AlgebraicReal]:
    """Isolate all distinct real roots of u (Fraction coefficients).

    Returns sorted AlgebraicReal values, one per distinct real root; rational
    roots come back with degenerate intervals. Intervals are refined to at
    most ``refine_width`` and never contain more than one root.
    """
    if u.is_zero():
        raise ZeroInputError("cannot isolate roots of the zero polynomial")
    if u.degree < 1:
        return []
    p = uni_squarefree(u)
    rats = _rational_roots(p)
    for r in rats:
        p = _deflate(p, r)
    out = [AlgebraicReal(UniPoly([-r, Fraction(1)]), r, r) for r in rats]
    if p.degree >= 1:
        seq = sturm_sequence(p)
        B = cauchy_bound(p)
        stack = [(-B, B, count_real_roots(p, -B, B, seq))]
        while stack:
            lo, hi, n = stack.pop()
            if n == 0:
                continue
            if n == 1:
                a = AlgebraicReal(p, lo, hi)
                a.refine_to(refine_width)
                out.append(a)
                continue
            mid = (lo + hi) / 2
            if p.eval(mid) == 0:
                # can happen when rational-root extraction was skipped for
                # oversized coefficients; a degree-d poly cannot block d+1
                # distinct candidate split points
                for k in range(1, p.degree + 2):
                    mid = lo + (hi - lo) * Fraction(2 * k - 1, 2 * (p.degree + 2))
                    if p.eval(mid) != 0:
                        break
            nl = count_real_roots(p, lo, mid, seq)
            stack.append((lo, mid, nl))
            stack.append((mid, hi, n - nl))
    # midpoint order is exact once adjacent intervals are disjoint; refine to
    # a fixpoint (tiny degrees, converges fast)
    for _ in range(512):
        out.sort(key=lambda a: (a.lo + a.hi) / 2)
        ok = True
        for a, b in zip(out, out[1:]):
            if not a.hi < b.lo:
                ok = False
                if a.is_rational():
                    b.refine_step()
                elif b.is_rational():
                    a.refine_step()
                elif a.hi - a.lo >= b.hi - b.lo:
                    a.refine_step()
                else:
                    b.refine_step()
        if ok:
            return out
    raise PrecisionExceededError("failed to separate isolating intervals")
