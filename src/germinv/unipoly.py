"""Univariate polynomials as coefficient lists, real root isolation, and
interval-refinable real algebraic numbers.

A polynomial here is a list of its coefficients, lowest degree first, as
``bivar`` holds its integer polynomials: no class wraps it, and nothing here
computes over coefficients other than rationals. ``signed_sum`` is the
package's one text format for polynomials and series: ``poly_string``,
``BivarPoly.to_string`` and ``PuiseuxSeries.to_string`` hand it their terms.

``AlgebraicReal`` is germinv's one representation of a real algebraic number
(an integer defining polynomial with no rational root, unless the number
is rational, plus an isolating interval). ``isolate_real_roots`` is its one
maker, and ``numberfield.FieldContext`` is one, for the generator of Q(c),
opened on an isolated root by ``FieldContext.of_root``. Only its own
methods refine the interval: ``refine_step`` bisects, ``refine_to`` bisects
to a width, and ``enclose`` until a bound on p(a) is decided.

``isolate_real_roots`` reads rational roots off the one-root cells of a
Sturm bisection, with no search over divisors: a root on a bisection point
is its cell's right end, and otherwise a_n r is an integer for the leading
coefficient a_n of the primitive integer polynomial, found by integer
bisection. The irrational roots come back over the square-free part divided
by every rational root's linear factor, a defining polynomial with no
rational root. The square-free part of u comes with its Sturm chain: the
chain of u ends in gcd(u, u'), so a square-free u costs one remainder
sequence, and a repeated factor a second one.

Coefficients are ``fractions.Fraction`` or ``int`` in the public API. Sturm
chains, gcds, signs and interval bounds run on integer forms (lists of ints,
lowest degree first), each a positive multiple of the polynomial it stands
for: no gcd here runs Euclid on Fractions, and ``integer_product`` and
``exact_quotient`` are the one product and exact division of such forms.
``pseudo_remainder`` is the remainder of Sturm chains and of the reduction
mod a Q(c) modulus; ``bivar._zz_prem`` is its form over Z[x][y], and
``numberfield.FieldContext.invert`` eliminates on a half-extended chain of
its own. ``AlgebraicReal`` holds its defining polynomial so, and
``is_root_of`` and ``enclose`` take p as an integer form too, as a Q(c)
element holds it; the first reads p(a) = 0 off the signs of gcd(p,
defining) at the interval's ends. A polynomial over Q(c) is a list
of integer vectors (see ``numberfield`` and ``puiseux._edge_roots``).

Zero-or-not questions are decided exactly: a quantity is declared zero only
when the coefficient type proves it (``Fraction == 0``, or the extension
element's exact zero test, ``numberfield.FieldElement.is_zero``). Signs of
irrational numbers are decided by ``AlgebraicReal.enclose``, with a hard bit
budget.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import PrecisionExceededError, ZeroInputError


def coeff_sign(x, max_bits: int = 256) -> int:
    """Sign (-1, 0, +1) of a coefficient: Fraction, int, or extension element,
    whose sign is certified within ``max_bits`` bisection steps."""
    if isinstance(x, (Fraction, int)):
        return (x > 0) - (x < 0)
    return x.sign(max_bits)


def signed_sum(terms: Iterable[tuple[object, str]]) -> str:
    """The sum of (coefficient, monomial text) pairs, in the order given, as
    text: each coefficient as ``str(c)``, left off a monomial when it prints
    as 1 or -1, alone when the monomial is empty; a part that starts with
    ``-`` joins as `` - ``, any other as `` + ``; no terms print as ``0``."""
    parts = []
    for c, mono in terms:
        cs = str(c)
        if mono:
            cs = (cs[:-1] if cs in ("1", "-1") else f"{cs}*") + mono
        parts.append(cs)
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}"
                              for p in parts[1:])


def poly_string(cs: Sequence, var: str = "t") -> str:
    """The polynomial with coefficients cs, lowest degree first, as text:
    highest degree first, zero coefficients left out."""
    return signed_sum((cs[k], f"{var}^{k}" if k > 1 else var if k else "")
                      for k in range(len(cs) - 1, -1, -1) if cs[k])


# -- gcd and integer forms ----------------------------------------------------


def primitive_integers(cs: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """(ints, s) with cs[k] = s * ints[k] for rationals cs: coprime integers
    and s > 0, or s = 0 when every entry is zero."""
    den = lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*ints)
    return [v // g for v in ints] if g else ints, Fraction(g, den)


def integer_product(a: list[int], b: list[int]) -> list[int]:
    """a b for integer polynomials a and b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def integer_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of integer polynomials a and b, primitive with a positive leading
    coefficient, or [] when both are zero: the last member of their
    primitive remainder chain (``_remainder_chain``)."""
    g = _remainder_chain(a, b)[-1]
    s = -gcd(*g) if g and g[-1] < 0 else gcd(*g)
    return [c // s for c in g]


# -- Sturm machinery ----------------------------------------------------------


def _variations(values: Sequence[int]) -> int:
    signs = [s for s in values if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def pseudo_remainder(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """(r, s) with s a = q b + r and len(r) < len(b) for integer polynomials
    a and b, so that r = s rem(a, b): s = lc(b)^k after the k steps of the
    pseudo-division that meet a nonzero leading coefficient."""
    r, s, db, lead = list(a), 1, len(b) - 1, b[-1]
    while len(r) > db:
        q = r.pop()
        if not q:
            continue
        if lead != 1:
            r = [lead * x for x in r]
            s *= lead
        off = len(r) - db
        for i in range(db):
            r[off + i] -= q * b[i]
    while r and not r[-1]:
        r.pop()
    return r, s


def _remainder_chain(a: list[int], b: list[int]) -> list[list[int]]:
    """[a, b, r1, ...] for integer polynomials: each r the primitive
    positive multiple of -rem of the two members before it (a Sturm chain's
    sign), down to a constant or the last nonzero member, gcd(a, b) up to a
    constant factor. A shorter a is its own remainder, a swap."""
    seq = [a, b]
    while len(seq[-1]) > 1:
        r, s = pseudo_remainder(seq[-2], seq[-1])
        g = gcd(*r) if s > 0 else -gcd(*r)
        seq.append([-x // g for x in r])
    if not seq[-1]:
        seq.pop()
    return seq


def _integer_sturm(P: list[int]) -> list[list[int]]:
    """The Sturm chain P, P', -rem, ... of integer P down to the last nonzero
    remainder, gcd(P, P') up to a constant factor (a constant exactly when P
    is square-free), as primitive integer polynomials, each a positive
    multiple of that chain's member."""
    dP = [k * c for k, c in enumerate(P)][1:]
    g = gcd(*dP)
    return _remainder_chain(P, [c // g for c in dP])


def exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b for integer polynomials a and nonzero b, or None when b does
    not divide a in Z[t]. A primitive b that divides a over Q divides it in
    Z[t] (Gauss's lemma)."""
    r, db = list(a), len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + db], b[-1])
        if m:
            return None
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    return None if any(r[:db]) else q


def _signs_at(polys: Sequence[list[int]], n: int, d: int) -> list[int]:
    """Signs of the integer polynomials at n/d, d > 0, the first of highest
    degree: each a homogeneous Horner sum of P[i] n^i d^(deg P - i), which
    is P(n/d) d^deg P, over one table of the powers of d."""
    pw = [d ** k for k in range(len(polys[0]))]
    signs = []
    for P in polys:
        v = 0
        for c, w in zip(reversed(P), pw):
            v = v * n + c * w
        signs.append((v > 0) - (v < 0))
    return signs


def _interval_horner(P: list[int], a: int, b: int, d: int
                     ) -> tuple[int, int, int]:
    """(m, M, D) with m/D <= P(x) <= M/D for x in [a/d, b/d], d > 0, and
    integer P: exact interval Horner scaled by D = d^deg P, exact when
    a = b; [m, M] * [a, b] takes two products, by signs."""
    it = reversed(P)
    m = M = next(it, 0)
    D = 1
    for c in it:
        D *= d
        if a >= 0:
            m, M = m * (a if m >= 0 else b), M * (b if M >= 0 else a)
        elif b <= 0:
            m, M = M * (a if M >= 0 else b), m * (b if m >= 0 else a)
        else:
            m, M = min(m * b, M * a), max(m * a, M * b)
        c *= D
        m += c
        M += c
    return m, M, D


def cauchy_bound(P: Sequence) -> Fraction:
    """B with all real roots of P (rational coefficients, lowest degree
    first, nonzero leading one) in (-B, B)."""
    if len(P) < 2:
        return Fraction(1)
    m = max(abs(c) for c in P[:-1])
    return 1 + Fraction(m, abs(P[-1]))


# -- real algebraic numbers ----------------------------------------------------


class AlgebraicReal:
    """A real algebraic number: an integer defining polynomial P, primitive
    with a positive leading coefficient, and an isolating interval [lo, hi],
    held as the cell (a, b, d) of integers a <= b over one denominator
    d > 0, lo = a/d and hi = b/d: the form in which ``_sturm_isolate``
    bisects. ``defining`` (P made monic), ``lo`` and ``hi`` are made when
    read.

    ``isolate_real_roots`` is the one maker: it hands each cell of
    ``_sturm_isolate`` to ``_of_cell``, and ``FieldContext.of_root`` opens
    Q(a) on such a number's P and cell. So a rational r is the cell [r, r]
    of the linear P, and an irrational number's P is square-free with no
    rational root: no end or bisection point of its interval, which holds
    one root, is a root of P. The class reads no float; a certified double
    of a is ``float(FieldContext.of_root(a).generator())``.

    ``refine_step`` halves the interval; the value itself never changes, so
    monotone refinement is semantically pure and safe to share. It alone
    moves ``lo``, and only to a point where P has the sign it has at
    ``lo``, so that sign is evaluated once per defining polynomial.

    Questions about p(a) for a polynomial p over Q, given by an integer
    form, are answered here and nowhere else: ``is_root_of`` decides
    p(a) = 0 exactly, and ``enclose`` is the one loop that bisects the
    interval until the Horner bound on p(a) decides its sign or is narrow
    enough. ``numberfield.FieldContext`` is this class for the generator of
    Q(a), and asks both questions of its elements' integer vectors.
    """

    __slots__ = ("_cell", "_lo_sign", "_integer_defining")

    @classmethod
    def _of_cell(cls, P: list[int], cell: tuple) -> "AlgebraicReal":
        x = object.__new__(cls)
        x._define(P)
        x._cell = cell
        return x

    def _define(self, P: list[int]) -> None:
        """Set the defining polynomial; forget the old sign at lo."""
        self._integer_defining = P
        self._lo_sign = None

    @property
    def defining(self) -> list[Fraction]:
        """The defining polynomial, monic over Q, lowest degree first."""
        P = self._integer_defining
        return [Fraction(c, P[-1]) for c in P]

    lo = property(lambda self: Fraction(self._cell[0], self._cell[2]))
    hi = property(lambda self: Fraction(self._cell[1], self._cell[2]))

    def at_midpoint(self, P: list[int], den: int) -> Fraction:
        """p(midpoint) for p = P / den, P an integer polynomial: one integer
        Horner at the cell's (a + b, 2 d)."""
        a, b, d = self._cell
        v, _, D = _interval_horner(P, a + b, a + b, 2 * d)
        return Fraction(v, D * den)

    def __repr__(self) -> str:
        if self.is_rational():
            return f"{type(self).__name__}({self.lo})"
        return f"{type(self).__name__}({poly_string(self.defining)} in [{self.lo}, {self.hi}])"

    def is_rational(self) -> bool:
        return self._cell[0] == self._cell[1]

    def refine_step(self) -> None:
        a, b, d = self._cell
        if a == b:
            return
        P, m = (self._integer_defining,), a + b
        s = _signs_at(P, m, 2 * d)[0]
        if self._lo_sign is None:
            self._lo_sign = _signs_at(P, a, d)[0]
        self._cell = ((2 * a, m, 2 * d) if s * self._lo_sign < 0
                      else (m, 2 * b, 2 * d))

    def refine_to(self, width: Fraction) -> None:
        """Bisect until hi - lo <= width."""
        num, den = width.numerator, width.denominator
        while (self._cell[1] - self._cell[0]) * den > num * self._cell[2]:
            self.refine_step()

    def is_root_of(self, P: list[int]) -> bool:
        """Certified test of p(a) = 0 for p over Q with integer form P (a
        nonzero multiple of p, no trailing zero): exact at a rational a,
        else the interval bound, then whether g = gcd(P, defining) changes
        sign between lo and hi. g divides the square-free defining
        polynomial, whose only root in [lo, hi] is a, at neither end, so g
        has a root there exactly when a is one, and it is simple."""
        if len(P) < 2:
            return not any(P)
        a, b, d = self._cell
        if a == b:
            return _signs_at((P,), a, d)[0] == 0
        m, M, _ = _interval_horner(P, a, b, d)
        if m > 0 or M < 0:
            return False
        g = (integer_gcd(P, self._integer_defining),)
        return _signs_at(g, a, d)[0] * _signs_at(g, b, d)[0] < 0

    def enclose(self, P: list[int], den: int, width: Fraction | None = None,
                max_bits: int = 4096) -> tuple[Fraction, Fraction]:
        """Rational (m, M) with m <= p(a) <= M for p = P / den over Q, P an
        integer polynomial and den > 0.

        The interval is bisected until the bound excludes 0 (no ``width``:
        p(a) must be certified nonzero first) or until M - m <= ``width``.
        The bound is checked before each of at most ``max_bits`` steps; a
        rational a gives the exact value. The bound is
        ``_interval_horner``'s on P, which scales exactly with P, so a
        positive multiple of P over the same multiple of den decides the
        same steps and returns the same rationals.
        """
        for _ in range(max_bits):
            a, b, d = self._cell
            if a == b:
                break
            lo, hi, D = _interval_horner(P, a, b, d)
            if ((lo > 0 or hi < 0) if width is None else
                    (hi - lo) * width.denominator
                    <= width.numerator * den * D):
                D *= den
                return Fraction(lo, D), Fraction(hi, D)
            self.refine_step()
        a, b, d = self._cell
        if a != b:
            raise PrecisionExceededError(
                f"root refinement undecided within {max_bits} bits")
        v, _, D = _interval_horner(P, a, a, d)
        v = Fraction(v, D * den)
        return v, v


# isolate_real_roots refines each irrational root's interval to this width
_REFINE_WIDTH = Fraction(1, 4)


# -- isolation -----------------------------------------------------------------


def _integer_root(q: list[int], right_sign: int, i: int,
                  j: int) -> int | None:
    """The integer root of q in [i, j], if any, where [i, j] lies in an
    interval on which q has exactly one root, simple, and the sign
    ``right_sign`` right of it: integer bisection with Horner evaluation."""
    if i > j:
        return None

    def side(s: int) -> int:
        v = 0
        for c in reversed(q):
            v = v * s + c
        return -right_sign * ((v > 0) - (v < 0))

    # side: 1 left of the root, -1 right of it
    si = side(i)
    if si <= 0:
        return i if si == 0 else None
    sj = side(j)
    if sj >= 0:
        return j if sj == 0 else None
    while j - i > 1:
        m = (i + j) // 2
        sm = side(m)
        if sm == 0:
            return m
        if sm > 0:
            i = m
        else:
            j = m
    return None


def _sturm_isolate(u: Sequence) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Bisect (-B, B] with Sturm counts, for nonzero u over Q, on its
    square-free part p and its Sturm chain, both as integer polynomials.

    Returns one cell (a, b, d) per root, ascending: integers over one
    denominator, a = b for a rational root a/d in lowest terms, else the
    isolating interval [a/d, b/d] of an irrational one; and P, p divided by
    (t - r) for each rational root r, primitive with a positive leading
    coefficient and with no rational root. A cell (lo, hi] carries V(lo)
    and V(hi), whose difference counts its roots even when an end is a
    root, so a root on a bisection point is the right end of a one-root
    cell. Any other root of such a cell is interior, and the sign of p(hi),
    read with V(hi), guides ``_integer_root`` on q(s) = A^(n-1) P(s/A), for
    P = A t^n + ... the integer form of p. Cell ends are integers over B's
    denominator times 2^k, and the cells, half-open and disjoint, are
    walked left to right.
    """
    cells: list[tuple[int, int, int]] = []
    P = primitive_integers(u)[0]
    seq = _integer_sturm(P)
    if len(seq[-1]) > 1:
        P = exact_quotient(P, seq[-1])
        if P is None:
            raise RuntimeError("inexact polynomial division")
        seq = _integer_sturm(P)
    lead = 1 if P[-1] > 0 else -1
    P = [lead * c for c in P]
    B = cauchy_bound(P)
    A, n = P[-1], len(P) - 1
    q = [c * A ** (n - 1 - k) for k, c in enumerate(P[:-1])] + [1]

    def point(x: int, d: int) -> tuple[int, int]:
        # V(x/d) and the sign of p(x/d)
        signs = _signs_at(seq, x, d)
        return _variations(signs), lead * signs[0]

    top, d = B.numerator, B.denominator
    stack = [(-top, top, d, point(-top, d)[0]) + point(top, d)]
    while stack:
        a, b, d, vlo, vhi, shi = stack.pop()
        if vlo - vhi > 1:
            vmid, smid = point(a + b, 2 * d)
            stack.append((a + b, 2 * b, 2 * d, vmid, vhi, shi))
            stack.append((2 * a, a + b, 2 * d, vlo, vmid, smid))
            continue
        if vlo == vhi:
            continue
        if shi == 0:
            cells.append((b, b, d))
            continue
        s = _integer_root(q, shi, a * A // d + 1, -(-b * A // d) - 1)
        cells.append((a, b, d) if s is None else (s, s, A))
    for k, (a, b, d) in enumerate(cells):
        if a == b:
            g = gcd(a, d)
            a, d = a // g, d // g
            cells[k] = (a, a, d)
            P = exact_quotient(P, [-a, d])
            if P is None:
                raise RuntimeError("inexact polynomial division")
    return cells, P


def isolate_real_roots(u: Sequence) -> list[AlgebraicReal]:
    """Isolate all distinct real roots of u, a list of rational
    coefficients, lowest degree first; trailing zeros are dropped.

    Returns AlgebraicReal values in ascending order, one per distinct real
    root, as ``_sturm_isolate`` finds them, each holding its cell and an
    integer form from it: a rational root its linear factor, and the other
    roots the one P with no rational root, u's square-free part divided by
    (t - r) for each rational r. The irrational intervals are refined to
    width at most 1/4, inside their cells, and never contain more than one
    root. u may have repeated factors.
    """
    u = list(u)
    while u and not u[-1]:
        u.pop()
    if not u:
        raise ZeroInputError("cannot isolate roots of the zero polynomial")
    if len(u) < 2:
        return []
    cells, P = _sturm_isolate(u)
    out = []
    for a, b, d in cells:
        x = AlgebraicReal._of_cell(P if a < b else [-a, d], (a, b, d))
        x.refine_to(_REFINE_WIDTH)
        out.append(x)
    return out
