"""Sparse bivariate polynomials in x, y with exact coefficients.

A polynomial over Q is held as one primitive integer map (i, j) -> int, its
coefficients' integers with gcd 1, times one positive rational content
num/den, so that two equal polynomials hold the same form. Every operation
of the public algebra (parsing, arithmetic, differentiation, composition,
gcd, square-free part) runs on the integers, and each result is reduced by
one integer gcd. The term map ``(i, j) -> Fraction`` is made only when
``terms`` is read, for printing and the numeric oracle. Over a real
extension Q(c) (see ``numberfield``) a polynomial holds one integer vector
per monomial, in the power basis of c over one denominator, which the
field's context reduces once (``from_vectors``); an element of Q(c) is made
only where a coefficient is read. Branch expansion only reads, reflects,
truncates, shifts and substitutes them: no sums or products.

Each operation has one path, whatever the shape of its inputs (constants,
polynomials in x alone or in y alone included). gcd first runs the heuristic
gcd GCDHEU of Char, Geddes and Gonnet (J. Symbolic Comput. 7, 1989) on the
primitive integer forms: x is evaluated at an integer
xi, y at an integer eta, the integer gcd of the two values is interpolated
back by symmetric remainders, first in y and then in x, and its primitive
part is the candidate. Exact division of both inputs certifies it, and
every evaluation point exceeds twice a root bound of the inputs, which
makes a candidate that divides both the greatest common divisor. When
no candidate is certified after a few growing evaluation points, gcd falls
back, on the integer lists that GCDHEU holds, to splitting both inputs into
content and primitive part in y, taking the gcd of the contents over Z[x]
(``unipoly.integer_gcd``), and running Collins' subresultant polynomial
remainder sequence (J. ACM 14, 1967) on the primitive parts, whose
divisions are exact in Z[x].

``gcd_cofactors`` returns the gcd g with the cofactors p/g and q/g, the
quotients that certified it, so no caller divides by a gcd again. The
square-free part p / gcd(gcd(p, p_y), p_x) is read off two of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, isqrt, lcm
from typing import Iterable

from .errors import BothZeroError, ZeroInputError
from .unipoly import (exact_quotient, integer_gcd, integer_product,
                      primitive_integers, signed_sum)


def _grlex_key(ij: tuple[int, int]) -> tuple[int, int]:
    i, j = ij
    return (i + j, i)


def _lead_sign(ints: dict) -> int:
    """The sign of the grlex-largest entry of a nonzero integer map."""
    return 1 if ints[max(ints, key=_grlex_key)] > 0 else -1


class BivarPoly:
    """Immutable sparse polynomial sum of coeff * x^i * y^j.

    Over Q, ``_map`` is the primitive integer map and ``_num``/``_den`` the
    content, num > 0 and den > 0 coprime (1/1 for the zero polynomial), and
    ``_ctx`` is None. Over Q(c), ``_ctx`` is the field's context and ``_map``
    holds vectors over the denominator ``_den``. ``_terms`` caches the
    coefficients.
    """

    __slots__ = ("_map", "_num", "_den", "_ctx", "_terms")

    def __new__(cls, terms: dict | Iterable = ()):
        """The polynomial of a term map of rational coefficients."""
        d = dict(terms)
        ints, s = primitive_integers(list(d.values()))
        return BivarPoly.from_integers(dict(zip(d, ints)), s.numerator,
                                       s.denominator)

    @staticmethod
    def _of(stored: dict, num: int, den: int, ctx) -> "BivarPoly":
        """The polynomial that holds the given form as it is."""
        p = object.__new__(BivarPoly)
        p._map, p._num, p._den, p._ctx, p._terms = stored, num, den, ctx, None
        return p

    @staticmethod
    def from_integers(ints: dict, num: int = 1, den: int = 1) -> "BivarPoly":
        """num/den times the integer map ints (den > 0, zeros allowed) in the
        canonical form: one gcd over the entries, one for the content."""
        g = _igcd(*ints.values())
        if not g or not num:
            return BivarPoly._of({}, 1, 1, None)
        num *= g
        if num < 0:
            g, num = -g, -num
        r = _igcd(num, den)
        return BivarPoly._of({ij: v // g for ij, v in ints.items() if v},
                             num // r, den // r, None)

    @staticmethod
    def from_vectors(ctx, vecs: dict, den: int) -> "BivarPoly":
        """The polynomial over Q(c) with coefficients vecs[ij] / den, for
        integer vectors in the power basis of ctx's generator and den > 0,
        which ctx reduces (``FieldContext.reduce_vectors``)."""
        vecs, den = ctx.reduce_vectors(vecs, den)
        return BivarPoly._of(vecs, 1, den, ctx)

    def _held(self, stored: dict) -> "BivarPoly":
        """A polynomial of self's kind and content, or denominator and field,
        that stores ``stored``."""
        return BivarPoly._of(stored, self._num, self._den, self._ctx)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "BivarPoly":
        return BivarPoly()

    @staticmethod
    def constant(c) -> "BivarPoly":
        """The constant polynomial c, for a rational c."""
        return BivarPoly.from_integers({(0, 0): c.numerator}, 1, c.denominator)

    @staticmethod
    def var_x() -> "BivarPoly":
        return BivarPoly.from_integers({(1, 0): 1})

    @staticmethod
    def var_y() -> "BivarPoly":
        return BivarPoly.from_integers({(0, 1): 1})

    # -- reading ------------------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The term map (i, j) -> coefficient, made once when first read:
        Fractions over Q, elements of Q(c) over Q(c)."""
        if self._terms is None:
            self._terms = {ij: self.coeff(ij) for ij in self._map}
        return self._terms

    @property
    def support(self):
        """The monomials (i, j) with a nonzero coefficient."""
        return self._map.keys()

    def coeff(self, ij: tuple[int, int]):
        """The coefficient of a monomial of the support."""
        if self._ctx is None:
            return Fraction(self._map[ij] * self._num, self._den)
        return self._ctx.coefficient(self._map[ij], self._den)

    def integer_form(self) -> tuple[dict, int, int] | None:
        """(ints, num, den) with p = num/den times the primitive integer map
        ints, num > 0; None over Q(c)."""
        return None if self._ctx else (self._map, self._num, self._den)

    def vector_form(self) -> tuple[dict, int, object]:
        """(vecs, den, ctx): the coefficient vecs[ij] / den in ctx's field."""
        return self._map, self._den, self._ctx

    def _form(self) -> tuple[dict, int, int]:
        if self._ctx:
            raise TypeError("arithmetic needs rational coefficients")
        return self._map, self._num, self._den

    # -- shape ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._map

    def __bool__(self) -> bool:
        return bool(self._map)

    def is_constant(self) -> bool:
        return not self._map or set(self._map) == {(0, 0)}

    def total_degree(self) -> int:
        return max((i + j for i, j in self._map), default=-1)

    def deg_x(self) -> int:
        return max((i for i, _ in self._map), default=-1)

    def deg_y(self) -> int:
        return max((j for _, j in self._map), default=-1)

    def min_deg_y(self) -> int:
        return min((j for _, j in self._map), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if self._ctx or other._ctx:
            return self.terms == other.terms
        return (self._num == other._num and self._den == other._den
                and self._map == other._map)

    def __hash__(self):
        if self._ctx:
            # its Q(c) coefficients have no hash
            raise TypeError("a polynomial over Q(c) is unhashable")
        return hash((self._num, self._den, frozenset(self._map.items())))

    def __repr__(self) -> str:
        return f"BivarPoly({self.to_string()})"

    # -- arithmetic ----------------------------------------------------------------

    def _combine(self, other: "BivarPoly", sign: int) -> "BivarPoly":
        """self + sign * other over the common content gcd(num)/lcm(den)."""
        A, n1, d1 = self._form()
        B, n2, d2 = other._form()
        if not B:
            return self
        g, den = _igcd(n1, n2), lcm(d1, d2)
        s, t = n1 // g * (den // d1), sign * n2 // g * (den // d2)
        out = {ij: s * v for ij, v in A.items()}
        for ij, v in B.items():
            out[ij] = out.get(ij, 0) + t * v
        return BivarPoly.from_integers(out, g, den)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "BivarPoly":
        A = self._form()[0]
        return self._held({ij: -v for ij, v in A.items()})

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        A, n1, d1 = self._form()
        B, n2, d2 = other._form()
        out: dict = {}
        for (i1, j1), a in A.items():
            for (i2, j2), b in B.items():
                ij = (i1 + i2, j1 + j2)
                out[ij] = out.get(ij, 0) + a * b
        return BivarPoly.from_integers(out, n1 * n2, d1 * d2)

    def scale(self, c) -> "BivarPoly":
        """c times the polynomial, for a rational c."""
        A, n, d = self._form()
        return BivarPoly.from_integers(A, n * c.numerator, d * c.denominator)

    def __pow__(self, n: int) -> "BivarPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = BivarPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def diff(self, var: str) -> "BivarPoly":
        A, n, d = self._form()
        if var == "x":
            out = {(i - 1, j): v * i for (i, j), v in A.items() if i}
        elif var == "y":
            out = {(i, j - 1): v * j for (i, j), v in A.items() if j}
        else:
            raise ValueError(f"unknown variable {var!r}")
        return BivarPoly.from_integers(out, n, d)

    def compose(self, px: "BivarPoly", py: "BivarPoly") -> "BivarPoly":
        """Substitute polynomials for x and y."""
        xps = {0: BivarPoly.constant(1)}
        yps = {0: BivarPoly.constant(1)}
        for i in range(1, self.deg_x() + 1):
            xps[i] = xps[i - 1] * px
        for j in range(1, self.deg_y() + 1):
            yps[j] = yps[j - 1] * py
        out = BivarPoly()
        for (i, j), c in sorted(self.terms.items()):
            out = out + (xps[i] * yps[j]).scale(c)
        return out

    # -- substitutions read off the stored map, over Q and Q(c) alike ------------

    def swap_vars(self) -> "BivarPoly":
        return self._held({(j, i): c for (i, j), c in self._map.items()})

    def shift_down(self, a: int, b: int) -> "BivarPoly":
        """Exact division by x^a * y^b."""
        if not all(i >= a and j >= b for i, j in self._map):
            raise RuntimeError("shift_down by a monomial that does not divide")
        return self._held({(i - a, j - b): c
                           for (i, j), c in self._map.items()})

    def reflect(self, a: int) -> "BivarPoly":
        """p(-x, (-1)^a y), its integer or vector negated at odd i + a j."""
        neg = (lambda v: [-x for x in v]) if self._ctx else int.__neg__
        return self._held({(i, j): (neg(c) if (i + a * j) % 2 else c)
                           for (i, j), c in self._map.items()})

    def truncate(self, n: int) -> "BivarPoly":
        """p without its terms of x-degree above n."""
        kept = {ij: c for ij, c in self._map.items() if ij[0] <= n}
        if len(kept) == len(self._map):
            return self
        if self._ctx:
            return self._held(kept)
        return BivarPoly.from_integers(kept, self._num, self._den)

    # -- printing ---------------------------------------------------------------------

    def to_string(self) -> str:
        """Render in the input grammar, terms in ascending total degree; a
        coefficient that prints as 1 or -1 is left off (``signed_sum``)."""
        terms = self.terms
        return signed_sum(
            (terms[i, j], "*".join(f"{v}^{k}" if k > 1 else v
                                   for v, k in (("x", i), ("y", j)) if k))
            for i, j in sorted(terms, key=lambda ij: (ij[0] + ij[1], -ij[0])))


# -- normalization over Q ----------------------------------------------------------------


def normalize(p: BivarPoly) -> BivarPoly:
    """Scale to integer-primitive form with positive grlex-leading coefficient."""
    A = p._form()[0]
    out = BivarPoly.from_integers(A)
    return -out if A and _lead_sign(A) < 0 else out


# -- heuristic gcd over the integers ------------------------------------------------------
#
# A polynomial in Z[t] is a dense list of ints, lowest degree first, with a
# nonzero last entry (the zero polynomial is []). A polynomial in Z[x, y] is
# the list of its y-coefficients, each such a list in x, the last one nonzero.

# evaluation points tried at each level before the heuristic gives up
_HEU_TRIES = 6


def _z_trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _z_eval(a: list[int], t: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * t + c
    return v


def _z_digits(v: int, t: int) -> list[int]:
    """The polynomial a in Z[s] with a(t) = v and every coefficient in
    (-t/2, t/2]: the symmetric t-adic digits of v."""
    out = []
    while v:
        r = v % t
        if r > t // 2:
            r -= t
        out.append(r)
        v = (v - r) // t
    return out


def _z_sub(a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] -= v
    return _z_trim(out)


def _zz_divide(A: list[list[int]], B: list[list[int]]) -> list[list[int]] | None:
    """A / B in Z[x, y] for nonzero B, or None when B does not divide A."""
    dB = len(B) - 1
    if len(A) - 1 < dB:
        return None if A else []
    R = list(A)
    Q: list[list[int]] = [[] for _ in range(len(A) - dB)]
    for k in range(len(Q) - 1, -1, -1):
        if not R[k + dB]:
            continue
        c = exact_quotient(R[k + dB], B[-1])
        if c is None:
            return None
        Q[k] = c
        for i in range(dB):
            R[k + i] = _z_sub(R[k + i], integer_product(c, B[i]))
    return None if any(R[:dB]) else Q


def _zz_exact(A: list[list[int]], b: list[int]) -> list[list[int]]:
    """A / b in Z[x, y] for nonzero b in Z[x] known to divide A."""
    Q = _zz_divide(A, [b])
    if Q is None:
        raise RuntimeError("inexact polynomial division")
    return Q


def _z_grow(t: int) -> int:
    """Next evaluation point after t: about t^(5/4), so that a few tries
    reach past the coefficients of any cofactor-free image."""
    return 2 * t * isqrt(isqrt(t)) + 1


def _z_heu_gcd(a: list[int], b: list[int]) -> list[int] | None:
    """gcd of nonzero a and b in Z[t], up to sign, or None when no candidate
    is certified within _HEU_TRIES evaluation points.

    For primitive a and b, every root of a common factor k lies within
    1 + m of 0, m = min(|a|, |b|) (Cauchy's bound), so |k(t)| >= t - 1 - m
    > t/2 at every t > 2 + 2m when k is not constant. The primitive part h
    of the interpolant of gcd(a(t), b(t)) that divides a and b is therefore
    their gcd: gcd(a, b) = h k with k(t) dividing the content of the
    interpolant, which is at most t/2.
    """
    ca, cb = _igcd(*a), _igcd(*b)
    a = [v // ca for v in a]
    b = [v // cb for v in b]
    t = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(_HEU_TRIES):
        h = _z_digits(_igcd(_z_eval(a, t), _z_eval(b, t)), t)
        k = _igcd(*h)
        h = [v // k for v in h]
        if (exact_quotient(a, h) is not None
                and exact_quotient(b, h) is not None):
            c = _igcd(ca, cb)
            return [c * v for v in h]
        t = _z_grow(t)
    return None


def _integer_primitive(p: BivarPoly) -> tuple[list[list[int]], int, int]:
    """(A, num, den) with p = num/den A, A primitive in Z[x, y] (or [] for
    p = 0): p's integer map laid out in columns."""
    ints, num, den = p._form()
    width = p.deg_x() + 1
    cols: list[list[int]] = [[0] * width for _ in range(p.deg_y() + 1)]
    for (i, j), v in ints.items():
        cols[j][i] = v
    return [_z_trim(col) for col in cols], num, den


def _from_integers(A: list[list[int]], num: int = 1, den: int = 1) -> BivarPoly:
    """The polynomial num/den A over Q, for A in Z[x, y] and den > 0."""
    return BivarPoly.from_integers({(i, j): v for j, col in enumerate(A)
                                    for i, v in enumerate(col) if v}, num, den)


def _signed(A: list[list[int]]) -> tuple[BivarPoly, int]:
    """(e A, e) for the sign e = +-1 that makes A's grlex lead positive."""
    g = _from_integers(A)
    return (g, 1) if not A or _lead_sign(g._map) > 0 else (-g, -1)


def _zz_norm(A: list[list[int]]) -> int:
    return max(abs(v) for col in A for v in col)


def _gcd_heu(A: list[list[int]], B: list[list[int]]):
    """(H, A/H, B/H): the GCDHEU gcd H of nonzero primitive A and B in
    Z[x, y], up to sign, with the quotients that certify it, or None when
    no candidate is certified within _HEU_TRIES evaluation points for x.

    Let B be the one of the primitive integer inputs A, B of smaller norm.
    At xi > 2 + 2 |B|, lc_y(B)(xi) is not zero, so B(xi, y) keeps the degree
    in y of B, and a common factor K in Z[x] has |K(xi)| > xi/2 unless it
    is constant, as in ``_z_heu_gcd``. So the primitive candidate H,
    interpolated from gcd(A(xi, y), B(xi, y)), that divides A and B is
    their gcd: gcd(A, B) = H K, where K(xi, y) divides the content of the
    interpolant, which is a nonzero integer of at most xi/2. So K has
    degree 0 in y, then in x.
    """
    xi = 2 * min(_zz_norm(A), _zz_norm(B)) + 29
    for _ in range(_HEU_TRIES):
        a = _z_trim([_z_eval(col, xi) for col in A])
        b = _z_trim([_z_eval(col, xi) for col in B])
        g = _z_heu_gcd(a, b) if a and b else None
        if g is not None:
            H = [_z_digits(v, xi) for v in g]
            k = _igcd(*(v for col in H for v in col))
            H = [[v // k for v in col] for col in H]
            U = _zz_divide(A, H)
            V = None if U is None else _zz_divide(B, H)
            if V is not None:
                return H, U, V
        xi = _z_grow(xi)
    return None


# -- subresultant fallback over Z[x][y] --------------------------------------------------


def _z_pow(a: list[int], n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = integer_product(out, a)
    return out


def _zz_content(A: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(c, A/c) for nonzero A in Z[x, y]: its content in y, the gcd in Z[x]
    of its y-coefficients with a positive lead, and its primitive part."""
    c: list[int] = []
    for col in A:
        c = integer_gcd(c, col)
    k = _igcd(*(v for col in A for v in col))
    c = [k * v for v in c]
    return c, _zz_exact(A, c)


def _zz_prem(F: list[list[int]], G: list[list[int]]) -> list[list[int]]:
    """lc(G)^(deg F - deg G + 1) F rem G in Z[x][y], for deg F >= deg G."""
    R, dG, lead = list(F), len(G) - 1, G[-1]
    for _ in range(len(F) - dG):
        top = R.pop() if len(R) > dG else []
        R = [integer_product(lead, c) for c in R]
        if top:
            off = len(R) - dG
            for i in range(dG):
                R[off + i] = _z_sub(R[off + i], integer_product(top, G[i]))
        while R and not R[-1]:
            R.pop()
    return R


def _gcd_prs(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """gcd of nonzero A and B in Z[x, y], primitive, up to sign: the gcd of
    their contents in y times the primitive part in y of the last nonzero
    member of Collins' subresultant PRS of their primitive parts, whose
    divisions by beta and by a power of h are exact in Z[x]."""
    (a, F), (b, G) = _zz_content(A), _zz_content(B)
    if len(F) < len(G):
        F, G = G, F
    g = h = [1]
    while len(G) > 1:
        delta = len(F) - len(G)
        R = _zz_prem(F, G)
        if not R:
            break
        beta = integer_product(g, _z_pow(h, delta))
        if delta % 2 == 0:
            beta = [-v for v in beta]
        F, G = G, _zz_exact(R, beta)
        g = F[-1]
        if delta:
            h = _zz_exact([_z_pow(g, delta)], _z_pow(h, delta - 1))[0]
    c = integer_gcd(a, b)
    return [integer_product(c, col) for col in _zz_content(G)[1]]


# -- gcd and square-free part -------------------------------------------------------------


def gcd_cofactors(p: BivarPoly,
                  q: BivarPoly) -> tuple[BivarPoly, BivarPoly, BivarPoly]:
    """(g, p/g, q/g) for g = gcd(p, q) over Q[x, y], normalized: GCDHEU on
    the primitive integer forms of p = s A and q = t B, or the subresultant
    PRS and ``_zz_divide`` when it certifies no candidate H. With g = e H,
    e = +-1, p/g = e s A/H and q/g = e t B/H, primitive again by Gauss's
    lemma, so the contents pass through as integers."""
    if p.is_zero() and q.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    (A, sn, sd), (B, tn, td) = _integer_primitive(p), _integer_primitive(q)
    if not A or not B:
        H, U, V = (A, [[1]], []) if A else (B, [], [[1]])
    else:
        HUV = _gcd_heu(A, B)
        if HUV is None:
            H = _gcd_prs(A, B)
            HUV = H, _zz_divide(A, H), _zz_divide(B, H)
        H, U, V = HUV
    g, e = _signed(H)
    return g, _from_integers(U, e * sn, sd), _from_integers(V, e * tn, td)


def gcd_bivar(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """Greatest common divisor over Q[x, y], normalized integer-primitive with
    positive grlex-leading coefficient (``gcd_cofactors``)."""
    return gcd_cofactors(p, q)[0]


def squarefree_part(p: BivarPoly) -> BivarPoly:
    """Product of the distinct irreducible factors of p, normalized: p / G2,
    the product of the cofactors p / G and G / G2, for G = gcd(p, p_y) and
    G2 = gcd(G, p_x). For p = c prod f_i^e_i, G holds f_i^(e_i - 1) for
    each f_i that involves y, and f_i^e_i for each other f_i, whose nonzero
    x-derivative cuts it back to f_i^(e_i - 1) in G2. A constant G means
    that p is already square-free."""
    if p.is_zero():
        raise ZeroInputError("zero polynomial has no square-free part")
    G, P, _ = gcd_cofactors(p, p.diff("y"))
    if not G.is_constant():
        P = P * gcd_cofactors(G, p.diff("x"))[1]
    return normalize(P)
