"""Sparse bivariate polynomials in x, y with exact coefficients.

The public algebra (parsing, differentiation, gcd, square-free part) works
over Q, with coefficients stored as ``fractions.Fraction`` in a term map
``(i, j) -> coeff``. The same container is reused internally with extension
field coefficients during branch expansion; only ``+ - *`` and truth testing
of coefficients are assumed there.

gcd uses content/primitive-part decomposition in the main variable plus the
Collins subresultant polynomial remainder sequence, which keeps coefficient
growth polynomial while staying exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable

from .errors import BothZeroError, ZeroInputError
from .unipoly import UniPoly, uni_gcd, uni_squarefree


def _grlex_key(ij: tuple[int, int]) -> tuple[int, int]:
    i, j = ij
    return (i + j, i)


class BivarPoly:
    """Immutable sparse polynomial sum of coeff * x^i * y^j."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | Iterable = ()):
        d = dict(terms)
        self.terms = {ij: c for ij, c in d.items() if c}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "BivarPoly":
        return BivarPoly()

    @staticmethod
    def constant(c) -> "BivarPoly":
        return BivarPoly({(0, 0): Fraction(c) if isinstance(c, int) else c})

    @staticmethod
    def monomial(c, i: int, j: int) -> "BivarPoly":
        return BivarPoly({(i, j): Fraction(c) if isinstance(c, int) else c})

    @staticmethod
    def var_x() -> "BivarPoly":
        return BivarPoly({(1, 0): Fraction(1)})

    @staticmethod
    def var_y() -> "BivarPoly":
        return BivarPoly({(0, 1): Fraction(1)})

    # -- shape ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0)}

    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    def deg_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def deg_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def min_deg_x(self) -> int:
        return min((i for i, _ in self.terms), default=0)

    def min_deg_y(self) -> int:
        return min((j for _, j in self.terms), default=0)

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.terms)

    def leading_coeff_grlex(self):
        """Coefficient of the grlex-largest monomial (x ranked above y)."""
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms, key=_grlex_key)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"BivarPoly({self.to_string()})"

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self.terms)
        for ij, c in other.terms.items():
            cur = out.get(ij)
            out[ij] = c if cur is None else cur + c
        return BivarPoly(out)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({ij: -c for ij, c in self.terms.items()})

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                ij = (i1 + i2, j1 + j2)
                cur = out.get(ij)
                p = c1 * c2
                out[ij] = p if cur is None else cur + p
        return BivarPoly(out)

    def scale(self, c) -> "BivarPoly":
        if not c:
            return BivarPoly()
        return BivarPoly({ij: v * c for ij, v in self.terms.items()})

    def __pow__(self, n: int) -> "BivarPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = BivarPoly.constant(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def diff(self, var: str) -> "BivarPoly":
        out = {}
        if var == "x":
            for (i, j), c in self.terms.items():
                if i:
                    out[(i - 1, j)] = c * i
        elif var == "y":
            for (i, j), c in self.terms.items():
                if j:
                    out[(i, j - 1)] = c * j
        else:
            raise ValueError(f"unknown variable {var!r}")
        return BivarPoly(out)

    def eval(self, x, y):
        """Evaluate at a point; works for Fraction, float, or field elements."""
        acc = None
        for (i, j), c in sorted(self.terms.items()):
            t = c * x**i * y**j
            acc = t if acc is None else acc + t
        if acc is None:
            return 0.0 if isinstance(x, float) else Fraction(0)
        return acc

    def compose(self, px: "BivarPoly", py: "BivarPoly") -> "BivarPoly":
        """Substitute polynomials for x and y."""
        xps = {0: BivarPoly.constant(Fraction(1))}
        yps = {0: BivarPoly.constant(Fraction(1))}
        for i in range(1, self.deg_x() + 1):
            xps[i] = xps[i - 1] * px
        for j in range(1, self.deg_y() + 1):
            yps[j] = yps[j - 1] * py
        out = BivarPoly()
        for (i, j), c in sorted(self.terms.items()):
            out = out + (xps[i] * yps[j]).scale(c)
        return out

    def swap_vars(self) -> "BivarPoly":
        return BivarPoly({(j, i): c for (i, j), c in self.terms.items()})

    def shift_down(self, a: int, b: int) -> "BivarPoly":
        """Exact division by x^a * y^b."""
        if not all(i >= a and j >= b for i, j in self.terms):
            raise RuntimeError("shift_down by a monomial that does not divide")
        return BivarPoly({(i - a, j - b): c for (i, j), c in self.terms.items()})

    # -- views ------------------------------------------------------------------------

    def coeffs_in_y(self) -> list[UniPoly]:
        """List indexed by j of UniPoly-in-x coefficients (Fraction terms only)."""
        n = self.deg_y() + 1
        cols: list[list] = [[] for _ in range(max(n, 0))]
        for (i, j), c in self.terms.items():
            col = cols[j]
            if len(col) <= i:
                col.extend([Fraction(0)] * (i + 1 - len(col)))
            col[i] = c
        return [UniPoly(col) for col in cols]

    @staticmethod
    def from_coeffs_in_y(cols: list[UniPoly]) -> "BivarPoly":
        out = {}
        for j, p in enumerate(cols):
            for i, c in enumerate(p.coeffs):
                if c:
                    out[(i, j)] = c
        return BivarPoly(out)

    @staticmethod
    def from_unipoly_x(p: UniPoly) -> "BivarPoly":
        return BivarPoly({(i, 0): c for i, c in enumerate(p.coeffs) if c})

    def as_unipoly_in_x(self) -> UniPoly:
        if self.deg_y() > 0:
            raise RuntimeError("as_unipoly_in_x of a polynomial in y")
        n = self.deg_x() + 1
        out = [Fraction(0)] * max(n, 0)
        for (i, _), c in self.terms.items():
            out[i] = c
        return UniPoly(out)

    def as_unipoly_in_y(self) -> UniPoly:
        if self.deg_x() > 0:
            raise RuntimeError("as_unipoly_in_y of a polynomial in x")
        n = self.deg_y() + 1
        out = [Fraction(0)] * max(n, 0)
        for (_, j), c in self.terms.items():
            out[j] = c
        return UniPoly(out)

    # -- printing ---------------------------------------------------------------------

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda ij: (ij[0] + ij[1], -ij[0])):
            c = self.terms[(i, j)]
            mono = "*".join(
                ([f"x^{i}" if i > 1 else "x"] if i else [])
                + ([f"y^{j}" if j > 1 else "y"] if j else []))
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


# -- normalization over Q ----------------------------------------------------------------


def normalize(p: BivarPoly) -> BivarPoly:
    """Scale to integer-primitive form with positive grlex-leading coefficient."""
    if p.is_zero():
        return p
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // _igcd(den, c.denominator)
    num = 0
    for c in p.terms.values():
        num = _igcd(num, abs(int(c * den)))
    q = p.scale(Fraction(den, num))
    if q.leading_coeff_grlex() < 0:
        q = -q
    return q


# -- gcd and square-free part -------------------------------------------------------------


def _content_y(p: BivarPoly) -> UniPoly:
    """gcd over Q[x] of the y-coefficients (monic)."""
    cols = [c for c in p.coeffs_in_y() if not c.is_zero()]
    g = UniPoly()
    for c in cols:
        g = uni_gcd(g, c) if not g.is_zero() else c.monic()
        if g.degree == 0:
            break
    return g


def _prem(F: list[UniPoly], G: list[UniPoly]) -> list[UniPoly]:
    """Pseudo-remainder of y-polynomials with UniPoly-in-x coefficients:
    lc(G)^(degF-degG+1) * F mod G."""
    f = list(F)
    dG = len(G) - 1
    lg = G[-1]
    steps = len(f) - 1 - dG + 1
    for _ in range(steps):
        if len(f) - 1 < dG:
            # degree dropped early: keep multiplying to match the pseudo factor
            f = [c * lg for c in f]
            continue
        top = f[-1]
        f = [c * lg for c in f[:-1]]
        for k in range(dG):
            f[len(f) - dG + k] = f[len(f) - dG + k] - top * G[k]
        while f and f[-1].is_zero():
            f.pop()
    return f


def _divide_coeffs(F: list[UniPoly], d: UniPoly) -> list[UniPoly]:
    out = []
    for c in F:
        q, r = c.divmod(d)
        if not r.is_zero():
            raise RuntimeError("inexact subresultant division")
        out.append(q)
    return out


def _gcd_primitive_y(F: list[UniPoly], G: list[UniPoly]) -> BivarPoly:
    """gcd of two y-primitive polynomials (given as y-coefficient lists),
    via the subresultant PRS. Returns a y-primitive BivarPoly."""
    if len(F) - 1 < len(G) - 1:
        F, G = G, F
    g = UniPoly.constant(Fraction(1))
    h = UniPoly.constant(Fraction(1))
    while True:
        delta = (len(F) - 1) - (len(G) - 1)
        R = _prem(F, G)
        if not R:
            break
        if len(R) - 1 == 0:
            # nonzero constant in y: primitive parts are coprime
            return BivarPoly.constant(Fraction(1))
        beta = g * h**delta
        if delta % 2 == 0:
            beta = -beta
        R = _divide_coeffs(R, beta)
        F, G = G, R
        g = F[-1]
        if delta >= 1:
            hn = g**delta
            if delta > 1:
                hn = _divide_coeffs([hn], h**(delta - 1))[0]
            h = hn
    res = BivarPoly.from_coeffs_in_y(G)
    cont = _content_y(res)
    if cont.degree >= 1 or (cont.coeffs and cont.coeffs[0] != 1):
        res = BivarPoly.from_coeffs_in_y(_divide_coeffs(res.coeffs_in_y(), cont))
    return res


def gcd_bivar(p: BivarPoly, q: BivarPoly) -> BivarPoly:
    """Greatest common divisor over Q[x, y], normalized integer-primitive with
    positive grlex-leading coefficient."""
    if p.is_zero() and q.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    if p.is_zero():
        return normalize(q)
    if q.is_zero():
        return normalize(p)
    if p.is_constant() or q.is_constant():
        return BivarPoly.constant(Fraction(1))
    if p.deg_y() == 0 and q.deg_y() == 0:
        return normalize(BivarPoly.from_unipoly_x(
            uni_gcd(p.as_unipoly_in_x(), q.as_unipoly_in_x())))
    if p.deg_x() == 0 and q.deg_x() == 0:
        return normalize(BivarPoly.from_unipoly_x(
            uni_gcd(p.as_unipoly_in_y(), q.as_unipoly_in_y())).swap_vars())
    if p.deg_y() == 0:
        return normalize(BivarPoly.from_unipoly_x(
            uni_gcd(p.as_unipoly_in_x(), _content_y(q))))
    if q.deg_y() == 0:
        return normalize(BivarPoly.from_unipoly_x(
            uni_gcd(q.as_unipoly_in_x(), _content_y(p))))
    cp, cq = _content_y(p), _content_y(q)
    Pp = BivarPoly.from_coeffs_in_y(_divide_coeffs(p.coeffs_in_y(), cp))
    Pq = BivarPoly.from_coeffs_in_y(_divide_coeffs(q.coeffs_in_y(), cq))
    gc = uni_gcd(cp, cq)
    gp = _gcd_primitive_y(Pp.coeffs_in_y(), Pq.coeffs_in_y())
    return normalize(gp * BivarPoly.from_unipoly_x(gc))


def divide_exact(p: BivarPoly, d: BivarPoly) -> BivarPoly:
    """Exact division p / d in Q[x, y]; d must divide p."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if d.is_constant():
        return p.scale(Fraction(1) / d.terms[(0, 0)])
    if p.is_zero():
        return p
    if d.deg_y() == 0:
        du = d.as_unipoly_in_x()
        return BivarPoly.from_coeffs_in_y(_divide_coeffs(p.coeffs_in_y(), du))
    F = p.coeffs_in_y()
    G = d.coeffs_in_y()
    dG = len(G) - 1
    lg = G[-1]
    quot: dict = {}
    while F:
        dF = len(F) - 1
        if dF < dG:
            raise RuntimeError("inexact bivariate division")
        qc, r = F[-1].divmod(lg)
        if not r.is_zero():
            raise RuntimeError("inexact bivariate division")
        for i, c in enumerate(qc.coeffs):
            if c:
                quot[(i, dF - dG)] = c
        F = F[:-1]
        for k in range(dG):
            F[dF - dG + k] = F[dF - dG + k] - qc * G[k]
        while F and F[-1].is_zero():
            F.pop()
    return BivarPoly(quot)


def squarefree_part(p: BivarPoly) -> BivarPoly:
    """Product of the distinct irreducible factors of p, normalized.

    Same real zero set as p, every factor simple.
    """
    if p.is_zero():
        raise ZeroInputError("zero polynomial has no square-free part")
    if p.is_constant():
        return BivarPoly.constant(Fraction(1))
    cont = _content_y(p)
    pp = BivarPoly.from_coeffs_in_y(_divide_coeffs(p.coeffs_in_y(), cont))
    out = BivarPoly.from_unipoly_x(uni_squarefree(cont)) if cont.degree >= 1 \
        else BivarPoly.constant(Fraction(1))
    if pp.deg_y() >= 1:
        g = gcd_bivar(pp, pp.diff("y"))
        out = out * divide_exact(pp, g)
    else:
        out = out * pp
    return normalize(out)
