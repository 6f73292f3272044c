"""The tangency curve of a germ and the sign of the germ along its branches.

For f vanishing at the origin, the tangency curve is

    h = y * df/dx - x * df/dy,

the locus where level sets of f are tangent to circles around the origin: on
the circle of radius t, h(t cos a, t sin a) = -d/da f(t cos a, t sin a), so
the curve h = 0 collects the angular critical points of f on every small
circle. Each real half-branch of h = 0 carries a restriction

    f(x(s), y(s)) = c * s^q + higher order,

and the pair (sign c, alpha = q/e), with e the parameter exponent of the
branch (the order of its distance to the origin), is what the invariant is
built from; branches along which f vanishes identically are the sign-0
class.

The leading term is read the same way on every branch, without long
series: f is pushed through the same Newton-Puiseux substitutions that
produced the branch (none for an axis or a radial line), and then either
read off at z = 0, on a branch with a finite parametrization, or carried
along the branch's simple root one Newton step at a time, until a constant
term appears: the Newton polygon computation of an intersection
multiplicity. ``restrict`` reads any half-branch so, through its own chain,
but a pair of twins needs one read: along their analytic branch
f = c w^k + ..., w = s on one half and -s on the other, so both have
alpha = k/e and the second the sign of c (-1)^k (``Restriction.on_twin``).

Everything here is certified: leading coefficients are exact rationals or
certified-sign extension elements, and "vanishes identically" is read from
a nonzero term too. With g = gcd(f, h_sf) and the cofactor r = h_sf / g,
which the gcd computation returns with g, g and r are coprime because h_sf
is square-free, so every half-branch lies on exactly one of them: f
vanishes on the branches of g, and r, which is coprime to f, does not; r
vanishes on its own branches, and f does not. Carrying f and r through the
chain, whichever of them shows a term names the class. The
intersection-degree bound (a nonzero restriction of a degree-d polynomial
against a component of a degree-m curve has s-order at most d*m) only
guards the walk: passing it is an error, never a verdict.
"""

from __future__ import annotations

from fractions import Fraction

from .bivar import BivarPoly, gcd_bivar, gcd_cofactors, squarefree_part
from .errors import (IndeterminateSignError, NonVanishingGermError,
                     PrecisionExceededError, ZeroInputError)
from .puiseux import (HalfBranch, expand_branches, leading_term,
                      radial_branches, substitute)
from .unipoly import coeff_sign


class ExpansionConfig:
    """Resource knobs for branch expansion and sign certification.

    order: series trust bound of the expanded branches (s-exponents below it
    are exact). It sets what ``branches`` prints, not which answer is found:
    the order of f along a branch is bounded by the intersection degree,
    which comes from the input.
    max_bits: bisection budget for signs of algebraic leading coefficients.
    """

    __slots__ = ("order", "max_bits")

    def __init__(self, order: int = 12, max_bits: int = 256):
        if order < 1:
            raise ValueError("need order >= 1")
        if max_bits < 0:
            raise ValueError("need max_bits >= 0")
        self.order = order
        self.max_bits = max_bits

    def __repr__(self):
        return f"ExpansionConfig(order={self.order}, max_bits={self.max_bits})"


def tangency_poly(f: BivarPoly) -> BivarPoly:
    """h = y*f_x - x*f_y, on f's integer form (``BivarPoly`` arithmetic).
    Raises NonVanishingGermError unless f(0,0) = 0."""
    if (0, 0) in f.support:
        raise NonVanishingGermError("germ must vanish at the origin")
    return (BivarPoly.var_y() * f.diff("x")) - (BivarPoly.var_x() * f.diff("y"))


class TangencyCurve:
    """The tangency curve of a germ, reduced and ready for branch expansion.

    ``degenerate`` marks h = 0 identically (f is a polynomial in x^2 + y^2,
    so every ray is a tangency direction and a single synthetic radial pair
    represents them all). Otherwise ``h_sf`` is the square-free part of h,
    and ``cofactor`` is r = h_sf / gcd(f, h_sf) when that gcd vanishes at
    the origin, the witness of the zero class, or None when no branch at
    the origin lies on the gcd, so that f vanishes on none. Both are read
    off ``bivar.gcd_cofactors``, with no division. Raises ZeroInputError
    for the zero germ, which has no invariant.
    """

    __slots__ = ("f", "h", "h_sf", "degenerate", "cofactor")

    def __init__(self, f: BivarPoly):
        if f.is_zero():
            raise ZeroInputError("the zero germ has no tangency curve")
        self.f = f
        self.h = tangency_poly(f)
        self.degenerate = self.h.is_zero()
        self.h_sf = self.cofactor = None
        if not self.degenerate:
            self.h_sf = squarefree_part(self.h)
            g, _, r = gcd_cofactors(f, self.h_sf)
            if (0, 0) not in g.support:
                self.cofactor = r

    def half_branches(self, order: int) -> list[HalfBranch]:
        if self.degenerate:
            return radial_branches()
        return expand_branches(self.h_sf, order)


class Restriction:
    """Sign data of f along one half-branch.

    sign: -1, 0, or +1 (0 means f vanishes identically on the branch).
    alpha: exact order q/e of |f| against the distance to the origin, or
    None when sign is 0. ``branch`` is the half-branch it was read on.
    """

    __slots__ = ("sign", "alpha", "branch")

    def __init__(self, sign: int, alpha: Fraction | None, branch: HalfBranch):
        self.sign = sign
        self.alpha = alpha
        self.branch = branch

    def on_twin(self) -> "Restriction":
        """The restriction on the branch's twin: the same alpha, and the
        sign times (-1)^k, k = alpha * e (see the module docstring)."""
        k = int((self.alpha or 0) * self.branch.e)
        return Restriction(self.sign * (-1) ** k, self.alpha, self.branch.twin)

    @property
    def kind(self) -> str:
        return {0: "K0", 1: "K+", -1: "K-"}[self.sign]

    def __repr__(self):
        if self.sign == 0:
            return "Restriction(K0)"
        return f"Restriction({self.kind}, alpha={self.alpha})"


def restrict(f: BivarPoly, branch: HalfBranch, config: ExpansionConfig,
             curve: TangencyCurve) -> Restriction:
    """Classify f along one half-branch of its tangency curve.

    f is carried through the branch's Newton-Puiseux chain (``leading_term``)
    until its leading term shows, on exact and truncated branches alike,
    and so is the curve's cofactor r when it has one. Exactly one of f and r
    vanishes on the branch: when r's term shows, the branch lies on
    gcd(f, h_sf), and f vanishes on it (sign 0). A nonzero restriction of
    either has s-order at most deg f * deg h_sf (the branch contributes at
    most the full intersection number of the two curves, and deg r <= deg
    h_sf, deg g <= deg f), or at most deg f along a radial line; running out
    of that bound raises RuntimeError. ``curve`` is the tangency curve of f
    that the branch lies on.
    """
    if f.is_zero():
        return Restriction(0, None, branch)
    bound = f.total_degree()
    if branch.chart != "radial":
        bound *= curve.h_sf.total_degree()
    polys = (f,) if curve.cofactor is None else (f, curve.cofactor)
    lead = leading_term(polys, branch, bound)
    if lead is None:
        raise RuntimeError("neither f nor the curve's cofactor has a term "
                           f"up to s-order {bound} along the branch")
    i, k, c = lead
    if i == 1:
        return Restriction(0, None, branch)
    try:
        sign = coeff_sign(c, config.max_bits)
    except PrecisionExceededError as exc:
        raise IndeterminateSignError(
            f"sign of a leading coefficient undecided in {config.max_bits} "
            "bits") from exc
    return Restriction(sign, Fraction(k, branch.e), branch)


def certify_zero_branch(f: BivarPoly, branch: HalfBranch,
                        curve: TangencyCurve | None = None) -> bool:
    """Does f vanish identically along the half-branch?

    Exact parametrizations are decided by exact substitution. Otherwise the
    branch lies on the reduced tangency curve of f, and f vanishes on it iff
    the branch lies in a common component of the two curves: with
    g = gcd(f, h_sf), iff g has no term along the branch up to the
    intersection bound deg g * deg h_sf.
    """
    if branch.exact or f.is_zero():
        return not substitute(f, branch).terms
    curve = curve or TangencyCurve(f)
    g = gcd_bivar(f, curve.h_sf)
    bound = g.total_degree() * curve.h_sf.total_degree()
    return leading_term((g,), branch, bound) is None
