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

The leading term is read without long series: f is pushed through the same
Newton-Puiseux substitutions that produced the branch, and then along the
branch's simple root, until a constant term appears. This is the Newton
polygon computation of an intersection multiplicity.

Everything here is certified: leading coefficients are exact rationals or
certified-sign extension elements, and "vanishes identically" is decided
either from an exact finite parametrization or from the intersection-degree
bound (a nonzero restriction of a degree-d polynomial against a component of
a degree-m curve has s-order at most d*m).
"""

from __future__ import annotations

from fractions import Fraction

from .bivar import BivarPoly, gcd_bivar, squarefree_part
from .errors import (IndeterminateSignError, NonVanishingGermError,
                     PrecisionExceededError)
from .puiseux import (HalfBranch, expand_branches, leading_term,
                      radial_branch, substitute)
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
        self.order = order
        self.max_bits = max_bits

    def __repr__(self):
        return f"ExpansionConfig(order={self.order}, max_bits={self.max_bits})"


def tangency_poly(f: BivarPoly) -> BivarPoly:
    """h = y*f_x - x*f_y. Raises NonVanishingGermError unless f(0,0) = 0."""
    if (0, 0) in f.terms:
        raise NonVanishingGermError("germ must vanish at the origin")
    return (BivarPoly.var_y() * f.diff("x")) - (BivarPoly.var_x() * f.diff("y"))


class TangencyCurve:
    """The tangency curve of a germ, reduced and ready for branch expansion.

    ``degenerate`` marks h = 0 identically (f is a polynomial in x^2 + y^2,
    so every ray is a tangency direction and a single synthetic radial pair
    represents them all).
    """

    __slots__ = ("f", "h", "h_sf", "degenerate")

    def __init__(self, f: BivarPoly):
        self.f = f
        self.h = tangency_poly(f)
        self.degenerate = self.h.is_zero()
        self.h_sf = None if self.degenerate else squarefree_part(self.h)

    def half_branches(self, order: int = 12) -> list[HalfBranch]:
        if self.degenerate:
            return [radial_branch(1), radial_branch(-1)]
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

    @property
    def kind(self) -> str:
        return {0: "K0", 1: "K+", -1: "K-"}[self.sign]

    def __repr__(self):
        if self.sign == 0:
            return "Restriction(K0)"
        return f"Restriction({self.kind}, alpha={self.alpha})"


def _lead_sign(c, max_bits: int) -> int:
    if isinstance(c, (Fraction, int)):
        return coeff_sign(c)
    try:
        return c.sign(max_bits=max_bits)
    except PrecisionExceededError as exc:
        raise IndeterminateSignError(
            f"sign of a leading coefficient undecided in {max_bits} bits") from exc


def restrict(f: BivarPoly, branch: HalfBranch,
             config: ExpansionConfig | None = None,
             curve: TangencyCurve | None = None) -> Restriction:
    """Classify f along one half-branch of its tangency curve.

    An exact parametrization is substituted into f. Otherwise f is carried
    through the branch's Newton-Puiseux chain (``leading_term``) until its
    leading term shows. A nonzero restriction has s-order at most
    deg f * deg h_sf (the branch contributes at most the full intersection
    number of the two curves), so no term up to that order certifies the
    zero class.
    """
    config = config or ExpansionConfig()
    if branch.exact:
        lead = substitute(f, branch).lead()
    elif f.is_zero():
        lead = None
    else:
        if curve is None:
            curve = TangencyCurve(f)
        nstar = f.total_degree() * curve.h_sf.total_degree()
        lead = leading_term(f, branch, nstar)
    if lead is None:
        return Restriction(0, None, branch)
    k, c = lead
    return Restriction(_lead_sign(c, config.max_bits), Fraction(k, branch.e),
                       branch)


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
    return leading_term(g, branch, bound) is None
