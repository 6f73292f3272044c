"""The contact invariant: a canonical pair of orders read off the tangency
branches.

Along every half-branch of the tangency curve the germ has an exact order
alpha (against the distance to the origin) and a sign; collecting these into
the sets K- / K0 / K+ gives the (sign, order) of the extrema of f on small
circles of radius t, psi(t) = min f ~ sign * t^alpha and psibar(t) = max f:

    psi:    K- nonempty -> (-1, min K-)
            else K0 nonempty or K+ empty -> (0, -), identically 0
            else -> (+1, max K+)
    psibar: the same with the roles of K- and K+ exchanged

The invariant pair is the two signed orders sign * alpha (0 for sign 0) in
ascending order. Germs taking both signs near the origin are governed by
their slowest escape from zero on each side; one-signed germs by their
extreme orders. The pair is unchanged under contact equivalences that
preserve orientation of values and flips under negation, so two germs can
only be equivalent up to bi-Lipschitz contact if their pairs agree outright
or agree after negation.
"""

from __future__ import annotations

from fractions import Fraction

from .bivar import BivarPoly
from .tangency import (ExpansionConfig, Restriction, TangencyCurve, restrict)


def _extremum(sign: int, own: list, other: list, k0: bool) -> tuple:
    """(sign, alpha) of the circle extremum on the side of ``sign``, from the
    sorted orders of the branches of that sign (``own``) and of the other
    (``other``): the slowest of its own, else identically 0, else the
    fastest of the other sign's."""
    if own:
        return sign, own[0]
    if k0 or not other:
        return 0, None
    return -sign, other[-1]


class Classification:
    """Sign classes of all tangency half-branches of one germ, and the
    (sign, alpha) of the circle extrema ``psi`` (min) and ``psibar`` (max)
    that they determine; alpha is None for sign 0."""

    __slots__ = ("restrictions", "K0_count", "Kminus_alphas", "Kplus_alphas",
                 "psi", "psibar")

    def __init__(self, restrictions: list[Restriction]):
        self.restrictions = list(restrictions)
        self.K0_count = sum(1 for r in self.restrictions if r.sign == 0)
        self.Kminus_alphas = sorted(r.alpha for r in self.restrictions
                                    if r.sign < 0)
        self.Kplus_alphas = sorted(r.alpha for r in self.restrictions
                                   if r.sign > 0)
        k0 = self.K0_count > 0
        self.psi = _extremum(-1, self.Kminus_alphas, self.Kplus_alphas, k0)
        self.psibar = _extremum(1, self.Kplus_alphas, self.Kminus_alphas, k0)

    def __repr__(self):
        return (f"Classification(K0 x{self.K0_count}, "
                f"K-={[str(a) for a in self.Kminus_alphas]}, "
                f"K+={[str(a) for a in self.Kplus_alphas]})")


class GermInvariant:
    """The canonical pair (lo, hi), lo <= hi, of exact rational orders."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            lo, hi = hi, lo
        self.lo = lo
        self.hi = hi

    def negate(self) -> "GermInvariant":
        """The invariant of -f given the invariant of f."""
        return GermInvariant(-self.hi, -self.lo)

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.lo, self.hi)

    def __eq__(self, other):
        if not isinstance(other, GermInvariant):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"GermInvariant(({self.lo}, {self.hi}))"


def invariant(classification: Classification) -> GermInvariant:
    """The canonical order pair of a classified germ: the signed orders of
    its circle extrema psi and psibar, sorted."""
    return GermInvariant(*(sign * alpha if sign else 0 for sign, alpha in
                           (classification.psi, classification.psibar)))


def equivalent_possible(vf: GermInvariant, vg: GermInvariant) -> str:
    """"possible" when the pairs agree outright or after negation (the
    necessary condition for bi-Lipschitz contact equivalence), else
    "excluded"."""
    return "possible" if vf == vg or vf == vg.negate() else "excluded"


class GermAnalysis:
    """Everything computed for one germ: curve, branches, classes, pair."""

    __slots__ = ("f", "curve", "restrictions", "classification", "invariant")

    def __init__(self, f, curve, restrictions, classification, inv):
        self.f = f
        self.curve = curve
        self.restrictions = restrictions
        self.classification = classification
        self.invariant = inv

    def __repr__(self):
        return f"GermAnalysis(inv=({self.invariant.lo}, {self.invariant.hi}))"


def analyze_germ(f: BivarPoly,
                 config: ExpansionConfig | None = None) -> GermAnalysis:
    """Full pipeline: tangency curve, half-branches, signs, invariant; f is
    restricted to one half-branch of each pair of twins."""
    config = config or ExpansionConfig()
    curve = TangencyCurve(f)
    read: dict = {}
    for b in curve.half_branches(config.order):
        read[b] = (read[b.twin].on_twin() if b.twin in read
                   else restrict(f, b, config, curve))
    restrictions = list(read.values())
    cls = Classification(restrictions)
    return GermAnalysis(f, curve, restrictions, cls, invariant(cls))
