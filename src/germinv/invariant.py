"""The contact invariant: a canonical pair of orders read off the tangency
branches.

Along every half-branch of the tangency curve the germ has an exact order
alpha (against the distance to the origin) and a sign; collecting these into
the sets K- / K0 / K+ determines the invariant pair:

    K0 and K+ only            (0, min K+)
    K0 and K- only            (-min K-, 0)
    K- and K+ both            (-min K-, min K+)
    K+ alone                  (min K+, max K+)
    K- alone                  (-min K-, -max K-)
    neither K- nor K+         (0, 0)

stored in ascending order. Germs taking both signs near the origin are
governed by their slowest escape from zero on each side; one-signed germs by
their extreme orders. The pair is unchanged under contact equivalences that
preserve orientation of values and flips under negation, so two germs can
only be equivalent up to bi-Lipschitz contact if their pairs agree outright
or agree after negation.
"""

from __future__ import annotations

from fractions import Fraction

from .bivar import BivarPoly
from .tangency import (ExpansionConfig, Restriction, TangencyCurve, restrict)


class Classification:
    """Sign classes of all tangency half-branches of one germ."""

    __slots__ = ("restrictions", "K0_count", "Kminus_alphas", "Kplus_alphas")

    def __init__(self, restrictions: list[Restriction]):
        self.restrictions = list(restrictions)
        self.K0_count = sum(1 for r in self.restrictions if r.sign == 0)
        self.Kminus_alphas = sorted(r.alpha for r in self.restrictions
                                    if r.sign < 0)
        self.Kplus_alphas = sorted(r.alpha for r in self.restrictions
                                   if r.sign > 0)

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
    """The canonical order pair of a classified germ."""
    km = classification.Kminus_alphas
    kp = classification.Kplus_alphas
    k0 = classification.K0_count > 0
    if km and kp:
        return GermInvariant(-km[0], kp[0])
    if k0 and kp:
        return GermInvariant(0, kp[0])
    if k0 and km:
        return GermInvariant(-km[0], 0)
    if kp:
        return GermInvariant(kp[0], kp[-1])
    if km:
        return GermInvariant(-km[0], -km[-1])
    return GermInvariant(0, 0)


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
    """Full pipeline: tangency curve, half-branches, signs, invariant."""
    config = config or ExpansionConfig()
    curve = TangencyCurve(f)
    branches = curve.half_branches(config.order)
    restrictions = [restrict(f, b, config, curve) for b in branches]
    cls = Classification(restrictions)
    return GermAnalysis(f, curve, restrictions, cls, invariant(cls))
