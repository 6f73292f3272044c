"""Contact-invariant analysis of plane polynomial germs.

The exact pipeline: parse a polynomial f(x, y) vanishing at the origin,
form its tangency curve, expand the curve's real half-branches as Puiseux
parametrizations with exact rational (or single-extension algebraic)
coefficients, read off the sign and vanishing order of f along each branch,
and collapse them to the invariant pair Inv(f). Equal pairs (up to global
sign flip) are a necessary condition for bi-Lipschitz contact equivalence.

The numeric side (oracle module) re-derives the same quantities from float
samples of f on small circles and cross-checks signs, exponents, and branch
counts against the exact answer. It is the only part that needs numpy, and
is imported on first use of one of its names.
"""

from .bivar import BivarPoly, gcd_bivar, squarefree_part
from .errors import (BothZeroError, GermInvError, IndeterminateSignError,
                     NegativeExponentError, NonVanishingGermError, ParseError,
                     PathCountUnstableError, PrecisionExceededError,
                     ResourceError, TowerDepthExceededError,
                     TruncationTooSmallError, UnitGermError,
                     UnknownVariableError, ZeroInputError)
from .invariant import (Classification, GermAnalysis, GermInvariant,
                        analyze_germ, equivalent_possible, invariant)
from .parsing import parse_poly
from .puiseux import (HalfBranch, NewtonPolygonEdge, PuiseuxSeries,
                      expand_branches, newton_polygon, substitute)
from .tangency import (ExpansionConfig, Restriction, TangencyCurve,
                       restrict, tangency_poly)

__version__ = "0.1.0"

# the oracle needs numpy; it is imported on first use of one of its names
_ORACLE_NAMES = ("CriticalPath", "CrosscheckReport", "FitResult",
                 "SphereExtrema", "critical_paths", "crosscheck",
                 "estimate_exponent", "sphere_extrema")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BivarPoly", "gcd_bivar", "squarefree_part",
    "parse_poly",
    "NewtonPolygonEdge", "newton_polygon", "PuiseuxSeries", "HalfBranch",
    "expand_branches", "substitute",
    "ExpansionConfig", "TangencyCurve", "tangency_poly",
    "Restriction", "restrict",
    "Classification", "GermInvariant", "GermAnalysis", "invariant",
    "equivalent_possible", "analyze_germ",
    "SphereExtrema", "sphere_extrema", "FitResult", "estimate_exponent",
    "CriticalPath", "critical_paths", "CrosscheckReport", "crosscheck",
    "GermInvError", "ParseError", "UnknownVariableError",
    "NegativeExponentError", "BothZeroError", "ZeroInputError",
    "UnitGermError", "NonVanishingGermError", "ResourceError",
    "PrecisionExceededError", "IndeterminateSignError",
    "TruncationTooSmallError", "TowerDepthExceededError", "PathCountUnstableError",
    "__version__",
]
