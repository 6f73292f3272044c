"""Exception hierarchy used across the package.

Everything derives from GermInvError so callers can catch the whole family.
ResourceError groups the certified give-up conditions: the computation was
not wrong, it hit a configured bound (refinement bits, unsupported field
extension) and says so instead of guessing.
"""

from __future__ import annotations


class GermInvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GermInvError):
    """Polynomial text could not be parsed.

    Carries the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    """An identifier other than x or y appeared in the input."""


class NegativeExponentError(ParseError):
    """An exponent was negative; only nonnegative integer powers are allowed."""


class BothZeroError(GermInvError):
    """gcd of two zero polynomials is undefined."""


class ZeroInputError(GermInvError):
    """The zero polynomial has no square-free part."""


class UnitGermError(GermInvError):
    """The polynomial does not vanish at the origin, so it has no branches there."""


class NonVanishingGermError(GermInvError):
    """f(0,0) != 0: not a germ of a function vanishing at the origin."""


class ResourceError(GermInvError):
    """A certified resource bound was hit; the result is 'gave up', not 'wrong'."""


class PrecisionExceededError(ResourceError):
    """A sign could not be decided within the configured number of refinement bits."""


class IndeterminateSignError(PrecisionExceededError):
    """Restriction leading-sign undecidable within the refinement budget."""


class TruncationTooSmallError(ResourceError):
    """Series truncation order too small to separate or decide a branch.

    Nothing in the exact pipeline raises it: the order of f along a branch is
    bounded by the intersection degree, which comes from the input.
    """


class TowerDepthExceededError(ResourceError):
    """A branch coefficient would live in a second algebraic extension.

    Expansion supports coefficients in Q or in a single real extension Q(c).
    Degenerate curves whose expansion needs nested extensions raise this
    instead of silently approximating.
    """


class PathCountUnstableError(GermInvError):
    """The number of angular critical points changed across the radius ladder."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t
