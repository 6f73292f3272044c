"""Shared fixtures: reference germs with hand-checked expected data."""

import random
from fractions import Fraction

import pytest

from germinv import BivarPoly, parse_poly
from germinv.numberfield import FieldContext
from germinv.unipoly import isolate_real_roots

# Reference germs. Expected values worked out independently: the tangency
# curve of each was factored by hand, every half-branch parametrized, and
# the restriction sign/order read off the leading term (see test modules
# for the per-branch derivations they pin down).
#
#   text, invariant (lo, hi), half-branch count, K0 count,
#   K- alpha multiset, K+ alpha multiset
REFERENCE_GERMS = [
    ("x^3 + y^6", (-3, 3), 6, 0, [3], [3, 6, 6, 6, 6]),
    ("(x^2 - y^3)^2", (0, 4), 6, 2, [], [4, 4, 6, 6]),
    ("x^2 + y^4", (2, 4), 4, 0, [], [2, 2, 4, 4]),
    ("-x^2 - 2*y^6", (-6, -2), 4, 0, [2, 2, 6, 6], []),
]


# Rotated by ``rotate_germ``, its two K0 half-branches are truncated and in
# Q(c), and reading them needs f to high s-order.
ROTATED_REPEATED_FACTOR = "(x^2 - y^3)^2 * (x + 2*y^2 + y^3)"


@pytest.fixture(scope="session")
def reference_germs():
    return [(parse_poly(t), inv, n, k0, km, kp)
            for t, inv, n, k0, km, kp in REFERENCE_GERMS]


def rotate_germ(f: BivarPoly) -> BivarPoly:
    """Compose with the rational rotation (3/5, 4/5; -4/5, 3/5)."""
    px = (BivarPoly.var_x().scale(Fraction(3, 5))
          + BivarPoly.var_y().scale(Fraction(4, 5)))
    py = (BivarPoly.var_x().scale(Fraction(-4, 5))
          + BivarPoly.var_y().scale(Fraction(3, 5)))
    return f.compose(px, py)


def random_germ(rng: random.Random, max_deg: int = 6, max_terms: int = 6,
                max_coeff: int = 9) -> BivarPoly:
    """Sparse random polynomial vanishing at the origin (may be zero)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i, j = rng.randint(0, max_deg), rng.randint(0, max_deg)
        if i + j == 0 or i + j > max_deg:
            continue
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[(i, j)] = Fraction(c)
    return BivarPoly(terms)


def golden_row_germs() -> list[BivarPoly]:
    """The germs of golden/branch_rows.json: the reference germs, the first
    40 nonzero random_germ draws at seed 2026, each plain and rotated,
    (x+y)^n + y^(n+1) for n = 3..8, and two germs with truncated K0 branches
    in Q(c): the rotated repeated-factor germ and a nodal cubic squared."""
    germs = [parse_poly(text) for text, *_ in REFERENCE_GERMS]
    rng = random.Random(2026)
    draws = 0
    while draws < 40:
        f = random_germ(rng)
        if not f.is_zero():
            draws += 1
            germs += [f, rotate_germ(f)]
    germs += [parse_poly(f"(x+y)^{n} + y^{n + 1}") for n in range(3, 9)]
    return germs + [rotate_germ(parse_poly(ROTATED_REPEATED_FACTOR)),
                    parse_poly("(y^2 - 2*x^2 - x^3)^2 * (x - y^2)")]


# Germs whose tangency curves are x*y*C or x^2*y*C, C carrying one chain
# shape: an even-b edge at the top on each side of x (C = (y^2 - x^3) *
# (y^2 + 2*x^5)), even-b levels below an odd one on both sides
# (C = ((y - x)^2 - x^3) * ((y + x)^2 + x^3)), and an even-b level below an
# even one (C the curve of y = x^(3/2) + x^(7/4)), each C perturbed by x^9
# so that the branches are truncated; the first also exactly.
SERIES_GERMS = [
    "-1/6*y^6 - 2/35*x^7 - 1/5*x^5*y^2 + 4/63*x^9 + 2/7*x^7*y^2 + x^8*y^2"
    " + 2*x^6*y^4 + 2*x^4*y^6 + x^2*y^8 + 1/5*y^10",
    "-1/6*y^6 - 2/35*x^7 - 1/5*x^5*y^2 + 4/63*x^9 + 2/7*x^7*y^2 + x^8*y^2"
    " + 2*x^6*y^4 + 2*x^4*y^6 + x^2*y^8 + 1/5*y^10 + 1/11*x^11",
    "-1/2*x^4*y^2 - 1/6*y^6 + 4/3*x^4*y^3 + 16/15*x^2*y^5 + 32/105*y^7"
    " + 1/2*x^6*y^2 + 3/4*x^4*y^4 + 1/2*x^2*y^6 + 1/8*y^8 + 1/11*x^11",
    "-8/105*x^7 - 4/15*x^5*y^2 - 1/3*x^3*y^4 - 1/2*x^4*y^4 - 1/3*x^2*y^6"
    " - 1/12*y^8 - 1/9*x^9 - 4/3*x^6*y^3 - 8/5*x^4*y^5 - 32/35*x^2*y^7"
    " - 64/315*y^9 - 1/2*x^8*y^2 - x^6*y^4 - x^4*y^6 - 1/2*x^2*y^8"
    " - 1/10*y^10 - 1/2*x^10*y^2 - 5/4*x^8*y^4 - 5/3*x^6*y^6 - 5/4*x^4*y^8"
    " - 1/2*x^2*y^10 - 1/12*y^12",
]


def series_germs() -> list[BivarPoly]:
    """The germs of golden/branch_series.json: golden_row_germs(), then each
    of SERIES_GERMS plain and with x and y swapped (x-dominant chains), and
    the radial (x^2 + y^2)^2."""
    germs = golden_row_germs()
    for text in SERIES_GERMS:
        f = parse_poly(text)
        germs += [f, f.swap_vars()]
    return germs + [parse_poly("(x^2 + y^2)^2")]


def root_field(modulus, k: int) -> FieldContext:
    """Q(c) for c the k-th real root, ascending, of the modulus (rationals,
    lowest degree first), as the library opens every field: isolation, then
    ``FieldContext.of_root``."""
    return FieldContext.of_root(isolate_real_roots(modulus)[k])


def field_element(ctx, coeffs):
    """sum(coeffs[i] g^i) for rationals coeffs and g the generator of the
    field ctx, by the field's ring arithmetic (Horner)."""
    g, x = ctx.generator(), ctx.from_rational(0)
    for q in reversed(coeffs):
        x = x * g + q
    return x
