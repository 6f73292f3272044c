"""Sparse bivariate ring, gcd, and square-free part against sympy."""

import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germinv import analyze_germ, bivar, parse_poly
from germinv.bivar import (BivarPoly, gcd_bivar, gcd_cofactors, normalize,
                           squarefree_part)
from germinv.errors import BothZeroError, ZeroInputError
from germinv.tangency import TangencyCurve

from conftest import ROTATED_REPEATED_FACTOR, rotate_germ

_x, _y = sympy.symbols("x y")


def to_sympy(p: BivarPoly):
    e = sympy.Integer(0)
    for (i, j), c in p.terms.items():
        e += sympy.Rational(c) * _x**i * _y**j
    return e


def rand_poly(rng, deg=4, terms=6, coeff=7):
    out = {}
    for _ in range(rng.randint(1, terms)):
        i, j = rng.randint(0, deg), rng.randint(0, deg)
        c = rng.randint(-coeff, coeff)
        if c:
            out[(i, j)] = Fraction(c)
    return BivarPoly(out)


def assert_same_up_to_constant(p: BivarPoly, ref_expr):
    """Equal as polynomials after both are scaled primitive with positive
    leading coefficient."""
    mine = to_sympy(normalize(p))
    ref = sympy.Poly(ref_expr, _x, _y, domain="QQ")
    if ref.is_zero:
        assert p.is_zero()
        return
    prim = ref.monic()
    # rescale to integer-primitive with positive lead, like normalize()
    dens = [sympy.Rational(c).q for c in prim.coeffs()]
    nums = [sympy.Rational(c).p for c in prim.coeffs()]
    scale = sympy.lcm(dens) / sympy.gcd(nums)
    refp = (prim * scale).as_expr()
    assert sympy.expand(mine - refp) == 0 or sympy.expand(mine + refp) == 0


def test_ring_ops_match_sympy():
    rng = random.Random(11)
    for _ in range(25):
        a, b = rand_poly(rng), rand_poly(rng)
        assert sympy.expand(to_sympy(a + b) - (to_sympy(a) + to_sympy(b))) == 0
        assert sympy.expand(to_sympy(a * b) - to_sympy(a) * to_sympy(b)) == 0
        assert sympy.expand(to_sympy(a - b) - (to_sympy(a) - to_sympy(b))) == 0


def test_pow_and_diff_match_sympy():
    rng = random.Random(12)
    for _ in range(15):
        a = rand_poly(rng, deg=3, terms=4)
        assert sympy.expand(to_sympy(a**3) - to_sympy(a)**3) == 0
        assert sympy.expand(to_sympy(a.diff("x"))
                            - sympy.diff(to_sympy(a), _x)) == 0
        assert sympy.expand(to_sympy(a.diff("y"))
                            - sympy.diff(to_sympy(a), _y)) == 0


def test_compose_matches_sympy():
    rng = random.Random(13)
    for _ in range(10):
        a = rand_poly(rng, deg=3, terms=4)
        px, py = rand_poly(rng, deg=2, terms=3), rand_poly(rng, deg=2, terms=3)
        mine = to_sympy(a.compose(px, py))
        ref = to_sympy(a).subs({_x: to_sympy(px), _y: to_sympy(py)},
                               simultaneous=True)
        assert sympy.expand(mine - ref) == 0


def test_gcd_matches_sympy():
    rng = random.Random(14)
    checked = 0
    while checked < 25:
        g = rand_poly(rng, deg=2, terms=3)
        a = rand_poly(rng, deg=2, terms=3) * g
        b = rand_poly(rng, deg=2, terms=3) * g
        if a.is_zero() and b.is_zero():
            continue
        mine = gcd_bivar(a, b)
        ref = sympy.gcd(to_sympy(a), to_sympy(b), _x, _y)
        assert_same_up_to_constant(mine, ref)
        checked += 1


def test_gcd_special_cases():
    x, y = BivarPoly.var_x(), BivarPoly.var_y()
    with pytest.raises(BothZeroError):
        gcd_bivar(BivarPoly.zero(), BivarPoly.zero())
    assert gcd_bivar(x, BivarPoly.zero()) == normalize(x)
    assert gcd_bivar(BivarPoly.constant(Fraction(3)), x * y) == \
        BivarPoly.constant(Fraction(1))
    assert gcd_bivar(x**2 * y, x * y**3) == x * y
    # shapes that once had their own code take the general path
    one = BivarPoly.constant(Fraction(1))
    two = one + one
    for a, b in (((x - one)**2 * (x + two), (x - one) * (x + x + x + one)),
                 ((y + two)**2 * y, (y + two) * (y - two - two)),
                 ((x + one) * (x - two), (x + one) * (x * y + y**2)),
                 (BivarPoly.constant(Fraction(-2, 3)), x**2 * y + one),
                 (y * (x.scale(Fraction(511)) - y.scale(Fraction(399))),
                  y.scale(Fraction(630)) * y)):
        # both in x only, both in y only, one in x only, one constant, and
        # a pair whose first evaluation point gives y^2, which does not
        # divide the first input
        for p, q in ((a, b), (b, a)):
            assert_same_up_to_constant(
                gcd_bivar(p, q), sympy.gcd(to_sympy(p), to_sympy(q), _x, _y))


def rand_shaped(rng, shape, coeff, den):
    """Up to three terms in x and y, in x alone, in y alone or constant,
    with numerators up to ``coeff`` and denominators up to ``den``."""
    dx, dy = {"xy": (3, 3), "x": (4, 0), "y": (0, 4), "1": (0, 0)}[shape]
    out = {}
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-coeff, coeff), rng.randint(1, den))
        if c:
            out[(rng.randint(0, dx), rng.randint(0, dy))] = c
    return BivarPoly(out)


def heu_cases(seed):
    """Seeded pairs a g, b g with a known common factor g, and pairs drawn
    independently, which are mostly coprime: small, large integer and
    rational coefficients, in every shape."""
    rng = random.Random(seed)
    cases = []
    for coeff, den in ((7, 1), (10**25, 1), (9, 10**6), (10**12, 10**12)):
        for shape in ("xy", "x", "y", "1"):
            for _ in range(3):
                g = rand_shaped(rng, rng.choice((shape, "xy")), coeff, den)
                a = rand_shaped(rng, shape, coeff, den)
                b = rand_shaped(rng, rng.choice((shape, "xy")), coeff, den)
                cases.append((a * g, b * g))
                cases.append((a, b + g))
    return [(a, b) for a, b in cases if a and b]


def test_gcd_heuristic_matches_sympy():
    # GCDHEU certifies a candidate on every pair, so the fallback is unused
    cases = heu_cases(21)
    assert len(cases) >= 80
    for a, b in cases:
        A, B = bivar._integer_primitive(a)[0], bivar._integer_primitive(b)[0]
        assert bivar._gcd_heu(A, B) is not None, (a, b)
        assert_same_up_to_constant(gcd_bivar(a, b),
                                   sympy.gcd(to_sympy(a), to_sympy(b), _x, _y))


def test_gcd_prs_fallback_matches_sympy(monkeypatch):
    # the subresultant PRS that gcd_bivar falls back on, called directly on
    # the primitive integer forms, and through gcd_bivar once GCDHEU may try
    # no evaluation point
    cases = heu_cases(22)[::3]
    forms = [(bivar._integer_primitive(a)[0], bivar._integer_primitive(b)[0])
             for a, b in cases]
    for (a, b), (A, B) in zip(cases, forms):
        ref = sympy.gcd(to_sympy(a), to_sympy(b), _x, _y)
        H = bivar._gcd_prs(A, B)
        assert_same_up_to_constant(bivar._from_integers(H), ref)
    heu = [gcd_cofactors(a, b) for a, b in cases]
    monkeypatch.setattr(bivar, "_HEU_TRIES", 0)
    for (a, b), (A, B), want in zip(cases, forms, heu):
        assert bivar._gcd_heu(A, B) is None
        assert gcd_bivar(a, b) == bivar._signed(bivar._gcd_prs(A, B))[0]
        # both paths give the same cofactors
        assert gcd_cofactors(a, b) == want


def test_prs_fallback_takes_contents_in_y_over_z_x(monkeypatch):
    # contents in y that are polynomials in x with integer content, shared
    # or not, and an input free of y: the fallback returns GCDHEU's triple
    texts = [("(2*x+2)*(y-x)", "(4*x+4)*(y+x)^2"),
             ("(6*x^2-6)*(y-x)*(x*y+1)", "(4*x+4)^2*(y-x)^2"),
             ("1/3*(2*x+2)*(y^2-x)", "(9*x^2+9*x)*(y^2-x)*(y+1)"),
             ("(2*x+2)*(y-x)", "3*x^2 - 3"), ("(4*x-2)*y^3", "(6*x-3)*y")]
    cases = [(parse_poly(a), parse_poly(b)) for a, b in texts]
    heu = [gcd_cofactors(a, b) for a, b in cases]
    monkeypatch.setattr(bivar, "_HEU_TRIES", 0)
    for (a, b), want in zip(cases, heu):
        assert_same_up_to_constant(want[0], sympy.gcd(to_sympy(a),
                                                      to_sympy(b), _x, _y))
        assert gcd_cofactors(a, b) == want, (a, b)


def test_squarefree_matches_sympy():
    rng = random.Random(15)
    checked = 0
    while checked < 25:
        a = rand_poly(rng, deg=2, terms=3)
        b = rand_poly(rng, deg=2, terms=3)
        p = a * a * b
        if p.is_zero() or p.is_constant():
            continue
        mine = squarefree_part(p)
        prod = sympy.Integer(1)
        for fac, _ in sympy.Poly(to_sympy(p), _x, _y, domain="QQ").sqf_list()[1]:
            prod = prod * fac.as_expr()
        assert_same_up_to_constant(mine, prod)
        checked += 1


def test_sheared_germ_degree_30():
    # (x+y)^30 + y^31 is a shear of x^30 + y^31 and keeps its Inv: y^31
    # changes sign along the y-axis, K- = {31}, and x^30 gives K+ = {30}.
    # The subresultant PRS took seconds on its tangency curve of degree 31.
    f = parse_poly("(x+y)^30 + y^31")
    curve = TangencyCurve(f)
    assert_same_up_to_constant(
        curve.h_sf, sympy.sqf_part(to_sympy(curve.h), _x, _y))
    inv = analyze_germ(f).invariant
    assert (inv.lo, inv.hi) == (-31, 30)


def test_squarefree_zero_input():
    with pytest.raises(ZeroInputError):
        squarefree_part(BivarPoly.zero())


def test_squarefree_of_repeated_factors_matches_sympy():
    # repeated factors in x alone, in y alone and in both, with rational
    # content: gcd(p, p_y) keeps the whole power of a factor free of y, and
    # the gcd with p_x cuts it back
    for text in ("(x-2)^2*(x*y^3-y+2)", "x^3*y^2*(x-y)^2",
                 "1/7*y^2*(3*x+1)^3", "-2/3*(x-2)^3*(y+1)^2*(x+y^2)^2",
                 "(x^2-3)^2*y", "5*(x+y)^4"):
        p = parse_poly(text)
        assert_same_up_to_constant(squarefree_part(p),
                                   sympy.sqf_part(to_sympy(p), _x, _y))
        assert squarefree_part(p) == normalize(squarefree_part(p))


def test_gcd_cofactors_roundtrip():
    # the cofactors of a * b and its factor b are a and a constant
    rng = random.Random(16)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng, deg=2, terms=3)
        if b.is_zero():
            continue
        g, u, v = gcd_cofactors(a * b, b)
        assert v.is_constant() and u.scale(1 / v.terms[(0, 0)]) == a
    # an x-only gcd and a constant gcd take the same path
    x, y = BivarPoly.var_x(), BivarPoly.var_y()
    two = BivarPoly.constant(Fraction(2))
    p = (x - two)**2 * (x * y**3 - y + two)
    assert gcd_cofactors(p, (x - two)**2) == (
        (x - two)**2, x * y**3 - y + two, BivarPoly.constant(Fraction(1)))
    d = BivarPoly.constant(Fraction(-3, 4))
    assert gcd_cofactors(p, d) == (BivarPoly.constant(Fraction(1)), p, d)
    # a zero numerator has the cofactor 0
    assert gcd_cofactors(BivarPoly.zero(), x - two) == (
        x - two, BivarPoly.zero(), BivarPoly.constant(Fraction(1)))
    # rational contents come back in the cofactors, whose ratio is the
    # quotient of the inputs
    q = x.scale(Fraction(3, 7)) - y.scale(Fraction(5, 2))
    g, u, v = gcd_cofactors(p.scale(Fraction(1, 6)) * q,
                            q.scale(Fraction(-2, 9)))
    assert g == normalize(q) and v.is_constant()
    assert u.scale(1 / v.terms[(0, 0)]) == p.scale(Fraction(-3, 4))


def test_tangency_curve_divides_only_to_certify(monkeypatch):
    # the square-free part and the cofactor are read off the quotients that
    # certify GCDHEU's gcds: no division outside _gcd_heu, no content in y
    f = rotate_germ(parse_poly(ROTATED_REPEATED_FACTOR))
    callers = []
    zz_divide = bivar._zz_divide

    def divide(A, B):
        callers.append(sys._getframe(1).f_code.co_name)
        return zz_divide(A, B)

    def content(A):
        raise AssertionError("content in y taken")

    monkeypatch.setattr(bivar, "_zz_divide", divide)
    monkeypatch.setattr(bivar, "_zz_content", content)
    curve = TangencyCurve(f)
    assert curve.cofactor is not None
    assert callers and set(callers) == {"_gcd_heu"}


def test_normalize_integer_primitive():
    p = BivarPoly({(2, 0): Fraction(-4, 6), (0, 1): Fraction(-2, 3)})
    n = normalize(p)
    # content 2/3 removed, leading grlex coefficient made positive
    assert n.terms == {(2, 0): Fraction(1), (0, 1): Fraction(1)}
    assert normalize(n) == n


def test_swap_and_shift():
    p = BivarPoly({(3, 1): Fraction(2), (1, 2): Fraction(-1)})
    assert p.swap_vars().terms == {(1, 3): Fraction(2), (2, 1): Fraction(-1)}
    assert p.shift_down(1, 1).terms == {(2, 0): Fraction(2),
                                        (0, 1): Fraction(-1)}


coeffs = st.fractions(min_value=-20, max_value=20).filter(bool)
exps = st.tuples(st.integers(0, 5), st.integers(0, 5))
polys = st.dictionaries(exps, coeffs, min_size=0, max_size=6).map(BivarPoly)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_diff_product_rule(a, b):
    lhs = (a * b).diff("x")
    rhs = a.diff("x") * b + a * b.diff("x")
    assert lhs == rhs


_X, _Y = BivarPoly.var_x(), BivarPoly.var_y()


@settings(max_examples=40, deadline=None)
@given(polys, polys)
@example(BivarPoly.zero(), _X.scale(Fraction(-2, 3)) * _Y)
@example(_Y**2 - _X, BivarPoly.zero())
@example((_X - _Y.scale(Fraction(3, 4)))**2, (_Y.scale(Fraction(3, 4)) - _X)
         * _Y.scale(Fraction(5, 6)))
def test_gcd_cofactors_multiply_back(a, b):
    # g * (a/g) = a and g * (b/g) = b, on GCDHEU and on the PRS fallback,
    # which return the same triple; zero inputs, rational content and a
    # negative grlex-leading coefficient included
    if a.is_zero() and b.is_zero():
        return
    got = gcd_cofactors(a, b)
    with mock.patch.object(bivar, "_HEU_TRIES", 0):
        assert gcd_cofactors(a, b) == got
    g, u, v = got
    assert g == normalize(g)
    assert g.coeff(max(g.support, key=bivar._grlex_key)) > 0
    assert g * u == a and g * v == b
