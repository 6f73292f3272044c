"""Tangency polynomial, the circle-derivative identity, and restriction."""

import math
import random
from fractions import Fraction

import pytest

from germinv import (BivarPoly, ExpansionConfig, TangencyCurve, analyze_germ,
                     parse_poly, restrict, tangency_poly)
from germinv.errors import NonVanishingGermError
from germinv.oracle import compile_poly
from germinv.tangency import certify_zero_branch

from conftest import random_germ, rotate_germ


def test_tangency_poly_formula():
    h = tangency_poly(parse_poly("x^3 + y^6"))
    assert h == parse_poly("3*x^2*y - 6*x*y^5")


def test_tangency_rejects_nonvanishing():
    with pytest.raises(NonVanishingGermError):
        tangency_poly(parse_poly("1 + x^2"))


def test_circle_derivative_identity():
    # h(t cos a, t sin a) == -d/da f(t cos a, t sin a), checked against a
    # central finite difference at random points
    rng = random.Random(21)
    for _ in range(10):
        f = random_germ(rng)
        if f.is_zero():
            continue
        ff = compile_poly(f)
        hf = compile_poly(tangency_poly(f))
        for _ in range(5):
            t = rng.uniform(0.05, 0.5)
            a = rng.uniform(0, 2 * math.pi)
            eps = 1e-6
            dfda = (ff(t * math.cos(a + eps), t * math.sin(a + eps))
                    - ff(t * math.cos(a - eps), t * math.sin(a - eps))) / (2 * eps)
            hv = hf(t * math.cos(a), t * math.sin(a))
            assert abs(hv + dfda) < 1e-6 * max(1.0, abs(hv))


def test_rotation_equivariance_of_tangency():
    # the tangency polynomial of f o R equals (tangency of f) o R
    rng = random.Random(22)
    for _ in range(8):
        f = random_germ(rng)
        if f.is_zero():
            continue
        assert tangency_poly(rotate_germ(f)) == rotate_germ(tangency_poly(f))


def test_degenerate_radial_curve():
    curve = TangencyCurve(parse_poly("x^2 + y^2"))
    assert curve.degenerate
    bs = curve.half_branches()
    assert [b.chart for b in bs] == ["radial", "radial"]
    f = parse_poly("x^2 + y^2")
    rs = [restrict(f, b, ExpansionConfig(), curve) for b in bs]
    assert all(r.sign == 1 and r.alpha == 2 for r in rs)


def test_restriction_signs_on_axes():
    f = parse_poly("x^3 + y^6")
    curve = TangencyCurve(f)
    config = ExpansionConfig()
    got = {}
    for b in curve.half_branches(config.order):
        r = restrict(f, b, config, curve)
        got[(b.chart, b.sigma)] = (r.sign, r.alpha)
    # f = x^3 on the x-axis: sign follows the side; f = y^6 on the y-axis
    assert got[("x-axis", 1)] == (1, Fraction(3))
    assert got[("x-axis", -1)] == (-1, Fraction(3))
    assert got[("y-axis", 1)] == (1, Fraction(6))
    assert got[("y-axis", -1)] == (1, Fraction(6))


def test_zero_branch_certified():
    # the cusp branches (+-s^3, s^2) lie inside the zero set of (x^2-y^3)^2
    f = parse_poly("(x^2 - y^3)^2")
    curve = TangencyCurve(f)
    config = ExpansionConfig()
    zero_kinds = [restrict(f, b, config, curve).sign
                  for b in curve.half_branches(config.order)
                  if b.chart == "x-dominant"]
    assert zero_kinds == [0, 0]


def test_certify_zero_branch_agrees_with_restrict():
    # y^2 = x^3 + x^4 has no finite parametrization, so its branches inside
    # the zero set of the first germ are truncated, and so are the four
    # others, on which gcd(f, h_sf) does not vanish; the second germ has no
    # zero branch, and gcd(f, h_sf) is constant
    config = ExpansionConfig()
    for text, zeros in (("(y^2 - x^3 - x^4)^2 * (x - y^2)", 2),
                        ("(y - x^2)^2 + x^20", 0)):
        f = parse_poly(text)
        curve = TangencyCurve(f)
        got = []
        for b in curve.half_branches(config.order):
            certified = certify_zero_branch(f, b, curve)
            assert certified == (restrict(f, b, config, curve).sign == 0)
            got += [b.exact] if certified else []
        assert got == [False] * zeros, text
    # the zero polynomial vanishes on every branch, truncated or not
    zero = BivarPoly({})
    for b in curve.half_branches(config.order):
        assert restrict(zero, b, config, curve).sign == 0
        assert certify_zero_branch(zero, b, curve)


def test_deep_leading_term():
    # on the tangency branch hugging y = x^2, the quadratic part cancels
    # and the restriction leads at order 20
    f = parse_poly("(y - x^2)^2 + x^20")
    curve = TangencyCurve(f)
    config = ExpansionConfig()
    alphas = sorted(restrict(f, b, config, curve).alpha
                    for b in curve.half_branches(config.order))
    assert alphas == [2, 2, 20, 20]


def test_low_order_leaves_answer_unchanged():
    # --order only sets the printed series; the leading term at order 20 is
    # still found from branches truncated at order 4
    f = parse_poly("(y - x^2)^2 + x^20")
    config = ExpansionConfig(order=4)
    curve = TangencyCurve(f)
    rs = [restrict(f, b, config, curve)
          for b in curve.half_branches(config.order)]
    assert any(not r.branch.exact and r.branch.truncation <= 4 for r in rs)
    assert analyze_germ(f, config).invariant.as_tuple() == (2, 20)
    assert sorted(r.alpha for r in rs) == [2, 2, 20, 20]


def test_sheared_family_matches_unsheared():
    # (x+y)^n + y^(n+1) is x^n + y^(n+1) after the linear change x -> x - y,
    # so both must give the same pair at the default config
    for n in range(3, 13):
        sheared = analyze_germ(parse_poly(f"(x+y)^{n} + y^{n + 1}"))
        plain = analyze_germ(parse_poly(f"x^{n} + y^{n + 1}"))
        assert sheared.invariant == plain.invariant, n


def test_config_validation():
    with pytest.raises(ValueError):
        ExpansionConfig(order=0)
