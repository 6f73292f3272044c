"""Tangency polynomial, the circle-derivative identity, and restriction."""

import math
import random
from fractions import Fraction

import pytest

import germinv.puiseux
import germinv.tangency
from germinv import (BivarPoly, ExpansionConfig, TangencyCurve, analyze_germ,
                     parse_poly, restrict, substitute, tangency_poly)
from germinv.errors import NonVanishingGermError
from germinv.numberfield import FieldElement
from germinv.oracle import compile_poly
from germinv.puiseux import leading_term
from germinv.tangency import certify_zero_branch

from conftest import (ROTATED_REPEATED_FACTOR, golden_row_germs, random_germ,
                      rotate_germ, series_germs)


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
    bs = curve.half_branches(12)
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
    # zero branch, and gcd(f, h_sf) is constant. The rotated repeated-factor
    # germ and the squared nodal cubic have truncated zero branches in Q(c),
    # and the last germ's gcd 1 + x is a unit at the origin, so its curve
    # has no cofactor and no branch is K0
    config = ExpansionConfig()
    cases = [(parse_poly("(y^2 - x^3 - x^4)^2 * (x - y^2)"), 2, False),
             (parse_poly("(y - x^2)^2 + x^20"), 0, False),
             (rotate_germ(parse_poly(ROTATED_REPEATED_FACTOR)), 2, True),
             (parse_poly("(y^2 - 2*x^2 - x^3)^2 * (x - y^2)"), 4, True),
             (parse_poly("(1 + x)^2 * (x^2 + y^4)"), 0, False)]
    for f, zeros, in_ext in cases:
        curve = TangencyCurve(f)
        assert (curve.cofactor is None) == (zeros == 0), f.to_string()
        got = []
        for b in curve.half_branches(config.order):
            certified = certify_zero_branch(f, b, curve)
            assert certified == (restrict(f, b, config, curve).sign == 0)
            got += [(b.exact, b.ctx is not None)] if certified else []
        assert got == [(False, in_ext)] * zeros, f.to_string()
    assert analyze_germ(f).invariant.as_tuple() == (2, 4)
    # the zero polynomial vanishes on every branch, truncated or not
    zero = BivarPoly({})
    for b in curve.half_branches(config.order):
        assert restrict(zero, b, config, curve).sign == 0
        assert certify_zero_branch(zero, b, curve)


def test_leading_term_contract():
    # on the branch hugging y = x^2 the restriction leads at s^20: a bound
    # below that order finds nothing, and the bound 20 finds the term
    f = parse_poly("(y - x^2)^2 + x^20")
    curve = TangencyCurve(f)
    deep = [b for b in curve.half_branches(12)
            if leading_term((f,), b, 100)[1] == 20]
    assert deep
    for b in deep:
        assert leading_term((f,), b, 19) is None
        i, k, c = leading_term((f,), b, 20)
        assert (i, k, c > 0) == (0, 20, True)
    # on a K0 branch the cofactor's term shows and f's never does; on a
    # signed branch f's does
    for f, exact in ((parse_poly("(x^2 - y^3)^2"), True),
                     (rotate_germ(parse_poly(ROTATED_REPEATED_FACTOR)), False)):
        curve = TangencyCurve(f)
        bound = f.total_degree() * curve.h_sf.total_degree()
        kinds = []
        for b in curve.half_branches(12):
            i, _, _ = leading_term((f, curve.cofactor), b, bound)
            kinds.append((i, b.exact))
            if i == 1 and b.exact:
                assert leading_term((f,), b, bound) is None
        assert kinds.count((1, exact)) == 2 and (0, True) in kinds


def test_restrict_never_reads_k0_from_an_exhausted_bound(monkeypatch):
    # K0 is witnessed by the cofactor's term; a walk that finds no term of
    # either polynomial is an error, not the zero class
    f = parse_poly("(x^2 - y^3)^2")
    curve = TangencyCurve(f)
    branch = curve.half_branches(12)[0]
    monkeypatch.setattr(germinv.tangency, "leading_term", lambda *a: None)
    with pytest.raises(RuntimeError):
        restrict(f, branch, ExpansionConfig(), curve)


def test_restrict_transform_count_on_rotated_repeated_factor(monkeypatch):
    # reading its two K0 branches from the intersection bound (s-order 81)
    # took 144 chain substitutions; the cofactor's first term needs few
    f = rotate_germ(parse_poly(ROTATED_REPEATED_FACTOR))
    config = ExpansionConfig()
    curve = TangencyCurve(f)
    branches = curve.half_branches(config.order)
    calls = []
    transform = germinv.puiseux._transform

    def counted(*args):
        calls.append(args)
        return transform(*args)

    monkeypatch.setattr(germinv.puiseux, "_transform", counted)
    kinds = [restrict(f, b, config, curve).kind for b in branches]
    assert kinds == ["K+", "K-", "K0", "K-", "K+", "K0"]
    assert len(calls) <= 14


def test_twin_restrictions_match_direct_reads():
    # analyze_germ reads f on one half-branch of each pair of twins and
    # mirrors the other's restriction; restrict on either half, through its
    # own chain, gives the same
    config = ExpansionConfig()
    for f in series_germs():
        a = analyze_germ(f, config)
        branches = [r.branch for r in a.restrictions]
        for r in a.restrictions:
            b = r.branch
            assert b.twin is not b and b.twin.twin is b, f.to_string()
            assert sum(t is b.twin for t in branches) == 1, f.to_string()
            direct = restrict(f, b, config, a.curve)
            assert (direct.sign, direct.alpha) == (r.sign, r.alpha), \
                (f.to_string(), b.describe())


def test_analyze_germ_reads_one_half_of_each_pair(monkeypatch):
    # one leading_term per analytic branch; the rotated x^30 + y^31 took 14
    # chain substitutions when each half-branch was expanded and read alone
    calls = []
    read, transform = germinv.tangency.leading_term, germinv.puiseux._transform

    def counted_read(*args):
        calls.append("read")
        return read(*args)

    def counted_transform(*args):
        calls.append("transform")
        return transform(*args)

    monkeypatch.setattr(germinv.tangency, "leading_term", counted_read)
    monkeypatch.setattr(germinv.puiseux, "_transform", counted_transform)
    for f in golden_row_germs() + [parse_poly("(x^2 + y^2)^2")]:
        calls.clear()
        n = len(analyze_germ(f).restrictions)
        assert 2 * calls.count("read") == n, f.to_string()
    calls.clear()
    analyze_germ(rotate_germ(parse_poly("x^30 + y^31")))
    assert calls.count("transform") <= 7


def test_analyses_make_few_fractions(monkeypatch):
    # rational polynomials stay integer forms from the tangency curve to the
    # orders: the analyses of the golden germs build 9,135 Fractions on
    # CPython 3.11, and built 19,160 when every bivariate operation went
    # through a term map of Fractions
    germs = golden_row_germs()
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    for f in germs:
        analyze_germ(f)
    monkeypatch.undo()
    assert len(made) <= 9600


def test_restrict_matches_substitution_on_exact_branches():
    # restrict reads every branch through its chain; on a branch with a
    # finite parametrization, substituting it into f is the reference
    germs = golden_row_germs() + [parse_poly("(y^2 - x^3)^2")]
    exact = exact_zero = 0
    for f in germs:
        a = analyze_germ(f)
        for r in a.restrictions:
            if not r.branch.exact:
                continue
            exact += 1
            lead = substitute(f, r.branch).lead()
            if lead is None:
                exact_zero += 1
                assert (r.sign, r.alpha) == (0, None), f.to_string()
            else:
                k, c = lead
                sign = c.sign() if isinstance(c, FieldElement) else (
                    1 if c > 0 else -1)
                assert (r.sign, r.alpha) == (sign, Fraction(k, r.branch.e)), \
                    f.to_string()
    assert exact > 300 and exact_zero > 100, (exact, exact_zero)


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


def test_config_rejects_a_negative_bit_budget():
    # a negative budget is bad input, rejected up front like order < 1,
    # whatever the germ: the first needs no sign in an extension, the
    # second one in Q(sqrt 2), where a budget would run out
    for text, pair in (("x^2 - 2*y^2", (-2, 2)),
                       ("(x^2 - 2*y^2)*(x - 3*y)", (-3, 3))):
        f = parse_poly(text)
        with pytest.raises(ValueError):
            analyze_germ(f, ExpansionConfig(max_bits=-3))
        inv = analyze_germ(f).invariant
        assert (inv.lo, inv.hi) == pair
