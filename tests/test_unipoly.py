"""Univariate exact arithmetic, root isolation, and the real extension
field, checked against sympy as an independent oracle."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germinv import BivarPoly, unipoly
from germinv.errors import (PrecisionExceededError, TowerDepthExceededError,
                            ZeroInputError)
from germinv.numberfield import (FieldContext, FieldElement,
                                 _binomial_irreducible)
from germinv.puiseux import _edge_roots
from germinv.unipoly import (cauchy_bound, coeff_sign, exact_quotient,
                             integer_gcd, isolate_real_roots, poly_string,
                             primitive_integers, pseudo_remainder, signed_sum)

from conftest import field_element, root_field

_t = sympy.Symbol("t")

# A polynomial is the list of its coefficients, lowest degree first, with no
# trailing zero; sympy is the reference arithmetic, and the helpers below
# only build inputs.


def _trim(cs) -> list:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def to_sympy(p):
    return sympy.Poly([sympy.Rational(c) for c in reversed(p)] or [0],
                      _t, domain="QQ")


def from_sympy(sp) -> list:
    return _trim(Fraction(c.p, c.q) for c in reversed(sp.all_coeffs()))


def _poly(*coeffs) -> list:
    return _trim(Fraction(c) for c in coeffs)


def _mul(*ps) -> list:
    """The product of the polynomials."""
    out = [Fraction(1)]
    for p in ps:
        prod = [Fraction(0)] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = _trim(prod)
    return out


def _monic(p) -> list:
    return [Fraction(c) / p[-1] for c in p]


def _eval(p, x):
    """p(x) by Horner."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def rand_poly(rng, deg, coeff=9):
    return _poly(*(rng.randint(-coeff, coeff) for _ in range(deg + 1)))


def test_pseudo_remainder_matches_sympy():
    # the one remainder of integer polynomials: s a = q b + r with
    # s = lc(b)^k, so r is s times the remainder over Q
    rng = random.Random(1)
    for _ in range(30):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        b = _trim(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        if not b:
            continue
        r, s = pseudo_remainder(a, b)
        sr = sympy.rem(to_sympy(a), to_sympy(b))
        assert r == [s * c for c in from_sympy(sr)]


def test_integer_coefficients_divide_exactly():
    # an edge polynomial over Q holds its integer form; dividing it stays in
    # Z[t], and a root's defining polynomial is made monic over Q
    p = [1, 3, 2]
    assert exact_quotient(p, [1, 2]) == [1, 1]   # (2t + 1)(t + 1)
    assert exact_quotient(p, [1, 3]) is None
    (r,) = [r for r in isolate_real_roots([-4, 0, 2]) if r.lo > 0]
    assert r.defining == [Fraction(-2), 0, 1]
    assert {type(c) for c in r.defining} == {Fraction}


def _to_ints(p) -> list[int]:
    """A sympy Poly over ZZ as an integer list, lowest degree first."""
    out = [int(c) for c in reversed(p.all_coeffs())]
    while out and not out[-1]:
        out.pop()
    return out


_int_small = st.integers(-9, 9)
_int_huge = st.builds(lambda s, v: s * v, st.sampled_from((-1, 1)),
                      st.integers(10**400 - 10**6, 10**400))
_int_factor = st.lists(st.one_of(_int_small, _int_small, _int_huge),
                       max_size=4).map(
    lambda cs: sympy.Poly(cs[::-1] or [0], _t, domain="ZZ"))


@settings(max_examples=60, deadline=None)
@given(_int_factor, _int_factor, _int_factor, st.integers(1, 3))
@example(*(sympy.Poly(cs, _t, domain="ZZ") for cs in ([0], [0], [0])), 1)
@example(*(sympy.Poly(cs, _t, domain="ZZ") for cs in ([0], [-6], [1])), 1)
@example(*(sympy.Poly(cs, _t, domain="ZZ") for cs in ([4], [-6], [1])), 1)
@example(*(sympy.Poly(cs, _t, domain="ZZ")
           for cs in ([-2, 0, 6], [0], [-10**400, 3])), 3)
def test_gcd_matches_sympy(a, b, g, e):
    # zero and constant inputs, negative leading coefficients, a common
    # factor repeated in one input, and coefficients near 10^400; the gcd
    # comes back primitive with a positive leading coefficient
    a, b = a * g**e, b * g
    want = _to_ints(a.gcd(b))
    if want:
        k = math.gcd(*want) * (1 if want[-1] > 0 else -1)
        want = [c // k for c in want]
    assert integer_gcd(_to_ints(a), _to_ints(b)) == want


def test_squarefree_matches_sympy():
    # the Sturm chain of p ends in gcd(p, p'), and p divided by it is the
    # square-free part, whose own chain ends in a constant
    rng = random.Random(3)
    for _ in range(30):
        a = rand_poly(rng, rng.randint(1, 3))
        b = rand_poly(rng, rng.randint(1, 2))
        p = _mul(a, a, b)
        if len(p) < 2:
            continue
        P = primitive_integers(p)[0]
        mine = exact_quotient(P, unipoly._integer_sturm(P)[-1])
        prod = sympy.Integer(1)
        for fac, _ in to_sympy(p).sqf_list()[1]:
            prod = prod * fac
        ref = sympy.Poly(prod, _t).monic()
        assert _monic(mine) == from_sympy(ref)
        assert len(unipoly._integer_sturm(mine)[-1]) == 1


def _edge_outcome(E, ctx):
    """_edge_roots on E over ctx's field: its roots, or "raise"."""
    try:
        return _edge_roots(E, ctx, 1)
    except TowerDepthExceededError:
        return "raise"


def test_sturm_count_matches_sympy():
    # the chain of an edge polynomial over Q(sqrt2) on integer vectors:
    # (1 + sqrt2) p for p over Q has p's roots, and _edge_roots gives the
    # root of a linear square-free part, [] for no real root, and raises
    # otherwise, as sympy's square-free part and count decide; p and p
    # times a square
    K = sqrt2_ctx()
    rng = random.Random(4)
    for _ in range(25):
        p = rand_poly(rng, rng.randint(1, 6))
        if len(p) < 2 or not p[0]:
            continue
        sq = rand_poly(rng, rng.randint(1, 2))
        for q in (p, _mul(p, sq, sq)) if len(sq) > 1 and sq[0] else (p,):
            E = [[int(c), int(c)] if c else [] for c in q]
            ref = to_sympy(q).sqf_part()
            got = _edge_outcome(E, K)
            if ref.degree() == 1:
                root = -Fraction(ref.nth(0)) / Fraction(ref.nth(1))
                assert got == [(root, K)]
            else:
                assert got == ([] if ref.count_roots() == 0 else "raise")
        p = from_sympy(to_sympy(p).sqf_part())
        lo, hi = Fraction(-10), Fraction(10)
        mine = _ref_count_real_roots(p, lo, hi)
        ref = sympy.Poly(to_sympy(p), _t).count_roots(-10, 10)
        # the count is over the half-open (lo, hi]; sympy counts [lo, hi]
        if to_sympy(p).eval(-10) == 0:
            ref -= 1
        assert mine == ref


def _ref_real_root_count_over_sqrt2(expr) -> int:
    """Real roots of a polynomial in _t over Q(sqrt2): sympy's own Sturm
    chain over QQ<sqrt(2)>, its leading coefficients' signs at -inf and
    +inf."""
    chain = sympy.sturm(sympy.Poly(expr, _t, extension=sympy.sqrt(2)))
    at_inf = [int(sympy.sign(q.LC())) for q in chain]
    at_minus_inf = [s * (-1) ** q.degree() for s, q in zip(at_inf, chain)]
    return (unipoly._variations(at_minus_inf)
            - unipoly._variations(at_inf))


def test_edge_roots_scale_an_even_gap_in_the_chain():
    # t^4 + sqrt2 t -+ 1 over Q(sqrt2): the chain runs E, E' = 4t^3 + sqrt2,
    # then a member of degree 1, two below E'. The pseudo-remainder there
    # carries lc^3, an odd power of a leading coefficient of either sign,
    # and one more factor lc makes it a positive multiple of the signed
    # remainder. With -1 the two real roots are not in Q(sqrt2), a give-up;
    # with +1 there is no real root
    K = sqrt2_ctx()
    for s, count, want in ((-1, 2, "raise"), (1, 0, [])):
        assert _ref_real_root_count_over_sqrt2(
            _t**4 + sympy.sqrt(2) * _t + s) == count
        assert _edge_outcome([[s], [0, 1], [], [], [1]], K) == want


# t (3t - 1)(t^2 - 2)(t^2 - 3): the root 0 is the first bisection point, 1/3
# lies inside a cell, and four roots are irrational
_ROOT_ON_FIRST_SPLIT = _mul(_poly(0, 1), _poly(-1, 3), _poly(-2, 0, 1),
                            _poly(-3, 0, 1))


def _ref_count_real_roots(p, lo, hi):
    """Number of distinct real roots of square-free p in (lo, hi], by the
    Sturm chain, as is_root_of counted them on gcd(p, defining)."""
    seq = unipoly._integer_sturm(primitive_integers(p)[0])
    return (unipoly._variations(unipoly._signs_at(seq, lo.numerator,
                                                  lo.denominator))
            - unipoly._variations(unipoly._signs_at(seq, hi.numerator,
                                                    hi.denominator)))


def _ref_is_root_of(a, p):
    """is_root_of by a Sturm count of gcd(p, defining) on a's interval."""
    if a.lo == a.hi or len(p) < 2:
        return _eval(p, a.lo) == 0
    g = from_sympy(to_sympy(p).gcd(to_sympy(a.defining)))
    return len(g) >= 2 and _ref_count_real_roots(g, a.lo, a.hi) > 0


# square-free factors with irrational real roots, pairwise coprime: sqrt2
# and sqrt3, the golden ratio, the cube root of 2, +-sqrt2 +- sqrt3, and
# +-sqrt(11/5), which lies within 1/4 of sqrt2
_ROOT_FACTORS = (_poly(-2, 0, 1), _poly(-3, 0, 1), _poly(-1, -1, 1),
                 _poly(-2, 0, 0, 1), _poly(1, 0, -10, 0, 1),
                 _poly(-11, 0, 5))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(_ROOT_FACTORS))), min_size=2,
                max_size=3, unique=True),
       st.lists(st.sampled_from(range(len(_ROOT_FACTORS))), max_size=2),
       st.lists(st.integers(-5, 5), max_size=3))
@example([0, 5], [5], [1])
@example([0, 1, 4], [1, 4], [0, 1])
def test_is_root_of_matches_the_sturm_count(modulus, factors, rest):
    # a reducible modulus of two or three square-free factors isolates c
    # on each factor in turn; p is a product of some factors times a small
    # polynomial, a root of it exactly where c is a root of one of them
    m = _mul(*(_ROOT_FACTORS[i] for i in modulus))
    p = _mul(_poly(*(rest or [1])), *(_ROOT_FACTORS[i] for i in factors))
    for c in isolate_real_roots(m):
        assert c.defining == _monic(m) and not c.is_rational()
        (f,) = [_ROOT_FACTORS[i] for i in modulus
                if _ref_count_real_roots(_ROOT_FACTORS[i], c.lo, c.hi)]
        want = to_sympy(p).rem(to_sympy(f)).is_zero
        P = primitive_integers(p)[0]
        assert c.is_root_of(P) == _ref_is_root_of(c, p) == want


def test_isolate_real_roots_matches_sympy():
    rng = random.Random(5)
    # (t - 5/2)(t^2 + 8t + 1)(t + 3/2)(t^2 - 8t): rational roots beside
    # irrational ones, and 0 on a bisection point
    polys = [_ROOT_ON_FIRST_SPLIT,
             _mul(_poly(Fraction(-5, 2), 1), _poly(1, 8, 1),
                  _poly(Fraction(3, 2), 1), _poly(0, -8, 1))]
    polys += [rand_poly(rng, rng.randint(1, 6)) for _ in range(25)]
    # and inputs with repeated factors, rational and irrational
    half, root2 = _poly(Fraction(1, 2), -1), _poly(-2, 0, 1)
    polys += [_mul(half, half, half, root2, root2, _poly(3, 1)),
              _mul(_ROOT_ON_FIRST_SPLIT, _poly(-3, 0, 1)), _poly(0, 0, 7)]
    for _ in range(10):
        square = rand_poly(rng, rng.randint(1, 3))
        polys.append(_mul(square, square, rand_poly(rng, 2)))
    for p in polys:
        if len(p) < 2:
            continue
        roots = isolate_real_roots(p)
        ref = sympy.Poly(to_sympy(p), _t).real_roots()
        ref = sorted(set(ref))
        assert len(roots) == len(ref)
        for mine, rr in zip(roots, ref):
            lo, hi = sympy.Rational(mine.lo), sympy.Rational(mine.hi)
            assert lo <= rr <= hi
            if not mine.is_rational():
                _, factors = to_sympy(mine.defining).factor_list()
                assert all(f.degree() > 1 for f, _ in factors), p


def test_isolation_trims_trailing_zeros_and_rejects_zero():
    # isolation is the one maker of a real algebraic number, so it takes
    # any coefficient list: trailing zeros are dropped, the zero polynomial
    # raises, and a nonzero constant has no root
    for u in ([-2, 0, 1, 0], [0, 1, 0, 0], _mul(_linear(1, 1), _T2_MINUS_2,
                                                 _T2_MINUS_2) + [0]):
        assert ([(r.lo, r.hi, r.defining) for r in isolate_real_roots(u)]
                == [(r.lo, r.hi, r.defining)
                    for r in isolate_real_roots(_trim(u))])
    assert [r.defining for r in isolate_real_roots([-2, 0, 1, 0])] == [
        _T2_MINUS_2] * 2
    for zero in ([0, 0], [], [Fraction(0)]):
        with pytest.raises(ZeroInputError):
            isolate_real_roots(zero)
    assert isolate_real_roots([5]) == []
    assert isolate_real_roots([Fraction(-1, 3), 0, 0]) == []


def test_isolation_evaluates_each_sturm_point_once(monkeypatch):
    # a split evaluates the chain at its midpoint only, a one-root cell
    # reads the sign of p at its right end off that end's evaluation, and a
    # root on a bisection point is not deflated and re-counted: 2 calls for
    # the bounds and 1 for each of the 11 splits
    calls = []
    signs_at = unipoly._signs_at

    def counted(polys, n, d):
        calls.append(Fraction(n, d))
        return signs_at(polys, n, d)

    monkeypatch.setattr(unipoly, "_signs_at", counted)
    cells, _ = unipoly._sturm_isolate(_ROOT_ON_FIRST_SPLIT)
    rats = [Fraction(a, d) for a, b, d in cells if a == b]
    assert len(calls) == 13 and len(set(calls)) == 13
    assert sorted(rats) == [0, Fraction(1, 3)] and len(cells) - len(rats) == 4


def test_isolation_divides_once_per_chain_member(monkeypatch):
    # a square-free input is its own square-free part: its Sturm chain is
    # the only remainder sequence, one pseudo-division per member past u'
    # (the edge polynomial of 5*x^6 + 6*x*y^5, t^2 - 3 and t^6 - t - 1)
    calls = []
    pseudo_remainder = unipoly.pseudo_remainder

    def counted(a, b):
        calls.append(b)
        return pseudo_remainder(a, b)

    for p, want in ((_poly(-5, 0, 0, -5, 0, 1), 4), (_poly(-3, 0, 1), 1),
                    (_poly(-1, -1, 0, 0, 0, 0, 1), 2)):
        P = primitive_integers(p)[0]
        assert len(unipoly._integer_sturm(P)) - 2 == want
        calls.clear()
        monkeypatch.setattr(unipoly, "pseudo_remainder", counted)
        isolate_real_roots(p)
        monkeypatch.setattr(unipoly, "pseudo_remainder",
                            pseudo_remainder)
        assert len(calls) == want, p


def test_isolation_matches_golden():
    # the distinct isolate_real_roots inputs of one pass over the
    # benchmark's random and sheared corpora at seed 1, with the roots, the
    # isolating intervals and the defining polynomials the Fraction Sturm
    # bisection gave them
    path = Path(__file__).resolve().parent / "golden" / "isolation.json"
    for case in json.loads(path.read_text()):
        u = [Fraction(c) for c in case["u"]]
        got = [[str(r.lo), str(r.hi), [str(c) for c in r.defining]]
               for r in isolate_real_roots(u)]
        assert got == case["roots"], case["u"]


def test_rational_roots_collapse():
    # (t - 3)(t + 1/2)(t^2 + 1): rational roots isolate to points
    p = _mul(_poly(-3, 1), _poly(Fraction(1, 2), 1), _poly(1, 0, 1))
    roots = isolate_real_roots(p)
    assert [(r.lo, r.hi) for r in roots] == [
        (Fraction(-1, 2), Fraction(-1, 2)), (Fraction(3), Fraction(3))]
    assert all(r.is_rational() for r in roots)


_T2_MINUS_2 = _poly(-2, 0, 1)


def _linear(a, b) -> list:
    return _poly(-b, a)   # a*t - b


def _sqrt2_and(r: Fraction, roots) -> None:
    assert [(x.lo, x.hi) for x in roots if x.is_rational()] == [(r, r)]
    irr = [x for x in roots if not x.is_rational()]
    assert len(irr) == 2 and all(x.defining == _T2_MINUS_2 for x in irr)
    assert irr[0].hi < -1 < 1 < irr[1].lo


def test_isolate_large_rational_root():
    # the rational root b/a has a 14-digit numerator and denominator
    a, b = 10**13 + 37, 10**13 + 39
    _sqrt2_and(Fraction(b, a),
               isolate_real_roots(_mul(_linear(a, b), _T2_MINUS_2)))


def test_isolate_huge_rational_root():
    # 16 digits: the root is still read off its isolating interval
    a, b = 10**15 + 37, 10**15 + 39
    _sqrt2_and(Fraction(b, a),
               isolate_real_roots(_mul(_linear(a, b), _T2_MINUS_2)))


def test_isolate_rational_root_on_a_bisection_midpoint():
    # r = B/4 for the Cauchy bound B of p: bisecting (-B, B) meets r exactly
    a, b = 10**15 + 37, 10**15 + 39
    r = Fraction(3000000000000115, 2000000000000074)
    p = _mul(_linear(1, r), _linear(a, b), _T2_MINUS_2)
    assert cauchy_bound(_monic(p)) == 4 * r
    roots = isolate_real_roots(p)
    assert [x.lo for x in roots if x.is_rational()] == [Fraction(b, a), r]
    assert all(x.defining == _T2_MINUS_2 for x in roots
               if not x.is_rational())


def test_irrational_roots_have_no_rational_root_in_defining():
    rng = random.Random(11)
    polys = [_mul(_linear(10**15 + 37, 10**15 + 39), _T2_MINUS_2),
             _mul(_linear(3, 2), _linear(1, 5), _poly(-3, 0, 0, 1))]
    polys += [_mul(_linear(rng.randint(1, 10**16),
                           rng.randint(-10**16, 10**16)),
                   rand_poly(rng, rng.randint(2, 4))) for _ in range(12)]
    for p in polys:
        if not p:
            continue
        for x in isolate_real_roots(p):
            if not x.is_rational():
                _, factors = to_sympy(x.defining).factor_list()
                assert all(f.degree() > 1 for f, _ in factors), p


# -- references: the Fraction forms of the Sturm bisection and of the interval
# Horner that unipoly computes on integers; results must be equal


def _ref_variations_at(seq, x):
    return unipoly._variations([coeff_sign(_eval(p, x)) for p in seq])


def _ref_integer_root(q, right_sign, lo, hi):
    i, j = math.floor(lo) + 1, math.ceil(hi) - 1
    if i > j:
        return None

    def side(s):
        v = 0
        for c in reversed(q):
            v = v * s + c
        return 0 if v == 0 else (-1 if (v > 0) == (right_sign > 0) else 1)

    si = side(i)
    if si <= 0:
        return i if si == 0 else None
    sj = side(j)
    if sj >= 0:
        return j if sj == 0 else None
    while j - i > 1:
        m = (i + j) // 2
        sm = side(m)
        if sm == 0:
            return m
        i, j = (m, j) if sm > 0 else (i, m)
    return None


def _ref_isolate(u):
    """isolate_real_roots on Fractions, as sorted (lo, hi, defining), over
    sympy's monic square-free part and its Sturm sequence."""
    rats, cells = [], []
    sp = to_sympy(u).sqf_part().monic()
    p, seq = from_sympy(sp), [from_sympy(s) for s in sympy.sturm(sp)]
    B = cauchy_bound(p)
    ints = primitive_integers(p)[0]
    a, n = ints[-1], len(ints) - 1
    q = [c * a ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    stack = [(-B, B, _ref_variations_at(seq, -B), _ref_variations_at(seq, B))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi > 1:
            mid = (lo + hi) / 2
            vmid = _ref_variations_at(seq, mid)
            stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
        elif vlo != vhi:
            v = _eval(p, hi)
            s = None if v == 0 else _ref_integer_root(q, coeff_sign(v),
                                                      lo * a, hi * a)
            if v == 0 or s is not None:
                rats.append(hi if v == 0 else Fraction(s, a))
            else:
                cells.append((lo, hi))
    for r in rats:
        p = from_sympy(to_sympy(p).quo(to_sympy(_poly(-r, 1))))
    out = [(r, r, _poly(-r, 1)) for r in rats]
    for lo, hi in cells:
        lo_sign = coeff_sign(_eval(p, lo))
        while hi - lo > Fraction(1, 4):
            mid = (lo + hi) / 2
            v = _eval(p, mid)
            if v == 0:
                lo = hi = mid
            elif coeff_sign(v) * lo_sign < 0:
                hi = mid
            else:
                lo = mid
        out.append((lo, hi, p))
    return sorted(out, key=lambda t: (t[0] + t[1]) / 2)


def _horner_bounds(p, lo, hi):
    """_interval_horner's bounds on p(x) for x in [lo, hi], as Fractions."""
    P, s = primitive_integers(p)
    d = math.lcm(lo.denominator, hi.denominator)
    m, M, D = unipoly._interval_horner(P, lo.numerator * (d // lo.denominator),
                                       hi.numerator * (d // hi.denominator), d)
    return Fraction(m, D) * s, Fraction(M, D) * s


def _ref_eval_interval(p, lo, hi):
    mlo, mhi = Fraction(0), Fraction(0)
    for c in reversed(p):
        cands = (mlo * lo, mlo * hi, mhi * lo, mhi * hi)
        mlo, mhi = min(cands) + c, max(cands) + c
    return mlo, mhi


_small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_huge = st.builds(Fraction, st.integers(-10**400, 10**400),
                  st.integers(10**399, 10**400))
_coeff = st.one_of(_small, _small, _huge)
_nonzero = _coeff.filter(bool)


@st.composite
def _isolation_inputs(draw):
    """Products of a few factors, some squared, times a nonzero constant:
    rational roots (t, on the first bisection point, among them), quadratics
    and random factors, with coefficients up to 10^400 over large
    denominators, and a leading coefficient of either sign."""
    factors = draw(st.lists(st.one_of(
        st.builds(lambda r: _poly(-r, 1), _coeff),
        st.builds(lambda b: _poly(b, 0, 1), _small),
        st.lists(_small, min_size=2, max_size=4).map(lambda cs: _poly(*cs)),
        st.just(_poly(0, 1)), st.just(_T2_MINUS_2)),
        min_size=1, max_size=3))
    p = _poly(draw(_nonzero))
    for f in factors:
        p = _mul(p, f) if draw(st.integers(1, 2)) == 1 else _mul(p, f, f)
    return p


@settings(max_examples=60, deadline=None)
@given(_isolation_inputs(), _coeff, _coeff, st.lists(_coeff, max_size=6))
@example(_ROOT_ON_FIRST_SPLIT, Fraction(-2), Fraction(3, 2), [1, -2, 3])
@example([c * Fraction(-3, 10**400 + 1) for c in _mul(
    _linear(10**400 + 1, 10**400 - 3), _T2_MINUS_2, _T2_MINUS_2,
    _poly(0, 1))], Fraction(-10**400, 7),
         Fraction(1, 10**399), [Fraction(10**400, 3), 0, -1])
def test_integer_forms_match_fraction_references(u, x, y, coeffs):
    # isolation: the same roots, intervals and defining polynomials
    roots = isolate_real_roots(u) if len(u) >= 2 else []
    if len(u) >= 2:
        assert [(r.lo, r.hi, r.defining) for r in roots] == _ref_isolate(u)
    # interval Horner: the same bounds, from the same enclosing loop
    lo, hi = min(x, y), max(x, y)
    p = _trim(coeffs)
    assert _horner_bounds(p, lo, hi) == _ref_eval_interval(p, lo, hi)
    ints, s = primitive_integers(p)
    P, den = [c * s.numerator for c in ints], s.denominator   # p = P / den
    U = primitive_integers(u)[0]
    # two fresh isolations give each root twice, on the same cell
    twins = [isolate_real_roots(u) for _ in range(2)] if roots else [[], []]
    for r, a, b in zip(roots, *twins):
        assert r.is_root_of(U)
        width = Fraction(1, 2**20)
        want = _ref_eval_interval(p, b.lo, b.hi)
        while b.lo != b.hi and want[1] - want[0] > width:
            b.refine_step()
            want = _ref_eval_interval(p, b.lo, b.hi)
        if b.lo == b.hi:
            want = (_eval(p, b.lo),) * 2
        assert (a.enclose(P, den, width) == want
                and (a.lo, a.hi) == (b.lo, b.hi))


@settings(max_examples=60, deadline=None)
@given(_isolation_inputs())
@example(_ROOT_ON_FIRST_SPLIT)
@example(_mul(_T2_MINUS_2, _poly(-11, 0, 5), _poly(0, 0, 1), _linear(2, 3)))
def test_isolation_is_ascending_with_one_root_each(u):
    # the roots come out as the bisection walks its cells, left to right:
    # each interval holds its own root of u and no other inside it, and two
    # intervals meet at most in an endpoint. sqrt2 and sqrt(11/5) isolate in
    # adjacent cells, which meet at a point that is no root; an interval
    # ends at a root of u only where it meets that rational root's point.
    # The reference counts roots by sympy's Sturm sequence of the square-free
    # part, which factors no integer (real_roots() would factor coefficients
    # of a thousand digits): n ascending intervals, each with one root
    # inside or at its point, hold the n roots in order
    if len(u) < 2:
        return
    roots = isolate_real_roots(u)
    ref = sympy.Poly(to_sympy(u), _t).sqf_part()
    assert len(roots) == ref.count_roots()
    for x in roots:
        lo, hi = sympy.Rational(x.lo), sympy.Rational(x.hi)
        assert (lo == hi) == x.is_rational()
        if lo == hi:
            assert ref.eval(lo) == 0
        else:
            at_ends = sum(ref.eval(e) == 0 for e in (lo, hi))
            assert ref.count_roots(lo, hi) - at_ends == 1
    ends = {}
    for x in roots:
        ends.setdefault(x.lo, []).append(x)
        ends.setdefault(x.hi, []).append(x)
    for x, y in zip(roots, roots[1:]):
        assert x.hi <= y.lo
    for point, xs in ends.items():
        if _eval(u, point) == 0:
            assert any(x.is_rational() for x in xs)


def test_refine_step_collapses_onto_a_rational_root():
    # isolation finds the root 1 of t^2 - 1 exactly inside its one-root
    # cell (0, 2] and collapses onto it; refine_step keeps it, and every
    # answer is exact
    r = isolate_real_roots(_poly(-1, 0, 1))[1]
    assert r.is_rational() and (r.lo, r.hi) == (1, 1)
    assert r.defining == _poly(-1, 1)
    r.refine_step()
    assert (r.lo, r.hi) == (1, 1)
    # p = (3t^2 + 1) / 2 and 5t - 4 at t = 1, with and without a width
    assert r.enclose([1, 0, 3], 2) == (2, 2)
    assert r.enclose([1, 0, 3], 2, Fraction(1, 10**9)) == (2, 2)
    assert r.enclose([-4, 5], 1, max_bits=0) == (1, 1)
    assert r.enclose([-1, 1], 7, Fraction(1)) == (0, 0)
    assert r.is_root_of([-1, 1]) and r.is_root_of([-1, 0, 1])
    assert not r.is_root_of([1, 1]) and not r.is_root_of([2])


def test_field_element_reads_a_collapsed_generator_as_rational():
    # Q(c) for c the root 1 of t^2 - 1: isolation collapses onto c, the
    # modulus is t - 1, and every element is reduced to a vector of length
    # at most 1, visibly rational
    K = root_field(_poly(-1, 0, 1), 1)
    assert K.is_rational() and K.irreducible and K.defining == _poly(-1, 1)
    c = K.generator()
    x = c * 3 + Fraction(1, 2)
    assert (x.vec, x.den) == ([7], 2) and (c.vec, c.den) == ([1], 1)
    assert x.interval() == (Fraction(7, 2), Fraction(7, 2))
    assert (c - 1).is_zero() and not (c + 1).is_zero()


def test_algebraic_sqrt2():
    (r,) = [r for r in isolate_real_roots(_T2_MINUS_2) if r.lo > 0]
    r.refine_to(Fraction(1, 10**12))
    assert r.hi - r.lo <= Fraction(1, 10**12) and r.lo ** 2 < 2 < r.hi ** 2
    c = FieldContext.of_root(r).generator()
    assert c.sign() == 1 and float(c) == 2**0.5


def test_refine_step_evaluates_the_left_end_once(monkeypatch):
    # p(lo) keeps its sign while lo moves, so k steps evaluate p at k
    # midpoints and at lo once; a context opened on the isolated sqrt2
    # starts with no sign at lo
    calls = []
    signs_at = unipoly._signs_at

    def counted(polys, n, d):
        calls.append(Fraction(n, d))
        return signs_at(polys, n, d)

    r = root_field(_T2_MINUS_2, 1)
    lo, width = r.lo, r.hi - r.lo
    monkeypatch.setattr(unipoly, "_signs_at", counted)
    for _ in range(20):
        r.refine_step()
    assert len(calls) == 21 and calls.count(lo) == 1
    assert r.hi - r.lo == width / 2**20
    assert r.lo ** 2 < 2 < r.hi ** 2


def test_cauchy_bound_contains_roots():
    rng = random.Random(6)
    for _ in range(20):
        p = rand_poly(rng, rng.randint(1, 6))
        if len(p) < 2:
            continue
        bound = cauchy_bound(p)
        for rr in sympy.Poly(to_sympy(p), _t).real_roots():
            assert abs(rr) <= sympy.Rational(bound)


def sqrt2_ctx() -> FieldContext:
    return root_field(_T2_MINUS_2, 1)


def test_field_basic_arithmetic():
    K = sqrt2_ctx()
    r = K.generator()
    assert (r * r - 2).is_zero()
    assert not (r - 1).is_zero()
    assert ((r * r).vec, (r * r).den) == ([2], 1)
    assert abs(float(r) - 2**0.5) < 1e-12


def test_field_inverse():
    K = sqrt2_ctx()
    r = K.generator()
    # 1/(1 + sqrt2) = sqrt2 - 1
    assert ((1 + r).inverse() - (r - 1)).is_zero()
    x = r * Fraction(3, 7) - 2
    assert (x * x.inverse() - 1).is_zero()


def test_field_sign():
    K = sqrt2_ctx()
    r = K.generator()
    assert (r - Fraction(3, 2)).sign() == -1   # sqrt2 < 1.5
    assert (r - Fraction(7, 5)).sign() == 1    # sqrt2 > 1.4
    assert (r * r - 2).sign() == 0


def test_field_sign_precision_budget():
    from math import isqrt
    K = sqrt2_ctx()
    r = K.generator()
    # a <= sqrt2 < a + 2^-400: deciding sign(r - a) takes ~400 bits
    a = Fraction(isqrt(2 * 4**400), 2**400)
    tiny = r - a
    with pytest.raises(PrecisionExceededError):
        tiny.sign(max_bits=8)
    assert tiny.sign(max_bits=1024) == 1


def test_field_division_and_str():
    K = sqrt2_ctx()
    r = K.generator()
    x = r * Fraction(3, 7) - 2
    for o in (3, Fraction(-5, 4), r + 1, K.from_rational(2)):
        inv_o = K.coerce(o).inverse()
        assert (x / o - x * inv_o).is_zero()
        assert (o / x - o * x.inverse()).is_zero()
    assert (1 / r - r * Fraction(1, 2)).is_zero()
    for bad in (0, Fraction(0), K.from_rational(0), r * r - 2):
        with pytest.raises(ZeroDivisionError):
            x / bad
    # a fresh root interval each time: str() is the first value asked for
    for k, m in ((1, Fraction(-7, 5)), (-1, 0), (10**6, 0)):
        y = sqrt2_ctx().generator() * k + m
        assert str(y) == f"({float(y):.9g})"
    # a value with no normal double prints from its exact value, to the same
    # digits; zero is still (0)
    assert str(r * 10**400) == "(1.41421356e+400)"
    assert str(r / 10**400) == "(1.41421356e-400)"
    assert str(-r / 10**310) == "(-1.41421356e-310)"   # subnormal
    assert str(r / (r * 10**400)) == "(1e-400)"
    assert repr(-r * 10**400).endswith("~ -1.41421e+400)")
    assert str(r - r) == "(0)"


def test_field_golden_ratio():
    K = root_field(_poly(-1, -1, 1), 1)
    phi = K.generator()
    assert (phi * phi - phi - 1).is_zero()
    assert ((phi - 1) * phi - 1).is_zero()   # 1/phi = phi - 1
    assert abs(float(phi) - (1 + 5**0.5) / 2) < 1e-12


def test_field_reducible_modulus():
    # sqrt2, the third root of m = (t^2 - 2)(t^2 - 3)
    m = _mul(_T2_MINUS_2, _poly(-3, 0, 1))
    K = root_field(m, 2)
    c = K.generator()
    assert (c * c - 2).is_zero()
    # gcd with m is t^2 - 3, which has no root in the interval
    assert not ((c * c - 3) * (c - Fraction(5, 4))).is_zero()
    stale = c * c - 2           # reduced mod m, not yet tested
    # c^2 - 3 is a zero divisor mod m: inverting it shrinks m to t^2 - 2,
    # which is certified
    assert (c * c - 3).inverse() == -1
    assert K.defining == _T2_MINUS_2
    assert K.irreducible and stale.is_zero()
    assert (c - Fraction(7, 5)).sign() == 1


def test_shrinking_the_modulus_forgets_its_old_forms():
    # sqrt2, the third root of m = (t^2 - 2)(t^2 - 3); a refine step caches
    # the sign of m at lo, 0 < lo < sqrt2, which t^2 - 2 does not have there
    m = _mul(_T2_MINUS_2, _poly(-3, 0, 1))
    K = root_field(m, 2)
    K.refine_step()
    width = K.hi - K.lo
    assert 0 < K.lo
    c = K.generator()
    (c * c - 3).inverse()
    assert K.defining == _T2_MINUS_2
    # the sign at lo and the integer form are those of the new modulus: a
    # step on m's sign would keep the half without sqrt2
    for _ in range(2):
        K.refine_step()
    assert K.lo ** 2 < 2 < K.hi ** 2 and K.hi - K.lo == width / 4
    assert abs(float(c) - 2**0.5) < 1e-12
    assert K.reduce_integers([0, 0, 1]) == ([2], 1)


def test_field_reducible_cubic_modulus():
    # sqrt2, the third root of m = (t - 1)(t^2 - 2); isolation divides out
    # the rational root's factor t - 1, so the modulus is t^2 - 2,
    # certified, and zero in Q(c) is "all coefficients zero"
    K = root_field(_mul(_linear(1, 1), _T2_MINUS_2), 2)
    assert K.defining == _T2_MINUS_2 and K.irreducible
    c = K.generator()
    assert (c * c - 2).vec == [] and (c * c - 2).is_zero()
    assert not (c - 1).is_zero()
    # c - 1 is a unit: 1/(c - 1) = c + 1, and the modulus stays
    assert (c - 1).inverse() == c + 1
    assert K.defining == _T2_MINUS_2 and K.irreducible
    assert not (c * c - 3).is_zero()
    assert root_field(_T2_MINUS_2, 1).irreducible


def test_field_context_trusts_isolation_only_where_checking_agrees():
    # a context opened on a root from isolate_real_roots has the root's
    # defining polynomial as its modulus, and certifies it only where sympy
    # finds it irreducible
    polys = [_mul(_linear(1, 1), _linear(2, 3), _T2_MINUS_2),
             _mul(_linear(7, -5), _poly(-2, -3, 0, 1)),
             _mul(_poly(-1, -1, 0, 1), _poly(-3, 0, 0, 0, 1))]
    seen = set()
    for p in polys:
        for r in isolate_real_roots(p):
            if r.is_rational():
                continue
            trusted = FieldContext.of_root(r)
            assert trusted.defining == r.defining
            if trusted.irreducible:
                assert sympy.Poly(to_sympy(r.defining), _t).is_irreducible
            seen.add(trusted.irreducible)
    assert seen == {True, False}


def test_binomial_irreducibility_matches_sympy():
    # Capelli's theorem against sympy's factorization, on seeded t^n - a for
    # n = 4..12: random rationals, perfect p-th powers for the primes p | n,
    # and -4 b^4; t^4 - 4, t^6 - 8 and t^8 + 64 factor, t^4 + 1 does not
    rng = random.Random(41)
    cases = [(4, Fraction(4)), (6, Fraction(8)), (8, Fraction(-64)),
             (4, Fraction(-1)), (4, Fraction(-4)), (29, Fraction(-31, 60))]
    for n in range(4, 13):
        primes = [p for p in (2, 3, 5, 7, 11) if n % p == 0]
        for _ in range(4):
            b = Fraction(rng.randint(1, 12), rng.randint(1, 7))
            sign = rng.choice((1, -1))
            cases += [(n, sign * b), (n, sign * b ** rng.choice(primes)),
                      (n, -4 * b ** 4), (n, sign * b ** rng.randint(2, 6))]
    seen = set()
    for n, a in cases:
        want = sympy.Poly(_t ** n - sympy.Rational(a.numerator, a.denominator),
                          _t, domain="QQ").is_irreducible
        assert _binomial_irreducible(n, a.numerator, a.denominator) == want, (
            n, a)
        seen.add(want)
    assert seen == {True, False}


def test_binomial_modulus_gets_the_syntactic_zero_test():
    # t^29 + 31/60 is certified irreducible, t^4 - 4 = (t^2 - 2)(t^2 + 2)
    # is not; the zero test is right either way
    m = _poly(Fraction(31, 60), *[0] * 28, 1)
    r = isolate_real_roots(m)[0]
    K = FieldContext.of_root(r)
    assert K.irreducible
    assert field_element(K, m).is_zero()
    assert not field_element(K, [1] + m[2:]).is_zero()   # c^28 + 1
    m = _poly(-4, 0, 0, 0, 1)
    K = root_field(m, 1)
    assert not K.irreducible
    c = K.generator()
    assert (c * c - 2).is_zero() and not (c * c + 2).is_zero()


def test_field_division_by_zero():
    K = sqrt2_ctx()
    with pytest.raises(ZeroDivisionError):
        K.from_rational(0).inverse()


def _inverse_vector(x):
    """The reduced vector of an element over Q, as Fractions."""
    return [Fraction(v, x.den) for v in x.vec]


def test_invert_matches_sympy():
    # den / A(c) by the integer remainder chain of (m, A), against sympy's
    # inverse of A mod m over Q: over the golden ratio's field, the cubic
    # t^3 - 2 and the quartic t^4 - 10 t^2 + 1 (sqrt2 + sqrt3), with vectors
    # of every length up to the modulus's and coefficients up to 10^30
    rng = random.Random(28)
    for m, k in ((_poly(-1, -1, 1), 1), (_poly(-2, 0, 0, 1), 0),
                 (_poly(1, 0, -10, 0, 1), 3)):
        K = root_field(m, k)
        for _ in range(12):
            A = _trim(rng.randint(-10**30, 10**30) * rng.randint(0, 1)
                      for _ in range(rng.randint(1, len(m) - 1)))
            if not A:
                continue
            den = rng.randint(1, 10**6)
            want = sympy.invert(to_sympy(A), to_sympy(m)) * den
            assert _inverse_vector(K.invert(A, den)) == from_sympy(want)
    # a zero element, and an element zero at c that divides the reducible
    # modulus (t^2 - 2)(t^2 - 3), raise and leave the modulus as it is
    m = _mul(_T2_MINUS_2, _poly(-3, 0, 1))
    K = root_field(m, 2)
    for A in ([], [-2, 0, 1], [0, -2, 0, 1]):
        with pytest.raises(ZeroDivisionError):
            K.invert(A, 1)
        assert K.defining == m
    # c^3, made before the modulus shrinks, is longer than the new one
    stale = K.generator() * K.generator() * K.generator()
    assert stale.vec == [0, 0, 0, 1]
    # a zero divisor nonzero at c: t^2 - 3 shrinks the modulus to t^2 - 2
    x = K.invert([-3, 0, 1], 5)
    assert K.defining == _T2_MINUS_2
    assert _inverse_vector(x) == [-5]
    assert _inverse_vector(K.invert(stale.vec, 1)) == from_sympy(
        sympy.invert(to_sympy(_poly(0, 0, 0, 1)), to_sympy(_T2_MINUS_2)))


def test_eval_interval_bounds():
    rng = random.Random(7)
    for _ in range(20):
        p = rand_poly(rng, rng.randint(0, 5))
        lo, hi = Fraction(-2), Fraction(3, 2)
        blo, bhi = _horner_bounds(p, lo, hi)
        for k in range(8):
            x = lo + (hi - lo) * Fraction(k, 7)
            assert blo <= _eval(p, x) <= bhi



def test_signed_sum_prints_each_coefficient_by_its_text():
    K = root_field(_T2_MINUS_2, 1)
    assert signed_sum([]) == "0"
    assert signed_sum([(Fraction(-3), "")]) == "-3"
    # a coefficient that prints as 1 or -1 is left off a monomial
    assert signed_sum([(1, "x"), (Fraction(-1), "y^2")]) == "x - y^2"
    assert signed_sum([(-1, "x*y"), (2, "")]) == "-x*y + 2"
    # an element of Q(c) equal to 1 prints as (1), and so keeps its text
    assert signed_sum([(K.from_rational(1), "s")]) == "(1)*s"
    assert signed_sum([(2, "x"), (Fraction(-3, 2), "x")]) == "2*x - 3/2*x"
    # only a part that starts with "-" joins as a difference
    assert (signed_sum([(1, "s"), (K.coefficient([-1], 2), "s^2")])
            == "s + (-0.5)*s^2")
    # over integer vectors, lowest degree first, an empty vector is zero
    assert poly_string([[1], [], [1, 2]], "c") == "[1, 2]*c^2 + [1]"
    assert poly_string([Fraction(-1), 0, 3]) == "3*t^2 - 1"
    assert poly_string([0, 0]) == "0"


def test_printing_a_q_c_polynomial_compares_no_elements(monkeypatch):
    # the printers read a coefficient's text, not its value: over Q(c) a
    # comparison with 1 would be a subtraction and a zero test
    K = root_field(_T2_MINUS_2, 1)
    p = BivarPoly.from_vectors(K, {(1, 0): [1], (0, 1): [0, 1],
                                   (2, 0): [-1]}, 1)

    def refuse(self, other):
        raise AssertionError("an element was compared")

    monkeypatch.setattr(FieldElement, "__eq__", refuse)
    assert repr(p) == "BivarPoly((1)*x + (1.41421356)*y + (-1)*x^2)"
