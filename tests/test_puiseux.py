"""Newton polygon, branch expansion, parametrization residuals, and the
chain substitution against its term-by-term formula.

The strongest check here is the residual property: substituting a branch
parametrization back into its curve must give the zero series through the
trust bound, for every branch of every curve tried.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import germinv.puiseux
from germinv import (BivarPoly, expand_branches, newton_polygon, parse_poly,
                     squarefree_part, substitute)
from germinv.errors import (TowerDepthExceededError, UnitGermError,
                            ZeroInputError)
from germinv.numberfield import FieldContext, FieldElement
from germinv.puiseux import PuiseuxSeries, _edge_roots, _transform
from germinv.tangency import ExpansionConfig, TangencyCurve, restrict

from conftest import (ROTATED_REPEATED_FACTOR, field_element,
                      golden_row_germs, random_germ, root_field, rotate_germ,
                      series_germs)


def test_newton_polygon_cusp():
    edges = newton_polygon(parse_poly("y^2 - x^3"))
    assert len(edges) == 1
    (e,) = edges
    assert e.gamma == Fraction(3, 2)
    # edge polynomial c^2 - 1 up to sign
    assert e.poly in ([-1, 0, 1], [1, 0, -1])


def test_newton_polygon_two_edges():
    # y^3 + x*y + x^5: hull (0,3)-(1,1)-(5,0); y^3 ~ x*y gives gamma 1/2,
    # x*y ~ x^5 gives gamma 4
    edges = newton_polygon(parse_poly("y^3 + x*y + x^5"))
    assert [e.gamma for e in edges] == [Fraction(1, 2), Fraction(4)]


def test_newton_polygon_rejects_units_and_zero():
    with pytest.raises(UnitGermError):
        newton_polygon(parse_poly("1 + x"))
    with pytest.raises(ZeroInputError):
        newton_polygon(BivarPoly.zero())


def test_axes_curve():
    bs = expand_branches(parse_poly("x*y"), 24)
    assert len(bs) == 4
    assert sorted(b.chart for b in bs) == ["x-axis", "x-axis",
                                           "y-axis", "y-axis"]
    assert all(b.exact and b.e == 1 for b in bs)


def test_cusp_branches_exact():
    bs = expand_branches(parse_poly("y^2 - x^3"), 24)
    assert len(bs) == 2
    for b in bs:
        assert b.chart == "y-dominant" and b.sigma == 1
        assert b.e == 2 and b.exact
        assert b.x.terms == ((2, Fraction(1)),)
    ys = sorted(b.y.terms[0][1] for b in bs)
    assert ys == [Fraction(-1), Fraction(1)]
    assert all(b.y.terms[0][0] == 3 for b in bs)


def test_quadratic_extension_branches():
    # y^2 - 2x^2: lines y = +-sqrt(2) x, coefficients in Q(sqrt2)
    bs = expand_branches(parse_poly("y^2 - 2*x^2"), 24)
    assert len(bs) == 4
    assert all(b.ctx is not None and b.exact and b.e == 1 for b in bs)
    slopes = sorted(float(b.y.terms[0][1]) / float(b.x.terms[0][1])
                    for b in bs)
    for got, want in zip(slopes, [-(2**0.5), -(2**0.5), 2**0.5, 2**0.5]):
        assert abs(got - want) < 1e-9


def test_no_real_branches():
    # y^2 + x^2 is square-free with no real points off the origin
    assert expand_branches(parse_poly("y^2 + x^2"), 24) == []


def test_tower_depth_raises():
    # branches y = +-sqrt(2)x +- c x^(5/2) need a second extension for c
    with pytest.raises(TowerDepthExceededError):
        expand_branches(parse_poly("(y^2 - 2*x^2)^2 - x^7"), 24)


def expand_curve(text):
    return expand_branches(squarefree_part(parse_poly(text)), 24)


def test_in_extension_linear_edge():
    # y = +-sqrt2 (x + x^2) +- x^(5/2): inside Q(sqrt2) the second edge
    # polynomial has irrational coefficients and a linear square-free part
    bs = expand_curve("(y^2 + 2*(x+x^2)^2 - x^5)^2 - 8*y^2*(x+x^2)^2")
    assert len(bs) == 4
    assert all(b.chart == "y-dominant" and b.sigma == 1 and b.e == 2
               and b.ctx is not None for b in bs)
    heads = sorted(float(b.y.terms[0][1]) for b in bs)
    for got, want in zip(heads, [-(2**0.5)] * 2 + [2**0.5] * 2):
        assert abs(got - want) < 1e-9
    for b in bs:
        y = dict(b.y.terms)
        assert b.exact and sorted(y) == [2, 4, 5] and y[4] == y[2]
    assert sorted(dict(b.y.terms)[5] for b in bs) == [-1, -1, 1, 1]


def test_in_extension_edge_without_real_roots():
    # the second edge polynomial, over Q(sqrt2), has no real root (counted
    # from the signs of its Sturm chain's leading coefficients): the origin
    # is an isolated real point
    assert expand_curve(
        "(y^2 + 2*x^2 + 2*x^4)^2 - 2*(x^4 - 2*x*y)^2") == []


def test_in_extension_edge_needing_a_second_extension():
    # y = +-sqrt2 x + c x^(7/6) with c^3 irrational in Q(sqrt2)
    with pytest.raises(TowerDepthExceededError):
        expand_curve("(y^2 - 2*x^2)^3 + x^7")


def test_hensel_tail_regression():
    # Tangency curve of -7y^2 + 6x^4*y - 3x^3*y^3 rotated by
    # (3/5, 4/5; -4/5, 3/5). The unrotated curve has the explicit branch
    # Y = (3/7) X^4 + O(X^10); pushing it through the rotation by hand:
    #   X = (5/3) x + (2500/567) x^4 + O(x^7)
    #   y = (4/3) x + (3125/567) x^4 + O(x^7)
    # so the lifted series must carry exactly 3125/567 at s^4.
    f = rotate_germ(parse_poly("-7*y^2 + 6*x^4*y - 3*x^3*y^3"))
    curve = TangencyCurve(f)
    bs = [b for b in curve.half_branches(12)
          if not b.exact and b.sigma == 1]
    assert len(bs) == 1
    terms = dict(bs[0].y.terms)
    assert terms[1] == Fraction(4, 3)
    assert terms[4] == Fraction(3125, 567)


def test_extend_is_prefix_stable():
    f = rotate_germ(parse_poly("-7*y^2 + 6*x^4*y - 3*x^3*y^3"))
    curve = TangencyCurve(f)
    short = [b for b in curve.half_branches(8) if not b.exact]
    long = [b for b in curve.half_branches(25) if not b.exact]
    assert len(short) == len(long) == 2
    for bs, bl in zip(short, long):
        assert bs.truncation >= 8 and bl.truncation >= 25
        ext = bs.extend(25)
        assert ext.truncation >= 25
        for a, b in ((bs, bl), (ext, bl)):
            common = min(a.truncation, b.truncation)
            for ca, cb in ((a.x, b.x), (a.y, b.y)):
                assert {k: c for k, c in ca.terms if k < common} == \
                    {k: c for k, c in cb.terms if k < common}


def test_tail_step_simple_root_check_survives_optimize():
    # the internal checks are explicit raises, which python -O keeps
    code = ("import sys\n"
            "from germinv import parse_poly\n"
            "from germinv.puiseux import _tail_step\n"
            "try:\n"
            "    _tail_step(parse_poly('y^2 - x^3'), 6)\n"
            "except RuntimeError as exc:\n"
            "    print(sys.flags.optimize, exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 a Newton step needs a simple root\n"


def test_branch_order_deterministic():
    p = parse_poly("x*y*(x^2 - y^3)")
    a = [b.describe() for b in expand_branches(p, 24)]
    b = [b.describe() for b in expand_branches(p, 24)]
    assert a == b


def test_branch_order_by_chart_gamma_side_and_coefficient():
    # y-dominant rows sort by gamma = (exponent of y's lead) / e, then the
    # side sigma = +1 first, then the leading coefficient of y
    p = parse_poly("x*(y - x^2)*(y + x^2)*(y^2 - x^3 - x^4)")
    got = [(b.chart, b.sigma, Fraction(b.y.lead()[0], b.e), b.y.lead()[1])
           for b in expand_branches(p, 24)]
    half = Fraction(3, 2)
    assert got == [("y-axis", 1, 1, 1), ("y-axis", -1, 1, -1),
                   ("y-dominant", 1, half, -1), ("y-dominant", 1, half, 1),
                   ("y-dominant", 1, 2, -1), ("y-dominant", 1, 2, 1),
                   ("y-dominant", -1, 2, -1), ("y-dominant", -1, 2, 1)]


def series_rows(branches):
    """(chart, sigma, e, x, y) per half-branch, the series as printed."""
    return [[b.chart, b.sigma, b.e, b.x.to_string(), b.y.to_string()]
            for b in branches]


def test_branch_series_match_golden():
    # every half-branch's printed series, in branch order, at the default
    # order and at 30: the mirrored halves and their sort order are pinned
    path = Path(__file__).resolve().parent / "golden" / "branch_series.json"
    golden = json.loads(path.read_text())
    germs = series_germs()
    assert [f.to_string() for f in germs] == [g["germ"] for g in golden]
    for f, g in zip(germs, golden):
        curve = TangencyCurve(f)
        got = {str(order): series_rows(curve.half_branches(order))
               for order in (12, 30)}
        assert got == g["rows"], g["germ"]


def negated(series: PuiseuxSeries) -> str:
    return PuiseuxSeries([(k, -c) for k, c in series.terms],
                         series.truncation, series.exact).to_string()


def reflected_rows(curve: BivarPoly, axis: str) -> list:
    """The rows of curve(-x, y) (axis "x") or curve(x, -y) (axis "y"), read
    off the branches of the curve: the reflected coordinate's series
    negates, and so does sigma where that coordinate is the exact monomial
    one (x in the y-dominant chart and on the x-axis, y in the others)."""
    monomial = (("x-axis", "y-dominant") if axis == "x"
                else ("y-axis", "x-dominant"))
    rows = []
    for b in expand_branches(curve, 24):
        sigma = -b.sigma if b.chart in monomial else b.sigma
        x, y = ((negated(b.x), b.y.to_string()) if axis == "x"
                else (b.x.to_string(), negated(b.y)))
        rows.append([b.chart, sigma, b.e, x, y])
    return sorted(rows)


def assert_reflection_law(curve: BivarPoly) -> None:
    X, Y = BivarPoly.var_x(), BivarPoly.var_y()
    for axis, image in (("x", curve.compose(-X, Y)),
                        ("y", curve.compose(X, -Y))):
        try:
            want = reflected_rows(curve, axis)
        except TowerDepthExceededError:
            with pytest.raises(TowerDepthExceededError):
                expand_branches(image, 24)
            continue
        assert sorted(series_rows(expand_branches(image, 24))) == want, \
            (curve.to_string(), axis)


def test_simple_edge_roots_are_read_off_the_z_term(monkeypatch):
    # _np_branches calls an edge root c simple when p1 = q(u^b, u^a (c + z))
    # / u^v has a z term: p1(0, z) = (c + z)^j E(c + z), so that term is
    # c^j E'(c) z with c != 0. Here E'(c) != 0 is evaluated instead, on
    # each root at the first substitution by it, the one _np_branches makes.
    # The last curve is (y -+ sqrt2 x)^2 = x^3: a double root sqrt2 opens
    # Q(sqrt2), where E'(c) is an element that is zero
    edge_roots, transform = germinv.puiseux._edge_roots, _transform
    pending, seen = {}, []

    def recorded_roots(E, ctx, b):
        out = edge_roots(E, ctx, b)
        pending.update((id(c), (c, E, ctx)) for c, _ in out)
        return out

    def recorded_transform(q, a, b, c):
        v, p1 = transform(q, a, b, c)
        c0, E, ctx = pending.pop(id(c), (None, None, None))
        if c0 is c:
            # E'(c) by Horner; E holds integers, or vectors over Q(c)
            value = 0
            for k in range(len(E) - 1, 0, -1):
                e = E[k]
                if ctx is not None:
                    e = ctx.coefficient(e, 1) if e else 0
                value = value * c + k * e
            seen.append(((0, 1) in p1.support, bool(value),
                         isinstance(c, FieldElement)))
        return v, p1

    monkeypatch.setattr(germinv.puiseux, "_edge_roots", recorded_roots)
    monkeypatch.setattr(germinv.puiseux, "_transform", recorded_transform)
    curves = [TangencyCurve(f) for f in golden_row_germs()]
    curves = [c.h_sf for c in curves if not c.degenerate]
    for curve in curves + [parse_poly("(y^2 + 2*x^2 - x^3)^2 - 8*x^2*y^2")]:
        expand_branches(curve, 24)
    assert all(z_term == simple for z_term, simple, _ in seen)
    # simple and multiple roots, rational and in Q(c), are all met
    assert {(s, e) for _, s, e in seen} == {(True, False), (False, False),
                                            (True, True), (False, True)}


def test_reflections_map_branches_onto_branches():
    # x -> -x sends a half-branch of h to one of h(-x, y): sigma flips in
    # the y-dominant chart and on the x-axis, the x-series negates in the
    # x-dominant chart, and the y-axis stays; likewise for y -> -y
    for f in golden_row_germs():
        curve = TangencyCurve(f)
        if not curve.degenerate:
            assert_reflection_law(curve.h_sf)


@st.composite
def small_curves(draw):
    monomials = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
        lambda ij: 1 <= sum(ij) <= 6)
    terms = draw(st.dictionaries(monomials, st.integers(-5, 5).filter(bool),
                                 min_size=1, max_size=5))
    return squarefree_part(BivarPoly({ij: Fraction(c)
                                      for ij, c in terms.items()}))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_curves())
def test_reflections_map_branches_onto_branches_hypothesis(curve):
    assert_reflection_law(curve)


def residual_is_zero(curve: BivarPoly, order: int = 18) -> bool:
    for b in expand_branches(curve, order):
        if substitute(curve, b).terms != ():
            return False
    return True


def test_residuals_on_known_curves():
    for txt in ("y^2 - x^3", "x*y", "y^2 - 2*x^2", "(y - x^2)^2 - x^5",
                "y^3 - x^7", "x^2*y - x^5 + y^4"):
        assert residual_is_zero(parse_poly(txt)), txt


def test_residuals_on_random_tangency_curves():
    rng = random.Random(20260816)
    checked = 0
    while checked < 15:
        f = random_germ(rng)
        if f.is_zero():
            continue
        curve = TangencyCurve(f)
        if curve.degenerate:
            continue
        try:
            for b in curve.half_branches(16):
                assert substitute(curve.h_sf, b).terms == ()
        except TowerDepthExceededError:
            continue
        checked += 1


def transform_by_terms(q, a, b, c):
    """(v, coefficients) of q(u^b, u^a (c + z)) / u^v computed coefficient
    by coefficient, in the coefficients' own arithmetic, its zeros dropped:
    the reference for ``_transform``."""
    v = min(i * b + j * a for (i, j) in q.terms)
    cpows = [Fraction(1)]
    for _ in range(q.deg_y()):
        cpows.append(cpows[-1] * c)
    out = {}
    for (i, j), coeff in q.terms.items():
        base = i * b + j * a - v
        for l in range(j + 1):
            t = coeff * (comb(j, l) * cpows[j - l])
            cur = out.get((base, l))
            out[(base, l)] = t if cur is None else cur + t
    return v, {key: x for key, x in out.items() if x}


def assert_same_transform(got, want, ctx=None):
    # the same keys in the same order; over Q (no ctx) per key the same
    # type and value, and over Q(c) per key an element of the same field
    # with the same reduced vector over the same denominator
    assert got[0] == want[0]
    terms = got[1].terms
    assert list(terms) == list(want[1])
    assert (got[1].integer_form() is None) == (ctx is not None)
    for key, w in want[1].items():
        g = terms[key]
        if ctx is None:
            assert type(g) is type(w) and g == w, key
        else:
            w = ctx.coerce(w)
            assert isinstance(g, FieldElement) and g.ctx is ctx, key
            assert (g.vec, g.den) == (w.vec, w.den), key


def poly_over(ctx, terms):
    """The polynomial over Q(c), c the generator of ctx, with a term map of
    rationals and elements: their vectors over one denominator."""
    xs = {ij: ctx.coerce(x) for ij, x in terms.items()}
    den = lcm(*(x.den for x in xs.values()))
    return BivarPoly.from_vectors(
        ctx, {ij: [v * (den // x.den) for v in x.vec] for ij, x in xs.items()},
        den)


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_transform_input(rng, ctx):
    """(q, a, b) for a random q whose coefficients are rationals and, with a
    field ctx, elements of it."""
    terms = {}
    for _ in range(rng.randint(1, 7)):
        ij = (rng.randint(0, 4), rng.randint(0, 4))
        if ctx is not None and rng.random() < 0.6:
            terms[ij] = field_element(
                ctx, [random_fraction(rng) for _ in ctx.defining[1:]])
        else:
            terms[ij] = random_fraction(rng)
    if any(isinstance(x, FieldElement) for x in terms.values()):
        q = poly_over(ctx, terms)
    else:
        q = BivarPoly(terms)
    if q.is_zero():
        q = BivarPoly({(1, 1): Fraction(1)})
    return q, rng.randint(1, 4), rng.randint(1, 3)


# (modulus coefficients, lowest first, and the index of the generator among
# its real roots, ascending)
FIELDS = {
    "quadratic": ([Fraction(-2, 3), 0, 1], 1),         # sqrt(2/3)
    "cubic": ([Fraction(-1, 2), -1, 0, 1], 0),         # its one real root
    "capelli": ([-3, 0, 0, 0, 1], 1),                  # 3^(1/4)
    # (t^2 - 2)(t^2 - 1/3) around sqrt(2): not certified irreducible
    "reducible": ([Fraction(2, 3), 0, Fraction(-7, 3), 0, 1], 3),
}


_t = sympy.Symbol("t")


def sympy_poly(cs):
    """Rationals, lowest degree first, as a sympy polynomial over Q in t."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in map(Fraction, reversed(cs))] or [0], _t,
                      domain="QQ")


def as_q_poly(x):
    """A coefficient as a polynomial over Q in the generator: the form of
    the reference arithmetic, sympy's over Q mod the modulus."""
    if isinstance(x, FieldElement):
        return sympy_poly([Fraction(v, x.den) for v in x.vec])
    return sympy_poly([x])


def assert_canonical(x):
    # reduced when made, no trailing zero, over den > 0 coprime to the vector
    assert x.den > 0 and gcd(*x.vec, x.den) == 1
    assert not x.vec or x.vec[-1]
    assert len(x.vec) < len(x.ctx.defining)


def check_field_arithmetic(ctx, xs, rng):
    """+ - * / and inverse on random pairs from xs, an element first and an
    element or a rational second, in both orders, against the reference."""
    def m():
        return sympy_poly(ctx.defining)

    def ref(x):
        return as_q_poly(x).rem(m())

    for _ in range(40):
        a, b = ctx.coerce(rng.choice(xs)), rng.choice(xs)
        for x, y in ((a, b), (b, a)):
            for got, want in ((x + y, ref(x) + ref(y)),
                              (x - y, ref(x) - ref(y)),
                              (x * y, ref(x) * ref(y))):
                assert_canonical(got)
                assert ref(got) == want.rem(m())
            if y:
                got = x / y
                assert_canonical(got)
                assert (ref(got) * ref(y)).rem(m()) == ref(x)
        if b:
            inv = ctx.coerce(b).inverse()
            assert_canonical(inv)
            assert (ref(inv) * ref(b)).rem(m()) == sympy_poly([1])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_arithmetic_is_canonical_and_matches_q_polynomials(name):
    ctx = root_field(*FIELDS[name])
    rng = random.Random(f"canonical {name}")

    def draw():
        if rng.random() < 0.25:
            return random_fraction(rng)
        return field_element(
            ctx, [random_fraction(rng) for _ in ctx.defining[1:]])

    xs = [draw() for _ in range(12)] + [ctx.from_rational(0)]
    check_field_arithmetic(ctx, xs, rng)
    if name == "reducible":
        # c^2 - 1/3 is a zero divisor mod (t^2 - 2)(t^2 - 1/3): its inverse
        # shrinks the modulus to t^2 - 2, and the elements made before go on
        assert not ctx.irreducible
        c = ctx.generator()
        assert (c * c - Fraction(1, 3)).inverse() == Fraction(3, 5)
        assert ctx.defining == [Fraction(-2), 0, Fraction(1)]
        assert ctx.irreducible
        check_field_arithmetic(ctx, xs + [draw() for _ in range(12)], rng)


def field_poly(ctx, *factors):
    """The product of polynomials with coefficients rationals and elements
    of ctx's field, lowest degree first, as an edge polynomial over Q(c)
    holds it: integer vectors over one denominator."""
    out = [ctx.from_rational(1)]
    for f in factors:
        prod = [ctx.from_rational(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] = prod[i + j] + a * b
        out = prod
    den = lcm(*(x.den for x in out))
    return [[v * (den // x.den) for v in x.vec] for x in out]


def test_edge_roots_over_extension():
    # the Sturm chain of an edge polynomial E with irrational coefficients,
    # on integer vectors, over Q(sqrt2), over the reducible modulus
    # (t^2 - 2)(t^2 - 1/3) and over t^4 - 10 t^2 + 1 around sqrt2 + sqrt3,
    # irreducible but not certified: E's real roots counted from its
    # chain's leading coefficients, the root of a linear square-free part,
    # and a give-up otherwise; E from known factors, some repeated, and the
    # real-rootless z^2 + g
    contexts = [root_field([-2, 0, 1], 1), root_field(*FIELDS["reducible"]),
                root_field([1, 0, -10, 0, 1], 3)]
    assert [K.irreducible for K in contexts] == [True, False, False]
    for K in contexts:
        g = K.generator()
        line, quad = [-g, 1], [g, 0, 1]   # z - g, and z^2 + g > 0
        cases = [
            ((line, line, line), [g]),
            (([1, g], [1, g]), [-1 / g]),
            (([-1, 1], [-1, 1], [g]), [1]),     # a rational root
            ((quad,), []),
            ((quad, quad, [1, 0, 1]), []),
            (([-g, 0, 1],), None),              # +-g^(1/2), not in Q(g)
            (([-g, 0, 1], [-g, 0, 1], [-1, 1]), None),
            (([g, 1], [g, 1], [g, 1], [1, 0, 1]), None),  # one real root
            ((line, [-2 * g, 1]), None),        # g and 2 g, two roots
        ]
        for factors, want in cases:
            E = field_poly(K, *factors)
            assert any(len(v) > 1 for v in E)
            if want is None:
                with pytest.raises(TowerDepthExceededError):
                    _edge_roots(E, K, 1)
            else:
                got = _edge_roots(E, K, 1)
                assert len(got) == len(want)
                assert all(c == w and ctx is K
                           for (c, ctx), w in zip(got, want))


def test_even_b_edge_opens_fields_only_for_kept_roots(monkeypatch):
    # an even-b edge has its roots in pairs +-c and expands the positive
    # ones; (y^2 - 2x^3)(y^2 + 3x^3) has +-sqrt(2) at x > 0 and +-sqrt(3) at
    # x < 0, and opens one field per kept root, where it opened one per root
    made = []

    class Counted(FieldContext):
        __slots__ = ()

        @classmethod
        def of_root(cls, r):
            made.append(r)
            return super().of_root(r)

    monkeypatch.setattr(germinv.puiseux, "FieldContext", Counted)
    bs = expand_branches(parse_poly("(y^2 - 2*x^3)*(y^2 + 3*x^3)"), 24)
    assert len(bs) == 4
    assert len(made) == len({id(b.ctx) for b in bs if b.ctx is not None}) == 2


def test_transform_matches_term_by_term_over_q():
    rng = random.Random(20261019)
    for _ in range(60):
        q, a, b = random_transform_input(rng, None)
        c = random_fraction(rng) or Fraction(1)
        assert_same_transform(_transform(q, a, b, c),
                               transform_by_terms(q, a, b, c))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_transform_matches_term_by_term_in_extension(name):
    ctx = root_field(*FIELDS[name])
    assert ctx.irreducible == (name != "reducible")
    # along z = c u, c the generator g, h y - h g x with h = g^(deg - 1)
    # has the coefficient h c - h g = 0, which is zero only after reduction
    g = ctx.generator()
    h = field_element(ctx, [0] * (len(ctx.defining) - 2) + [1])
    q = poly_over(ctx, {(0, 1): h, (1, 0): -(h * g)})
    got = _transform(q, 1, 1, g)
    assert (0, 0) not in got[1].terms
    assert_same_transform(got, transform_by_terms(q, 1, 1, g), ctx)
    rng = random.Random(name)
    for k in range(30):
        q, a, b = random_transform_input(rng, ctx)
        # an extension c, the generator itself, and a rational c in Q(c)
        c = (field_element(ctx, [random_fraction(rng),
                                 random_fraction(rng) or 1])
             if k % 3 == 0 else ctx.generator() if k % 3 == 1
             else random_fraction(rng) or Fraction(1))
        # the output is over Q(c) unless q and c are both rational
        field = (ctx if q.integer_form() is None
                 or isinstance(c, FieldElement) else None)
        assert_same_transform(_transform(q, a, b, c),
                              transform_by_terms(q, a, b, c), field)


def test_transform_in_extension_makes_no_field_arithmetic(monkeypatch):
    # the substitution runs on integer vectors and reduces each output
    # vector once: no product or sum of field elements on the way, and no
    # element and no Fraction made; every output coefficient then reads as
    # an element of Q(c)
    f = rotate_germ(parse_poly(ROTATED_REPEATED_FACTOR))
    curve = TangencyCurve(f)
    config = ExpansionConfig()
    calls = []
    transform = germinv.puiseux._transform

    def recorded(*args):
        calls.append(args)
        return transform(*args)

    monkeypatch.setattr(germinv.puiseux, "_transform", recorded)
    for b in curve.half_branches(config.order):
        restrict(f, b, config, curve)
    monkeypatch.undo()
    args = next(a for a in calls if isinstance(a[3], FieldElement))
    ops = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        method = getattr(FieldElement, name)

        def counted(self, other, method=method, name=name):
            ops.append(name)
            return method(self, other)

        monkeypatch.setattr(FieldElement, name, counted)
    made, elements = [], []
    new, init = Fraction.__new__, FieldElement.__init__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def counted_init(self, *args):
        elements.append(args)
        init(self, *args)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(FieldElement, "__init__", counted_init)
    v, p = _transform(*args)
    monkeypatch.setattr(Fraction, "__new__", new)
    assert ops == [] and made == [] and elements == []
    assert p.integer_form() is None and p.terms
    assert all(isinstance(c, FieldElement) for c in p.terms.values())
    assert len(elements) == len(p.terms)
    transform_by_terms(*args)
    assert len(ops) > 100
