"""Newton polygon, branch expansion, and parametrization residuals.

The strongest check here is the residual property: substituting a branch
parametrization back into its curve must give the zero series through the
trust bound, for every branch of every curve tried.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from germinv import (BivarPoly, expand_branches, newton_polygon, parse_poly,
                     substitute)
from germinv.errors import (TowerDepthExceededError, UnitGermError,
                            ZeroInputError)
from germinv.tangency import TangencyCurve

from conftest import random_germ, rotate_germ


def test_newton_polygon_cusp():
    edges = newton_polygon(parse_poly("y^2 - x^3"))
    assert len(edges) == 1
    (e,) = edges
    assert e.gamma == Fraction(3, 2)
    # edge polynomial c^2 - 1 up to sign
    assert e.poly.coeffs in ([Fraction(-1), Fraction(0), Fraction(1)],
                             [Fraction(1), Fraction(0), Fraction(-1)])


def test_newton_polygon_two_edges():
    # y^3 + x*y + x^5: hull (0,3)-(1,1)-(5,0); y^3 ~ x*y gives gamma 1/2,
    # x*y ~ x^5 gives gamma 4
    edges = newton_polygon(parse_poly("y^3 + x*y + x^5"))
    assert sorted(e.gamma for e in edges) == [Fraction(1, 2), Fraction(4)]


def test_newton_polygon_rejects_units_and_zero():
    with pytest.raises(UnitGermError):
        newton_polygon(parse_poly("1 + x"))
    with pytest.raises(ZeroInputError):
        newton_polygon(BivarPoly.zero())


def test_axes_curve():
    bs = expand_branches(parse_poly("x*y"))
    assert len(bs) == 4
    assert sorted(b.chart for b in bs) == ["x-axis", "x-axis",
                                           "y-axis", "y-axis"]
    assert all(b.exact and b.e == 1 for b in bs)


def test_cusp_branches_exact():
    bs = expand_branches(parse_poly("y^2 - x^3"))
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
    bs = expand_branches(parse_poly("y^2 - 2*x^2"))
    assert len(bs) == 4
    assert all(b.ctx is not None and b.exact and b.e == 1 for b in bs)
    slopes = sorted(float(b.y.terms[0][1]) / float(b.x.terms[0][1])
                    for b in bs)
    for got, want in zip(slopes, [-(2**0.5), -(2**0.5), 2**0.5, 2**0.5]):
        assert abs(got - want) < 1e-9


def test_no_real_branches():
    # y^2 + x^2 is square-free with no real points off the origin
    assert expand_branches(parse_poly("y^2 + x^2")) == []


def test_tower_depth_raises():
    # branches y = +-sqrt(2)x +- c x^(5/2) need a second extension for c
    with pytest.raises(TowerDepthExceededError):
        expand_branches(parse_poly("(y^2 - 2*x^2)^2 - x^7"))


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


def test_hensel_simple_root_check_survives_optimize():
    # the internal checks are explicit raises, which python -O keeps
    code = ("import sys\n"
            "from germinv import parse_poly\n"
            "from germinv.puiseux import _hensel_tail\n"
            "try:\n"
            "    _hensel_tail(parse_poly('y^2 - x^3'), 6)\n"
            "except RuntimeError as exc:\n"
            "    print(sys.flags.optimize, exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 Hensel lifting needs a simple root\n"


def test_branch_order_deterministic():
    p = parse_poly("x*y*(x^2 - y^3)")
    a = [b.describe() for b in expand_branches(p)]
    b = [b.describe() for b in expand_branches(p)]
    assert a == b


def test_branch_order_by_chart_gamma_side_and_coefficient():
    # y-dominant rows sort by gamma = (exponent of y's lead) / e, then the
    # side sigma = +1 first, then the leading coefficient of y
    p = parse_poly("x*(y - x^2)*(y + x^2)*(y^2 - x^3 - x^4)")
    got = [(b.chart, b.sigma, Fraction(b.y.lead()[0], b.e), b.y.lead()[1])
           for b in expand_branches(p)]
    half = Fraction(3, 2)
    assert got == [("y-axis", 1, 1, 1), ("y-axis", -1, 1, -1),
                   ("y-dominant", 1, half, -1), ("y-dominant", 1, half, 1),
                   ("y-dominant", 1, 2, -1), ("y-dominant", 1, 2, 1),
                   ("y-dominant", -1, 2, -1), ("y-dominant", -1, 2, 1)]


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
