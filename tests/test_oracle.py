"""Numeric layer: circle extrema, exponent fits, path tracking, and the
crosscheck verdict against the exact classification."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germinv import (BivarPoly, PathCountUnstableError, analyze_germ,
                     crosscheck, oracle, parse_poly)
from germinv.oracle import (TWO_PI, _angle_grid, _angular_derivative_poly,
                            _critical_angles, _sign_certificate, _term_arrays,
                            compile_poly, critical_paths, estimate_exponent,
                            sphere_extrema)
from germinv.tangency import Restriction
from germinv.invariant import Classification

from conftest import rotate_germ


def test_compile_poly_broadcasting():
    f = parse_poly("x^2 - 3*x*y + y^3")
    ev = compile_poly(f)
    assert ev(2.0, 1.0) == pytest.approx(4.0 - 6.0 + 1.0)
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([1.0, 1.0, 1.0])
    got = ev(xs, ys)
    assert got.shape == (3,)
    assert got == pytest.approx([1.0, -1.0, -1.0])
    zero = compile_poly(parse_poly("x - x"))
    assert zero(xs, ys).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("t", [0.03, 0.1])
def test_sphere_extrema_against_dense_grid(reference_germs, t):
    # critical-angle bisection must match (and never exceed) a brute grid
    n = 200000
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    for f, *_ in reference_germs:
        e = sphere_extrema(f, t)
        vals = compile_poly(f)(t * np.cos(th), t * np.sin(th))
        gmin, gmax = float(vals.min()), float(vals.max())
        scale = max(1.0, abs(gmin), abs(gmax))
        # grid points are a subset of the circle
        assert e.fmin <= gmin + 1e-12 * scale
        assert e.fmax >= gmax - 1e-12 * scale
        # and the dense grid resolves the extrema to second order
        assert gmin - e.fmin <= 1e-7 * scale
        assert e.fmax - gmax <= 1e-7 * scale


def _scalar_angles(hf, t, grid):
    """The per-bracket scalar bisection the ladder search replaced."""
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    vals = hf(t * np.cos(thetas), t * np.sin(thetas))
    bad = np.nonzero(vals == 0.0)[0]
    if bad.size:
        step = TWO_PI / grid
        thetas = thetas.copy()
        thetas[bad] += step * 1e-6
        vals = hf(t * np.cos(thetas), t * np.sin(thetas))
    out = []
    for k in range(grid):
        a, b = thetas[k], thetas[(k + 1) % grid] + (TWO_PI if k + 1 == grid else 0.0)
        va, vb = vals[k], vals[(k + 1) % grid]
        if va == 0.0 or va * vb >= 0.0:
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            vm = float(hf(t * math.cos(m), t * math.sin(m)))
            if vm == 0.0:
                a = b = m
                break
            if (vm > 0) == (va > 0):
                a, va = m, vm
            else:
                b = m
            if b - a < 1e-15:
                break
        out.append((0.5 * (a + b)) % TWO_PI)
    return sorted(out)


# germs whose h vanishes exactly on the grid knot at angle 0 (y divides h),
# so every rung nudges that knot
KNOT_ZERO_GERMS = ["-9*x*y^4", "x^4 - 2*x^2*y^3 + y^6", "7*x^3*y^3"]


def test_ladder_angles_match_scalar_bisection(reference_germs):
    ts = [float(t) for t in np.geomspace(1e-3, 1e-1, 5)]
    germs = [f for g, *_ in reference_germs for f in (g, rotate_germ(g))]
    for f in germs + [parse_poly(text) for text in KNOT_ZERO_GERMS]:
        h = _angular_derivative_poly(f)
        hf = compile_poly(h)
        for t, got in zip(ts, _critical_angles(h, ts, _angle_grid(1024))):
            want = _scalar_angles(hf, t, 1024)
            assert len(got) == len(want) > 0
            assert np.max(np.abs(got - np.array(want))) <= 1e-15


def _certified_grid_signs(h, t, grid):
    """The certificate's signs for h on the circle of radius t, checked
    against ev at every grid point: a certified sign is ev's sign, and an
    exact zero of ev is never certified. Returns the certified count."""
    ii, jj, cc = _term_arrays(h)
    _, cos, sin = _angle_grid(grid)
    got = _sign_certificate(ii, jj, cc, cos, sin)(t)
    want = np.sign(compile_poly(h)(t * cos, t * sin))
    sure = got != 0.0
    assert np.array_equal(got[sure], want[sure])
    assert not sure[want == 0.0].any()
    return int(sure.sum())


# at t = 1e-100 an h of order 4 or more underflows, in ev as in the product,
# and nothing is certified
@pytest.mark.parametrize("t, least", [(1e-100, 0), (1e-4, 4090),
                                      (0.1, 4090), (0.5, 4090)])
def test_certified_signs_match_ev(reference_germs, t, least):
    germs = [f for g, *_ in reference_germs for f in (g, rotate_germ(g))]
    for f in germs + [parse_poly(text) for text in KNOT_ZERO_GERMS]:
        h = _angular_derivative_poly(f)
        assert _certified_grid_signs(h, t, 4096) >= least


coefficients = st.builds(
    lambda m, e: Fraction(m) * Fraction(10) ** e,
    st.integers(-9, 9).filter(bool), st.integers(-30, 30))
h_polys = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          coefficients, min_size=1, max_size=8).map(BivarPoly)


@settings(max_examples=80, deadline=None)
@given(h_polys, st.floats(-100.0, math.log10(0.5)))
def test_certified_signs_match_ev_hypothesis(h, log_t):
    _certified_grid_signs(h, 10.0 ** log_t, 512)


@pytest.mark.parametrize("text, t", [
    # h = -2e300*x*y: at t = 1e5 its terms reach 2e310, |B| @ |w| overflows
    ("10^300*x^2 + 2*10^300*y^2", 1e5),
    # h = 9e306*(y^2 - x^2) stays finite, but past 2^1020 nothing certifies
    ("9*10^306*x*y", 0.5),
])
def test_certificate_gives_up_at_the_top_of_the_double_range(text, t):
    h = _angular_derivative_poly(parse_poly(text))
    ii, jj, cc = _term_arrays(h)
    grid = _angle_grid(1024)
    with np.errstate(over="ignore"):
        assert not _sign_certificate(ii, jj, cc, *grid[1:])(t).any()
        got = _critical_angles(h, [t], grid)[0]
        want = _scalar_angles(compile_poly(h), t, 1024)
    assert len(got) == len(want) > 0
    assert np.max(np.abs(got - np.array(want))) <= 1e-15


def test_crosscheck_evaluates_h_off_the_certified_grid_only(monkeypatch):
    # the certificate settles the grid: ev sees only the uncertified points,
    # the nudged knot at angle 0 and the bisection midpoints, never a whole
    # 4096-angle grid, and over all 40 rungs fewer points than four grids
    sizes = []
    evaluator = oracle._evaluator

    def counted(*arrays):
        ev = evaluator(*arrays)

        def sized(x, y):
            sizes.append(np.size(x))
            return ev(x, y)

        return sized

    monkeypatch.setattr(oracle, "_evaluator", counted)
    f = parse_poly("x^4 - 2*x^2*y^3 + y^6")
    assert crosscheck(f, analyze_germ(f)).passed
    assert max(sizes) < 4096
    assert sum(sizes) < 16384


def test_bracket_signs_survive_underflow():
    # |h| ~ t^2 < 1e-180 here: a product test va * vb underflows to 0 and
    # misses every sign change
    f = parse_poly("x^2 - x*y + 2*y^2")
    report = crosscheck(f, analyze_germ(f), tmin=1e-100, tmax=1e-90,
                        ladder=6, floor=1e-300)
    assert report.passed, report.failures
    assert report.path_count == 4


@pytest.mark.parametrize("text, tmax", [("x^2 + y^4", 0.1),
                                        ("(x^2 - y^3)^2", 0.1),
                                        ("x^2*y + y^4", 0.5)])
def test_crosscheck_extrema_match_sphere_extrema(text, tmax):
    # on x^2*y + y^4 up to 0.5 the critical angles move with t, and the top
    # rung has 4 of them where the others have 6
    f = parse_poly(text)
    report = crosscheck(f, analyze_germ(f), tmin=1e-3, tmax=tmax, ladder=8)
    for k, t in enumerate(report.ts):
        e = sphere_extrema(f, t)
        assert (report.psi[k], report.psibar[k]) == (e.fmin, e.fmax)


@pytest.mark.parametrize("rotate, tmin", [(False, 1e-4), (True, 1e-8)])
def test_trimmed_ladder_is_the_stable_top(rotate, tmin):
    # the rotated double cusp's branches separate like t^(1/2), so its
    # ladder resolves them down to 1e-4 and needs smaller radii to trim
    f = (rotate_germ(parse_poly("(x^2 - y^3)^2")) if rotate
         else parse_poly("x^3 + y^6"))
    report = crosscheck(f, analyze_germ(f), tmin=tmin)
    assert report.passed, report.failures
    cut = report.ts.index(report.path_tmin)
    assert cut > 0
    paths = critical_paths(f, report.ts[cut:])
    assert len(paths) == len(report.paths)
    for got, want in zip(report.paths, paths):
        assert np.array_equal(got.thetas, want.thetas)
        assert np.array_equal(got.values, want.values)
    with pytest.raises(PathCountUnstableError):
        critical_paths(f, report.ts[cut - 1:])


def test_sphere_extrema_radial():
    f = parse_poly("x^2 + y^2")
    e = sphere_extrema(f, 0.25)
    assert e.critical == []
    assert e.fmin == pytest.approx(0.0625, rel=1e-12)
    assert e.fmax == pytest.approx(0.0625, rel=1e-12)


def test_estimate_exponent_recovers_power_law():
    ts = np.geomspace(1e-4, 1e-1, 30)
    fit = estimate_exponent(ts, 3.0 * ts ** 2.5, floor=1e-14)
    assert fit.sign == 1
    assert fit.exponent == pytest.approx(2.5, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.samples_used == 30
    fit = estimate_exponent(ts, -2.0 * ts ** 3, floor=1e-14)
    assert fit.sign == -1
    assert fit.exponent == pytest.approx(3.0, abs=1e-9)


def test_estimate_exponent_below_floor():
    ts = np.geomspace(1e-4, 1e-1, 10)
    fit = estimate_exponent(ts, np.full(10, 1e-16), floor=1e-14)
    assert fit.all_below_floor
    assert fit.sign == 0
    assert math.isnan(fit.exponent)


def test_estimate_exponent_floor_discards_samples():
    ts = np.geomspace(1e-4, 1e-1, 30)
    vs = 3.0 * ts ** 4
    fit = estimate_exponent(ts, vs, floor=1e-10)
    assert fit.samples_used < 30
    assert not fit.all_below_floor
    assert fit.exponent == pytest.approx(4.0, abs=1e-9)


def test_estimate_exponent_mixed_signs():
    ts = np.array([0.01, 0.02, 0.04])
    vs = np.array([1e-3, -2e-3, 4e-3])
    fit = estimate_exponent(ts, vs, floor=1e-14)
    assert fit.r2 == 0.0
    assert fit.sign == 1  # sign of the largest-magnitude sample
    fit = estimate_exponent(ts, -vs, floor=1e-14)
    assert fit.sign == -1


def test_estimate_exponent_single_sample():
    fit = estimate_exponent([0.01, 0.1], [1e-16, 0.5], floor=1e-14)
    assert fit.samples_used == 1
    assert math.isnan(fit.exponent)
    assert fit.sign == 1


def test_critical_paths_stable_band():
    f = parse_poly("x^2 + y^4")
    paths = critical_paths(f, np.geomspace(0.05, 0.1, 5))
    assert len(paths) == 4
    for p in paths:
        assert len(p.thetas) == 5
        assert len(p.values) == 5
        # each path stays near one angle over this short band
        assert np.ptp(p.thetas) < 0.2


def test_critical_paths_kissing_branches_raise():
    # x = 2y^4 meets the y-axis with angular gap ~ 2t^3: below some radius
    # no fixed grid separates them, and tracking must refuse, not guess
    f = parse_poly("x^3 + y^6")
    with pytest.raises(PathCountUnstableError) as exc:
        critical_paths(f, np.geomspace(1e-4, 1e-1, 40))
    assert 1e-4 < exc.value.t < 1e-1


def test_crosscheck_reference_germs(reference_germs):
    for f, *_ in reference_germs:
        report = crosscheck(f, analyze_germ(f))
        assert report.passed, report.failures


def test_crosscheck_trims_unresolvable_rungs():
    f = parse_poly("x^3 + y^6")
    report = crosscheck(f, analyze_germ(f))
    assert report.passed
    assert report.path_count == 6
    # only the top of the ladder can resolve the kissing pair
    assert report.path_tmin == pytest.approx(0.1)


def test_crosscheck_radial():
    f = parse_poly("x^2 + y^2")
    report = crosscheck(f, analyze_germ(f))
    assert report.passed
    assert report.path_count == 0
    assert report.path_tmin is None
    assert report.fit_psi.exponent == pytest.approx(2.0, abs=0.05)


def test_crosscheck_k0_prediction():
    # a germ vanishing on curves through 0: psi must sit below the floor
    f = parse_poly("(x^2 - y^3)^2")
    report = crosscheck(f, analyze_germ(f))
    assert report.passed
    assert report.predicted_psi == (0, None)
    assert report.fit_psi.all_below_floor
    assert report.fit_psibar.sign == 1


def _with_classification(analysis, classification):
    return types.SimpleNamespace(curve=analysis.curve,
                                 restrictions=analysis.restrictions,
                                 classification=classification)


def test_crosscheck_rejects_wrong_sign():
    f = parse_poly("x^2 + y^4")
    a = analyze_germ(f)
    lie = Classification([Restriction(-1, Fraction(2),
                                      a.restrictions[0].branch)]
                         + list(a.restrictions[1:]))
    report = crosscheck(f, _with_classification(a, lie),
                        ladder=12, grid=1024)
    assert not report.passed
    assert any("psi" in msg and "sign" in msg for msg in report.failures)


def test_crosscheck_rejects_wrong_exponent():
    f = parse_poly("x^2 + y^4")
    a = analyze_germ(f)
    wrong = [Restriction(r.sign, r.alpha + 1, r.branch)
             for r in a.restrictions]
    report = crosscheck(f, _with_classification(a, Classification(wrong)),
                        ladder=12, grid=1024)
    assert not report.passed
    assert any("slope" in msg for msg in report.failures)


def test_crosscheck_rejects_wrong_branch_count():
    f = parse_poly("x^2 + y^4")
    a = analyze_germ(f)
    short = types.SimpleNamespace(curve=a.curve,
                                  restrictions=a.restrictions[:2],
                                  classification=a.classification)
    report = crosscheck(f, short, ladder=12, grid=1024)
    assert not report.passed
    assert any("path count" in msg for msg in report.failures)
