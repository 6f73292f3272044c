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
from germinv.oracle import (_POW_U, R2_MIN, TWO_PI, _angle_grid,
                            _angular_derivative_poly, _check_fit,
                            _critical_angles, _nearest_maps,
                            _SignCertificate, _term_arrays, _track,
                            compile_poly, critical_paths, estimate_exponent,
                            sphere_extrema, FitResult, SphereExtrema)
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
    got = np.empty(grid)
    got[_SignCertificate(ii, jj, cc, [t], cos, sin).grid(0, got)] = 0.0
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


def _certified_point_signs(h, t, angles):
    """The certificate's signs for h at the given angles on the circle of
    radius t, as the bisection asks for them, checked against ev there: a
    certified sign is ev's sign, and an exact zero of ev is never
    certified. Returns the certified count."""
    ii, jj, cc = _term_arrays(h)
    _, cos, sin = _angle_grid(8)
    x, y = t * np.cos(angles), t * np.sin(angles)
    got = _SignCertificate(ii, jj, cc, [t], cos, sin).at(
        x, y, np.zeros(angles.size, dtype=int))
    want = np.sign(compile_poly(h)(x, y))
    sure = got != 0.0
    assert np.array_equal(got[sure], want[sure])
    assert not sure[want == 0.0].any()
    return int(sure.sum())


# the axis angles, where x or y is 0 or a rounding error away from it, and
# the 1024-grid's knots nudged as _critical_angles nudges a knot zero
_SPECIAL_ANGLES = np.concatenate([
    [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
    _angle_grid(1024)[0] + TWO_PI / 1024 * 1e-6])


def _near_roots(h, t):
    """The sign changes of h on the circle of radius t, and a few doubles
    either side of each: where the last bisection steps land and h is all
    cancellation."""
    roots = _critical_angles(h, [t], _angle_grid(512))[0]
    return (roots[:, None] + np.arange(-4, 5) * np.spacing(roots)[:, None]
            ).ravel()


@pytest.mark.parametrize("t", [1e-4, 0.1, 0.5])
def test_certified_midpoint_signs_match_ev(reference_germs, t):
    angles = np.concatenate([
        np.random.default_rng(4).uniform(0.0, TWO_PI, 2000),
        _SPECIAL_ANGLES])
    germs = [f for g, *_ in reference_germs for f in (g, rotate_germ(g))]
    for f in germs + [parse_poly(text) for text in KNOT_ZERO_GERMS]:
        h = _angular_derivative_poly(f)
        assert _certified_point_signs(h, t, angles) >= 3000
        _certified_point_signs(h, t, _near_roots(h, t))


def test_nothing_is_certified_where_h_underflows():
    # at t = 1e-100 these h, of order 4 and more, are 0 in ev at every
    # point, and the certificate leaves every point to it
    angles = np.concatenate([np.linspace(0.0, TWO_PI, 500), _SPECIAL_ANGLES])
    for text in KNOT_ZERO_GERMS:
        h = _angular_derivative_poly(parse_poly(text))
        assert _certified_point_signs(h, 1e-100, angles) == 0
        assert _certified_grid_signs(h, 1e-100, 1024) == 0


@settings(max_examples=80, deadline=None)
@given(h_polys, st.floats(-100.0, math.log10(0.5)),
       st.lists(st.floats(0.0, TWO_PI, exclude_max=True), max_size=64))
def test_certified_midpoint_signs_match_ev_hypothesis(h, log_t, angles):
    t = 10.0 ** log_t
    _certified_point_signs(h, t, np.concatenate([angles, _SPECIAL_ANGLES,
                                                 _near_roots(h, t)]))


def _exact_ulp(e: Fraction) -> Fraction:
    """The spacing of doubles at |e| != 0, 2^-1074 below the normal range."""
    e = abs(e)
    k = e.numerator.bit_length() - e.denominator.bit_length()
    if Fraction(2) ** k > e:
        k -= 1
    return Fraction(2) ** max(k - 52, -1074)


def test_pow_errs_within_the_certificates_allowance():
    # the bound takes each pow within _POW_U units of u, _POW_U / 2 ulps:
    # numpy's pow on nonnegative bases (the certificate's) and on negative
    # ones (ev's), against exact powers, down into the subnormal range
    rng = np.random.default_rng(6)
    x = np.ldexp(rng.uniform(1.0, 2.0, 150), rng.integers(-1075, 0, 150))
    x = np.concatenate([x, [5e-324, 2.0 ** -1022, 0.5, 1.0 - 2.0 ** -53]])
    for bases in (x, -x):
        got = bases[:, None] ** np.arange(13)
        for b, row in zip(bases.tolist(), got.tolist()):
            for i, r in enumerate(row):
                e = Fraction(b) ** i
                if e:
                    assert abs(Fraction(r) - e) <= _POW_U / 2 * _exact_ulp(e)
                else:
                    assert r == 0.0


def _critical_angles_by_ev(h, ts, grid):
    """_critical_angles with every sign read off ev itself, as it was before
    any sign was certified: what the certified search must give exactly."""
    ev = compile_poly(h)
    base, cos, sin = _angle_grid(grid)
    brackets = []
    for t in ts:
        thetas = base
        signs = np.sign(ev(t * cos, t * sin))
        bad = np.flatnonzero(signs == 0.0)
        if bad.size:
            thetas = base.copy()
            thetas[bad] += TWO_PI / grid * 1e-6
            moved = thetas[bad]
            signs[bad] = np.sign(ev(t * np.cos(moved), t * np.sin(moved)))
        ends = np.append(thetas[1:], thetas[0] + TWO_PI)
        nxt = np.roll(signs, -1)
        hit = (signs != 0.0) & (nxt != 0.0) & ((signs > 0) != (nxt > 0))
        brackets.append((thetas[hit], ends[hit], signs[hit]))
    a, b, va = (np.concatenate(c) for c in zip(*brackets))
    counts = [len(v) for _, _, v in brackets]
    t = np.repeat(np.asarray(ts, dtype=float), counts)
    live = np.arange(a.size)
    for _ in range(200):
        if not live.size:
            break
        m = 0.5 * (a[live] + b[live])
        vm = ev(t[live] * np.cos(m), t[live] * np.sin(m))
        zero = vm == 0.0
        up = ~zero & ((vm > 0) == (va[live] > 0))
        down = ~zero & ~up
        a[live[up]], va[live[up]] = m[up], vm[up]
        b[live[down]] = m[down]
        a[live[zero]] = b[live[zero]] = m[zero]
        live = live[~zero & ~(b[live] - a[live] < 1e-15)]
    angles = (0.5 * (a + b)) % TWO_PI
    return [np.sort(r) for r in np.split(angles, np.cumsum(counts)[:-1])]


# coefficients across the double range, and radii past 1, so that some
# rungs overflow and ev returns inf or NaN there
wide_h_polys = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.builds(lambda m, e: Fraction(m) * Fraction(10) ** e,
              st.integers(-99, 99).filter(bool), st.integers(-300, 300)),
    min_size=1, max_size=8).map(BivarPoly)


@settings(max_examples=150, deadline=None)
@given(wide_h_polys,
       st.lists(st.floats(-150.0, 3.0), min_size=1, max_size=5),
       st.sampled_from([16, 64, 256, 1000]))
def test_critical_angles_are_evs_own(h, log_ts, grid):
    ts = [10.0 ** e for e in sorted(log_ts)]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _critical_angles(h, ts, _angle_grid(grid))
        want = _critical_angles_by_ev(h, ts, grid)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


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
    cert = _SignCertificate(ii, jj, cc, [t], *grid[1:])
    assert cert.grid(0, np.empty(1024)).size == 1024
    x, y = t * grid[1], t * grid[2]
    assert not cert.at(x, y, np.zeros(1024, dtype=int)).any()
    with np.errstate(over="ignore"):
        got = _critical_angles(h, [t], grid)[0]
        want = _scalar_angles(compile_poly(h), t, 1024)
    assert len(got) == len(want) > 0
    assert np.max(np.abs(got - np.array(want))) <= 1e-15


def test_certificate_holds_below_an_overflowing_rung():
    # in one ladder the rung at 1e-3 is certified as usual and the one at
    # 1e5, where h = -2e300*x*y overflows, is left to ev
    h = _angular_derivative_poly(parse_poly("10^300*x^2 + 2*10^300*y^2"))
    ii, jj, cc = _term_arrays(h)
    grid = _angle_grid(1024)
    ts = [1e-3, 1e5]
    cert = _SignCertificate(ii, jj, cc, ts, *grid[1:])
    assert cert.grid(0, np.empty(1024)).size < 10
    assert cert.grid(1, np.empty(1024)).size == 1024
    x = np.concatenate([t * grid[1] for t in ts])
    y = np.concatenate([t * grid[2] for t in ts])
    got = cert.at(x, y, np.repeat([0, 1], 1024))
    assert np.count_nonzero(got[:1024]) > 1000
    assert not got[1024:].any()
    with np.errstate(over="ignore"):
        for t, got in zip(ts, _critical_angles(h, ts, grid)):
            want = _scalar_angles(compile_poly(h), t, 1024)
            assert len(got) == len(want) > 0
            assert np.max(np.abs(got - np.array(want))) <= 1e-15


def _scalar_circ_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _nearest_by_min(angles, theta):
    return min(range(len(angles)),
               key=lambda j: _scalar_circ_dist(angles[j], theta))


def _track_by_min(rungs):
    """_track as it was, scanning every angle of the next rung per path."""
    tracked, exc = [], None
    for e in reversed(rungs):
        crit = e.critical
        if tracked and len(crit) != len(tracked[-1]):
            exc = PathCountUnstableError(
                f"critical angle count changed from {len(tracked[-1])} to "
                f"{len(crit)}", e.t)
            break
        if tracked:
            angles = [a for a, _ in crit]
            picks = [_nearest_by_min(angles, theta)
                     for theta, _ in tracked[-1]]
            if len(set(picks)) < len(picks):
                exc = PathCountUnstableError(
                    "critical paths collided during continuation", e.t)
                break
            crit = [crit[j] for j in picks]
        tracked.append(crit)
    if exc is not None:
        del tracked[sum(e.t > exc.t for e in rungs):]
    return tracked[::-1], exc


# dyadic angles give exact distance ties and duplicates; those near 0 and
# 2pi wrap around; runs of adjacent doubles far from a tiny angle round to
# equal distances
track_angles = st.one_of(
    st.sampled_from([j / 8 for j in range(51)]),
    st.sampled_from([0.0, 5e-324, 1e-17, math.pi,
                     math.nextafter(TWO_PI, 0.0)]),
    st.builds(lambda v, k: v + k * math.ulp(v),
              st.sampled_from([1.0, 3.0, 6.0, 6.25]), st.integers(0, 3)),
    st.floats(0.0, TWO_PI, exclude_max=True))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(track_angles, track_angles), min_size=1,
                max_size=12))
def test_nearest_maps_pick_as_min_does(pairs):
    here = sorted(a for a, _ in pairs)
    there = sorted(b for _, b in pairs)
    got = _nearest_maps(np.array([here, there]))[0].tolist()
    assert got == [_nearest_by_min(there, a) for a in here]


@st.composite
def ladders(draw):
    """Rungs of ascending (sometimes equal) radii whose angle counts mostly
    agree, each either fresh angles or the rung above moved a little."""
    k = draw(st.integers(0, 5))
    ts = sorted(draw(st.lists(st.sampled_from([0.01, 0.02, 0.05, 0.1]),
                              min_size=1, max_size=8)))
    rungs, angles = [], None
    for t in reversed(ts):
        if angles is not None and draw(st.booleans()):
            step = draw(st.sampled_from([0.0, 1e-3, 0.125, -0.125, 3.0]))
            angles = sorted((a + step) % TWO_PI for a in angles)
        else:
            m = draw(st.sampled_from([k, k, k, k + 1, max(k - 1, 0)]))
            angles = sorted(draw(st.lists(track_angles, min_size=m,
                                          max_size=m)))
        rungs.append(SphereExtrema(t, 0.0, 0.0,
                                   [(a, float(j)) for j, a in
                                    enumerate(angles)]))
    return rungs[::-1]


@settings(max_examples=300, deadline=None)
@given(ladders())
def test_track_matches_the_full_scan(rungs):
    got, exc = _track(rungs)
    want, want_exc = _track_by_min(rungs)
    assert got == want
    assert repr(exc) == repr(want_exc)
    assert (exc and exc.t) == (want_exc and want_exc.t)


def test_crosscheck_evaluates_h_off_the_certified_grid_only(monkeypatch):
    # the certificate settles the grid and the bisection: ev sees only the
    # points it leaves open, the nudged knot at angle 0 and f at the
    # critical angles, never a whole 4096-angle grid, and over all 40 rungs
    # fewer points than a quarter of one
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
    assert sum(sizes) < 1024


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


def test_check_fit_reports_each_disagreement():
    # a fit that agrees adds nothing; samples above the floor where psi is
    # predicted identically 0, and a poor fit with the predicted sign and
    # slope, each add their one failure
    def failures(fit, predicted):
        out = []
        _check_fit("psi", fit, predicted, out)
        return out

    below = FitResult(math.nan, 0, 0.0, 0, True)
    good = FitResult(2.0, 1, 1.0, 40, False)
    assert failures(below, (0, None)) == failures(good, (1, 2.0)) == []
    assert failures(good, (0, None)) == [
        "psi: predicted identically 0 but samples rise above the floor "
        "(FitResult(exp=2.0000, sign=+1, r2=1.000000, n=40))"]
    poor = FitResult(2.01, 1, 0.5, 40, False)
    assert poor.r2 < R2_MIN
    assert failures(poor, (1, 2.0)) == [f"psi: r2 0.500000 < {R2_MIN}"]


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
