"""Floating-point cross-validation of the exact branch analysis.

Everything here is numerics on purpose: no exact arithmetic, no shared code
path with the symbolic pipeline beyond the polynomial container. The key
identity is that on the circle of radius t,

    d/da f(t cos a, t sin a) = -h(t cos a, t sin a),

with h the tangency polynomial, so angular critical points of f are
bracketed by sign changes of h on a dense angle grid and polished by
bisection. From them we get the per-circle extrema

    psi(t) = min_{|p|=t} f(p),   psibar(t) = max_{|p|=t} f(p),

whose signs and log-log slopes over a geometric ladder of radii must match
the (sign, alpha) that the exact classification gives for each
(``Classification.psi`` and ``psibar``, the two numbers behind the invariant
pair; sign 0 means identically 0, below the noise floor), and the number of
critical angles per circle must be stable in t and equal to the number of
tangency half-branches.
"""

from __future__ import annotations

import math

import numpy as np

from .bivar import BivarPoly
from .errors import CoefficientRangeError, PathCountUnstableError

TWO_PI = 2.0 * math.pi
# a fitted log-log slope must be within SLOPE_TOL of the predicted order,
# with r^2 at least R2_MIN
SLOPE_TOL = 0.05
R2_MIN = 0.999


def radius_ladder(tmin: float, tmax: float, n: int) -> list[float]:
    """n radii from tmin to tmax in geometric progression."""
    return [float(t) for t in np.geomspace(tmin, tmax, n)]


def _double(c) -> float:
    """c as a double; a nonzero c must give a finite nonzero one."""
    try:
        v = float(c)
    except OverflowError:
        v = math.inf
    if c and not (v and math.isfinite(v)):
        raise CoefficientRangeError(
            "the numeric oracle needs every coefficient of f and of "
            "y*f_x - x*f_y as a finite nonzero double")
    return v


def compile_poly(p: BivarPoly):
    """A vectorized float evaluator (x, y) -> sum c x^i y^j."""
    if not p.terms:
        return lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    items = sorted(p.terms.items())
    ii = np.array([i for (i, _), _ in items])
    jj = np.array([j for (_, j), _ in items])
    cc = np.array([_double(c) for _, c in items])

    def ev(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (cc * x[..., None] ** ii * y[..., None] ** jj).sum(axis=-1)

    return ev


def _angular_derivative_poly(f: BivarPoly) -> BivarPoly:
    # y*f_x - x*f_y; equals minus the angular derivative of f on circles
    return (BivarPoly.var_y() * f.diff("x")) - (BivarPoly.var_x() * f.diff("y"))


def _critical_angles(hf, ts, grid: int) -> list[np.ndarray]:
    """Sorted sign-change zeros of a -> hf(t cos a, t sin a) in [0, 2pi) per
    radius t in ts. All brackets are bisected together, each by the scalar
    rule: midpoint, stop on an exact zero, width < 1e-15 or 200 steps."""
    if not len(ts):
        return []
    base = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    cos, sin = np.cos(base), np.sin(base)
    brackets = []
    for t in ts:
        thetas = base
        vals = hf(t * cos, t * sin)
        # nudge exact grid zeros off the knot, into an open bracket
        bad = vals == 0.0
        if bad.any():
            thetas = np.where(bad, base + TWO_PI / grid * 1e-6, base)
            vals = hf(t * np.cos(thetas), t * np.sin(thetas))
        ends = np.append(thetas[1:], thetas[0] + TWO_PI)
        nxt = np.roll(vals, -1)
        # signs, not the product: va * vb underflows to 0 below |h| ~ 1e-154
        hit = (vals != 0.0) & (nxt != 0.0) & ((vals > 0) != (nxt > 0))
        brackets.append((thetas[hit], ends[hit], vals[hit]))
    a, b, va = (np.concatenate(c) for c in zip(*brackets))
    counts = [len(v) for _, _, v in brackets]
    t = np.repeat(np.asarray(ts, dtype=float), counts)
    live = np.arange(a.size)
    for _ in range(200):
        if not live.size:
            break
        m = 0.5 * (a[live] + b[live])
        vm = hf(t[live] * np.cos(m), t[live] * np.sin(m))
        zero = vm == 0.0
        up = ~zero & ((vm > 0) == (va[live] > 0))
        down = ~zero & ~up
        a[live[up]], va[live[up]] = m[up], vm[up]
        b[live[down]] = m[down]
        a[live[zero]] = b[live[zero]] = m[zero]
        live = live[~zero & ~(b[live] - a[live] < 1e-15)]
    angles = (0.5 * (a + b)) % TWO_PI
    return [np.sort(r) for r in np.split(angles, np.cumsum(counts)[:-1])]


class SphereExtrema:
    """Extrema of f on one circle, with the critical angles that realize
    them. ``critical`` is empty when f is angularly constant on the circle."""

    __slots__ = ("t", "fmin", "fmax", "critical")

    def __init__(self, t, fmin, fmax, critical):
        self.t = t
        self.fmin = fmin
        self.fmax = fmax
        self.critical = critical

    def __repr__(self):
        return (f"SphereExtrema(t={self.t:g}, min={self.fmin:.6g}, "
                f"max={self.fmax:.6g}, k={len(self.critical)})")


def ladder_extrema(f: BivarPoly, ts, grid: int = 4096) -> list[SphereExtrema]:
    """Min and max of f on each circle of radius t in ts, at the sign changes
    of the angular derivative. A circle without any has the derivative
    vanishing identically (f is radially symmetric), and the grid itself
    supplies the constant value."""
    ff = compile_poly(f)
    hf = compile_poly(_angular_derivative_poly(f))
    out = []
    for t, angles in zip(ts, _critical_angles(hf, ts, grid)):
        if angles.size:
            vs = ff(t * np.cos(angles), t * np.sin(angles)).tolist()
            out.append(SphereExtrema(t, min(vs), max(vs),
                                     list(zip(angles.tolist(), vs))))
        else:
            th = np.linspace(0.0, TWO_PI, grid, endpoint=False)
            vals = ff(t * np.cos(th), t * np.sin(th))
            out.append(SphereExtrema(t, float(vals.min()), float(vals.max()),
                                     []))
    return out


def sphere_extrema(f: BivarPoly, t: float, grid: int = 4096) -> SphereExtrema:
    """Min and max of f on the circle of radius t (see ladder_extrema)."""
    return ladder_extrema(f, [t], grid)[0]


class FitResult:
    """Log-log slope fit of |v| against t over the samples above the noise
    floor. ``sign`` is the common sign of those samples (the sign of the
    largest-magnitude one if they disagree, with r2 forced to 0)."""

    __slots__ = ("exponent", "sign", "r2", "samples_used", "all_below_floor")

    def __init__(self, exponent, sign, r2, samples_used, all_below_floor):
        self.exponent = exponent
        self.sign = sign
        self.r2 = r2
        self.samples_used = samples_used
        self.all_below_floor = all_below_floor

    def __repr__(self):
        if self.all_below_floor:
            return "FitResult(below floor)"
        return (f"FitResult(exp={self.exponent:.4f}, sign={self.sign:+d}, "
                f"r2={self.r2:.6f}, n={self.samples_used})")


def estimate_exponent(ts, vs, floor: float) -> FitResult:
    """Estimate q and the sign from samples v(t) ~ c t^q.

    Samples with |v| < floor are discarded as numerically zero; when all of
    them are, the series is declared identically zero at this precision.
    """
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    keep = np.abs(vs) >= floor
    n = int(keep.sum())
    if n == 0:
        return FitResult(float("nan"), 0, 0.0, 0, True)
    tk, vk = ts[keep], vs[keep]
    signs = np.sign(vk)
    mixed = bool((signs > 0).any() and (signs < 0).any())
    sign = int(signs[int(np.argmax(np.abs(vk)))]) if mixed else int(signs[0])
    lx, ly = np.log(tk), np.log(np.abs(vk))
    if n == 1:
        return FitResult(float("nan"), sign, 0.0, 1, False)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (
        0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot)
    if mixed:
        r2 = 0.0
    return FitResult(float(slope), sign, r2, n, False)


class CriticalPath:
    """One angular critical point tracked across the radius ladder.
    ``thetas`` and ``values`` are aligned with the ascending ladder."""

    __slots__ = ("path_id", "thetas", "values")

    def __init__(self, path_id, thetas, values):
        self.path_id = path_id
        self.thetas = thetas
        self.values = values

    def __repr__(self):
        return f"CriticalPath(id={self.path_id}, n={len(self.thetas)})"


def _circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _track(rungs: list[SphereExtrema]):
    """Follow the critical points of ``rungs`` (ascending radii) inward, each
    to the nearest angle on the next circle, up to the first rung whose angle
    count changes or where two paths collide. Returns the rungs above it,
    ascending, as (angle, value) lists in path order, and its error or None."""
    tracked, exc = [], None
    for e in reversed(rungs):
        crit = e.critical
        if tracked and len(crit) != len(tracked[-1]):
            exc = PathCountUnstableError(
                f"critical angle count changed from {len(tracked[-1])} to "
                f"{len(crit)}", e.t)
            break
        if tracked:
            picks = [min(range(len(crit)),
                         key=lambda j: _circ_dist(crit[j][0], theta))
                     for theta, _ in tracked[-1]]
            if len(set(picks)) < len(picks):
                exc = PathCountUnstableError(
                    "critical paths collided during continuation", e.t)
                break
            crit = [crit[j] for j in picks]
        tracked.append(crit)
    if exc is not None:  # rungs of equal radius above it go too
        del tracked[sum(e.t > exc.t for e in rungs):]
    return tracked[::-1], exc


def _paths(tracked) -> list[CriticalPath]:
    return [CriticalPath(pid, *map(np.array, zip(*pairs)))
            for pid, pairs in enumerate(zip(*tracked))]


def critical_paths(f: BivarPoly, ts, grid: int = 4096) -> list[CriticalPath]:
    """Track the angular critical points of f across circles of radius ts,
    from the largest radius inward (see _track). A change in the number of
    critical angles, or an ambiguous matching, raises PathCountUnstableError:
    the ladder then spans a radius where the tangency structure changes, and
    the caller should shrink it."""
    tracked, exc = _track(ladder_extrema(f, sorted(map(float, ts)), grid))
    if exc is not None:
        raise exc
    return _paths(tracked)


class CrosscheckReport:
    """Numeric ladder data plus pass/fail against the exact prediction.

    Paths are tracked on the upper part of the ladder only, down to
    ``path_tmin``: branches tangent to each other or to an axis have angular
    separation shrinking like a power of t, so below some radius no fixed
    angle grid can tell them apart and tracking stops there.
    """

    __slots__ = ("ts", "psi", "psibar", "paths", "path_tmin", "fit_psi",
                 "fit_psibar", "predicted_psi", "predicted_psibar",
                 "path_count", "branch_count", "failures", "floor")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def passed(self) -> bool:
        return not self.failures

    def csv_rows(self):
        """Rows (t, psi, psibar, path_id, theta, f_value); path_id -1 with
        theta 0 marks a radius without tracked paths."""
        rows = []
        n_tracked = len(self.paths[0].thetas) if self.paths else 0
        offset = len(self.ts) - n_tracked
        for k, t in enumerate(self.ts):
            if k < offset:
                rows.append((t, self.psi[k], self.psibar[k], -1, 0.0,
                             self.psi[k]))
                continue
            for p in self.paths:
                rows.append((t, self.psi[k], self.psibar[k], p.path_id,
                             float(p.thetas[k - offset]),
                             float(p.values[k - offset])))
        return rows

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL({len(self.failures)})"
        return f"CrosscheckReport({state}, rungs={len(self.ts)})"


def _predictions(classification):
    return tuple((sign, None if alpha is None else float(alpha))
                 for sign, alpha in (classification.psi,
                                     classification.psibar))


def _check_fit(tag, fit: FitResult, predicted, failures):
    sign, alpha = predicted
    if sign == 0:
        if not fit.all_below_floor:
            failures.append(f"{tag}: predicted identically 0 but samples "
                            f"rise above the floor ({fit!r})")
        return
    if fit.all_below_floor:
        failures.append(f"{tag}: predicted sign {sign:+d} but every sample "
                        f"is below the floor")
        return
    if fit.sign != sign:
        failures.append(f"{tag}: sign {fit.sign:+d} != predicted {sign:+d}")
    if not math.isfinite(fit.exponent) or abs(fit.exponent - alpha) > SLOPE_TOL:
        failures.append(f"{tag}: slope {fit.exponent:.4f} not within "
                        f"{SLOPE_TOL} of predicted {alpha}")
    if fit.r2 < R2_MIN:
        failures.append(f"{tag}: r2 {fit.r2:.6f} < {R2_MIN}")


def crosscheck(f: BivarPoly, analysis, tmin: float = 1e-4, tmax: float = 1e-1,
               ladder: int = 40, grid: int = 4096,
               floor: float | None = None) -> CrosscheckReport:
    """Validate a GermAnalysis numerically on a geometric radius ladder.

    Checks: psi/psibar signs and log-log slopes against the classification,
    and critical-path count == half-branch count. The tracked paths carry
    each rung's own critical values, so their extrema are psi and psibar
    by construction and are not compared again.

    tmax must stay below the radius where components of the tangency curve
    not passing through the origin enter the disc, or the path count will
    legitimately exceed the half-branch count.
    """
    if floor is None:
        mags = [abs(_double(c)) for c in f.terms.values()]
        norm = sum(mags)
        if math.isfinite(norm):
            floor = 1e-14 * max(1.0, norm)
        else:
            # finite magnitudes whose sum overflows: scale by the largest, m
            m = max(mags)
            floor = 1e-14 * m * sum(v / m for v in mags)
    ts = radius_ladder(tmin, tmax, ladder)
    extrema = ladder_extrema(f, ts, grid)
    psi, psibar = [e.fmin for e in extrema], [e.fmax for e in extrema]
    failures: list[str] = []
    paths, path_tmin, path_count = [], None, 0
    if not analysis.curve.degenerate:
        # tangent branches become angularly unresolvable below some radius,
        # so an unstable critical-angle count trims the bottom rungs
        tracked, _ = _track(extrema)
        paths = _paths(tracked)
        path_count = len(paths)
        offset = len(ts) - len(tracked)
        path_tmin = ts[offset] if tracked else None
        expected = len(analysis.restrictions)
        if path_count != expected:
            failures.append(f"path count {path_count} != "
                            f"{expected} half-branches")
    pred_psi, pred_psibar = _predictions(analysis.classification)
    fit_psi = estimate_exponent(ts, psi, floor)
    fit_psibar = estimate_exponent(ts, psibar, floor)
    _check_fit("psi", fit_psi, pred_psi, failures)
    _check_fit("psibar", fit_psibar, pred_psibar, failures)
    return CrosscheckReport(ts=ts, psi=psi, psibar=psibar, paths=paths,
                            path_tmin=path_tmin,
                            fit_psi=fit_psi, fit_psibar=fit_psibar,
                            predicted_psi=pred_psi,
                            predicted_psibar=pred_psibar,
                            path_count=path_count,
                            branch_count=len(analysis.restrictions),
                            failures=failures, floor=floor)
