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

Only the sign of h at a grid point or a bisection midpoint steers the
brackets, and on the circle of radius t

    h(t cos a, t sin a) = sum_k c_k t^(i_k + j_k) cos^i_k a sin^j_k a,

so the grid values of one rung are the product B @ w_t, with
B[a, k] = cos^i_k a sin^j_k a built once per ladder and
w_t[k] = c_k t^(i_k + j_k) for all rungs at once. A sign of the product is
taken only where it clears a forward-error bound (Higham, ch. 3) covering
both it and the term-by-term evaluator ``compile_poly``; that proves the
evaluator would give the same nonzero sign (see _SignCertificate). At a
midpoint the certificate is the evaluator's own formula, term by term, on
|x| and |y|, with each term's sign put back from the signs of c, x and y,
and the same bound proves its sign. That is worth having because numpy's
pow takes a slow libm path for negative bases (about 12 to 26 times its
SIMD path for nonnegative ones, on an AVX-512 box with numpy 2.4), and on
a circle half of all x and y are negative; the two paths differ in the
last bits, so the evaluator's values must stay its own. The few points the
certificate does not settle, exact zeros of h among them, go to the
evaluator itself, so every bracket and every printed number is what the
evaluator alone gives. There is one matrix-vector product per rung and no
product over all rungs at once: that would hold a grid-by-ladder array,
and OpenBLAS allocates a work buffer on its first matrix-matrix call, both
of which raise peak memory while no rung needs more than its own column.
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


def _term_arrays(p: BivarPoly):
    """Exponents i, j and coefficients c of p's terms, sorted, as arrays."""
    items = sorted(p.terms.items())
    ii = np.array([i for (i, _), _ in items], dtype=int)
    jj = np.array([j for (_, j), _ in items], dtype=int)
    cc = np.array([_double(c) for _, c in items])
    return ii, jj, cc


def _evaluator(ii, jj, cc):
    def ev(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (cc * x[..., None] ** ii * y[..., None] ** jj).sum(axis=-1)

    return ev


def compile_poly(p: BivarPoly):
    """A vectorized float evaluator (x, y) -> sum c x^i y^j."""
    return _evaluator(*_term_arrays(p))


def _angular_derivative_poly(f: BivarPoly) -> BivarPoly:
    # y*f_x - x*f_y; equals minus the angular derivative of f on circles
    return (BivarPoly.var_y() * f.diff("x")) - (BivarPoly.var_x() * f.diff("y"))


def _angle_grid(n: int):
    """n equispaced angles in [0, 2pi), with their cosines and sines."""
    base = np.linspace(0.0, TWO_PI, n, endpoint=False)
    return base, np.cos(base), np.sin(base)


# Sign certificate for ev, at the grid knots of each rung and at the
# bisection midpoints, the two places where a sign of h steers the search.
#
# Grid. With C, S the grid's cos and sin, ev computes X = t*C, Y = t*S and
# then sum_k fl(fl(c_k * X^i_k) * Y^j_k), while the product computes
# v = B @ w with B[a, k] = C^i * S^j from powers by repeated multiplication
# and w_k = c_k * t^(i+j). Both approximate R = sum_k tau_k,
# tau_k = c_k t^(i+j) C^i S^j. In Higham's model (Accuracy and Stability of
# Numerical Algorithms, ch. 3), with gamma_m = m u / (1 - m u), u = 2^-53,
# and pow within _POW_U units of u, a term of degree d <= D carries
#   in ev: (1+u)^d from the rounded X, Y raised to i and j, 2 _POW_U from
#       the two pows and 2 from the two products, then gamma_(n-1) from
#       summing the n terms in any order;
#   in v: at most d roundings in B, _POW_U + 1 in w, then gamma_n from the
#       dot product, whatever BLAS's order or use of FMA.
# So |ev - v| <= gamma_m sum_k |tau_k| with m = 2D + 3 _POW_U + 2n + 2,
# and |B| @ |w| is sum_k |tau_k| to within the same factors.
#
# Midpoints. There X = t*cos(mid) and Y = t*sin(mid) are the very doubles
# ev gets, and the certificate is ev's own formula, term by term, on |X|
# and |Y|: T_k = fl(fl(c'_k |X|^i_k) |Y|^j_k), where c'_k is c_k negated
# once for each of X < 0 with i_k odd and Y < 0 with j_k odd. So T_k
# rounds as ev's k-th term does except in its two pows, which take
# nonnegative bases. Against R' = sum_k c_k X^i Y^j each side carries
# 2 _POW_U + 2 per term and gamma_(n-1) for the sum, so with
# v = sum_k T_k, |ev - v| <= gamma_m' sum_k |c_k X^i Y^j| for
# m' = 4 _POW_U + 2n + 2, and mag = sum_k |T_k| is that sum to within the
# same factors. K = 2m below exceeds m' by at least 2 _POW_U + 2n + 2.
#
# Below the normal range each pow errs by up to _POW_U 2^-1074, and each
# product, and the rounded X and Y, by up to 2^-1074, times the factors it
# is multiplied with afterwards, each at most max(1, |c_k|) max(1, t)^d;
# sums are exact there. That is at most (D + 3 _POW_U + 6) 2^-1074 scale
# on the grid and (4 _POW_U + 4) 2^-1074 scale at midpoints, with
# scale = sum_k max(1, |c_k|) max(1, t)^d_k. Taking K = 2m absorbs all of
# it, the gammas' denominators and the rounding of the bound itself,
# underflow included, so |v| > K (u |B| @ |w| + 2^-1074 scale) on the grid,
# and |v| > K (u mag + 2^-1074 scale) at a midpoint, proves that ev returns
# a nonzero number of v's sign. No intermediate of any of the three
# evaluators exceeds 2 scale, so with scale < 2^1020 none overflows; past
# that no sign is certified and nothing is computed for one.
_U = 2.0 ** -53
_ETA = 2.0 ** -1074
# pow within 4 ulps: against exact Fraction powers x^i, for 20,000 random x
# from 2^-1074 to 1 and i from 0 to 12, numpy 2.4's pow erred by at most
# 0.75 ulp on x >= 0 (the SIMD path the certificate's pows take) and on -x
# (the libm path of ev's negative bases) alike
_POW_U = 8


def _powers(v, n: int):
    """Rows v^0 .. v^n, by repeated multiplication (a loop of whole-row
    products; np.cumprod does the same products several times slower)."""
    out = np.empty((n + 1, v.size))
    out[0] = 1.0
    for k in range(1, n + 1):
        np.multiply(out[k - 1], v, out=out[k])
    return out


class _SignCertificate:
    """Signs that ev = _evaluator(ii, jj, cc) is proven to have on the
    circles of radii ``ts``: on the angle grid with cosines ``cos`` and sines
    ``sin`` (``grid``), and at any points of those circles (``at``)."""

    def __init__(self, ii, jj, cc, ts, cos, sin):
        deg = ii + jj
        top = int(deg.max(initial=0))
        # B kept transposed, as _powers builds it: a row of grid values
        # per term
        self.basis = _powers(cos, top)[ii] * _powers(sin, top)[jj]
        self.abs_basis = np.abs(self.basis)
        k = 2 * (2 * top + 3 * _POW_U + 2 * cc.size + 2)
        self.ku = k * _U
        t = np.asarray(ts, dtype=float)[:, None]
        with np.errstate(over="ignore"):
            scale = (np.maximum(1.0, np.abs(cc))
                     * np.maximum(1.0, np.abs(t)) ** deg).sum(axis=1)
            self.w = cc * t ** deg
        self.fits = scale < 2.0 ** 1020
        self.every_rung_fits = bool(self.fits.all())
        self.ku_abs_w = self.ku * np.abs(self.w)
        self.slack = k * _ETA * scale
        self.ii, self.jj = ii, jj
        # c'_k by the quadrant of (X, Y): X < 0 adds 1, Y < 0 adds 2
        fx = np.where(ii % 2, -1.0, 1.0)
        fy = np.where(jj % 2, -1.0, 1.0)
        self.by_quadrant = np.stack([cc, cc * fx, cc * fy, cc * fx * fy])

    def grid(self, r: int, out):
        """Writes sign(B @ w) of rung r into ``out`` and returns the grid
        indices where that sign is not certified: all of them on a rung
        past the overflow limit, where ``out`` is left as it was."""
        if not self.fits[r]:
            return np.arange(out.size)
        v = self.w[r] @ self.basis
        np.sign(v, out=out)
        return np.flatnonzero(
            np.abs(v) <= self.ku_abs_w[r] @ self.abs_basis + self.slack[r])

    def at(self, x, y, r):
        """ev's proven signs at the points (x, y), x = t cos a and
        y = t sin a on the circle of rung r (an index array): +1 or -1
        where certified, 0 where only ev itself can tell."""
        if not self.every_rung_fits:
            keep = self.fits[r]
            out = np.zeros(x.size)
            out[keep] = self._at(x[keep], y[keep], r[keep])
            return out
        return self._at(x, y, r)

    def _at(self, x, y, r):
        terms = (self.by_quadrant[(x < 0) + 2 * (y < 0)]
                 * np.abs(x)[:, None] ** self.ii
                 * np.abs(y)[:, None] ** self.jj)
        v = terms.sum(axis=1)
        sure = np.abs(v) > self.ku * np.abs(terms).sum(axis=1) + self.slack[r]
        return np.where(sure, np.sign(v), 0.0)


def _critical_angles(h: BivarPoly, ts, angle_grid) -> list[np.ndarray]:
    """Sorted sign-change zeros of a -> h(t cos a, t sin a) in [0, 2pi) per
    radius t in ts, bracketed on ``angle_grid`` (see _angle_grid). All
    brackets are bisected together, each by the scalar rule: midpoint, stop
    on an exact zero, width < 1e-15 or 200 steps. Every sign comes from
    _SignCertificate where it is certified and from ev where it is not."""
    ii, jj, cc = _term_arrays(h)
    if not len(ts):
        return []
    base, cos, sin = angle_grid
    n = base.size
    ev = _evaluator(ii, jj, cc)

    def ev_sign(x, y):
        # a NaN (ev past the double range) counts as negative, as the test
        # ev > 0 that steers a bracket counts it
        v = ev(x, y)
        return np.where(v > 0, 1.0, np.where(v == 0, 0.0, -1.0))

    cert = _SignCertificate(ii, jj, cc, ts, cos, sin)
    # knot n is knot 0 a turn later, so that knot k and k + 1 bracket
    # every interval, the wrap-around one included
    knots = np.append(base, TWO_PI)
    signs = np.empty(n + 1)
    brackets = []
    for r, t in enumerate(ts):
        thetas = knots
        rest = cert.grid(r, signs[:n])
        if rest.size:
            signs[rest] = ev_sign(t * cos[rest], t * sin[rest])
            # nudge exact grid zeros off the knot, into an open bracket
            bad = rest[signs[rest] == 0.0]
            if bad.size:
                thetas = knots.copy()
                thetas[bad] += TWO_PI / n * 1e-6
                thetas[n] = thetas[0] + TWO_PI
                moved = thetas[bad]
                signs[bad] = ev_sign(t * np.cos(moved), t * np.sin(moved))
        signs[n] = signs[0]
        hit = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
        brackets.append((thetas[hit], thetas[hit + 1], signs[hit]))
    a, b, sa = (np.concatenate(c) for c in zip(*brackets))
    counts = [len(s) for _, _, s in brackets]
    # the brackets still open, with their rungs and radii, compacted
    # whenever some of them close
    rl = np.repeat(np.arange(len(ts)), counts)
    tl = np.asarray(ts, dtype=float)[rl]
    live, al, bl, sl = np.arange(a.size), a, b, sa
    for _ in range(200):
        if not live.size:
            break
        m = 0.5 * (al + bl)
        x, y = tl * np.cos(m), tl * np.sin(m)
        sm = cert.at(x, y, rl)
        rest = np.flatnonzero(sm == 0.0)
        if rest.size:
            sm[rest] = ev_sign(x[rest], y[rest])
        # > 0: m replaces a, < 0: m replaces b, 0 (a root): it replaces both
        side = sm * sl
        al = np.where(side >= 0.0, m, al)
        bl = np.where(side <= 0.0, m, bl)
        done = bl - al < 1e-15
        if done.any():
            a[live[done]], b[live[done]] = al[done], bl[done]
            keep = ~done
            live, al, bl, sl, rl, tl = (
                v[keep] for v in (live, al, bl, sl, rl, tl))
    a[live], b[live] = al, bl
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
    angle_grid = _angle_grid(grid)
    _, cos, sin = angle_grid
    crit = _critical_angles(_angular_derivative_poly(f), ts, angle_grid)
    if not crit:
        return []
    # f at every rung's critical angles in one call
    flat = np.concatenate(crit)
    radii = np.repeat(np.asarray(ts, dtype=float), [a.size for a in crit])
    values = ff(radii * np.cos(flat), radii * np.sin(flat)).tolist()
    out, k = [], 0
    for t, angles in zip(ts, crit):
        if angles.size:
            vs = values[k:k + angles.size]
            k += angles.size
            out.append(SphereExtrema(t, min(vs), max(vs),
                                     list(zip(angles.tolist(), vs))))
        else:
            vals = ff(t * cos, t * sin)
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


def _circ_dist(a, b):
    """Distance on the circle between angles in [0, 2pi), elementwise."""
    d = abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _nearest_maps(angles):
    """For rows b and b + 1 of ``angles``, each sorted in [0, 2pi) and of
    one length k, the index in row b + 1 of the angle nearest on the circle
    to each angle of row b, the lowest among equal distances: an array
    (rows - 1) x k of min(range(k), key=lambda j: _circ_dist(next[j], a)),
    argmin's first minimum over all pairs at once. That takes (rows - 1) x
    k x k doubles, and k <= 2 deg h, the most sign changes h has on a
    circle."""
    theta, nxt = angles[:-1], angles[1:]
    if not angles.shape[1]:
        return np.zeros(theta.shape, dtype=int)
    return np.argmin(_circ_dist(nxt[:, None, :], theta[:, :, None]), axis=2)


def _track(rungs: list[SphereExtrema]):
    """Follow the critical points of ``rungs`` (ascending radii) inward, each
    to the nearest angle on the next circle (_nearest_maps), up to the first
    rung whose angle count changes or where two paths collide. Returns the
    rungs above it, ascending, as (angle, value) lists in path order, and
    its error or None."""
    down = rungs[::-1]
    if not down:
        return [], None
    k = len(down[0].critical)
    block = next((b for b, e in enumerate(down) if len(e.critical) != k),
                 len(down))
    maps = _nearest_maps(np.array([[a for a, _ in e.critical]
                                   for e in down[:block]]).reshape(block, k))
    collided = np.flatnonzero(
        (np.diff(np.sort(maps, axis=1)) == 0).any(axis=1))
    exc = None
    if collided.size:
        block = int(collided[0]) + 1
        exc = PathCountUnstableError(
            "critical paths collided during continuation", down[block].t)
    elif block < len(down):
        exc = PathCountUnstableError(
            f"critical angle count changed from {k} to "
            f"{len(down[block].critical)}", down[block].t)
    tracked, order = [down[0].critical], np.arange(k)
    for b in range(1, block):
        order = maps[b - 1][order]
        tracked.append([down[b].critical[j] for j in order.tolist()])
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
