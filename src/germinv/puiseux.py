"""Real Puiseux parametrization of the half-branches of a plane curve germ.

Every real half-branch of a square-free curve p(x, y) = 0 approaching the
origin is parametrized by s > 0 small with one coordinate an exact signed
power of s and the other a (possibly truncated) power series:

    x = sigma * s^e,  y = sum c_k s^k      ("y-dominant": |y| = O(|x|))
    y = sigma * s^e,  x = sum c_k s^k      ("x-dominant": |x| = o(|y|))
    x = sigma * s,    y = 0                ("x-axis",  a line component)
    x = 0,            y = sigma * s        ("y-axis")

The expansion is the Newton polygon recursion: pick an edge of slope
di/dj = -gamma, pick a real root c of its edge polynomial, substitute
u -> u1^b, z -> u1^a (c + z1) with gamma = a/b in lowest terms, divide by the
leading power of u1, and repeat until the root is simple; a simple root is
finished off by quadratic Hensel lifting, when the series is first read.
Each branch keeps its chain of substitutions, so ``leading_term`` can carry
another polynomial through the same chain. All arithmetic is exact: rational, or in a single
real algebraic extension Q(c) when a leading coefficient is irrational. A
branch that would need a second nested extension raises
TowerDepthExceededError rather than returning anything uncertified.

The parameter exponent e = prod(b_i) is automatically minimal: each level's
exponent a_i/b_i is in lowest terms and enters the series with a nonzero
coefficient, so the least common denominator of the exponents present is
exactly prod(b_i).

The substitutions preserve square-freeness (u -> u1^b is separable in
characteristic zero and the shear z -> u1^a(c + z1) is invertible away from
u1 = 0, with the exact power of u1 divided out), so the recursion terminates
for square-free input.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .bivar import BivarPoly
from .errors import TowerDepthExceededError, UnitGermError, ZeroInputError
from .numberfield import FieldContext, FieldElement
from .unipoly import (UniPoly, cauchy_bound, count_real_roots,
                      isolate_real_roots, uni_squarefree)

_MAX_DEPTH = 64

CHART_RANK = {"x-axis": 0, "y-axis": 1, "y-dominant": 2, "x-dominant": 3,
              "radial": 4}


def _inv(c):
    if isinstance(c, Fraction):
        return Fraction(1) / c
    return c.inverse()


# -- Newton polygon ------------------------------------------------------------


class NewtonPolygonEdge:
    """One negative-slope edge of the lower Newton hull.

    ``start`` is the high-z endpoint (i1, j1), ``end`` the low-z endpoint
    (i2, j2), ``slope`` = (i2-i1)/(j2-j1) < 0, ``gamma`` = -slope, ``points``
    all support points on the segment, and ``poly`` the edge polynomial
    E(c) = sum a_ij c^(j - j2), whose nonzero real roots are the leading
    coefficients of branches z ~ c * u^gamma.
    """

    __slots__ = ("start", "end", "slope", "gamma", "points", "poly")

    def __init__(self, start, end, points, poly):
        self.start = start
        self.end = end
        self.slope = Fraction(end[0] - start[0], end[1] - start[1])
        self.gamma = -self.slope
        self.points = points
        self.poly = poly

    def __repr__(self):
        return (f"NewtonPolygonEdge({self.start}->{self.end}, "
                f"gamma={self.gamma}, E={self.poly.to_string('c')})")


def newton_polygon(p: BivarPoly) -> list[NewtonPolygonEdge]:
    """Negative-slope lower-hull edges of p's support, gamma descending.

    Raises ZeroInputError for the zero polynomial and UnitGermError when p
    has a nonzero constant term (no vanishing branches at the origin).
    """
    if p.is_zero():
        raise ZeroInputError("zero polynomial has no Newton polygon")
    if (0, 0) in p.terms:
        raise UnitGermError("polynomial does not vanish at the origin")
    pts = sorted(p.terms)
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    edges = []
    for a, b in zip(hull, hull[1:]):
        if b[1] >= a[1]:
            continue  # slope not negative: no z -> 0 branches
        di, dj = b[0] - a[0], b[1] - a[1]
        on_edge = [q for q in pts
                   if a[0] <= q[0] <= b[0]
                   and (q[0] - a[0]) * dj == (q[1] - a[1]) * di]
        height = a[1] - b[1]
        coeffs = [Fraction(0)] * (height + 1)
        for q in on_edge:
            coeffs[q[1] - b[1]] = p.terms[q]
        edges.append(NewtonPolygonEdge(a, b, on_edge, UniPoly(coeffs)))
    return edges


# -- series containers ------------------------------------------------------------


class PuiseuxSeries:
    """One coordinate of a half-branch: sum of c_k s^k, integer exponents.

    ``truncation`` is an exclusive trust bound: every term with exponent
    below it is present and exact. ``None`` means the series is the complete
    finite parametrization.
    """

    __slots__ = ("terms", "truncation", "exact")

    def __init__(self, terms, truncation, exact: bool):
        self.terms = tuple(sorted(terms))
        self.truncation = truncation
        self.exact = exact

    def lead(self):
        """(exponent, coefficient) of the lowest term, or None."""
        return self.terms[0] if self.terms else None

    def to_string(self, var: str = "s") -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in self.terms:
            if isinstance(c, Fraction):
                cs = str(c)
            else:
                cs = f"({float(c):.9g})"
            mono = var if k == 1 else f"{var}^{k}"
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = " + ".join(parts).replace("+ -", "- ")
        if not self.exact:
            out += f" + O({var}^{self.truncation})"
        return out

    def __repr__(self):
        return f"PuiseuxSeries({self.to_string()})"


class HalfBranch:
    """One real half-branch of the curve, parametrized by s > 0.

    ``sigma`` is the sign carried by the exact monomial coordinate, ``e`` the
    parameter exponent of that coordinate (also the vanishing order of the
    distance to the origin along the branch, since the series coordinate is
    O(s^e)). ``ctx`` is the real algebraic extension the coefficients live
    in, or None over the rationals. ``chain`` is the Newton-Puiseux chain
    that produced the branch (the levels, the field and the final
    simple-root polynomial), or None for a line. The series x and y are
    computed from the chain when first read, to the trust bound ``order``:
    the order of f along the branch is read from the chain itself
    (``leading_term``), so only printing and residual checks need them.
    """

    __slots__ = ("chart", "sigma", "e", "ctx", "chain", "order", "_xy")

    def __init__(self, chart, sigma, e, x, y, ctx, chain=None, order=None):
        self.chart = chart
        self.sigma = sigma
        self.e = e
        self.ctx = ctx
        self.chain = chain
        self.order = order
        self._xy = None if chain is not None else (x, y)

    @property
    def x(self) -> PuiseuxSeries:
        return self._series()[0]

    @property
    def y(self) -> PuiseuxSeries:
        return self._series()[1]

    def _series(self):
        if self._xy is None:
            dep = _dependent(self.chain, self.order)
            principal = PuiseuxSeries(((self.e, Fraction(self.sigma)),),
                                      None, True)
            self._xy = ((principal, dep) if self.chart == "y-dominant"
                        else (dep, principal))
        return self._xy

    @property
    def exact(self) -> bool:
        return self.chain is None or self.chain.p is None

    @property
    def truncation(self):
        if self.exact:
            return None
        return max(self.order, self.chain.shift + 1)

    def extend(self, order: int) -> "HalfBranch":
        """The same branch with its series trusted to at least ``order``."""
        if self.exact or self.order >= order:
            return self
        return HalfBranch(self.chart, self.sigma, self.e, None, None,
                          self.ctx, self.chain, order)

    def describe(self) -> str:
        return (f"{self.chart} side {'+' if self.sigma > 0 else '-'}: "
                f"x = {self.x.to_string()}, y = {self.y.to_string()}")

    def __repr__(self):
        return f"HalfBranch({self.describe()})"


def axis_branch(chart: str, sigma: int) -> HalfBranch:
    """A coordinate-axis line component ("x-axis": y = 0, x = sigma*s)."""
    line = PuiseuxSeries(((1, Fraction(sigma)),), None, True)
    zero = PuiseuxSeries((), None, True)
    if chart == "x-axis":
        return HalfBranch(chart, sigma, 1, line, zero, None)
    if chart == "y-axis":
        return HalfBranch(chart, sigma, 1, zero, line, None)
    raise ValueError(f"not an axis chart: {chart!r}")


def radial_branch(sigma: int) -> HalfBranch:
    """Synthetic ray x = sigma*s, y = 0 for rotationally degenerate cases."""
    line = PuiseuxSeries(((1, Fraction(sigma)),), None, True)
    zero = PuiseuxSeries((), None, True)
    return HalfBranch("radial", sigma, 1, line, zero, None)


# -- truncated series helpers (dense lists indexed by exponent) --------------------


def _series_mul(A, B, n):
    out = [Fraction(0)] * n
    for m, a in enumerate(A):
        if m >= n:
            break
        if not a:
            continue
        for k in range(min(len(B), n - m)):
            b = B[k]
            if b:
                out[m + k] = out[m + k] + a * b
    return out


def _series_inv(A, n):
    b0 = _inv(A[0])
    out = [b0] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        acc = None
        for m in range(1, min(k, len(A) - 1) + 1):
            a = A[m]
            if a:
                t = a * out[k - m]
                acc = t if acc is None else acc + t
        if acc is not None:
            out[k] = -(b0 * acc)
    return out


def _eval_series(rows, T, n):
    """sum_l rows[l] * T^l truncated to n terms (rows: dense lists in u)."""
    acc = [c for c in rows[-1][:n]] + [Fraction(0)] * max(0, n - len(rows[-1]))
    for l in range(len(rows) - 2, -1, -1):
        acc = _series_mul(acc, T, n)
        row = rows[l]
        for k in range(min(len(row), n)):
            if row[k]:
                acc[k] = acc[k] + row[k]
    return acc


def _hensel_tail(p: BivarPoly, n: int):
    """The unique series z(u), z(0) = 0, with p(u, z(u)) = 0 mod u^n, for p
    with p(0,0) = 0 and a simple root: dp/dz (0,0) != 0. Quadratic Newton
    lifting; returns the dense coefficient list of length n."""
    zero = Fraction(0)
    d = p.deg_y()
    rows = [[zero] * n for _ in range(d + 1)]
    for (i, j), c in p.terms.items():
        if i < n:
            rows[j][i] = c
    drows = [[c * (l + 1) for c in rows[l + 1]] for l in range(d)]
    if not rows[1][0]:
        raise RuntimeError("Hensel lifting needs a simple root")
    T = [zero] * n
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        r = _eval_series(rows, T, prec)
        if not any(r):
            # zero residual at this precision: no correction this round,
            # but the lift is only finished once prec reaches n
            continue
        dv = _eval_series(drows, T, prec)
        corr = _series_mul(r, _series_inv(dv, prec), prec)
        for k in range(prec):
            if corr[k]:
                T[k] = T[k] - corr[k]
    return T


# -- the Newton-Puiseux recursion ------------------------------------------------


class _Leaf:
    """Where the recursion ends a branch: the levels (a, b, c) with
    gamma = a/b, the field, the simple-root polynomial of the tail (None if
    the branch is exact), e = prod(b), and the dependent coordinate's terms
    from the levels, the last of them at s-exponent ``shift``."""

    __slots__ = ("levels", "ctx", "p", "e", "head", "shift")

    def __init__(self, levels, ctx, p):
        self.levels = levels
        self.ctx = ctx
        self.p = p
        self.e = prod(b for _, b, _ in levels)
        # level i's exponent step in s-units is a_i * prod(b_m, m > i)
        self.head = {}
        self.shift = 0
        rest = self.e
        for a, b, c in levels:
            rest //= b
            self.shift += a * rest
            self.head[self.shift] = c


def _multiplicity(E: UniPoly, c) -> int:
    d = E.derivative()
    mu = 1
    while mu <= E.degree:
        if d.eval(c):
            return mu
        d = d.derivative()
        mu += 1
    return mu


def _edge_roots(E: UniPoly, ctx):
    """Real roots of an edge polynomial: list of (value, multiplicity, ctx).

    Over Q, and inside Q(c) when every coefficient is rational, the roots
    come from one isolation: a rational root is used as is, and an
    irrational one opens a fresh extension Q(c) over Q but needs a second
    extension inside Q(c). With irrational coefficients only a root in Q(c)
    itself is usable: the square-free part must be linear, or have no real
    root at all. A branch that needs more raises TowerDepthExceededError.
    """
    if ctx is not None:
        coeffs = [c if isinstance(c, FieldElement) else ctx.from_rational(c)
                  for c in E.coeffs]
        rats = [c.as_rational() for c in coeffs]
        if any(q is None for q in rats):
            Ef = UniPoly(coeffs)
            red = uni_squarefree(Ef)
            if red.degree == 1:
                c_val = -red.coeffs[0]  # red is monic
                return [(c_val, _multiplicity(Ef, c_val), ctx)]
            bound = cauchy_bound(red)
            if count_real_roots(red, -bound, bound) == 0:
                return []
            raise TowerDepthExceededError(
                "branch coefficient needs a second algebraic extension")
        E = UniPoly(rats)
    out = []
    for r in isolate_real_roots(E):
        if r.is_rational():
            out.append((r.lo, _multiplicity(E, r.lo), ctx))
        elif ctx is None:
            new_ctx = FieldContext(r.defining, r.lo, r.hi,
                                   rational_root_free=True)
            gen = new_ctx.generator()
            out.append((gen, _multiplicity(E, gen), new_ctx))
        else:
            raise TowerDepthExceededError(
                "branch coefficient needs a second algebraic extension")
    return out


def _transform(q: BivarPoly, a: int, b: int, c) -> tuple[int, BivarPoly]:
    """(v, q(u1^b, u1^a (c + z)) / u1^v) with u1^v the exact power of u1
    dividing the substituted polynomial."""
    v = min(i * b + j * a for (i, j) in q.terms)
    max_j = q.deg_y()
    cpows = [Fraction(1)]
    for _ in range(max_j):
        cpows.append(cpows[-1] * c)
    out: dict = {}
    for (i, j), coeff in q.terms.items():
        base = i * b + j * a - v
        for l in range(j + 1):
            t = coeff * (comb(j, l) * cpows[j - l])
            key = (base, l)
            cur = out.get(key)
            out[key] = t if cur is None else cur + t
    return v, BivarPoly(out)


def _np_branches(q: BivarPoly, ctx, gamma_min: Fraction, strict: bool,
                 depth: int, levels: list, out: list) -> None:
    if depth > _MAX_DEPTH:
        raise RuntimeError("Newton polygon recursion failed to terminate")
    if q.min_deg_y() >= 1:
        # z = 0 is an exact solution branch ending at this node
        out.append(_Leaf(list(levels), ctx, None))
        q = q.shift_down(0, 1)
        if q.is_constant():
            return
    if (0, 0) in q.terms:
        return  # unit cofactor: no further vanishing branches
    for edge in newton_polygon(q):
        if edge.gamma < gamma_min or (strict and edge.gamma == gamma_min):
            continue
        a, b = edge.gamma.numerator, edge.gamma.denominator
        for c_val, mu, new_ctx in _edge_roots(edge.poly, ctx):
            _, p1 = _transform(q, a, b, c_val)
            new_levels = levels + [(a, b, c_val)]
            if mu == 1:
                if p1.min_deg_y() >= 1:
                    out.append(_Leaf(new_levels, new_ctx, None))
                else:
                    out.append(_Leaf(new_levels, new_ctx, p1))
            else:
                _np_branches(p1, new_ctx, Fraction(0), True,
                             depth + 1, new_levels, out)


def _dependent(leaf: _Leaf, order: int) -> PuiseuxSeries:
    """The series coordinate of a leaf's branch, Hensel-lifted so that every
    term below ``order`` is present."""
    terms = dict(leaf.head)
    if leaf.p is None:
        return PuiseuxSeries(terms.items(), None, True)
    n_tail = order - leaf.shift
    if n_tail >= 2:
        T = _hensel_tail(leaf.p, n_tail)
        for k in range(1, n_tail):
            if T[k]:
                terms[leaf.shift + k] = T[k]
    return PuiseuxSeries(terms.items(), leaf.shift + max(n_tail, 1), False)


def _twist_x(p: BivarPoly, sigma: int) -> BivarPoly:
    if sigma == 1:
        return p
    return BivarPoly({(i, j): (c if i % 2 == 0 else -c)
                      for (i, j), c in p.terms.items()})


def _branch_sort_key(b: HalfBranch):
    # the dependent coordinate leads with c0 s^(e*gamma), gamma = a0/b0.
    # An irrational c0 generates its own Q(c0); siblings with the same chart,
    # gamma and sigma come from one isolate_real_roots call, so their
    # intervals are disjoint and the midpoint orders c0 exactly.
    if b.chain is None or not b.chain.levels:
        return (CHART_RANK[b.chart], 0, -b.sigma, 0, b.e)
    a, b0, c = b.chain.levels[0]
    if isinstance(c, FieldElement):
        c = (c.ctx.lo + c.ctx.hi) / 2
    return (CHART_RANK[b.chart], Fraction(a, b0), -b.sigma, c, b.e)


def expand_branches(curve: BivarPoly, order: int = 24) -> list[HalfBranch]:
    """All real half-branches of the square-free curve at the origin.

    ``order`` is the series trust bound in the parameter s: the truncated
    series hold every term below it (they are lifted when first read). The
    input must be square-free;
    pass it through ``squarefree_part`` first if unsure. Raises UnitGermError
    when the curve does not pass through the origin, ZeroInputError for the
    zero polynomial, and TowerDepthExceededError for branches whose exact
    coefficients would need nested algebraic extensions.
    """
    if curve.is_zero():
        raise ZeroInputError("the zero polynomial is not a curve")
    if (0, 0) in curve.terms:
        raise UnitGermError("curve does not pass through the origin")
    ax = curve.min_deg_x()
    ay = curve.min_deg_y()
    p = curve.shift_down(ax, ay)
    branches = []
    if ax >= 1:
        branches += [axis_branch("y-axis", 1), axis_branch("y-axis", -1)]
    if ay >= 1:
        branches += [axis_branch("x-axis", 1), axis_branch("x-axis", -1)]
    if not p.is_constant() and (0, 0) not in p.terms:
        for sigma in (1, -1):
            leaves: list[_Leaf] = []
            _np_branches(_twist_x(p, sigma), None, Fraction(1), False,
                         0, [], leaves)
            branches += [HalfBranch("y-dominant", sigma, lf.e, None, None,
                                    lf.ctx, lf, order) for lf in leaves]
        psw = p.swap_vars()
        for sigma in (1, -1):
            leaves = []
            _np_branches(_twist_x(psw, sigma), None, Fraction(1), True,
                         0, [], leaves)
            branches += [HalfBranch("x-dominant", sigma, lf.e, None, None,
                                    lf.ctx, lf, order) for lf in leaves]
    branches.sort(key=_branch_sort_key)
    return branches


def substitute(f: BivarPoly, branch: HalfBranch) -> PuiseuxSeries:
    """The restriction f(x(s), y(s)) as a series in s.

    Exact (a finite polynomial in s) when the branch parametrization is
    exact; otherwise truncated at the branch's trust bound.
    """
    if f.is_zero():
        return PuiseuxSeries((), None, True)
    if branch.exact:
        def span(series):
            return max((k for k, _ in series.terms), default=0)
        n = 1 + max(i * span(branch.x) + j * span(branch.y)
                    for (i, j) in f.terms)
        exact = True
    else:
        n = branch.truncation
        exact = False
    zero = Fraction(0)
    X = [zero] * n
    for k, c in branch.x.terms:
        if k < n:
            X[k] = c
    Y = [zero] * n
    for k, c in branch.y.terms:
        if k < n:
            Y[k] = c
    one = [Fraction(1)] + [zero] * (n - 1)
    xpows = [one]
    for _ in range(f.deg_x()):
        xpows.append(_series_mul(xpows[-1], X, n))
    ypows = [one]
    for _ in range(f.deg_y()):
        ypows.append(_series_mul(ypows[-1], Y, n))
    out = [zero] * n
    for (i, j), c in sorted(f.terms.items()):
        t = _series_mul(xpows[i], ypows[j], n)
        for k in range(n):
            if t[k]:
                out[k] = out[k] + c * t[k]
    terms = [(k, v) for k, v in enumerate(out) if v]
    return PuiseuxSeries(terms, None if exact else n, exact)


def _truncate(q: BivarPoly, n: int) -> BivarPoly:
    """q without its terms of u-degree above n."""
    return BivarPoly({ij: c for ij, c in q.terms.items() if ij[0] <= n})


def leading_term(f: BivarPoly, branch: HalfBranch, bound: int):
    """The lowest term (k, c) of f(x(s), y(s)) = c*s^k + ... along a branch
    with a truncated parametrization, or None when k would exceed ``bound``.

    f is carried through the branch's own substitution chain: at level
    (a, b, c) it becomes f(u^b, u^a (c + z)) / u^v, and s^v' with v' = v
    times the later b's leaves the restriction. Past the chain, the branch
    is the simple root z = Z(s) of the final polynomial p, and the same
    substitution is continued along the edge (0,1)-(m,0) of p's Newton
    polygon, whose root is c = -p[m,0] / p[0,1]. The first nonzero constant
    term is the leading coefficient. Terms whose s-order exceeds ``bound``
    cannot reach a lowest term at or below it, so each polynomial is cut
    above u-degree (bound - order so far) / (s-exponent of u).
    """
    q = _twist_x(f.swap_vars() if branch.chart == "x-dominant" else f,
                 branch.sigma)
    levels = branch.chain.levels
    p = branch.chain.p
    scale = branch.e   # s-exponent of the current u
    acc = 0            # s-order already divided out
    k = 0
    while True:
        if (0, 0) in q.terms:
            return acc, q.terms[(0, 0)]
        if k < len(levels):
            a, b, c = levels[k]
            k += 1
        else:
            n = bound - acc
            p = _truncate(p, n)
            # with no z-free term up to u^n, Z(s) = O(s^(n+1)), and the step
            # with a = n + 1, c = 0 leaves only q's z-free part to count
            a = min((i for i, j in p.terms if j == 0), default=n + 1)
            b = 1
            c = Fraction(0)
            if a <= n:
                c = -p.terms[(a, 0)] * _inv(p.terms[(0, 1)])
                _, p = _transform(p, a, 1, c)
        scale //= b
        v, q = _transform(q, a, b, c)
        acc += v * scale
        if acc > bound:
            return None
        q = _truncate(q, (bound - acc) // scale)
        if q.is_zero():
            return None
