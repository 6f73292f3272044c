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
leading power of u1, and repeat until the root is simple. An axis is the
solution z = 0 before any substitution, so every half-branch is such a chain
of levels, an axis one with none. Past a simple root the branch continues
one Newton step at a time (``_tail_step``), when its series is first read or
when ``leading_term`` carries other polynomials through the same chain. All
arithmetic is exact: rational, or in a single real algebraic extension Q(c)
when a leading coefficient is irrational. Every coefficient of a polynomial
over Q(c) reads as an element of Q(c), and elements act like Fractions
(``+ - * /``, signs, ``str``), so no step asks which kind of coefficient it
holds but the branch order. A branch that would need a second nested
extension raises TowerDepthExceededError rather than anything uncertified.

A polynomial is held on integers (see ``bivar``): over Q one primitive
integer map and a content, over Q(c) one integer vector per coefficient
over one denominator. So each substitution q(u^b, u^a (c + z)) / u^v of a
chain (``_transform``) makes every product one integer product, and reduces
its result once: by one gcd over Q, each vector mod the modulus over Q(c).
An edge polynomial holds p's coefficients as p holds them, and its roots
over Q(c) come from one Sturm chain on integer vectors (``_edge_roots``).

The recursion runs once per chart, over a parameter u of either sign, and
each chain it ends is one real analytic branch, with half-branches u = s and
u = -s, s > 0. Below an odd-b edge u1 keeps both signs. An even-b edge has
E(c) = F(c^b) and a odd, so u1 -> -u1 swaps its roots c and -c: only the
positive ones are expanded, and the edge's u < 0 side from the reflected
node. The half u = -s is mirrored (``_mirror``), not expanded: with f_L = 1
and f_(m-1) = f_m [b_m odd] over L levels, c_m becomes c_m (-1)^(a_1 f_1 +
... + a_m f_m), the tail p(-u, (-1)^A z), A the full sum, and sigma
sigma (-1)^e.

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

import weakref
from fractions import Fraction
from math import comb, prod

from .bivar import BivarPoly, _zz_prem
from .errors import TowerDepthExceededError, UnitGermError, ZeroInputError
from .numberfield import FieldContext, FieldElement, integer_powers
from .unipoly import (_variations, integer_product, isolate_real_roots,
                      poly_string, signed_sum)

_MAX_DEPTH = 64

CHART_RANK = {"x-axis": 0, "y-axis": 1, "y-dominant": 2, "x-dominant": 3,
              "radial": 4}
# charts expanded with x and y swapped: their exact monomial coordinate is y
_SWAPPED = ("y-axis", "x-dominant")


# -- Newton polygon ------------------------------------------------------------


class NewtonPolygonEdge:
    """One negative-slope edge of the lower Newton hull, which runs ``di``
    in i as it drops ``drop`` in j: ``gamma`` = di / drop is minus its slope
    di/dj, and ``poly`` the edge polynomial E(c) = sum a_ij c^(j - j2) over
    the support points (i, j) on the edge, j2 the least j among them, whose
    nonzero real roots are the leading coefficients of branches
    z ~ c * u^gamma. ``poly`` lists E's coefficients, lowest degree first,
    as p holds them, E up to a positive factor, which has the same roots:
    over Q the integers of p's integer form, over Q(c) integer vectors over
    p's one denominator, ``[]`` for a zero coefficient.
    """

    __slots__ = ("gamma", "poly")

    def __init__(self, di: int, drop: int, poly: list):
        self.gamma = Fraction(di, drop)
        self.poly = poly

    def __repr__(self):
        return (f"NewtonPolygonEdge(gamma={self.gamma}, "
                f"E={poly_string(self.poly, 'c')})")


def newton_polygon(p: BivarPoly) -> list[NewtonPolygonEdge]:
    """Negative-slope lower-hull edges of p's support, gamma ascending.

    Raises ZeroInputError for the zero polynomial and UnitGermError when p
    has a nonzero constant term (no vanishing branches at the origin).
    """
    if p.is_zero():
        raise ZeroInputError("zero polynomial has no Newton polygon")
    if (0, 0) in p.support:
        raise UnitGermError("polynomial does not vanish at the origin")
    held, _, ctx = p.vector_form()
    pts = sorted(p.support)
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
        coeffs = [0 if ctx is None else []] * (a[1] - b[1] + 1)
        for q in on_edge:
            coeffs[q[1] - b[1]] = held[q]
        edges.append(NewtonPolygonEdge(di, -dj, coeffs))
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
        """``signed_sum`` of the terms, then `` + O(s^n)`` if truncated and
        not 0."""
        out = signed_sum((c, var if k == 1 else f"{var}^{k}")
                         for k, c in self.terms)
        if self.terms and not self.exact:
            out += f" + O({var}^{self.truncation})"
        return out

    def __repr__(self):
        return f"PuiseuxSeries({self.to_string()})"


class HalfBranch:
    """One real half-branch of the curve, parametrized by s > 0, as the
    Newton-Puiseux chain that produced it, or the mirror of that chain.

    ``sigma`` is the sign carried by the exact monomial coordinate, ``e`` the
    parameter exponent of that coordinate (also the vanishing order of the
    distance to the origin along the branch, since the series coordinate is
    O(s^e)). ``levels`` are the chain's substitutions (a, b, c) with
    gamma = a/b (none for an axis or a radial line), ``ctx`` the real
    algebraic extension the coefficients live in, or None over the
    rationals, and ``p`` the simple-root polynomial of the tail, or None when
    the branch is exact. The series x and y are computed from the chain when
    first read, to the trust bound ``order``: the order of f along the branch
    is read from the chain itself (``leading_term``), so only printing and
    residual checks need them. ``twin`` is the other half of the same real
    analytic branch (``_mirror``), held weakly: no cycle outlives a list.
    """

    __slots__ = ("chart", "sigma", "levels", "ctx", "p", "e", "head", "shift",
                 "order", "_twin", "_xy", "__weakref__")

    def __init__(self, chart, sigma, levels, ctx, p, order=None):
        self.chart = chart
        self.sigma = sigma
        self.levels = levels
        self.ctx = ctx
        self.p = p
        self.order = order
        self._twin = lambda: None
        self._xy = None
        self.e = prod(b for _, b, _ in levels)
        # the dependent coordinate's terms from the levels: level i's
        # exponent step in s-units is a_i * prod(b_m, m > i), and the last
        # one lands at s-exponent ``shift``
        self.head = {}
        self.shift = 0
        rest = self.e
        for a, b, c in levels:
            rest //= b
            self.shift += a * rest
            self.head[self.shift] = c

    twin = property(lambda self: self._twin())

    @property
    def x(self) -> PuiseuxSeries:
        return self._series()[0]

    @property
    def y(self) -> PuiseuxSeries:
        return self._series()[1]

    def _series(self):
        if self._xy is None:
            dep = self._dependent()
            principal = PuiseuxSeries(((self.e, Fraction(self.sigma)),),
                                      None, True)
            self._xy = ((dep, principal) if self.chart in _SWAPPED
                        else (principal, dep))
        return self._xy

    def _dependent(self) -> PuiseuxSeries:
        """The series coordinate: the twin's with s -> -s, the coefficient
        of s^k times (-1)^k, once the twin has read its own; else the terms
        of the levels, then ``_tail_step`` along the simple root until every
        term below ``order`` is present."""
        twin = self.twin
        if twin is not None and twin._xy is not None:
            dep = twin._xy[0 if self.chart in _SWAPPED else 1]
            return PuiseuxSeries(((k, -c if k % 2 else c) for k, c in dep.terms),
                                 dep.truncation, dep.exact)
        terms = dict(self.head)
        if self.p is None:
            return PuiseuxSeries(terms.items(), None, True)
        n_tail = self.order - self.shift
        p, k = self.p, 0
        while k < n_tail - 1:
            a, c, p = _tail_step(p, n_tail - 1 - k)
            k += a
            if k < n_tail:
                terms[self.shift + k] = c
        return PuiseuxSeries(terms.items(), self.shift + max(n_tail, 1),
                             False)

    @property
    def exact(self) -> bool:
        return self.p is None

    @property
    def truncation(self):
        if self.exact:
            return None
        return max(self.order, self.shift + 1)

    def extend(self, order: int) -> "HalfBranch":
        """The same branch with its series trusted to at least ``order``."""
        if self.exact or self.order >= order:
            return self
        return HalfBranch(self.chart, self.sigma, self.levels, self.ctx,
                          self.p, order)

    def describe(self) -> str:
        return (f"{self.chart} side {'+' if self.sigma > 0 else '-'}: "
                f"x = {self.x.to_string()}, y = {self.y.to_string()}")

    def __repr__(self):
        return f"HalfBranch({self.describe()})"


def radial_branches() -> list[HalfBranch]:
    """Synthetic rays x = +-s, y = 0 for rotationally degenerate cases."""
    return _paired(HalfBranch("radial", 1, [], None, None))


# -- the Newton-Puiseux recursion ------------------------------------------------


def _edge_roots(E: list, ctx, b: int):
    """Real roots of the edge polynomial E of an edge with gamma = a/b, to
    be expanded: list of (value, ctx), ascending.

    Over Q, and inside Q(c) when every coefficient is rational (a vector of
    length at most 1), the roots come from one isolation. For even b they
    come in pairs +-c, and only the positive half is kept. A kept rational
    root is used as is, and an irrational one opens a fresh extension Q(c)
    over Q but needs a second extension inside Q(c).

    With an irrational coefficient only a root in Q(c) itself is usable,
    and one Sturm chain of E on integer vectors tells which. Each member
    after E and E' is -lc^(2k) prem(F, G) for the two members F, G before
    it (``bivar._zz_prem`` scales by lc = lc(G) to the power
    deg F - deg G + 1, made even by one more factor), a positive multiple
    of the signed remainder, with its vectors reduced mod the modulus
    (``FieldContext.reduce_vectors``), which drops the zero ones. The chain
    ends in gcd(E, E') up to a unit. A linear square-free part E / gcd
    gives the one root -e_(n-1) / (n e_n). Otherwise E must have no real
    root: the sign variations of the chain's leading coefficients at -inf
    and at +inf agree. A branch that needs more raises
    TowerDepthExceededError.
    """
    if ctx is not None:
        if any(len(v) > 1 for v in E):
            seq = [E, [[k * x for x in v] for k, v in enumerate(E)][1:]]
            while len(seq[-1]) > 1:
                F, G = seq[-2], seq[-1]
                R = _zz_prem(F, G)
                if (len(F) - len(G)) % 2 == 0:
                    R = [integer_product(G[-1], v) for v in R]
                red, _ = ctx.reduce_vectors(dict(enumerate(R)), 1)
                if not red:
                    break
                seq.append([[-x for x in red.get(k, ())]
                            for k in range(max(red) + 1)])
            n = len(E) - 1
            if len(seq[-1]) == n:
                return [(ctx.coefficient([-x for x in E[-2]], n)
                         / ctx.coefficient(E[-1], 1), ctx)]
            at_inf = [ctx.coefficient(P[-1], 1).sign() for P in seq]
            if _variations(at_inf) == _variations(
                    [s if len(P) % 2 else -s for s, P in zip(at_inf, seq)]):
                return []
            raise TowerDepthExceededError(
                "branch coefficient needs a second algebraic extension")
        E = [v[0] if v else 0 for v in E]
    roots = isolate_real_roots(E)
    if b % 2 == 0:
        roots = roots[len(roots) // 2:]
    out = []
    for r in roots:
        if r.is_rational():
            out.append((r.lo, ctx))
        elif ctx is None:
            new_ctx = FieldContext.of_root(r)
            out.append((new_ctx.generator(), new_ctx))
        else:
            raise TowerDepthExceededError(
                "branch coefficient needs a second algebraic extension")
    return out


def _pack(vec: list, shift: int) -> int:
    """The integer vector as one integer, sum(vec[i] 2^(shift i)) (Kronecker
    substitution): sums and products of packed vectors are the packed sums
    and products, as long as every entry of the result stays below
    2^(shift - 1) in absolute value."""
    n = 0
    for x in reversed(vec):
        n = (n << shift) + x
    return n


def _unpack(n: int, shift: int, width: int) -> list:
    """The first ``width`` entries of the vector packed in n (each of
    absolute value below 2^(shift - 1)), the last taking what is left."""
    out = []
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    for _ in range(width - 1):
        r = n & mask
        if r >= half:
            r -= mask + 1
        out.append(r)
        n = (n - r) >> shift
    out.append(n)
    return out


def _transform(q: BivarPoly, a: int, b: int, c) -> tuple[int, BivarPoly]:
    """(v, q(u1^b, u1^a (c + z)) / u1^v) with u1^v the exact power of u1
    dividing the substituted polynomial.

    The term (i, j) of q gives C(j, l) c^(j - l) times its coefficient to the
    term (i b + j a - v, l). This runs on integers: q's vectors as it holds
    them (a rational q's integers as vectors of length 1), and the powers
    of c over one denominator (``integer_powers``). Each vector is packed
    into one integer (``_pack``), so a contribution is one integer product
    and an output coefficient one integer sum. The output is rational
    exactly when q and c are, one integer map reduced by one gcd
    (``BivarPoly.from_integers``); otherwise Q(c)'s context reduces each of
    its vectors once (``BivarPoly.from_vectors``).
    """
    v = min(i * b + j * a for (i, j) in q.support)
    J = q.deg_y()
    pows, pden, ctx = integer_powers(c, J)
    form = q.integer_form()
    if form is None:
        vecs, den, ctx = q.vector_form()
        nums, num = list(vecs.values()), 1
    else:
        ints, num, den = form
        k = 1 if ctx is None else num   # outputs in Q(c) take the content in
        nums, num = [[x * k] for x in ints.values()], num // k
    # every entry of a packed sum stays below 2^(shift - 1) in absolute value
    width_n, width_c = max(map(len, nums)), max(map(len, pows))
    shift = 1
    if width_n > 1 or width_c > 1:
        bound = (sum(j + 1 for _, j in q.support) * min(width_n, width_c)
                 * max(abs(x) for vec in nums for x in vec) * comb(J, J // 2)
                 * max(abs(x) for vec in pows for x in vec))
        shift += bound.bit_length()
    cpows = [_pack(vec, shift) for vec in pows]
    rows = {j: [comb(j, l) * cpows[j - l] for l in range(j + 1)]
            for j in {j for _, j in q.support}}
    out: dict = {}
    for (i, j), vec in zip(q.support, nums):
        base = i * b + j * a - v
        n = _pack(vec, shift)
        row = rows[j]
        for l in range(j + 1):
            key = (base, l)
            out[key] = out.get(key, 0) + n * row[l]
    den *= pden
    if ctx is None:
        return v, BivarPoly.from_integers(out, num, den)
    width = width_n + width_c - 1
    return v, BivarPoly.from_vectors(
        ctx, {key: _unpack(n, shift, width) for key, n in out.items() if n},
        den)


def _np_branches(q: BivarPoly, ctx, sigma: int, levels: list,
                 gamma_min: Fraction, strict: bool, depth: int, out: list,
                 both: bool = True) -> None:
    """Append to ``out`` the chains (levels, ctx, tail, sigma) of the
    analytic branches at q's node, only even-b ones at a reflected node."""
    if depth > _MAX_DEPTH:
        raise RuntimeError("Newton polygon recursion failed to terminate")
    if q.min_deg_y() >= 1:
        # z = 0 is an exact solution branch ending at this node
        if both:
            out.append((list(levels), ctx, None, sigma))
        q = q.shift_down(0, 1)
        if q.is_constant():
            return
    if (0, 0) in q.support:
        return  # unit cofactor: no further vanishing branches
    reflect = False
    for edge in newton_polygon(q):
        if edge.gamma < gamma_min or (strict and edge.gamma == gamma_min):
            continue
        a, b = edge.gamma.numerator, edge.gamma.denominator
        if b % 2 and not both:
            continue
        reflect |= both and b % 2 == 0
        for c_val, new_ctx in _edge_roots(edge.poly, ctx, b):
            _, p1 = _transform(q, a, b, c_val)
            new_levels = levels + [(a, b, c_val)]
            # p1(0, z) = (c + z)^j E(c + z) for the edge's least j, so p1's
            # z term is c^j E'(c) z, and c != 0: it is there iff c is simple
            if (0, 1) in p1.support:
                out.append((new_levels, new_ctx,
                            None if p1.min_deg_y() >= 1 else p1, sigma))
            else:
                _np_branches(p1, new_ctx, sigma, new_levels, Fraction(0),
                             True, depth + 1, out)
    if reflect:
        levels, sigma, q = _mirror(levels, sigma, q)
        _np_branches(q, ctx, sigma, levels, gamma_min, strict, depth, out,
                     False)


def _tail_step(p: BivarPoly, n: int):
    """One Newton step along the simple root of p: (a, c, p1).

    p(0, 0) = 0 and p[0, 1] != 0, so p has one root z = Z(u) with Z(0) = 0.
    The edge (0,1)-(a,0) of p's Newton polygon, (a, 0) its lowest z-free
    term, gives Z = u^a (c + Z1) with c = -p[a,0] / p[0,1], and Z1 is the
    simple root of p1 = p(u, u^a (c + z1)) / u^a. Only p's terms up to
    u-degree n are kept, which fixes Z through u^n; with no z-free term
    there, Z = O(u^(n+1)) and the step is (n + 1, 0, p).
    """
    if (0, 1) not in p.support:
        raise RuntimeError("a Newton step needs a simple root")
    p = p.truncate(n)
    a = min((i for i, j in p.support if j == 0), default=n + 1)
    if a > n:
        return a, Fraction(0), p
    c = -p.coeff((a, 0)) / p.coeff((0, 1))
    return a, c, _transform(p, a, 1, c)[1]


def _mirror(levels: list, sigma: int, p):
    """(levels, sigma, p) with the last parameter negated, by arithmetic
    only: the other half of an analytic branch, or side of a node."""
    A, out, rest = 0, [], prod(b for _, b, _ in levels)
    sigma = -sigma if rest % 2 else sigma
    for a, b, c in levels:
        rest //= b  # u_m changes sign iff the later b's are all odd
        A += a * (rest % 2)
        out.append((a, b, -c if A % 2 else c))
    return out, sigma, None if p is None else p.reflect(A)


def _paired(branch: HalfBranch) -> list[HalfBranch]:
    """The branch and its mirrored twin, linked both ways."""
    levels, sigma, p = _mirror(branch.levels, branch.sigma, branch.p)
    twin = HalfBranch(branch.chart, sigma, levels, branch.ctx, p, branch.order)
    branch._twin, twin._twin = weakref.ref(twin), weakref.ref(branch)
    return [branch, twin]


def _branch_sort_key(b: HalfBranch):
    # chart, first gamma, sigma, first c, e, then the levels below by -gamma
    # and c: depth-first order. Compared coefficients share a node and edge:
    # rationals, roots of one isolate_real_roots call or their negations, or
    # one root in Q(c), read at the midpoint of its field's cell.
    keys = [(Fraction(a, b0), c.ctx.at_midpoint(c.vec, c.den)
             if isinstance(c, FieldElement) else c)
            for a, b0, c in b.levels] or [(0, 0)]
    return (CHART_RANK[b.chart], keys[0][0], -b.sigma, keys[0][1], b.e,
            tuple((-g, c) for g, c in keys[1:]))


def expand_branches(curve: BivarPoly, order: int) -> list[HalfBranch]:
    """All real half-branches of the square-free curve at the origin: one
    chain per real analytic branch, and its mirror, the ``twin``.

    ``order`` is the series trust bound in the parameter s: the truncated
    series hold every term below it (they are lifted when first read); the
    caller passes ``ExpansionConfig.order``. The input must be square-free;
    pass it through ``squarefree_part`` first if unsure. Raises UnitGermError
    when the curve does not pass through the origin, ZeroInputError for the
    zero polynomial, and TowerDepthExceededError for branches whose exact
    coefficients would need nested algebraic extensions.
    """
    if curve.is_zero():
        raise ZeroInputError("the zero polynomial is not a curve")
    if (0, 0) in curve.support:
        raise UnitGermError("curve does not pass through the origin")
    branches = []
    # a chain with no levels is z = 0 itself: the x-axis in the y-dominant
    # chart, the y-axis in the swapped one
    for chart, axis, p, strict in (("y-dominant", "x-axis", curve, False),
                                   ("x-dominant", "y-axis", curve.swap_vars(),
                                    True)):
        chains: list = []
        _np_branches(p, None, 1, [], Fraction(1), strict, 0, chains)
        for levels, ctx, tail, sigma in chains:
            branches += _paired(HalfBranch(chart if levels else axis, sigma,
                                           levels, ctx, tail, order))
    branches.sort(key=_branch_sort_key)
    return branches


def _series_mul(A, B, n):
    """A * B truncated to n terms (dense lists indexed by exponent)."""
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


def leading_term(polys, branch: HalfBranch, bound: int):
    """The lowest term of the first of ``polys`` to show one along a branch:
    (i, k, c) with polys[i](x(s), y(s)) = c*s^k + ..., or None when every
    one of them vanishes on the branch or would lead above ``bound``.

    Each polynomial is carried through the branch's own substitution chain:
    at level (a, b, c) it becomes q(u^b, u^a (c + z)) / u^v, and s^v' with
    v' = v times the later b's leaves its restriction. A constant term is
    the lowest term. Past the levels an exact branch is z = 0, so the lowest
    z-free term left is the leading term; otherwise the branch is the simple
    root of the final polynomial p. Through the levels and at z = 0 the
    polynomials go one after another, in index order, and the first to show
    a term wins; those still without one then follow the simple root
    together, one ``_tail_step`` at a time, the step fixed through the
    s-order that the least advanced of them still needs, and the first to
    show a term wins there, ties to the lowest index. Terms whose s-order
    exceeds ``bound`` cannot reach a lowest term at or below it, so each
    polynomial is cut above u-degree (bound - its order so far) / (s-exponent
    of u), and dropped once that order passes ``bound``.
    """
    swap = branch.chart in _SWAPPED
    tail = []   # (index, polynomial carried past the levels, s-order out)
    for i, f in enumerate(polys):
        q = f.swap_vars() if swap else f
        q = q.reflect(0) if branch.sigma < 0 else q
        acc = 0             # s-order already divided out
        scale = branch.e    # s-exponent of the current u
        for a, b, c in branch.levels:
            if q.is_zero() or (0, 0) in q.support:
                break
            scale //= b
            v, q = _transform(q, a, b, c)
            acc += v * scale
            q = q.truncate((bound - acc) // scale)
        if (0, 0) in q.support:
            return i, acc, q.coeff((0, 0))
        if branch.p is not None:
            if not q.is_zero():
                tail.append((i, q, acc))
            continue
        k = min((k for k, j in q.support if j == 0), default=None)
        if k is not None:
            return i, acc + k, q.coeff((k, 0))
    p = branch.p
    while tail:
        a, c, p = _tail_step(p, bound - min(acc for _, _, acc in tail))
        moved = []
        for i, q, acc in tail:
            v, q = _transform(q, a, 1, c)
            acc += v
            q = q.truncate(bound - acc)
            if (0, 0) in q.support:
                return i, acc, q.coeff((0, 0))
            if not q.is_zero():
                moved.append((i, q, acc))
        tail = moved
    return None
