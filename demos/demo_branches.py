# ## Expanding the tangency curve into half-branches
#
# Everything the invariant needs comes from parametrizing the real branches
# of h = y*f_x - x*f_y near the origin with exact Puiseux data: x = sigma*s^e,
# y = series in s (or the mirror chart), one half-branch per sign of the
# parameter side.

from germinv import analyze_germ, parse_poly, substitute, tangency_poly

f = parse_poly("(x^2 - y^3)^2")
print(f"f = {f.to_string()}")
print(f"h = {tangency_poly(f).to_string()}")
print()

# ## The branch table
#
# The double cusp contributes the two half-branches of x^2 = y^3 (f vanishes
# there: class K0) and the coordinate axes carry the rest.

a = analyze_germ(f)
for k, r in enumerate(a.restrictions):
    b = r.branch
    alpha = "-" if r.alpha is None else str(r.alpha)
    print(f"[{k}] chart={b.chart} sigma={b.sigma:+d} e={b.e} {r.kind} "
          f"alpha={alpha}")
    print(f"     x(s) = {b.x.to_string()}")
    print(f"     y(s) = {b.y.to_string()}")
print()

# ## Residual check
#
# Substituting each parametrization back into the squarefree part of h must
# give exactly zero up to the working truncation order; the arithmetic is
# rational, so "exactly" means exactly.

for r in a.restrictions:
    res = substitute(a.curve.h_sf, r.branch)
    assert res.terms == (), res
print("all branch residuals are exactly zero")
print()

# ## Algebraic leading coefficients
#
# Branch coefficients can leave the rationals. Rotating the cusp forces a
# quadratic extension; the expansion carries the minimal polynomial along
# and still decides every sign exactly.

from fractions import Fraction

from germinv import BivarPoly

px = BivarPoly.var_x().scale(Fraction(3, 5)) + BivarPoly.var_y().scale(Fraction(4, 5))
py = BivarPoly.var_x().scale(Fraction(-4, 5)) + BivarPoly.var_y().scale(Fraction(3, 5))
rot = analyze_germ(f.compose(px, py))
print(f"rotated invariant: ({rot.invariant.lo}, {rot.invariant.hi})")
for r in rot.restrictions:
    if r.branch.ctx is not None:
        coeffs = ", ".join(str(c) for c in r.branch.ctx.defining)
        print(f"  algebraic branch ({r.kind}): minimal polynomial "
              f"coefficients [{coeffs}]")
