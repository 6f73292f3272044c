"""BivarPoly's integer form against a reference on term maps of Fractions.

A rational polynomial is held as a primitive integer map times a positive
content; every operation on it must give the polynomial, and the canonical
form, that the same operation gives coefficient by coefficient.
"""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germinv import BivarPoly
from germinv.numberfield import FieldElement
from germinv.puiseux import _transform

from conftest import root_field

BIG = 10**400

# -- the reference: dicts (i, j) -> Fraction without zero entries --------------


def clean(d: dict) -> dict:
    return {ij: Fraction(c) for ij, c in d.items() if c}


def ref_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for ij, c in q.items():
        out[ij] = out.get(ij, 0) + sign * c
    return clean(out)


def ref_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i1, j1), a in p.items():
        for (i2, j2), b in q.items():
            ij = (i1 + i2, j1 + j2)
            out[ij] = out.get(ij, 0) + a * b
    return clean(out)


def ref_pow(p: dict, n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_diff(p: dict, var: str) -> dict:
    if var == "x":
        return clean({(i - 1, j): c * i for (i, j), c in p.items() if i})
    return clean({(i, j - 1): c * j for (i, j), c in p.items() if j})


def ref_compose(p: dict, px: dict, py: dict) -> dict:
    out: dict = {}
    for (i, j), c in p.items():
        term = ref_mul(ref_pow(px, i), ref_pow(py, j))
        out = ref_add(out, {ij: c * v for ij, v in term.items()})
    return out


def ref_transform(p: dict, a: int, b: int, c: Fraction) -> tuple[int, dict]:
    """p(u^b, u^a (c + z)) / u^v, term by term."""
    v = min(i * b + j * a for i, j in p)
    out: dict = {}
    for (i, j), coeff in p.items():
        for l in range(j + 1):
            key = (i * b + j * a - v, l)
            out[key] = out.get(key, 0) + coeff * comb(j, l) * c ** (j - l)
    return v, clean(out)


# -- the form under test -------------------------------------------------------


def assert_canonical(p: BivarPoly) -> None:
    # a primitive integer map with no zero entry, times num/den in lowest
    # terms with num > 0; the zero polynomial holds {} and 1/1
    ints, num, den = p.integer_form()
    assert all(isinstance(v, int) and v for v in ints.values())
    assert num > 0 and den > 0 and gcd(num, den) == 1
    assert gcd(*ints.values()) == 1 if ints else (num, den) == (1, 1)


def assert_is(p: BivarPoly, ref: dict) -> None:
    assert_canonical(p)
    # a single coefficient is read off the form, before the term map exists
    assert all(p.coeff(ij) == c for ij, c in ref.items())
    assert p.terms == ref
    want = BivarPoly(ref)
    assert p == want and hash(p) == hash(want)


def from_integer_map(ref: dict) -> BivarPoly:
    """The same polynomial built from integers over a common denominator,
    its content not reduced and of either sign."""
    den = 1
    for c in ref.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {ij: -3 * int(c * den) for ij, c in ref.items()}
    return BivarPoly.from_integers(ints, -5, 15 * den)


coeffs = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(-3, 3).map(lambda k: Fraction(BIG + k)),
    st.tuples(st.integers(-3, 3), st.integers(1, 9)).map(
        lambda kd: Fraction(-BIG + kd[0], kd[1])))
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
maps = st.dictionaries(exps, coeffs, max_size=5).map(clean)
small = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        st.fractions(min_value=-5, max_value=5,
                                     max_denominator=6),
                        max_size=3).map(clean)


@settings(max_examples=60, deadline=None)
@given(maps, maps, st.fractions(min_value=-9, max_value=9, max_denominator=9))
@example({}, {}, Fraction(0))
@example({(0, 0): Fraction(-7, 3)}, {(1, 2): Fraction(BIG)}, Fraction(-1, 2))
@example({(1, 0): Fraction(BIG - 1), (0, 1): Fraction(BIG + 1)},
         {(1, 0): Fraction(-BIG + 1)}, Fraction(2, 3))
def test_ring_operations_match_term_maps(p, q, c):
    a, b = BivarPoly(p), BivarPoly(q)
    for x, ref in ((a, p), (b, q)):
        assert_is(x, ref)
        assert_is(from_integer_map(ref), ref)
        assert_is(-x, clean({ij: -v for ij, v in ref.items()}))
    assert_is(a + b, ref_add(p, q))
    assert_is(a - b, ref_add(p, q, -1))
    assert_is(a * b, ref_mul(p, q))
    assert_is(a.scale(c), clean({ij: v * c for ij, v in p.items()}))
    assert_is(a ** 2, ref_pow(p, 2))
    assert_is(b ** 0, ref_pow(q, 0))
    for var in "xy":
        assert_is(a.diff(var), ref_diff(p, var))


@settings(max_examples=40, deadline=None)
@given(maps, small, small)
@example({(0, 0): Fraction(BIG)}, {}, {(1, 0): Fraction(-1)})
def test_compose_matches_term_maps(p, px, py):
    assert_is(BivarPoly(p).compose(BivarPoly(px), BivarPoly(py)),
              ref_compose(p, px, py))


@settings(max_examples=60, deadline=None)
@given(maps, st.integers(0, 4), st.integers(0, 3))
@example({(2, 1): Fraction(-BIG), (3, 3): Fraction(BIG, 3)}, 2, 1)
def test_substitutions_match_term_maps(p, n, parity):
    a = BivarPoly(p)
    assert_is(a.swap_vars(), {(j, i): c for (i, j), c in p.items()})
    assert_is(a.reflect(parity), {(i, j): (-c if (i + parity * j) % 2 else c)
                                  for (i, j), c in p.items()})
    # cutting terms can leave a larger integer content, taken out again
    assert_is(a.truncate(n), {ij: c for ij, c in p.items() if ij[0] <= n})
    if p:
        lo_i = min(i for i, _ in p)
        lo_j = min(j for _, j in p)
        assert_is(a.shift_down(lo_i, lo_j),
                  {(i - lo_i, j - lo_j): c for (i, j), c in p.items()})


@settings(max_examples=60, deadline=None)
@given(maps.filter(bool), st.integers(1, 4), st.integers(1, 3),
       st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
@example({(0, 1): Fraction(BIG), (2, 0): Fraction(-BIG + 1, 5)}, 2, 1,
         Fraction(-3, 7))
def test_transform_matches_term_maps_over_q(p, a, b, c):
    v, got = _transform(BivarPoly(p), a, b, c)
    want_v, want = ref_transform(p, a, b, c)
    assert v == want_v
    assert_is(got, want)


def test_equal_polynomials_share_one_form():
    # built from Fractions, from ints, from an integer map over a
    # denominator with a negative content, or reduced to zero: equal
    # polynomials are equal and hash alike
    forms = [BivarPoly({(1, 0): Fraction(4, 6), (0, 2): Fraction(-2)}),
             BivarPoly.from_integers({(1, 0): -2, (0, 2): 6}, -1, 3),
             BivarPoly.from_integers({(1, 0): 4, (0, 2): -12}, 2, 12),
             BivarPoly({(1, 0): Fraction(2, 3), (0, 2): -2, (3, 3): 0})]
    assert all(f == forms[0] and hash(f) == hash(forms[0]) for f in forms)
    assert BivarPoly({(2, 1): 6}) == BivarPoly({(2, 1): Fraction(6)})
    zeros = [BivarPoly(), BivarPoly({(1, 1): Fraction(0)}),
             BivarPoly.from_integers({}, 5, 3),
             BivarPoly.from_integers({(1, 0): 0}),
             BivarPoly.constant(Fraction(BIG)).scale(0),
             BivarPoly.var_x() - BivarPoly.var_x()]
    for z in zeros:
        assert_canonical(z)
        assert z == BivarPoly.zero() and hash(z) == hash(BivarPoly.zero())
    # the content carries the sign, the integer map stays primitive
    p = BivarPoly.from_integers({(0, 1): 3 * BIG, (1, 1): -6 * BIG}, -1, 9)
    assert p.integer_form() == ({(0, 1): -1, (1, 1): 2}, BIG, 3)
    assert p.terms == {(0, 1): Fraction(-BIG, 3), (1, 1): Fraction(2 * BIG, 3)}


def test_polynomial_over_q_c_is_unhashable():
    # a polynomial over Q(c) holds integer vectors, and its coefficients
    # read as Q(c) elements, whose equality is a certified zero test and
    # which have no hash
    K = root_field([-2, 0, 1], 1)
    p = BivarPoly.from_vectors(K, {(1, 0): [0, 1], (0, 1): [1]}, 1)
    assert p.integer_form() is None
    assert p.terms == {(1, 0): K.generator(), (0, 1): 1}
    assert all(isinstance(c, FieldElement) for c in p.terms.values())
    with pytest.raises(TypeError):
        hash(p)


def test_polynomials_over_q_c_compare_by_value():
    # over the reducible modulus (t^2 - 2)(t^2 - 3), c = sqrt2 is its third
    # root: c^2 stays the vector of c^2, which is not 2's, yet c^2 x + y and
    # 2 x + y are one polynomial, and 3 x + y is another
    K = root_field([6, 0, -5, 0, 1], 2)
    assert not K.irreducible

    def poly(vec):
        return BivarPoly.from_vectors(K, {(1, 0): vec, (0, 1): [1]}, 1)

    p, q = poly([0, 0, 1]), poly([2])
    assert p.vector_form()[0] != q.vector_form()[0]
    assert p == q and q == p
    assert p != poly([3]) and poly([3]) != q
