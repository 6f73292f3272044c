"""Invariant pair construction, the necessary-condition verdict, and the
full pipeline on the reference germs."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from germinv import (BivarPoly, Classification, GermInvariant, ResourceError,
                     analyze_germ, equivalent_possible, expand_branches,
                     invariant, parse_poly)
from germinv.tangency import Restriction

from conftest import golden_row_germs, random_germ, rotate_germ


def try_analyze(f):
    """None when the analysis certifies it cannot finish within limits."""
    try:
        return analyze_germ(f)
    except ResourceError:
        return None


X_AXIS = expand_branches(parse_poly("y"), 24)[0]


def fake(sign, alpha=None):
    return Restriction(sign, None if alpha is None else Fraction(alpha),
                       X_AXIS)


def inv_of(*restrictions):
    return invariant(Classification(list(restrictions))).as_tuple()


def test_invariant_case_table():
    # zero branches together with positive ones
    assert inv_of(fake(0), fake(1, 4), fake(1, 6)) == (0, 4)
    # zero branches together with negative ones
    assert inv_of(fake(0), fake(-1, 3)) == (-3, 0)
    # both signs present: zero branches do not matter
    assert inv_of(fake(-1, 5), fake(1, 2), fake(0)) == (-5, 2)
    assert inv_of(fake(-1, 5), fake(1, 2)) == (-5, 2)
    # one-signed: min and max of that class
    assert inv_of(fake(1, 2), fake(1, 7)) == (2, 7)
    assert inv_of(fake(-1, 2), fake(-1, 7)) == (-7, -2)
    # no branches at all
    assert inv_of() == (0, 0)


# K- = {2, 5}, one K0 branch, K+ = {3, 7}: each of the eight empty/nonempty
# combinations with its pair, psi and psibar written out by hand
CLASS_TABLE = [
    # K-     K0     K+     Inv        psi          psibar
    (False, False, False, (0, 0), (0, None), (0, None)),
    (False, True, False, (0, 0), (0, None), (0, None)),
    (False, False, True, (3, 7), (1, 7), (1, 3)),
    (False, True, True, (0, 3), (0, None), (1, 3)),
    (True, False, False, (-5, -2), (-1, 2), (-1, 5)),
    (True, True, False, (-2, 0), (-1, 2), (0, None)),
    (True, False, True, (-2, 3), (-1, 2), (1, 3)),
    (True, True, True, (-2, 3), (-1, 2), (1, 3)),
]


@pytest.mark.parametrize("km, k0, kp, pair, psi, psibar", CLASS_TABLE)
def test_class_to_pair_rule(km, k0, kp, pair, psi, psibar):
    rs = ([fake(-1, 5), fake(-1, 2)] if km else []) + \
        ([fake(0)] if k0 else []) + ([fake(1, 7), fake(1, 3)] if kp else [])
    c = Classification(rs)
    assert (c.psi, c.psibar) == (psi, psibar)
    assert invariant(c).as_tuple() == pair


def test_pair_is_canonical():
    v = GermInvariant(Fraction(5), Fraction(-1))
    assert (v.lo, v.hi) == (Fraction(-1), Fraction(5))


def test_negate():
    v = GermInvariant(Fraction(-3), Fraction(2))
    assert v.negate().as_tuple() == (Fraction(-2), Fraction(3))
    assert v.negate().negate() == v


def test_equivalence_verdicts():
    a = GermInvariant(Fraction(-3), Fraction(3))
    b = GermInvariant(Fraction(0), Fraction(4))
    assert equivalent_possible(a, a) == "possible"
    assert equivalent_possible(b, b.negate()) == "possible"
    assert equivalent_possible(a, b) == "excluded"
    assert equivalent_possible(b, a) == "excluded"


def test_reference_germs_full_pipeline(reference_germs):
    for f, inv, n, k0, km, kp in reference_germs:
        a = analyze_germ(f)
        assert a.invariant.as_tuple() == (Fraction(inv[0]), Fraction(inv[1]))
        assert len(a.restrictions) == n
        assert a.classification.K0_count == k0
        assert a.classification.Kminus_alphas == [Fraction(v) for v in km]
        assert a.classification.Kplus_alphas == [Fraction(v) for v in kp]


def test_negation_identity_random():
    rng = random.Random(31)
    checked = 0
    while checked < 10:
        f = random_germ(rng)
        a = None if f.is_zero() else try_analyze(f)
        if a is None:
            continue
        assert analyze_germ(-f).invariant == a.invariant.negate()
        checked += 1


def test_scaling_identity_random():
    rng = random.Random(32)
    checked = 0
    while checked < 10:
        f = random_germ(rng)
        a = None if f.is_zero() else try_analyze(f)
        if a is None:
            continue
        assert analyze_germ(f.scale(Fraction(2, 3))).invariant == a.invariant
        checked += 1


def test_rotation_identity_random():
    rng = random.Random(33)
    checked = 0
    while checked < 8:
        f = random_germ(rng)
        a = None if f.is_zero() else try_analyze(f)
        if a is None:
            continue
        g = rotate_germ(f)
        b = try_analyze(g)
        if b is None:
            continue
        assert b.invariant == a.invariant
        checked += 1


X, Y = BivarPoly.var_x(), BivarPoly.var_y()
# diffeomorphisms of (R^2, 0): a shear, a diagonal and two with nonlinear
# terms; and units u with u(0) > 0
DIFFEOMORPHISMS = [(X + Y.scale(Fraction(1, 2)), Y),
                   (X.scale(Fraction(2)), Y.scale(Fraction(-1, 3))),
                   (X + Y**2, Y), (X, Y + X**2)]
UNITS = [parse_poly(u) for u in ("1", "1 + x", "2 - y")]
# germs with irrational tangent directions, whose branches open Q(c)
IRRATIONAL_CONES = ["(x^2 - 3*y^2)*(x + y)", "x^3 - 2*x*y^2 + y^4",
                    "x^3 + x*y^2 + 2*y^3", "x^4 - 2*x^2*y^2 + 3*y^4 + x^5",
                    "x^3 - 6*x*y^2 + y^3"]


def test_contact_group_identity_random():
    # Inv(u * f o phi) = Inv(f), on random germs and on germs whose
    # invariant is read in Q(c). Every analysis must finish: a
    # ResourceError fails the test.
    rng = random.Random(1)
    germs = []
    while len(germs) < 12:
        f = random_germ(rng, max_deg=5, max_terms=4)
        if not f.is_zero():
            germs.append(f)
    for text in IRRATIONAL_CONES:
        f = parse_poly(text)
        assert any(r.branch.ctx is not None
                   for r in analyze_germ(f).restrictions), text
        germs.append(f)
    for f in germs:
        want = analyze_germ(f).invariant
        for px, py in DIFFEOMORPHISMS:
            g = f.compose(px, py)
            for u in UNITS:
                assert analyze_germ(u * g).invariant == want, \
                    (f.to_string(), px.to_string(), py.to_string(),
                     u.to_string())


@st.composite
def small_germs(draw):
    monomials = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
        lambda ij: 1 <= sum(ij) <= 5)
    terms = draw(st.dictionaries(monomials, st.integers(-5, 5).filter(bool),
                                 min_size=1, max_size=4))
    return BivarPoly({ij: Fraction(c) for ij, c in terms.items()})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_germs(), st.sampled_from([(X, Y)] + DIFFEOMORPHISMS),
       st.sampled_from(UNITS), st.booleans())
def test_contact_group_identity_hypothesis(f, phi, unit, rotate):
    # Inv(u * f o phi) = Inv(f) with phi also the identity, each phi
    # optionally followed by the rotation, which sends rational branch
    # directions into Q(c); a draw that either side cannot finish is skipped
    g = f.compose(*phi)
    if rotate:
        g = rotate_germ(g)
    want, got = try_analyze(f), try_analyze(unit * g)
    assume(want is not None and got is not None)
    assert got.invariant == want.invariant


def test_rotated_zero_set_uses_extension(reference_germs):
    # the rotated double cusp keeps its invariant, with the K0 branches
    # carried by algebraic (non-rational) parametrizations
    f = parse_poly("(x^2 - y^3)^2")
    a = analyze_germ(rotate_germ(f))
    assert a.invariant.as_tuple() == (Fraction(0), Fraction(4))
    k0 = [r for r in a.restrictions if r.sign == 0]
    assert len(k0) == 2
    assert all(r.branch.ctx is not None for r in k0)


def test_classification_counts():
    c = Classification([fake(0), fake(0), fake(1, 3), fake(-1, 5)])
    assert c.K0_count == 2
    assert c.Kminus_alphas == [Fraction(5)]
    assert c.Kplus_alphas == [Fraction(3)]


def branch_rows(f):
    """(chart, sigma, e, kind, alpha, in Q(c)) per half-branch, in order."""
    return [[r.branch.chart, r.branch.sigma, r.branch.e, r.kind,
             None if r.alpha is None else str(r.alpha),
             r.branch.ctx is not None]
            for r in analyze_germ(f).restrictions]


def test_branch_rows_match_golden():
    # the order of the rows is the branch order, so a change to the sort
    # key or to root isolation that reorders branches fails here
    path = Path(__file__).resolve().parent / "golden" / "branch_rows.json"
    golden = json.loads(path.read_text())
    germs = golden_row_germs()
    assert [f.to_string() for f in germs] == [g["germ"] for g in golden]
    for f, g in zip(germs, golden):
        assert branch_rows(f) == g["rows"], g["germ"]
