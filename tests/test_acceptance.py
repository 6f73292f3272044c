"""Acceptance suite: one test per acceptance criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the per-criterion
lines; without it each criterion still reports as its own PASSED/FAILED row).
"""

import random
import time
from fractions import Fraction

import pytest

from germinv import (BivarPoly, ResourceError, analyze_germ, crosscheck,
                     equivalent_possible, parse_poly, substitute)

from conftest import REFERENCE_GERMS, rotate_germ

SEED = 20260816


def _line(n, desc):
    print(f"[acceptance] criterion {n}: {desc}: PASS")


def _random_rational_germ(rng):
    """Sparse germ, total degree <= 6, coefficients n/d with |n|<=9, d<=4."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        i, j = rng.randint(0, 6), rng.randint(0, 6)
        if i + j == 0 or i + j > 6:
            continue
        num = rng.randint(-9, 9)
        if num:
            terms[(i, j)] = Fraction(num, rng.randint(1, 4))
    return BivarPoly(terms)


def test_criterion_1_fixture_invariants_exact(reference_germs):
    for f, inv, *_ in reference_germs:
        t0 = time.perf_counter()
        a = analyze_germ(f)
        dt = time.perf_counter() - t0
        assert a.invariant.as_tuple() == (Fraction(inv[0]), Fraction(inv[1]))
        assert dt < 1.0, f"{f.to_string()} took {dt:.3f}s"
    _line(1, "four fixture invariants exact rational, each under 1s")


def test_criterion_2_half_branch_counts(reference_germs):
    got = [len(analyze_germ(f).restrictions) for f, *_ in reference_germs]
    assert got == [6, 6, 4, 4]
    _line(2, "tangency half-branch counts 6, 6, 4, 4 exact")


def test_criterion_3_restriction_tables(reference_germs):
    a1 = analyze_germ(reference_germs[0][0])
    assert a1.classification.K0_count == 0
    assert a1.classification.Kminus_alphas == [Fraction(3)]
    assert a1.classification.Kplus_alphas == [Fraction(v)
                                              for v in (3, 6, 6, 6, 6)]
    a2 = analyze_germ(reference_germs[1][0])
    assert a2.classification.K0_count == 2
    assert a2.classification.Kminus_alphas == []
    assert a2.classification.Kplus_alphas == [Fraction(v)
                                              for v in (4, 4, 6, 6)]
    _line(3, "restriction sign/alpha tables for fixtures (i) and (ii) exact")


def test_criterion_4_pairwise_exclusion(reference_germs):
    invs = [analyze_germ(f).invariant for f, *_ in reference_germs]
    for i in range(4):
        for j in range(i + 1, 4):
            assert equivalent_possible(invs[i], invs[j]) == "excluded"
    _line(4, "all 6 fixture pairs mutually excluded")


def test_criterion_5_invariance_properties(reference_germs):
    rng = random.Random(SEED)
    checked = skipped = 0
    while checked < 50:
        f = _random_rational_germ(rng)
        if f.is_zero():
            continue
        try:
            v = analyze_germ(f).invariant
            assert analyze_germ(-f).invariant == v.negate()
            for lam in (Fraction(1, 3), Fraction(2), Fraction(7)):
                assert analyze_germ(f.scale(lam)).invariant == v
            assert analyze_germ(rotate_germ(f)).invariant == v
        except ResourceError:
            skipped += 1
            continue
        checked += 1
    # the rotated double cusp forces branch coefficients outside the
    # rationals: the algebraic-extension path must actually run
    rot = analyze_germ(rotate_germ(reference_germs[1][0]))
    assert rot.invariant.as_tuple() == (Fraction(0), Fraction(4))
    assert any(r.branch.ctx is not None for r in rot.restrictions)
    _line(5, f"negation/scaling/rotation identities exact on {checked} "
             f"random germs ({skipped} certified resource skips)")


def test_criterion_6_puiseux_residuals(reference_germs):
    def residuals_vanish(f):
        a = analyze_germ(f)
        for r in a.restrictions:
            assert substitute(a.curve.h_sf, r.branch).terms == ()

    for f, *_ in reference_germs:
        residuals_vanish(f)
    rng = random.Random(SEED + 1)
    checked = 0
    while checked < 20:
        f = _random_rational_germ(rng)
        if f.is_zero():
            continue
        try:
            residuals_vanish(f)
        except ResourceError:
            continue
        checked += 1
    _line(6, "branch residuals exactly zero on fixtures and "
             f"{checked} random germs")


def test_criterion_7_oracle_agreement(reference_germs):
    for f, *_ in reference_germs:
        a = analyze_germ(f)
        report = crosscheck(f, a)  # slope +/-0.05, r2 >= 0.999
        assert report.passed, (f.to_string(), report.failures)
        assert report.path_count == len(a.restrictions)
        assert report.fit_psi.all_below_floor == (
            report.predicted_psi[0] == 0)
        assert report.fit_psibar.all_below_floor == (
            report.predicted_psibar[0] == 0)
        for fit, pred in ((report.fit_psi, report.predicted_psi),
                          (report.fit_psibar, report.predicted_psibar)):
            if pred[0] != 0:
                assert fit.sign == pred[0]
                assert abs(fit.exponent - pred[1]) <= 0.05
                assert fit.r2 >= 0.999
    _line(7, "numeric psi/psibar fits, path counts, and residuals agree "
             "with the exact classification on all fixtures")


def test_criterion_8_necessary_condition_scope(reference_germs):
    f = reference_germs[0][0]
    v = analyze_germ(f).invariant
    # germs known equivalent must never be excluded
    assert equivalent_possible(v, analyze_germ(-f).invariant) == "possible"
    assert equivalent_possible(
        v, analyze_germ(f.scale(Fraction(2))).invariant) == "possible"
    assert equivalent_possible(
        v, analyze_germ(rotate_germ(f)).invariant) == "possible"
    # and a matching pair is never claimed to prove equivalence
    print("[acceptance] note: existence of a bi-Lipschitz equivalence is "
          "not machine-checkable; this tool decides only the necessary "
          "condition (invariant pairs equal up to sign reversal) and the "
          "invariance laws of criterion 5.")
    _line(8, "verdicts are sound on known-equivalent germs; scope note "
             "printed")
