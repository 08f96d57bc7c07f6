"""Convexity-class certification tests.

The grid search is deterministic, so falsification verdicts and
counterexamples are reproducible and can be pinned.  The naive-loop oracle
recomputes margins without any vectorization.
"""

import math

import numpy as np
import pytest

from hhkit.convexity import (
    CertificationReport,
    ConvexityParams,
    certify,
    combination_coefficients,
    generalized_combination_rhs,
)
from hhkit.corpus import DOMAIN, FUNCTION_TEXTS, corpus_functions
from hhkit.expr import DomainError, Interval, parse_function

CLASSIC = ConvexityParams(1.0, 1.0, 1.0, "first")
UNIT = Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# parameter validation and coefficients


def test_params_validation():
    with pytest.raises(ValueError):
        ConvexityParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ConvexityParams(1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        ConvexityParams(1.0, 1.1, 1.0)
    with pytest.raises(ValueError):
        ConvexityParams(1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        ConvexityParams(1.0, 1.0, 1.0, "third")
    assert ConvexityParams(0.75, 0.5, 1.0).alpha_s == 0.375


def test_rhs_classic_midpoint():
    assert generalized_combination_rhs(CLASSIC, 2.0, 4.0, 0.5) == 3.0


def test_rhs_at_mu_one_is_left_value():
    assert generalized_combination_rhs(CLASSIC, 2.0, 4.0, 1.0) == 2.0


def test_rhs_s_half_first_sense():
    # mu^s * f(x) with the second value zeroed: 0.25^0.5 * 1 = 0.5
    prm = ConvexityParams(0.5, 1.0, 1.0, "first")
    assert generalized_combination_rhs(prm, 1.0, 0.0, 0.25) == 0.5


def test_rhs_rejects_bad_mu_and_nan():
    with pytest.raises(ValueError):
        generalized_combination_rhs(CLASSIC, 1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        generalized_combination_rhs(CLASSIC, math.nan, 1.0, 0.5)


def test_m_zero_drops_second_term():
    prm = ConvexityParams(1.0, 1.0, 0.0, "first")
    assert generalized_combination_rhs(prm, 5.0, 123.0, 0.5) == 0.5 * 5.0


def test_senses_coincide_at_s_one():
    mus = np.linspace(0.0, 1.0, 21)
    first = ConvexityParams(1.0, 0.7, 0.8, "first")
    second = ConvexityParams(1.0, 0.7, 0.8, "second")
    fc1, sc1 = combination_coefficients(first, mus)
    fc2, sc2 = combination_coefficients(second, mus)
    assert np.all(np.abs(fc1 - fc2) <= 1e-12)
    assert np.all(np.abs(sc1 - sc2) <= 1e-12)


def test_classic_params_reduce_to_plain_convex_combination():
    for mu in (0.0, 0.125, 0.3, 0.5, 0.9, 1.0):
        fc, sc = combination_coefficients(CLASSIC, mu)
        assert fc == mu
        assert sc == 1.0 - mu


# ---------------------------------------------------------------------------
# certification


def test_affine_function_has_exactly_zero_worst_margin():
    report = certify(parse_function("x", UNIT), UNIT, CLASSIC, grid_n=20)
    assert not report.falsified
    assert report.worst_margin == 0.0
    assert report.counterexample is None
    assert report.samples_checked == 20**3


def test_square_on_0_2_not_falsified():
    iv = Interval(0.0, 2.0)
    report = certify(parse_function("x^2", iv), iv, CLASSIC, grid_n=50)
    assert report.verdict == "not_falsified"
    assert report.worst_margin >= -1e-12  # roundoff only, never a real violation


def test_concave_square_falsified_with_pinned_counterexample():
    report = certify(parse_function("-(x^2)", UNIT), UNIT, CLASSIC, grid_n=20)
    assert report.falsified
    cex = report.counterexample
    # lexicographically first argmin: x=0, y=1, mu = 9/19 (first of the tied pair)
    assert cex.x == 0.0
    assert cex.y == 1.0
    assert cex.mu == 9.0 / 19.0
    assert math.isclose(cex.lhs, -((10.0 / 19.0) ** 2), abs_tol=1e-12)
    assert math.isclose(cex.rhs, -10.0 / 19.0, abs_tol=1e-12)
    assert math.isclose(report.worst_margin, -90.0 / 361.0, abs_tol=1e-12)
    # the reported point reproduces its own margin through the public rhs helper
    rhs = generalized_combination_rhs(CLASSIC, 0.0, -1.0, cex.mu)
    assert math.isclose(rhs, cex.rhs, abs_tol=1e-15)


def test_certify_matches_naive_loop_oracle():
    f = parse_function("-(x^2)", UNIT)
    report = certify(f, UNIT, CLASSIC, grid_n=20)
    pts = np.linspace(0.0, 1.0, 20)
    worst = math.inf
    for x in pts:
        for y in pts:
            for mu in pts:
                lhs = f.value(mu * x + (1.0 - mu) * y)
                rhs = mu * f.value(x) + (1.0 - mu) * f.value(y)
                worst = min(worst, rhs - lhs)
    assert math.isclose(report.worst_margin, worst, abs_tol=1e-12)


def test_convex_corpus_passes_classic_certification():
    for f in corpus_functions():
        report = certify(f, DOMAIN, CLASSIC, grid_n=30)
        assert not report.falsified, f.text


def test_falsification_is_monotone_under_grid_refinement():
    # linspace(0, 1, 2n-1) contains linspace(0, 1, n), so the minimum can only drop
    f = parse_function("-(x^2)", UNIT)
    worsts = []
    for n in (20, 39, 77):
        report = certify(f, UNIT, CLASSIC, grid_n=n)
        assert report.falsified
        worsts.append(report.worst_margin)
    assert worsts[1] <= worsts[0]
    assert worsts[2] <= worsts[1]


def test_not_falsified_is_stable_under_grid_refinement_for_convex():
    f = parse_function("exp(x)", UNIT)
    for n in (20, 39, 77):
        assert not certify(f, UNIT, CLASSIC, grid_n=n).falsified


def test_m_half_linear_function_certifies_exactly():
    # f(x) = 2x with m = 1/2: mu*f(x) + m(1-mu)f(y/m) = 2mu x + 2(1-mu)y, equality
    f = parse_function("2*x", Interval(0.0, 4.0))
    iv = Interval(0.0, 2.0)
    prm = ConvexityParams(1.0, 1.0, 0.5, "first")
    report = certify(f, iv, prm, grid_n=25)
    assert not report.falsified
    assert report.worst_margin == 0.0


def test_m_half_requires_widened_domain():
    f = parse_function("2*x", Interval(0.0, 2.0))
    prm = ConvexityParams(1.0, 1.0, 0.5, "first")
    with pytest.raises(DomainError):
        certify(f, Interval(0.0, 2.0), prm, grid_n=10)


def test_m_zero_certification_never_evaluates_outside():
    # second term is dropped, so f is only sampled on the interval itself
    f = parse_function("exp(x)", UNIT)
    prm = ConvexityParams(1.0, 1.0, 0.0, "first")
    report = certify(f, UNIT, prm, grid_n=15)
    assert isinstance(report, CertificationReport)
    # exp is positive so dropping the second term falsifies: mu*exp(x) < exp(mu x + ...)
    assert report.falsified


def test_certify_validates_grid_and_tolerance():
    f = parse_function("x^2", UNIT)
    with pytest.raises(ValueError):
        certify(f, UNIT, CLASSIC, grid_n=1)
    with pytest.raises(ValueError):
        certify(f, UNIT, CLASSIC, tolerance=-1e-9)


def test_certify_rejects_nan_tolerance():
    with pytest.raises(ValueError):
        certify(parse_function("x^2", UNIT), UNIT, CLASSIC, tolerance=math.nan)


def test_corpus_texts_are_the_expected_five():
    assert len(FUNCTION_TEXTS) == 5
    assert len(corpus_functions()) == 5
