"""Convexity-class certification tests.

The grid search is deterministic, so falsification verdicts and
counterexamples are reproducible and can be pinned.  The naive-loop oracle
recomputes margins without any vectorization; the whole-lattice oracle is the
unblocked lattice search, which the blocked one must reproduce bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hhkit import convexity
from hhkit.convexity import (
    CertificationReport,
    ConvexityParams,
    Counterexample,
    certify,
    combination_coefficients,
    generalized_combination_rhs,
)
from hhkit.corpus import DOMAIN, FUNCTION_TEXTS, corpus_functions
from hhkit.expr import DomainError, Interval, derivative_power, parse_function

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


# ---------------------------------------------------------------------------
# blocked lattice against the whole-lattice search


def _whole_lattice_margins(f, interval, params, grid_n):
    """The lattice search as one grid_n^3 array: (margins, lhs, rhs, points, ys, mus)."""
    points = np.linspace(interval.a, interval.b, grid_n)
    mus = np.linspace(0.0, 1.0, grid_n)
    fx = np.asarray(f(points), dtype=float)
    if params.m > 0.0:
        fy = np.asarray(f(points / params.m), dtype=float)
        ys = points
    else:
        fy = None
        ys = np.zeros(1)
    X = points[:, None, None]
    Y = ys[None, :, None]
    MU = mus[None, None, :]
    lhs = np.asarray(f(MU * X + (1.0 - MU) * Y), dtype=float)
    fc, sc = combination_coefficients(params, mus)
    rhs = fc[None, None, :] * fx[:, None, None]
    if fy is not None:
        rhs = rhs + sc[None, None, :] * fy[None, :, None]
    rhs = np.broadcast_to(rhs, lhs.shape)
    return rhs - lhs, lhs, rhs, points, ys, mus


def _whole_lattice_certify(f, interval, params, grid_n, tolerance=1e-9):
    margins, lhs, rhs, points, ys, mus = _whole_lattice_margins(f, interval, params, grid_n)
    i, j, k = np.unravel_index(int(np.argmin(margins)), margins.shape)
    worst = float(margins[i, j, k])
    cex = None
    if worst < -tolerance:
        cex = Counterexample(
            float(points[i]), float(ys[j]), float(mus[k]), float(lhs[i, j, k]), float(rhs[i, j, k])
        )
    verdict = "falsified" if cex else "not_falsified"
    return CertificationReport(int(margins.size), worst, cex, verdict)


# convex with f(t)/t increasing, so in every class tested here; and one falsified everywhere
_EQUIVALENCE_TEXTS = ("x^2 + 0.5*x^4", "1.1*x^3 - 1.7*exp(x)")


def _block_sizes(grid_n, row):
    """The default, one row, three rows (uneven for most grids), and for small
    grids a size below one row, which still makes one-row blocks."""
    return (None, row, 3 * row) + ((1,) if grid_n <= 7 else ())


@pytest.mark.parametrize("grid_n", [2, 3, 7, 50, 131])
def test_blocked_certify_is_bitwise_the_whole_lattice(monkeypatch, grid_n):
    verdicts = set()
    for m in (0.0, 0.5, 0.75, 1.0):
        a, b = (0.0, 1.5) if m == 0.0 else (0.5, 2.0)
        iv = Interval(a, b)
        domain = Interval(a, b / m if m > 0.0 else b)
        row = grid_n * (grid_n if m > 0.0 else 1)
        for sense in ("first", "second"):
            params = ConvexityParams(0.75, 0.5, m, sense)
            for text in _EQUIVALENCE_TEXTS:
                f = parse_function(text, domain)
                expected = repr(_whole_lattice_certify(f, iv, params, grid_n))
                for points in _block_sizes(grid_n, row):
                    if points is not None:
                        monkeypatch.setattr(convexity, "BLOCK_POINTS", points)
                    report = certify(f, iv, params, grid_n)
                    assert repr(report) == expected, (m, sense, text, points)
                    verdicts.add(report.verdict)
                    monkeypatch.undo()
    assert verdicts == {"falsified", "not_falsified"}


@pytest.mark.parametrize("points", [400, 4000])  # one x row, ten x rows
def test_worst_margin_tie_across_blocks_goes_to_the_first(monkeypatch, points):
    f = parse_function("-(x^2)", UNIT)
    margins = _whole_lattice_margins(f, UNIT, CLASSIC, 20)[0]
    tied = np.argwhere(margins == margins.min())
    assert {int(i) for i in tied[:, 0]} == {0, 19}  # the tie spans two blocks
    monkeypatch.setattr(convexity, "BLOCK_POINTS", points)
    report = certify(f, UNIT, CLASSIC, grid_n=20)
    assert repr(report) == repr(_whole_lattice_certify(f, UNIT, CLASSIC, 20))
    assert (report.counterexample.x, report.counterexample.y) == (0.0, 1.0)


def test_certify_memory_does_not_grow_with_the_lattice():
    f = parse_function("exp(x)", UNIT)
    tracemalloc.start()
    try:
        report = certify(f, UNIT, CLASSIC, grid_n=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.samples_checked == 200**3
    assert peak < 16 * 2**20  # the 8M-point lattice as one array is 64 MB per temporary


def test_non_finite_hypothesis_values_raise():
    # |f'|^101 overflows to inf, and 0*inf at mu = 0 would make the worst margin nan
    iv = Interval(1.0, 3.0)
    hyp = derivative_power(parse_function("exp(3*x)", iv), 101.0)
    with pytest.raises(DomainError, match="not finite"):
        certify(hyp, iv, CLASSIC, grid_n=50)


def test_non_finite_margin_inside_the_lattice_raises():
    # finite on the grid 0, 1/3, 2/3, 1 but nan at the lattice point 5/9
    def f(t):
        return np.where((t > 0.4) & (t < 0.6), np.nan, 0.0)

    with pytest.raises(DomainError, match="not finite"):
        certify(f, UNIT, CLASSIC, grid_n=4)
