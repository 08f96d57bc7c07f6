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
from hypothesis import given, settings, strategies as st

from hhkit import convexity
from hhkit.convexity import (
    CertificationReport,
    ConvexityParams,
    Counterexample,
    certify,
    combination_coefficients,
    generalized_combination_rhs,
    hypothesis_certified,
)
from hhkit.corpus import (
    DOMAIN,
    FUNCTION_TEXTS,
    HOLDER_PS,
    INTERVALS,
    PARAM_TRIPLES,
    corpus_functions,
)
from hhkit.expr import DomainError, FunctionSpec, Interval, derivative_power, parse_function
from hhkit.kernels import HolderExponents
from hhkit.quadrature import integrate_with_guarantee

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


# ---------------------------------------------------------------------------
# the lattice cap


def test_lattice_past_the_cap_is_refused_before_f_is_evaluated():
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(x)

    with pytest.raises(ValueError) as exc:
        certify(f, UNIT, CLASSIC, grid_n=1025)
    assert str(exc.value) == (
        "grid_n=1025 gives a lattice of 1076890625 points, more than the cap of 1073741824"
    )
    assert calls == []


def test_lattice_at_the_cap_is_accepted():
    class Evaluated(Exception):
        pass

    def f(x):
        raise Evaluated

    assert convexity.MAX_LATTICE_POINTS == 1024**3
    with pytest.raises(Evaluated):
        certify(f, UNIT, CLASSIC, grid_n=1024)


def test_lattice_cap_counts_grid_squared_at_m_zero():
    f = parse_function("x^2", UNIT)  # convex with f(0) = 0, so f(mu*x) <= mu*f(x)
    report = certify(f, UNIT, ConvexityParams(1.0, 1.0, 0.0), grid_n=1025)
    assert report.samples_checked == 1025**2
    assert report.verdict == "not_falsified"


# ---------------------------------------------------------------------------
# the bounds' hypothesis check: the same verdict as certify, from fewer blocks


def _clear_sweeps():
    """Drop the memoised verdicts and the |f'| lattice blocks the sweeps keep."""
    convexity._hypothesis_certified.cache_clear()
    convexity._kept_blocks.cache_clear()


def _certify_verdict(f, q, interval, params, grid_n):
    first = ConvexityParams(params.s, params.alpha, params.m, "first")
    return not certify(derivative_power(f, q), interval, first, grid_n).falsified


def test_hypothesis_check_is_certify_on_every_corpus_hypothesis():
    _clear_sweeps()
    qs = [None] + [HolderExponents(p).q for p in HOLDER_PS]
    verdicts = set()
    for f in corpus_functions():
        for iv in INTERVALS:
            for params in PARAM_TRIPLES:
                for q in qs:
                    expected = _certify_verdict(f, q, iv, params, convexity.DEFAULT_GRID_N)
                    got = hypothesis_certified(f, q, iv, params, convexity.DEFAULT_GRID_N)
                    assert got == expected, (f.text, iv, params, q)
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_the_classes_at_m_1_and_alpha_s_below_1_hold_only_constants():
    # a negative control: at m = 1 and c = alpha*s < 1 the first-sense inequality
    # reads f(y + mu*(x - y)) <= f(y) - mu^c * (f(y) - f(x)), and as mu -> 0,
    # mu^c >> mu breaks it at any x, y with f(x) < f(y) for a Lipschitz f
    _clear_sweeps()
    grid_n, qs = convexity.DEFAULT_GRID_N, (None, 3.0, 2.0, 1.5)
    classes = [ConvexityParams(1.0, alpha_s, 1.0) for alpha_s in (0.5, 0.375)]
    verdicts = [
        hypothesis_certified(f, q, iv, params, grid_n)
        for f in corpus_functions()
        for iv in INTERVALS
        for params in classes
        for q in qs
    ]
    assert len(verdicts) == 120 and not any(verdicts)
    affine = parse_function("2*x + 1", DOMAIN)  # |f'| = 2 is constant, and a member
    assert all(
        hypothesis_certified(affine, q, iv, params, grid_n)
        for iv in INTERVALS
        for params in classes
        for q in qs
    )
    # the guaranteed integrator's class is (s, 1, 1): below s = 1 it certifies no nonconstant |f'|
    with pytest.raises(ValueError, match="falsified for the s=0.99 class"):
        integrate_with_guarantee(parse_function("x^2", UNIT), UNIT, 1e-3, s=0.99)


_coefficients = st.sampled_from((-2.0, -0.5, 0.25, 1.0, 3.0))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    _coefficients,
    st.integers(min_value=1, max_value=4),
    _coefficients,
    st.sampled_from((-1.0, 0.5, 2.0)),
    st.sampled_from((0.0, 0.25, 0.5)),
    st.sampled_from((0.5, 1.0)),
    st.sampled_from((ConvexityParams(1.0, 1.0, 1.0), ConvexityParams(0.5, 1.0, 1.0),
                     ConvexityParams(0.75, 0.5, 1.0), ConvexityParams(1.0, 0.5, 1.0, "second"))),
    st.sampled_from((0.5, 0.75, 1.0)),
    st.sampled_from((None, 2.0, 3.0)),
)
def test_hypothesis_check_is_certify_on_generated_functions(c1, k, c2, lam, a, width, triple, m, q):
    iv = Interval(a, a + width)
    f = parse_function(f"{c1!r}*x^{k} + {c2!r}*exp({lam!r}*x)", Interval(0.0, 3.0))  # holds b/m
    params = ConvexityParams(triple.s, triple.alpha, m, triple.sense)
    expected = _certify_verdict(f, q, iv, params, 30)
    assert hypothesis_certified(f, q, iv, params, 30) == expected


def _counting_hypotheses(monkeypatch):
    """Patch the hypothesis builder so each evaluation's point count is recorded."""
    sizes = []
    power = convexity.derivative_power

    def counting(f, q):
        hyp = power(f, q)

        def counted(x):
            sizes.append(np.size(x))
            return hyp(x)

        return counted

    monkeypatch.setattr(convexity, "derivative_power", counting)
    _clear_sweeps()
    return sizes


def test_falsified_hypothesis_stops_at_its_first_violating_block(monkeypatch):
    sizes = _counting_hypotheses(monkeypatch)
    f = parse_function("x^2", UNIT)
    grid_n = convexity.DEFAULT_GRID_N
    rows = convexity.BLOCK_POINTS // grid_n**2  # x rows per block
    assert not hypothesis_certified(f, None, UNIT, ConvexityParams(0.5, 1.0, 1.0), grid_n)
    # f at the grid, which at m = 1 is also grid/m, then the first block only, which is row 0
    assert sizes == [50, 2500]
    sizes.clear()
    _clear_sweeps()  # also drops the |f'| blocks the first sweep kept
    assert hypothesis_certified(f, None, UNIT, CLASSIC, grid_n)  # |f'| = 2x is convex
    # row 0, then blocks of `rows` rows from row 1
    assert len(sizes) == 2 + math.ceil((grid_n - 1) / rows) and sum(sizes[1:]) == grid_n**3


def test_a_single_block_lattice_keeps_its_one_block(monkeypatch):
    sizes = _counting_hypotheses(monkeypatch)
    f = parse_function("x^2", UNIT)
    # the guarantee's grid 30 is one block of 27,000 points: no row of its own for row 0
    assert not hypothesis_certified(f, None, UNIT, ConvexityParams(0.5, 1.0, 1.0), 30)
    assert sizes == [30, 30**3]


def test_certify_keeps_its_block_schedule():
    sizes = []

    def hyp(t):
        sizes.append(np.size(t))
        return -(t**2)  # concave: violated from row 0 on

    report = certify(hyp, UNIT, CLASSIC, grid_n=50)
    # f once at the grid (grid/m at m = 1), then every block is reduced, in
    # blocks of 13 x rows from row 0
    assert sizes == [50, 13 * 2500, 13 * 2500, 13 * 2500, 11 * 2500]
    assert repr(report) == repr(_whole_lattice_certify(hyp, UNIT, CLASSIC, 50))
    sizes.clear()
    certify(hyp, UNIT, ConvexityParams(1.0, 1.0, 0.5), grid_n=50)
    assert sizes[:3] == [50, 50, 13 * 2500]  # at m < 1, f is also evaluated at grid/m


@pytest.mark.parametrize(
    "grid_n, m, rows",
    [(50, 1.0, [13, 13, 13, 11]), (50, 0.5, [13, 13, 13, 11]), (60, 0.75, [9] * 6 + [6]),
     (100, 0.0, [100]), (200, 0.0, [163, 37]), (7, 1.0, [7])],
)  # fmt: skip
def test_certify_evaluates_a_function_spec_on_the_parent_block_schedule(monkeypatch, grid_n, m, rows):
    # blocks of BLOCK_POINTS // (ys * grid_n) whole x rows from row 0, each
    # evaluated once at the points mu*x + (1-mu)*y, bit for bit; value also
    # reaches _value_inside, at the grid and grid/m, in one dimension
    seen = []
    inside = FunctionSpec._value_inside

    def recording(self, x):
        if np.ndim(x) == 3:
            seen.append(np.array(x))
        return inside(self, x)

    monkeypatch.setattr(FunctionSpec, "_value_inside", recording)
    f = parse_function("x^2 - exp(x/2)", Interval(0.0, 1.0 / m if m > 0.0 else 1.0))
    certify(f, UNIT, ConvexityParams(1.0, 1.0, m), grid_n)
    points, mus = np.linspace(0.0, 1.0, grid_n), np.linspace(0.0, 1.0, grid_n)
    ys = points if m > 0.0 else np.zeros(1)
    MU = mus[None, None, :]
    assert [len(z) for z in seen] == rows
    start = 0
    for z in seen:
        block = slice(start, start + len(z))
        expected = MU * points[block, None, None] + (1.0 - MU) * ys[None, :, None]
        assert z.tobytes() == expected.tobytes()
        start += len(z)


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
def test_certify_checks_the_domain_a_fixed_number_of_times(monkeypatch, m):
    # at the grid, at grid/m when 0 < m < 1, and on the lattice's hull, whatever its size
    calls = []
    contains = Interval.contains
    monkeypatch.setattr(Interval, "contains", lambda self, *a, **k: calls.append(1) or contains(self, *a, **k))
    f = parse_function("exp(x)", Interval(0.0, 2.0))
    counts = []
    for grid_n in (2, 7, 50, 100, 150):
        calls.clear()
        certify(f, UNIT, ConvexityParams(1.0, 1.0, m), grid_n)
        counts.append(len(calls))
    assert counts == [3 if 0.0 < m < 1.0 else 2] * 5


def test_certify_at_m_zero_off_a_domain_holding_zero_raises_the_domain_error():
    # the lattice reaches 0 at mu = 0, outside f's domain [1, 2]
    f = parse_function("x^2", Interval(1.0, 2.0))
    with pytest.raises(DomainError) as exc:
        certify(f, Interval(1.0, 2.0), ConvexityParams(1.0, 1.0, 0.0), grid_n=10)
    assert str(exc.value) == "input outside domain [1.0, 2.0] of 'x^2'"


def test_certify_reports_the_lexicographically_first_counterexample_across_blocks():
    # -(x^2) ties its worst margin at rows 0 and 49: the first is reported
    f = parse_function("-(x^2)", UNIT)
    margins = _whole_lattice_margins(f, UNIT, CLASSIC, 50)[0]
    assert {int(i) for i in np.argwhere(margins == margins.min())[:, 0]} == {0, 49}
    report = certify(f, UNIT, CLASSIC, grid_n=50)
    assert repr(report) == repr(_whole_lattice_certify(f, UNIT, CLASSIC, 50))
    assert (report.counterexample.x, report.counterexample.y) == (0.0, 1.0)


@pytest.mark.parametrize("concave", [True, False])
def test_a_sweep_failing_in_row_0_does_not_reach_an_error_in_row_1(monkeypatch, concave):
    # z = 53/2401 is a lattice point of row 1 (x = 1/49, y = 2/49, mu = 45/49) but
    # not of row 0, whose points are (49 - j) * l / 2401, since 53 is prime
    nan_at = 53 / 49**2

    def hyp(t):
        return np.where(np.abs(t - nan_at) < 1e-6, np.nan, -(t**2) if concave else t**2)

    monkeypatch.setattr(convexity, "derivative_power", lambda f, q: hyp)
    _clear_sweeps()
    f = parse_function("x", UNIT)
    with pytest.raises(DomainError, match="not finite on the certify lattice"):
        certify(hyp, UNIT, CLASSIC, grid_n=50)  # its first block holds rows 0-12
    if concave:  # row 0 violates the class, and the sweep stops there
        assert hypothesis_certified(f, None, UNIT, CLASSIC, 50) is False
    else:
        with pytest.raises(DomainError, match="not finite on the certify lattice"):
            hypothesis_certified(f, None, UNIT, CLASSIC, 50)


def test_equal_alpha_s_and_m_share_one_sweep():
    _clear_sweeps()
    iv = Interval(0.0, 1.5)
    f = parse_function("x^4", Interval(0.0, 3.0))
    for m in (0.5, 1.0):
        a = hypothesis_certified(f, 2.0, iv, ConvexityParams(0.5, 1.0, m), 20)
        b = hypothesis_certified(f, 2.0, iv, ConvexityParams(1.0, 0.5, m, "second"), 20)
        assert a == b
    info = convexity._hypothesis_certified.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)


def _recording_walk(monkeypatch):
    """Patch the lattice walk so each block a sweep reads is recorded."""
    seen = []
    walk = convexity._block_minima

    def recording(*args):
        for block in walk(*args):
            seen.append(block)
            yield block

    monkeypatch.setattr(convexity, "_block_minima", recording)
    return seen


def test_shared_blocks_give_the_margins_of_a_cold_sweep_bit_for_bit(monkeypatch):
    seen = _recording_walk(monkeypatch)
    cases = [
        (f, iv, q, ConvexityParams(1.0, alpha_s, m))
        for f in corpus_functions()
        for iv in INTERVALS
        for m in (0.5, 0.75, 1.0)
        if iv.b / m <= DOMAIN.b
        for alpha_s in (1.0, 0.5, 0.375)
        for q in (None, 3.0, 2.0, 1.5)
    ]

    def sweep(f, iv, q, params):
        seen.clear()
        got = hypothesis_certified(f, q, iv, params, convexity.DEFAULT_GRID_N)
        return got, repr(seen)  # repr tells -0.0 from 0.0

    _clear_sweeps()
    warm = [sweep(*case) for case in cases]  # each lattice's first sweep fills its blocks
    for case, shared in zip(cases, warm):
        _clear_sweeps()
        assert shared == sweep(*case), case
    assert {got for got, _ in warm} == {True, False}


def test_a_shared_block_is_the_hypothesis_at_the_block_points():
    _clear_sweeps()
    f, iv, grid_n = parse_function("x^4", DOMAIN), Interval(0.0, 2.0), convexity.DEFAULT_GRID_N
    assert hypothesis_certified(f, None, iv, CLASSIC, grid_n)  # |f'| = 4x^3 is convex: every block
    kept = convexity._kept_blocks(f, iv, grid_n, True)
    assert list(kept) == [(0, 1), (1, 14), (14, 27), (27, 40), (40, 50)]
    points, MU = np.linspace(iv.a, iv.b, grid_n), np.linspace(0.0, 1.0, grid_n)[None, None, :]
    for (start, stop), block in kept.items():
        assert not block.flags.writeable
        z = MU * points[start:stop, None, None] + (1.0 - MU) * points[None, :, None]
        for q in (None, 3.0, 2.0, 1.5):
            assert np.all((block if q is None else block**q) == derivative_power(f, q)(z))


def test_lattices_of_one_function_on_other_intervals_or_grids_share_no_block(monkeypatch):
    sizes = _counting_hypotheses(monkeypatch)
    f = parse_function("exp(x)", DOMAIN)  # |f'|^2 = exp(2x) is convex: every block is swept
    # grids 50 and 49 both cut their lattice into blocks of 13 x rows
    for iv, grid_n in ((Interval(0.0, 1.0), 50), (Interval(1.0, 3.0), 50), (Interval(1.0, 3.0), 49)):
        sizes.clear()
        assert hypothesis_certified(f, 2.0, iv, CLASSIC, grid_n)
        assert sum(sizes[1:]) == grid_n**3  # evaluated afresh, not read from the last lattice


def test_a_lattice_past_the_kept_size_is_swept_in_flat_memory():
    _clear_sweeps()
    f = parse_function("exp(x)", UNIT)
    tracemalloc.start()
    try:
        assert hypothesis_certified(f, None, UNIT, CLASSIC, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # kept, the 8M-point lattice's |f'| blocks would take 64 MB
    assert convexity._kept_blocks.cache_info().currsize == 0


def test_a_lattice_past_the_kept_size_leaves_the_kept_blocks_in_place(monkeypatch):
    sizes = _counting_hypotheses(monkeypatch)
    f, grid_n = parse_function("exp(x)", UNIT), convexity.DEFAULT_GRID_N
    assert hypothesis_certified(f, None, UNIT, CLASSIC, grid_n)  # |f'| = exp(x) is convex
    kept = convexity._kept_blocks(f, UNIT, grid_n, True)
    blocks = dict(kept)
    assert list(blocks) == [(0, 1), (1, 14), (14, 27), (27, 40), (40, 50)]
    assert 70**3 > 4 * convexity.BLOCK_POINTS
    assert hypothesis_certified(f, 2.0, UNIT, CLASSIC, 70)
    assert convexity._kept_blocks(f, UNIT, grid_n, True) is kept  # stored nothing, evicted nothing
    assert all(kept[key] is block for key, block in blocks.items()) and len(kept) == len(blocks)
    sizes.clear()
    assert hypothesis_certified(f, 3.0, UNIT, CLASSIC, grid_n)
    assert sizes == [grid_n]  # f' at the grid only: every block is read from the kept ones


def test_a_derivative_error_inside_a_block_is_raised_again_by_the_next_sweep(monkeypatch):
    sizes = _counting_hypotheses(monkeypatch)
    # f' is undefined at 1/4: a lattice point (x = 0, y = 1/2, mu = 1/2), not a grid point
    f = parse_function("abs(x - 0.25)^0.5", UNIT)
    for q in (None, 2.0):
        sizes.clear()
        with pytest.raises(DomainError, match="undefined"):
            hypothesis_certified(f, q, UNIT, CLASSIC, 3)
        assert sizes == [3, 27]  # the block is evaluated again, its error not kept


# On the 4-point lattice over [0, 1] with one x row per block, the point 8/9
# first occurs in the row x = 2/3 and 1/9 in the row x = 0; a concave f has a
# counterexample in the row x = 0 (x = 0, y = 1, mu = 1/3).
@pytest.mark.parametrize(
    "nan_at, concave, outcome",
    [
        (8 / 9, True, False),  # the error lies after the first violating block
        (1 / 9, True, DomainError),  # the error lies in that block
        (8 / 9, False, DomainError),  # no violating block before the error
    ],
)
def test_hypothesis_check_raises_only_up_to_its_first_violating_block(
    monkeypatch, nan_at, concave, outcome
):
    def hyp(t):
        return np.where(np.abs(t - nan_at) < 0.05, np.nan, -(t**2) if concave else t**2)

    monkeypatch.setattr(convexity, "derivative_power", lambda f, q: hyp)
    monkeypatch.setattr(convexity, "BLOCK_POINTS", 16)
    _clear_sweeps()
    f = parse_function("x", UNIT)
    with pytest.raises(DomainError, match="not finite on the certify lattice"):
        certify(hyp, UNIT, CLASSIC, grid_n=4)  # certify reduces every block
    if outcome is DomainError:
        with pytest.raises(DomainError, match="not finite on the certify lattice"):
            hypothesis_certified(f, None, UNIT, CLASSIC, 4)
    else:
        assert hypothesis_certified(f, None, UNIT, CLASSIC, 4) is outcome
