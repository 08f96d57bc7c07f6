"""Trapezoid sums, a-priori error bounds, guaranteed integration, and the oracle."""

import math
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhkit import convexity, quadrature
from hhkit.convexity import ConvexityParams, certify
from hhkit.corpus import DOMAIN, INTERVALS, corpus_functions
from hhkit.expr import (
    DerivativeUndefinedError,
    DomainError,
    FunctionSpec,
    Interval,
    parse_function,
)
from hhkit.hhbounds import hh_gap, verify_theorem
from hhkit.kernels import gauss_legendre_01, kernel_constants
from hhkit.quadrature import (
    BOUND_VARIANTS,
    N_CAP,
    NonConvergenceError,
    Partition,
    _uniform_pass,
    bound_constant,
    integrate_with_guarantee,
    reference_integrate,
    trapezoid_error_bound,
    trapezoid_sum,
)

UNIT = Interval(0.0, 1.0)
S_GRID = tuple(round(0.05 * k, 2) for k in range(1, 21))


# ---------------------------------------------------------------------------
# partitions and sums


def test_uniform_partition_shape():
    part = Partition.uniform(UNIT, 4)
    assert part.n == 4
    assert part.a == 0.0 and part.b == 1.0
    assert np.array_equal(part.points, np.linspace(0.0, 1.0, 5))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0.0]))
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 0.5, 0.4, 1.0]))
    with pytest.raises(ValueError):
        Partition(np.array([0.0, math.nan, 1.0]))
    with pytest.raises(ValueError):
        Partition.uniform(UNIT, 0)


def test_partition_points_are_read_only():
    part = Partition.uniform(UNIT, 2)
    with pytest.raises(ValueError):
        part.points[0] = -1.0


def test_partition_copies_a_callers_points():
    pts = np.linspace(0.0, 1.0, 5)
    part = Partition(pts)
    pts[1] = 0.9
    assert part.points[1] == 0.25
    assert pts.flags.writeable and not part.points.flags.writeable


def test_partition_checks_every_pair_across_blocks():
    block = convexity.BLOCK_POINTS
    pts = np.arange(3.0 * block)
    pts[block] = pts[block - 1]  # a repeated point straddling the first block edge
    with pytest.raises(ValueError, match="strictly increasing"):
        Partition(pts)
    # a decrease in the first block and a nan in the last: finiteness is reported
    pts = np.arange(3.0 * block)
    pts[1], pts[-1] = -1.0, math.nan
    with pytest.raises(ValueError, match="finite"):
        Partition(pts)


def test_uniform_partition_holds_its_points_once():
    # 2**22 + 1 points are 32 MiB; whole-array checks and a copy peaked at 68 MiB
    tracemalloc.start()
    try:
        part = Partition.uniform(UNIT, 2**22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.n == 2**22 and not part.points.flags.writeable
    assert peak <= 40 * 2**20, peak


def test_trapezoid_sum_examples():
    fx = parse_function("x", UNIT)
    fsq = parse_function("x^2", UNIT)
    assert trapezoid_sum(fx, Partition.uniform(UNIT, 1)) == 0.5
    assert trapezoid_sum(fsq, Partition.uniform(UNIT, 2)) == 0.375
    assert trapezoid_sum(fsq, Partition.uniform(UNIT, 1)) == 0.5


# ---------------------------------------------------------------------------
# blocked sums, against the whole-array code they replaced
#
# The whole-array sums below are what trapezoid_sum, trapezoid_error_bound
# and _uniform_pass computed before they summed in blocks; the blocked sums
# must give the same bits.


def _whole_trapezoid(pts, vals):
    vals = np.asarray(vals, dtype=float)
    return float(np.sum(np.diff(pts) * (vals[:-1] + vals[1:]) / 2.0))


def _whole_panel_sum(pts, derivative):
    d = np.abs(np.asarray(derivative, dtype=float))
    return float(np.sum(np.diff(pts) ** 2 / 2.0 * (d[:-1] + d[1:])))


def _whole_uniform_pass(f, interval, n, constants):
    pts = np.linspace(interval.a, interval.b, n + 1)
    fd = f.eval_with_derivative(pts)
    panel = _whole_panel_sum(pts, fd.derivative)
    return _whole_trapezoid(pts, fd.value), constants[0] * panel, constants[1] * panel


def _assert_blocked_is_whole(f, iv, n, rng):
    consts = _constants()
    assert _uniform_pass(f, iv, n, consts) == _whole_uniform_pass(f, iv, n, consts), (n, iv)
    inner = np.unique(np.random.default_rng(rng.getrandbits(32)).uniform(iv.a, iv.b, n - 1))
    uneven = np.concatenate(([iv.a], inner[(inner > iv.a) & (inner < iv.b)], [iv.b]))
    for pts in (np.linspace(iv.a, iv.b, n + 1), uneven):
        part = Partition(pts)
        assert trapezoid_sum(f, part) == _whole_trapezoid(pts, f(pts)), (pts.size, iv)
        panel = _whole_panel_sum(pts, f.derivative(pts))
        for variant, c in zip(BOUND_VARIANTS, consts):
            assert trapezoid_error_bound(variant, f, part) == c * panel, (pts.size, iv)


def test_blocked_sums_are_bitwise_the_whole_array_sums():
    rng = random.Random(15)
    block = convexity.BLOCK_POINTS
    edges = [1, 7, 8, 9, block - 1, block, block + 1, 2 * block + 8]
    drawn = [round(math.exp(rng.uniform(0.0, math.log(3e6)))) for _ in range(50)]
    assert max(drawn) > 1e6
    for k, n in enumerate(edges + drawn):
        a = rng.uniform(-2.0, 1.0)
        iv = Interval(a, a + rng.uniform(0.01, 3.0))
        f = parse_function(("exp(2*x) - 3*x*x*x", "x*log(x+3)")[k % 2], iv)
        _assert_blocked_is_whole(f, iv, n, rng)


@pytest.mark.parametrize("block", [128, 129, 1000])
def test_blocked_sums_follow_numpy_splits_at_any_block_from_128(monkeypatch, block):
    # small blocks make deep trees from small n; below 128 numpy no longer splits
    monkeypatch.setattr(convexity, "BLOCK_POINTS", block)
    rng = random.Random(block)
    f = parse_function("exp(2*x) - 3*x*x*x", DOMAIN)
    for n in [block - 1, block, block + 1, 2 * block + 8, 17 * block + 3, 50_000]:
        _assert_blocked_is_whole(f, DOMAIN, n, rng)


def test_uniform_points_are_bitwise_linspace_in_every_block():
    # a subnormal width takes linspace's divide-first branch
    for iv, n in ((Interval(-1.3, 2.7), 100_003), (Interval(0.0, 5e-323), 4)):
        whole = np.linspace(iv.a, iv.b, n + 1)
        for lo, hi in ((0, n), (0, 1), (n - 1, n), (n // 3, 2 * n // 3)):
            assert np.array_equal(quadrature._uniform_points(iv, n, lo, hi), whole[lo : hi + 1])


def test_a_fault_in_a_later_block_raises_as_the_whole_grid_does():
    # n = 3 * 2^15 puts a node at exactly 2.5, past the first block, where the
    # derivative of abs(x-2.5) is undefined; log(x) is defined only up to 2
    iv = Interval(0.0, 3.0)
    n = 3 * 2**15
    pts = np.linspace(iv.a, iv.b, n + 1)
    assert 2.5 in pts and 2.5 not in pts[: convexity.BLOCK_POINTS + 1]
    kink = parse_function("abs(x-2.5)", iv)
    off_domain = parse_function("log(x)", Interval(0.5, 2.0))
    consts = _constants()
    part = Partition(pts)
    short = Partition(np.linspace(0.5, 3.0, n + 1))
    assert short.points[convexity.BLOCK_POINTS] < 2.0 < short.b
    cases = [
        (
            lambda: _uniform_pass(kink, iv, n, consts),
            lambda: _whole_uniform_pass(kink, iv, n, consts),
        ),
        (
            lambda: trapezoid_error_bound("P4", kink, part),
            lambda: _whole_panel_sum(pts, kink.derivative(pts)),
        ),
        (
            lambda: trapezoid_sum(off_domain, short),
            lambda: _whole_trapezoid(short.points, off_domain(short.points)),
        ),
    ]
    for blocked, whole in cases:
        with pytest.raises(DomainError) as expected:
            whole()
        with pytest.raises(DomainError) as got:
            blocked()
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)


def test_of_faults_in_two_blocks_the_leftmost_is_raised(monkeypatch):
    # a whole-grid call meets the left operand's fault first (abs's kink or
    # the log at 2.5); the blocks meet the pole at 0.5, in the first block, first
    iv = Interval(0.0, 3.0)
    n = 3 * 2**15
    pts = np.linspace(iv.a, iv.b, n + 1)
    assert pts[n // 6] == 0.5 and pts[5 * n // 6] == 2.5
    assert n // 6 <= convexity.BLOCK_POINTS // 2 and 5 * n // 6 > convexity.BLOCK_POINTS
    with monkeypatch.context() as m:  # the construction-time check would meet the faults
        m.setattr(FunctionSpec, "__post_init__", lambda self: None)
        kinked = parse_function("abs(x-2.5) + 1/(x-0.5)", iv)
        logged = parse_function("log(2.5-x) + 1/(x-0.5)", iv)
    with pytest.raises(DerivativeUndefinedError):
        _whole_panel_sum(pts, kinked.derivative(pts))
    with pytest.raises(DomainError, match="log argument must be positive"):
        _whole_trapezoid(pts, logged(pts))
    part = Partition(pts)
    for blocked in (
        lambda: _uniform_pass(kinked, iv, n, _constants()),
        lambda: trapezoid_error_bound("P4", kinked, part),
        lambda: trapezoid_sum(logged, part),
    ):
        with pytest.raises(DomainError, match="division by zero") as got:
            blocked()
        assert type(got.value) is DomainError


# ---------------------------------------------------------------------------
# error bounds


def test_bound_values_for_square_at_two_panels():
    fsq = parse_function("x^2", UNIT)
    part = Partition.uniform(UNIT, 2)
    b4 = trapezoid_error_bound("P4", fsq, part)
    b5 = trapezoid_error_bound("P5", fsq, part)
    assert math.isclose(b4, 0.17677669529663687, rel_tol=1e-15)
    assert math.isclose(b5, 0.23570226039551584, rel_tol=1e-15)
    actual = abs(trapezoid_sum(fsq, part) - 1.0 / 3.0)
    assert math.isclose(actual, 1.0 / 24.0, abs_tol=1e-12)
    assert actual <= b4 <= b5


def test_bound_value_for_square_single_panel():
    fsq = parse_function("x^2", UNIT)
    b4 = trapezoid_error_bound("P4", fsq, Partition.uniform(UNIT, 1))
    assert math.isclose(b4, 0.35355339059327373, rel_tol=1e-15)
    assert b4 >= 1.0 / 6.0  # the actual single-panel error


def test_variant_tokens_are_case_insensitive():
    fsq = parse_function("x^2", UNIT)
    part = Partition.uniform(UNIT, 2)
    assert trapezoid_error_bound("p4", fsq, part) == trapezoid_error_bound("P4", fsq, part)
    assert trapezoid_error_bound("p5", fsq, part) == trapezoid_error_bound("P5", fsq, part)
    with pytest.raises(ValueError):
        trapezoid_error_bound("P6", fsq, part)


def test_bound_constant_validation():
    with pytest.raises(ValueError):
        bound_constant("P4", 0.0, 2.0)
    with pytest.raises(ValueError):
        bound_constant("P4", 1.2, 2.0)
    with pytest.raises(ValueError):
        bound_constant("P4", 1.0, 1.0)
    for p in (math.inf, math.nan):
        with pytest.raises(ValueError, match="p must exceed 1 and be finite"):
            bound_constant("P5", 1.0, p)


def test_bound_constant_is_exactly_the_kernel_closed_form():
    # P4 and P5 read v1 and u1 from kernel_constants; the bits must not move
    for s in S_GRID:
        kc = kernel_constants(s)
        for p in (1.5, 2.0, 3.0):
            q = p / (p - 1.0)
            p4 = (1.0 / 2.0 ** (1.0 / p)) * kc.v1 ** (1.0 / q)
            p5 = (2.0 / 3.0) ** (1.0 / p) * (2.0 * kc.u1) ** (1.0 / q)
            assert bound_constant("P4", s, p) == p4, (s, p)
            assert bound_constant("P5", s, p) == p5, (s, p)


def test_bounds_are_sound_on_corpus():
    for f in corpus_functions():
        for iv in INTERVALS:
            exact = reference_integrate(f, iv, tol=1e-10)
            for n in (1, 2, 4, 8, 16, 64):
                part = Partition.uniform(iv, n)
                actual = abs(trapezoid_sum(f, part) - exact)
                for variant in ("P4", "P5"):
                    bound = trapezoid_error_bound(variant, f, part)
                    assert actual <= bound + 1e-9, (f.text, iv.a, iv.b, n, variant)


def test_bounds_shrink_under_refinement():
    for f in corpus_functions():
        for n in (1, 2, 4, 8, 16):
            for variant in ("P4", "P5"):
                coarse = trapezoid_error_bound(variant, f, Partition.uniform(DOMAIN, n))
                fine = trapezoid_error_bound(variant, f, Partition.uniform(DOMAIN, 2 * n))
                assert fine <= coarse + 1e-15, (f.text, n, variant)


# ---------------------------------------------------------------------------
# guaranteed integration


def test_guarantee_square_picks_smallest_sufficient_n():
    result = integrate_with_guarantee(parse_function("x^2", UNIT), UNIT, 0.05)
    assert result.n == 8
    assert result.value == 0.3359375
    assert abs(result.value - 1.0 / 3.0) <= 0.05
    assert result.bound_p4 <= 0.05
    assert result.hypothesis_certified is True
    # one panel fewer misses the tolerance, so 8 is genuinely minimal
    coarser = trapezoid_error_bound("P4", parse_function("x^2", UNIT), Partition.uniform(UNIT, 7))
    assert coarser > 0.05


def test_guarantee_exp_meets_tolerance():
    f = parse_function("exp(x)", UNIT)
    result = integrate_with_guarantee(f, UNIT, 1e-3)
    assert result.n == 608
    assert abs(result.value - (math.e - 1.0)) <= 1e-3
    assert min(result.bound_p4, result.bound_p5) <= 1e-3
    assert trapezoid_error_bound("P4", f, Partition.uniform(UNIT, 607)) > 1e-3


def test_guarantee_linear_large_n():
    iv = Interval(0.0, 3.0)
    result = integrate_with_guarantee(parse_function("x", iv), iv, 1e-6)
    assert result.n == 3181981
    assert abs(result.value - 4.5) <= 1e-6


def test_guarantee_tolerances_on_corpus_sample():
    for text, (a, b) in (("x^4", (0.0, 1.0)), ("exp(2*x)", (0.0, 2.0))):
        iv = Interval(float(a), float(b))
        f = parse_function(text, DOMAIN)
        for tol in (1e-2, 1e-4):
            result = integrate_with_guarantee(f, iv, tol)
            oracle = reference_integrate(f, iv, tol=tol / 100.0)
            assert abs(result.value - oracle) <= tol, (text, tol)


def test_uncertified_hypothesis_raises_by_default():
    # derivative magnitude 2x - x^2/2 is concave, so the s = 1 check falsifies
    f = parse_function("x^2 - x*x*x/6", UNIT)
    with pytest.raises(ValueError, match="allow_uncertified"):
        integrate_with_guarantee(f, UNIT, 1e-4)


def test_uncertified_hypothesis_is_reported_when_allowed():
    f = parse_function("x^2 - x*x*x/6", UNIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reported in the result, not as a warning
        result = integrate_with_guarantee(f, UNIT, 1e-4, allow_uncertified=True)
    assert result.hypothesis_certified is False
    oracle = reference_integrate(f, UNIT, tol=1e-10)
    assert abs(result.value - oracle) <= 1e-4  # the bound happens to hold anyway


def test_guarantee_certifies_its_hypothesis_once_across_tolerances(monkeypatch):
    calls = []
    original = convexity._block_minima

    def counting(f, interval, params, grid_n, lhs):
        calls.append((params, grid_n))
        return original(f, interval, params, grid_n, lhs)

    monkeypatch.setattr(convexity, "_block_minima", counting)
    # an expression no other test uses, so no earlier call has memoised it
    f = parse_function("x^2 + exp(x)/5", UNIT)
    coarse = integrate_with_guarantee(f, UNIT, 1e-2)
    fine = integrate_with_guarantee(f, UNIT, 1e-4)
    assert calls == [(ConvexityParams(1.0, 1.0, 1.0, "first"), quadrature.CERTIFY_GRID_N)]
    assert coarse.hypothesis_certified is fine.hypothesis_certified is True


def test_falsified_derivative_hypothesis_is_reported_by_bound_and_integrator():
    # |f'| = 1.25 x^0.25 is concave, so the s = 1 class is falsified for both
    f = parse_function("x^1.25", UNIT)
    classic = ConvexityParams(1.0, 1.0, 1.0, "first")
    assert verify_theorem("T1", f, UNIT, classic).hypothesis_certified is False
    result = integrate_with_guarantee(f, UNIT, 1e-3, allow_uncertified=True)
    assert result.hypothesis_certified is False


def test_guarantee_validation_and_cap():
    f = parse_function("x", Interval(0.0, 3.0))
    with pytest.raises(ValueError):
        integrate_with_guarantee(f, Interval(0.0, 3.0), 0.0)
    with pytest.raises(NonConvergenceError):
        integrate_with_guarantee(f, Interval(0.0, 3.0), 1e-6, n_cap=1024)
    assert N_CAP == 2**24


def test_guarantee_cap_is_the_largest_allowed_minimal_n():
    # n_cap = 3181981 is no power of two; the answer may equal it but not pass it
    iv = Interval(0.0, 3.0)
    f = parse_function("x", iv)
    assert integrate_with_guarantee(f, iv, 1e-6, n_cap=3181981).n == 3181981
    with pytest.raises(NonConvergenceError, match="n_cap = 3181980"):
        integrate_with_guarantee(f, iv, 1e-6, n_cap=3181980)


def test_guarantee_refuses_a_tolerance_that_predicts_infinite_n():
    iv = Interval(0.0, 3.0)
    with pytest.raises(NonConvergenceError, match="at least inf"):
        integrate_with_guarantee(parse_function("x", iv), iv, 1e-320)


def _constants(s=1.0, p=2.0):
    return bound_constant("P4", s, p), bound_constant("P5", s, p)


def _doubling_bisection_n(f, iv, tol, s=1.0, p=2.0):
    """The search integrate_with_guarantee used before its prediction: double
    n until the bound passes, then bisect down to the smallest passing n."""
    consts = _constants(s, p)
    n = 1
    while min(_uniform_pass(f, iv, n, consts)[1:]) > tol:
        n *= 2
    lo, hi = n // 2, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if min(_uniform_pass(f, iv, mid, consts)[1:]) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _certified_corpus_cases():
    classic = ConvexityParams(1.0, 1.0, 1.0, "first")
    for f in corpus_functions():
        for iv in INTERVALS:
            hyp = lambda x: np.abs(f.derivative(x))  # noqa: B023
            if not certify(hyp, iv, classic, grid_n=30).falsified:
                yield f, iv


def test_guarantee_n_matches_doubling_bisection_on_corpus():
    cases = list(_certified_corpus_cases())
    assert len(cases) == 15
    for f, iv in cases:
        for tol in (1e-2, 1e-4):
            result = integrate_with_guarantee(f, iv, tol)
            assert result.n == _doubling_bisection_n(f, iv, tol), (f.text, iv, tol)
            # value and bounds come from the confirming pass, bit for bit as
            # the public sums compute them on a fresh partition
            part = Partition.uniform(iv, result.n)
            assert result.value == trapezoid_sum(f, part), (f.text, iv, tol)
            assert result.bound_p4 == trapezoid_error_bound("P4", f, part), (f.text, iv, tol)
            assert result.bound_p5 == trapezoid_error_bound("P5", f, part), (f.text, iv, tol)


@pytest.fixture
def bound_calls(monkeypatch):
    """The n of every full-size bound pass, in call order."""
    calls = []
    monkeypatch.setattr(
        quadrature, "_uniform_pass", lambda *args: calls.append(args[2]) or _uniform_pass(*args)
    )
    return calls


def test_guarantee_evaluates_each_grid_once_with_its_derivative(monkeypatch, bound_calls):
    # one eval_with_derivative pass per full grid gives the value and both
    # bounds; no FunctionSpec.value pass evaluates f a second time.  A pass
    # past BLOCK_POINTS panels calls it on blocks of at most BLOCK_POINTS + 1
    # points that tile the grid, neighbours sharing one endpoint.  xs records
    # the points of every f' evaluation, by eval_with_derivative or derivative.
    value_calls, xs, spans = [], [], []  # spans: (n, first call, end call) per pass
    value = FunctionSpec.value
    counted = lambda self, x: value_calls.append(x) or value(self, x)  # noqa: E731
    monkeypatch.setattr(FunctionSpec, "value", counted)
    monkeypatch.setattr(FunctionSpec, "__call__", counted)
    for name in ("eval_with_derivative", "derivative"):
        method = getattr(FunctionSpec, name)
        recorded = lambda self, x, method=method: xs.append(np.array(x)) or method(self, x)  # noqa: E731
        monkeypatch.setattr(FunctionSpec, name, recorded)
    counted_pass = quadrature._uniform_pass  # bound_calls' recorder

    def spanned_pass(*args):
        start = len(xs)
        try:
            return counted_pass(*args)
        finally:
            spans.append((args[2], start, len(xs)))

    monkeypatch.setattr(quadrature, "_uniform_pass", spanned_pass)
    f = parse_function("exp(2*x)", DOMAIN)
    iv = Interval(0.0, 2.0)
    block = convexity.BLOCK_POINTS
    predict_size = 2 * quadrature.PREDICT_PANELS + 1
    for tol, expected, refinements in ((1e-2, 3790, 0), (1e-4, 378997, 1)):
        for seen in (value_calls, xs, spans, bound_calls):
            seen.clear()
        result = integrate_with_guarantee(f, iv, tol)
        assert result.n == expected
        assert value_calls == []
        assert [n for n, _, _ in spans] == bound_calls and expected in bound_calls
        in_pass, blocks = set(), {}
        for n, start, stop in spans:
            calls = xs[start:stop]
            in_pass.update(range(start, stop))
            blocks[n] = len(calls)
            assert all(x.ndim == 1 and x.size <= block + 1 for x in calls), n
            assert (len(calls) == 1) == (n <= block), n
            assert all(left[-1] == right[0] for left, right in zip(calls, calls[1:])), n
            tiled = np.concatenate([calls[0]] + [x[1:] for x in calls[1:]])
            assert np.array_equal(tiled, np.linspace(iv.a, iv.b, n + 1)), n
        # no full-size call outside a pass: f' is not evaluated on a grid twice.
        # Past the prediction grid, only the refined lower bound's grid is
        # evaluated outside a pass: one block at most, under n / 16 points
        outside = [x for k, x in enumerate(xs) if k not in in_pass]
        larger = [x.size for x in outside if x.ndim == 1 and x.size > predict_size]
        assert len(larger) == refinements, larger
        assert all(size <= block + 1 and 16 * size < expected for size in larger), larger
        assert result.value == trapezoid_sum(f, Partition.uniform(iv, result.n))
        # the counter does see a value pass, made in the same blocks
        assert len(value_calls) == blocks[result.n]
        value_calls.clear()
    assert blocks[result.n] > 10


@pytest.mark.parametrize("keep_lower", [True, False])
@pytest.mark.parametrize("scale", [0.0, 0.1, 0.9, 1.1, 10.0])
def test_guarantee_recovers_from_a_poor_prediction(monkeypatch, bound_calls, scale, keep_lower):
    # stepping away from a wrong prediction and bisecting still finds the
    # minimal n, in O(log n) passes and without repeating one, with or without
    # the lower bound from the prediction pass
    f = parse_function("exp(2*x)", DOMAIN)
    iv = Interval(0.0, 2.0)
    predict = quadrature._predict_n

    def poor(*args):
        lower, estimate = predict(*args)
        return lower if keep_lower else 0.0, scale * estimate

    monkeypatch.setattr(quadrature, "_predict_n", poor)
    assert integrate_with_guarantee(f, iv, 1e-2).n == 3790
    assert len(bound_calls) == len(set(bound_calls))
    assert len(bound_calls) <= 2 * math.log2(max(1.0, scale) * 3790) + 2, bound_calls


def test_guarantee_prediction_past_the_cap_is_not_a_refusal(bound_calls):
    # |f'| = 1/(x + 1e-6) is so steep at 0 that 2048 panels overestimate its
    # integral tenfold: the prediction is past n_cap but the minimal n is not
    iv = Interval(0.0, 1.0)
    f = parse_function("log(x+0.000001)", iv)
    lower, estimate = quadrature._predict_n(f, iv, 5e-5, min(_constants()))
    assert lower < 200_000 < estimate
    result = integrate_with_guarantee(f, iv, 5e-5, n_cap=200_000)
    assert result.n == _doubling_bisection_n(f, iv, 5e-5) == 115813
    assert len(bound_calls) <= 2 * math.log2(200_000), bound_calls


def test_guarantee_falsified_hypothesis_is_never_refused_early():
    # |f'| = 1.25 x^0.25 is concave, so the midpoint sum overestimates its
    # integral and its "lower bound" (117852.4) exceeds the minimal n
    iv = Interval(0.0, 1.0)
    f = parse_function("x^1.25", iv)
    result = integrate_with_guarantee(f, iv, 3e-6, allow_uncertified=True, n_cap=117852)
    assert result.hypothesis_certified is False
    assert result.n == _doubling_bisection_n(f, iv, 3e-6) == 117852


def test_guarantee_kink_on_the_prediction_grid_starts_from_one():
    # x = 0.375 is a point of the 2048-panel prediction grid, where f' is undefined
    f = parse_function("abs(x-0.375)", UNIT)
    result = integrate_with_guarantee(f, UNIT, 0.1)
    assert result.n == _doubling_bisection_n(f, UNIT, 0.1) == 4


def test_guarantee_constant_function_needs_one_panel():
    result = integrate_with_guarantee(parse_function("7", UNIT), UNIT, 1e-9)
    assert result.n == 1
    assert result.value == 7.0
    assert result.bound_p4 == 0.0 and result.bound_p5 == 0.0


def test_guarantee_makes_one_full_pass_at_2_8m_panels(bound_calls):
    # the refined lower bound proves B(n - 1) > tol, so only n itself is passed over
    iv = Interval(1.0, 3.0)
    result = integrate_with_guarantee(parse_function("exp(2*x)", DOMAIN), iv, 1e-4)
    assert result.n == 2800424
    assert bound_calls == [2800424]


def _min_bound(f, iv, n):
    part = Partition.uniform(iv, n)
    return min(trapezoid_error_bound(v, f, part) for v in BOUND_VARIANTS)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_guarantee_n_is_minimal_on_drawn_smooth_functions(seed):
    # c1*x^k + c2*exp(l*x) on a subinterval of [0, 3], with tol set by a
    # target n log-uniform over 1e2..1e5.  The refined lower bound runs when
    # the prediction pass's midpoint sum falls short of the integer below the
    # target, so half the targets are moved to just past an integer, by less
    # than that shortfall
    rng = random.Random(seed)
    k, rate = rng.randint(1, 5), rng.choice((0.5, 1.0, 1.5, 2.0))
    c1, c2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
    f = parse_function(f"{c1!r}*x^{k} + {c2!r}*exp({rate!r}*x)", DOMAIN)
    a = rng.uniform(0.0, 2.9)
    iv = Interval(a, rng.uniform(a + 0.05, 3.0))
    target = 10.0 ** rng.uniform(2.0, 5.0)
    if rng.random() < 0.5:
        lower, estimate = quadrature._predict_n(f, iv, 1.0, 1.0)
        shortfall = (estimate - lower) / estimate * target
        target = math.floor(target) + rng.uniform(0.3, 1.0) * shortfall
    # f' > 0 on [0, 3], so the integral of |f'| is f(b) - f(a)
    variation = float(f(np.array([iv.b]))[0] - f(np.array([iv.a]))[0])
    tol = min(_constants()) * (iv.b - iv.a) * variation / target
    n = integrate_with_guarantee(f, iv, tol).n
    assert _min_bound(f, iv, n) <= tol
    assert n == 1 or _min_bound(f, iv, n - 1) > tol


def _refined_with(monkeypatch, refinement):
    """Make _predict_n answer refinement(*args) past PREDICT_PANELS panels."""
    predict = quadrature._predict_n

    def patched(f, interval, tol, c, panels=quadrature.PREDICT_PANELS):
        args = f, interval, tol, c, panels
        return predict(*args) if panels == quadrature.PREDICT_PANELS else refinement(*args)

    monkeypatch.setattr(quadrature, "_predict_n", patched)
    return predict


def test_guarantee_kink_on_the_refinement_grid_leaves_the_parent_search(
    monkeypatch, bound_calls
):
    # f' undefined at a point of the refinement grid skips the refinement: the
    # result and the passes are those of a refinement that proves nothing
    f = parse_function("exp(2*x)", DOMAIN)
    iv = Interval(0.0, 2.0)

    def kink(*args):
        raise DomainError("derivative of abs is undefined at 0")

    runs = []
    for refinement in (kink, lambda *args: (0.0, 0.0)):
        _refined_with(monkeypatch, refinement)
        bound_calls.clear()
        runs.append((integrate_with_guarantee(f, iv, 1e-4), list(bound_calls)))
    assert runs[0] == runs[1]
    assert runs[0][1] == [378997, 378996]
    monkeypatch.undo()
    bound_calls.clear()
    assert integrate_with_guarantee(f, iv, 1e-4) == runs[0][0]


def test_guarantee_refined_bound_rounded_up_keeps_the_minimal_n(monkeypatch, bound_calls):
    # the computed midpoint sum may round above the exact one, whose bound is
    # at most the minimal n: a bound of exactly n, rounded up by 1e-13
    # relative (30 times the worst rounding of the sums), must not exclude n
    f = parse_function("exp(2*x)", DOMAIN)
    iv = Interval(0.0, 2.0)
    predict = _refined_with(monkeypatch, lambda *args: (378997 * (1.0 + 1e-13), 0.0))
    assert integrate_with_guarantee(f, iv, 1e-4).n == 378997
    assert bound_calls == [378997]
    # the true refined bound, on the 1815 panels the refinement picks here, lies below n
    assert 378996 < predict(f, iv, 1e-4, min(_constants()), 1815)[0] < 378997


def test_guarantee_falsified_hypothesis_proves_minimality_by_a_pass(bound_calls):
    # |f'| = x^3 - 3x + 3 is concave on [-1, 0], so its midpoint sums bound
    # nothing: B(n - 1) > tol is shown by a pass at n - 1, even where a
    # refined midpoint sum would have been computed for a certified one
    iv = Interval(-1.0, 2.0)
    f = parse_function("0.25*x^4 - 1.5*x^2 + 3*x", iv)
    # the integral of |f'| is f(2) - f(-1) = 8.25; predicted n is ~875,000.1
    tol = min(_constants()) * 3.0 * 8.25 / 875000.1
    lower, estimate = quadrature._predict_n(f, iv, tol, min(_constants()))
    assert math.ceil(lower) < math.ceil(estimate)
    result = integrate_with_guarantee(f, iv, tol, allow_uncertified=True)
    assert result.hypothesis_certified is False
    assert bound_calls == [result.n, result.n - 1]
    assert _min_bound(f, iv, result.n) <= tol < _min_bound(f, iv, result.n - 1)


def test_term_helpers_are_bitwise_the_whole_array_formulas():
    rng = np.random.default_rng(25)
    for size in (2, 3, 9, 1000, convexity.BLOCK_POINTS + 1):
        for scale in (1e-300, 1e-8, 1.0, 1e8, 1e100):
            pts = np.unique(rng.uniform(-1.0, 2.0, size) * scale)
            vals = rng.standard_normal(pts.size) * rng.lognormal(0.0, 10.0, pts.size)
            # one dx for both, trapezoid terms first, as _uniform_pass does
            dx = np.diff(pts)
            assert np.array_equal(
                quadrature._trapezoid_terms(dx, vals), np.diff(pts) * (vals[:-1] + vals[1:]) / 2.0
            )
            d = np.abs(vals)
            assert np.array_equal(
                quadrature._panel_terms(dx, vals), np.diff(pts) ** 2 / 2.0 * (d[:-1] + d[1:])
            )


def test_guarantee_refined_bound_refuses_past_the_cap_before_any_pass(bound_calls):
    # x^4 on [1, 3] at tol 1e-6: the prediction pass bounds n only above
    # 56,568,531, below this cap, but the refined bound passes it
    iv = Interval(1.0, 3.0)
    f = parse_function("x^4", iv)
    lower = quadrature._predict_n(f, iv, 1e-6, min(_constants()))[0]
    assert lower < 56568540
    with pytest.raises(NonConvergenceError, match=r"at least 5656854\d\), past n_cap = 56568540"):
        integrate_with_guarantee(f, iv, 1e-6, n_cap=56568540)
    assert bound_calls == []


def test_guarantee_over_cap_refusal_allocates_no_full_arrays():
    # the minimal n is about 5.7e7 > N_CAP; refusing must not build any n-sized grid
    iv = Interval(1.0, 3.0)
    f = parse_function("x^4", iv)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergenceError, match=r"n = 56568542 .* n_cap = 16777216"):
            integrate_with_guarantee(f, iv, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


# ---------------------------------------------------------------------------
# reference integrator


def test_reference_values():
    assert abs(reference_integrate(parse_function("x^2", UNIT), UNIT) - 1.0 / 3.0) <= 1e-10
    assert abs(reference_integrate(parse_function("exp(x)", UNIT), UNIT) - (math.e - 1.0)) <= 1e-10
    sym = Interval(-1.0, 1.0)
    assert abs(reference_integrate(parse_function("abs(x)", sym), sym) - 1.0) <= 1e-10


def test_reference_accepts_plain_callables():
    val = reference_integrate(lambda x: x * x * x, UNIT, tol=1e-12)
    assert abs(val - 0.25) <= 1e-10


def test_reference_depth_cap_raises(monkeypatch):
    # acceptance needs a minimum recursion depth, so an absurd cap cannot converge
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
    with pytest.raises(NonConvergenceError) as new:
        reference_integrate(parse_function("exp(x)", UNIT), UNIT)
    with pytest.raises(NonConvergenceError) as old:
        _recursive_reference(parse_function("exp(x)", UNIT), UNIT, max_depth=2)
    assert str(new.value) == str(old.value)
    assert str(new.value) == "adaptive refinement exceeded depth 2 on [0.0, 0.25]"


# the depth-first adaptive Simpson that the level-synchronous integrator
# replaced, kept as the reference for its results; deepest[0] records the
# deepest refinement level it evaluated


def _simpson(a, fa, m, fm, b, fb):
    return (b - a) * (fa + 4.0 * fm + fb) / 6.0


def _recursive_simpson(fn, a, fa, m, fm, b, fb, whole, tol, depth, max_depth, deepest):
    deepest[0] = max(deepest[0], depth)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = fn(lm)
    frm = fn(rm)
    left = _simpson(a, fa, lm, flm, m, fm)
    right = _simpson(m, fm, rm, frm, b, fb)
    err = left + right - whole
    if depth >= 3 and abs(err) <= 15.0 * tol:  # 3 = quadrature._MIN_DEPTH
        return left + right + err / 15.0
    if depth >= max_depth:
        raise NonConvergenceError(
            f"adaptive refinement exceeded depth {max_depth} on [{a}, {b}]"
        )
    half = tol / 2.0
    args = (depth + 1, max_depth, deepest)
    return _recursive_simpson(fn, a, fa, lm, flm, m, fm, left, half, *args) + _recursive_simpson(
        fn, m, fm, rm, frm, b, fb, right, half, *args
    )


def _recursive_reference(fn, interval, tol=1e-10, max_depth=60, deepest=None):
    deepest = [0] if deepest is None else deepest
    a, b = interval.a, interval.b
    fa, fb = float(fn(a)), float(fn(b))
    m = 0.5 * (a + b)
    fm = float(fn(m))
    whole = _simpson(a, fa, m, fm, b, fb)
    return float(_recursive_simpson(fn, a, fa, m, fm, b, fb, whole, tol, 0, max_depth, deepest))


ADD_MUL_CALLABLES = (
    lambda x: x * x * x,
    lambda x: ((2.0 * x + -3.0) * x + 0.5) * x + 1.25,
    lambda x: ((((0.7 * x + -1.1) * x + 0.3) * x + 2.0) * x + -0.4) * x * x + 0.9,
)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
def test_reference_is_bitwise_the_recursive_result_for_add_mul_callables(tol):
    # + and * round the same on arrays as on floats, so the level-synchronous
    # integrator must reproduce the recursion's bits, not just its value
    for i, fn in enumerate(ADD_MUL_CALLABLES):
        for iv in (UNIT, Interval(-1.0, 2.0), Interval(0.3, 1.7)):
            assert reference_integrate(fn, iv, tol) == _recursive_reference(fn, iv, tol), (i, iv)


def _assert_close_to_recursive(f, iv, tol):
    new, old = reference_integrate(f, iv, tol), _recursive_reference(f, iv, tol)
    assert abs(new - old) <= 1e-15 * abs(old), (f.text, iv, tol, new, old)


def test_reference_matches_recursive_on_corpus():
    # exp may differ by an ulp between numpy's array and scalar loops
    for f in corpus_functions():
        for iv in INTERVALS:
            for tol in (1e-10, quadrature.ORACLE_TOL):
                _assert_close_to_recursive(f, iv, tol)


def test_reference_matches_recursive_on_seeded_functions():
    rng = np.random.default_rng(5)
    for _ in range(50):
        low, high = (-2, -2, -2, -1, 0.5), (2, 2, 2, 1, 2)
        c1, c2, lam, a, width = (float(v) for v in rng.uniform(low, high))
        k = int(rng.integers(1, 7))
        iv = Interval(a, a + width)
        f = parse_function(f"{c1!r}*x^{k} + {c2!r}*exp({lam!r}*x)", iv)
        _assert_close_to_recursive(f, iv, quadrature.ORACLE_TOL)


def test_reference_propagates_domain_errors():
    with pytest.raises(DomainError):
        reference_integrate(parse_function("exp(x)", UNIT), Interval(0.0, 2.0))
    calls = []

    def fails_on_refinement(x):
        calls.append(x)
        if len(calls) > 2:
            raise DomainError("undefined here")
        return x * x

    with pytest.raises(DomainError, match="undefined here"):
        reference_integrate(fails_on_refinement, UNIT)
    assert len(calls) == 3


def test_reference_rejects_integrands_that_do_not_map_arrays():
    with pytest.raises(ValueError, match="same shape"):
        reference_integrate(lambda x: 1.0, UNIT)


def test_reference_makes_one_array_call_per_level(monkeypatch):
    value = FunctionSpec.value
    sizes = []

    def counted(self, x):
        sizes.append(np.ndim(x) and np.size(x))  # 0 for a scalar call
        return value(self, x)

    f = parse_function("exp(2*x)", DOMAIN)
    iv = Interval(0.0, 2.0)
    deepest = [0]
    expected = _recursive_reference(f, iv, quadrature.ORACLE_TOL, deepest=deepest)
    monkeypatch.setattr(FunctionSpec, "value", counted)
    monkeypatch.setattr(FunctionSpec, "__call__", counted)
    assert reference_integrate(f, iv, quadrature.ORACLE_TOL) == pytest.approx(expected, rel=1e-15)
    # the three-point start, then one call per level 0..deepest; no scalar call
    assert len(sizes) == 1 + deepest[0] + 1 and deepest[0] > quadrature._MIN_DEPTH
    assert sizes[0] == 3 and 0 not in sizes
    assert sizes[1:4] == [2, 4, 8]  # every panel refines below _MIN_DEPTH


def test_reference_refuses_runaway_refinement_fast_and_small():
    # tol = 1e-300 cannot be met; the level cap stops the doubling of the
    # active set before it allocates past REFERENCE_PANEL_CAP panels
    assert quadrature.REFERENCE_PANEL_CAP >= 2**16
    f = parse_function("exp(x)", UNIT)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(NonConvergenceError, match="REFERENCE_PANEL_CAP"):
            reference_integrate(f, UNIT, tol=1e-300)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0, elapsed
    assert peak < 50e6, peak


def test_oracle_stays_exact_on_large_integrals():
    # ORACLE_TOL is absolute, so these integrals lie far above 1e-12/eps; Simpson
    # is exact on constants and x^2, and the oracle must still return the value
    big = Interval(0.0, 30.0)
    constant = parse_function("5000", UNIT)
    square = parse_function("x^2", big)
    assert quadrature.oracle_integral(constant, UNIT) == 5000.0
    assert hh_gap(constant, UNIT) == 0.0
    assert quadrature.oracle_integral(square, big) == 9000.0
    assert hh_gap(square, big) == 150.0


def test_oracle_and_gap_agree_with_gauss_legendre_on_corpus():
    # a second oracle, independent of Simpson: the corpus functions are
    # entire, so 40 Gauss-Legendre nodes reach machine precision on them
    t, w = gauss_legendre_01(40)
    for f in corpus_functions():
        for iv in INTERVALS:
            gl = iv.width * float(w @ f(iv.a + iv.width * t))
            gl_gap = abs((f(iv.a) + f(iv.b)) / 2.0 - gl / iv.width)
            assert abs(quadrature.oracle_integral(f, iv) - gl) <= 1e-13 * abs(gl), (f.text, iv)
            assert abs(hh_gap(f, iv) - gl_gap) <= 1e-13 * gl_gap, (f.text, iv)
