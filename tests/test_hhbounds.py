"""Tests for the gap, the six endpoint-derivative bounds, and the integral identities.

Frozen bound values for exp on [0, 1] come from a 50-digit mpmath evaluation
of the closed formulas; the implementation matches them to a couple of ulps.
"""

import math

import numpy as np
import pytest

from hhkit import cli, convexity, hhbounds, quadrature
from hhkit.convexity import ConvexityParams
from hhkit.corpus import DOMAIN, INTERVALS, corpus_functions
from hhkit.expr import FunctionSpec, Interval, parse_function
from hhkit.hhbounds import (
    THEOREM_IDS,
    classical_hh_check,
    classical_hh_margins,
    hh_gap,
    hypothesis_function,
    lemma_identity_residuals,
    theorem_bound,
    verify_theorem,
)
from hhkit.kernels import HolderExponents

CLASSIC = ConvexityParams(1.0, 1.0, 1.0, "first")
UNIT = Interval(0.0, 1.0)
HP2 = HolderExponents(2.0)

# mpmath references for exp on [0,1], s = alpha = m = 1, p = q = 2
EXP_BOUNDS = {
    "T1": 0.46478522855738064,
    "T2": 0.5912224658469183,
    "T3": 0.5120136747115088,
    "T4": 0.3098568190382538,
    "T5": 0.8361148295803758,
    "T6": 0.6826848996153452,
}


# ---------------------------------------------------------------------------
# gap and the classical chain


def test_gap_of_square_is_one_sixth():
    f = parse_function("x^2", UNIT)
    assert math.isclose(hh_gap(f, UNIT), 1.0 / 6.0, abs_tol=1e-12)


def test_gap_of_affine_is_zero():
    f = parse_function("x", Interval(2.0, 5.0))
    assert abs(hh_gap(f, Interval(2.0, 5.0))) <= 1e-12


def test_gap_of_exp_matches_antiderivative():
    f = parse_function("exp(x)", UNIT)
    assert math.isclose(hh_gap(f, UNIT), (3.0 - math.e) / 2.0, abs_tol=1e-12)


def test_classical_chain_on_square():
    f = parse_function("x^2", UNIT)
    assert classical_hh_check(f, UNIT) == (True, True)


def test_classical_chain_on_affine_with_equalities():
    iv = Interval(2.0, 5.0)
    assert classical_hh_check(parse_function("x", iv), iv) == (True, True)


def test_classical_chain_on_exp():
    iv = Interval(0.0, 2.0)
    assert classical_hh_check(parse_function("exp(x)", iv), iv) == (True, True)


def test_classical_margins_agree_with_check():
    cases = [(parse_function("x^2", UNIT), UNIT)]
    cases.append((parse_function("x", Interval(2.0, 5.0)), Interval(2.0, 5.0)))
    cases.append((parse_function("exp(x)", Interval(0.0, 2.0)), Interval(0.0, 2.0)))
    cases += [(f, iv) for f in corpus_functions() for iv in INTERVALS]
    for f, iv in cases:
        midpoint, endpoint_avg, lower, upper = classical_hh_margins(f, iv)
        assert midpoint == f((iv.a + iv.b) / 2.0)
        assert endpoint_avg == (f(iv.a) + f(iv.b)) / 2.0
        assert math.isclose(upper + lower, endpoint_avg - midpoint, abs_tol=1e-12)
        for tol in (1e-9, 0.0):
            assert classical_hh_check(f, iv, tol) == (lower >= -tol, upper >= -tol)


# ---------------------------------------------------------------------------
# the six bounds


def test_t1_square_exact_value():
    assert theorem_bound("T1", parse_function("x^2", UNIT), UNIT, CLASSIC) == 0.25


def test_t4_square_equals_gap():
    f = parse_function("x^2", UNIT)
    bound = theorem_bound("T4", f, UNIT, CLASSIC)
    assert math.isclose(bound, 1.0 / 6.0, abs_tol=1e-15)
    assert abs(bound - hh_gap(f, UNIT)) <= 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_bounds_at_the_convex_class_are_the_published_ones(p):
    # at (s, alpha, m) = (1, 1, 1): Dragomir & Agarwal (1998) Thm 2.2 and 2.3,
    # Pearce & Pecaric (2000) Thm 1
    iv = Interval(1.0, 3.0)
    f = parse_function("exp(x)", iv)
    hp = HolderExponents(p)
    q, w, d1, d2 = hp.q, iv.width, math.exp(iv.a), math.exp(iv.b)
    published = {
        "T1": w * (d1 + d2) / 8.0,
        "T2": w / (2.0 * (p + 1.0) ** (1.0 / p)) * ((d1**q + d2**q) / 2.0) ** (1.0 / q),
        "T3": w / 4.0 * ((d1**q + d2**q) / 2.0) ** (1.0 / q),
    }
    for tid, value in published.items():
        bound = theorem_bound(tid, f, iv, CLASSIC, None if tid == "T1" else hp)
        assert math.isclose(bound, value, rel_tol=1e-15, abs_tol=0.0), (tid, bound, value)


def test_t4_is_tight_on_the_square():
    f = parse_function("x^2", UNIT)
    assert abs(theorem_bound("T4", f, UNIT, CLASSIC) / hh_gap(f, UNIT) - 1.0) <= 1e-12


def test_all_six_bounds_on_exp_match_reference():
    f = parse_function("exp(x)", UNIT)
    for tid in THEOREM_IDS:
        hp = None if tid in ("T1", "T4") else HP2
        value = theorem_bound(tid, f, UNIT, CLASSIC, hp)
        assert math.isclose(value, EXP_BOUNDS[tid], rel_tol=1e-13), tid


def test_holder_theorems_require_exponent_pair():
    f = parse_function("exp(x)", UNIT)
    for tid in ("T2", "T3", "T5", "T6"):
        with pytest.raises(ValueError, match="HolderExponents"):
            theorem_bound(tid, f, UNIT, CLASSIC)
        with pytest.raises(ValueError, match="HolderExponents"):
            hypothesis_function(tid, f)


def test_m_zero_is_rejected_by_all_bounds():
    f = parse_function("exp(x)", UNIT)
    prm = ConvexityParams(1.0, 1.0, 0.0, "first")
    for tid in THEOREM_IDS:
        hp = None if tid in ("T1", "T4") else HP2
        with pytest.raises(ValueError, match="m > 0"):
            theorem_bound(tid, f, UNIT, prm, hp)


def test_bound_differentiates_f_once_per_function_interval_and_m(monkeypatch):
    points = []
    derivative = FunctionSpec.derivative

    def counting(self, x):
        points.append(x)
        return derivative(self, x)

    monkeypatch.setattr(FunctionSpec, "derivative", counting)
    hhbounds._endpoint_derivatives.cache_clear()
    f = parse_function("exp(x)", Interval(0.0, 4.0))
    iv = Interval(0.5, 1.0)
    values = [
        theorem_bound("T3", f, iv, ConvexityParams(s, alpha, 0.5, "first"), HP2)
        for s, alpha in ((1.0, 1.0), (0.5, 0.8))
    ]
    assert points == [0.5, 2.0]  # f'(a) and f'(b/m), shared by both (s, alpha)
    assert values[0] != values[1]
    for _ in range(2):  # an error is raised again, not memoised
        with pytest.raises(ValueError) as exc:
            theorem_bound("T1", f, iv, ConvexityParams(1.0, 1.0, 0.0, "first"))
        assert str(exc.value) == "the bound formulas need m > 0 (they evaluate f' at b/m)"


def test_unknown_theorem_id_rejected():
    f = parse_function("x^2", UNIT)
    with pytest.raises(ValueError):
        theorem_bound("T7", f, UNIT, CLASSIC)


def test_bounds_are_positively_homogeneous():
    f = parse_function("exp(x)", UNIT)
    g = parse_function("2.5*exp(x)", UNIT)
    assert math.isclose(hh_gap(g, UNIT), 2.5 * hh_gap(f, UNIT), rel_tol=1e-12)
    for tid in THEOREM_IDS:
        hp = None if tid in ("T1", "T4") else HP2
        one = theorem_bound(tid, f, UNIT, CLASSIC, hp)
        scaled = theorem_bound(tid, g, UNIT, CLASSIC, hp)
        assert math.isclose(scaled, 2.5 * one, rel_tol=1e-12), tid


def test_t1_bound_shrinks_with_right_endpoint():
    # |f'| nondecreasing, so both the width and the endpoint values shrink
    for text in ("x^2", "exp(x)", "x^2 + 3*x"):
        f = parse_function(text, DOMAIN)
        bounds = [
            theorem_bound("T1", f, Interval(0.5, b), CLASSIC)
            for b in (3.0, 2.5, 2.0, 1.5, 1.0)
        ]
        assert all(hi >= lo - 1e-12 for hi, lo in zip(bounds, bounds[1:])), text


def test_m_half_bound_uses_widened_endpoint():
    # d2 = |f'(b/m)| = |f'(4)| = 8, so T1 = (2/2)(0.25*0 + 0.125*8) = 1
    f = parse_function("x^2", Interval(0.0, 4.0))
    iv = Interval(0.0, 2.0)
    prm = ConvexityParams(1.0, 1.0, 0.5, "first")
    report = verify_theorem("T1", f, iv, prm)
    assert report.rhs_bound == 1.0
    assert math.isclose(report.lhs_gap, 2.0 / 3.0, abs_tol=1e-12)
    assert report.holds
    assert report.hypothesis_certified


# ---------------------------------------------------------------------------
# verification reports


def test_verify_t1_square_margin_and_inputs():
    f = parse_function("x^2", UNIT)
    report = verify_theorem("T1", f, UNIT, CLASSIC)
    assert report.holds
    assert report.hypothesis_certified
    assert math.isclose(report.margin, 1.0 / 12.0, abs_tol=1e-12)
    assert math.isclose(report.lhs_gap, 1.0 / 6.0, abs_tol=1e-12)
    assert report.rhs_bound == 0.25
    # the record's inputs are laid out by the CLI, not by the report
    _, inputs, *_ = cli._verify_row("T1", f, UNIT, CLASSIC, None, 1e-9, convexity.DEFAULT_GRID_N)
    assert inputs == {
        "theorem": "T1", "function": "x^2", "a": 0.0, "b": 1.0,
        "s": 1.0, "alpha": 1.0, "m": 1.0, "sense": "first", "hypothesis_certified": True,
    }  # fmt: skip


def test_verify_t4_square_is_tight():
    report = verify_theorem("T4", parse_function("x^2", UNIT), UNIT, CLASSIC)
    assert report.holds
    assert abs(report.margin) <= 1e-12


def test_verify_t2_records_exponents():
    f = parse_function("exp(x)", UNIT)
    report = verify_theorem("T2", f, UNIT, CLASSIC, HP2)
    assert report.holds
    assert math.isclose(report.rhs_bound, EXP_BOUNDS["T2"], rel_tol=1e-13)
    _, inputs, *_ = cli._verify_row("T2", f, UNIT, CLASSIC, HP2, 1e-9, convexity.DEFAULT_GRID_N)
    assert list(inputs)[-2:] == ["hypothesis_certified", "p"]  # q = p / (p - 1) is left out
    assert inputs["p"] == 2.0


def test_hypothesis_function_values():
    f = parse_function("x^2", UNIT)
    plain = hypothesis_function("T1", f)
    assert plain(0.5) == 1.0  # |2x| at 0.5
    powered = hypothesis_function("T3", f, HolderExponents(1.5))
    assert math.isclose(powered(0.5), 1.0, abs_tol=1e-15)  # |2x|^3 at 0.5
    assert math.isclose(powered(1.0), 8.0, rel_tol=1e-15)
    xs = np.array([0.25, 0.75])
    assert np.allclose(plain(xs), [0.5, 1.5], atol=1e-15)


def test_falsified_hypothesis_is_reported_not_raised():
    # -(x^2) is concave, so |f'| = |2x| is fine but f itself never enters;
    # use a hypothesis that genuinely fails: |f'| of sqrt-like growth is concave.
    f = parse_function("log(x + 1)", UNIT)  # |f'| = 1/(x+1), convexity of 1/(x+1) holds
    report = verify_theorem("T1", f, UNIT, CLASSIC)
    assert report.hypothesis_certified  # 1/(1+x) is convex
    g = parse_function("x^2 - x*x*x/6", Interval(0.0, 1.0))  # |f'| concave on [0,1]
    report2 = verify_theorem("T1", g, UNIT, CLASSIC)
    assert not report2.hypothesis_certified
    assert isinstance(report2.holds, bool)


def test_verify_theorem_certifies_each_hypothesis_once(monkeypatch):
    calls = []
    walk = convexity._block_minima

    def counting(*args, **kwargs):
        calls.append(args[3:])
        return walk(*args, **kwargs)

    monkeypatch.setattr(convexity, "_block_minima", counting)
    # an expression no other test uses, so no earlier call has memoised it
    f = parse_function("x^2 + exp(x)/7", UNIT)
    reports = [verify_theorem(tid, f, UNIT, CLASSIC, HP2) for tid in ("T2", "T3", "T5", "T6")]
    assert len(calls) == 1
    assert len({r.hypothesis_certified for r in reports}) == 1
    verify_theorem("T2", f, UNIT, CLASSIC, HolderExponents(3.0))  # new q
    assert len(calls) == 2
    verify_theorem("T3", f, UNIT, CLASSIC, HP2, grid_n=20)  # new grid
    assert len(calls) == 3
    verify_theorem("T1", f, UNIT, CLASSIC)
    verify_theorem("T4", f, UNIT, CLASSIC)  # same |f'| hypothesis as T1
    assert len(calls) == 4
    verify_theorem("T1", f, UNIT, ConvexityParams(0.5, 1.0, 1.0, "first"))  # new params
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# integral representations of the signed gap


def test_lemma_identities_on_corpus():
    for f in corpus_functions():
        for iv in INTERVALS:
            res = lemma_identity_residuals(f, iv)
            assert res.single_residual <= 1e-8, (f.text, iv.a, iv.b)
            assert res.double_residual <= 1e-6, (f.text, iv.a, iv.b)


def test_lemma_residuals_tiny_on_exp():
    res = lemma_identity_residuals(parse_function("exp(x)", UNIT), UNIT)
    assert res.single_residual <= 1e-10
    assert res.double_residual <= 1e-10
    assert math.isclose(res.signed_gap, (3.0 - math.e) / 2.0, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# one rule per bound-layer fact


def _old_signed_gap(f, iv):
    integral = quadrature.oracle_integral(f, iv)
    ends = (f(iv.a) + f(iv.b)) / 2.0
    return ends - integral / iv.width


def _old_classical_margins(f, iv):
    integral_avg = quadrature.oracle_integral(f, iv) / iv.width
    midpoint = f((iv.a + iv.b) / 2.0)
    ends = (f(iv.a) + f(iv.b)) / 2.0
    return midpoint, ends, integral_avg - midpoint, ends - integral_avg


def test_gap_and_classical_margins_keep_their_bits_on_the_corpus():
    pairs = [(f, iv) for f in corpus_functions() for iv in INTERVALS]
    assert len(pairs) == 15
    for f, iv in pairs:
        assert hh_gap(f, iv) == abs(_old_signed_gap(f, iv)), (f.text, iv)
        assert classical_hh_margins(f, iv) == _old_classical_margins(f, iv), (f.text, iv)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("theorem_id", ["T7", "T2", "T6"])
def test_theorem_rule_errors_agree_across_entry_points(theorem_id):
    # an unknown id, and a Holder theorem without its exponent pair
    f = parse_function("exp(x)", UNIT)
    errors = {
        _raised(theorem_bound, theorem_id, f, UNIT, CLASSIC),
        _raised(hypothesis_function, theorem_id, f),
        _raised(verify_theorem, theorem_id, f, UNIT, CLASSIC),
    }
    assert len(errors) == 1, errors
    assert errors.pop()[0] is ValueError
