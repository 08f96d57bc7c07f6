"""Special means, the classical chain, and the three mean-inequality checks.

Frozen decimals are 50-digit mpmath evaluations of the closed forms.
"""

import math
import random

import numpy as np
import pytest

from hhkit import cli
from hhkit.convexity import ConvexityParams
from hhkit.expr import Interval, parse_function
from hhkit.hhbounds import verify_theorem
from hhkit.kernels import HolderExponents
from hhkit.means import (
    MEAN_KINDS,
    MeanRequest,
    extended_p_logarithmic,
    mean,
    mean_chain_check,
    mean_chain_margins,
    proposition_check,
)

L_2_8 = 4.328085122666891
I_2_8 = 4.671777695304167

MONOTONE_P_GRID = (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


def _mean(kind, a, b, p=None):
    return mean(MeanRequest(kind, a, b, p))


# ---------------------------------------------------------------------------
# values


def test_classical_triple_at_2_8():
    assert _mean("arithmetic", 2.0, 8.0) == 5.0
    assert _mean("geometric", 2.0, 8.0) == 4.0
    assert _mean("harmonic", 2.0, 8.0) == 3.2


def test_logarithmic_mean_values():
    assert math.isclose(_mean("logarithmic", 1.0, math.e), math.e - 1.0, rel_tol=1e-14)
    assert math.isclose(_mean("logarithmic", 2.0, 8.0), L_2_8, rel_tol=1e-14)


def test_identric_mean_value():
    assert math.isclose(_mean("identric", 2.0, 8.0), I_2_8, rel_tol=1e-14)


def test_p_logarithmic_values():
    assert math.isclose(_mean("p_logarithmic", 2.0, 8.0, 2.0), 5.291502622129181, rel_tol=1e-13)
    assert math.isclose(_mean("p_logarithmic", 2.0, 8.0, 3.0), 5.539658256754464, rel_tol=1e-13)
    assert math.isclose(_mean("p_logarithmic", 2.0, 8.0, -2.0), 4.0, rel_tol=1e-13)
    assert math.isclose(_mean("p_logarithmic", 2.0, 8.0, 0.5), 4.839506172839506, rel_tol=1e-13)


def test_p_logarithmic_at_one_is_arithmetic():
    for a, b in ((2.0, 8.0), (0.5, 1.5), (1.0, 100.0)):
        assert math.isclose(_mean("p_logarithmic", a, b, 1.0), (a + b) / 2.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# request validation and structural properties


def test_request_validation():
    with pytest.raises(ValueError):
        MeanRequest("arithmetic", 0.0, 1.0)
    with pytest.raises(ValueError):
        MeanRequest("arithmetic", 1.0, math.inf)
    with pytest.raises(ValueError):
        MeanRequest("median", 1.0, 2.0)
    with pytest.raises(ValueError):
        MeanRequest("p_logarithmic", 1.0, 2.0)  # p required


def test_excluded_exponents_point_to_named_means():
    with pytest.raises(ValueError, match="logarithmic"):
        MeanRequest("p_logarithmic", 1.0, 2.0, -1.0)
    with pytest.raises(ValueError, match="identric"):
        MeanRequest("p_logarithmic", 1.0, 2.0, 0.0)


def test_all_means_are_symmetric():
    for kind in MEAN_KINDS:
        p = 2.0 if kind == "p_logarithmic" else None
        assert _mean(kind, 2.0, 8.0, p) == _mean(kind, 8.0, 2.0, p), kind


def test_all_means_fix_the_diagonal():
    for kind in MEAN_KINDS:
        p = 2.0 if kind == "p_logarithmic" else None
        assert _mean(kind, 3.0, 3.0, p) == 3.0, kind


def test_near_diagonal_branch_returns_lower_endpoint():
    a = 7.0
    b = a * (1.0 + 1e-13)
    assert _mean("logarithmic", a, b) == a
    assert _mean("identric", a, b) == a
    assert _mean("p_logarithmic", a, b, 3.0) == a


def test_continuity_at_the_diagonal():
    # cancellation-safe branches keep the error at 1e-9 separation far below 1e-6*a
    for a in (0.5, 1.0, 100.0):
        b = a * (1.0 + 1e-9)
        for kind in MEAN_KINDS:
            p = 2.0 if kind == "p_logarithmic" else None
            assert abs(_mean(kind, a, b, p) - a) <= 1e-6 * a, (kind, a)


# ---------------------------------------------------------------------------
# chain and monotonicity


def test_chain_examples():
    assert mean_chain_check(2.0, 8.0)
    assert mean_chain_check(3.0, 3.0)
    assert mean_chain_check(1.0, 100.0)


def test_chain_validation():
    with pytest.raises(ValueError):
        mean_chain_check(-1.0, 2.0)
    with pytest.raises(ValueError):
        mean_chain_check(5.0, 2.0)


def test_chain_on_random_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(1e-6, 100.0, size=2))
        if lo == hi:
            continue
        assert mean_chain_check(float(lo), float(hi))


def test_chain_margins_agree_with_check():
    rng = np.random.default_rng(1234)
    pairs = [(2.0, 8.0), (3.0, 3.0), (1.0, 100.0)]
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(1e-6, 100.0, size=2))
        pairs.append((float(lo), float(hi)))
    for a, b in pairs:
        margins = mean_chain_margins(a, b)
        assert len(margins) == 4
        spread = _mean("arithmetic", a, b) - _mean("harmonic", a, b)
        assert math.isclose(sum(margins), spread, rel_tol=1e-12, abs_tol=1e-12)
        for tol in (1e-12, 0.0):
            assert mean_chain_check(a, b, tol) == all(m >= -tol for m in margins)
    with pytest.raises(ValueError):
        mean_chain_margins(5.0, 2.0)


def test_extended_p_logarithmic_is_monotone_in_p():
    for a, b in ((2.0, 8.0), (0.5, 1.5), (1.0, 100.0)):
        values = [extended_p_logarithmic(a, b, p) for p in MONOTONE_P_GRID]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12, (a, b)


def test_extended_branches_agree_with_named_means():
    for a, b in ((2.0, 8.0), (0.5, 1.5), (1.0, 100.0)):
        assert math.isclose(extended_p_logarithmic(a, b, 1.0), (a + b) / 2.0, rel_tol=1e-12)
        assert math.isclose(
            extended_p_logarithmic(a, b, 0.0), _mean("identric", a, b), rel_tol=1e-12
        )
        assert math.isclose(
            extended_p_logarithmic(a, b, -1.0), _mean("logarithmic", a, b), rel_tol=1e-12
        )


def test_extended_branches_match_independent_references_on_the_suite_pairs():
    # the suite's mean_branch row checks p = 1 only; here p = -1 and p = 0 are
    # checked against their textbook closed forms, on the same 25 pairs
    pairs = cli._random_pairs(random.Random(0), cli._SUITE_MEAN_PAIRS)[:25]
    for a, b in pairs:
        logarithmic = (b - a) / (math.log(b) - math.log(a))
        identric = math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)
        assert math.isclose(extended_p_logarithmic(a, b, -1.0), logarithmic, rel_tol=1e-13)
        assert math.isclose(extended_p_logarithmic(a, b, 0.0), identric, rel_tol=1e-13)


# ---------------------------------------------------------------------------
# proposition checks


def test_p1_at_1_e_matches_reference_values():
    report = proposition_check("P1", 1.0, math.e, HolderExponents(2.0))
    assert report.holds
    assert report.hypothesis_certified
    assert math.isclose(report.lhs_gap, 0.14085908577047737, abs_tol=1e-12)
    assert math.isclose(report.rhs_bound, 0.5912224658469183, rel_tol=1e-13)
    assert report.margin > 0.0


def test_p1_equals_exp_bound_after_log_substitution():
    # the mean inequality is the endpoint-derivative bound for exp on [log a, log b]
    for a, b in ((1.0, math.e), (2.0, 8.0), (0.5, 1.5)):
        for p in (1.5, 2.0, 3.0):
            hp = HolderExponents(p)
            prop = proposition_check("P1", a, b, hp)
            iv = Interval(math.log(a), math.log(b))
            thm = verify_theorem(
                "T2", parse_function("exp(x)", iv), iv, ConvexityParams(1.0, 1.0, 1.0), hp
            )
            assert abs(prop.lhs_gap - thm.lhs_gap) <= 1e-10, (a, b, p)
            assert abs(prop.rhs_bound - thm.rhs_bound) <= 1e-10, (a, b, p)


def test_p1_near_diagonal_both_sides_vanish():
    report = proposition_check("P1", 2.0, 2.0001, HolderExponents(2.0))
    assert report.holds
    assert report.lhs_gap < 1e-4
    assert report.rhs_bound < 1e-4


def test_p2_at_2_8_holds_as_printed():
    report = proposition_check("P2", 2.0, 8.0, HolderExponents(2.0))
    assert math.isclose(report.lhs_gap, 0.15524530093324218, abs_tol=1e-12)
    assert math.isclose(report.rhs_bound, 1.0933034802834938, rel_tol=1e-12)
    assert report.holds


def test_p3_at_1_2_with_n_2():
    report = proposition_check("P3", 1.0, 2.0, HolderExponents(2.0), n=2)
    assert math.isclose(report.lhs_gap, 1.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(report.rhs_bound, 10.0 / 3.0, rel_tol=1e-13)
    assert report.holds
    _, inputs, *_ = cli._proposition_row("P3", 1.0, 2.0, HolderExponents(2.0), 2)
    assert inputs == {"proposition": "P3", "a": 1.0, "b": 2.0, "p": 2.0, "q": 2.0, "n": 2}


def test_p3_accepts_negative_n():
    report = proposition_check("P3", 1.0, 2.0, HolderExponents(2.0), n=-3)
    assert math.isfinite(report.margin)
    _, inputs, *_ = cli._proposition_row("P3", 1.0, 2.0, HolderExponents(2.0), -3)
    assert inputs["n"] == -3


def test_proposition_validation():
    hp = HolderExponents(2.0)
    with pytest.raises(ValueError):
        proposition_check("P9", 1.0, 2.0, hp)
    with pytest.raises(ValueError):
        proposition_check("P1", 2.0, 1.0, hp)
    with pytest.raises(ValueError):
        proposition_check("P3", 1.0, 2.0, hp)  # n required
    with pytest.raises(ValueError):
        proposition_check("P3", 1.0, 2.0, hp, n=1)
    with pytest.raises(ValueError):
        proposition_check("P3", 1.0, 2.0, hp, n=2.5)


# ---------------------------------------------------------------------------
# the logarithmic family is written once: it equals its earlier three-function
# form bit for bit


def _old_logarithmic(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    if hi - lo < 1e-12 * lo:
        return lo
    r = (hi - lo) / lo
    return lo * r / math.log1p(r)


def _old_identric(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    if hi - lo < 1e-12 * lo:
        return lo
    r = (hi - lo) / lo
    return lo * math.exp((1.0 + r) * math.log1p(r) / r - 1.0)


def _old_extended(a, b, p):
    if p == -1.0:
        return _old_logarithmic(a, b)
    if p == 0.0:
        return _old_identric(a, b)
    lo, hi = (a, b) if a <= b else (b, a)
    if hi - lo < 1e-12 * lo:
        return lo
    r = (hi - lo) / lo
    core = math.expm1((p + 1.0) * math.log1p(r)) / ((p + 1.0) * r)
    return lo * core ** (1.0 / p)


def _family_pairs():
    bases = (1e-3, 0.5, 1.0, 2.0, 7.3, 1e3)
    pairs = [(a, b) for a in bases for b in bases if a != b]  # both orders
    for a in bases:
        for rel in (0.3e-12, 0.9e-12, 1.1e-12, 3e-12, 1e-9):  # both sides of the cut
            pairs += [(a, a * (1.0 + rel)), (a * (1.0 + rel), a)]
    return pairs


def test_logarithmic_family_matches_its_three_function_form():
    for a, b in _family_pairs():
        assert _mean("logarithmic", a, b) == _old_logarithmic(a, b), (a, b)
        assert _mean("identric", a, b) == _old_identric(a, b), (a, b)
        for p in (-3.0, -1.0, -0.5, 0.0, 0.5, 2.0):
            assert extended_p_logarithmic(a, b, p) == _old_extended(a, b, p), (a, b, p)
