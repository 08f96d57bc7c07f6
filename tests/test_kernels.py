"""Kernel constants and integral-identity verification tests.

High-precision reference values for v1/u1 away from the exact anchors were
computed with mpmath at 50 digits (closed form and defining integral agree
to ~1e-45 there, so one frozen float per constant suffices).
"""

import collections
import math

import numpy as np
import pytest

from hhkit import kernels
from hhkit.cli import _SUITE_KERNEL_TOL
from hhkit.corpus import ALPHA_S_GRID, HOLDER_PS
from hhkit.kernels import (
    HolderExponents,
    IdentityCheck,
    KernelIdentityReport,
    _CONVERGENCE_SLACK,
    _NODES,
    _NODES_CHECK,
    _line_moment,
    _line_power,
    _pair_moment,
    _pair_power,
    _with_convergence,
    holder_constants,
    kernel_constants,
    verify_kernel_identities,
)
from hhkit.quadrature import NonConvergenceError

# frozen 50-digit mpmath evaluations, rounded to float
V1_HALF = 0.32189514164974603
U1_HALF = 0.21904761904761905  # = 23/105
V1_005 = 0.4719797114633429
U1_005 = 0.3162544506007121
V1_03 = 0.3719907680121189
U1_03 = 0.25286307895003546

EXPECTED_CHECK_NAMES = {
    "trapezoid_kernel_t_weight",
    "trapezoid_kernel_t_weight_complement",
    "trapezoid_kernel_p_power",
    "trapezoid_kernel_t_weight_qform",
    "trapezoid_kernel_t_weight_complement_qform",
    "pair_kernel_t_weight",
    "pair_kernel_t_weight_complement",
    "pair_kernel_p_power",
    "pair_kernel_plain",
    "pair_kernel_t_weight_qform",
    "pair_kernel_t_weight_complement_qform",
}


# ---------------------------------------------------------------------------
# closed forms


def test_exact_anchors_at_one():
    kc = kernel_constants(1.0)
    assert abs(kc.v1 - 0.25) <= 1e-14
    assert abs(kc.u1 - 1.0 / 6.0) <= 1e-14
    c1, c2 = holder_constants(1.0)
    assert abs(c1 - 0.5) <= 1e-14
    assert abs(c2 - 1.0 / 3.0) <= 1e-14


def test_frozen_constants_match_high_precision_reference():
    assert math.isclose(kernel_constants(0.5).v1, V1_HALF, rel_tol=1e-13)
    assert math.isclose(kernel_constants(0.5).u1, U1_HALF, rel_tol=1e-13)
    assert math.isclose(kernel_constants(0.5).u1, 23.0 / 105.0, rel_tol=1e-13)
    assert math.isclose(kernel_constants(0.05).v1, V1_005, rel_tol=1e-13)
    assert math.isclose(kernel_constants(0.05).u1, U1_005, rel_tol=1e-13)
    assert math.isclose(kernel_constants(0.3).v1, V1_03, rel_tol=1e-13)
    assert math.isclose(kernel_constants(0.3).u1, U1_03, rel_tol=1e-13)


def test_complement_constants_track_v1_u1():
    for c in ALPHA_S_GRID:
        for m in (1.0, 0.5, 0.25):
            kc = kernel_constants(c, m)
            assert math.isclose(kc.v2, m * (0.5 - kc.v1), rel_tol=1e-15)
            assert math.isclose(kc.u2, m * (1.0 / 3.0 - kc.u1), rel_tol=1e-15)


def test_holder_constants_values():
    assert holder_constants(2.0) == (1.0 / 3.0, 1.0 / 6.0)
    assert holder_constants(3.0) == (0.25, 0.1)
    with pytest.raises(ValueError):
        holder_constants(0.5)


def test_kernel_constants_validation():
    with pytest.raises(ValueError):
        kernel_constants(0.0)
    with pytest.raises(ValueError):
        kernel_constants(1.2)
    with pytest.raises(ValueError):
        kernel_constants(1.0, m=-0.1)
    with pytest.raises(ValueError):
        kernel_constants(1.0, m=1.5)


# ---------------------------------------------------------------------------
# conjugate exponents


def test_holder_exponents_compute_conjugate():
    assert HolderExponents(2.0).q == 2.0
    assert HolderExponents(1.5).q == 3.0
    assert HolderExponents(3.0).q == 1.5


def test_holder_exponents_take_no_q():
    # q is always p / (p - 1), so it cannot be passed, conjugate or not
    for p in (1.25, 2.0, 7.0):
        assert HolderExponents(p).q == p / (p - 1.0)
    with pytest.raises(TypeError):
        HolderExponents(2.0, 2.0)
    with pytest.raises(TypeError):
        HolderExponents(2.0, q=3.0)


def test_holder_exponents_reject_bad_pairs():
    with pytest.raises(ValueError):
        HolderExponents(1.0)
    with pytest.raises(ValueError):
        HolderExponents(0.5)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_holder_exponents_reject_a_non_finite_p(p):
    # p = inf would give q = nan, and every bound built on it nan
    with pytest.raises(ValueError, match="p must exceed 1 and be finite"):
        HolderExponents(p)


# ---------------------------------------------------------------------------
# identity verification against numeric quadrature


def test_identity_report_structure_and_pass():
    report = verify_kernel_identities(1.0, 2.0, tol=1e-10)
    assert max(c.residual for c in report.checks) <= 1e-10
    assert {c.name for c in report.checks} == EXPECTED_CHECK_NAMES
    dims = {c.name: c.dimension for c in report.checks}
    assert sum(1 for d in dims.values() if d == 1) == 5
    assert sum(1 for d in dims.values() if d == 2) == 6


def test_identities_hold_at_fractional_exponents():
    report = verify_kernel_identities(0.3, 1.5, tol=1e-9)
    assert max(c.residual for c in report.checks) <= 1e-9


def test_plain_pair_moment_is_one_third_to_machine_precision():
    report = verify_kernel_identities(1.0, 1.0, tol=1e-12)
    plain = {c.name: c for c in report.checks}["pair_kernel_plain"]
    assert abs(plain.numeric - 1.0 / 3.0) <= 1e-14
    assert plain.closed_form == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_complement_identities_across_exponent_grid():
    # residual budget by dimension: line integrals 1e-10, double integrals 1e-8
    for c in ALPHA_S_GRID:
        report = verify_kernel_identities(c, 2.0, tol=1e-8)
        by_name = {chk.name: chk for chk in report.checks}
        assert by_name["trapezoid_kernel_t_weight_complement"].residual <= 1e-10, c
        assert by_name["pair_kernel_t_weight_complement"].residual <= 1e-8, c


def test_verification_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        verify_kernel_identities(1.0, 2.0, tol=0.0)


def test_convergence_guard_trips_on_disagreement():
    def unstable(nodes):
        return 0.0 if nodes == _NODES else 1.0

    with pytest.raises(NonConvergenceError):
        _with_convergence("synthetic", unstable, tol=1e-8)


def test_convergence_guard_accepts_agreement():
    value = _with_convergence("synthetic", lambda nodes: 0.75, tol=1e-8)
    assert value == 0.75
    assert _CONVERGENCE_SLACK == 1e-10


# ---------------------------------------------------------------------------
# the moment memo against the per-(alpha_s, p, tol) evaluation it replaced


def _numeric_moments(alpha_s, p, tol):
    """Every moment evaluated afresh for one (alpha_s, p, tol), as before the memo."""
    c = alpha_s
    t_profile = lambda t: t**c  # noqa: E731
    comp_profile = lambda t: 1.0 - t**c  # noqa: E731
    return {
        "line_t": _with_convergence("line_t", lambda nn: _line_moment(t_profile, nn[0]), tol),
        "line_comp": _with_convergence(
            "line_comp", lambda nn: _line_moment(comp_profile, nn[0]), tol
        ),
        "line_p": _with_convergence("line_p", lambda nn: _line_power(p, nn[0]), tol),
        "pair_t": _with_convergence("pair_t", lambda nn: _pair_moment(t_profile, *nn), tol),
        "pair_comp": _with_convergence(
            "pair_comp", lambda nn: _pair_moment(comp_profile, *nn), tol
        ),
        "pair_p": _with_convergence("pair_p", lambda nn: _pair_power(p, *nn), tol),
        "pair_plain": _with_convergence(
            "pair_plain", lambda nn: _pair_moment(np.ones_like, *nn), tol
        ),
    }


def _reference_report(alpha_s, p, tol):
    kc = kernel_constants(alpha_s, 1.0)
    c1, c2 = holder_constants(p)
    numeric = _numeric_moments(alpha_s, p, tol)
    closed = {
        "trapezoid_kernel_t_weight": ("line_t", 1, kc.v1),
        "trapezoid_kernel_t_weight_complement": ("line_comp", 1, 0.5 - kc.v1),
        "trapezoid_kernel_p_power": ("line_p", 1, c1),
        "trapezoid_kernel_t_weight_qform": ("line_t", 1, kc.v1),
        "trapezoid_kernel_t_weight_complement_qform": ("line_comp", 1, 0.5 - kc.v1),
        "pair_kernel_t_weight": ("pair_t", 2, kc.u1),
        "pair_kernel_t_weight_complement": ("pair_comp", 2, 1.0 / 3.0 - kc.u1),
        "pair_kernel_p_power": ("pair_p", 2, c2),
        "pair_kernel_plain": ("pair_plain", 2, 1.0 / 3.0),
        "pair_kernel_t_weight_qform": ("pair_t", 2, kc.u1),
        "pair_kernel_t_weight_complement_qform": ("pair_comp", 2, 1.0 / 3.0 - kc.u1),
    }
    checks = tuple(
        IdentityCheck(name, dim, numeric[key], target, abs(numeric[key] - target))
        for name, (key, dim, target) in closed.items()
    )
    return KernelIdentityReport(checks)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception class is the outcome
        return type(exc)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-12])
def test_memoised_moments_give_the_reports_of_fresh_evaluation(tol):
    for c in ALPHA_S_GRID:
        for p in HOLDER_PS:
            expected = _outcome(_reference_report, c, p, tol)
            assert _outcome(verify_kernel_identities, c, p, tol) == expected, (c, p)


def test_suite_sweep_runs_each_moment_once_per_exponent(monkeypatch):
    # 20 alpha_s x 4 moments + 3 p x 2 moments + the plain pair moment = 87
    budgets = collections.Counter()

    def counted(quadrature):
        def run(exponent, nodes):
            budgets[nodes] += 1
            return quadrature(exponent, nodes)

        return run

    for key, (dep, quadrature) in list(kernels._MOMENTS.items()):
        monkeypatch.setitem(kernels._MOMENTS, key, (dep, counted(quadrature)))

    def sweep(tol):
        budgets.clear()
        for c in ALPHA_S_GRID:
            for p in HOLDER_PS:
                verify_kernel_identities(c, p, tol)
        return dict(budgets)

    kernels._moment.cache_clear()
    try:
        assert sweep(max(_SUITE_KERNEL_TOL.values())) == {_NODES: 87, _NODES_CHECK: 87}
        assert sweep(1e-9) == {}  # tol is not part of the memo key
    finally:
        kernels._moment.cache_clear()


def _fresh_pair_moment(profile, n_outer, n_inner):
    """_pair_moment with its nodes built from leggauss on every call, as
    before they were shared."""
    x, w = np.polynomial.legendre.leggauss(n_outer)
    ups, wups = (x + 1.0) / 2.0, w / 2.0
    x, w = np.polynomial.legendre.leggauss(n_inner)
    eta, weta = (x + 1.0) / 2.0, w / 2.0
    u = ups**3
    wu = wups * 3.0 * ups**2
    cubic_w = weta * 3.0 * eta**2
    t_left = u[:, None] * eta[None, :] ** 3
    w_left = wu[:, None] * cubic_w[None, :] * u[:, None]
    t_right = u[:, None] + (1.0 - u[:, None]) * eta[None, :] ** 3
    w_right = wu[:, None] * cubic_w[None, :] * (1.0 - u[:, None])
    total = np.sum(w_left * profile(t_left) * (u[:, None] - t_left))
    total += np.sum(w_right * profile(t_right) * (t_right - u[:, None]))
    return float(total)


def _fresh_pair_power(p, n_outer, n_inner):
    """_pair_power with its nodes built from leggauss on every call."""
    x, w = np.polynomial.legendre.leggauss(n_outer)
    ups, wups = (x + 1.0) / 2.0, w / 2.0
    x, w = np.polynomial.legendre.leggauss(n_inner)
    eta, weta = (x + 1.0) / 2.0, w / 2.0
    cubic_inner = weta * 3.0 * eta**2
    cubic_outer = wups * 3.0 * ups**2
    total = 0.0
    for u, wu in (
        (0.5 * ups**3, 0.5 * cubic_outer),
        (1.0 - 0.5 * ups**3, 0.5 * cubic_outer),
    ):
        t_left = u[:, None] * (1.0 - eta[None, :] ** 3)
        w_left = wu[:, None] * cubic_inner[None, :] * u[:, None]
        t_right = u[:, None] + (1.0 - u[:, None]) * eta[None, :] ** 3
        w_right = wu[:, None] * cubic_inner[None, :] * (1.0 - u[:, None])
        total += np.sum(w_left * (u[:, None] - t_left) ** p)
        total += np.sum(w_right * (t_right - u[:, None]) ** p)
    return float(total)


@pytest.mark.parametrize("nodes", [_NODES, _NODES_CHECK])
def test_shared_pair_nodes_give_the_bits_of_fresh_nodes(nodes):
    for c in ALPHA_S_GRID:
        for profile in (lambda t: t**c, lambda t: 1.0 - t**c):
            assert _pair_moment(profile, *nodes) == _fresh_pair_moment(profile, *nodes), c
    assert _pair_moment(np.ones_like, *nodes) == _fresh_pair_moment(np.ones_like, *nodes)
    for p in HOLDER_PS:
        assert _pair_power(p, *nodes) == _fresh_pair_power(p, *nodes), p


@pytest.mark.parametrize("at_kink", [False, True])
def test_shared_pair_nodes_are_read_only(at_kink):
    for panel in kernels._pair_panels(*_NODES, at_kink):
        for arr in panel:
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5


@pytest.mark.parametrize(
    "alpha_s, p, message",
    [
        (0.0, 0.5, "alpha_s must lie in (0, 1], got 0.0"),
        (0.5, 0.5, "p must be at least 1, got 0.5"),
        (0.5, 2.0, "tol must be positive"),
    ],
)
def test_verification_validates_alpha_s_then_p_then_tol(alpha_s, p, message):
    with pytest.raises(ValueError) as exc:
        verify_kernel_identities(alpha_s, p, tol=0.0)
    assert str(exc.value) == message
