"""Midpoint/endpoint-average bounds on the trapezoid-vs-integral gap.

For f on [a, b] the object of interest is the gap

    (f(a) + f(b)) / 2  -  (1 / (b - a)) * integral of f over [a, b],

nonnegative for convex f.  Six named bounds T1 .. T6 dominate |gap| under a
convexity-class hypothesis on |f'| (T1, T4) or |f'|^q (the Holder variants
T2, T3, T5, T6), always in the first combination sense.  Each bound is a
closed form in |f'(a)|, |f'(b/m)|, the kernel moments, and the conjugate
exponent pair.  ``verify_theorem`` evaluates bound and gap side by side and
also reports whether the hypothesis survives a certification sweep.

The gap itself has two exact integral representations (one over a single
kernel weight, one over the pair kernel); ``lemma_identity_residuals``
recomputes both numerically so they can be checked against the direct value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import convexity, kernels
from .convexity import ConvexityParams
from .expr import DerivedFunction, DomainError, FunctionSpec, Interval, derivative_power
from .kernels import HolderExponents, gauss_legendre_01
from .quadrature import oracle_integral, reference_integrate

THEOREM_IDS = ("T1", "T2", "T3", "T4", "T5", "T6")

_PLAIN_IDS = ("T1", "T4")  # hypothesis on |f'| itself, no exponent p involved

TENSOR_NODES = 48  # Gauss-Legendre nodes per axis for the double-integral representation


@dataclass(frozen=True)
class BoundReport:
    """One bound checked at one input: the values, their margin, and whether the
    bound and its hypothesis held.  The inputs are the caller's to record."""

    lhs_gap: float
    rhs_bound: float
    margin: float  # rhs_bound - lhs_gap
    holds: bool
    hypothesis_certified: bool


@lru_cache(maxsize=256)
def _averages(f: FunctionSpec, interval: Interval) -> tuple[float, float]:
    """(endpoint average, integral average) of f over the interval."""
    integral_avg = oracle_integral(f, interval) / interval.width
    return (f(interval.a) + f(interval.b)) / 2.0, integral_avg


def _signed_gap(f: FunctionSpec, interval: Interval) -> float:
    endpoint_avg, integral_avg = _averages(f, interval)
    return endpoint_avg - integral_avg


def hh_gap(f: FunctionSpec, interval: Interval) -> float:
    """|endpoint average minus integral average| of f over the interval."""
    return abs(_signed_gap(f, interval))


def classical_hh_margins(
    f: FunctionSpec, interval: Interval
) -> tuple[float, float, float, float]:
    """Both ends and both slacks of the classical midpoint/average/endpoint chain.

    Returns (midpoint, endpoint_avg, integral_avg - midpoint,
    endpoint_avg - integral_avg); each slack is nonnegative for convex f.
    """
    endpoint_avg, integral_avg = _averages(f, interval)
    midpoint = f((interval.a + interval.b) / 2.0)
    return midpoint, endpoint_avg, integral_avg - midpoint, endpoint_avg - integral_avg


def classical_hh_check(
    f: FunctionSpec, interval: Interval, tol: float = 1e-9
) -> tuple[bool, bool]:
    """(midpoint_ok, endpoint_ok): each slack of classical_hh_margins is >= -tol."""
    _, _, lower, upper = classical_hh_margins(f, interval)
    return lower >= -tol, upper >= -tol


def _hypothesis_q(theorem_id: str, hp: Optional[HolderExponents]) -> Optional[float]:
    """The exponent q of the theorem's hypothesis on |f'|^q, or None for T1
    and T4, whose hypothesis is on |f'| itself."""
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"theorem_id must be one of {THEOREM_IDS}, got {theorem_id!r}")
    if theorem_id in _PLAIN_IDS:
        return None
    if hp is None:
        raise ValueError(f"{theorem_id} needs a HolderExponents pair")
    return hp.q


def _endpoint_derivatives(
    f: FunctionSpec, interval: Interval, params: ConvexityParams
) -> tuple[float, float]:
    if params.m == 0.0:
        raise ValueError("the bound formulas need m > 0 (they evaluate f' at b/m)")
    d1 = abs(f.derivative(interval.a))
    d2 = abs(f.derivative(interval.b / params.m))
    return d1, d2


def theorem_bound(
    theorem_id: str,
    f: FunctionSpec,
    interval: Interval,
    params: ConvexityParams,
    hp: Optional[HolderExponents] = None,
) -> float:
    """Closed-form value of the named bound; hp is required for T2/T3/T5/T6."""
    q = _hypothesis_q(theorem_id, hp)
    d1, d2 = _endpoint_derivatives(f, interval, params)
    w, c, m = interval.width, params.alpha_s, params.m
    kc = kernels.kernel_constants(c, m)

    if q is None:
        k1, k2 = (kc.v1, kc.v2) if theorem_id == "T1" else (kc.u1, kc.u2)
        return w / 2.0 * (k1 * d1 + k2 * d2)

    p = hp.p
    try:
        d1q, d2q = d1**q, d2**q
    except OverflowError:
        raise DomainError(f"|f'|^q overflows float64 at the endpoints (q = {q:.6g})") from None
    if theorem_id == "T2":
        core = (d1q + m * c * d2q) / (c + 1.0)
        return w / (2.0 * (p + 1.0) ** (1.0 / p)) * core ** (1.0 / q)
    if theorem_id == "T3":
        core = kc.v1 * d1q + kc.v2 * d2q
        return w / 2.0 ** ((p + 1.0) / p) * core ** (1.0 / q)
    if theorem_id == "T5":
        core = (d1q + m * c * d2q) / (c + 1.0)
        return w * (2.0 / ((p + 1.0) * (p + 2.0))) ** (1.0 / p) * core ** (1.0 / q)
    # T6
    core = kc.u1 * d1q + kc.u2 * d2q
    return w / 3.0 ** (1.0 / p) * core ** (1.0 / q)


def holder_pairs(
    theorem_id: str, ps: tuple[float, ...]
) -> tuple[Optional[HolderExponents], ...]:
    """The hp arguments the theorem takes for the exponents ps: (None,) for
    T1 and T4, which involve no exponent, one pair per p otherwise.  Every p
    is validated either way, so an invalid p is rejected for all theorems."""
    pairs = tuple(HolderExponents(p) for p in ps)
    return (None,) if theorem_id in _PLAIN_IDS else pairs


def hypothesis_function(
    theorem_id: str, f: FunctionSpec, hp: Optional[HolderExponents] = None
) -> DerivedFunction:
    """The function whose class membership each bound assumes.

    |f'| for T1 and T4, |f'|^q for the Holder variants.  Built by composing
    the derivative evaluator pointwise, not by rewriting the expression tree.
    """
    return derivative_power(f, _hypothesis_q(theorem_id, hp))


@lru_cache(maxsize=256)
def _hypothesis_certified(
    f: FunctionSpec,
    q: Optional[float],
    interval: Interval,
    params: ConvexityParams,
    grid_n: int,
) -> bool:
    # one lattice sweep per distinct hypothesis: T2, T3, T5 and T6 at one p
    # all assume |f'|^q, and T1 and T4 both assume |f'|
    hyp = derivative_power(f, q)
    return not convexity.certify(hyp, interval, params, grid_n).falsified


def verify_theorem(
    theorem_id: str,
    f: FunctionSpec,
    interval: Interval,
    params: ConvexityParams,
    hp: Optional[HolderExponents] = None,
    tol: float = 1e-9,
    grid_n: int = convexity.DEFAULT_GRID_N,
) -> BoundReport:
    """Evaluate gap and bound, and certify the bound's hypothesis by sampling.

    The hypothesis is always taken in the first combination sense regardless
    of params.sense, since that is the sense the bound family is stated for.
    """
    bound = theorem_bound(theorem_id, f, interval, params, hp)
    gap = hh_gap(f, interval)
    margin = bound - gap

    q = _hypothesis_q(theorem_id, hp)
    hyp_params = ConvexityParams(params.s, params.alpha, params.m, "first")
    certified = _hypothesis_certified(f, q, interval, hyp_params, grid_n)

    return BoundReport(
        lhs_gap=gap,
        rhs_bound=bound,
        margin=margin,
        holds=margin >= -tol,
        hypothesis_certified=certified,
    )


@dataclass(frozen=True)
class GapIdentityResiduals:
    signed_gap: float
    single_integral: float
    double_integral: float
    single_residual: float
    double_residual: float


def lemma_identity_residuals(f: FunctionSpec, interval: Interval) -> GapIdentityResiduals:
    """Residuals of the two exact integral representations of the signed gap.

    Representation one integrates (1 - 2t) f'(ta + (1-t)b) over the unit
    interval; representation two integrates the antisymmetrized derivative
    difference against (u - t) over the unit square.  Both are scaled by
    (b - a) / 2 and compared with the directly computed signed gap.
    """
    a, b = interval.a, interval.b
    half_w = interval.width / 2.0

    signed = _signed_gap(f, interval)

    dline = lambda t: f.derivative(t * a + (1.0 - t) * b)  # noqa: E731
    single = half_w * reference_integrate(
        lambda t: (1.0 - 2.0 * t) * dline(t), Interval(0.0, 1.0), tol=1e-12
    )

    t, wt = gauss_legendre_01(TENSOR_NODES)
    dvals = np.asarray(dline(t), dtype=float)
    # integrand (d(t) - d(u)) (u - t) splits into rank-one tensor products
    diff = dvals[:, None] - dvals[None, :]
    pair = (t[None, :] - t[:, None]) * diff
    double = half_w * float(wt @ pair @ wt)

    return GapIdentityResiduals(
        signed_gap=signed,
        single_integral=single,
        double_integral=double,
        single_residual=abs(single - signed),
        double_residual=abs(double - signed),
    )
