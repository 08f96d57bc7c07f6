"""Closed-form kernel constants and their numeric cross-checks.

The trapezoid-type bounds in this package are built from moments of two
kernels over the unit box:

  * the single-variable weight |1 - 2t| against t^c and (1 - t^c), and
  * the pair weight |u - t| against the same profiles,

where c is the combined convexity exponent alpha * s.  Closed forms for these
moments (``v1``, ``u1`` and their complements) are used throughout; this
module also evaluates each moment numerically so the closed forms can be
verified at runtime to tight tolerance.  Both kernels have interior kinks
(t = 1/2, respectively t = u), so the quadrature splits at the kink and uses
a cubic change of variable to cluster nodes where t^c loses smoothness for
small c.  Each numeric moment is memoised on the one exponent it depends on
(alpha_s, p or none) and the node budget, never on the tolerance, so a sweep
over alpha_s x p runs each quadrature once per exponent value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .expr import NonConvergenceError

# primary and cross-check node counts; disagreement between them means the
# node budget is too small for the requested exponent and is reported, never
# silently accepted
_NODES = (120, 100)
_NODES_CHECK = (72, 60)

_CONVERGENCE_SLACK = 1e-10


@dataclass(frozen=True)
class KernelConstants:
    """Closed-form kernel moments for exponent alpha_s and scale parameter m."""

    alpha_s: float
    m: float
    v1: float
    v2: float
    u1: float
    u2: float


@dataclass(frozen=True)
class HolderExponents:
    """Conjugate exponent pair: q = p / (p - 1) is computed from p, never passed."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        if not 1.0 < self.p < np.inf:
            raise ValueError(f"p must exceed 1 and be finite, got {self.p}")
        object.__setattr__(self, "q", self.p / (self.p - 1.0))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    dimension: int  # 1 or 2, the domain of the underlying integral
    numeric: float
    closed_form: float
    residual: float


@dataclass(frozen=True)
class KernelIdentityReport:
    alpha_s: float
    p: float
    checks: tuple[IdentityCheck, ...]


def kernel_constants(alpha_s: float, m: float = 1.0) -> KernelConstants:
    """Closed-form moments v1, v2, u1, u2 for the given exponent and scale."""
    if not 0.0 < alpha_s <= 1.0:
        raise ValueError(f"alpha_s must lie in (0, 1], got {alpha_s}")
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m must lie in [0, 1], got {m}")
    c = alpha_s
    v1 = (1.0 + 2.0**c * c) / (2.0**c * (c + 1.0) * (c + 2.0))
    u1 = (c * c + 3.0 * c + 4.0) / (2.0 * (c + 1.0) * (c + 2.0) * (c + 3.0))
    return KernelConstants(
        alpha_s=c,
        m=m,
        v1=v1,
        v2=m * (0.5 - v1),
        u1=u1,
        u2=m * (1.0 / 3.0 - u1),
    )


def holder_constants(p: float) -> tuple[float, float]:
    """Closed-form p-th power moments of the two kernels.

    Returns (c1, c2) with c1 the single-variable moment 1/(1+p) and c2 the
    pair moment 2/((1+p)(2+p)).  p = 1 is accepted; it is useful as an oracle
    anchor even though the conjugate exponent degenerates there.
    """
    if not p >= 1.0:
        raise ValueError(f"p must be at least 1, got {p}")
    return 1.0 / (1.0 + p), 2.0 / ((1.0 + p) * (2.0 + p))


# ---------------------------------------------------------------------------
# numeric evaluation of the kernel moments


@lru_cache(maxsize=None)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _graded(eta: np.ndarray, weta: np.ndarray, lo: float, hi: float, at_lo: bool):
    """Map (0,1) nodes onto (lo, hi) with cubic clustering at one endpoint."""
    width = hi - lo
    if at_lo:
        t = lo + width * eta**3
    else:
        t = hi - width * eta**3
    return t, weta * 3.0 * eta**2 * width


def _line_moment(profile: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """integral over (0,1) of profile(t) * |1 - 2t| dt, split at t = 1/2."""
    eta, weta = gauss_legendre_01(n)
    total = 0.0
    # cluster toward t = 0 on the left half (profile may be t^c, c < 1) and
    # toward nothing special on the right, where plain GL suffices
    t, wt = _graded(eta, weta, 0.0, 0.5, at_lo=True)
    total += float(np.sum(wt * profile(t) * (1.0 - 2.0 * t)))
    t = 0.5 + 0.5 * eta
    wt = 0.5 * weta
    total += float(np.sum(wt * profile(t) * (2.0 * t - 1.0)))
    return total


def _line_power(p: float, n: int) -> float:
    """integral over (0,1) of |1 - 2t|^p dt, split at the kink."""
    eta, weta = gauss_legendre_01(n)
    total = 0.0
    for lo, hi, at_lo in ((0.0, 0.5, False), (0.5, 1.0, True)):
        t, wt = _graded(eta, weta, lo, hi, at_lo)
        total += float(np.sum(wt * np.abs(1.0 - 2.0 * t) ** p))
    return total


def _pair_moment(
    profile: Callable[[np.ndarray], np.ndarray], n_outer: int, n_inner: int
) -> float:
    """integral over the unit square of profile(t) * |u - t| dt du.

    The pair weight itself is piecewise linear, so the only delicate spot is
    the profile t^c near t = 0: the outer variable is graded toward u = 0 and
    the inner panels use cubic maps that place t = 0 at a clustered endpoint.
    """
    ups, wups = gauss_legendre_01(n_outer)
    u = ups**3
    wu = wups * 3.0 * ups**2
    eta, weta = gauss_legendre_01(n_inner)
    cubic_w = weta * 3.0 * eta**2

    # left panel: t = u * eta^3 runs over (0, u), clustered at t = 0
    t_left = u[:, None] * eta[None, :] ** 3
    w_left = wu[:, None] * cubic_w[None, :] * u[:, None]
    # right panel: t = u + (1 - u) * eta^3; for u near 0 this also clusters
    # where the profile is singular
    t_right = u[:, None] + (1.0 - u[:, None]) * eta[None, :] ** 3
    w_right = wu[:, None] * cubic_w[None, :] * (1.0 - u[:, None])

    total = np.sum(w_left * profile(t_left) * (u[:, None] - t_left))
    total += np.sum(w_right * profile(t_right) * (t_right - u[:, None]))
    return float(total)


def _pair_power(p: float, n_outer: int, n_inner: int) -> float:
    """integral over the unit square of |u - t|^p dt du.

    Fractional p makes |u - t|^p kink along t = u and leaves endpoint terms
    u^(p+1), (1-u)^(p+1) in the inner result, so every panel edge that can be
    non-smooth gets a cubic clustering map: the inner split clusters at t = u
    from both sides, the outer split clusters at u = 0 and u = 1.
    """
    ups, wups = gauss_legendre_01(n_outer)
    eta, weta = gauss_legendre_01(n_inner)
    cubic_inner = weta * 3.0 * eta**2
    cubic_outer = wups * 3.0 * ups**2

    total = 0.0
    for u, wu in (
        (0.5 * ups**3, 0.5 * cubic_outer),
        (1.0 - 0.5 * ups**3, 0.5 * cubic_outer),
    ):
        # both inner panels cluster at the kink t = u
        t_left = u[:, None] * (1.0 - eta[None, :] ** 3)
        w_left = wu[:, None] * cubic_inner[None, :] * u[:, None]
        t_right = u[:, None] + (1.0 - u[:, None]) * eta[None, :] ** 3
        w_right = wu[:, None] * cubic_inner[None, :] * (1.0 - u[:, None])
        total += np.sum(w_left * (u[:, None] - t_left) ** p)
        total += np.sum(w_right * (t_right - u[:, None]) ** p)
    return float(total)


def _with_convergence(name: str, evaluate: Callable[[tuple[int, int]], float], tol: float) -> float:
    primary = evaluate(_NODES)
    check = evaluate(_NODES_CHECK)
    if abs(primary - check) > max(_CONVERGENCE_SLACK, 0.1 * tol):
        raise NonConvergenceError(
            f"kernel moment {name!r} did not converge: "
            f"{primary!r} at {_NODES} nodes vs {check!r} at {_NODES_CHECK}"
        )
    return primary


# moment -> (the exponent it depends on, its quadrature at that exponent and a
# node budget); the profiles are t^c and 1 - t^c with c = alpha_s
_MOMENTS = {
    "line_t": ("alpha_s", lambda c, nn: _line_moment(lambda t: t**c, nn[0])),
    "line_comp": ("alpha_s", lambda c, nn: _line_moment(lambda t: 1.0 - t**c, nn[0])),
    "line_p": ("p", lambda p, nn: _line_power(p, nn[0])),
    "pair_t": ("alpha_s", lambda c, nn: _pair_moment(lambda t: t**c, *nn)),
    "pair_comp": ("alpha_s", lambda c, nn: _pair_moment(lambda t: 1.0 - t**c, *nn)),
    "pair_p": ("p", lambda p, nn: _pair_power(p, *nn)),
    "pair_plain": (None, lambda _, nn: _pair_moment(np.ones_like, *nn)),
}


@lru_cache(maxsize=None)
def _moment(key: str, exponent, nodes: tuple[int, int]) -> float:
    return _MOMENTS[key][1](exponent, nodes)


def verify_kernel_identities(
    alpha_s: float, p: float, tol: float = 1e-8
) -> KernelIdentityReport:
    """Every closed-form kernel moment beside its direct quadrature.

    The report contains one entry per identity used by the bound formulas,
    including the restatements that appear inside q-th roots (suffix
    ``_qform``); those share the numeric value with their plain counterparts
    but are listed separately so a report row exists for each use site.
    Each entry gives its residual and passes no verdict on it.  tol sets only
    how far each moment's primary and cross-check quadratures may disagree,
    max(1e-10, 0.1 * tol), before NonConvergenceError is raised.
    """
    kc = kernel_constants(alpha_s, 1.0)
    c1, c2 = holder_constants(p)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    exponents = {"alpha_s": alpha_s, "p": p, None: None}
    numeric = {
        key: _with_convergence(key, partial(_moment, key, exponents[dep]), tol)
        for key, (dep, _) in _MOMENTS.items()
    }

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

    checks = []
    for name, (key, dim, target) in closed.items():
        value = numeric[key]
        residual = abs(value - target)
        checks.append(IdentityCheck(name, dim, value, target, residual))
    return KernelIdentityReport(alpha_s, p, tuple(checks))
