"""Sampling-based certification of generalized convexity classes.

The class is parameterized by (s, alpha, m) and a sense tag.  For a candidate
function f, points x, y in the interval and mu in [0, 1], the tested inequality is

    f(mu*x + (1-mu)*y)  <=  mu^(alpha*s) * f(x) + C(mu) * f(y/m)

with C(mu) = m*(1 - mu^(alpha*s)) in the first sense and
C(mu) = m*(1 - mu^alpha)^s in the second.  At m = 0 the second term is taken
to be 0.  Certification samples a uniform lattice; "not_falsified" is a
sampling statement, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .expr import DomainError, FunctionSpec, Interval, derivative_power

SENSES = ("first", "second")

DEFAULT_GRID_N = 50
DEFAULT_TOLERANCE = 1e-9
BLOCK_POINTS = 1 << 15  # 256 KB per float64 temporary, so a block's passes stay in L2
MAX_LATTICE_POINTS = 1 << 30  # 8-21 s of f at 7.5-20 ns per point (2-CPU VM); refused past it
_NOT_FINITE = "the hypothesis function is not finite on the certify lattice"


@dataclass(frozen=True)
class ConvexityParams:
    """Class parameters: s in (0, 1], alpha in [0, 1], m in [0, 1]."""

    s: float
    alpha: float
    m: float
    sense: str = "first"

    def __post_init__(self):
        if not (0.0 < self.s <= 1.0):
            raise ValueError(f"s must lie in (0, 1], got {self.s}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 <= self.m <= 1.0):
            raise ValueError(f"m must lie in [0, 1], got {self.m}")
        if self.sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}, got {self.sense!r}")

    @property
    def alpha_s(self) -> float:
        return self.alpha * self.s


@dataclass(frozen=True)
class Counterexample:
    x: float
    y: float
    mu: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CertificationReport:
    samples_checked: int
    worst_margin: float  # min over the lattice of rhs - lhs
    counterexample: Optional[Counterexample]
    verdict: str  # "not_falsified" | "falsified"

    @property
    def falsified(self) -> bool:
        return self.verdict == "falsified"


def combination_coefficients(params: ConvexityParams, mu):
    """Coefficients (on f(x), on f(y/m)) of the class inequality at mu."""
    first_coef = mu ** (params.alpha * params.s)
    if params.sense == "first":
        second_coef = params.m * (1.0 - first_coef)
    else:
        second_coef = params.m * (1.0 - mu**params.alpha) ** params.s
    return first_coef, second_coef


def generalized_combination_rhs(
    params: ConvexityParams, f_at_x: float, f_at_y_over_m: float, mu: float
) -> float:
    """Right-hand side of the class inequality for given endpoint values."""
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    if math.isnan(f_at_x) or math.isnan(f_at_y_over_m) or math.isnan(mu):
        raise ValueError("NaN inputs are not allowed")
    fc, sc = combination_coefficients(params, mu)
    if params.m == 0.0:
        return float(fc * f_at_x)
    return float(fc * f_at_x + sc * f_at_y_over_m)


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise DomainError instead
def certify(
    f,
    interval: Interval,
    params: ConvexityParams,
    grid_n: int = DEFAULT_GRID_N,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CertificationReport:
    """Search a grid_n^3 lattice over (x, y, mu) for violations of the class inequality.

    Falsified means some lattice margin is below -tolerance; the reported
    counterexample is the lexicographically first lattice point attaining the
    worst margin.  f must be evaluable on arrays over the interval, and for
    0 < m < 1 also at y/m for every sampled y.  When m == 0 the y axis drops
    out and the lattice is grid_n^2 points over (x, mu).

    The lattice is evaluated in blocks of whole x rows, at most BLOCK_POINTS
    points each (one row when a row is larger), visited in lexicographic
    order.  Memory therefore grows as grid_n^2, not grid_n^3, and does not
    depend on grid_n while a row fits in BLOCK_POINTS; time is still grid_n^3
    evaluations of f, so a lattice of more than MAX_LATTICE_POINTS points is
    refused with ValueError before f is evaluated.  Raises DomainError when f
    is not finite at the grid points or a block's least margin is NaN or -inf;
    a +inf margin cannot be a counterexample and passes.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    if not tolerance >= 0.0:
        raise ValueError("tolerance must be non-negative")
    size = grid_n**3 if params.m > 0.0 else grid_n**2
    if size > MAX_LATTICE_POINTS:
        raise ValueError(
            f"grid_n={grid_n} gives a lattice of {size} points, "
            f"more than the cap of {MAX_LATTICE_POINTS}"
        )

    points = np.linspace(interval.a, interval.b, grid_n)
    mus = np.linspace(0.0, 1.0, grid_n)
    fc, sc = combination_coefficients(params, mus)
    MU, fc = mus[None, None, :], fc[None, None, :]

    fx = np.asarray(f(points), dtype=float)
    if params.m > 0.0:
        fy = np.asarray(f(points / params.m), dtype=float)
        ys = points
    else:
        fy = fx  # no f(y/m) term
        ys = np.zeros(1)  # second term vanishes and the combination collapses to mu*x
    if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(fy))):
        raise DomainError(_NOT_FINITE)
    y_lhs = (1.0 - MU) * ys[None, :, None]
    y_rhs = sc[None, None, :] * fy[None, :, None] if params.m > 0.0 else None

    # blocks of whole x rows, in lexicographic order
    row = len(ys) * grid_n
    rows = max(1, BLOCK_POINTS // row)
    worst = None  # (margin, (i, j, k), lhs, rhs): the first lattice point with the least margin
    for i0 in range(0, grid_n, rows):
        lhs = np.asarray(f(MU * points[i0 : i0 + rows, None, None] + y_lhs), dtype=float)
        rhs = fc * fx[i0 : i0 + rows, None, None]
        if y_rhs is not None:
            rhs = rhs + y_rhs
        margins = rhs - lhs
        at = np.unravel_index(int(np.argmin(margins)), margins.shape)
        if not np.isfinite(margins[at]):
            raise DomainError(_NOT_FINITE)
        if worst is None or margins[at] < worst[0]:
            i, j, k = (int(v) for v in at)
            worst = (float(margins[at]), (i0 + i, j, k), float(lhs[at]), float(rhs[at]))

    margin, (i, j, k), lhs, rhs = worst
    if margin < -tolerance:
        cex = Counterexample(x=float(points[i]), y=float(ys[j]), mu=float(mus[k]), lhs=lhs, rhs=rhs)
        verdict = "falsified"
    else:
        cex = None
        verdict = "not_falsified"

    return CertificationReport(
        samples_checked=grid_n * row,
        worst_margin=margin,
        counterexample=cex,
        verdict=verdict,
    )


@lru_cache(maxsize=256)
def hypothesis_certified(
    f: FunctionSpec, q: Optional[float], interval: Interval, params: ConvexityParams, grid_n: int
) -> bool:
    """Whether |f'|^q (|f'| when q is None), the hypothesis of every bound,
    survives certify in params' class taken in the first sense.  Memoised, so
    T2, T3, T5 and T6 at one p share a sweep, T1 and T4 share one, and the
    guaranteed integrator sweeps once per (f, interval, s) at any tol."""
    first = ConvexityParams(params.s, params.alpha, params.m, "first")
    return not certify(derivative_power(f, q), interval, first, grid_n).falsified
