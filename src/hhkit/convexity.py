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


def _lattice_size(params: ConvexityParams, grid_n: int) -> int:
    return grid_n ** (3 if params.m > 0.0 else 2)  # the y axis drops out at m = 0


def _block_minima(f, interval: Interval, params: ConvexityParams, grid_n: int, lhs=None):
    """certify's lattice walk: per block, in order, (margin, (x, y, mu), lhs, rhs)
    at the block's first least margin.  certify states the blocks and errors.
    The left-hand side of rows start:stop is lhs(start, stop, z) when lhs is
    given and f(z()) otherwise, where z() writes the block's points into a shared buffer."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    size = _lattice_size(params, grid_n)
    if size > MAX_LATTICE_POINTS:
        raise ValueError(
            f"grid_n={grid_n} gives a lattice of {size} points, "
            f"more than the cap of {MAX_LATTICE_POINTS}"
        )

    points = np.linspace(interval.a, interval.b, grid_n)
    mus = np.linspace(0.0, 1.0, grid_n)
    # non-finite values raise DomainError; errstate on a generator would cover only its creation
    with np.errstate(over="ignore", invalid="ignore"):
        fc, sc = combination_coefficients(params, mus)
        MU, fc = mus[None, None, :], fc[None, None, :]
        fx = np.asarray(f(points), dtype=float)
        if params.m > 0.0:
            # points / 1.0 is points, bit for bit, so m = 1 reuses f(points)
            fy = fx if params.m == 1.0 else np.asarray(f(points / params.m), dtype=float)
            ys = points
        else:
            fy = fx  # no f(y/m) term
            ys = np.zeros(1)  # second term vanishes and the combination collapses to mu*x
    if not (np.isfinite(fx).all() and np.isfinite(fy).all()):
        raise DomainError(_NOT_FINITE)
    if isinstance(f, FunctionSpec):  # every lattice point is mu*x + (1-mu)*y of points of this hull
        f._check_domain(np.array([min(interval.a, ys[0]), max(interval.b, ys[-1])]))
    value = f._value_inside if isinstance(f, FunctionSpec) else f
    # per lattice: the terms' products (no coefficient exceeds 1), and one z and one margin buffer
    x_mu, fc_fx = MU * points[:, None, None], fc * fx[:, None, None]
    y_lhs = (1.0 - MU) * ys[None, :, None]
    y_rhs = sc[None, None, :] * fy[None, :, None] if params.m > 0.0 else None

    rows = max(1, BLOCK_POINTS // (len(ys) * grid_n))
    z_buffer, margin_buffer = np.empty((2, min(rows, grid_n), len(ys), grid_n))
    # a sweep stops at its first failing block, so where there are several its first is row 0
    swept = lhs is not None and rows < grid_n
    starts = [0, *range(1, grid_n, rows)] if swept else range(0, grid_n, rows)
    for i0, i1 in zip(starts, [*starts[1:], grid_n]):
        block = slice(i0, i1)
        z = lambda: np.add(x_mu[block], y_lhs, out=z_buffer[: i1 - i0])  # noqa: E731
        margins = margin_buffer[: i1 - i0]
        with np.errstate(over="ignore", invalid="ignore"):
            left = np.asarray(value(z()) if lhs is None else lhs(i0, i1, z), dtype=float)
            rhs = fc_fx[block] if y_rhs is None else np.add(fc_fx[block], y_rhs, out=margins)
            np.subtract(rhs, left, out=margins)
        i, j, k = np.unravel_index(int(np.argmin(margins)), margins.shape)
        if not np.isfinite(margins[i, j, k]):
            raise DomainError(_NOT_FINITE)
        # rhs at the finite argmin from the same operands: at m = 0, fc*fx alone keeps a -0.0
        rhs = fc_fx[i0 + i, 0, k] if y_rhs is None else fc_fx[i0 + i, 0, k] + y_rhs[0, j, k]
        yield float(margins[i, j, k]), (points[i0 + i], ys[j], mus[k]), float(left[i, j, k]), float(rhs)


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
    order by the walk certify shares with hypothesis_certified.  Memory
    therefore grows as grid_n^2, not grid_n^3, and does not depend on grid_n
    while a row fits in BLOCK_POINTS; time is still grid_n^3 evaluations of f,
    so a lattice of more than MAX_LATTICE_POINTS points is refused with
    ValueError before f is evaluated.  Every block's points are written into
    one buffer per lattice, and its margins into another, so f must not keep
    its argument.  A FunctionSpec's domain is checked once per lattice, on
    the hull of its points, and each block is then evaluated without it.
    Raises DomainError when f is not finite at the grid points or a block's
    least margin is NaN or -inf; a +inf margin cannot be a counterexample and
    passes.
    """
    if not tolerance >= 0.0:
        raise ValueError("tolerance must be non-negative")
    blocks = _block_minima(f, interval, params, grid_n)
    margin, (x, y, mu), lhs, rhs = min(blocks, key=lambda block: block[0])  # first of ties
    if margin < -tolerance:
        cex = Counterexample(x=float(x), y=float(y), mu=float(mu), lhs=lhs, rhs=rhs)
        verdict = "falsified"
    else:
        cex = None
        verdict = "not_falsified"

    return CertificationReport(
        samples_checked=_lattice_size(params, grid_n),
        worst_margin=margin,
        counterexample=cex,
        verdict=verdict,
    )


def hypothesis_certified(
    f: FunctionSpec, q: Optional[float], interval: Interval, params: ConvexityParams, grid_n: int
) -> bool:
    """Whether |f'|^q (|f'| when q is None), the hypothesis of every bound,
    survives certify in params' class taken in the first sense.  That class
    reads only alpha*s and m, so the sweep is memoised on (f, q, interval,
    alpha*s, m, grid_n): T2, T3, T5 and T6 at one p share it, T1 and T4 share
    one, and (s, alpha) = (0.5, 1) shares with (1, 0.5).  The sweep stops at
    the first block with a margin below -DEFAULT_TOLERANCE, and on a lattice of
    more than one block its first block is row 0 alone (grid_n^2 points, the
    rest in certify's blocks from row 1).  A DomainError that only a later
    block would raise is not reached: the hypothesis reads as falsified, on a
    real lattice counterexample.

    The lattice points z depend only on (interval, grid_n) and whether the y
    axis exists (m > 0), so sweeps over one (f, interval, grid_n) share their
    blocks of |f'(z)|, and each sweep only raises them to q and applies its
    class.  _kept_blocks holds the read-only blocks of the last lattice of at
    most 4*BLOCK_POINTS points swept (1 MiB of float64; the default grid 50
    fits), so sweeps share them when they come in order of (f, interval); a
    larger lattice stores nothing, is evaluated afresh by every sweep and
    leaves the kept blocks in place.  Errors are not kept, and every margin is
    bitwise the one certify computes on |f'|^q."""
    first = ConvexityParams(1.0, params.alpha_s, params.m)
    return _hypothesis_certified(f, q, interval, first, grid_n)


@lru_cache(maxsize=256)
def _hypothesis_certified(f, q, interval, first: ConvexityParams, grid_n: int) -> bool:
    abs_derivative = derivative_power(f, None)
    small = _lattice_size(first, grid_n) <= 4 * BLOCK_POINTS
    kept = _kept_blocks(f, interval, grid_n, first.m > 0.0) if small else {}

    def lhs(start, stop, z):
        values = kept.get((start, stop))
        if values is None:
            values = np.asarray(abs_derivative(z()), dtype=float)
            if small:
                values.flags.writeable = False
                kept[(start, stop)] = values
        return values if q is None else values**q

    blocks = _block_minima(derivative_power(f, q), interval, first, grid_n, lhs)
    return not any(block[0] < -DEFAULT_TOLERANCE for block in blocks)


@lru_cache(maxsize=1)
def _kept_blocks(f, interval: Interval, grid_n: int, has_y: bool) -> dict:
    """|f'| on the blocks of the last small lattice swept, by (start, stop) row."""
    return {}
