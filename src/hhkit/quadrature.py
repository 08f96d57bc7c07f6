"""Composite trapezoid sums with a-priori error bounds, and a guaranteed-error integrator.

Two error-bound variants are provided for the composite trapezoid rule on a
partition D = {x_0 < ... < x_n}, both of the shape

    |integral - trapezoid_sum|  <=  constant(s, p) * sum_k (dx_k^2 / 2) * (|f'(x_k)| + |f'(x_{k+1})|)

valid when |f'| belongs to the s-convex class certified by
``convexity.certify`` with parameters (s, 1, 1, first).  The reference
integrator is an adaptive-Simpson panel refiner, independent of the trapezoid
code path, and doubles as the ground-truth oracle elsewhere in the package.
It refines level-synchronously, a level's panels stacked in one array: one
evaluation of f per refinement level, on a 1-D array of the quarter-points of
every active panel, so f must map such an array to values of the same shape.
A level may hold at most REFERENCE_PANEL_CAP panels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from . import convexity
from .expr import DomainError, FunctionSpec, Interval, NonConvergenceError
from .kernels import HolderExponents, kernel_constants

BOUND_VARIANTS = ("P4", "P5")

N_CAP = 2**24

ORACLE_TOL = 1e-12

CERTIFY_GRID_N = 30  # lattice size of the guarantee's |f'| hypothesis sweep


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing float points, at least one panel."""

    points: np.ndarray

    def __post_init__(self):
        self._hold(np.array(self.points, dtype=float))  # a copy the caller cannot write to

    def _hold(self, pts: np.ndarray) -> None:
        """Check pts a block of convexity.BLOCK_POINTS panels at a time, finiteness
        over all blocks first, then keep pts itself, read-only, as the points."""
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a partition needs at least two points")
        step = convexity.BLOCK_POINTS
        blocks = [pts[i : i + step + 1] for i in range(0, pts.size - 1, step)]
        if not all(np.isfinite(block).all() for block in blocks):
            raise ValueError("partition points must be finite")
        if not all((np.diff(block) > 0.0).all() for block in blocks):
            raise ValueError("partition points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, interval: Interval, n: int) -> "Partition":
        if n < 1:
            raise ValueError("n must be at least 1")
        part = cls.__new__(cls)
        part._hold(np.linspace(interval.a, interval.b, n + 1))  # no one else holds it
        return part

    @property
    def n(self) -> int:
        return self.points.size - 1

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    bound_p4: float
    bound_p5: float
    n: int
    hypothesis_certified: bool  # the |f'| hypothesis behind the bounds survived certify


def bound_constant(variant: str, s: float, p: float) -> float:
    """Partition-independent constant in front of the panel sum."""
    variant = str(variant).upper()
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"variant must be one of {BOUND_VARIANTS}, got {variant!r}")
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")
    hp = HolderExponents(p)
    kc = kernel_constants(s)
    if variant == "P4":
        return (1.0 / 2.0 ** (1.0 / hp.p)) * kc.v1 ** (1.0 / hp.q)
    return (2.0 / 3.0) ** (1.0 / hp.p) * (2.0 * kc.u1) ** (1.0 / hp.q)


# ---------------------------------------------------------------------------
# blocked panel sums
#
# np.sum adds float64 terms pairwise: a run of m > 128 terms is split at
# m2 = m // 2 rounded down to a multiple of 8, and the two halves' sums are
# added.  _blocked_sums makes the same splits down to runs of at most
# convexity.BLOCK_POINTS (>= 128) panels and sums each run with np.sum, so its
# result is bitwise the one np.sum over all n panels while only one run's
# arrays, which fit in cache, are alive at a time.  A run's terms come from
# its own points, so f is evaluated on slices of the grid, and the point two
# neighbouring runs share is evaluated once for each.


def _blocked_sums(n: int, terms) -> list[float]:
    """Sums over panels 0..n-1 of the per-panel term arrays that terms(lo, hi)
    returns for panels lo..hi-1, runs visited left to right."""

    def walk(lo: int, hi: int) -> list:
        m = hi - lo
        if m <= convexity.BLOCK_POINTS:
            return [np.sum(t) for t in terms(lo, hi)]
        m2 = m // 2
        m2 -= m2 % 8
        return [x + y for x, y in zip(walk(lo, lo + m2), walk(lo + m2, hi))]

    return [float(total) for total in walk(0, n)]


def _trapezoid_terms(dx: np.ndarray, vals) -> np.ndarray:
    """dx * (vals[:-1] + vals[1:]) / 2.0 for panel widths dx, bit for bit, in
    one new array."""
    vals = np.asarray(vals, dtype=float)
    terms = vals[:-1] + vals[1:]
    terms *= dx
    terms /= 2.0
    return terms


def _panel_terms(dx: np.ndarray, derivative) -> np.ndarray:
    """dx ** 2 / 2.0 * (d[:-1] + d[1:]) for d = |derivative|, bit for bit, in
    two new arrays; dx is overwritten with dx ** 2 / 2.0."""
    d = np.abs(np.asarray(derivative, dtype=float))
    terms = d[:-1] + d[1:]
    dx *= dx
    dx /= 2.0
    terms *= dx
    return terms


def _partition_sum(partition: Partition, terms) -> float:
    """Blocked sum of the term arrays terms(pts) gives on slices of the points."""
    return _blocked_sums(partition.n, lambda lo, hi: (terms(partition.points[lo : hi + 1]),))[0]


def trapezoid_sum(f, partition: Partition) -> float:
    """Composite trapezoid value of f over the partition.

    f is called on consecutive slices of the points, at most
    convexity.BLOCK_POINTS + 1 at a time, neighbouring slices sharing an
    endpoint, so it must act pointwise on a 1-D array.  Slices are taken
    left to right: if f fails at points of two slices, the error raised is
    the leftmost slice's, not necessarily the first that a call on all the
    points would raise.
    """
    return _partition_sum(partition, lambda pts: _trapezoid_terms(np.diff(pts), f(pts)))


def trapezoid_error_bound(
    variant: str, f, partition: Partition, s: float = 1.0, p: float = 2.0
) -> float:
    """A-priori bound on |integral - trapezoid_sum| for the given variant.

    f.derivative is called on consecutive slices of the points, as f is by
    trapezoid_sum, so it must act pointwise, and of errors in two slices
    the leftmost slice's is raised.
    """
    panel = _partition_sum(partition, lambda pts: _panel_terms(np.diff(pts), f.derivative(pts)))
    return bound_constant(variant, s, p) * panel


# ---------------------------------------------------------------------------
# adaptive reference integrator
#
# Adaptive Simpson, refined level by level (Gander & Gautschi, "Adaptive
# quadrature - revisited", BIT 2000, give the recursive form).  Every panel
# keeps the recursive rule: at depth >= _MIN_DEPTH it is accepted when
# |left + right - whole| <= 15 tol, else both halves are refined with tol / 2.
# All panels of one depth share their tol and are refined together, so f is
# evaluated once per level, on the quarter-points of every active panel.  The
# accepted values are then summed back up the refinement tree in the
# recursion's order, parent = left subtree + right subtree, so the result is
# bitwise the recursive one whenever f gives the same values on an array as
# point by point.

_MIN_DEPTH = 3  # guard against symmetric cancellation fooling the first estimate

REFERENCE_PANEL_CAP = 2**16  # most active panels in one level of refinement

MAX_DEPTH = 60  # deepest refinement level before a panel counts as not converging

# A level's panels are one (7, P) array, rows a, fa, m, fm, b, fb, whole; with
# lm, rm, flm, frm, left, right stacked below its first six rows, a kept
# panel's children are rows (a, fa, lm, flm, m, fm, left), (m, fm, rm, frm, b, fb, right).
_CHILD_ROWS = ((0, 2), (1, 3), (6, 7), (8, 9), (2, 4), (3, 5), (10, 11))


def _simpson(a, fa, fm, b, fb):
    return (b - a) * (fa + 4.0 * fm + fb) / 6.0


def _values(fn, x: np.ndarray) -> np.ndarray:
    y = np.asarray(fn(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError(
            f"the integrand must map a 1-D array to values of the same shape; "
            f"got shape {y.shape} for {x.shape}"
        )
    return y


def reference_integrate(
    f: Union[FunctionSpec, Callable[[np.ndarray], np.ndarray]],
    interval: Interval,
    tol: float = 1e-10,
) -> float:
    """Adaptive-Simpson estimate of the integral of f over the interval.

    Error control targets tol.  f (a FunctionSpec or any callable) must accept
    a 1-D float array and return values of the same shape: it is called once
    on the endpoints and midpoint, then once per refinement level on the
    quarter-points of all panels still active at that level.

    NonConvergenceError is raised when a panel is still unaccepted at depth
    MAX_DEPTH, or before a level would hold more than REFERENCE_PANEL_CAP
    panels.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a = np.array([interval.a], dtype=float)
    b = np.array([interval.b], dtype=float)
    m = 0.5 * (a + b)
    fa, fm, fb = np.split(_values(f, np.concatenate((a, m, b))), 3)
    panels = np.stack((a, fa, m, fm, b, fb, _simpson(a, fa, fm, b, fb)))

    levels = []  # per depth: (panel values, refined mask), panels in tree order
    for depth in itertools.count():
        quarters = 0.5 * (panels[0:4:2] + panels[2:6:2])  # (lm, rm) = (a + m, m + b) / 2
        fq = _values(f, quarters.ravel()).reshape(quarters.shape)
        # (left, right): Simpson on (a, fa, flm, m, fm) and (m, fm, frm, b, fb)
        halves = _simpson(panels[0:4:2], panels[1:5:2], fq, panels[2:6:2], panels[3:7:2])
        left, right = halves
        err = left + right - panels[6]
        refine = ~(np.abs(err) <= 15.0 * tol) if depth >= _MIN_DEPTH else np.ones(err.size, bool)
        levels.append((left + right + err / 15.0, refine))
        n_refine = int(np.count_nonzero(refine))
        if n_refine == 0:
            break
        if depth >= MAX_DEPTH:
            i = int(np.argmax(refine))
            a, b = panels[0, i], panels[4, i]
            raise NonConvergenceError(f"adaptive refinement exceeded depth {MAX_DEPTH} on [{a}, {b}]")
        if 2 * n_refine > REFERENCE_PANEL_CAP:
            raise NonConvergenceError(
                f"adaptive refinement needs {2 * n_refine} panels at depth {depth + 1}, "
                f"past REFERENCE_PANEL_CAP = {REFERENCE_PANEL_CAP}"
            )
        stack = np.concatenate((panels[:6], quarters, fq, halves))[:, refine]
        # each kept panel's left child, then its right, in the order of their parents
        panels = stack.take(_CHILD_ROWS, axis=0).transpose(0, 2, 1).reshape(7, -1)
        tol = tol / 2.0

    total = levels[-1][0]
    for value, refine in reversed(levels[:-1]):
        value[refine] = total[0::2] + total[1::2]
        total = value
    return float(total[0])


@lru_cache(maxsize=256)
def oracle_integral(f: FunctionSpec, interval: Interval) -> float:
    """The integral of f at ORACLE_TOL, computed once per (f, interval).

    The gap, the classical chain and the suite's trapezoid errors all compare
    against this one value.
    """
    return reference_integrate(f, interval, tol=ORACLE_TOL)


# ---------------------------------------------------------------------------
# guaranteed-error integration
#
# On a uniform grid of n panels the bound is B(n) = C * w * T_n(|f'|) / n, with
# C = min(P4, P5 constant), w the interval width and T_n the trapezoid sum of
# |f'|.  T_n tends to V = integral of |f'|, so the smallest sufficient n is close
# to C * w * V / tol, and one small pass predicts it.
#
# The same pass gives a lower bound on that n.  The certified class (s, 1, 1,
# first) at mu = 1/2, added to itself with x and y swapped, makes |f'| midpoint
# convex, hence convex, |f'| being continuous.  The Hermite-Hadamard inequalities
# then give M_k <= V <= T_n for the midpoint sum M_k on any uniform grid of k
# panels, so B(n) <= tol needs n >= C * w * T_n / tol >= C * w * M_k / tol.  The
# search takes every n below that bound as failing, after shrinking it by
# ROUNDING_SLACK.
#
# At k = PREDICT_PANELS the bound usually falls short of n0 - 1, for the first
# trial n0 = ceil(C * w * V / tol), so proving B(n0 - 1) > tol would take a
# second full pass.  The shortfall C * w * (V - M_k) / tol falls as 1 / k^2 for
# smooth |f'|, so scaling the prediction pass's own shortfall gives the k that
# leaves it at most half of the margin C * w * V / tol - (n0 - 1).  One more
# midpoint sum of k panels, on at most BLOCK_POINTS + 1 points and costing at
# most a sixteenth of the pass it saves, then usually proves n >= n0, and the
# search confirms n0 with one full pass.

PREDICT_PANELS = 1024  # the prediction pass samples |f'| on 2 * PREDICT_PANELS panels

# The refined bound can decide n to ~0.01 panel, so the slack must cover its
# rounding, not just be small beside a panel.  Both sides of M_k <= T_n are
# float sums of f' values: np.sum's pairwise sums of up to N_CAP terms err by
# at most ~log2(N_CAP) * 2^-53 < 3e-15 relative, each f' value by a few ulp of
# the libm calls behind it, and the products with C, w and 1 / tol by a few ulp
# more.  1e-12 relative covers all of them ~100 times over and costs at most
# N_CAP * 1e-12 < 2e-5 panel of the bound.
ROUNDING_SLACK = 1e-12


def _uniform_points(interval: Interval, n: int, lo: int, hi: int) -> np.ndarray:
    """Points lo..hi of np.linspace(interval.a, interval.b, n + 1), bit for bit."""
    a, b = float(interval.a), float(interval.b)
    pts = np.arange(lo, hi + 1, dtype=float)
    step = (b - a) / n
    if step == 0.0:  # a subnormal width, which linspace scales after dividing
        pts /= n
        pts *= b - a
    else:
        pts *= step
    pts += a
    if hi == n:
        pts[-1] = b
    return pts


def _uniform_pass(f, interval: Interval, n: int, constants) -> tuple[float, float, float]:
    """(trapezoid value, P4 bound, P5 bound) on n uniform panels, from one
    evaluation of f and f' on the n + 1 points, made block by block."""

    def terms(lo: int, hi: int):
        pts = _uniform_points(interval, n, lo, hi)
        fd = f.eval_with_derivative(pts)
        dx = np.diff(pts)
        # _panel_terms overwrites dx, so it comes second
        return _trapezoid_terms(dx, fd.value), _panel_terms(dx, fd.derivative)

    value, panel = _blocked_sums(n, terms)
    return value, constants[0] * panel, constants[1] * panel


def _predict_n(
    f, interval: Interval, tol: float, c: float, panels: int = PREDICT_PANELS
) -> tuple[float, float]:
    """(C * w * M / tol, C * w * V / tol) from one evaluation of |f'| on 2 * panels
    uniform panels, C = c: M is the midpoint sum over panels panels, V the
    trapezoid sums over both panel counts, Richardson-extrapolated.  The
    prediction pass calls it at PREDICT_PANELS, the refined lower bound at
    more panels, reading only M."""
    w = interval.b - interval.a
    m = panels
    pts = np.linspace(interval.a, interval.b, 2 * m + 1)
    d = np.abs(np.asarray(f.derivative(pts), dtype=float))
    ends = (d[0] + d[-1]) / 2.0
    fine = w / (2 * m) * float(np.sum(d) - ends)
    coarse = w / m * float(np.sum(d[::2]) - ends)
    midpoint = w / m * float(np.sum(d[1::2]))
    variation = max((4.0 * fine - coarse) / 3.0, 0.0)
    return c * w * midpoint / tol, c * w * variation / tol


def integrate_with_guarantee(
    f: FunctionSpec,
    interval: Interval,
    tol: float,
    s: float = 1.0,
    p: float = 2.0,
    *,
    allow_uncertified: bool = False,
    n_cap: int = N_CAP,
) -> QuadratureResult:
    """Uniform trapezoid integration with min(bound_p4, bound_p5) <= tol.

    One pass over 2 * PREDICT_PANELS panels estimates V = integral of |f'| and
    predicts n0 = max(1, ceil(C * w * V / tol)).  With a certified hypothesis
    the same pass proves B(n) > tol for every n below a lower bound, and when
    that bound leaves n0 - 1 open, one midpoint sum of |f'| on up to
    convexity.BLOCK_POINTS panels refines it, usually past n0 - 1 (see the
    note above PREDICT_PANELS).  The bound then confirms a bracket
    B(n) <= tol < B(n - 1): from n0 the search steps away from the side it
    knows by 1, 2, 4, ... panels and bisects once both sides are known, the
    lower side being known from the start when the lower bound exists.  An
    accurate prediction usually needs one full pass, at n0, and a poor one
    O(log n); no pass is repeated.  A pass evaluates f and f' together, once,
    in blocks of at most convexity.BLOCK_POINTS panels, so its memory does not
    grow with n; the result reuses the confirming pass for its value as for
    its bounds.  The returned n is the smallest with B(n) <= tol, given that
    B is nonincreasing in n and, where the lower bound excluded the n below
    it, that the sampled |f'| hypothesis holds: a hypothesis that
    certify's lattice certified but |f'| breaks between its points can make
    the returned n too large.  If f' is undefined at a point of the
    prediction grid (a kink), the search starts from n0 = 1; at a point of
    the refinement grid, the refinement is skipped.

    NonConvergenceError is raised when that n exceeds n_cap, and only then.
    A request whose lower bound exceeds n_cap is refused before any full
    pass; otherwise a prediction past n_cap is settled by evaluating
    B(n_cap).

    The |f'| hypothesis behind the bounds is checked once per (f, interval, s)
    by convexity.hypothesis_certified, shared with verify_theorem, in the class
    (s, 1, 1, first) on a CERTIFY_GRID_N lattice; a falsified hypothesis raises
    ValueError unless allow_uncertified is set, in which case the bounds are
    reported as computed, with hypothesis_certified False.  That class holds
    only constants when s < 1, so any s below 1 falsifies a nonconstant |f'|.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if n_cap < 1:
        raise ValueError(f"n_cap must be at least 1, got {n_cap}")

    params = convexity.ConvexityParams(s, 1.0, 1.0, "first")
    certified = convexity.hypothesis_certified(f, None, interval, params, CERTIFY_GRID_N)
    if not certified and not allow_uncertified:
        raise ValueError(
            f"|({f.text})'| falsified for the s={s} class on "
            f"[{interval.a}, {interval.b}]; error bounds are not guaranteed"
            " (pass allow_uncertified=True to proceed)"
        )

    constants = bound_constant("P4", s, p), bound_constant("P5", s, p)
    c = min(constants)
    try:
        lower, predicted = _predict_n(f, interval, tol, c)
    except DomainError:  # f' is undefined at a point of the prediction grid
        lower, predicted = 0.0, 1.0
    # the midpoint sum bounds nothing without the hypothesis
    lower = lower * (1.0 - ROUNDING_SLACK) if certified else 0.0

    def least_above(bound: float) -> int:
        """The least n that a lower bound C * w * M / tol, shrunk, leaves open."""
        if bound > n_cap:
            raise NonConvergenceError(
                f"tol {tol:.3e} needs a predicted n = {predicted:.0f} panels "
                f"(at least {bound:.0f}), past n_cap = {n_cap}"
            )
        return max(1, math.ceil(bound))

    least = least_above(lower)  # every n < least fails
    n = max(least, math.ceil(min(predicted, n_cap)))  # the first trial
    if least < n and math.isfinite(predicted):
        # the refined lower bound (see the note above PREDICT_PANELS)
        ratio = (predicted - lower) / (predicted - (n - 1))  # shortfall over margin
        panels = math.ceil(PREDICT_PANELS * math.sqrt(2.0 * ratio))
        if 2 * panels <= convexity.BLOCK_POINTS and 16 * panels < n:
            try:
                refined = _predict_n(f, interval, tol, c, panels)[0] * (1.0 - ROUNDING_SLACK)
            except DomainError:
                pass  # f' is undefined at a point of the refinement grid
            else:
                least = max(least, least_above(refined))
                n = max(least, n)

    lo, hi, step = least - 1, None, 1  # B(lo) > tol (lo = 0: no panels) and B(hi) <= tol
    while True:
        trial = _uniform_pass(f, interval, n, constants)  # (value, bound_p4, bound_p5)
        if min(trial[1:]) <= tol:
            hi, confirmed = n, trial
        elif n == n_cap:
            raise NonConvergenceError(
                f"bound still {min(trial[1:]):.10g} > tol {tol:.10g} at n = n_cap = {n_cap}"
            )
        else:
            lo = n
        if hi is not None and hi - lo == 1:
            break
        if hi is None:
            n = min(lo + step, n_cap)
        elif lo == 0:
            n = max(hi - step, 1)
        else:
            n = (lo + hi) // 2
        step *= 2

    value, b4, b5 = confirmed  # the pass at hi
    return QuadratureResult(value, b4, b5, n=hi, hypothesis_certified=certified)
