"""Special means of positive numbers and the proposition-level checks built on them.

Provides the arithmetic, geometric, harmonic, logarithmic, identric, and
p-logarithmic means, the classical ordering chain between them, and numeric
verdicts for three printed mean inequalities (P1, P2, P3).

The logarithmic family is computed through log1p/expm1 forms with ordered
endpoints: writing r = (b - a) / a,

    L   = a * r / log1p(r)
    I   = a * exp((1 + r) * log1p(r) / r - 1)
    L_p = a * (expm1((p+1) * log1p(r)) / ((p+1) * r)) ** (1/p)

which agree with the textbook quotients exactly but stay accurate when the
endpoints nearly coincide; below a relative separation of 1e-12 the diagonal
value a is returned outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .hhbounds import BoundReport
from .kernels import HolderExponents

MEAN_KINDS = (
    "arithmetic",
    "geometric",
    "harmonic",
    "logarithmic",
    "identric",
    "p_logarithmic",
)

PROPOSITION_IDS = ("P1", "P2", "P3")

_DIAGONAL_CUT = 1e-12  # relative separation below which a = b is assumed


@dataclass(frozen=True)
class MeanRequest:
    kind: str
    a: float
    b: float
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in MEAN_KINDS:
            raise ValueError(f"kind must be one of {MEAN_KINDS}, got {self.kind!r}")
        for name, v in (("a", self.a), ("b", self.b)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {v}")
        if self.kind == "p_logarithmic":
            if self.p is None:
                raise ValueError("p_logarithmic requires p")
            if not math.isfinite(self.p):
                raise ValueError(f"p must be finite, got {self.p}")
            if self.p == -1.0:
                raise ValueError("p = -1 is the logarithmic mean; use kind='logarithmic'")
            if self.p == 0.0:
                raise ValueError("p = 0 is the identric mean; use kind='identric'")


def _near_diagonal(lo: float, hi: float) -> bool:
    return hi - lo < _DIAGONAL_CUT * lo


def _arithmetic(a: float, b: float) -> float:
    return (a + b) / 2.0


def _geometric(a: float, b: float) -> float:
    return math.sqrt(a * b)


def _harmonic(a: float, b: float) -> float:
    return 2.0 * a * b / (a + b)


def _logarithmic(a: float, b: float) -> float:
    return extended_p_logarithmic(a, b, -1.0)


def _identric(a: float, b: float) -> float:
    return extended_p_logarithmic(a, b, 0.0)


def extended_p_logarithmic(a: float, b: float, p: float) -> float:
    """The p-logarithmic mean including its limit members p = -1 and p = 0."""
    lo, hi = (a, b) if a <= b else (b, a)
    if _near_diagonal(lo, hi):
        return lo
    r = (hi - lo) / lo
    if p == -1.0:
        return lo * r / math.log1p(r)
    if p == 0.0:
        return lo * math.exp((1.0 + r) * math.log1p(r) / r - 1.0)
    core = math.expm1((p + 1.0) * math.log1p(r)) / ((p + 1.0) * r)
    return lo * core ** (1.0 / p)


_MEANS = {
    "arithmetic": _arithmetic,
    "geometric": _geometric,
    "harmonic": _harmonic,
    "logarithmic": _logarithmic,
    "identric": _identric,
}


def mean(req: MeanRequest) -> float:
    """Evaluate the requested mean; a = b returns the common value for every kind."""
    if req.kind == "p_logarithmic":
        return extended_p_logarithmic(req.a, req.b, req.p)
    return _MEANS[req.kind](req.a, req.b)


def mean_chain_margins(a: float, b: float) -> tuple[float, ...]:
    """The four slacks hi - lo of harmonic <= geometric <= logarithmic <=
    identric <= arithmetic at (a, b); all are nonnegative in exact arithmetic."""
    if not (0.0 < a <= b):
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    chain = (
        _harmonic(a, b),
        _geometric(a, b),
        _logarithmic(a, b),
        _identric(a, b),
        _arithmetic(a, b),
    )
    return tuple(hi - lo for lo, hi in zip(chain, chain[1:]))


def mean_chain_check(a: float, b: float, tol: float = 1e-12) -> bool:
    """True iff every slack of mean_chain_margins is >= -tol."""
    return all(margin >= -tol for margin in mean_chain_margins(a, b))


def proposition_check(
    prop_id: str,
    a: float,
    b: float,
    hp: HolderExponents,
    n: Optional[int] = None,
) -> BoundReport:
    """Numeric verdict for one of the three printed mean inequalities.

    P1 compares the arithmetic/logarithmic mean difference against a
    power-mean bound; P2 compares log(identric/geometric) against a harmonic
    power-mean bound; P3 compares the n-th power means difference against an
    |n|^q-weighted arithmetic power mean.  Each is evaluated exactly as
    printed; the report's verdict records whether the inequality held, which
    for P2 and P3 is a measurement, not a foregone conclusion.
    """
    if prop_id not in PROPOSITION_IDS:
        raise ValueError(f"prop_id must be one of {PROPOSITION_IDS}, got {prop_id!r}")
    if not (0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    p, q = hp.p, hp.q

    if prop_id == "P1":
        lhs = abs(_arithmetic(a, b) - _logarithmic(a, b))
        rhs = (
            (math.log(b) - math.log(a))
            / (2.0 * (p + 1.0) ** (1.0 / p))
            * _arithmetic(a**q, b**q) ** (1.0 / q)
        )
    elif prop_id == "P2":
        lhs = math.log(_identric(a, b) / _geometric(a, b))
        rhs = (b - a) / 2.0 * _harmonic(a**q, b**q) ** (-1.0 / q)
    else:
        if n is None or not float(n).is_integer() or abs(n) < 2:
            raise ValueError(f"P3 needs an integer n with |n| >= 2, got {n}")
        n = int(n)
        lhs = abs(_arithmetic(a**n, b**n) - extended_p_logarithmic(a, b, n) ** n)
        rhs = (
            abs(n) ** q
            * (b - a)
            / 3.0
            * _arithmetic(a ** (q * (n - 1)), b ** (q * (n - 1)))
        )

    margin = rhs - lhs
    return BoundReport(
        lhs_gap=lhs,
        rhs_bound=rhs,
        margin=margin,
        holds=margin >= -1e-12,
        hypothesis_certified=True,
    )
