"""Seeded request generators, closed-form oracles and output checks.

Every generated function is a sum of terms c*x^k and c*exp(l*x), so its
value, derivative and antiderivative have closed forms that this module
evaluates itself.  The checks compare hhkit's outputs against those closed
forms, never against hhkit's own quadrature or lattice code (the integrate
minimality check is the exception the bound's definition requires: it asks
``trapezoid_error_bound`` for B(n) and B(n-1)).

Request streams are closed-loop: the worker asks a generator for the next
request only after the previous reply.  Each generator is deterministic in
(workload, seed) and never looks at hhkit's replies.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

# trapezoid bound constant min(P4, P5) at s = 1, p = 2: P4 = 2^-1/2 * (3/12)^1/2,
# P5 = (2/3)^1/2 * (8/24)^1/2, so C = 1 / (2 * sqrt(2))
BOUND_C = min(math.sqrt(0.5) * math.sqrt(3.0 / 12.0), math.sqrt(2.0 / 3.0) * math.sqrt(1.0 / 3.0))

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
INTEGRATE_CYCLE = 50  # 49 n-targets stratified over 1e2..1e6, plus one past the panel cap


# ---------------------------------------------------------------------------
# generated functions: terms ("x", c, k) for c*x^k and ("e", c, l) for c*exp(l*x)


def term_text(t) -> str:
    kind, c, k = t
    return f"{c!r}*x^{k}" if kind == "x" else f"{c!r}*exp({k!r}*x)"


def text_of(terms) -> str:
    return " + ".join(term_text(t) for t in terms)


def f_value(terms, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for kind, c, k in terms:
        out = out + (c * x**k if kind == "x" else c * np.exp(k * x))
    return out


def f_antiderivative(terms, x: float) -> float:
    return math.fsum(
        c * x ** (k + 1) / (k + 1) if kind == "x" else c / k * math.exp(k * x)
        for kind, c, k in terms
    )


def f_scalar(terms, x: float) -> float:
    return math.fsum(c * x**k if kind == "x" else c * math.exp(k * x) for kind, c, k in terms)


def exact_integral(terms, a: float, b: float) -> float:
    return f_antiderivative(terms, b) - f_antiderivative(terms, a)


def cli_domain(a: float, b: float, m: float) -> tuple[float, float]:
    """The domain `hhkit` gives f: widened to b/m when m < 1 (see cli._function_for)."""
    if m > 0.0:
        return min(a, a / m), max(b, b / m)
    return a, b


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _interval(rng: random.Random, min_width: float) -> tuple[float, float]:
    a = round(rng.uniform(0.0, 3.0 - min_width), 3)
    b = round(rng.uniform(a + min_width, 3.0), 3)
    return a, b


# ---------------------------------------------------------------------------
# request types


@dataclass(frozen=True)
class IntegrateRequest:
    terms: tuple
    a: float
    b: float
    tol: float
    n_lower: float  # C * w * integral|f'| / tol, a lower bound on the minimal n
    over_cap: bool


@dataclass(frozen=True)
class VerifyRequest:
    terms: tuple
    a: float
    b: float
    theorem: str
    p: float | None
    s: float
    alpha: float
    m: float


@dataclass(frozen=True)
class CertifyRequest:
    terms: tuple
    a: float
    b: float
    s: float
    alpha: float
    m: float
    sense: str
    grid: int


class _Stream:
    # requests per block; the worker starts a block only if it should end in time,
    # so every run holds whole blocks and the same cost mix
    block = 1
    # untimed requests, from a stream of their own, run before timing starts
    warmup = 2

    def __init__(self, name: str, seed):
        self.rng = random.Random(f"{name}:{seed}")
        self.i = 0
        self.seen = set()
        self.repeats = 0

    def next(self):
        req = self._make(self.i)
        key = (text_of(req.terms), req.a, req.b)
        if key in self.seen:
            self.repeats += 1
        self.seen.add(key)
        self.i += 1
        return req


class IntegrateStream(_Stream):
    """Cycles of 50 requests: one n-target 4-8x past the panel cap, then 49 at
    the stratum midpoints of a log-uniform draw over 1e2..1e6 in golden-ratio
    order.  The power k of each x^k term is fixed by its stratum, so every
    cycle has the same cost profile and allocation history; the seed draws
    the coefficients, exp rates and intervals, hence the tols."""

    block = INTEGRATE_CYCLE
    warmup = 1  # the over-cap request: it touches every array size up to the cap

    def __init__(self, seed, n_cap: int):
        super().__init__("integrate", seed)
        self.n_cap = n_cap
        self.targets = []

    def _make(self, i):
        rng = self.rng
        if not self.targets:
            rungs = INTEGRATE_CYCLE - 1
            order = sorted(range(rungs), key=lambda j: (j * GOLDEN) % 1.0)
            self.targets = [(10.0 ** (2.0 + 4.0 * (j + 0.5) / rungs), 1 + j % 5) for j in order]
            self.targets.insert(0, (self.n_cap * rng.uniform(4.0, 8.0), 3))
        target, k = self.targets.pop(0)
        terms = (("x", _coef(rng, 0.2, 2.0), k),
                 ("e", _coef(rng, 0.2, 2.0), rng.choice((0.5, 1.0, 1.5, 2.0))))
        a, b = _interval(rng, 0.5)
        # f' > 0 on [0, 3], so integral|f'| = f(b) - f(a)
        variation = f_scalar(terms, b) - f_scalar(terms, a)
        scale = BOUND_C * (b - a) * variation
        tol = scale / target
        n_lower = scale / tol
        return IntegrateRequest(terms, a, b, tol, n_lower, n_lower > self.n_cap)


_VERIFY_COMBOS = [
    (tid, p, s, alpha, m)
    for tid in ("T1", "T2", "T3", "T4", "T5", "T6")
    for p in ((None,) if tid in ("T1", "T4") else (1.5, 2.0, 3.0))
    for s in (0.5, 0.75, 1.0)
    for alpha in (0.5, 0.75, 1.0)
    for m in (0.5, 0.75, 1.0)
]


class VerifyStream(_Stream):
    """Cycles through every (theorem, p, s, alpha, m) combination in a seeded
    order, each on a fresh (f, interval).  One block is one whole cycle, so
    every run has the same theorem and parameter mix."""

    block = len(_VERIFY_COMBOS)

    def __init__(self, seed):
        super().__init__("verify", seed)
        self.order = []

    def _make(self, i):
        rng = self.rng
        if not self.order:
            self.order = list(_VERIFY_COMBOS)
            rng.shuffle(self.order)
        tid, p, s, alpha, m = self.order.pop()
        while True:
            terms = (("x", _coef(rng, 0.5, 2.0), rng.randint(2, 4)),
                     ("e", _coef(rng, 0.5, 2.0), rng.choice((0.5, 1.0, 1.5))))
            a, b = _interval(rng, 1.0)
            if (text_of(terms), a, b) not in self.seen:  # no reuse of hh_gap's cache
                return VerifyRequest(terms, a, b, tid, p, s, alpha, m)


_CERTIFY_MS = (0.0, 0.5, 0.75, 1.0)


class CertifyStream(_Stream):
    """Alternates grid 50 / 100 and cycles m and sense, so every prefix has the
    same cost mix; coefficient signs are random, so both verdicts occur."""

    block = 16
    warmup = 16

    def __init__(self, seed):
        super().__init__("certify", seed)
        self.ms = list(_CERTIFY_MS)
        self.rng.shuffle(self.ms)

    def _make(self, i):
        rng = self.rng
        grid = (50, 100)[i % 2]
        m = self.ms[(i // 2) % 4]
        sense = ("first", "second")[(i // 8) % 2]
        terms = (("x", rng.choice((-1, 1)) * _coef(rng, 0.5, 2.0), rng.randint(2, 4)),
                 ("e", rng.choice((-1, 1)) * _coef(rng, 0.5, 2.0), rng.choice((-1.0, 0.5, 1.0, 1.5))))
        a, b = _interval(rng, 0.5)
        if m == 0.0:
            a = 0.0  # the m = 0 lattice evaluates f(mu*x) down to 0, inside [a, b] only if a = 0
        return CertifyRequest(
            terms, a, b, rng.choice((0.5, 0.75, 1.0)), rng.choice((0.5, 0.75, 1.0)), m, sense, grid
        )


def make_stream(workload: str, seed, n_cap: int):
    if workload == "integrate":
        return IntegrateStream(seed, n_cap)
    if workload == "verify":
        return VerifyStream(seed)
    if workload == "certify":
        return CertifyStream(seed)
    raise ValueError(f"no request stream for workload {workload!r}")


def warmup_requests(workload: str, seed: int, n_cap: int) -> list:
    stream = make_stream(workload, f"{seed}:warmup", n_cap)
    return [stream.next() for _ in range(stream.warmup)]


# ---------------------------------------------------------------------------
# executing a request through hhkit's public API, as the CLI subcommand would


def execute(req, hh):
    """Run one request; hh is the imported hhkit package."""
    if isinstance(req, IntegrateRequest):
        iv = hh.Interval(req.a, req.b)
        f = hh.parse_function(text_of(req.terms), iv)
        return hh.integrate_with_guarantee(f, iv, req.tol)
    if isinstance(req, VerifyRequest):
        iv = hh.Interval(req.a, req.b)
        f = hh.parse_function(text_of(req.terms), hh.Interval(*cli_domain(req.a, req.b, req.m)))
        hp = None if req.p is None else hh.HolderExponents(req.p)
        params = hh.ConvexityParams(req.s, req.alpha, req.m, "first")
        return hh.verify_theorem(req.theorem, f, iv, params, hp)
    iv = hh.Interval(req.a, req.b)
    f = hh.parse_function(text_of(req.terms), hh.Interval(*cli_domain(req.a, req.b, req.m)))
    return hh.certify(f, iv, hh.ConvexityParams(req.s, req.alpha, req.m, req.sense), req.grid)


# ---------------------------------------------------------------------------
# checks: each returns a list of problems (empty when the output is right)


def check(req, out, err, hh) -> list[str]:
    if isinstance(req, IntegrateRequest):
        return _check_integrate(req, out, err, hh)
    if err is not None:
        return [f"raised {err}"]
    if isinstance(req, VerifyRequest):
        return _check_verify(req, out)
    return _check_certify(req, out)


def _bound(hh, f, iv, n: int) -> float:
    part = hh.Partition.uniform(iv, n)
    return min(hh.trapezoid_error_bound(v, f, part) for v in ("P4", "P5"))


def _check_integrate(req, out, err, hh):
    if req.over_cap:
        if isinstance(err, hh.NonConvergenceError):
            return []
        return [f"predicted over-cap (n >= {req.n_lower:.4g}) but got {err or out}"]
    if err is not None:
        return [f"raised {err}"]
    problems = []
    exact = exact_integral(req.terms, req.a, req.b)
    if not abs(out.value - exact) <= req.tol:
        problems.append(f"value {out.value!r} vs exact {exact!r} exceeds tol {req.tol!r}")
    n = out.n
    if not req.n_lower * (1.0 - 1e-9) <= n <= math.ceil(1.01 * req.n_lower) + 1:
        problems.append(f"n = {n} outside the closed-form bracket from {req.n_lower:.6g}")
    iv = hh.Interval(req.a, req.b)
    f = hh.parse_function(text_of(req.terms), iv)
    if not _bound(hh, f, iv, n) <= req.tol:
        problems.append(f"B(n) > tol at n = {n}")
    if n > 1 and not _bound(hh, f, iv, n - 1) > req.tol:
        problems.append(f"n = {n} is not minimal: B(n-1) <= tol")
    return problems


def _check_verify(req, out):
    w = req.b - req.a
    avg = exact_integral(req.terms, req.a, req.b) / w
    gap = abs((f_scalar(req.terms, req.a) + f_scalar(req.terms, req.b)) / 2.0 - avg)
    problems = []
    if not abs(out.lhs_gap - gap) <= 1e-9 * gap:
        problems.append(f"gap {out.lhs_gap!r} vs closed form {gap!r}")
    if out.margin != out.rhs_bound - out.lhs_gap or out.holds != (out.margin >= -1e-9):
        problems.append("margin or holds inconsistent with gap and bound")
    return problems


def _certify_margin(req, x, y, mu):
    """(lhs, rhs) of the class inequality, evaluated from the closed form."""
    lhs = f_value(req.terms, mu * x + (1.0 - mu) * y)
    first = mu ** (req.alpha * req.s)
    rhs = first * f_value(req.terms, x)
    if req.m > 0.0:
        if req.sense == "first":
            second = req.m * (1.0 - first)
        else:
            second = req.m * (1.0 - mu**req.alpha) ** req.s
        rhs = rhs + second * f_value(req.terms, y / req.m)
    return lhs, rhs


def _check_certify(req, out):
    g = req.grid
    problems = []
    expected = g**3 if req.m > 0.0 else g**2
    if out.samples_checked != expected:
        problems.append(f"samples_checked {out.samples_checked} != {expected}")
    if out.falsified != (out.worst_margin < -1e-9):
        problems.append("verdict inconsistent with worst_margin")
    pts = np.linspace(req.a, req.b, g)
    mus = np.linspace(0.0, 1.0, g)
    cex = out.counterexample
    if out.falsified:
        if cex is None:
            return problems + ["falsified without a counterexample"]
        lhs, rhs = _certify_margin(req, cex.x, cex.y, cex.mu)
        scale = 1.0 + abs(lhs) + abs(rhs)
        on_lattice = (
            cex.x in pts and cex.mu in mus and (cex.y in pts if req.m > 0.0 else cex.y == 0.0)
        )
        if not on_lattice:
            problems.append("counterexample is not a lattice point")
        if abs(lhs - cex.lhs) > 1e-9 * scale or abs(rhs - cex.rhs) > 1e-9 * scale:
            problems.append(f"counterexample lhs/rhs {cex.lhs!r}/{cex.rhs!r} vs {lhs!r}/{rhs!r}")
        if not rhs - lhs < 0.0:
            problems.append("counterexample does not violate the inequality")
    elif cex is not None:
        problems.append("not_falsified with a counterexample")
    # a random sample of lattice points must not beat the reported worst margin
    rng = np.random.default_rng([g, round(req.a * 1000), round(req.b * 1000)])
    i, j, k = (rng.integers(0, g, 256) for _ in range(3))
    ys = pts[j] if req.m > 0.0 else np.zeros(256)
    lhs, rhs = _certify_margin(req, pts[i], ys, mus[k])
    slack = 1e-10 * (1.0 + np.abs(lhs) + np.abs(rhs))
    if np.any(rhs - lhs < out.worst_margin - slack):
        problems.append("a lattice point has a smaller margin than worst_margin")
    return problems


# ---------------------------------------------------------------------------
# workload properties


def lattice_points(req) -> int:
    if isinstance(req, IntegrateRequest):
        return 30**3  # integrate_with_guarantee's hypothesis sweep
    if isinstance(req, VerifyRequest):
        return 50**3
    return req.grid**3 if req.m > 0.0 else req.grid**2


def properties(workload: str, stream: _Stream, reqs) -> dict:
    n = len(reqs)
    props = {
        "requests": n,
        "seen_share": stream.repeats / n if n else 0.0,
        "lattice_sizes": dict(sorted(Counter(lattice_points(r) for r in reqs).items())),
    }
    if workload == "integrate":
        ns = sorted(r.n_lower for r in reqs if not r.over_cap)
        if ns:
            props["n_quantiles"] = {
                q: round(ns[min(len(ns) - 1, int(q * len(ns)))]) for q in (0.1, 0.5, 0.9)
            }
        props["predicted_over_cap_share"] = sum(r.over_cap for r in reqs) / n if n else 0.0
    if workload == "verify":
        props["theorem_mix"] = dict(sorted(Counter(r.theorem for r in reqs).items()))
        props["m_mix"] = dict(sorted(Counter(r.m for r in reqs).items()))
    if workload == "certify":
        props["sense_mix"] = dict(sorted(Counter(r.sense for r in reqs).items()))
        props["m_mix"] = dict(sorted(Counter(r.m for r in reqs).items()))
        props["grid_mix"] = dict(sorted(Counter(r.grid for r in reqs).items()))
    return props
