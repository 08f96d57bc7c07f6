"""Command-line front end: certification, bounds, guaranteed integration, means,
and the full corpus verification suite, reported as json, csv, or text.

Every subcommand and every suite phase yields (kind, inputs, lhs, rhs, margin,
verdict) rows; one runner times them and turns them into ReportRecords, with
the same numeric content across formats.  Exit codes: 0 when every check passes, 1 when at
least one inequality is falsified, 2 on usage or input errors.  Verdicts in
the "finding" family (suspected-typo propositions, falsified sampling
hypotheses) do not fail the run; only "violated", "falsified", and
"exceeds_tol" do.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import convexity, corpus, hhbounds, kernels, means, quadrature
from .convexity import DEFAULT_GRID_N, ConvexityParams
from .expr import DomainError, FunctionSpec, Interval, ParseError, parse_function
from .hhbounds import THEOREM_IDS
from .kernels import HolderExponents
from .quadrature import NonConvergenceError, Partition

FORMATS = ("json", "csv", "text")
DEFAULT_TOL = 1e-6

ENV_TOL = "HHKIT_TOL"

# verdicts that flip the exit code to 1
_FAIL_VERDICTS = frozenset({"violated", "falsified", "exceeds_tol"})

# per-check tolerances used by the suite, independent of --tol
_SUITE_KERNEL_TOL = {1: 1e-8, 2: 1e-6}
_SUITE_MARGIN_TOL = 1e-9
_SUITE_LEMMA_TOL = {"single": 1e-8, "double": 1e-6}
_SUITE_MEAN_TOL = 1e-12
_SUITE_GUARANTEE_TOLS = (1e-2, 1e-4)
_SUITE_PARTITION_NS = (1, 2, 4, 8, 16, 64)
_SUITE_MEAN_PAIRS = 200
_SUITE_PROP_PAIRS = ((1.0, math.e), (2.0, 8.0), (0.5, 1.5))
_SUITE_P3_NS = (2, 3)


@dataclass(frozen=True)
class Command:
    """One resolved invocation: _resolve sets every field, defaults from _FLAGS."""

    subcommand: str
    function: Optional[str]
    interval: Optional[Interval]
    params: ConvexityParams
    p: float  # Holder exponent for T2/T3/T5/T6, the integrate bounds and P1-P3
    theorem: Optional[str]
    tol: float
    grid: int
    format: str
    seed: int
    n: int  # power-mean order used by the P3 check


@dataclass(frozen=True)
class ReportRecord:
    kind: str
    inputs: dict
    lhs: float
    rhs: float
    margin: float
    verdict: str
    elapsed_ms: float


def _records(rows) -> list[ReportRecord]:
    """One ReportRecord per (kind, inputs, lhs, rhs, margin, verdict) row.

    A row's elapsed_ms runs from the end of the previous row (the first from
    the call), so the rows' times add up to all the work that produced them.
    """
    records = []
    last = time.perf_counter()
    for kind, inputs, lhs, rhs, margin, verdict in rows:
        now = time.perf_counter()
        records.append(
            ReportRecord(
                kind, inputs, float(lhs), float(rhs), float(margin), verdict, (now - last) * 1e3
            )
        )
        last = now
    return records


# ---------------------------------------------------------------------------
# serialization


def _fmt_float(v: float) -> str:
    return f"{v:.17g}"


def _scalar(v, quote: bool) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    return json.dumps(str(v)) if quote else str(v)


def _to_json(records: list[ReportRecord]) -> str:
    rows = []
    for r in records:
        inputs = ", ".join(f"{json.dumps(k)}: {_scalar(v, True)}" for k, v in r.inputs.items())
        rows.append(
            f'  {{"kind": {json.dumps(r.kind)}, "inputs": {{{inputs}}}, '
            f'"lhs": {_fmt_float(r.lhs)}, "rhs": {_fmt_float(r.rhs)}, '
            f'"margin": {_fmt_float(r.margin)}, "verdict": {json.dumps(r.verdict)}, '
            f'"elapsed_ms": {_fmt_float(r.elapsed_ms)}}}'
        )
    return "[\n" + ",\n".join(rows) + "\n]"


def _to_csv(records: list[ReportRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "lhs", "rhs", "margin", "verdict", "inputs", "elapsed_ms"])
    for r in records:
        inputs = ";".join(f"{k}={_scalar(v, False)}" for k, v in r.inputs.items())
        numbers = [_fmt_float(v) for v in (r.lhs, r.rhs, r.margin)]
        writer.writerow([r.kind, *numbers, r.verdict, inputs, _fmt_float(r.elapsed_ms)])
    return buf.getvalue().rstrip("\n")


def _fixed(v: float) -> str:
    # fixed point, but not every integer digit of a large value
    return f"{v:.6f}" if abs(v) < 1e9 else f"{v:.6e}"


def _text_line(r: ReportRecord) -> str:
    ins = r.inputs
    if r.kind == "certify":
        line = (
            f"certify {r.verdict}, worst_margin={r.margin:.6g} "
            f"samples={ins['samples']}"
        )
        if "x" in ins:
            line += (
                f" counterexample x={ins['x']:.6g} y={ins['y']:.6g}"
                f" mu={ins['mu']:.6g} lhs={r.lhs:.6g} rhs={r.rhs:.6g}"
            )
        return line
    if r.kind == "bound":
        return f"{ins['theorem']} bound, rhs={_fixed(r.rhs)}"
    if r.kind == "integrate":
        return (
            f"integrate {r.verdict}, value={r.lhs:.12g} n={ins['n']}"
            f" bound={r.rhs:.6g} tol={ins['tol']:g}"
        )
    if r.kind == "mean":
        return f"{ins['kind']}({ins['a']:g}, {ins['b']:g}) = {r.lhs:.12g}"
    label = ins.get("theorem") or ins.get("proposition") or ins.get("identity") or r.kind
    lhs, rhs, margin = (_fixed(v) for v in (r.lhs, r.rhs, r.margin))
    return f"{label} {r.verdict}, lhs={lhs} rhs={rhs} margin={margin}"


def format_records(records: list[ReportRecord], fmt: str) -> str:
    if fmt == "json":
        return _to_json(records)
    if fmt == "csv":
        return _to_csv(records)
    return "\n".join(_text_line(r) for r in records)


# ---------------------------------------------------------------------------
# subcommands: each yields rows (kind, inputs, lhs, rhs, margin, verdict)


def _verdict(margin: float, tol: float = 0.0) -> str:
    return "holds" if margin >= -tol else "violated"


def _inputs(f: FunctionSpec, interval: Interval, params=None, **rest) -> dict:
    """A record's inputs: f and the interval, then s, alpha, m when params
    are given, then rest in order."""
    inputs = {"function": f.text, "a": interval.a, "b": interval.b}
    if params is not None:
        inputs.update(s=params.s, alpha=params.alpha, m=params.m)
    return {**inputs, **rest}


def _function_for(cmd: Command) -> FunctionSpec:
    if cmd.function is None:
        raise ValueError(f"{cmd.subcommand} requires --function")
    if cmd.interval is None:
        raise ValueError(f"{cmd.subcommand} requires --interval")
    a, b = cmd.interval.a, cmd.interval.b
    m = cmd.params.m
    # m < 1 evaluates f (or f') at y/m beyond the interval, and m = 0 at mu*x
    # down to 0; widen the domain to cover those points
    if m > 0.0:
        lo, hi = min(a, a / m), max(b, b / m)
    else:
        lo, hi = min(a, 0.0), max(b, 0.0)
    return parse_function(cmd.function, Interval(lo, hi))


def _theorems(cmd: Command):
    """(theorem_id, hp) for every theorem the command names."""
    if cmd.params.sense != "first":  # the bounds are stated for the first sense only
        raise ValueError(f"{cmd.subcommand} takes only --sense first, got {cmd.params.sense!r}")
    for tid in (cmd.theorem,) if cmd.theorem else THEOREM_IDS:
        for hp in hhbounds.holder_pairs(tid, (cmd.p,)):
            yield tid, hp


def _certify_row(f, interval, params, grid, tol=convexity.DEFAULT_TOLERANCE):
    rep = convexity.certify(f, interval, params, grid, tol)
    inputs = _inputs(
        f, interval, params, sense=params.sense, grid=grid, samples=rep.samples_checked
    )
    lhs = rhs = 0.0
    if rep.counterexample is not None:
        cex = rep.counterexample
        inputs.update({"x": cex.x, "y": cex.y, "mu": cex.mu})
        lhs, rhs = cex.lhs, cex.rhs
    return "certify", inputs, lhs, rhs, rep.worst_margin, rep.verdict


def _cmd_certify(cmd: Command):
    yield _certify_row(_function_for(cmd), cmd.interval, cmd.params, cmd.grid, cmd.tol)


def _cmd_bound(cmd: Command):
    f = _function_for(cmd)
    for tid, hp in _theorems(cmd):
        value = hhbounds.theorem_bound(tid, f, cmd.interval, cmd.params, hp)
        inputs = {"theorem": tid, **_inputs(f, cmd.interval, cmd.params)}
        if hp is not None:
            inputs["p"] = hp.p
        yield "bound", inputs, 0.0, value, value, "value"


def _verify_row(tid, f, interval, params, hp, tol, grid):
    rep = hhbounds.verify_theorem(tid, f, interval, params, hp, tol, grid)
    # p follows the certification flag, and q = p / (p - 1) is left out
    inputs = {"theorem": tid, **_inputs(f, interval, params, sense="first")}
    inputs["hypothesis_certified"] = rep.hypothesis_certified
    if hp is not None:
        inputs["p"] = hp.p
    if not rep.hypothesis_certified:
        verdict = "hypothesis_falsified"
    else:
        verdict = "holds" if rep.holds else "violated"
    return "verify", inputs, rep.lhs_gap, rep.rhs_bound, rep.margin, verdict


def _cmd_verify(cmd: Command):
    f = _function_for(cmd)
    for tid, hp in _theorems(cmd):
        yield _verify_row(tid, f, cmd.interval, cmd.params, hp, cmd.tol, cmd.grid)


def _cmd_integrate(cmd: Command):
    f = _function_for(cmd)
    res = quadrature.integrate_with_guarantee(
        f, cmd.interval, cmd.tol, cmd.params.s, cmd.p, allow_uncertified=True
    )
    bound = min(res.bound_p4, res.bound_p5)
    inputs = _inputs(f, cmd.interval, tol=cmd.tol, s=cmd.params.s, p=cmd.p, n=res.n)
    inputs.update(bound_p4=res.bound_p4, bound_p5=res.bound_p5)
    verdict = "within_tol" if res.hypothesis_certified else "hypothesis_falsified"
    yield "integrate", inputs, res.value, bound, cmd.tol - bound, verdict


def _cmd_means(cmd: Command):
    if cmd.interval is None:
        raise ValueError("means requires --interval a:b with 0 < a < b")
    a, b = cmd.interval.a, cmd.interval.b
    if not a > 0.0:
        raise ValueError(f"means requires positive endpoints, got a={a}")
    hp = HolderExponents(cmd.p)
    # endpoints far apart overflow the p-logarithmic mean; tiny ones underflow
    # the geometric mean to 0, which P2 divides by
    try:
        values = {}
        for kind in means.MEAN_KINDS:
            p = cmd.p if kind == "p_logarithmic" else None
            values[kind] = means.mean(means.MeanRequest(kind, a, b, p))
            inputs = {"kind": kind, "a": a, "b": b}
            if p is not None:
                inputs["p"] = p
            yield "mean", inputs, values[kind], values[kind], 0.0, "value"

        margin = min(means.mean_chain_margins(a, b))
        yield (
            "mean_chain",
            {"a": a, "b": b},
            values["harmonic"],
            values["arithmetic"],
            margin,
            _verdict(margin, _SUITE_MEAN_TOL),
        )

        for pid in means.PROPOSITION_IDS:
            yield _proposition_row(pid, a, b, hp, cmd.n if pid == "P3" else None)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"means at a={a}, b={b} leave the float64 range ({exc})") from None


def _proposition_row(pid, a, b, hp, n):
    rep = means.proposition_check(pid, a, b, hp, n)
    inputs = {"proposition": pid, "a": a, "b": b, "p": hp.p, "q": hp.q}
    if n is not None:
        inputs["n"] = n
    # P2/P3 are checked exactly as printed and are suspected misprints;
    # a failed check there is reported without failing the run
    if rep.holds:
        verdict = "holds"
    else:
        verdict = "violated" if pid == "P1" else "finding"
    return "proposition", inputs, rep.lhs_gap, rep.rhs_bound, rep.margin, verdict


# ---------------------------------------------------------------------------
# the corpus suite


def run_suite(grid_n: int = DEFAULT_GRID_N, seed: int = 0) -> list[ReportRecord]:
    """One ReportRecord per corpus check, in a fixed canonical order."""
    return _records(
        itertools.chain(
            _suite_kernel_identities(),
            _suite_convexity_and_classical(grid_n),
            _suite_theorems(grid_n),
            _suite_lemma_identities(),
            _suite_means(seed),
            _suite_propositions(),
            _suite_quadrature(),
        )
    )


def _suite_kernel_identities():
    for c in corpus.ALPHA_S_GRID:
        for p in corpus.HOLDER_PS:
            rep = kernels.verify_kernel_identities(c, p, max(_SUITE_KERNEL_TOL.values()))
            for ch in rep.checks:
                allowed = _SUITE_KERNEL_TOL[ch.dimension]
                inputs = {
                    "identity": ch.name,
                    "alpha_s": c,
                    "p": p,
                    "dimension": ch.dimension,
                    "tol": allowed,
                }
                margin = allowed - ch.residual
                yield "kernel_identity", inputs, ch.numeric, ch.closed_form, margin, _verdict(margin)


def _suite_convexity_and_classical(grid_n: int):
    classical = ConvexityParams(1.0, 1.0, 1.0, "first")
    for f in corpus.corpus_functions():
        for iv in corpus.INTERVALS:
            yield _certify_row(f, iv, classical, grid_n)
            midpoint, endpoint_avg, lower, upper = hhbounds.classical_hh_margins(f, iv)
            margin = min(lower, upper)
            verdict = _verdict(margin, _SUITE_MARGIN_TOL)
            yield "classical", _inputs(f, iv), midpoint, endpoint_avg, margin, verdict


def _suite_theorems(grid_n: int):
    theorem_pairs = [(tid, hhbounds.holder_pairs(tid, corpus.HOLDER_PS)) for tid in THEOREM_IDS]
    # (f, interval) outermost: hypothesis sweeps share |f'| blocks only with the last lattice swept
    for f in corpus.corpus_functions():
        for iv in corpus.INTERVALS:
            for prm in corpus.PARAM_TRIPLES:
                for tid, hps in theorem_pairs:
                    for hp in hps:
                        yield _verify_row(tid, f, iv, prm, hp, _SUITE_MARGIN_TOL, grid_n)


def _suite_lemma_identities():
    for f in corpus.corpus_functions():
        for iv in corpus.INTERVALS:
            res = hhbounds.lemma_identity_residuals(f, iv)
            for form, value, residual in (
                ("single", res.single_integral, res.single_residual),
                ("double", res.double_integral, res.double_residual),
            ):
                allowed = _SUITE_LEMMA_TOL[form]
                inputs = _inputs(f, iv, form=form, tol=allowed)
                margin = allowed - residual
                yield "lemma_identity", inputs, value, res.signed_gap, margin, _verdict(margin)


def _random_pairs(rng: random.Random, count: int) -> list[tuple[float, float]]:
    pairs = []
    while len(pairs) < count:
        a, b = rng.uniform(1e-6, 100.0), rng.uniform(1e-6, 100.0)
        if a == b:
            continue
        pairs.append((min(a, b), max(a, b)))
    return pairs


def _suite_means(seed: int):
    pairs = _random_pairs(random.Random(seed), _SUITE_MEAN_PAIRS)

    worst = min(min(means.mean_chain_margins(a, b)) for a, b in pairs)
    inputs = {"pairs": _SUITE_MEAN_PAIRS, "seed": seed}
    yield "mean_chain", inputs, 0.0, 0.0, worst, _verdict(worst, _SUITE_MEAN_TOL)

    p_grid = (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
    worst = math.inf
    for a, b in pairs[:25]:
        vals = [means.extended_p_logarithmic(a, b, p) for p in p_grid]
        worst = min(worst, min(hi - lo for lo, hi in zip(vals, vals[1:])))
    inputs = {"pairs": 25, "seed": seed}
    yield "mean_monotone", inputs, 0.0, 0.0, worst, _verdict(worst, _SUITE_MEAN_TOL)

    # only p = 1 has a reference independent of extended_p_logarithmic: the
    # identric (p = 0) and logarithmic (p = -1) means are computed by its own calls
    worst_dev = 0.0
    for a, b in pairs[:25]:
        worst_dev = max(worst_dev, abs(means.extended_p_logarithmic(a, b, 1.0) - (a + b) / 2.0))
    margin = _SUITE_MEAN_TOL - worst_dev
    yield "mean_branch", {"pairs": 25, "seed": seed}, 0.0, 0.0, margin, _verdict(margin)


def _suite_propositions():
    for pid in means.PROPOSITION_IDS:
        for a, b in _SUITE_PROP_PAIRS:
            for p in corpus.HOLDER_PS:
                for n in _SUITE_P3_NS if pid == "P3" else (None,):
                    yield _proposition_row(pid, a, b, HolderExponents(p), n)


def _suite_quadrature():
    for f in corpus.corpus_functions():
        for iv in corpus.INTERVALS:
            ref = quadrature.oracle_integral(f, iv)
            for n in _SUITE_PARTITION_NS:
                part = Partition.uniform(iv, n)
                actual = abs(ref - quadrature.trapezoid_sum(f, part))
                for variant in quadrature.BOUND_VARIANTS:
                    bound = quadrature.trapezoid_error_bound(variant, f, part, 1.0, 2.0)
                    margin = bound - actual
                    inputs = _inputs(f, iv, n=n, variant=variant)
                    yield (
                        "quadrature_bound",
                        inputs,
                        actual,
                        bound,
                        margin,
                        _verdict(margin, _SUITE_MARGIN_TOL),
                    )

            for tol in _SUITE_GUARANTEE_TOLS:
                res = quadrature.integrate_with_guarantee(f, iv, tol)
                err = abs(res.value - quadrature.reference_integrate(f, iv, tol / 100.0))
                inputs = _inputs(f, iv, tol=tol, n=res.n, value=res.value)
                verdict = "within_tol" if err <= tol else "exceeds_tol"
                yield "quadrature_guarantee", inputs, err, tol, tol - err, verdict


_DISPATCH = {
    "certify": _cmd_certify,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "integrate": _cmd_integrate,
    "means": _cmd_means,
}

SUBCOMMANDS = (*_DISPATCH, "suite")


def dispatch(cmd: Command) -> tuple[int, list[ReportRecord]]:
    if cmd.subcommand == "suite":
        records = run_suite(cmd.grid, cmd.seed)
    else:
        records = _records(_DISPATCH[cmd.subcommand](cmd))
    code = 1 if any(r.verdict in _FAIL_VERDICTS for r in records) else 0
    return code, records


# ---------------------------------------------------------------------------
# argument handling

# name -> (type, choices, default, help).  Every flag takes one value, and
# every flag but --config may instead come from the --config JSON object.
_FLAGS = {
    "function": (str, None, None, "expression in x"),
    "interval": (str, None, None, "endpoints as a:b"),
    "s": (float, None, 1.0, "convexity exponent s in (0,1]"),
    "alpha": (float, None, 1.0, "convexity exponent alpha in [0,1]"),
    "m": (float, None, 1.0, "convexity scale m in [0,1]"),
    "sense": (str, convexity.SENSES, "first", None),
    "p": (float, None, 2.0, "Holder exponent p > 1"),
    "theorem": (str, THEOREM_IDS, None, None),
    "tol": (float, None, DEFAULT_TOL, f"tolerance (default {DEFAULT_TOL:g})"),
    "grid": (int, None, DEFAULT_GRID_N, f"lattice size (default {DEFAULT_GRID_N})"),
    "format": (str, FORMATS, "text", None),
    "seed": (int, None, 0, "suite only: seed of the mean rows' random pairs"),
    "n": (int, None, 2, "power-mean order for the P3 check"),
    "config": (str, None, None, "JSON file with the same keys as the flags"),
}

_VALUE_FLAGS = frozenset(f"--{name}" for name in _FLAGS)

_CONFIG_KEYS = frozenset(_FLAGS) - {"config"}

_UNREAD_FLAGS = {"certify": ("p", "theorem", "seed", "n")}  # refused from either source, not ignored


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join value flags with their argument so values like "-(x^2)" or "-1:1"
    are not mistaken for option strings by argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name, (typ, choices, _, help_text) in _FLAGS.items():
        common.add_argument(f"--{name}", type=typ, choices=choices, help=help_text)

    parser = argparse.ArgumentParser(
        prog="hhkit",
        description="Certify convexity classes and verify trapezoid-gap bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _parse_interval(text: str) -> Interval:
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ValueError(f"interval must be a:b, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"interval must be a:b with numeric endpoints, got {text!r}")
    return Interval(a, b)


def _resolve(args: argparse.Namespace) -> Command:
    """Each value comes from its flag, else the config file, else (tol only)
    the HHKIT_TOL environment variable, else the table default."""
    config = _load_config(args.config)
    values = {}
    for name, (typ, choices, default, _) in _FLAGS.items():
        v = getattr(args, name)
        if v is None:
            v = config.get(name)
        if v is None and name == "tol":
            v = os.environ.get(ENV_TOL) or None
        if v is None:
            v = default
        if v is not None:
            try:  # every source is converted from text, as argparse converts a flag
                v = typ(str(v))
            except ValueError:
                raise ValueError(f"invalid {typ.__name__} value for {name}: {v!r}") from None
            if choices is not None and v not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {v!r}")
        values[name] = v
    if not (math.isfinite(values["tol"]) and values["tol"] >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {values['tol']}")
    for name in _UNREAD_FLAGS.get(args.subcommand, ()):
        if getattr(args, name) is not None or config.get(name) is not None:
            raise ValueError(f"{args.subcommand} does not take --{name}")

    del values["config"]
    interval = values.pop("interval")
    params = ConvexityParams(*(values.pop(k) for k in ("s", "alpha", "m", "sense")))
    return Command(
        args.subcommand,
        interval=None if interval is None else _parse_interval(interval),
        params=params,
        **values,
    )


def main(argv: Optional[list[str]] = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalize_argv(raw))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cmd = _resolve(args)
        code, records = dispatch(cmd)
    except (ParseError, DomainError, NonConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(format_records(records, cmd.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
