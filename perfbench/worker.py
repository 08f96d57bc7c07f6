"""Run one workload in this (fresh) process and report to a file descriptor.

    python3 perfbench/worker.py --workload verify --seed 1 --seconds 15 \
        --trace 0 --result-fd 3 [--count N]

`suite` runs ``hhkit.cli.main(["suite", "--format", "json"])``, whose output
goes to stdout as usual.  The request streams (`integrate`, `verify`,
`certify`) run a closed loop with one client in whole blocks of requests
(``workloads`` sets the block size) after a few untimed warm-up requests,
starting a block only if it should end within --seconds, or for exactly
--count requests when given (the traced replay of an untraced run); then
they check every output outside the timed loop.  With --trace 1 the public
functions are wrapped by ``spans.Tracer`` for the timed part only.  The
result is one JSON object written to --result-fd.

Host speed.  On a shared virtual machine the same requests ran up to 1.7x
slower for minutes at a time, with the process never descheduled (its CPU
time equalled its wall time), so neither CPU time nor a longer run removes
the drift.  The worker therefore measures the host's slowdown (``slowdown``,
a memory-bound numpy kernel's time over its nominal time) before the timed
part and then after every request that ends at least CALIBRATE_EVERY_S after
the previous measurement, outside every request's timer, and also reports
each request's time divided by the mean slowdown measured around it.  Over
90 s of repeated certify requests this cut the spread of 10-segment medians
from 1.36x to 1.04x (verify: 1.42x to 1.11x).  Averaging in an
interpreter-bound scalar kernel halved the spread on verify but more than
doubled that of integrate's latencies, so the kernel is numpy only.  Timing
the kernel in a helper or forked process, to keep its arrays out of the
worker's peak RSS, tracked integrate's drift worse (latency spreads
0.17-0.24 against 0.05-0.08), so it runs in the worker, and peak_rss_mb
includes its ~24 MB of temporaries above the worker's resting memory: that
sets the peak on verify, whose own requests peak near 40 MB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time

import numpy as np

import spans
import workloads

# the kernel's time on the 2-vCPU Xeon virtual machine the benchmark was
# written on, where the slowdown reads 1
NOMINAL_KERNEL_S = 0.016
CALIBRATE_EVERY_S = 0.5
SUITE_CALIBRATIONS = 5


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slowdown() -> float:
    """Best of two passes of a fixed numpy kernel (8 MB arrays, freshly
    allocated) over NOMINAL_KERNEL_S."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        x = np.linspace(0.0, 3.0, 1_000_000)
        float((1.5 * np.exp(0.7 * x) + 0.3 * x**3.0).sum())
        best = min(best, time.perf_counter() - t0)
    return best / NOMINAL_KERNEL_S


def run_suite(trace: bool) -> dict:
    from hhkit import cli

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    # one suite is a single 7-9 s call, so it is calibrated only before and after
    slow_before = statistics.median(slowdown() for _ in range(SUITE_CALIBRATIONS))
    t0 = time.perf_counter()
    rc = cli.main(["suite", "--format", "json"])
    main_s = time.perf_counter() - t0
    slow_after = statistics.median(slowdown() for _ in range(SUITE_CALIBRATIONS))
    if tracer:
        tracer.uninstall()
    result = {
        "rc": rc,
        "main_s": main_s,
        "scaled_main_s": main_s * 2.0 / (slow_before + slow_after),
        "maxrss_mb": _maxrss_mb(),
    }
    if tracer:
        result["layers"], result["self_s"] = tracer.layer_metrics(main_s, 0.0)
    return result


def run_stream(workload: str, seed: int, seconds: float, count: int | None, trace: bool) -> dict:
    import hhkit
    from hhkit import quadrature

    stream = workloads.make_stream(workload, seed, quadrature.N_CAP)
    for req in workloads.warmup_requests(workload, seed, quadrature.N_CAP):
        try:  # warm-up outcomes are neither timed nor checked
            workloads.execute(req, hhkit)
        except hhkit.NonConvergenceError:  # the over-cap warm-up request
            pass
    tracer = spans.Tracer() if trace else None
    reqs, outs, errs, lat = [], [], [], []
    slow = [slowdown()]  # measurement i closes segment i - 1 and opens segment i
    segment = []  # per request, the segment it ran in
    if tracer:
        tracer.install()
    start = last_cal = time.perf_counter()
    blocks = 0
    while True:
        for _ in range(stream.block):
            req = stream.next()
            t0 = time.perf_counter()
            out = err = None
            try:
                out = workloads.execute(req, hhkit)
            except Exception as exc:  # the request boundary: record and keep serving
                err = exc
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            segment.append(len(slow) - 1)
            reqs.append(req)
            outs.append(out)
            errs.append(err)
            if t1 - last_cal >= CALIBRATE_EVERY_S:
                slow.append(slowdown())
                last_cal = time.perf_counter()
        blocks += 1
        elapsed = time.perf_counter() - start
        if count is not None:
            if len(reqs) >= count:
                break
        elif elapsed * (blocks + 1) / blocks > seconds:
            break  # the next block would not end within the run
    total = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if segment[-1] == len(slow) - 1:
        slow.append(slowdown())
    maxrss = _maxrss_mb()
    scale = [2.0 / (s0 + s1) for s0, s1 in zip(slow, slow[1:])]

    checked = [workloads.check(r, o, e, hhkit) for r, o, e in zip(reqs, outs, errs)]
    problems = [
        f"{workloads.text_of(r.terms)} on [{r.a}, {r.b}]: {p}"
        for r, found in zip(reqs, checked)
        for p in found
    ]
    predicted = sum(getattr(r, "over_cap", False) for r in reqs)
    result = {
        "attempted": len(reqs),
        "raised": sum(e is not None for e in errs),
        "predicted_refusals": predicted,
        "wrong": sum(1 for found in checked if found),
        "problems": problems[:5],
        "latencies_s": lat,
        "scaled_latencies_s": [t * scale[k] for t, k in zip(lat, segment)],
        "slowdowns": slow,
        "maxrss_mb": maxrss,
        "props": workloads.properties(workload, stream, reqs),
    }
    if tracer:
        result["layers"], result["self_s"] = tracer.layer_metrics(total, total - sum(lat))
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--count", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result-fd", type=int, required=True)
    args = ap.parse_args()
    if args.workload == "suite":
        result = run_suite(bool(args.trace))
    else:
        result = run_stream(args.workload, args.seed, args.seconds, args.count, bool(args.trace))
    with os.fdopen(args.result_fd, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
