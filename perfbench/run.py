"""hhkit benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload {suite,integrate,verify,certify} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports hhkit from ``src/``.  Each run
first times ``import hhkit`` in fresh interpreters (``setup_s``), then runs
the workload in its own process with BLAS/OpenMP thread counts set to 1 (see
``worker.py``):

* suite: cold ``hhkit suite --format json`` runs, back to back while the
  next one should end within S seconds (at least one).  Each suite is one
  request of 1809 records.
* integrate, verify, certify: a closed loop with one client over requests
  generated from the seed (``workloads.py``), in whole blocks, for about S
  seconds.

Host speed.  On the shared 2-vCPU virtual machine this was written on, the
same work ran up to 1.7x slower for minutes at a time, invisibly to the
process (CPU time equalled wall time).  So every time in the result line is
scaled by a reference measured beside it: request and suite times by the
host slowdown measured between requests (``worker.calibrate``), and
``setup_s`` by a ``python3 -c "import numpy"`` probe after each
``import hhkit`` probe.  The unscaled figures are printed on the
``# unscaled`` line.

End-to-end metrics (--trace 0): ``setup_s`` (median over SETUP_PAIRS probe
pairs); ``throughput_rps`` (requests, or suite records, per scaled second;
for the suite, the time of ``cli.main`` without interpreter start and import,
which ``setup_s`` covers); ``latency_p50_ms`` and ``latency_tail_ms`` (median
and TAIL_PERCENTILE of scaled request times; the percentile and the samples
beyond it are on the ``# outcome`` line); ``peak_rss_mb`` (the worker's
ru_maxrss).  The request metrics are meant for the three streams.  On the
suite a request is a whole suite, so both latency figures read the median
suite time and carry the same information as throughput_rps: per-record
``elapsed_ms`` quantiles are Python-bound microsecond timings that spread
0.19-0.23 (IQR over median) between runs even when scaled, and a run holds
too few suites for a tail.

Every output is checked against closed forms (``workloads.py``) or, for the
suite, against this tree's record count and verdict table, outside every
timer and span.

With --trace 1 the run repeats the same work with hhkit's public functions
wrapped by ``spans.Tracer`` and prints per-layer counts and self times;
``trace.overhead_share`` is traced over untraced scaled time, minus 1.

Lines starting with ``#`` describe the run; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

WHY = {
    "suite": "the acceptance gauntlet users run; the only workload that runs kernels, means "
    "and the formatter",
    "integrate": "guaranteed-integrator requests with n log-uniform over 1e2..1e6 and 2% past "
    "the cap; the guarantee layer does nearly all the work",
    "verify": "one-off theorem checks on fresh (f, interval) pairs; the reference integrator and "
    "the hypothesis lattice share the work, the guarantee layer is idle",
    "certify": "lattice certification in both senses, m in {0, 1/2, 3/4, 1}, grids 50 and 100 "
    "on either side of L2; the only user of the second sense and the m = 0 collapse",
}
WORKLOADS = tuple(WHY)
DEADLINE_S = 170.0
SETUP_PAIRS = 11
# `python3 -c "import numpy"` on the 2-vCPU Xeon virtual machine the benchmark
# was written on; setup_s reads as if on that machine
REFERENCE_IMPORT_NOMINAL_S = 0.18
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# `hhkit suite` at this tree: 1809 records with these (kind, verdict) counts
SUITE_RECORDS = 1809
SUITE_VERDICTS = {
    ("certify", "not_falsified"): 15,
    ("classical", "holds"): 15,
    ("kernel_identity", "holds"): 660,
    ("lemma_identity", "holds"): 30,
    ("mean_branch", "holds"): 1,
    ("mean_chain", "holds"): 1,
    ("mean_monotone", "holds"): 1,
    ("proposition", "holds"): 36,
    ("quadrature_bound", "holds"): 180,
    ("quadrature_guarantee", "within_tol"): 30,
    ("verify", "holds"): 194,
    ("verify", "hypothesis_falsified"): 646,
}
SUITE_FAIL_VERDICTS = frozenset({"violated", "falsified", "exceeds_tol"})
# SHA-256 of the suite JSON with elapsed_ms masked, at the tree that added this benchmark
SUITE_REFERENCE_DIGEST = "4498808a48f4513572fa2a13ae05fc5bff7a2a9adf19053070e6fbc59640611a"

# latency_tail_ms percentile per workload: the highest with at least 10 samples
# beyond it in the fewest samples a 20 s run makes (one 50-request integrate
# cycle, one 378-request verify cycle, ~1300 certify requests), fixed so that it does
# not move with the sample count.  A run holds one or two suites, too few for
# any tail, so the suite reports its median there.
TAIL_PERCENTILE = {"suite": 50.0, "integrate": 80.0, "verify": 95.0, "certify": 99.0}

# layer counters that must read 0: the layer has no work on that workload
STRUCTURAL_ZEROS = {
    "integrate": ("quadrature.reference_calls",),
    "verify": ("quadrature.guarantee_calls",),
    "certify": ("quadrature.guarantee_calls", "quadrature.reference_calls"),
}

# per-layer metrics reported with --trace 1 (the rest are printed on a # line)
PER_LAYER_UNITS = {
    "quadrature.guarantee_calls": "count",
    "quadrature.guarantee_passes": "count",
    "quadrature.guarantee_points": "count",
    "quadrature.guarantee_max_n": "count",
    "quadrature.reference_calls": "count",
    "quadrature.reference_fevals": "count",
    "expr.scalar_calls": "count",
    "expr.vector_points": "count",
    "expr.vector_s": "s",
    "expr.vector_ns_per_point": "ns",
    "expr.parse_s": "s",
    "convexity.certify_calls": "count",
    "convexity.lattice_points": "count",
    "convexity.certify_s": "s",
    "convexity.falsified_share": "ratio",
    "kernels.identity_calls": "count",
    "means.calls": "count",
    "trace.overhead_share": "ratio",
}


class BenchError(RuntimeError):
    pass


class Clock:
    def __init__(self):
        self.t0 = time.perf_counter()

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.t0)
        if left <= 1.0:
            raise BenchError("out of time")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd: list[str], clock: Clock, result_fd: bool = False, stdout: bool = False):
    """Run a child to completion; return (wall seconds, stdout text, result JSON)."""
    env = child_env()
    timeout = clock.remaining()
    read_fd = write_fd = None
    chunks = []
    if result_fd:
        read_fd, write_fd = os.pipe()
        cmd = cmd + ["--result-fd", str(write_fd)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if stdout else subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        pass_fds=(write_fd,) if result_fd else (),
    )
    reader = None
    if result_fd:
        os.close(write_fd)
        fh = os.fdopen(read_fd)
        reader = threading.Thread(target=lambda: chunks.append(fh.read()))
        reader.start()
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} timed out")
    finally:
        if reader:
            reader.join()
            fh.close()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(chunks[0]) if result_fd and chunks and chunks[0] else None
    if result_fd and result is None:
        raise BenchError(f"{cmd[1:3]} reported nothing: {err.strip()[-2000:]}")
    return wall, out, result


def worker_cmd(workload: str, seed: int, seconds: float, trace: int, count=None) -> list[str]:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if count is not None:
        cmd += ["--count", str(count)]
    return cmd


# ---------------------------------------------------------------------------
# statistics


def tail(workload: str, values: list[float]) -> tuple[float, int]:
    """(value, samples beyond) at the workload's TAIL_PERCENTILE."""
    value = float(np.percentile(values, TAIL_PERCENTILE[workload]))
    return value, sum(v > value for v in values)


def setup_probe(clock: Clock) -> tuple[float, dict, str]:
    """setup_s: the median over probe pairs of t(import hhkit) / t(import numpy),
    each in a fresh interpreter, times REFERENCE_IMPORT_NOMINAL_S.  numpy is
    most of hhkit's import, so the reference drifts with the host as the probe
    does (correlation 0.81 over 234 pairs; 0.23 against the numpy kernel of
    ``worker.calibrate`` alone over 192 probes)."""
    hh, ref, version = [], [], ""
    for _ in range(SETUP_PAIRS):
        wall, out, _ = run_child(
            [sys.executable, "-c", "import hhkit, numpy; print(numpy.__version__)"],
            clock, stdout=True,
        )
        hh.append(wall)
        version = out.strip()
        wall, _, _ = run_child(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"], clock, stdout=True
        )
        ref.append(wall)
    ratio = statistics.median(h / r for h, r in zip(hh, ref))
    unscaled = {"import_hhkit_s": statistics.median(hh), "import_numpy_s": statistics.median(ref)}
    return ratio * REFERENCE_IMPORT_NOMINAL_S, unscaled, version


# ---------------------------------------------------------------------------
# workloads


def suite_digest(text: str) -> str:
    masked = re.sub(r'"elapsed_ms": [^}]*', '"elapsed_ms": 0', text)
    return hashlib.sha256(masked.encode()).hexdigest()


def check_suite(result: dict, text: str) -> tuple[list, list[str]]:
    problems = []
    if result["rc"] != 0:
        problems.append(f"hhkit suite exited {result['rc']}")
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        return [], problems + [f"suite output is not JSON: {exc}"]
    if len(records) != SUITE_RECORDS:
        problems.append(f"{len(records)} records, expected {SUITE_RECORDS}")
    counts = collections.Counter((r["kind"], r["verdict"]) for r in records)
    if counts != collections.Counter(SUITE_VERDICTS):
        diff = {f"{k[0]}/{k[1]}": counts[k] - SUITE_VERDICTS.get(k, 0)
                for k in set(counts) | set(SUITE_VERDICTS) if counts[k] != SUITE_VERDICTS.get(k, 0)}
        problems.append(f"verdict table differs: {diff}")
    return records, problems


def suite_properties(records: list) -> dict:
    keyed = [(r["inputs"]["function"], r["inputs"]["a"], r["inputs"]["b"])
             for r in records if "function" in r["inputs"]]
    samples = collections.Counter(r["inputs"]["samples"] for r in records if r["kind"] == "certify")
    return {
        "requests": len(records),
        "seen_share": 1.0 - len(set(keyed)) / len(keyed) if keyed else 0.0,
        "lattice_sizes": dict(samples),
    }


def run_suite(args, clock: Clock, trace: bool) -> dict:
    runs = []
    start = time.perf_counter()
    while True:
        _, text, result = run_child(worker_cmd("suite", args.seed, args.seconds, 0), clock,
                                    result_fd=True, stdout=True)
        records, problems = check_suite(result, text)
        runs.append((text, result, records, problems))
        elapsed = time.perf_counter() - start
        if trace or elapsed * (len(runs) + 1) / len(runs) > args.seconds:
            break  # the next suite would not end within the run
    records = runs[0][2]
    attempted = sum(len(run[2]) for run in runs)
    failed = sum(r["verdict"] in SUITE_FAIL_VERDICTS for run in runs for r in run[2])
    scaled_ms = [run[1]["scaled_main_s"] * 1e3 for run in runs]
    out = {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "problems": [p for run in runs for p in run[3]],
        "runs": len(runs),
        "throughput_rps": attempted / (sum(scaled_ms) / 1e3),
        "latency_ms": scaled_ms,
        "peak_rss_mb": statistics.median(run[1]["maxrss_mb"] for run in runs),
        "unscaled": {"main_s": [run[1]["main_s"] for run in runs]},
        "digest": suite_digest(runs[0][0]),
        "props": suite_properties(records) if records else {},
    }
    if trace:
        _, text, result = run_child(worker_cmd("suite", args.seed, args.seconds, 1), clock,
                                    result_fd=True, stdout=True)
        traced_records, traced_problems = check_suite(result, text)
        out["problems"] += [f"traced: {p}" for p in traced_problems]
        layers = result["layers"]
        elapsed = sum(r["elapsed_ms"] for r in traced_records) / 1e3
        layers["cli.elapsed_sum_s"] = elapsed
        layers["cli.uncovered_s"] = layers["cli.run_suite_total_s"] - elapsed
        layers["trace.overhead_share"] = result["scaled_main_s"] * 1e3 / scaled_ms[0] - 1.0
        out["layers"], out["self_s"] = layers, result["self_s"]
    return out


def run_stream(args, clock: Clock, trace: bool) -> dict:
    _, _, res = run_child(
        worker_cmd(args.workload, args.seed, args.seconds, 0), clock, result_fd=True
    )
    n = res["attempted"]
    scaled = res["scaled_latencies_s"]
    refused = res["raised"]
    out = {
        "attempted": n,
        "failed": res["wrong"],
        "failed_share": refused / n,
        "problems": res["problems"],
        "throughput_rps": n / sum(scaled),
        "latency_ms": [x * 1e3 for x in scaled],
        "peak_rss_mb": res["maxrss_mb"],
        "unscaled": {
            "throughput_rps": n / sum(res["latencies_s"]),
            "latency_p50_ms": statistics.median(res["latencies_s"]) * 1e3,
            "slowdown_median": statistics.median(res["slowdowns"]),
        },
        "props": res["props"],
    }
    if refused != res["predicted_refusals"]:
        out["problems"].append(
            f"{refused} requests refused or raised, {res['predicted_refusals']} predicted"
        )
    if trace:
        _, _, traced = run_child(
            worker_cmd(args.workload, args.seed, args.seconds, 1, count=n), clock, result_fd=True
        )
        out["problems"] += [f"traced: {p}" for p in traced["problems"]]
        layers = traced["layers"]
        layers["trace.overhead_share"] = sum(traced["scaled_latencies_s"]) / sum(scaled) - 1.0
        out["layers"], out["self_s"] = layers, traced["self_s"]
    return out


# ---------------------------------------------------------------------------
# run record


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def trace_problems(workload: str, layers: dict) -> list[str]:
    problems = []
    if layers["trace.coverage"] < 0.95:
        problems.append(f"named layer spans cover {layers['trace.coverage']:.3f} of traced wall")
    for name in STRUCTURAL_ZEROS.get(workload, ()):
        if layers[name] != 0:
            problems.append(f"{name} = {layers[name]}, expected 0 on {workload}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "hhkit" / "__init__.py").is_file():
        print(f"error: no hhkit sources under {SRC}", file=sys.stderr)
        return 2

    clock = Clock()
    try:
        setup_s, setup_unscaled, numpy_version = setup_probe(clock)
        run = run_suite if args.workload == "suite" else run_stream
        res = run(args, clock, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        res["problems"] += trace_problems(args.workload, res["layers"])
    correct = not res["problems"] and res["failed"] == 0
    p50 = statistics.median(res["latency_ms"])
    tail_ms, beyond = tail(args.workload, res["latency_ms"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "threads_per_blas": 1,
    }
    print("# run " + json.dumps(record))
    print("# workload " + json.dumps({"why": WHY[args.workload], **res["props"]}))
    outcome = {
        "failed_share": res["failed_share"],
        "wrong_outputs": res["failed"],
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "tail_samples_beyond": beyond,
        "latency_samples": len(res["latency_ms"]),
    }
    if args.workload == "suite":
        outcome["suite_runs"] = res["runs"]
        outcome["suite_digest"] = res["digest"]
        outcome["suite_digest_matches_reference"] = res["digest"] == SUITE_REFERENCE_DIGEST
    print("# outcome " + json.dumps(outcome))
    print("# unscaled " + json.dumps({**setup_unscaled, **res["unscaled"]}))
    for p in res["problems"][:10]:
        print(f"# problem {p}")

    if args.trace:
        print("# layers " + json.dumps(res["layers"], sort_keys=True))
        print("# self_s " + json.dumps(res["self_s"], sort_keys=True))
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_rps": {"value": res["throughput_rps"], "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
