"""The corpus suite as a whole: its record table, its timings and its work.

One cold run_suite() per module (the memo caches are cleared first), with
the certification and oracle entry points and the bounds' endpoint
derivatives counted.
"""

import collections
import hashlib
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import hhkit
from hhkit import cli, convexity, hhbounds, quadrature
from hhkit.expr import FunctionSpec

# (kind, verdict) counts of the 1809 suite records
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

# SHA-256 of the `hhkit suite --format json` output with elapsed_ms masked, the
# reference behaviour; the same literal and masking as perfbench/run.py
SUITE_REFERENCE_DIGEST = "a259dfa9b906b04161975848b032b75ddcecf7be7ed962146686d638f5b61d78"

VERIFY_KEYS = [
    "theorem", "function", "a", "b", "s", "alpha", "m", "sense", "hypothesis_certified",
]


def _counted(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _counted_walk(walk, counts):
    """The lattice walk, counting sweeps and the blocks each one evaluates."""

    def wrapper(*args, **kwargs):
        counts["sweeps"] += 1
        for block in walk(*args, **kwargs):
            counts["blocks"] += 1
            yield block

    return wrapper


def _counted_endpoint_derivatives(counts):
    """theorem_bound, and f' counting the scalar points it is called at from
    inside theorem_bound and the 3-D lattice blocks it is called on."""
    bounding = []
    theorem_bound, derivative = hhbounds.theorem_bound, FunctionSpec.derivative

    def bound(*args, **kwargs):
        bounding.append(True)
        try:
            return theorem_bound(*args, **kwargs)
        finally:
            bounding.pop()

    def counted_derivative(self, x):
        if bounding and np.ndim(x) == 0:
            counts["endpoint_derivatives"] += 1
        if np.ndim(x) == 3:
            counts["lattice_derivatives"] += 1
            counts["lattice_points"] += np.size(x)
        return derivative(self, x)

    return bound, counted_derivative


@pytest.fixture(scope="module")
def suite():
    quadrature.oracle_integral.cache_clear()
    hhbounds._averages.cache_clear()
    hhbounds._endpoint_derivatives.cache_clear()
    convexity._hypothesis_certified.cache_clear()  # and the |f'| lattice blocks it keeps
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        bound, derivative = _counted_endpoint_derivatives(counts)
        mp.setattr(hhbounds, "theorem_bound", bound)
        mp.setattr(FunctionSpec, "derivative", derivative)
        mp.setattr(convexity, "_block_minima", _counted_walk(convexity._block_minima, counts))
        ref = _counted(quadrature.reference_integrate, counts, "reference")
        mp.setattr(quadrature, "reference_integrate", ref)
        mp.setattr(hhbounds, "reference_integrate", ref)
        started = time.perf_counter()
        records = cli.run_suite()
        wall = time.perf_counter() - started
    return records, wall, counts


def test_suite_record_table(suite):
    records, _, _ = suite
    assert len(records) == 1809
    assert collections.Counter((r.kind, r.verdict) for r in records) == SUITE_VERDICTS


def test_suite_verify_rows_keep_their_key_order(suite):
    records, _, _ = suite
    rows = [r for r in records if r.kind == "verify"]
    for r in rows:
        expected = VERIFY_KEYS + (["p"] if r.inputs["theorem"] not in ("T1", "T4") else [])
        assert list(r.inputs) == expected, r.inputs


def test_suite_elapsed_covers_the_run(suite):
    records, wall, _ = suite
    assert all(r.elapsed_ms >= 0.0 for r in records)
    assert sum(r.elapsed_ms for r in records) / 1e3 >= 0.95 * wall


def test_suite_shares_certifications_and_oracle_integrals(suite):
    _, _, counts = suite
    # 15 classical sweeps, 180 theorem hypotheses (one per f, interval,
    # alpha*s, m and q or none; (0.5, 1, 1) and (1, 0.5, 1) share), 15
    # guarantee sweeps, one per (f, interval)
    assert counts["sweeps"] == 210
    # a falsified hypothesis stops at its first violating block, and on a
    # lattice of several blocks a sweep's first block is row 0
    assert counts["blocks"] == 495
    # 15 oracle integrals, 15 lemma line integrals, 30 guarantee cross-checks
    assert counts["reference"] == 60
    # |f'(a)| and |f'(b/m)| once per (f, interval, m): 15 (f, interval) x 2 m
    assert counts["endpoint_derivatives"] == 30


def test_suite_hypothesis_sweeps_share_their_derivative_blocks(suite):
    _, _, counts = suite
    # f' once per block of each lattice: the 12 theorem hypothesis sweeps of
    # an (f, interval) read the 5 blocks of one grid-50 lattice (row 0, then
    # 13 x rows at a time), and the guarantee sweeps one grid-30 block;
    # 15 (f, interval) x (5 + 1)
    assert counts["lattice_derivatives"] == 90
    # the extra block is row 0 split off the first: f' is still read at each
    # lattice point once, 15 (f, interval) x (50^3 + 30^3)
    assert counts["lattice_points"] == 15 * (50**3 + 30**3)


def test_cold_suite_does_not_import_numpy_random():
    src = str(pathlib.Path(hhkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys; from hhkit import cli; cli.run_suite(); "
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["True", "False"]


@pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason="the suite's float bits depend on numpy and libm; the digest is pinned at numpy 2.4.6",
)
def test_suite_json_matches_the_reference_digest(suite):
    records, _, _ = suite
    text = cli.format_records(records, "json") + "\n"  # as `hhkit suite` prints it
    masked = re.sub(r'"elapsed_ms": [^}]*', '"elapsed_ms": 0', text)
    assert hashlib.sha256(masked.encode()).hexdigest() == SUITE_REFERENCE_DIGEST
