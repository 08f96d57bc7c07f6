"""The corpus suite as a whole: its record table, its timings and its work.

One cold run_suite() per module (the memo caches are cleared first), with
the certification and oracle entry points counted.
"""

import collections
import hashlib
import re
import time

import numpy as np
import pytest

from hhkit import cli, convexity, hhbounds, quadrature

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
SUITE_REFERENCE_DIGEST = "4498808a48f4513572fa2a13ae05fc5bff7a2a9adf19053070e6fbc59640611a"

VERIFY_KEYS = [
    "theorem", "function", "a", "b", "s", "alpha", "m", "sense", "hypothesis_certified",
]


def _counted(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def suite():
    quadrature.oracle_integral.cache_clear()
    hhbounds._averages.cache_clear()
    convexity.hypothesis_certified.cache_clear()
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convexity, "certify", _counted(convexity.certify, counts, "certify"))
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
    # 15 classical sweeps, 240 theorem hypotheses (one per f, interval,
    # params and q or none), 15 guarantee sweeps, one per (f, interval)
    assert counts["certify"] == 270
    # 15 oracle integrals, 15 lemma line integrals, 30 guarantee cross-checks
    assert counts["reference"] == 60


@pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason="the suite's float bits depend on numpy and libm; the digest is pinned at numpy 2.4.6",
)
def test_suite_json_matches_the_reference_digest(suite):
    records, _, _ = suite
    text = cli.format_records(records, "json") + "\n"  # as `hhkit suite` prints it
    masked = re.sub(r'"elapsed_ms": [^}]*', '"elapsed_ms": 0', text)
    assert hashlib.sha256(masked.encode()).hexdigest() == SUITE_REFERENCE_DIGEST
