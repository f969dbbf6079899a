"""Self-tests of the benchmark: inputs follow the seed, counts repeat.

    python3 -m pytest -q perfbench/test_counts.py

Takes about three minutes: it makes two traced runs of every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, make_ops  # noqa: E402
from bruhatkl.coxeter import CoxeterSystem  # noqa: E402

# per-layer units whose values are counts of work, which must repeat
COUNT_UNITS = ("count", "bytes")


def argvs(workload, seed):
    return [op.argv for op in make_ops(workload, seed, CoxeterSystem)]


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def test_seed_chooses_only_query_inputs():
    for workload in WORKLOADS:
        assert argvs(workload, 3) == argvs(workload, 3)
    assert argvs("verify-f4", 0) == argvs("verify-f4", 1)
    assert argvs("verify-i2", 0) == argvs("verify-i2", 1)
    assert argvs("query-f4", 0) != argvs("query-f4", 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = traced_counts(workload, 5)
    assert first
    assert traced_counts(workload, 5) == first
