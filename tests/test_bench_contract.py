"""The benchmark's workloads still run against the package.

The benchmark reaches parts of the package by module attribute, so a
renamed or removed name would otherwise show up only as failed operations
at benchmark time.  Each workload runs one round in a fresh process,
started from the repository root with the hash seed pinned, the way
``bench/run.py`` starts it, and must fail no operation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["certify", "structures", "batch"])
def test_workload_round_fails_nothing(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
