"""Smoke run of the benchmark harness, so it does not rot.

Runs one short end-to-end rep of the seesaw workload in a child process and
checks only that the harness finishes and reports a correct, unfailed run;
no timing is asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_seesaw_workload_runs_clean():
    proc = subprocess.run([sys.executable, str(BENCH_RUN), "--workload", "seesaw",
                           "--seed", "0", "--seconds", "0.1", "--trace", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
