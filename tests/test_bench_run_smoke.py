"""Smoke runs of the benchmark harness, so it does not rot.

Runs one short rep of the seesaw and power workloads in a child process,
end to end, and of the seesaw workload traced in process, and checks only
that the harness finishes and reports a correct, unfailed run; no timing is
asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_RUN), "--workload", workload,
                           "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_seesaw_workload_runs_clean():
    last = _run("seesaw", 0)
    assert last["correct"] is True
    assert last["failed"] == 0


def test_power_workload_runs_clean():
    # the quick start's product evaluation runs the one exact evaluator
    last = _run("power", 0)
    assert last["correct"] is True
    assert last["failed"] == 0


def test_traced_seesaw_workload_runs_clean():
    # through cli.dispatch in this harness's own process, spans installed
    last = _run("seesaw", 1)
    assert last["correct"] is True
    assert last["failed"] == 0
