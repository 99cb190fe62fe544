"""The benchmark's seesaw workload, run in process with the workload's own
output check: at program seeds 0-19, at 340-349, and at the seeds where
restarts stall.

At program seed 346 all four restarts once stopped at 1/2 + sqrt(2)/8,
below the optimum bb84_parallel_value(2), where each party's measurement
was already block-optimal. Since real games draw real starts, no seed of
0-999 stalls all four; at 21, 165 and 391, the seeds with the most such
restarts, two stop near 1/2 + sqrt(2)/8 and the other two reach the optimum.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

from monogamy import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("workloads", None)


@pytest.mark.parametrize("seed", [*range(20), *range(340, 350), 21, 165, 391])
def test_seesaw_workload_passes_its_check(workloads, seed):
    workload = workloads.WORKLOADS["seesaw"]
    outputs = []
    for cmd in workload.commands(seed):
        assert cmd[0] == "monogamy"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.dispatch(list(cmd[1:])) == 0
        outputs.append(buf.getvalue())
    workload.check(outputs)
