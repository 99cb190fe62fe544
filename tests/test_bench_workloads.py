"""The benchmark's seesaw workload, run in process at the program seeds
where a search once stalled, with the workload's own output check.

At program seed 346 all four restarts used to stop at 1/2 + sqrt(2)/8,
below the optimum bb84_parallel_value(2), where each party's measurement
was already block-optimal; a 30 s traced benchmark run reaches that seed.
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


@pytest.mark.parametrize("seed", range(340, 350))
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
