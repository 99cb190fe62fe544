"""BLAS thread policy: importing monogamy loads OpenBLAS on one thread unless
the user chose a count, and seeded seesaw output does not depend on how many
CPUs the process may use.

Every check runs in a child interpreter, because OpenBLAS reads its thread
count once, when numpy loads it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                    reason="OpenBLAS runs one thread on one CPU anyway")

# prints the loaded OpenBLAS's thread count (the getter lookup of
# bench/provenance.py::blas_threads) and whether the imports changed os.environ
PROBE = """
import ctypes, json, os
before = dict(os.environ)
{imports}
THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                  "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")

def blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({{line.split()[-1] for line in fh if "openblas" in line}})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None

print(json.dumps({{"threads": blas_threads(), "environ_unchanged": dict(os.environ) == before}}))
"""


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment without the BLAS thread variables, with
    the package on the path and `extra` set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def probe(imports: str, **extra: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE.format(imports=imports)],
                          env=child_env(**extra), capture_output=True, text=True,
                          check=True, timeout=120)
    report = json.loads(proc.stdout)
    if report["threads"] is None:
        pytest.skip("no OpenBLAS thread-count getter in this numpy")
    return report


@needs_two_cpus
def test_import_runs_blas_on_one_thread():
    assert probe("import monogamy")["threads"] == 1


@needs_two_cpus
@pytest.mark.parametrize("var", THREAD_VARS)
def test_user_thread_count_wins(var):
    assert probe("import monogamy", **{var: "2"})["threads"] == 2


def test_import_leaves_environ_unchanged():
    assert probe("import monogamy")["environ_unchanged"] is True


def test_numpy_loaded_first_keeps_its_default():
    assert (probe("import numpy\nimport monogamy")["threads"]
            == probe("import numpy")["threads"])


@needs_two_cpus
def test_seesaw_output_does_not_depend_on_the_cpu_count():
    cmd = [sys.executable, "-m", "monogamy.cli", "seesaw", "--game", "bb84", "--n", "3",
           "--bob-dim", "4", "--charlie-dim", "4", "--restarts", "2", "--seed", "0",
           "--deterministic", "--no-include-strategy"]
    cpu = min(os.sched_getaffinity(0))

    def stdout(preexec_fn=None) -> bytes:
        return subprocess.run(cmd, env=child_env(), capture_output=True, check=True,
                              timeout=300, preexec_fn=preexec_fn).stdout

    assert stdout(lambda: os.sched_setaffinity(0, {cpu})) == stdout()
