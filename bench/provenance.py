"""Print the interpreter, numpy and BLAS a benchmark child sees, as JSON.

Run in a child process, so that the benchmark process itself never loads
numpy: a child started from a large parent inherits the parent's resident
size in its ``ru_maxrss``.
"""

import ctypes
import json
import os
import platform

import numpy as np

# names under which OpenBLAS builds export their thread-count getter
THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                  "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if there is none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
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


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }))


if __name__ == "__main__":
    main()
