"""numpy, as every package module that computes with it loads it.

Each such module takes `np` from here, so the first of them to load applies
one rule: numpy is loaded with OpenBLAS on one thread unless the user has
set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``,
so ``--deterministic`` output does not depend on the host's core count.
The package itself, the CLI and the closed forms of :mod:`monogamy.bounds`
and :mod:`monogamy.finite_key` never load numpy.
"""

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it.  On this
# package's matrices (16 to a few hundred rows) a second thread does almost
# no work but busy-waits after every call, and the thread count changes the
# seesaw's floating-point path.  So load numpy with one thread unless numpy
# is already loaded or the user chose a count (these are the variables
# OpenBLAS reads, in its own precedence order), then remove the variable so
# no child process inherits it.  Other BLAS builds are left as they are.
if "numpy" in sys.modules or any(
        var in os.environ
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = ["np"]
