"""Numerical laboratory for monogamy-of-entanglement games.

Exact strategy evaluation, closed-form winning-probability bounds, seesaw
strategy search, a finite-key security calculator and protocol simulator for
one-sided device-independent key distribution, one-round position
verification, and two-observer min-entropy uncertainty checks.

Importing the package loads numpy with OpenBLAS on one thread unless the
user has set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS``, so ``--deterministic`` output does not depend on the
host's core count.
"""

import os as _os
import sys as _sys

# OpenBLAS reads its thread count once, when numpy loads it.  On this
# package's matrices (16 to a few hundred rows) a second thread does almost
# no work but busy-waits after every call, and the thread count changes the
# seesaw's floating-point path.  So load numpy with one thread unless numpy
# is already loaded or the user chose a count (these are the variables
# OpenBLAS reads, in its own precedence order), then remove the variable so
# no child process inherits it.  Other BLAS builds are left as they are.
if "numpy" not in _sys.modules and not any(
        var in _os.environ
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .bounds import (BB84_ROUND_VALUE, BoundReport, bb84_parallel_value,
                     binary_entropy, general_upper_bound,
                     imperfect_guessing_bound, same_string_bound)
from .errors import (CapacityError, DimensionError, DomainError, NotPsdError,
                     ValidationError)
from .games import (MonogamyGame, QSet, Strategy, bb84_game, game_power,
                    hamming_q_set, overlap, product_strategy, pure_strategy,
                    same_string_q_set, winning_probability,
                    winning_probability_with_q, xor_permutation_family)
from .qkd import (KeyLengthReport, QkdParams, QkdSecurityReport, max_key_length,
                  noise_threshold, run_eqkd_trials, secdef_gap, security_delta,
                  simulate_eqkd, toeplitz_hash)
from .posver import (TimingScenario, entangled_soundness_bound,
                     max_entanglement_rate, noisy_soundness_bound,
                     simulate_pv_round, simulate_pv_rounds, soundness_bound)
from .seesaw import (SeesawConfig, SeesawResult, bb84_optimal_unentangled_strategy,
                     optimal_povm_step, optimal_state_step, seesaw)
from .uncertainty import (CqEnsemble, UrReport, check_uncertainty_relation,
                          guessing_probability, min_entropy_bracket,
                          post_measurement_state, ur_bound_n)

__version__ = "0.1.0"
