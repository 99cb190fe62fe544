"""Numerical laboratory for monogamy-of-entanglement games.

Exact strategy evaluation, closed-form winning-probability bounds, seesaw
strategy search, a finite-key security calculator and protocol simulator for
one-sided device-independent key distribution, one-round position
verification, and two-observer min-entropy uncertainty checks.

Importing the package loads numpy with OpenBLAS on one thread unless the
user has set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS``, so ``--deterministic`` output does not depend on the
host's core count.  It loads no submodule: each public name below is
imported from its module when it is first used.
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
# and load it at the user's count otherwise: every command runs on numpy
import numpy as _numpy  # noqa: E402,F401

import importlib as _importlib
import types as _types

# the public names, each resolved from its module on first access (PEP 562),
# so that importing the package or one submodule loads no other
_EXPORTS = {name: module for module, names in [
    ("bounds", ("BB84_ROUND_VALUE", "bb84_parallel_value", "binary_entropy",
                "general_upper_bound", "imperfect_guessing_bound", "same_string_bound")),
    ("errors", ("CapacityError", "DimensionError", "DomainError", "NotPsdError",
                "ValidationError")),
    ("games", ("MonogamyGame", "QSet", "Strategy", "bb84_game", "game_power",
               "hamming_q_set", "overlap", "product_strategy", "same_string_q_set",
               "winning_probability", "winning_probability_with_q", "xor_permutation_family")),
    ("qkd", ("HonestNoisyDevice", "KeyLengthReport", "QkdParams", "QkdSecurityReport",
             "max_key_length", "noise_threshold", "run_eqkd_trials", "security_delta",
             "simulate_eqkd", "toeplitz_hash")),
    ("posver", ("TimingScenario", "entangled_soundness_bound", "max_entanglement_rate",
                "noisy_soundness_bound", "simulate_pv_rounds",
                "soundness_bound")),
    ("seesaw", ("SeesawConfig", "SeesawResult", "bb84_optimal_unentangled_strategy",
                "optimal_povm_step", "optimal_state_step", "seesaw")),
    ("uncertainty", ("CqEnsemble", "UrReport", "check_uncertainty_relation",
                     "guessing_probability", "min_entropy_bracket",
                     "post_measurement_state", "secdef_gap", "ur_bound_n")),
] for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(_types.ModuleType):
    """The package's module type.  Loading a submodule binds it as an
    attribute of the package; the submodule `seesaw` shares its name with
    its search function, and the attribute stays the function."""

    def __setattr__(self, name, value):
        if name == "seesaw" and isinstance(value, _types.ModuleType):
            value = value.seesaw
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"
