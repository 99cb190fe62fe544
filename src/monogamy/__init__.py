"""Numerical laboratory for monogamy-of-entanglement games.

Exact strategy evaluation, closed-form winning-probability bounds, seesaw
strategy search, a finite-key security calculator and protocol simulator for
one-sided device-independent key distribution, one-round position
verification, and two-observer min-entropy uncertainty checks.

Importing the package loads neither numpy nor any submodule: each public
name below is imported from its module when it is first used.  A module
that computes with numpy loads it with OpenBLAS on one thread unless the
user has set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` (see :mod:`monogamy._numpy`), so ``--deterministic``
output does not depend on the host's core count; the closed-form
calculators of :mod:`monogamy.bounds` and :mod:`monogamy.finite_key` never
load numpy.
"""

import importlib as _importlib
import sys as _sys
import types as _types

# the public names, each resolved from its module on first access (PEP 562),
# so that importing the package or one submodule loads no other
_EXPORTS = {name: module for module, names in [
    ("bounds", ("BB84_ROUND_VALUE", "bb84_parallel_value", "binary_entropy",
                "entangled_soundness_bound", "general_upper_bound", "imperfect_guessing_bound",
                "max_entanglement_rate", "noisy_soundness_bound", "same_string_bound",
                "soundness_bound")),
    ("errors", ("CapacityError", "DimensionError", "DomainError", "NotPsdError",
                "ValidationError")),
    ("finite_key", ("KeyLengthReport", "QkdParams", "QkdSecurityReport", "max_key_length",
                    "noise_threshold", "security_delta")),
    ("games", ("MonogamyGame", "QSet", "Strategy", "bb84_game", "game_power",
               "hamming_q_set", "overlap", "product_strategy", "same_string_q_set",
               "winning_probability", "winning_probability_with_q", "xor_permutation_family")),
    ("qkd", ("HonestNoisyDevice", "run_eqkd_trials", "simulate_eqkd", "toeplitz_hash")),
    ("posver", ("TimingScenario", "simulate_pv_rounds")),
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
