"""The one argument check: every count, dimension and seed an entry point
takes is refused when it is nan, inf or 2.5, and every real parameter when
it is nan or out of range, with the error class the entry point gives its
other refusals.  Cases that other tests check already are left out."""

from __future__ import annotations

import math

import numpy as np
import pytest

from monogamy import bounds, finite_key, fixtures, games, linalg, posver, qkd, rand, uncertainty
from monogamy.errors import (DimensionError, DomainError, ValidationError, whole,
                             within)
from monogamy.quantum_device import epr_device
from monogamy.seesaw import SeesawConfig, bb84_optimal_unentangled_strategy

NAN, INF = math.nan, math.inf
SCENARIO = posver.TimingScenario(0.0, 2.0, 1.0)
PARAMS = dict(n=8, t=2, s=0, ell=0, gamma=0.1, epsilon=0.05)
BB84 = games.bb84_game()
F0, F1 = list(BB84.elements)


def _strategy(a=2, b=1, c=1):
    one = bb84_optimal_unentangled_strategy()
    return games.Strategy(one.rho_abc, (a, b, c), one.bob, one.charlie, one.thetas)


def _ensemble(w0=0.5):
    return uncertainty.CqEnsemble(("0", "1"), [w0, 0.5], [np.eye(2) / 2] * 2)


# entry point -> (the call, taking each checked argument by keyword with a
# valid default; the counts, dimensions and seeds among them; their error class)
COUNTS = {
    "same_string_bound": (lambda theta_count=2, n=2: bounds.same_string_bound(
        0.5, theta_count, n, 0.1), ["theta_count", "n"], DomainError),
    "general_upper_bound": (lambda theta_count=2, q_cardinality=1, n=2:
                            bounds.general_upper_bound(0.5, theta_count, q_cardinality, n),
                            ["theta_count", "q_cardinality", "n"], DomainError),
    "bb84_parallel_value": (lambda n=2: bounds.bb84_parallel_value(n), ["n"], DomainError),
    "MonogamyGame-dim_a": (lambda dim_a=2: games.MonogamyGame(
        dim_a, BB84.thetas, BB84.outcomes, BB84.elements), ["dim_a"], DimensionError),
    "MonogamyGame-rounds": (lambda rounds=1: games.MonogamyGame(
        2, BB84.thetas, BB84.outcomes, BB84.elements, rounds), ["rounds"], DomainError),
    "Strategy": (_strategy, ["a", "b", "c"], DimensionError),
    "maximally_entangled_density": (lambda d=2: games.maximally_entangled_density(d), ["d"],
                                    DimensionError),
    "game_power": (lambda n=2: games.game_power(BB84, n), ["n"], DomainError),
    "product_strategy": (lambda n=2: games.product_strategy(_strategy(), n), ["n"],
                         DomainError),
    "xor_permutation_family": (lambda n=2, q=2: games.xor_permutation_family(n, q),
                               ["n", "q"], DomainError),
    "hamming_q_set": (lambda n=2: games.hamming_q_set(n, 0.5, 0.5), ["n"], DomainError),
    "same_string_q_set": (lambda n=2: games.same_string_q_set(n, 0.5), ["n"], DomainError),
    "partial_trace": (lambda d=2, keep=2: linalg.partial_trace(np.eye(4) / 4, (d, 2, 1), [keep]),
                      ["d", "keep"], DimensionError),
    "rng_for": (lambda seed=0, stream=1: rand.rng_for(seed, stream), ["seed", "stream"],
                DomainError),
    "haar_unitary": (lambda dim=2: rand.haar_unitary(dim, rand.rng_for(0)), ["dim"],
                     DimensionError),
    "random_density": (lambda dim=2, rank=1: rand.random_density(dim, rand.rng_for(0), rank),
                       ["dim", "rank"], DimensionError),
    "random_projective_povm": (lambda dim=2, outcomes=2: rand.random_projective_povm(
        dim, outcomes, rand.rng_for(0)), ["dim", "outcomes"], DimensionError),
    "random_povm": (lambda dim=2, outcomes=2: rand.random_povm(dim, outcomes, rand.rng_for(0)),
                    ["dim", "outcomes"], DimensionError),
    "soundness_bound": (lambda n=2: bounds.soundness_bound(n), ["n"], DomainError),
    "entangled_soundness_bound": (lambda n=2, d=2: bounds.entangled_soundness_bound(n, d),
                                  ["n", "d"], DomainError),
    "entangled_soundness_bound_log2": (lambda n=2, log2_d=1:
                                       bounds.entangled_soundness_bound_log2(n, log2_d),
                                       ["n", "log2_d"], DomainError),
    "simulate_pv_rounds": (lambda n=2, trials=10, seed=0: posver.simulate_pv_rounds(
        SCENARIO, n, posver.SingleAdversary(SCENARIO.pos), trials, seed),
                           ["n", "trials", "seed"], DomainError),
    "QkdParams": (lambda n=8, t=2, s=0, ell=0: finite_key.QkdParams(n, t, s, ell, 0.1, 0.05),
                  ["n", "t", "s", "ell"], DomainError),
    "toeplitz_hash": (lambda ell=1: qkd.toeplitz_hash(np.ones(4, np.uint8), np.ones(4, np.uint8),
                                                      ell), ["ell"], DomainError),
    "LinearCode": (lambda length=8, syndrome_bits=2, seed=0: qkd.LinearCode(
        length, syndrome_bits, seed), ["length", "syndrome_bits", "seed"], DomainError),
    "run_eqkd_trials": (lambda trials=1, seed=0: qkd.run_eqkd_trials(
        finite_key.QkdParams(**PARAMS), qkd.HonestNoisyDevice(0.0), trials, seed),
                        ["trials", "seed"], DomainError),
    "simulate_eqkd": (lambda seed=0: qkd.simulate_eqkd(
        finite_key.QkdParams(**PARAMS), qkd.HonestNoisyDevice(0.0), seed), ["seed"], DomainError),
    "SeesawConfig": (lambda **kw: SeesawConfig(**kw),
                     ["max_iters", "seed", "bob_dim", "charlie_dim", "restarts"], DomainError),
    "post_measurement_state": (lambda a=2, b=2, c=2: uncertainty.post_measurement_state(
        np.eye(8) / 8, (a, b, c), F0, F1), ["a", "b", "c"], DimensionError),
    "ur_bound_n": (lambda n=2: uncertainty.ur_bound_n(0.5, n), ["n"], DomainError),
    "epr_device": (lambda n=1: epr_device(n), ["n"], DomainError),
    "matrix_from_json": (lambda rows=2, cols=1: fixtures.matrix_from_json(
        {"rows": rows, "cols": cols, "re": [1.0, 0.0], "im": [0.0, 0.0]}), ["rows", "cols"],
                         DimensionError),
}

# cases refused before these checks, which tests of the entry point cover
REFUSED_BEFORE = {
    *(f"{entry}-{name}-2.5" for entry, name in [
        ("general_upper_bound", "theta_count"), ("general_upper_bound", "q_cardinality"),
        ("general_upper_bound", "n"), ("same_string_bound", "theta_count"),
        ("same_string_bound", "n"), ("bb84_parallel_value", "n"),
        ("MonogamyGame-rounds", "rounds"), ("Strategy", "b"), ("Strategy", "c"),
        ("game_power", "n"), ("product_strategy", "n"), ("xor_permutation_family", "n"),
        ("xor_permutation_family", "q"), ("hamming_q_set", "n"), ("same_string_q_set", "n"),
        ("soundness_bound", "n"), ("entangled_soundness_bound", "n"),
        ("entangled_soundness_bound", "d"), ("simulate_pv_rounds", "n"),
        ("simulate_pv_rounds", "trials"), ("QkdParams", "n"), ("QkdParams", "t"),
        ("QkdParams", "s"), ("QkdParams", "ell"), ("toeplitz_hash", "ell"),
        ("LinearCode", "length"), ("LinearCode", "syndrome_bits"), ("run_eqkd_trials", "trials"),
        ("SeesawConfig", "max_iters"), ("SeesawConfig", "bob_dim"),
        ("SeesawConfig", "charlie_dim"), ("SeesawConfig", "restarts"), ("ur_bound_n", "n"),
        ("matrix_from_json", "cols")]),
    # a shape check downstream refuses these
    "MonogamyGame-dim_a-dim_a-nan", "MonogamyGame-dim_a-dim_a-inf",
    "MonogamyGame-dim_a-dim_a-2.5",
}

COUNT_CASES = [pytest.param(call, name, value, error, id=f"{entry}-{name}-{value}")
               for entry, (call, names, error) in COUNTS.items() for name in names
               for value in (NAN, INF, 2.5) if f"{entry}-{name}-{value}" not in REFUSED_BEFORE]


@pytest.mark.parametrize("call, name, value, error", COUNT_CASES)
def test_a_count_dimension_or_seed_that_is_not_an_integer_is_refused(call, name, value,
                                                                     error):
    call()  # the defaults are valid
    with pytest.raises(error):
        call(**{name: value})


# entry point -> (the call, taking each real argument by keyword with a valid
# default; each argument's values refused only by the one check; their error
# class).  The other interval checks refused nan before, and their tests cover
# the out-of-range values.
REALS = {
    "QkdParams": (lambda epsilon=0.05: finite_key.QkdParams(8, 2, 0, 0, 0.1, epsilon),
                  {"epsilon": [NAN]}, DomainError),
    "max_key_length": (lambda delta_target=0.5: finite_key.max_key_length(
        100, 10, 0, 0.01, 0.05, delta_target), {"delta_target": [NAN, INF]}, DomainError),
    "SeesawConfig": (lambda tol=1e-9: SeesawConfig(tol=tol), {"tol": [NAN, INF]},
                     DomainError),
    "CqEnsemble": (_ensemble, {"w0": [NAN]}, ValidationError),
    "min_entropy_bracket": (lambda w0=0.5: uncertainty.min_entropy_bracket(
        {0: _ensemble(), 1: _ensemble()}, {0: w0, 1: 0.5}), {"w0": [NAN]}, ValidationError),
}

REAL_CASES = [pytest.param(call, name, value, error, id=f"{entry}-{name}-{value}")
              for entry, (call, values, error) in REALS.items()
              for name, refused in values.items() for value in refused]


@pytest.mark.parametrize("call, name, value, error", REAL_CASES)
def test_a_real_parameter_that_is_nan_or_out_of_range_is_refused(call, name, value, error):
    call()  # the defaults are valid
    with pytest.raises(error):
        call(**{name: value})


def test_whole_returns_a_python_int_and_names_the_rule():
    assert type(whole(np.int64(3))) is int and whole(3.0) == 3 and whole(True) == 1
    assert whole(-7, "seed", minimum=None) == -7
    for value, minimum, message in [(2.5, 1, "k must be a positive integer"),
                                    (NAN, 0, "k must be a non-negative integer"),
                                    (-1, 0, "k must be a non-negative integer"),
                                    (INF, None, "k must be an integer"),
                                    ("3", 1, "k must be a positive integer"),
                                    (1, 2, "k must be at least 2")]:
        with pytest.raises(DomainError, match=message):
            whole(value, "k", minimum)
    with pytest.raises(DimensionError):
        whole(0, error=DimensionError)


@pytest.mark.parametrize("value", ["0.5", b"0.5", None, [0.5], 10**400],
                         ids=["str", "bytes", "None", "list", "past-the-float-range"])
def test_within_refuses_what_is_not_a_real_number(value):
    # a string once passed, to fail later in a TypeError
    with pytest.raises(DomainError, match="x must be a real number"):
        within(value, "x", 0.0, math.inf)


def test_a_string_gamma_is_refused_by_the_one_check():
    with pytest.raises(DomainError, match="gamma must be a real number"):
        games.hamming_q_set(2, "0.5", 0.5)


def test_within_returns_a_float_and_keeps_its_open_ends():
    assert within(np.float32(0.5), "x", 0.0, 1.0) == 0.5
    assert within(0, "x", 0.0, 1.0) == 0.0 and within(1, "x", 0.0, 1.0) == 1.0
    for value, kw in [(0.0, dict(lo_open=True)), (1.0, dict(hi_open=True)), (NAN, {}),
                      (INF, {}), (-INF, {})]:
        with pytest.raises(DomainError, match=r"x must lie in [\[(]0, 1[\])], got"):
            within(value, "x", 0.0, 1.0, **kw)
