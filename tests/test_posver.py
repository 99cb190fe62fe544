"""Position-verification bounds and the 1-D timing simulator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from monogamy.bounds import (BB84_ROUND_VALUE, bb84_parallel_value, entangled_soundness_bound,
                             max_entanglement_rate, noisy_soundness_bound, soundness_bound)
from monogamy.errors import CapacityError, DomainError, ValidationError
from monogamy.finite_key import noise_threshold
from monogamy.posver import (BreidbartPair, SingleAdversary, TimingScenario, _sample_batch,
                             simulate_pv_rounds)
from monogamy.rand import _words, bernoulli, rng_for

# frozen oracle values
BETA20 = 0.04213217087090013
ENTANGLED_100 = 0.13920957175493195   # 2^20 * round_value^100
NOISY_50 = 0.0985485700350324         # (2^{2 h(0.01)} * round_value)^50
RATE = 0.22844669683638802

SCENARIO = TimingScenario(v0=0.0, v1=2.0, pos=1.0)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_soundness_bound_matches_game_value():
    for n in (1, 5, 20):
        assert soundness_bound(n) == bb84_parallel_value(n)
    assert soundness_bound(1) == pytest.approx(BB84_ROUND_VALUE, abs=0)
    assert soundness_bound(20) == pytest.approx(BETA20, rel=1e-14)


def test_entangled_bound_reduces_at_trivial_dimension():
    for n in (1, 7):
        assert entangled_soundness_bound(n, 1) == soundness_bound(n)


def test_entangled_bound_linear_rate_value():
    assert entangled_soundness_bound(100, 2**20) == \
        pytest.approx(ENTANGLED_100, rel=1e-13)


def test_entangled_bound_vacuous_at_full_rate():
    # d = 2^n: the bound is (2 * round value)^n >= 1 for every n
    for n in (1, 10, 40):
        assert entangled_soundness_bound(n, 2**n) >= 1.0


def test_entangled_bound_rejects_bad_dimension():
    with pytest.raises(DomainError):
        entangled_soundness_bound(5, 0)


def test_max_entanglement_rate_window():
    rate = max_entanglement_rate()
    assert 0.228 < rate < 0.229
    assert rate == pytest.approx(RATE, abs=1e-14)


def test_bound_decays_below_threshold_rate():
    # at rate 0.2 < threshold the bound decreases exponentially
    values = [entangled_soundness_bound(n, 2 ** math.ceil(0.2 * n))
              for n in range(50, 401, 50)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_bound_constant_exactly_at_threshold_rate():
    assert 2.0 ** max_entanglement_rate() * BB84_ROUND_VALUE == \
        pytest.approx(1.0, abs=1e-12)


def test_noisy_bound_reduces_and_matches_oracle():
    for n in (1, 8):
        assert noisy_soundness_bound(n, 0.0, 0.0) == soundness_bound(n)
    assert noisy_soundness_bound(50, 0.01, 0.01) == \
        pytest.approx(NOISY_50, rel=1e-12)


def test_noisy_bound_is_one_at_threshold_noise():
    gstar = noise_threshold()
    for n in (1, 10, 50):
        assert noisy_soundness_bound(n, gstar, gstar) == \
            pytest.approx(1.0, abs=1e-7)


def test_noisy_bound_monotone_in_error_fractions():
    lo = noisy_soundness_bound(10, 0.01, 0.02)
    assert noisy_soundness_bound(10, 0.02, 0.02) >= lo
    assert noisy_soundness_bound(10, 0.01, 0.03) >= lo


# ---------------------------------------------------------------------------
# timing model


def test_scenario_requires_position_between_verifiers():
    with pytest.raises(ValidationError):
        TimingScenario(v0=0.0, v1=1.0, pos=1.5)


def test_honest_prover_always_accepted():
    agg = simulate_pv_rounds(SCENARIO, 8, SingleAdversary(SCENARIO.pos), 2000, seed=0)
    assert agg["acceptance_rate"] == 1.0


def test_breidbart_default_positions_meet_deadlines():
    ok0, ok1 = BreidbartPair().timing(SCENARIO)
    assert ok0 and ok1


def test_breidbart_behind_position_misses_first_deadline():
    ok0, _ = BreidbartPair(pos_e0=1.5, pos_e1=1.7).timing(SCENARIO)
    assert not ok0


def test_breidbart_crossed_relay_misses_second_deadline():
    ok0, ok1 = BreidbartPair(pos_e0=0.8, pos_e1=0.3).timing(SCENARIO)
    assert ok0 and not ok1


def test_adversary_outside_segment_rejected():
    with pytest.raises(ValidationError):
        BreidbartPair(pos_e0=-0.5, pos_e1=1.5).timing(SCENARIO)
    with pytest.raises(ValidationError):
        SingleAdversary(2.5).timing(SCENARIO)


def _one_round(prover, n: int, seed: int):
    """Bit 0 of the challenges x, bases theta and the two responses of
    ``simulate_pv_rounds(..., n, prover, trials=1, seed=seed)``: the same
    draws from rng_for(seed, 0), in the same order."""
    rng = rng_for(seed, 0)
    x, theta = (_words(rng, n).reshape(n, 1) for _ in range(2))
    return tuple(a[:, 0] & 1 for a in (x, theta, *prover.respond_batch(x, theta, rng)))


def test_single_adversary_rejected_despite_perfect_guess():
    # waiting for both messages anywhere off the claimed position makes one
    # deadline unreachable, deterministically
    for q in (0.2, 0.6, 0.999, 1.001, 1.8):
        x, _, x0p, _ = _one_round(SingleAdversary(q), 6, seed=5)
        np.testing.assert_array_equal(x0p, x)
        agg = simulate_pv_rounds(SCENARIO, 6, SingleAdversary(q), 1, seed=5)
        assert agg["accepted"] == 0
        assert not (agg["timing_ok_v0"] and agg["timing_ok_v1"])
    at_pos = simulate_pv_rounds(SCENARIO, 6, SingleAdversary(1.0), 1, seed=5)
    assert at_pos["accepted"] == 1


def test_round_accept_consistency():
    for seed in range(10):
        agg = simulate_pv_rounds(SCENARIO, 4, BreidbartPair(), 1, seed=seed)
        x, _, x0p, x1p = _one_round(BreidbartPair(), 4, seed)
        manual = (agg["timing_ok_v0"] and agg["timing_ok_v1"]
                  and np.array_equal(x0p, x) and np.array_equal(x1p, x))
        assert agg["accepted"] == int(manual)


def test_round_is_deterministic_per_seed():
    a = _one_round(BreidbartPair(), 10, 3)
    b = _one_round(BreidbartPair(), 10, 3)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[2], b[2])
    assert simulate_pv_rounds(SCENARIO, 10, BreidbartPair(), 1, seed=3) == \
        simulate_pv_rounds(SCENARIO, 10, BreidbartPair(), 1, seed=3)


def test_round_is_batch_zero_of_the_batched_simulation():
    # the same draws as a batch of a whole word: one word per qubit from
    # rng_for(seed, 0), of which the one trial is bit 0
    for seed in range(20):
        agg = simulate_pv_rounds(SCENARIO, 3, BreidbartPair(), 1, seed=seed)
        word = _sample_batch(3, BreidbartPair(), 64, rng_for(seed, 0))
        assert agg["accepted"] == int(word[0])
        np.testing.assert_array_equal(_one_round(BreidbartPair(), 3, seed)[0],
                                      _words(rng_for(seed, 0), 3) & 1)


def _unpacked_acceptances(n: int, trials: int, seed: int) -> int:
    """Oracle: the accepted rounds of a BreidbartPair simulation, built one
    0/1 byte per (qubit, round) from the same draws, in the same order."""
    accepted = 0
    for batch, done in enumerate(range(0, trials, 65536)):
        rounds = min(65536, trials - done)
        words = -(-rounds // 64)
        rng = rng_for(seed, batch)
        x = np.unpackbits(_words(rng, n * words).view(np.uint8),
                          bitorder="little").reshape(n, 64 * words)[:, :rounds]
        _words(rng, n * words)  # the bases, which the guess does not read
        flips = bernoulli(rng, 1.0 - BB84_ROUND_VALUE, (n, 64 * words))[:, :rounds]
        guess = x ^ flips
        accepted += int(np.all(guess == x, axis=0).sum())
    return accepted


@pytest.mark.parametrize("n", [1, 20, 65])
@pytest.mark.parametrize("trials", [1, 63, 64, 65, 70000])
def test_packed_batch_matches_an_unpacked_reference(n, trials):
    agg = simulate_pv_rounds(SCENARIO, n, BreidbartPair(), trials, seed=7)
    assert agg["accepted"] == _unpacked_acceptances(n, trials, seed=7)


@pytest.mark.parametrize("trials", [2.5, 0, -1])
def test_simulate_refuses_a_trial_count_that_is_not_a_positive_integer(trials):
    # 2.5 once ended in a bare TypeError inside the batch loop
    with pytest.raises(DomainError, match="trials must be a positive integer"):
        simulate_pv_rounds(SCENARIO, 3, BreidbartPair(), trials, seed=0)


@pytest.mark.parametrize("trials", [1, 63, 65, 100, 70001])
def test_honest_prover_accepts_a_partial_last_word_exactly(trials):
    # bits past the last round are drawn and answered, but never counted
    agg = simulate_pv_rounds(SCENARIO, 5, SingleAdversary(SCENARIO.pos), trials, seed=2)
    assert agg["accepted"] == trials
    assert agg["acceptance_rate"] == 1.0


def test_breidbart_acceptance_tracks_bound():
    trials = 20000
    agg = simulate_pv_rounds(SCENARIO, 1, BreidbartPair(), trials, seed=8)
    p = soundness_bound(1)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(agg["acceptance_rate"] - p) <= 5 * sigma
    agg4 = simulate_pv_rounds(SCENARIO, 4, BreidbartPair(), trials, seed=8)
    p4 = soundness_bound(4)
    sigma4 = math.sqrt(p4 * (1 - p4) / trials)
    assert agg4["acceptance_rate"] <= p4 + 5 * sigma4


@pytest.mark.parametrize("seed", range(3))
def test_breidbart_acceptance_at_benchmark_scale(seed):
    # the benchmark's posver check: 10^6 rounds of 20 qubits accept at
    # cos(pi/8)^40 = soundness_bound(20), within 5 sigma
    trials, n = 10**6, 20
    agg = simulate_pv_rounds(SCENARIO, n, BreidbartPair(), trials, seed=seed)
    p = math.cos(math.pi / 8) ** (2 * n)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(agg["acceptance_rate"] - p) <= 5 * sigma


def test_simulate_rounds_deterministic_and_capped():
    a = simulate_pv_rounds(SCENARIO, 3, BreidbartPair(), 1000, seed=1)
    b = simulate_pv_rounds(SCENARIO, 3, BreidbartPair(), 1000, seed=1)
    assert a == b
    with pytest.raises(CapacityError):
        # ten rounds of 2^30 qubits need about 200 GiB
        simulate_pv_rounds(SCENARIO, 2**30, SingleAdversary(SCENARIO.pos), 10, seed=0)
    with pytest.raises(DomainError):
        simulate_pv_rounds(SCENARIO, 0, SingleAdversary(SCENARIO.pos), 10, seed=0)
