"""Finite-key security calculator, hashing/coding primitives, and the
protocol simulator."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monogamy import linalg, qkd
from monogamy.bounds import BB84_ROUND_VALUE
from monogamy.games import (Strategy, bb84_game, conditional_stack, game_power,
                            maximally_entangled_density, product_strategy)
from monogamy.errors import (CapacityError, DimensionError, DomainError,
                             ValidationError)
from monogamy.qkd import (HonestNoisyDevice, LinearCode, QkdParams, delta_terms,
                          max_key_length, noise_threshold, run_eqkd_trials,
                          security_delta, simulate_eqkd, suggested_syndrome_length,
                          toeplitz_hash)
from monogamy.quantum_device import TripartiteQuantumDevice, epr_device
from monogamy.rand import random_density, random_povm, rng_for
from monogamy.seesaw import SeesawConfig, bb84_optimal_unentangled_strategy, seesaw
from monogamy.uncertainty import CqEnsemble, secdef_gap

from conftest import bb84_povms, device_strategy

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)

# frozen oracle values (mpmath, 60 digits)
A_SAMPLING = 3.032653298563167          # n=1e5, t=1e4, eps=0.005
A_BUDGET = -3504.6439059523145          # gamma=0.005, s=7272, ell=1000
B_SAMPLING = 0.012393760883331792       # n=1e6, t=3e4, gamma=0.002, eps=0.01
B_BUDGET = 887.78698861638026           # s=93783, ell=10000
B_PA = 2.3699726442692563e-134
KEYLEN_ELL = 168546                     # n=1e7, t=5e5, g=0.005, e=0.005,
KEYLEN_DELTA = 8.2344705770605604e-10   # s=807931, target 1e-9
KEYLEN_DELTA_NEXT = 1.1357671233924035e-09
RATE_ELL = 575520                       # n=1e8, t=63096, g=0.005, e=0.00978,
#                                         s=ceil(n h), target 1e-3
NOISE_THRESHOLD = 0.0153093009897998
LOG2_INV_ROUND = 0.22844669683638802


# ---------------------------------------------------------------------------
# parameters and the failure bound


def test_params_validation():
    with pytest.raises(DomainError):
        QkdParams(n=10, t=10, s=0, ell=0, gamma=0.0, epsilon=0.01)
    with pytest.raises(DomainError):
        QkdParams(n=10, t=1, s=0, ell=-1, gamma=0.0, epsilon=0.01)
    with pytest.raises(DomainError):
        QkdParams(n=10, t=1, s=0, ell=0, gamma=0.3, epsilon=0.25)
    with pytest.raises(DomainError):
        QkdParams(n=10, t=1, s=0, ell=0, gamma=0.0, epsilon=0.0)


def test_params_refuse_a_syndrome_longer_than_the_key_rounds():
    assert QkdParams(n=10, t=2, s=8, ell=0, gamma=0.0, epsilon=0.01).s == 8
    with pytest.raises(DomainError, match="s <= n - t"):
        QkdParams(n=10, t=2, s=9, ell=0, gamma=0.0, epsilon=0.01)


def test_params_refuse_a_key_longer_than_the_key_rounds():
    assert QkdParams(n=10, t=2, s=8, ell=8, gamma=0.0, epsilon=0.01).ell == 8
    with pytest.raises(ValidationError, match="key length cannot exceed the unsampled"):
        QkdParams(n=10, t=2, s=0, ell=9, gamma=0.0, epsilon=0.01)


def test_delta_vacuous_instance_matches_oracle():
    params = QkdParams(n=100000, t=10000, s=7272, ell=1000, gamma=0.005,
                       epsilon=0.005)
    rep = security_delta(params)
    assert rep.sampling_term == pytest.approx(A_SAMPLING, rel=1e-12)
    assert rep.exponent_budget == pytest.approx(A_BUDGET, rel=1e-12)
    assert math.isinf(rep.pa_term) and math.isinf(rep.delta)
    assert rep.to_dict()["vacuous"] is True
    assert rep.delta == rep.sampling_term + rep.pa_term


def test_delta_finite_instance_matches_oracle():
    params = QkdParams(n=10**6, t=3 * 10**4, s=93783, ell=10000, gamma=0.002,
                       epsilon=0.01)
    rep = security_delta(params)
    assert rep.sampling_term == pytest.approx(B_SAMPLING, rel=1e-12)
    assert rep.exponent_budget == pytest.approx(B_BUDGET, rel=1e-12)
    assert rep.pa_term == pytest.approx(B_PA, rel=1e-9)
    assert rep.delta == pytest.approx(B_SAMPLING, rel=1e-12)
    assert rep.to_dict()["vacuous"] is False
    assert rep.delta == rep.sampling_term + rep.pa_term


def test_delta_sampling_term_limit_for_tiny_epsilon():
    sampling, _, _, delta = delta_terms(1000, 100, 0, 0, 0.0, 1e-12)
    assert sampling == pytest.approx(5.0, abs=1e-9)
    assert delta >= 5.0 - 1e-9


def test_exponential_terms_below_the_float_range_are_not_zero():
    # 5 e^-2000 and e^-829.44 lie below the smallest positive float, which
    # stands in for them; a normal term keeps the bits of math.exp
    assert delta_terms(10**8, 10**7, 0, 1000, 0.001, 0.01)[0] == math.ulp(0.0)
    far = QkdParams(n=4096, t=2048, s=0, ell=0, gamma=0.0, epsilon=0.45)
    assert run_eqkd_trials(far, HonestNoisyDevice(0.0), 1, seed=0)["hoeffding_bound"] == \
        math.ulp(0.0)
    assert delta_terms(64, 16, 16, 16, 0.05, 0.05)[0] == 5.0 * math.exp(-2.0 * 0.05**2 * 16)
    near = QkdParams(n=64, t=16, s=16, ell=16, gamma=0.05, epsilon=0.05)
    assert run_eqkd_trials(near, HonestNoisyDevice(0.01), 10, seed=0)["hoeffding_bound"] == \
        math.exp(-2.0 * 0.05**2 * 16)


def test_delta_budget_zero_gives_unit_pa_term():
    n, t, s, gamma, epsilon = 10**5, 10**3, 2000, 0.01, 0.002
    _, budget0, _, _ = delta_terms(n, t, s, 0.0, gamma, epsilon)
    sampling, budget, pa, delta = delta_terms(n, t, s, budget0, gamma, epsilon)
    assert budget == 0.0
    assert pa == 1.0
    assert delta == sampling + 1.0


def test_delta_monotonicity():
    base = dict(n=10**6, t=3 * 10**4, s=93783, ell=10**4, gamma=0.002,
                epsilon=0.01)

    def pa(**kw):
        args = {**base, **kw}
        return delta_terms(args["n"], args["t"], args["s"], args["ell"],
                           args["gamma"], args["epsilon"])[2]

    assert pa() < pa(ell=base["ell"] + 1000)
    assert pa() < pa(s=base["s"] + 1000)
    assert pa() < pa(t=base["t"] + 1000)
    assert pa() > pa(n=base["n"] + 1000)

    def sampling(**kw):
        args = {**base, **kw}
        return delta_terms(args["n"], args["t"], args["s"], args["ell"],
                           args["gamma"], args["epsilon"])[0]

    assert sampling() > sampling(epsilon=0.02)
    assert sampling() > sampling(t=base["t"] * 2)


def test_delta_rejects_bad_gamma_epsilon():
    with pytest.raises(DomainError):
        delta_terms(100, 10, 0, 0, 0.3, 0.3)


# ---------------------------------------------------------------------------
# key-length inversion


def test_keylen_infeasible_when_sampling_dominates():
    # sampling term 5 e^{-0.4} ~ 3.35 alone exceeds any sub-unity target
    rep = max_key_length(10**6, 5 * 10**4, 60172, 0.005, 0.002, 1e-9)
    assert not rep.feasible
    assert rep.ell == 0
    assert math.isnan(rep.delta)
    assert "sampling" in rep.note


def test_keylen_feasible_instance_matches_oracle():
    rep = max_key_length(10**7, 5 * 10**5, 807931, 0.005, 0.005, 1e-9)
    assert rep.feasible
    assert rep.ell == KEYLEN_ELL
    assert rep.delta == pytest.approx(KEYLEN_DELTA, rel=1e-11)
    above = delta_terms(10**7, 5 * 10**5, 807931, rep.ell + 1, 0.005, 0.005)[3]
    assert above == pytest.approx(KEYLEN_DELTA_NEXT, rel=1e-11)
    assert rep.delta <= 1e-9 < above


def test_keylen_bracketing_property():
    for target in (1e-6, 1e-9):
        rep = max_key_length(10**7, 5 * 10**5, 807931, 0.005, 0.005, target)
        assert rep.feasible
        at = delta_terms(10**7, 5 * 10**5, 807931, rep.ell, 0.005, 0.005)[3]
        nxt = delta_terms(10**7, 5 * 10**5, 807931, rep.ell + 1, 0.005, 0.005)[3]
        assert at <= target < nxt
    # a target below the sampling term (6.94e-11 here) is infeasible
    assert not max_key_length(10**7, 5 * 10**5, 807931, 0.005, 0.005,
                              1e-12).feasible


def test_keylen_zero_length_note():
    # syndrome chosen so the budget at ell = 0 is a few bits: the bound sits
    # between delta(0) and delta(1) and the best key is empty
    n, t, s, gamma, epsilon = 10**6, 3 * 10**4, 104660, 0.002, 0.01
    delta0 = delta_terms(n, t, s, 0, gamma, epsilon)[3]
    delta1 = delta_terms(n, t, s, 1, gamma, epsilon)[3]
    assert delta0 < delta1
    target = (delta0 + delta1) / 2
    rep = max_key_length(n, t, s, gamma, epsilon, target)
    assert rep.feasible and rep.ell == 0
    assert rep.note == "no extractable key"


def test_keylen_infeasible_even_at_zero():
    # sampling term is tiny but the budget at ell = 0 is hugely negative
    rep = max_key_length(10**4, 5000, 5000, 0.002, 0.05, 0.5)
    assert not rep.feasible
    assert "ell = 0" in rep.note


@pytest.mark.parametrize("n, t, s, match", [
    pytest.param(100, 200, 0, "0 < t < n", id="t-above-n"),
    pytest.param(100, 100, 0, "0 < t < n", id="t-equals-n"),
    pytest.param(100, -5, 0, "t must be a positive integer", id="negative-t"),
    pytest.param(100, 10, -3, "s must be a non-negative integer", id="negative-s"),
    pytest.param(0, 10, 0, "n must be a positive integer", id="zero-n"),
    pytest.param(100, 10, 91, "s <= n - t", id="s-above-key-rounds"),
])
def test_keylen_refuses_the_parameters_qkd_params_refuses(n, t, s, match):
    # before it checked them through QkdParams, each of these gave a report
    # ("sampling term alone exceeds the target") for a protocol that cannot run
    with pytest.raises(DomainError, match=match):
        max_key_length(n, t, s, 0.01, 0.05, 1e-3)


def test_keylen_rate_approaches_asymptotic_rate():
    # o(n) sampling schedule: by n = 1e8 the achievable rate is within 1e-3
    # of log2(1/round value) - 2 h(gamma + epsilon)
    n, t, gamma, epsilon = 10**8, 63096, 0.005, 0.00978
    from monogamy.bounds import binary_entropy
    s = math.ceil(n * binary_entropy(gamma + epsilon))
    rep = max_key_length(n, t, s, gamma, epsilon, 1e-3)
    assert rep.feasible
    assert rep.ell == RATE_ELL
    rate = LOG2_INV_ROUND - 2 * binary_entropy(gamma + epsilon)
    assert abs(rep.ell / n - rate) <= 1e-3


def test_suggested_syndrome_length():
    from monogamy.bounds import binary_entropy
    assert suggested_syndrome_length(10**5, 10**4, 0.005, 0.005) == \
        math.ceil(9 * 10**4 * binary_entropy(0.01))
    with pytest.raises(DomainError, match="0 < t < n"):  # not a negative length
        suggested_syndrome_length(100, 200, 0.01, 0.05)


# ---------------------------------------------------------------------------
# noise threshold


def test_noise_threshold_value():
    gstar = noise_threshold()
    assert gstar == pytest.approx(NOISE_THRESHOLD, abs=1e-9)
    assert 0.0148 <= gstar <= 0.0158


def test_noise_threshold_is_a_root():
    from monogamy.bounds import binary_entropy
    gstar = noise_threshold()
    assert 2 * binary_entropy(gstar) - LOG2_INV_ROUND == pytest.approx(0.0, abs=1e-9)
    assert LOG2_INV_ROUND == pytest.approx(0.2284, abs=1e-4)


# ---------------------------------------------------------------------------
# Toeplitz hashing


def test_toeplitz_zero_input_hashes_to_zero(rng):
    seed = rng.integers(0, 2, size=16 + 8 - 1, dtype=np.uint8)
    out = toeplitz_hash(seed, np.zeros(16, dtype=np.uint8), 8)
    np.testing.assert_array_equal(out, np.zeros(8, dtype=np.uint8))


def test_toeplitz_zero_length_output():
    assert toeplitz_hash(np.zeros(0, dtype=np.uint8), np.ones(4, dtype=np.uint8),
                         0).size == 0


def test_toeplitz_seed_length_check():
    with pytest.raises(DimensionError):
        toeplitz_hash(np.zeros(10, dtype=np.uint8), np.zeros(8, dtype=np.uint8), 4)


def test_toeplitz_matches_explicit_matrix(rng):
    # oracle: build the Toeplitz matrix entry by entry and multiply mod 2
    for _ in range(20):
        length = int(rng.integers(1, 12))
        ell = int(rng.integers(1, 9))
        seed = rng.integers(0, 2, size=length + ell - 1, dtype=np.uint8)
        x = rng.integers(0, 2, size=length, dtype=np.uint8)
        expect = np.zeros(ell, dtype=np.uint8)
        for j in range(ell):
            acc = 0
            for i in range(length):
                acc ^= int(seed[j + length - 1 - i]) & int(x[i])
            expect[j] = acc
        np.testing.assert_array_equal(toeplitz_hash(seed, x, ell), expect)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
       st.integers(0, 2**31 - 1))
def test_toeplitz_is_linear(a_int, b_int, seed_int):
    length, ell = 16, 8
    bits = lambda v: np.array([(v >> (length - 1 - i)) & 1 for i in range(length)],
                              dtype=np.uint8)
    seed = rng_for(seed_int).integers(0, 2, size=length + ell - 1, dtype=np.uint8)
    ha = toeplitz_hash(seed, bits(a_int), ell)
    hb = toeplitz_hash(seed, bits(b_int), ell)
    hxor = toeplitz_hash(seed, bits(a_int) ^ bits(b_int), ell)
    np.testing.assert_array_equal(hxor, ha ^ hb)


def _toeplitz_oracle(seed, x, ell):
    """The explicit GF(2) product: the ell x L Toeplitz matrix of the seed,
    entry (j, i) = seed[j + L - 1 - i], times x."""
    length = len(x)
    matrix = np.array([[seed[j + length - 1 - i] for i in range(length)]
                       for j in range(ell)], dtype=np.int64).reshape(ell, length)
    return (matrix @ x.astype(np.int64)) % 2


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 8), st.integers(1, 4),
       st.sampled_from(["one", "rows", "shared seed", "seed per row pair"]),
       st.integers(0, 2**32 - 1))
def test_broadcast_toeplitz_matches_the_explicit_product(length, ell, rows, layout, draw):
    rng = rng_for(draw)
    seed_bits = length + ell - 1
    seed_shape, x_shape = {"one": ((), ()), "rows": ((rows,), (rows,)),
                           "shared seed": ((), (rows,)),
                           "seed per row pair": ((rows,), (2, rows))}[layout]
    seeds = rng.integers(0, 2, size=seed_shape + (seed_bits,), dtype=np.uint8)
    xs = rng.integers(0, 2, size=x_shape + (length,), dtype=np.uint8)
    lead = np.broadcast_shapes(seed_shape, x_shape)
    got = toeplitz_hash(seeds, xs, ell)
    assert got.shape == lead + (ell,) and got.dtype == np.uint8
    seeds, xs = np.broadcast_to(seeds, lead + (seed_bits,)), np.broadcast_to(xs, lead + (length,))
    for idx in np.ndindex(lead):
        np.testing.assert_array_equal(got[idx], _toeplitz_oracle(seeds[idx], xs[idx], ell))


def test_toeplitz_fft_is_exact_at_a_million_bits():
    # L = 2^20, the classical device's most rounds: convolution sums reach
    # 2^20, and a rounding residual of 0.25 or more would raise
    length, ell = 2**20, 32
    rng = rng_for(7)
    seed = rng.integers(0, 2, size=length + ell - 1, dtype=np.uint8)
    x = rng.integers(0, 2, size=length, dtype=np.uint8)
    expect = [int(seed[j:j + length][::-1].astype(np.int64) @ x) % 2 for j in range(ell)]
    np.testing.assert_array_equal(toeplitz_hash(seed, x, ell), expect)
    # all ones: every sum is exactly 2^20, the largest it can be
    ones = np.ones(length + ell - 1, dtype=np.uint8)
    np.testing.assert_array_equal(toeplitz_hash(ones, ones[:length], ell), np.zeros(ell))


def test_toeplitz_refuses_to_round_an_inexact_convolution(monkeypatch):
    import numpy.fft
    irfft = numpy.fft.irfft
    monkeypatch.setattr(numpy.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(CapacityError, match="residual"):
        toeplitz_hash(np.ones(23, dtype=np.uint8), np.ones(16, dtype=np.uint8), 8)


def test_toeplitz_universality_monte_carlo():
    # collision probability of two fixed distinct inputs over random seeds is
    # at most 2^-ell (universal-2 family); check the empirical frequency
    length, ell, trials = 16, 8, 100000
    rng = rng_for(424242)
    x = rng.integers(0, 2, size=length, dtype=np.uint8)
    y = x.copy()
    y[[2, 9, 13]] ^= 1
    diff = (x ^ y).astype(np.int64)
    seeds = rng.integers(0, 2, size=(trials, length + ell - 1), dtype=np.uint8)
    idx = np.arange(ell)[:, None] + (length - 1) - np.arange(length)[None, :]
    mats = seeds[:, idx]
    parity = (mats @ diff) % 2
    collisions = int(np.sum(~parity.any(axis=1)))
    p = 2.0**-ell
    sigma = math.sqrt(p * (1 - p) / trials)
    assert collisions / trials <= p + 3 * sigma


# ---------------------------------------------------------------------------
# linear code


def test_code_decode_identity_when_no_errors(rng):
    code = LinearCode(40, 12, seed=5)
    x = rng.integers(0, 2, size=40, dtype=np.uint8)
    syn = code.encode(x)
    assert syn.size == 12
    np.testing.assert_array_equal(code.decode(x.copy(), syn), x)


def test_code_zero_syndrome_returns_received(rng):
    code = LinearCode(24, 0, seed=1)
    y = rng.integers(0, 2, size=24, dtype=np.uint8)
    np.testing.assert_array_equal(code.encode(y), np.zeros(0, dtype=np.uint8))
    np.testing.assert_array_equal(code.decode(y, np.zeros(0, dtype=np.uint8)), y)


def test_code_corrects_single_flip(rng):
    # seed 0 gives a 12-bit, 8-row code whose kernel has no word of weight
    # one or two, so every single flip decodes back to the sent word
    code = LinearCode(12, 8, seed=0)
    for trial in range(6):
        x = rng.integers(0, 2, size=12, dtype=np.uint8)
        syn = code.encode(x)
        for pos in range(12):
            y = x.copy()
            y[pos] ^= 1
            np.testing.assert_array_equal(code.decode(y, syn), x)


def _word_bits(width: int) -> np.ndarray:
    # every word of `width` bits, MSB first, in ascending order
    return ((np.arange(2**width)[:, None] >> (width - 1 - np.arange(width))) & 1).astype(np.uint8)


def _assert_nearest_consistent(code, y, syndromes, got):
    """Oracle, chunk by chunk and row by row: where some word of the chunk
    has the row's syndrome, the decoded chunk has it too and is as near to
    the received chunk as the nearest such word; where none has (a random
    syndrome of a rank-deficient chunk), the chunk is kept as received."""
    for a, b, lo, hi in code._chunks:
        words = _word_bits(b - a)
        word_syndromes = (words.astype(np.int64) @ code._h[b - a, hi - lo].T) % 2
        for row in range(len(y)):
            consistent = np.all(word_syndromes == syndromes[row, lo:hi], axis=1)
            if not consistent.any():
                np.testing.assert_array_equal(got[row, a:b], y[row, a:b])
                continue
            match = np.flatnonzero(np.all(words == got[row, a:b], axis=1))
            assert consistent[match].all()
            nearest = (words[consistent] != y[row, a:b]).sum(axis=1).min()
            assert (got[row, a:b] != y[row, a:b]).sum() == nearest


def test_code_decode_matches_brute_force_oracle(rng):
    # one 10-bit chunk: its leader table lists every pattern, so decoding
    # reaches a nearest consistent word
    code = LinearCode(10, 5, seed=3)
    x = rng.integers(0, 2, size=(15, 10), dtype=np.uint8)
    y = x ^ (rng.random((15, 10)) < 0.2).astype(np.uint8)
    syndromes = code.encode(x)
    _assert_nearest_consistent(code, y, syndromes, code.decode(y, syndromes))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_batched_decode_matches_the_scan_row_by_row(shape, chunk_len, draw):
    # several chunks of at most 6 bits; half the rows get random syndromes
    length, syndrome_bits = shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qkd, "_CHUNK_LEN", chunk_len)
        code = LinearCode(length, syndrome_bits, seed=draw % 997)
    rng = rng_for(draw)
    x = rng.integers(0, 2, size=(16, length), dtype=np.uint8)
    y = x ^ (rng.random((16, length)) < 0.2).astype(np.uint8)
    syndromes = code.encode(x)
    syndromes[8:] = rng.integers(0, 2, size=(8, syndrome_bits), dtype=np.uint8)
    got = code.decode(y, syndromes)
    _assert_nearest_consistent(code, y, syndromes, got)
    np.testing.assert_array_equal(code.decode(y[3], syndromes[3]), got[3])


def _per_chunk_encode(code, x):
    """Oracle: the syndrome of each row, one uint8 matmul per chunk."""
    out = np.empty((len(x), code.syndrome_bits), dtype=np.uint8)
    for a, b, lo, hi in code._chunks:
        out[:, lo:hi] = (x[:, a:b] @ code._h[b - a, hi - lo].T) & 1
    return out


def _per_chunk_decode(code, y, syndromes):
    """Oracle: each row, chunk by chunk, XOR the coset leader of the
    difference between its syndrome and the given one."""
    out = y.copy()
    for a, b, lo, hi in code._chunks:
        h = code._h[b - a, hi - lo]
        diff = ((y[:, a:b] @ h.T) & 1) ^ syndromes[:, lo:hi]
        wrong = np.flatnonzero(diff.any(axis=1))
        if wrong.size:
            table, leaders = code._leader_table(h)
            d = qkd._pack(diff[wrong])
            at = np.minimum(np.searchsorted(table, d), table.size - 1)
            error = np.where(table[at] == d, leaders[at], np.uint64(0))
            out[wrong, a:b] ^= qkd._int_to_bits(error, b - a)
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 16, 64]).flatmap(
           lambda w: st.tuples(st.just(w), st.integers(1, 5 * w)).flatmap(
               lambda wl: st.tuples(st.just(wl), st.one_of(st.integers(0, min(3, wl[1])),
                                                           st.integers(0, wl[1]))))),
       st.integers(0, 2**32 - 1))
@example(((64, 200), 2), 0)  # 64-bit chunks with 0, 1 and 0 rows, then 8 bits with 1
@example(((16, 40), 40), 1)  # every bit a syndrome row, and a short last chunk
def test_shape_syndromes_match_the_per_chunk_oracle(shape, draw):
    (chunk_len, length), syndrome_bits = shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qkd, "_CHUNK_LEN", chunk_len)
        code = LinearCode(length, syndrome_bits, seed=draw % 997)
    rng = rng_for(draw)
    x = rng.integers(0, 2, size=(24, length), dtype=np.uint8)
    y = x ^ (rng.random((24, length)) < 0.1).astype(np.uint8)
    syndromes = _per_chunk_encode(code, x)
    np.testing.assert_array_equal(code.encode(x), syndromes)
    syndromes[12:] = rng.integers(0, 2, size=(12, syndrome_bits), dtype=np.uint8)
    np.testing.assert_array_equal(code.decode(y, syndromes), _per_chunk_decode(code, y, syndromes))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.integers(0, 2**32 - 1))
def test_leader_table_keeps_the_lowest_weight_then_smallest_pattern(shape, seed):
    # oracle: every word of the chunk taken as an error pattern, by weight
    # and then in ascending order; the first with each syndrome leads it
    width, rows = shape
    code = LinearCode(width, rows, seed=seed)
    h = code._h[width, rows]
    words = _word_bits(width)
    syndromes = ((words.astype(np.int64) @ h.T) % 2) @ (1 << np.arange(rows - 1, -1, -1))
    leaders = {}
    for w in np.lexsort((np.arange(2**width), words.sum(axis=1))):
        leaders.setdefault(int(syndromes[w]), w)
    table, got = code._leader_table(h)
    assert table.tolist() == sorted(leaders)
    assert got.tolist() == [leaders[k] for k in sorted(leaders)]


def test_code_takes_rows_and_keeps_leading_shapes(rng):
    code = LinearCode(40, 12, seed=5)
    x = rng.integers(0, 2, size=(3, 2, 40), dtype=np.uint8)
    syn = code.encode(x)
    assert syn.shape == (3, 2, 12)
    for idx in np.ndindex(3, 2):
        np.testing.assert_array_equal(syn[idx], code.encode(x[idx]))
    np.testing.assert_array_equal(code.decode(x, syn), x)
    with pytest.raises(DimensionError):
        code.decode(x, syn[:2])


def test_code_decoded_word_is_always_consistent(rng, monkeypatch):
    # chunks of 16 bits or less list every error pattern, so every
    # syndrome that some word has is reached
    monkeypatch.setattr(qkd, "_CHUNK_LEN", 16)
    code = LinearCode(40, 16, seed=11)
    for _ in range(10):
        x = rng.integers(0, 2, size=40, dtype=np.uint8)
        y = x ^ (rng.random(40) < 0.15).astype(np.uint8)
        syn = code.encode(x)
        got = code.decode(y, syn)
        np.testing.assert_array_equal(code.encode(got), syn)


def test_code_tie_break_follows_the_leader_rule():
    # find a seed whose single 2-bit chunk has the parity row [1, 1]: y = 11
    # with syndrome 1 ties between the words 01 and 10, and decodes to
    # y ^ 01, the smaller of the two weight-one leaders
    for seed in range(50):
        code = LinearCode(2, 1, seed=seed)
        if code._h[2, 1].tolist() == [[1, 1]]:
            got = code.decode(np.array([1, 1], dtype=np.uint8),
                              np.array([1], dtype=np.uint8))
            np.testing.assert_array_equal(got, np.array([1, 0], dtype=np.uint8))
            return
    pytest.skip("no seed with the target parity row in range")


def test_non_integer_counts_are_refused_not_truncated():
    base = dict(n=64, t=16, s=16, ell=16, gamma=0.2, epsilon=0.05)
    for name, value, kind in [("n", 64.5, "a positive"), ("t", 16.5, "a positive"),
                              ("t", 0, "a positive"), ("s", 16.5, "a non-negative"),
                              ("s", -1, "a non-negative"), ("ell", 0.5, "a non-negative")]:
        with pytest.raises(DomainError, match=f"{name} must be {kind} integer"):
            QkdParams(**{**base, name: value})
    with pytest.raises(DomainError, match="length must be a non-negative integer"):
        LinearCode(8.5, 2, seed=0)
    with pytest.raises(DomainError, match="syndrome_bits must be a non-negative integer"):
        LinearCode(8, 2.5, seed=0)
    bits = np.ones(8, dtype=np.uint8)
    with pytest.raises(DomainError, match="ell must be a non-negative integer"):
        toeplitz_hash(np.ones(9, dtype=np.uint8), bits, 2.5)
    # an integer of another type still counts
    assert QkdParams(**{**base, "n": 64.0}).n == 64
    assert LinearCode(8.0, 2.0, seed=0).length == 8
    np.testing.assert_array_equal(toeplitz_hash(np.ones(9, dtype=np.uint8), bits, 2.0),
                                  toeplitz_hash(np.ones(9, dtype=np.uint8), bits, 2))


def test_code_refuses_more_syndrome_bits_than_length():
    assert LinearCode(8, 8, seed=0).syndrome_bits == 8
    with pytest.raises(DomainError, match="syndrome_bits <= length"):
        LinearCode(8, 9, seed=0)


def test_code_draws_one_parity_matrix_per_chunk_shape():
    # 3,584 bits in 56 chunks of 64 with 15 or 16 rows each: two shapes
    code = LinearCode(3584, 869, seed=0)
    assert len(code._chunks) == 56
    assert sorted(code._h) == [(64, 15), (64, 16)]
    assert all(code._h[b - a, hi - lo] is code._h[64, hi - lo]
               for a, b, lo, hi in code._chunks)


# ---------------------------------------------------------------------------
# protocol simulation


def qp(n=64, t=16, s=16, ell=16, gamma=0.0, epsilon=0.05) -> QkdParams:
    return QkdParams(n=n, t=t, s=s, ell=ell, gamma=gamma, epsilon=epsilon)


def test_simulate_noiseless_never_aborts_and_keys_agree():
    for seed in range(5):
        tr = simulate_eqkd(qp(), HonestNoisyDevice(0.0), seed=seed)
        assert not tr.aborted
        np.testing.assert_array_equal(tr.x, tr.y)
        np.testing.assert_array_equal(tr.key, tr.key_hat)
        assert tr.key.size == 16
        assert len(tr.sample_set) == 16


def test_simulate_abort_rule_is_replayable():
    for seed in range(8):
        tr = simulate_eqkd(qp(gamma=0.1), HonestNoisyDevice(0.2), seed=seed)
        idx = np.asarray(tr.sample_set)
        replayed = bool(np.mean(tr.x[idx] != tr.y[idx]) > 0.1)
        assert replayed == tr.aborted
        np.testing.assert_array_equal(tr.x_sample, tr.x[idx])


def test_simulate_is_deterministic_per_seed():
    a = simulate_eqkd(qp(), HonestNoisyDevice(0.1), seed=77)
    b = simulate_eqkd(qp(), HonestNoisyDevice(0.1), seed=77)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.sample_set, b.sample_set)
    assert a.aborted == b.aborted


def test_simulate_full_noise_aborts():
    tr = simulate_eqkd(qp(n=128, t=64, s=0, ell=0, gamma=0.01),
                       HonestNoisyDevice(0.5), seed=123)
    assert tr.aborted
    assert tr.key is None and tr.syndrome is None


def test_simulate_rejects_oversized_key():
    with pytest.raises(ValidationError):
        simulate_eqkd(qp(n=64, t=60, ell=16, s=0), HonestNoisyDevice(0.0), seed=0)


@pytest.mark.parametrize("flip_prob", [0.003, 0.01, 0.1])
def test_noisy_device_flips_at_its_rate(flip_prob):
    # 2^22 rounds: Alice's bits are fair, and the device's differ from them
    # at the flip probability, within 5 sigma
    theta = np.zeros((1024, 4096), dtype=np.uint8)
    x, y = HonestNoisyDevice(flip_prob).sample(theta, rng_for(11))
    assert x.shape == y.shape == theta.shape
    entries = theta.size
    assert abs(x.mean() - 0.5) <= 5 * math.sqrt(0.25 / entries)
    sigma = math.sqrt(flip_prob * (1 - flip_prob) / entries)
    assert abs((x ^ y).mean() - flip_prob) <= 5 * sigma


def test_simulate_device_capacity():
    # a device samples only the round count it was built for, near or far
    # from it, with the one error its own sample raises
    device = epr_device(3)
    for n in (4, 64):
        with pytest.raises(DimensionError, match="n=3"):
            simulate_eqkd(qp(n=n, t=1, s=0, ell=0), device, seed=0)
        with pytest.raises(DimensionError, match="n=3"):
            run_eqkd_trials(qp(n=n, t=1, s=0, ell=0), device, 3, seed=0)


def test_the_memory_budget_is_the_only_round_cap():
    # past 2^20 rounds, one honest trial runs: the budget admits it
    params = QkdParams(n=2**20 + 64, t=64, s=0, ell=0, gamma=0.05, epsilon=0.05)
    agg = run_eqkd_trials(params, HonestNoisyDevice(0.01), 1, seed=0)
    assert agg["trials"] == 1 and agg["aborts"] + agg["completed"] == 1
    assert simulate_eqkd(params, HonestNoisyDevice(0.01), seed=0).x.size == params.n


def test_epr_device_plays_a_million_rounds_in_little_memory():
    # the one-round strategy played a million times builds no 2^n state,
    # and sampling two rows holds little beyond the bits it returns
    theta = rng_for(3).integers(0, 2, size=(2, 10**6), dtype=np.uint8)
    tracemalloc.start()
    try:
        device = epr_device(10**6)
        x, y = device.sample(theta, rng_for(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + y.nbytes + 2**20
    np.testing.assert_array_equal(x, y)
    assert x.shape == theta.shape


def test_simulate_device_length_mismatch():
    class BadDevice:
        def sample(self, theta, rng):
            short = np.zeros((len(theta), 3), dtype=np.uint8)
            return short, short

    with pytest.raises(DimensionError):
        simulate_eqkd(qp(), BadDevice(), seed=0)
    with pytest.raises(DimensionError):
        run_eqkd_trials(qp(), BadDevice(), 5, seed=0)


def test_quantum_epr_device_reproduces_honest_outcomes():
    params = qp(n=4, t=1, s=2, ell=2)
    for seed in range(6):
        tr = simulate_eqkd(params, epr_device(4), seed=seed)
        np.testing.assert_array_equal(tr.x, tr.y)
        assert not tr.aborted
        np.testing.assert_array_equal(tr.key, tr.key_hat)


def test_quantum_device_with_wrong_basis_povms_errs():
    # device that measures in the conjugate basis: outcomes decorrelate in
    # half the rounds on average
    n = 3
    # reversed rows: basis string theta gets the POVM of its complement
    flipped = TripartiteQuantumDevice(device_strategy(maximally_entangled_density(2**n),
                                                      bb84_povms(n)[::-1]))
    mismatches = 0
    for seed in range(40):
        tr = simulate_eqkd(QkdParams(n=n, t=1, s=0, ell=0, gamma=0.49,
                                     epsilon=0.005),
                           flipped, seed=seed)
        mismatches += int(np.any(tr.x != tr.y))
    assert mismatches > 10


def test_keys_agree_whenever_decode_succeeds():
    # reconstruct the decode from the transcript: every run whose corrected
    # word matches the sent word must also agree on the hashed key
    params = qp(n=40, t=8, s=24, ell=8, gamma=0.44)
    successes = 0
    for seed in range(60):
        tr = simulate_eqkd(params, HonestNoisyDevice(0.03), seed=seed)
        if tr.aborted:
            continue
        rest = np.setdiff1d(np.arange(params.n), np.asarray(tr.sample_set))
        code = LinearCode(params.n - params.t, params.s, seed=seed)
        x_hat = code.decode(tr.y[rest], tr.syndrome)
        if np.array_equal(x_hat, tr.x[rest]):
            successes += 1
            np.testing.assert_array_equal(tr.key, tr.key_hat)
    assert successes > 30


def test_run_trials_noiseless_aggregate():
    agg = run_eqkd_trials(qp(), HonestNoisyDevice(0.0), 500, seed=9)
    assert agg["aborts"] == 0
    assert agg["completed"] == 500
    assert agg["key_match_rate"] == 1.0
    assert agg["hoeffding_violations"] == 0


def test_run_trials_abort_rate_under_heavy_noise():
    agg = run_eqkd_trials(qp(n=128, t=64, s=0, ell=0, gamma=0.01),
                          HonestNoisyDevice(0.5), 2000, seed=4)
    # acceptance probability per trial is 2^-64
    assert agg["abort_rate"] >= 0.999


def test_run_trials_deterministic():
    a = run_eqkd_trials(qp(), HonestNoisyDevice(0.05), 300, seed=21)
    b = run_eqkd_trials(qp(), HonestNoisyDevice(0.05), 300, seed=21)
    assert a == b


def test_batches_derive_generators_from_seed_and_batch(monkeypatch):
    # batch b of seed s draws from paths that name s and b separately, so
    # (seed 1, batch 0) and (seed 0, batch 2^20) cannot share a stream
    import monogamy.qkd as qkd
    paths = []

    def recording_rng_for(seed, *stream):
        paths.append((seed, *stream))
        return rng_for(seed, *stream)

    monkeypatch.setattr(qkd, "rng_for", recording_rng_for)
    # a budget that draws two rows of four rounds per batch
    monkeypatch.setattr(qkd, "_BATCH_BYTES", 2 * 4 * qkd._TRIAL_ENTRY_BYTES)
    params = QkdParams(n=4, t=1, s=2, ell=1, gamma=0.0, epsilon=0.05)
    assert qkd._batch_rows(params.n) == 2
    for seed in (0, 1):
        paths.clear()
        agg = run_eqkd_trials(params, epr_device(4), 5, seed=seed)
        assert agg["trials"] == 5
        assert all(p[0] == seed for p in paths)
        # one syndrome code per run: its shape paths are drawn once
        assert len(paths) == len(set(paths))
        batch_paths = [p[1:] for p in paths if p[1] != qkd._CODE_STREAM]
        assert batch_paths == [(stream, b) for b in range(3)
                               for stream in (qkd._ROUND_STREAM, qkd._BATCH_STREAM)]


def test_quantum_device_builds_its_table_with_one_conditional_stack_call(monkeypatch):
    import monogamy.quantum_device as quantum_device
    calls = []

    def counting(game, rho):
        calls.append(game.rounds)
        return conditional_stack(game, rho)

    monkeypatch.setattr(quantum_device, "conditional_stack", counting)
    device = epr_device(3)
    assert calls == [1]  # one round's table serves every round
    theta = rng_for(5).integers(0, 2, size=(64, 3), dtype=np.uint8)
    x, y = device.sample(theta, rng_for(6))
    np.testing.assert_array_equal(x, y)
    assert x.shape == theta.shape
    assert calls == [1]


def test_quantum_device_rejects_a_povm_of_the_wrong_length():
    # a valid strategy whose parties name one of three outcomes, not four:
    # the two-round measurement with its last two outcomes merged
    povms = bb84_povms(2)
    merged = np.concatenate([povms[:, :2], povms[:, 2:].sum(axis=1, keepdims=True)], axis=1)
    strategy = device_strategy(maximally_entangled_density(4), merged)
    with pytest.raises(ValidationError, match="outcome count"):
        TripartiteQuantumDevice(strategy)


def device_table(device: TripartiteQuantumDevice) -> np.ndarray:
    """One block's p(x, y | theta) as a (2^m, 2^m, 2^m) array, read back
    from the device's cumulative rows."""
    size = 2**device.block
    cdf = device._cdf.reshape(size, -1) - (np.arange(size, dtype=np.int64) << 53)[:, None]
    return np.diff(cdf, axis=1, prepend=0).reshape(size, size, size) / 2.0**53


def random_device(n: int, dim: int, extra: int, rng):
    """A random state on 2^n x dim x extra dimensions and a random POVM of
    2^n outcomes on the device's dim for each basis string."""
    state = random_density(2**n * dim * extra, rng)
    povms = np.array([random_povm(dim, 2**n, rng) for _ in range(2**n)])
    return state, povms


@pytest.mark.parametrize("n, dim, extra", [(1, 1, 1), (1, 2, 1), (1, 3, 2), (2, 2, 1),
                                           (2, 3, 1), (2, 2, 2)])
def test_quantum_device_table_matches_the_dense_trace(n, dim, extra):
    # tr[(F_x^theta ⊗ P_y^theta ⊗ 1) rho], written out with dense tensor products
    rng = rng_for(31, n, dim, extra)
    elements = bb84_game().elements
    for _ in range(3):
        state, povms = random_device(n, dim, extra, rng)
        table = device_table(TripartiteQuantumDevice(device_strategy(state, povms)))
        for theta in range(2**n):
            bits = [(theta >> (n - 1 - i)) & 1 for i in range(n)]
            for x in range(2**n):
                f = linalg.tensor(*[elements[b, (x >> (n - 1 - i)) & 1]
                                    for i, b in enumerate(bits)])
                for y in range(2**n):
                    op = linalg.tensor(f, povms[theta, y], np.eye(extra))
                    assert abs(table[theta, x, y] - np.trace(op @ state).real) <= 1e-12


def test_quantum_device_samples_its_table():
    # every (basis, x, y) cell of a random two-round device, within 5 sigma
    state, povms = random_device(2, 2, 1, rng_for(8))
    device = TripartiteQuantumDevice(device_strategy(state, povms))
    table = device_table(device)
    rows = 2**18
    theta = rng_for(9).integers(0, 2, size=(rows, 2), dtype=np.uint8)
    x, y = device.sample(theta, rng_for(10))
    basis, xs, ys = (qkd._pack(bits).astype(int) for bits in (theta, x, y))
    counts = np.zeros(table.shape)
    np.add.at(counts, (basis, xs, ys), 1)
    per_basis = np.bincount(basis, minlength=4)[:, None, None]
    sigma = np.sqrt(table * (1 - table) * per_basis)
    assert np.all(np.abs(counts - table * per_basis) <= 5 * sigma + 1e-9)


@pytest.mark.parametrize("n", range(1, 6))
def test_epr_device_outcomes_match(n):
    theta = rng_for(12, n).integers(0, 2, size=(4096, n), dtype=np.uint8)
    x, y = epr_device(n).sample(theta, rng_for(13, n))
    np.testing.assert_array_equal(x, y)
    assert abs(x.mean() - 0.5) <= 5 * math.sqrt(0.25 / x.size)


def test_a_seesaw_strategy_plays_as_a_device():
    # the strategy the search returns, unchanged: Bob names Alice's outcome
    # string at his exact rate, (1/4) sum_theta sum_x tr[(F_x ⊗ P_x ⊗ 1) rho],
    # over 2^16 rows within 5 sigma
    game = game_power(bb84_game(), 2)
    strategy = seesaw(game, SeesawConfig(bob_dim=2, charlie_dim=2, restarts=2)).strategy
    device = TripartiteQuantumDevice(strategy)
    states = conditional_stack(game, strategy.rho_abc).reshape(4, 4, 2, 2, 2, 2)
    exact = np.einsum("txij,txjeie->", strategy.bob, states).real / 4
    rows = 2**16
    x, y = device.sample(rng_for(14).integers(0, 2, size=(rows, 2), dtype=np.uint8), rng_for(15))
    rate = (x == y).all(axis=1).mean()
    assert abs(rate - exact) <= 5 * math.sqrt(exact * (1 - exact) / rows)


def test_quantum_device_plays_a_product_of_a_two_round_strategy_block_by_block():
    # the seesaw's dense bb84^2 strategy played three times: six rounds in
    # blocks of two, each drawn from the dense strategy's own table
    dense = seesaw(game_power(bb84_game(), 2), SeesawConfig(bob_dim=4, charlie_dim=4,
                                                            restarts=4)).strategy
    single = TripartiteQuantumDevice(dense)
    product = TripartiteQuantumDevice(product_strategy(dense, 3))
    assert (product.n, product.block) == (6, 2)
    np.testing.assert_array_equal(device_table(product), device_table(single))
    theta = rng_for(23).integers(0, 2, size=(5000, 6), dtype=np.uint8)
    x, y = product.sample(theta, rng_for(24))
    x1, y1 = single.sample(theta.reshape(-1, 2), rng_for(24))
    np.testing.assert_array_equal(x, x1.reshape(theta.shape))
    np.testing.assert_array_equal(y, y1.reshape(theta.shape))


def test_quantum_device_reads_a_strategy_in_its_own_basis_order():
    # the same EPR strategy with its bases listed in reverse plays as the
    # strategy in basis-label order
    s = device_strategy(maximally_entangled_density(4), bb84_povms(2))
    reversed_order = Strategy(s.rho_abc, s.dims, s.bob[::-1], s.charlie[::-1], s.thetas[::-1])
    np.testing.assert_array_equal(device_table(TripartiteQuantumDevice(reversed_order)),
                                  device_table(TripartiteQuantumDevice(s)))


def test_quantum_device_plays_a_product_round_by_round_with_its_round_table():
    # a product of three copies of a random one-round strategy: the one
    # round's table, and every round a block drawn from it in row order
    state, povms = random_device(1, 2, 2, rng_for(18))
    one_round = device_strategy(state, povms)
    single = TripartiteQuantumDevice(one_round)
    product = TripartiteQuantumDevice(product_strategy(one_round, 3))
    assert (product.n, product.block) == (3, 1)
    np.testing.assert_array_equal(device_table(product), device_table(single))
    theta = rng_for(19).integers(0, 2, size=(5000, 3), dtype=np.uint8)
    x, y = product.sample(theta, rng_for(20))
    x1, y1 = single.sample(theta.reshape(-1, 1), rng_for(20))
    np.testing.assert_array_equal(x, x1.reshape(theta.shape))
    np.testing.assert_array_equal(y, y1.reshape(theta.shape))


@pytest.mark.parametrize("n", [64, 4096])
def test_an_unentangled_product_wins_each_round_at_the_game_value(n):
    # the optimal strategy without quantum memory, played in every round:
    # Bob names Alice's outcome in each round at the one-round BB84 value,
    # over 2^18 rounds within 5 sigma
    device = TripartiteQuantumDevice(product_strategy(bb84_optimal_unentangled_strategy(), n))
    theta = rng_for(21, n).integers(0, 2, size=(2**18 // n, n), dtype=np.uint8)
    x, y = device.sample(theta, rng_for(22, n))
    rate = (x == y).mean()
    sigma = math.sqrt(BB84_ROUND_VALUE * (1 - BB84_ROUND_VALUE) / x.size)
    assert abs(rate - BB84_ROUND_VALUE) <= 5 * sigma


def test_a_dense_device_draw_is_pinned():
    # a random two-round device on more rows than one chunk of draws: the
    # outcomes drawn a chunk at a time are those of one draw for every row
    rng = rng_for(8)
    state = random_density(8, rng)
    povms = np.array([random_povm(2, 4, rng) for _ in range(4)])
    device = TripartiteQuantumDevice(device_strategy(state, povms))
    theta = rng_for(16).integers(0, 2, size=(2**15 + 3, 2), dtype=np.uint8)
    x, y = device.sample(theta, rng_for(17))
    assert (int(qkd._pack(x).sum()), int(qkd._pack(y).sum()),
            int((x == y).all(axis=1).sum())) == (42040, 48324, 8860)
    assert hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest() == \
        "16d17b0b26515da31983abdb9cf62d788dc595ac6f43a99dc25a247616670a7d"


def test_epr_device_runs_the_long_benchmark_parameters():
    # 50 trials of 4,096 rounds: every round's outcomes agree, so every
    # trial completes, decodes and agrees on its key
    params = QkdParams(n=4096, t=512, s=869, ell=1024, gamma=0.02, epsilon=0.02)
    agg = run_eqkd_trials(params, epr_device(4096), 50, seed=1)
    assert (agg["completed"], agg["key_matches"], agg["decode_failures"]) == (50, 50, 0)


@pytest.mark.parametrize("spoil", ["scaled", "not-psd"])
def test_quantum_device_refuses_a_stack_that_is_not_a_povm(spoil):
    povms = bb84_povms(2)
    if spoil == "scaled":
        povms[1, 2] *= 1.1
    else:
        povms[3, 0] *= -1
    with pytest.raises(ValidationError):
        TripartiteQuantumDevice(device_strategy(maximally_entangled_density(4), povms))


@pytest.mark.parametrize("n, t", [(64, 16), (4096, 512)])
def test_sample_mask_marks_t_rounds_uniformly(n, t):
    # 2^16 rows: each marks exactly t rounds, and each round is marked at a
    # rate within 5 sigma of t/n
    rows, step = 2**16, max(1, 2**22 // n)
    rng = rng_for(41, n)
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(rows // step):
        mask = qkd._sample_mask(rng, (step, n), t)
        assert (np.count_nonzero(mask, axis=1) == t).all()
        counts += np.count_nonzero(mask, axis=0)
    p = t / n
    assert np.abs(counts - rows * p).max() <= 5 * math.sqrt(rows * p * (1 - p))


def test_key_rounds_are_the_ascending_complement_of_the_sample_set():
    # without syndrome bits nothing is corrected, so each completed row's
    # corrected word is Bob's key rounds as received
    params = qp(n=64, t=16, s=0, ell=16, gamma=0.4)
    code = LinearCode(params.n - params.t, 0, seed=7)
    batch = qkd._trial_batch(params, HonestNoisyDevice(0.2), code, 7, 0, 300)
    blocks = list(batch.completed)
    rows = np.flatnonzero(~batch.aborted)
    assert 0 < rows.size < 300
    x_rest, x_hat = (np.concatenate([getattr(b, name) for b in blocks])
                     for name in ("x_rest", "x_hat"))
    for i, row in enumerate(rows):
        rest = np.setdiff1d(np.arange(params.n), np.flatnonzero(batch.sample[row]))
        np.testing.assert_array_equal(x_rest[i], batch.x[row, rest])
        np.testing.assert_array_equal(x_hat[i], batch.y[row, rest])


@pytest.mark.parametrize("make_device, noise", [(lambda: HonestNoisyDevice(0.1), 0.1),
                                                (lambda: epr_device(4), 0.0)])
def test_simulate_is_the_one_trial_batch_of_run_trials(make_device, noise):
    params = qp(n=4, t=1, s=2, ell=2, gamma=0.0) if noise == 0.0 else qp(gamma=0.1)
    for seed in range(6):
        tr = simulate_eqkd(params, make_device(), seed=seed)
        agg = run_eqkd_trials(params, make_device(), 1, seed=seed)
        assert agg["aborts"] == int(tr.aborted)
        assert agg["key_matches"] == int(not tr.aborted and np.array_equal(tr.key, tr.key_hat))
        assert agg["hoeffding_violations"] == \
            int(tr.full_error_rate > tr.sample_error_rate + params.epsilon)


def test_run_trials_classical_stream_is_pinned():
    # the bench's short QKD parameters at 1,000 trials; these counts fix
    # the classical device's stream: a change to what a batch draws, or in
    # which order, moves them
    params = qp(n=64, t=16, s=16, ell=16, gamma=0.05, epsilon=0.05)
    agg = run_eqkd_trials(params, HonestNoisyDevice(0.01), 1000, seed=0)
    assert (agg["aborts"], agg["completed"], agg["key_matches"],
            agg["hoeffding_violations"]) == (133, 867, 865, 2)
    assert agg["key_match_rate"] == 865 / 867


def test_run_trials_classical_stream_is_pinned_at_protocol_scale():
    # the bench's long QKD parameters: 4,096 rounds, 56 decode chunks and a
    # 1,024-bit hash per trial
    params = QkdParams(n=4096, t=512, s=869, ell=1024, gamma=0.02, epsilon=0.02)
    agg = run_eqkd_trials(params, HonestNoisyDevice(0.003), 5, seed=0)
    assert (agg["aborts"], agg["completed"], agg["decode_failures"], agg["key_matches"],
            agg["hoeffding_violations"]) == (0, 5, 0, 5, 0)
    tr = simulate_eqkd(params, HonestNoisyDevice(0.003), seed=0)
    assert not tr.aborted
    assert [int(getattr(tr, name).sum()) for name in ("syndrome", "hash_seed", "key", "key_hat")] \
        == [431, 2316, 520, 520]
    assert int((tr.key != tr.key_hat).sum()) == 0


def test_protocol_scale_keys_match():
    # the bench's long QKD run: 64-bit chunks with 15 or 16 syndrome rows
    # correct the 0.3% flips of nearly every trial
    params = QkdParams(n=4096, t=512, s=869, ell=1024, gamma=0.02, epsilon=0.02)
    agg = run_eqkd_trials(params, HonestNoisyDevice(0.003), 50, seed=0)
    assert agg["completed"] == 50
    assert agg["key_matches"] >= 45


def test_decode_failures_bracket_the_key_mismatches():
    for params, noise in ((qp(gamma=0.1), 0.02), (qp(s=0, gamma=0.2), 0.05)):
        agg = run_eqkd_trials(params, HonestNoisyDevice(noise), 300, seed=3)
        mismatches = agg["completed"] - agg["key_matches"]
        assert mismatches <= agg["decode_failures"] <= agg["completed"]
    # with no syndrome nothing is corrected, so noise in the key rounds fails
    assert agg["decode_failures"] >= 1
    assert run_eqkd_trials(qp(), HonestNoisyDevice(0.0), 300, seed=3)["decode_failures"] == 0


@pytest.mark.parametrize("params, noise, trials", [
    (qp(gamma=0.1), 0.02, 300), (qp(s=48, gamma=0.2), 0.08, 300),
    (QkdParams(n=4096, t=512, s=869, ell=1024, gamma=0.02, epsilon=0.02), 0.003, 50)])
def test_decode_unresolved_counts_only_failures(params, noise, trials):
    # a chunk with no leader keeps a word that misses its syndrome, so it
    # fails to decode; a noiseless run has nothing to resolve
    agg = run_eqkd_trials(params, HonestNoisyDevice(noise), trials, seed=3)
    assert 0 <= agg["decode_unresolved"] <= agg["decode_failures"]
    assert run_eqkd_trials(params, HonestNoisyDevice(0.0), trials, seed=3)["decode_unresolved"] == 0


def test_run_trials_quantum_device_path():
    params = QkdParams(n=2, t=1, s=0, ell=1, gamma=0.0, epsilon=0.05)
    agg = run_eqkd_trials(params, epr_device(2), 30, seed=2)
    assert agg["aborts"] == 0
    assert agg["key_match_rate"] == 1.0


# ---------------------------------------------------------------------------
# conditioned-security comparison


def cq(weights, conds) -> CqEnsemble:
    labels = tuple(str(i) for i in range(len(weights)))
    return CqEnsemble(labels, np.asarray(weights, dtype=float),
                      {labels[i]: conds[i] for i in range(len(conds))})


def test_secdef_gap_equal_states_is_tight():
    e = cq([0.5, 0.5], [KET0, KET1])
    lhs, rhs = secdef_gap(e, e, lambda x: x == "0")
    assert lhs <= rhs + 1e-12
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_secdef_gap_perturbed_against_ideal(rng):
    # ideal: uniform symbol, product side information; under the trivial
    # event the conditioned ideal term vanishes, so the real state's
    # conditioned distance is controlled by 5x the distance to the ideal
    sigma = random_density(2, rng)
    ideal = cq([0.5, 0.5], [sigma, sigma])
    for eta in (0.0, 0.05, 0.3):
        other = random_density(2, rng)
        real = cq([0.5 + eta / 2, 0.5 - eta / 2],
                  [(1 - eta) * sigma + eta * other, sigma])
        lhs, rhs = secdef_gap(real, ideal, lambda x: True)
        assert lhs <= rhs + 1e-10
        between = linalg.trace_distance(real.joint_density(),
                                        ideal.joint_density())
        assert rhs == pytest.approx(5 * between, abs=1e-10)
        assert between <= eta + 1e-10


def test_secdef_gap_null_event_gives_zero_lhs():
    e = cq([0.5, 0.5], [KET0, KET1])
    lhs, rhs = secdef_gap(e, e, lambda x: False)
    assert lhs == 0.0
    assert rhs >= 0.0


def test_secdef_gap_random_instances(rng):
    for _ in range(40):
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 4))
        w1 = rng.dirichlet(np.ones(k))
        w2 = rng.dirichlet(np.ones(k))
        e1 = cq(w1, [random_density(dim, rng) for _ in range(k)])
        e2 = cq(w2, [random_density(dim, rng) for _ in range(k)])
        keep = set(str(i) for i in range(k) if rng.random() < 0.5)
        lhs, rhs = secdef_gap(e1, e2, lambda x: x in keep)
        assert lhs <= rhs + 1e-9


def test_secdef_gap_alphabet_mismatch():
    e1 = cq([0.5, 0.5], [KET0, KET1])
    e2 = CqEnsemble(("a", "b"), np.array([0.5, 0.5]), {"a": KET0, "b": KET1})
    with pytest.raises(ValidationError):
        secdef_gap(e1, e2, lambda x: True)
