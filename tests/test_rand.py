"""The Monte-Carlo samplers: packed fair bits and byte-threshold Bernoulli
flips, their definitions, their draws from the generator, and their rates;
and the random projective measurements that start a seesaw."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from monogamy.errors import DomainError
from monogamy.rand import (bernoulli, haar_unitary, random_bits, random_projective_povm,
                           rng_for)


def _words(rng, count):
    return rng.integers(0, 2**64, size=count, dtype=np.uint64)


def _same_state(a, b) -> bool:
    """Whether two bit-generator states, nested dicts of scalars and arrays,
    are equal."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def _word_bytes(words):
    """Byte m of each word is bits 8m .. 8m + 7 of its value: little-endian
    order, spelled out with shifts rather than a byte view."""
    return ((words[:, None] >> (8 * np.arange(8, dtype=np.uint64))) & 0xFF) \
        .astype(np.uint8).ravel()


@pytest.mark.parametrize("size", [1, 63, 64, 65, 1000])
def test_random_bits_are_the_words_msb_first_per_little_endian_byte(size):
    rng, twin = rng_for(3, size), rng_for(3, size)
    bits = random_bits(rng, (size,))
    words = _words(twin, -(-size // 64))
    # bit j is bit 7 - j % 8 of byte j // 8
    j = np.arange(size)
    expected = (_word_bytes(words)[j // 8] >> (7 - j % 8)) & 1
    np.testing.assert_array_equal(bits, expected)
    assert bits.dtype == np.uint8
    assert _same_state(rng.bit_generator.state, twin.bit_generator.state)


@pytest.mark.parametrize("shape", [(0, 5), (3,), (1, 1)])
def test_samplers_take_any_shape(shape):
    for draw in (random_bits(rng_for(0), shape), bernoulli(rng_for(0), 0.3, shape)):
        assert draw.shape == shape
        assert draw.dtype == np.uint8
        assert set(np.unique(draw)) <= {0, 1}


def test_bernoulli_at_zero_and_one():
    assert not bernoulli(rng_for(1), 0.0, (100, 100)).any()
    assert bernoulli(rng_for(1), 1.0, (100, 100)).all()


@pytest.mark.parametrize("k", [0, 1, 37, 128, 255, 256])
def test_bernoulli_on_the_byte_grid_draws_no_float(k):
    size = 10_000
    rng, twin = rng_for(5, k), rng_for(5, k)
    flips = bernoulli(rng, k / 256, (size,))
    draws = _word_bytes(_words(twin, -(-size // 8)))[:size]
    # a byte equal to k is 0 and draws no float
    np.testing.assert_array_equal(flips, draws < k)
    assert _same_state(rng.bit_generator.state, twin.bit_generator.state)


@pytest.mark.parametrize("k", [0, 37, 255])
def test_bernoulli_ties_draw_a_float_each(k):
    size = 2**20
    rng, twin = rng_for(6, k), rng_for(6, k)
    flips = bernoulli(rng, (k + 0.5) / 256, (size,))
    draws = _word_bytes(_words(twin, size // 8))
    ties = draws == k
    np.testing.assert_array_equal(flips[~ties], draws[~ties] < k)
    # each tie is 1 with probability 1/2; about 4,096 of them
    tied = flips[ties]
    assert abs(tied.mean() - 0.5) <= 5 * math.sqrt(0.25 / tied.size)
    # the ties drew one float each, in index order
    np.testing.assert_array_equal(tied, twin.random(tied.size) < 0.5)
    assert _same_state(rng.bit_generator.state, twin.bit_generator.state)


@pytest.mark.parametrize("p", [1.0 - math.cos(math.pi / 8) ** 2, 0.003])
def test_bernoulli_rate_is_exact(p):
    trials = 10**7
    mean = bernoulli(rng_for(7), p, (trials,)).mean()
    assert abs(mean - p) <= 5 * math.sqrt(p * (1 - p) / trials)


@pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
def test_bernoulli_refuses_a_probability_outside_the_unit_interval(p):
    with pytest.raises(DomainError):
        bernoulli(rng_for(0), p, (4,))


@pytest.mark.parametrize("dim, outcomes", [(1, 512), (2, 16), (3, 4), (4, 4), (4, 64)])
def test_random_projective_povm_is_its_definition(dim, outcomes):
    # every outcome's projector onto the Haar columns dealt to it, from the
    # same draws; an outcome dealt no column is the zero matrix
    for seed in range(5):
        rng = rng_for(seed, dim, outcomes)
        u = haar_unitary(dim, rng)
        slots = (np.arange(dim) + rng.integers(outcomes)) % outcomes
        rng.shuffle(slots)
        expected = np.array([u[:, slots == x] @ u[:, slots == x].conj().T
                             for x in range(outcomes)])
        povm = random_projective_povm(dim, outcomes, rng_for(seed, dim, outcomes))
        assert povm.dtype == expected.dtype
        np.testing.assert_array_equal(povm, expected)
        assert np.array_equal(np.signbit(povm.view(float)), np.signbit(expected.view(float)))


def test_complex_haar_draws_are_pinned():
    # the complex stream that starts a complex seesaw, as it was drawn
    # before real games got real starts
    rng = rng_for(7, 1)
    draws = [haar_unitary(d, rng) for d in (1, 2, 3, 4, 8)]
    draws += [random_projective_povm(4, 2, rng), random_projective_povm(3, 4, rng)]
    assert all(a.dtype == np.complex128 for a in draws)
    assert hashlib.sha256(b"".join(a.tobytes() for a in draws)).hexdigest() == \
        "dea60d49d9460b7d0711ec3094de14580d858df54265ef9b05d8fffd1fba554f"


@pytest.mark.parametrize("dim, outcomes", [(1, 2), (2, 2), (3, 4), (4, 4), (4, 64), (8, 3)])
def test_real_projective_povms_are_real_symmetric_projectors_summing_to_one(dim, outcomes):
    for seed in range(5):
        povm = random_projective_povm(dim, outcomes, rng_for(seed, dim, outcomes), float)
        assert povm.dtype == np.float64 and povm.shape == (outcomes, dim, dim)
        np.testing.assert_array_equal(povm, povm.swapaxes(-1, -2))
        np.testing.assert_allclose(povm @ povm, povm, atol=1e-12)
        np.testing.assert_allclose(povm.sum(axis=0), np.eye(dim), atol=1e-12)
        # the columns are dealt as evenly as possible
        ranks = np.rint(np.trace(povm, axis1=1, axis2=2)).astype(int)
        assert ranks.sum() == dim and ranks.max() - ranks.min() <= 1


def test_real_haar_draws_have_the_moments_of_haar_o4():
    # an entry q of a Haar O(d) matrix has E q = 0, E q^2 = 1/d and
    # E q^4 = 3 / (d (d + 2)); QR alone, without the sign fix, gives
    # q_00 of one sign
    draws, d = 20_000, 4
    rng = rng_for(41)
    q = np.array([haar_unitary(d, rng, float)[0, 0] for _ in range(draws)])
    second, fourth = 1 / d, 3 / (d * (d + 2))
    assert abs(q.mean()) <= 5 * math.sqrt(second / draws)
    assert abs((q**2).mean() - second) <= 5 * math.sqrt((fourth - second**2) / draws)

