"""Closed-form bound formulas and the binary entropy."""

from __future__ import annotations

import math
import sys
from decimal import Context, Decimal

import pytest
from hypothesis import given, strategies as st

from monogamy import bounds
from monogamy.errors import DomainError

# frozen oracle values (mpmath, 50 digits)
H_011 = 0.499915958164528
H_0015 = 0.11236071009937673
BETA2 = 0.7285533905932737
BETA10 = 0.20526122593149476
IMPERFECT_011 = 1.2070364652071786
SAME_STRING_0015 = 0.9226874974889537


def test_round_value_is_computed_not_hardcoded():
    assert bounds.BB84_ROUND_VALUE == 0.5 + 0.5 / math.sqrt(2.0)
    assert bounds.BB84_ROUND_VALUE == pytest.approx(math.cos(math.pi / 8) ** 2,
                                                    abs=1e-15)


def test_binary_entropy_endpoints():
    assert bounds.binary_entropy(0.0) == 0.0
    assert bounds.binary_entropy(1.0) == 0.0
    assert bounds.binary_entropy(0.5) == 1.0


def test_binary_entropy_oracle_values():
    assert bounds.binary_entropy(0.11) == pytest.approx(H_011, abs=1e-14)
    assert bounds.binary_entropy(0.015) == pytest.approx(H_0015, abs=1e-14)
    assert bounds.binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-14)


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        bounds.binary_entropy(-0.01)
    with pytest.raises(DomainError):
        bounds.binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_properties(p):
    h = bounds.binary_entropy(p)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(bounds.binary_entropy(1.0 - p), abs=1e-12)


def test_bb84_parallel_values():
    assert bounds.bb84_parallel_value(1) == bounds.BB84_ROUND_VALUE
    assert bounds.bb84_parallel_value(2) == pytest.approx(BETA2, abs=1e-15)
    assert bounds.bb84_parallel_value(10) == pytest.approx(BETA10, rel=1e-14)


def test_bb84_parallel_value_rejects_nonpositive():
    with pytest.raises(DomainError):
        bounds.bb84_parallel_value(0)


def test_general_bound_reduces_to_bb84():
    for n in range(1, 11):
        assert bounds.general_upper_bound(0.5, 2, 1, n) == \
            bounds.bb84_parallel_value(n)


def test_general_bound_collapses_at_full_overlap():
    for n in (1, 3, 10):
        for thetas in (2, 3, 5):
            assert bounds.general_upper_bound(1.0, thetas, 1, n) == \
                pytest.approx(1.0, abs=1e-12)


def test_general_bound_can_be_vacuous():
    value = bounds.general_upper_bound(0.5, 2, 4, 2)
    assert value == pytest.approx(4 * BETA2, rel=1e-14)
    assert value > 1.0
    assert bounds.vacuous(value)


def test_imperfect_guessing_reduces_to_general():
    for n in (1, 2, 5):
        assert bounds.imperfect_guessing_bound(0.5, 2, n, 0.0, 0.0) == \
            bounds.general_upper_bound(0.5, 2, 1, n)


def test_imperfect_guessing_oracle_value():
    assert bounds.imperfect_guessing_bound(0.5, 2, 1, 0.11, 0.0) == \
        pytest.approx(IMPERFECT_011, rel=1e-13)


def test_imperfect_guessing_monotone_in_gamma():
    lo = bounds.imperfect_guessing_bound(0.5, 2, 3, 0.01, 0.0)
    hi = bounds.imperfect_guessing_bound(0.5, 2, 3, 0.05, 0.0)
    assert lo < hi


def test_imperfect_guessing_domain():
    with pytest.raises(DomainError):
        bounds.imperfect_guessing_bound(0.5, 2, 1, 0.6, 0.0)
    with pytest.raises(DomainError):
        bounds.imperfect_guessing_bound(0.5, 2, 1, 0.0, -0.1)


def test_same_string_bound_values():
    assert bounds.same_string_bound(0.5, 2, 1, 0.0) == bounds.BB84_ROUND_VALUE
    assert bounds.same_string_bound(0.5, 2, 1, 0.015) == \
        pytest.approx(SAME_STRING_0015, rel=1e-13)


def test_same_string_equals_imperfect_with_zero_prime():
    for gamma in (0.0, 0.05, 0.25, 0.5):
        for n in (1, 4):
            assert bounds.same_string_bound(0.5, 2, n, gamma) == \
                bounds.imperfect_guessing_bound(0.5, 2, n, gamma, 0.0)


def test_bounds_decay_when_single_round_factor_below_one():
    prev = None
    for n in range(1, 12):
        value = bounds.general_upper_bound(0.5, 2, 1, n)
        if prev is not None:
            assert value < prev
        prev = value


def test_pow2_never_rounds_below_the_power():
    # normal results keep the bits of 2.0**e; below 2^-1022 a subnormal is
    # rounded up, and below 2^-1074 the smallest positive float stands in
    for e in (-1022.0, -1000.5, -1.0, 0.0, 0.5, 1023.5):
        assert bounds._pow2(e) == 2.0**e
    assert bounds._pow2(1024.0) == math.inf
    tiny = math.ulp(0.0)
    for e in (-1074.0, -1e6, -math.inf):
        assert bounds._pow2(e) == tiny
    for e in (-1073.9, -1050.25, -1022.5):
        assert bounds._pow2(e) == math.nextafter(2.0**e, math.inf)
        assert math.log2(bounds._pow2(e)) >= e


def test_scaled_exp_never_rounds_below_the_exponential():
    # a normal product keeps the bits of factor * math.exp(x); below the
    # normal range it is 2 to the log2 of the product, rounded up, never 0.0
    for factor, x in ((5.0, -0.08), (1.0, -0.4096), (5.0, -700.0), (1.0, -708.0), (5.0, 0.0)):
        assert bounds._scaled_exp(factor, x) == factor * math.exp(x)
    for factor, x in ((5.0, -740.0), (1.0, -720.0), (5.0, -2000.0), (1.0, -829.44)):
        value = bounds._scaled_exp(factor, x)
        assert factor * math.exp(x) < sys.float_info.min
        assert value == bounds._pow2(math.log2(factor) + x / math.log(2)) > 0.0
        # against 50 digits: not below e^x, and within a few subnormal steps of it
        exact = Decimal(factor) * Decimal(x).exp(Context(prec=50))
        assert exact <= Decimal(value) <= exact + 4 * Decimal(math.ulp(0.0))


@pytest.mark.parametrize("value", [
    lambda: bounds.bb84_parallel_value(5000),
    lambda: bounds.general_upper_bound(0.5, 2, 3, 100_000),
    lambda: bounds.imperfect_guessing_bound(0.5, 2, 100_000, 0.0, 0.0)])
def test_a_bound_below_the_float_range_stays_positive(value):
    # 2^-1142 and less: the smallest positive float bounds it, 0.0 does not
    assert value() == math.ulp(0.0)


def test_vacuous_is_one_or_more():
    # the one rule of the game bounds, the soundness bounds and the QKD delta
    assert bounds.vacuous(1.0) and bounds.vacuous(math.inf) and bounds.vacuous(math.nan)
    assert not bounds.vacuous(0.999) and not bounds.vacuous(0.0)


def test_non_integer_counts_are_refused_not_truncated():
    from monogamy import uncertainty

    calls = {
        "bb84_parallel_value n": lambda: bounds.bb84_parallel_value(2.5),
        "general_upper_bound theta_count": lambda: bounds.general_upper_bound(0.5, 2.5, 1, 1),
        "general_upper_bound q_cardinality": lambda: bounds.general_upper_bound(0.5, 2, 2.5, 1),
        "general_upper_bound n": lambda: bounds.general_upper_bound(0.5, 2, 1, 2.5),
        "imperfect_guessing_bound theta_count":
            lambda: bounds.imperfect_guessing_bound(0.5, 2.5, 1, 0.0, 0.0),
        "imperfect_guessing_bound n": lambda: bounds.imperfect_guessing_bound(0.5, 2, 2.5, 0.0, 0.0),
        "soundness_bound n": lambda: bounds.soundness_bound(2.5),
        "ur_bound_n n": lambda: uncertainty.ur_bound_n(0.5, 2.5),
        "entangled_soundness_bound n": lambda: bounds.entangled_soundness_bound(2.5, 3),
        "entangled_soundness_bound d": lambda: bounds.entangled_soundness_bound(3, 2.5),
    }
    for what, call in calls.items():
        with pytest.raises(DomainError, match=f"{what.split()[1]} must be a positive integer"):
            call()
    with pytest.raises(DomainError, match="theta_count must be at least 2"):
        bounds.general_upper_bound(0.5, 1, 1, 1)
    # an integer of another type still counts
    assert bounds.general_upper_bound(0.5, 2.0, 1.0, 2.0) == bounds.bb84_parallel_value(2)
