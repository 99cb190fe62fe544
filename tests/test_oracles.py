"""The operator-norm oracles of conftest: the largest singular value and the
operator-sum bound of the paper's cross-term lemma, after Kittaneh (1997)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from monogamy import linalg
from monogamy.errors import DimensionError, NotPsdError, ValidationError

from conftest import cyclic_permutations, kittaneh_sum_bound, random_psd, schatten_inf_norm

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# schatten_inf_norm


def test_norm_of_real_diagonal():
    assert schatten_inf_norm(np.diag([3.0, -5.0])) == 5.0


def test_norm_of_identity():
    for d in (1, 2, 7):
        assert schatten_inf_norm(np.eye(d)) == pytest.approx(1.0, abs=1e-14)


def test_norm_of_nilpotent_block():
    # singular values of [[0,1],[0,0]] are (1, 0): M^dag M = diag(0, 1)
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    assert schatten_inf_norm(m) == pytest.approx(1.0, abs=1e-14)


def test_norm_rejects_non_square():
    with pytest.raises(DimensionError):
        schatten_inf_norm(np.ones((2, 3)))


def test_norm_matches_top_eigenvalue_on_psd(rng):
    for _ in range(25):
        a = random_psd(5, rng)
        top = np.linalg.eigvalsh(a)[-1]
        assert schatten_inf_norm(a) == pytest.approx(top, rel=1e-12)


# ---------------------------------------------------------------------------
# norm monotonicity: A^dag A >= B^dag B implies ||AL|| >= ||BL||


def test_norm_monotonicity_under_contraction(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        scale = rng.uniform(0.0, 1.0)
        b = scale * a
        ell = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert schatten_inf_norm(a @ ell) >= \
            schatten_inf_norm(b @ ell) - 1e-9


# ---------------------------------------------------------------------------
# kittaneh_sum_bound


def test_sum_bound_single_operator(rng):
    a = random_psd(4, rng)
    lhs, rhs = kittaneh_sum_bound([a], [(0,)])
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lhs == pytest.approx(schatten_inf_norm(a), rel=1e-12)


def test_sum_bound_equality_for_identical_identities():
    perms = cyclic_permutations(2)
    lhs, rhs = kittaneh_sum_bound([np.eye(2), np.eye(2)], perms)
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)


def test_sum_bound_equality_for_unbiased_projectors():
    # ||KET0 + PLUS|| = 1 + 1/sqrt(2): eigenvalues of the sum are 1 +- 1/sqrt(2)
    lhs, rhs = kittaneh_sum_bound([KET0, PLUS], cyclic_permutations(2))
    assert lhs == pytest.approx(1.0 + INV_SQRT2, abs=1e-12)
    assert rhs == pytest.approx(1.0 + INV_SQRT2, abs=1e-12)


def test_sum_bound_on_random_tuples(rng):
    for _ in range(60):
        n = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 9))
        ops = [random_psd(dim, rng, rank=int(rng.integers(1, dim + 1)))
               for _ in range(n)]
        lhs, rhs = kittaneh_sum_bound(ops, cyclic_permutations(n))
        assert lhs <= rhs + 1e-9


def test_two_operator_special_case(rng):
    # ||A1 + A2|| <= max(||A1||, ||A2||) + ||sqrt(A1) sqrt(A2)||
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        a1 = random_psd(dim, rng)
        a2 = random_psd(dim, rng)
        lhs = schatten_inf_norm(a1 + a2)
        cross = schatten_inf_norm(linalg.psd_sqrt(a1) @ linalg.psd_sqrt(a2))
        bound = max(schatten_inf_norm(a1), schatten_inf_norm(a2)) + cross
        assert lhs <= bound + 1e-9


def test_sum_bound_rejects_non_orthogonal_permutations(rng):
    ops = [random_psd(3, rng) for _ in range(2)]
    with pytest.raises(ValidationError):
        kittaneh_sum_bound(ops, [(0, 1), (0, 1)])


def test_sum_bound_rejects_wrong_permutation_count(rng):
    ops = [random_psd(3, rng) for _ in range(2)]
    with pytest.raises(ValidationError):
        kittaneh_sum_bound(ops, [(0, 1)])


def test_sum_bound_rejects_non_psd():
    bad = np.diag([1.0, -1.0])
    with pytest.raises(NotPsdError):
        kittaneh_sum_bound([bad, np.eye(2)], cyclic_permutations(2))
