"""Core linear algebra: square roots, trace distance, partial traces, predicates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from monogamy import linalg
from monogamy.errors import DimensionError, NotPsdError, ValidationError
from monogamy.games import MonogamyGame, bb84_game, overlap
from monogamy.rand import random_density, rng_for

from conftest import random_psd, reorder_systems

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# psd_sqrt


def test_sqrt_of_diagonal():
    np.testing.assert_allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_of_identity():
    np.testing.assert_allclose(linalg.psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)


def test_sqrt_of_projector_is_projector():
    np.testing.assert_array_equal(linalg.psd_sqrt(PLUS), PLUS)


def test_sqrt_squares_back(rng):
    for _ in range(30):
        a = random_psd(6, rng, rank=rng.integers(1, 7))
        s = linalg.psd_sqrt(a)
        assert linalg.hermitian_psd(s).all()
        assert np.max(np.abs(s @ s - a)) <= 1e-8


def test_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(NotPsdError):
        linalg.psd_sqrt(np.diag([1.0, -1e-6]))


def test_sqrt_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        linalg.psd_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# trace_distance


def test_trace_distance_of_identical_states():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert linalg.trace_distance(rho, rho) == 0.0


def test_trace_distance_of_orthogonal_pure_states():
    assert linalg.trace_distance(KET0, KET1) == pytest.approx(1.0, abs=1e-14)


def test_trace_distance_zero_vs_plus():
    # eigenvalues of |0><0| - |+><+| are +-1/sqrt(2)
    assert linalg.trace_distance(KET0, PLUS) == pytest.approx(INV_SQRT2, abs=1e-14)


def test_trace_distance_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        linalg.trace_distance(KET0, np.eye(3) / 3)


def test_trace_distance_rejects_non_density():
    with pytest.raises(ValidationError):
        linalg.trace_distance(2 * KET0, KET1)


def test_trace_distance_is_a_metric(rng):
    for _ in range(40):
        a = random_density(4, rng)
        b = random_density(4, rng)
        c = random_density(4, rng)
        dab = linalg.trace_distance(a, b)
        dba = linalg.trace_distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert 0.0 <= dab <= 1.0 + 1e-12
        assert dab <= linalg.trace_distance(a, c) + linalg.trace_distance(c, b) + 1e-10
        assert linalg.trace_distance(a, a) <= 1e-12


# ---------------------------------------------------------------------------
# tensor / partial_trace / reorder


def test_tensor_of_identities():
    np.testing.assert_array_equal(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_of_diagonals():
    np.testing.assert_array_equal(linalg.tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])),
                                  np.diag([3.0, 4.0, 6.0, 8.0]))


def test_tensor_of_basis_projectors():
    out = linalg.tensor(KET0, KET1)
    expect = np.zeros((4, 4), dtype=complex)
    expect[1, 1] = 1.0
    np.testing.assert_array_equal(out, expect)


def test_partial_trace_of_product_state(rng):
    for _ in range(20):
        a = random_density(3, rng)
        b = random_density(2, rng)
        joint = linalg.tensor(a, b)
        np.testing.assert_allclose(linalg.partial_trace(joint, (3, 2), keep=[0]),
                                   a, atol=1e-12)
        np.testing.assert_allclose(linalg.partial_trace(joint, (3, 2), keep=[1]),
                                   b, atol=1e-12)


def test_partial_trace_of_entangled_pair():
    phi = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            phi[i, j] = 0.5
    np.testing.assert_allclose(linalg.partial_trace(phi, (2, 2), keep=[1]),
                               np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keep_all_is_identity_map(rng):
    m = random_psd(6, rng)
    np.testing.assert_array_equal(linalg.partial_trace(m, (2, 3), keep=[0, 1]), m)


def test_partial_trace_keep_none_gives_trace(rng):
    m = random_psd(6, rng)
    out = linalg.partial_trace(m, (2, 3), keep=[])
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(np.trace(m), abs=1e-12)


def test_partial_trace_preserves_trace_and_is_linear(rng):
    m1 = random_psd(8, rng)
    m2 = random_psd(8, rng)
    dims = (2, 2, 2)
    t1 = linalg.partial_trace(m1, dims, keep=[1])
    t2 = linalg.partial_trace(m2, dims, keep=[1])
    combo = linalg.partial_trace(2.0 * m1 - 0.5 * m2, dims, keep=[1])
    np.testing.assert_allclose(combo, 2.0 * t1 - 0.5 * t2, atol=1e-10)
    assert np.trace(t1) == pytest.approx(np.trace(m1), rel=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionError):
        linalg.partial_trace(np.eye(6), (2, 2), keep=[0])


def test_reorder_systems_roundtrip(rng):
    dims = (2, 3, 2)
    m = random_psd(12, rng)
    swapped = reorder_systems(m, dims, (2, 0, 1))
    back = reorder_systems(swapped, (2, 2, 3), (1, 2, 0))
    np.testing.assert_allclose(back, m, atol=1e-13)


def test_reorder_systems_matches_kron_swap(rng):
    a = random_psd(2, rng)
    b = random_psd(3, rng)
    ab = linalg.tensor(a, b)
    ba = linalg.tensor(b, a)
    np.testing.assert_allclose(reorder_systems(ab, (2, 3), (1, 0)), ba,
                               atol=1e-13)


# ---------------------------------------------------------------------------
# measurement overlaps: games.overlap and psd_sqrt of a stack


def test_overlap_of_identical_projectors():
    game = MonogamyGame(2, ("0", "1"), ("0", "1"), np.array([[KET0, KET1], [KET0, KET1]]))
    assert overlap(game) == 1.0


def test_overlap_of_mutually_unbiased_projectors():
    assert overlap(bb84_game()) == 0.5


def test_overlap_of_orthogonal_projectors():
    # a projector stack is its own root, and orthogonal roots multiply to 0
    roots = linalg.psd_sqrt(np.array([KET0, KET1]))
    np.testing.assert_array_equal(roots, [KET0, KET1])
    assert np.abs(roots[0] @ roots[1]).max() == pytest.approx(0.0, abs=1e-14)


def test_psd_sqrt_of_a_stack_is_each_matrix_root(rng):
    # projectors are kept, the rest rooted, each bit for bit as alone
    stack = np.array([[random_psd(3, rng), np.diag([1.0, 0.0, 1.0])],
                      [random_psd(3, rng, rank=1), np.diag([4.0, 9.0, 0.0])]])
    roots = linalg.psd_sqrt(stack)
    for idx in np.ndindex(stack.shape[:2]):
        np.testing.assert_array_equal(roots[idx], linalg.psd_sqrt(stack[idx]))
    np.testing.assert_allclose(roots @ roots, stack, atol=1e-12)
    with pytest.raises(NotPsdError):
        linalg.psd_sqrt(np.array([np.eye(2), np.diag([1.0, -1e-6])]))
    with pytest.raises(ValidationError):
        linalg.psd_sqrt(np.array([np.eye(2), [[0, 1], [0, 0]]]))
    with pytest.raises(DimensionError):
        linalg.psd_sqrt(np.ones((2, 2, 3)))


# ---------------------------------------------------------------------------
# predicates


def test_hermitian_and_psd_predicates(rng):
    assert linalg.hermitian_psd(PLUS, psd=False).all()
    assert not linalg.hermitian_psd(np.array([[0, 1], [0, 0]]), psd=False).all()
    assert linalg.hermitian_psd(PLUS).all()
    assert not linalg.hermitian_psd(np.diag([1.0, -1.0])).all()
    assert linalg.require_density(np.eye(2) / 2) is not None
    with pytest.raises(ValidationError, match="trace"):
        linalg.require_density(np.eye(2))


def test_rng_for_is_reproducible():
    a = rng_for(7, 3).standard_normal(5)
    b = rng_for(7, 3).standard_normal(5)
    c = rng_for(7, 4).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_predicate_checks_each_matrix_of_a_stack():
    stack = np.array([PLUS, np.diag([1.0, -1.0]), np.array([[0, 1], [0, 0]])], dtype=complex)
    np.testing.assert_array_equal(linalg.hermitian_psd(stack, psd=False), [True, True, False])
    np.testing.assert_array_equal(linalg.hermitian_psd(stack[:2]), [True, False])
    assert not linalg.hermitian_psd(np.ones((2, 3)), psd=False).all()
    with pytest.raises(DimensionError):
        linalg.hermitian_psd(np.ones(3))


def test_predicates_read_their_input_in_place(rng):
    rho = random_density(4, rng)
    before = rho.copy()
    assert linalg.require_density(rho) is rho
    assert linalg.hermitian_psd(rho).all()
    np.testing.assert_array_equal(rho, before)
    assert rho.flags.writeable


def test_require_density_peak_memory():
    # the Hermiticity residual, its moduli and the Hermitian part share one
    # temporary of the state's size: 1.5 state-sized arrays at D = 512
    import tracemalloc
    d = 512
    rho = random_density(d, rng_for(0))
    linalg.require_density(np.eye(2) / 2)  # one-time allocations, untraced
    tracemalloc.start()
    try:
        linalg.require_density(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * d * d * 16 + 2**20


def test_hermitianize_takes_the_hermitian_part_of_each_matrix(rng):
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    out = linalg.hermitianize(stack)
    for m, h in zip(stack, out):
        np.testing.assert_array_equal(h, (m + m.conj().T) / 2)
