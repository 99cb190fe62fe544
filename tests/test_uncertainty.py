"""CQ ensembles, guessing probabilities, and the two-observer tradeoff."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monogamy import games, linalg
from monogamy.errors import DimensionError, DomainError, ValidationError
from monogamy.games import (MonogamyGame, _povm_stack, bb84_game,
                            maximally_entangled_density, overlap)
from monogamy.rand import haar_unitary, random_density, random_povm, rng_for
from monogamy.uncertainty import (CqEnsemble, _inverse_root, _outcome_sum, _psd_clip,
                                  _whitened, check_uncertainty_relation,
                                  guessing_probability, min_entropy_bracket,
                                  minimum_error_povm, pgm_povm, post_measurement_state,
                                  ur_bound_n)

from conftest import reorder_systems

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

BB84 = bb84_game()
F0 = BB84.povms["0"]
F1 = BB84.povms["1"]

# frozen oracle values
UR_BOUND_HALF_1 = 0.45689339367277604
MIX_HMIN_SUM_1 = 0.8300749985576876  # 2 log2(4/3)
MIX_GAP_15 = 0.015807759


def binary_ensemble(p0, rho0, rho1) -> CqEnsemble:
    return CqEnsemble(("0", "1"), np.array([p0, 1.0 - p0]),
                      {"0": rho0, "1": rho1})


# ---------------------------------------------------------------------------
# CqEnsemble


def test_ensemble_validates_weights():
    with pytest.raises(ValidationError):
        CqEnsemble(("0", "1"), np.array([0.7, 0.7]), {"0": KET0, "1": KET1})


def test_ensemble_validates_conditionals():
    with pytest.raises(ValidationError):
        CqEnsemble(("0", "1"), np.array([0.5, 0.5]),
                   {"0": KET0, "1": 2 * KET1})


def test_ensemble_keeps_frozen_copies_of_the_callers_states():
    rho0, rho1 = KET0.copy(), PLUS.copy()
    e = binary_ensemble(0.3, rho0, rho1)
    for mine, kept in ((rho0, e.conditionals["0"]), (rho1, e.conditionals["1"])):
        assert mine.flags.writeable
        assert not np.shares_memory(mine, kept)
        assert not kept.flags.writeable
        np.testing.assert_array_equal(kept, mine)


def test_ensemble_stores_one_read_only_stack():
    e = binary_ensemble(0.3, KET0, PLUS)
    assert e.states.shape == (2, 2, 2) and not e.states.flags.writeable
    for x, rho in zip(e.alphabet, e.states):
        assert np.shares_memory(e.conditionals[x], e.states)
        np.testing.assert_array_equal(e.conditionals[x], rho)
    # a read-only stack is kept as it is, and the weighted stack follows it
    again = CqEnsemble(e.alphabet, e.weights, e.states)
    assert again.states is e.states
    np.testing.assert_array_equal(again.weighted_conditionals(),
                                  [0.3 * KET0, 0.7 * PLUS])


def test_ensembles_compare_and_hash_by_identity():
    # equal fields are arrays, which have no one truth value, so an ensemble
    # is equal only to itself, as games and strategies are
    e = binary_ensemble(0.3, KET0, PLUS)
    twin = binary_ensemble(0.3, KET0, PLUS)
    assert e == e and e != twin
    assert len({e, twin, e}) == 2
    assert hash(e) == hash(e)


def test_ensemble_refuses_a_label_outside_its_alphabet():
    # the extra state was once dropped without a word
    half = np.eye(2) / 2
    with pytest.raises(ValidationError, match="'2' is outside the alphabet"):
        CqEnsemble(("0", "1"), np.array([0.5, 0.5]), {"0": half, "1": half, "2": np.eye(3) / 3})


def test_ensemble_errors_name_the_offending_label():
    with pytest.raises(ValidationError, match="conditional 'b' is not positive"):
        CqEnsemble(("a", "b"), np.array([0.5, 0.5]), np.array([KET0, KET1 - KET0]))
    with pytest.raises(ValidationError, match="conditional 'b' has trace 2.0"):
        CqEnsemble(("a", "b"), np.array([0.5, 0.5]), np.array([KET0, 2 * KET1]))
    with pytest.raises(ValidationError, match="missing conditional state for 'b'"):
        CqEnsemble(("a", "b"), np.array([0.5, 0.5]), {"a": KET0})
    with pytest.raises(DimensionError):
        CqEnsemble(("a", "b"), np.array([0.5, 0.5]), {"a": KET0, "b": np.eye(3)})
    with pytest.raises(DimensionError):
        CqEnsemble(("a", "b"), np.array([0.5, 0.5]), np.array([KET0]))


def test_joint_density_shape_and_trace():
    e = binary_ensemble(0.3, KET0, PLUS)
    joint = e.joint_density()
    assert joint.shape == (4, 4)
    assert np.trace(joint) == pytest.approx(1.0, abs=1e-12)
    linalg.require_density(joint)


# ---------------------------------------------------------------------------
# post-measurement ensembles


def test_post_measurement_product_state(rng):
    rho_a = random_density(2, rng)
    rho_b = random_density(2, rng)
    rho_c = random_density(2, rng)
    rho = linalg.tensor(rho_a, rho_b, rho_c)
    b_ens, c_ens = post_measurement_state(rho, (2, 2, 2), F0, F1)
    for theta in (0, 1):
        for i, x in enumerate(b_ens[theta].alphabet):
            expected = float(np.trace(BB84.povms[str(theta)][i] @ rho_a).real)
            assert b_ens[theta].weights[i] == pytest.approx(expected, abs=1e-10)
            np.testing.assert_allclose(b_ens[theta].conditionals[x], rho_b,
                                       atol=1e-10)
            np.testing.assert_allclose(c_ens[theta].conditionals[x], rho_c,
                                       atol=1e-10)


def test_post_measurement_epr_correlations():
    rho = np.kron(maximally_entangled_density(2), np.eye(1, dtype=complex))
    b_ens, _ = post_measurement_state(rho, (2, 2, 1), F0, F1)
    ens = b_ens[0]
    np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(ens.conditionals["0"], KET0, atol=1e-12)
    np.testing.assert_allclose(ens.conditionals["1"], KET1, atol=1e-12)


def test_post_measurement_weights_normalize_per_basis(rng):
    rho = random_density(8, rng)
    b_ens, c_ens = post_measurement_state(rho, (2, 2, 2), F0, F1)
    for theta in (0, 1):
        assert b_ens[theta].weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert c_ens[theta].weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_post_measurement_takes_both_bases_from_one_call(monkeypatch, rng):
    calls, conditional_states = [], games.conditional_states

    def counting(factors, rho):
        calls.append(len(factors))
        return conditional_states(factors, rho)

    monkeypatch.setattr(games, "conditional_states", counting)
    post_measurement_state(random_density(8, rng), (2, 2, 2), F0, F1)
    assert calls == [1]


@pytest.mark.parametrize("bad_f0, error", [
    ((2 * KET0, KET1 - KET0), ValidationError),          # element not PSD
    ((KET0, 0.5 * KET1), ValidationError),               # does not sum to 1
    ((np.eye(3, dtype=complex), np.zeros((3, 3))), DimensionError),
], ids=["not-psd", "incomplete", "wrong-dimension"])
def test_post_measurement_rejects_invalid_povm(rng, bad_f0, error):
    rho = random_density(8, rng)
    with pytest.raises(error):
        post_measurement_state(rho, (2, 2, 2), bad_f0, F1)
    with pytest.raises(error):
        post_measurement_state(rho, (2, 2, 2), F0, bad_f0)


# ---------------------------------------------------------------------------
# Helstrom


def test_helstrom_orthogonal_discrimination():
    p0, p1 = minimum_error_povm([KET0 / 2, KET1 / 2])
    np.testing.assert_allclose(p0, KET0, atol=1e-12)
    np.testing.assert_allclose(p1, KET1, atol=1e-12)
    value, _ = guessing_probability(binary_ensemble(0.5, KET0, KET1))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_helstrom_tie_goes_to_outcome_zero():
    sigma = np.eye(2, dtype=complex) / 4
    p0, p1 = minimum_error_povm([sigma, sigma])
    np.testing.assert_allclose(p0, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(p1, np.zeros((2, 2)), atol=1e-12)
    value, _ = guessing_probability(binary_ensemble(0.5, 2 * sigma, 2 * sigma))
    assert value == pytest.approx(0.5, abs=1e-12)  # tr(sigma0 + sigma1) / 2 * 2


def test_guessing_useless_side_information():
    for p0 in (0.5, 0.3, 0.9):
        value, _ = guessing_probability(binary_ensemble(p0, PLUS, PLUS))
        assert value == pytest.approx(max(p0, 1 - p0), abs=1e-12)


def test_guessing_orthogonal_pure_states():
    value, _ = guessing_probability(binary_ensemble(0.5, KET0, KET1))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_guessing_unbiased_pair():
    value, povm = guessing_probability(binary_ensemble(0.5, KET0, PLUS))
    assert value == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), abs=1e-12)
    # the reported POVM achieves the reported value
    achieved = 0.5 * np.trace(KET0 @ povm[0]).real + 0.5 * np.trace(PLUS @ povm[1]).real
    assert achieved == pytest.approx(value, abs=1e-12)


def test_guessing_beats_best_prior(rng):
    for _ in range(30):
        p0 = float(rng.uniform(0.1, 0.9))
        e = binary_ensemble(p0, random_density(3, rng), random_density(3, rng))
        value, _ = guessing_probability(e)
        assert value >= max(p0, 1 - p0) - 1e-10
        assert value <= 1.0 + 1e-12


def test_guessing_requires_binary():
    # exact only for a binary alphabet: a ternary ensemble gets a feasible
    # guess, the trivial lower end of the bracket, and no tradeoff check
    e = CqEnsemble(("a", "b", "c"), np.ones(3) / 3,
                   {"a": KET0, "b": KET1, "c": PLUS})
    value, povm = guessing_probability(e)
    assert povm.shape == (3, 2, 2) and 1 / 3 <= value <= 1.0
    assert min_entropy_bracket({0: e}, {0: 1.0}) == (0.0, -math.log2(value))
    with pytest.raises(DomainError):
        check_uncertainty_relation(np.eye(8) / 8, (2, 2, 2), (KET0, KET1, 0 * PLUS), F1)


def test_data_processing_uncorrelated_ancilla(rng):
    for _ in range(10):
        rho0 = random_density(2, rng)
        rho1 = random_density(2, rng)
        anc = random_density(2, rng)
        base, _ = guessing_probability(binary_ensemble(0.5, rho0, rho1))
        ext, _ = guessing_probability(binary_ensemble(
            0.5, linalg.tensor(rho0, anc), linalg.tensor(rho1, anc)))
        assert ext == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# pretty-good measurement


def test_pgm_is_valid_povm(rng):
    for _ in range(20):
        sigmas = [random_density(3, rng) * w
                  for w in rng.dirichlet(np.ones(4))]
        povm = pgm_povm(sigmas)
        total = sum(povm)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-8)
        for m in povm:
            assert linalg.hermitian_psd(m).all()


def test_pgm_below_helstrom_on_random_binary(rng):
    for _ in range(120):
        p0 = float(rng.uniform(0.05, 0.95))
        e = binary_ensemble(p0, random_density(2, rng), random_density(2, rng))
        exact, _ = guessing_probability(e)
        sigmas = e.weighted_conditionals()
        assert _guessing(sigmas, pgm_povm(sigmas)) <= exact + 1e-9


def test_pgm_orthogonal_ensemble():
    sigmas = binary_ensemble(0.5, KET0, KET1).weighted_conditionals()
    assert _guessing(sigmas, pgm_povm(sigmas)) == pytest.approx(1.0, abs=1e-10)


def test_pgm_trivial_side_information_gives_sum_of_squares(rng):
    rho = random_density(2, rng)
    weights = np.array([0.5, 0.3, 0.2])
    e = CqEnsemble(("a", "b", "c"), weights, {k: rho for k in ("a", "b", "c")})
    sigmas = e.weighted_conditionals()
    assert _guessing(sigmas, pgm_povm(sigmas)) == pytest.approx(float((weights**2).sum()),
                                                               abs=1e-9)


def _ensemble_stack(shape, d: int, seed: int) -> np.ndarray:
    """A (*shape, K, d, d) stack of weighted PSD operators.  Every other
    ensemble lives on a random subspace of half the dimension, so its total
    is singular, and every third is diagonal with its first entry zero in
    every operator, so the Helstrom difference has an exact zero
    eigenvalue."""
    rng = rng_for(seed)
    *lead, k = shape
    out = np.empty((*lead, k, d, d), dtype=complex)
    for n, idx in enumerate(np.ndindex(*lead)):
        weights = rng.dirichlet(np.ones(k))
        if n % 3 == 2:
            diag = rng.uniform(0.1, 1.0, (k, d))
            diag[:, 0] = 0.0
            out[idx] = [np.diag(w * row) for w, row in zip(weights, diag)]
        elif n % 2 == 1:
            basis = haar_unitary(d, rng)[:, :max(1, d // 2)]
            out[idx] = [w * basis @ random_density(basis.shape[1], rng) @ basis.conj().T
                        for w in weights]
        else:
            out[idx] = [w * random_density(d, rng) for w in weights]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 4), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_pgm_broadcasts_over_a_stack_of_ensembles(r, b, k, d, seed):
    stack = _ensemble_stack((r, b, k), d, seed)
    povms = pgm_povm(stack)
    assert povms.shape == stack.shape
    for idx in np.ndindex(r, b):
        one = pgm_povm(list(stack[idx]))
        np.testing.assert_allclose(povms[idx], one, rtol=0, atol=1e-14)
        np.testing.assert_allclose(sum(one), np.eye(d), atol=1e-8)
        total = stack[idx].sum(axis=0)
        evals, vecs = np.linalg.eigh(total)
        # the kernel of the total goes to the first outcome
        for v in vecs[:, evals <= evals[-1] * 1e-10].T:
            assert (v.conj() @ povms[idx][0] @ v).real == pytest.approx(1.0, abs=1e-8)


def _guessing(stack: np.ndarray, povms: np.ndarray) -> np.ndarray:
    return np.einsum("...xij,...xji->...", stack, povms).real


def _trine_states() -> np.ndarray:
    angles = 2 * math.pi * np.arange(3) / 3
    kets = np.stack([np.cos(angles / 2), np.sin(angles / 2)], axis=-1).astype(complex)
    return kets[:, :, None] * kets[:, None, :].conj()


def test_guessing_probability_of_the_trine_and_the_bb84_states():
    trine = CqEnsemble(("a", "b", "c"), np.ones(3) / 3, _trine_states())
    value, povm = guessing_probability(trine)
    assert value == pytest.approx(2 / 3, abs=1e-12)
    _povm_stack(povm[None], ("trine",), 2)
    bb84 = CqEnsemble(("0", "1", "+", "-"), np.ones(4) / 4, np.array([*F0, *F1]))
    assert guessing_probability(bb84)[0] == pytest.approx(0.5, abs=1e-12)


def _parent_helstrom(stack: np.ndarray) -> np.ndarray:
    """The Helstrom projectors as the seesaw computed them before
    minimum_error_povm: each operator's Hermitian part, then the projector
    onto the nonnegative eigenspace of the difference."""
    s0, s1 = (linalg.hermitianize(stack[..., x, :, :]) for x in (0, 1))
    evals, vecs = np.linalg.eigh(s0 - s1)
    p0 = (vecs * (evals >= 0.0)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return np.stack([p0, np.eye(stack.shape[-1], dtype=complex) - p0], axis=-3)


def _parent_refined(stack: np.ndarray) -> np.ndarray:
    """The PGM and five Ježek-Řeháček-Fiurášek steps, step by step as the
    seesaw computed them before minimum_error_povm."""
    pgm = pgm_povm(stack)
    mats = linalg.hermitianize(stack)
    povm = pgm
    for _ in range(5):
        lifted = mats @ povm @ mats
        inv_root, kernel = _inverse_root(linalg.hermitianize(_outcome_sum(lifted)))
        povm = linalg.hermitianize(inv_root[..., None, :, :] @ lifted
                                   @ inv_root[..., None, :, :])
        povm[..., 0, :, :] += kernel
    povm = _whitened(_psd_clip(povm))
    better = _guessing(mats, povm) >= _guessing(mats, pgm)
    return np.where(better[..., None, None, None], povm, pgm)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_minimum_error_povm_keeps_the_measurements_bit_for_bit(k):
    # the seesaw's trajectories depend on every bit of its measurement step
    parent = _parent_helstrom if k == 2 else _parent_refined
    for seed in range(12):
        stack = _ensemble_stack((2, 3, k), 1 + seed % 4, seed)
        stack *= 10.0**-rng_for(seed, 1).uniform(0.0, 3 * (seed % 5), (2, 3, k, 1, 1))
        assert np.array_equal(minimum_error_povm(stack), parent(stack))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 4), st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 6.0, 14.0]))
def test_refined_pgm_is_a_povm_that_guesses_no_worse_than_the_pgm(r, b, k, d, seed, spread):
    # `spread` scales each operator by a weight down to 10^-spread, so that
    # some directions fall into the kernel of the iteration's R
    stack = _ensemble_stack((r, b, k), d, seed)
    stack *= 10.0**-rng_for(seed, 1).uniform(0.0, spread, (r, b, k, 1, 1))
    refined = minimum_error_povm(stack)
    assert refined.shape == stack.shape
    _povm_stack(refined.reshape(r * b, k, d, d), [f"refined{i}" for i in range(r * b)], d)
    assert (_guessing(stack, refined) >= _guessing(stack, pgm_povm(stack)) - 1e-12).all()


def test_operators_that_cancel_to_rounding_noise_still_give_a_povm():
    # one basis of a seesaw restart's Bob operators: entries near 1e-19 whose
    # Hermitian parts sum to about 1e-35, noise that a kernel threshold set
    # from the sum alone once inverted
    stack = np.zeros((4, 2, 2), dtype=complex)
    stack[0] = [[8.2980218323323727e-36j, -4.2062966253108834e-20 + 4.2251754532958990e-20j],
                [0, 8.4125932506217668e-20 + 8.4503509065917979e-20j]]
    stack[1] = [[7.4498925677452960e-37j, 4.2062966253108828e-20 - 4.2251754532958984e-20j],
                [0, -8.4125932506217656e-20 - 8.4503509065917967e-20j]]
    for povm in (pgm_povm(stack), minimum_error_povm(stack)):
        _povm_stack(povm[None], ("noise",), 2)


def test_refined_pgm_nears_the_optimum_where_the_pgm_does_not():
    # BB84 states weighted 0.4, 0.1, 0.4, 0.1: guessing only the two heavy
    # states, with orthogonal projectors, gives the optimum 0.4 (1 + 1/sqrt 2)
    stack = np.array([w * m for w, m in zip((0.4, 0.1, 0.4, 0.1), (*F0, *F1))])
    optimum = 0.4 * (1 + 1 / math.sqrt(2))
    pgm, refined = (float(_guessing(stack, f(stack))) for f in (pgm_povm, minimum_error_povm))
    assert pgm < optimum - 0.09
    assert optimum - 1e-4 < refined <= optimum + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_helstrom_broadcasts_over_a_stack_of_pairs(r, b, d, seed):
    stack = _ensemble_stack((r, b, 2), d, seed)
    povms = minimum_error_povm(stack)
    assert povms.shape == stack.shape
    p0 = povms[..., 0, :, :]
    for idx in np.ndindex(r, b):
        one = minimum_error_povm(stack[idx])
        np.testing.assert_allclose(povms[idx], one, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(one.sum(axis=0), np.eye(d))
        diff = stack[idx][0] - stack[idx][1]
        if np.count_nonzero(diff - np.diag(np.diag(diff))) == 0:
            # an exactly zero difference entry goes to outcome 0
            for i in np.flatnonzero(np.diag(diff).real == 0.0):
                assert p0[idx][i, i].real == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# conditional min-entropy


def test_min_entropy_deterministic_symbol():
    e = binary_ensemble(1.0, KET0, KET0)
    assert min_entropy_bracket({0: e, 1: e}, {0: 0.5, 1: 0.5})[0] == \
        pytest.approx(0.0, abs=1e-12)


def test_min_entropy_uniform_trivial_side_information():
    e = binary_ensemble(0.5, PLUS, PLUS)
    assert min_entropy_bracket({0: e, 1: e}, {0: 0.5, 1: 0.5})[0] == \
        pytest.approx(1.0, abs=1e-12)


def test_min_entropy_of_intermediate_state_trivial_observers():
    # cos(pi/8) sender state with no side information: the per-basis guessing
    # probability is the single-round game value
    phi = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    rho = np.kron(np.outer(phi, phi), np.eye(1, dtype=complex))
    b_ens, _ = post_measurement_state(rho, (2, 1, 1), F0, F1)
    hmin, upper = min_entropy_bracket(b_ens, {0: 0.5, 1: 0.5})
    assert hmin == upper
    assert hmin == pytest.approx(-math.log2(0.5 + 0.5 / math.sqrt(2)), abs=1e-10)


def test_min_entropy_bracket_contains_exact(rng):
    e0 = binary_ensemble(0.4, random_density(2, rng), random_density(2, rng))
    e1 = binary_ensemble(0.6, random_density(2, rng), random_density(2, rng))
    # closed form -log2 sum_theta w_theta (1 + ||p0 rho0 - p1 rho1||_1) / 2,
    # computed without any measurement
    def helstrom(e):
        sigmas = e.weighted_conditionals()
        return 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(sigmas[0] - sigmas[1])).sum())
    exact = -math.log2(0.5 * helstrom(e0) + 0.5 * helstrom(e1))
    lo, hi = min_entropy_bracket({0: e0, 1: e1}, {0: 0.5, 1: 0.5})
    assert lo == pytest.approx(exact, abs=1e-10)
    assert hi == pytest.approx(exact, abs=1e-10)


def test_min_entropy_bracket_is_exact_for_binary_alphabets(rng):
    for _ in range(20):
        ensembles = {t: binary_ensemble(float(rng.uniform(0.1, 0.9)), random_density(2, rng),
                                        random_density(2, rng)) for t in (0, 1)}
        lo, hi = min_entropy_bracket(ensembles, {0: 0.3, 1: 0.7})
        assert 0.0 < lo == hi <= 1.0
    # a ternary basis leaves the lower end at 0
    trine = CqEnsemble(("a", "b", "c"), np.ones(3) / 3, _trine_states())
    lo, hi = min_entropy_bracket({0: ensembles[0], 1: trine}, {0: 0.5, 1: 0.5})
    assert lo == 0.0 < hi


@pytest.mark.parametrize("weights", [{0: 0.9, 1: 0.9}, {0: 1.5, 1: -0.5}, {0: 1.0},
                                     {0: 0.5, 2: 0.5}, {0: 0.5, 1: 0.5, 2: 0.0}],
                         ids=["sum", "negative", "missing", "other-key", "extra-key"])
def test_min_entropy_bracket_checks_the_basis_weights(weights):
    e = binary_ensemble(0.5, KET0, PLUS)
    with pytest.raises(ValidationError):
        min_entropy_bracket({0: e, 1: e}, weights)


# ---------------------------------------------------------------------------
# the tradeoff


def test_overlap_of_bb84_povms():
    assert overlap(MonogamyGame(2, ("0", "1"), ("0", "1"), {"0": F0, "1": F1})) == 0.5


def test_relation_saturated_by_intermediate_state():
    phi = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    rho = np.kron(np.outer(phi, phi), np.eye(1, dtype=complex))
    rep = check_uncertainty_relation(rho, (2, 1, 1), F0, F1)
    assert rep.sum == pytest.approx(rep.bound, abs=1e-9)
    assert rep.satisfied


def test_relation_for_entangled_bob():
    rho = np.kron(maximally_entangled_density(2), np.eye(1, dtype=complex))
    rep = check_uncertainty_relation(rho, (2, 2, 1), F0, F1)
    assert rep.pguess_b == pytest.approx(1.0, abs=1e-10)
    assert rep.pguess_c == pytest.approx(0.5, abs=1e-10)
    assert rep.sum == pytest.approx(1.5, abs=1e-10)
    assert rep.satisfied


def test_relation_vacuous_for_identical_povms():
    # c = 1: classical copies reach the bound 2 with equality
    rho = np.zeros((8, 8), dtype=complex)
    for x in (0, 1):
        idx = x * 4 + x * 2 + x
        rho[idx, idx] = 0.5
    rep = check_uncertainty_relation(rho, (2, 2, 2), F0, F0)
    assert rep.c == pytest.approx(1.0, abs=1e-12)
    assert rep.bound == pytest.approx(2.0, abs=1e-12)
    assert rep.sum == pytest.approx(2.0, abs=1e-10)
    assert rep.satisfied


def test_relation_on_random_instances(rng):
    for _ in range(60):
        rho = random_density(8, rng)
        f0 = random_povm(2, 2, rng)
        f1 = random_povm(2, 2, rng)
        rep = check_uncertainty_relation(rho, (2, 2, 2), f0, f1)
        assert rep.sum <= rep.bound + 1e-7
        assert rep.hmin_b + rep.hmin_c >= rep.entropy_bound - 1e-8
        assert rep.satisfied


# ---------------------------------------------------------------------------
# n-round bound and the half-entangled mixture


def test_ur_bound_values():
    assert ur_bound_n(0.5, 1) == pytest.approx(UR_BOUND_HALF_1, abs=1e-13)
    assert ur_bound_n(1.0, 1) == 0.0
    assert ur_bound_n(1.0, 64) == 0.0
    assert ur_bound_n(0.5, 400) == pytest.approx(2.0, abs=1e-9)


def test_ur_bound_domain():
    with pytest.raises(DomainError):
        ur_bound_n(0.0, 1)
    with pytest.raises(DomainError):
        ur_bound_n(0.5, 0)


def test_half_entangled_mixture_single_round():
    # equal mixture of A:B-entangled and A:C-entangled branches; both
    # observers' guessing probability is exactly 3/4 per basis
    tau = np.eye(2, dtype=complex) / 2
    branch_ab = linalg.tensor(maximally_entangled_density(2), tau)
    branch_ac = reorder_systems(
        linalg.tensor(maximally_entangled_density(2), tau), (2, 2, 2), (0, 2, 1))
    rho = 0.5 * branch_ab + 0.5 * branch_ac
    rep = check_uncertainty_relation(rho, (2, 2, 2), F0, F1)
    assert rep.pguess_b == pytest.approx(0.75, abs=1e-10)
    assert rep.pguess_c == pytest.approx(0.75, abs=1e-10)
    total = rep.hmin_b + rep.hmin_c
    assert total == pytest.approx(MIX_HMIN_SUM_1, abs=1e-9)
    assert total >= ur_bound_n(0.5, 1) - 1e-9


def test_half_entangled_mixture_approaches_bound():
    # the mixture's guessing probability per observer is (1 + 2^-n)/2 per
    # basis, so its min-entropy sum tracks the n-round floor; the gap falls
    # below 0.02 by n = 15 and keeps shrinking
    def mixture_hmin_sum(n: int) -> float:
        return -2.0 * math.log2(0.5 * (1.0 + 2.0**-n))

    gaps = [mixture_hmin_sum(n) - ur_bound_n(0.5, n) for n in range(5, 41)]
    assert all(g >= -1e-12 for g in gaps)
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    gap15 = mixture_hmin_sum(15) - ur_bound_n(0.5, 15)
    assert gap15 == pytest.approx(MIX_GAP_15, abs=1e-6)
    assert gap15 <= 0.02
