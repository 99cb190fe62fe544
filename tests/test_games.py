"""Game construction, exact strategy evaluation, and displacement sets."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from monogamy import games, linalg
from monogamy.bounds import (BB84_ROUND_VALUE, bb84_parallel_value, binary_entropy,
                             imperfect_guessing_bound)
from monogamy.errors import DimensionError, DomainError, ValidationError
from monogamy.games import (MonogamyGame, QSet, Strategy, _basis_terms, bb84_game,
                            conditional_stack, conditional_states, constant_guess_povms,
                            game_power, hamming_q_set, maximally_entangled_density, overlap,
                            product_strategy, same_string_q_set, win_operator,
                            win_operator_sum, win_terms, winning_probability,
                            winning_probability_with_q, xor_permutation_family)
from monogamy.posver import BreidbartPair, TimingScenario, simulate_pv_rounds
from monogamy.rand import random_density, random_povm, random_projective_povm, rng_for
from monogamy.seesaw import SeesawConfig, bb84_optimal_unentangled_strategy, seesaw

from conftest import (basis_factors, dense_product, pairwise_overlap, power_elements,
                      reorder_systems, schatten_inf_norm)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def random_strategy(game, d_b, d_c, rng) -> Strategy:
    dims = (game.alice_dim, d_b, d_c)
    rho = random_density(dims[0] * dims[1] * dims[2], rng)
    n_out = len(game.outcomes)**game.rounds
    bob = {t: tuple(random_projective_povm(d_b, n_out, rng)) for t in game.basis_labels}
    charlie = {t: tuple(random_projective_povm(d_c, n_out, rng))
               for t in game.basis_labels}
    return Strategy(rho, dims, bob, charlie)


# ---------------------------------------------------------------------------
# construction


def test_bb84_elements():
    g = bb84_game()
    np.testing.assert_array_equal(g.povms["0"][0], KET0)
    np.testing.assert_array_equal(g.povms["1"][0], PLUS)


def test_bb84_povm_completeness():
    g = bb84_game()
    for theta in g.thetas:
        np.testing.assert_array_equal(sum(g.povms[theta]), np.eye(2))


def test_game_rejects_incomplete_povm():
    with pytest.raises(ValidationError):
        MonogamyGame(dim_a=2, thetas=("0",), outcomes=("0", "1"),
                     povms={"0": (KET0, KET0)})


def test_game_rejects_non_psd_element():
    bad = np.array([[1, 0], [0, -1]], dtype=complex) / 1.0
    good = np.eye(2) - bad
    with pytest.raises(ValidationError):
        MonogamyGame(dim_a=2, thetas=("0",), outcomes=("0", "1"),
                     povms={"0": (bad, good)})


def test_the_stack_check_reads_positivity_before_completeness():
    # one check of the whole stack names the first element that is not
    # Hermitian, else the first that is not PSD, then the first basis that
    # does not sum to the identity
    not_psd = np.diag([1.0, -1.0]).astype(complex)
    skew = np.array([[0, 1], [0, 0]], dtype=complex)
    fine = [KET0, np.eye(2) - KET0]

    def refusal(stack) -> str:
        with pytest.raises(ValidationError) as info:
            MonogamyGame(2, ("a", "b", "c"), ("0", "1"), np.array(stack))
        return str(info.value)

    assert refusal([[KET0, KET0], [KET0, not_psd], fine]) == \
        "POVM 'b' element 1 is not Hermitian PSD"
    assert refusal([[not_psd, np.eye(2) - not_psd], fine, [KET0, skew]]) == \
        "POVM 'c' element 1 is not Hermitian PSD"
    assert refusal([fine, [KET0, KET0], [KET0, KET0]]) == \
        "POVM 'b' does not sum to the identity"


def test_game_power_one_is_same_game():
    g = bb84_game()
    assert game_power(g, 1) is g


def test_game_power_elements_are_tensor_products():
    g2 = game_power(bb84_game(), 2)
    dense = dict(zip(g2.basis_labels, map(power_elements, basis_factors(g2))))
    # basis "01", outcome "00"
    np.testing.assert_array_equal(dense["01"][0], linalg.tensor(KET0, PLUS))
    assert g2.alice_dim == 4 and g2.rounds == 2
    assert len(dense) == 4 and len(dense["01"]) == 4


def test_game_power_completeness_for_all_theta_strings():
    g3 = game_power(bb84_game(), 3)
    assert len(g3.basis_labels) == 8
    for factors in basis_factors(g3):
        np.testing.assert_allclose(power_elements(factors).sum(axis=0), np.eye(8),
                                   atol=1e-12)


def test_game_power_twelve_rounds_needs_no_capacity_guard():
    # the dense stack of 12 rounds would hold 2^60 entries
    g = game_power(bb84_game(), 12)
    assert g.rounds == 12 and g.alice_dim == 2**12
    assert game_power(g, 2).rounds == 24


def test_game_power_peak_memory_is_one_stack():
    # the power game shares its round's frozen stack and allocates nothing
    # that grows with the round count
    import tracemalloc
    base = bb84_game()
    game_power(base, 2)
    tracemalloc.start()
    try:
        g20 = game_power(base, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g20.elements is base.elements
    assert (g20.dim_a, g20.thetas, g20.rounds) == (2, ("0", "1"), 20)
    assert peak < 64 * 2**10


def test_game_stores_one_read_only_stack():
    g = bb84_game()
    assert g.elements.shape == (2, 2, 2, 2)
    assert not g.elements.flags.writeable
    np.testing.assert_array_equal(g.povms["1"], g.elements[1])
    with pytest.raises(TypeError):
        g.povms["0"] = g.povms["1"]
    with pytest.raises(ValueError):
        g.elements[0, 0, 0, 0] = 0.0


def test_game_does_not_alias_label_keyed_input():
    ket0 = KET0.copy()
    g = MonogamyGame(dim_a=2, thetas=("0",), outcomes=("0", "1"),
                     povms={"0": (ket0, np.eye(2) - ket0)})
    ket0[0, 0] = 0.0
    np.testing.assert_array_equal(g.povms["0"][0], KET0)


def test_game_keeps_a_handed_over_frozen_stack():
    stack = np.array(bb84_game().elements)
    stack.setflags(write=False)
    g = MonogamyGame(2, ("0", "1"), ("0", "1"), stack)
    assert g.elements is stack
    np.testing.assert_array_equal(g.povms["1"], bb84_game().povms["1"])
    # a writable stack is copied, so later writes cannot reach the game
    writable = np.array(stack)
    g = MonogamyGame(2, ("0", "1"), ("0", "1"), writable)
    writable[0, 0] = 0.0
    np.testing.assert_array_equal(g.elements, stack)


def test_game_and_strategy_pickle_round_trip():
    import pickle
    g = game_power(bb84_game(), 2)
    s = product_strategy(bb84_optimal_unentangled_strategy(), 2)
    g2, s2 = pickle.loads(pickle.dumps(g)), pickle.loads(pickle.dumps(s))
    assert (g2.thetas, g2.outcomes, g2.rounds) == (g.thetas, g.outcomes, g.rounds)
    np.testing.assert_array_equal(g2.elements, g.elements)
    assert (s2.thetas, s2.dims, s2.rounds) == (s.thetas, s.dims, 2)
    np.testing.assert_array_equal(s2.rho_abc, s.rho_abc)
    assert winning_probability(g2, s2) == winning_probability(g, s)
    one = pickle.loads(pickle.dumps(bb84_optimal_unentangled_strategy()))
    assert one.rounds == 1


def test_game_rejects_wrong_element_shape():
    with pytest.raises(DimensionError):
        MonogamyGame(dim_a=2, thetas=("0",), outcomes=("0", "1"),
                     povms={"0": (KET0, np.eye(3))})


# ---------------------------------------------------------------------------
# overlap


def test_overlap_of_bb84_is_half_exactly():
    assert overlap(bb84_game()) == 0.5


def test_overlap_power_law():
    g = bb84_game()
    for n in (2, 3):
        assert overlap(game_power(g, n)) == pytest.approx(0.5**n, abs=1e-12)


def test_overlap_of_unsharp_measurements_is_below_one_over_the_alphabet():
    # ||sqrt(I/2) sqrt(I/2)||^2 = 1/4: the 1/|X| floor holds only for
    # projective measurements
    half = np.eye(2) / 2
    g = MonogamyGame(2, ("0", "1"), ("0", "1"), {"0": [half, half], "1": [half, half]})
    assert overlap(g) == pytest.approx(0.25, abs=1e-15)


def test_overlap_matches_the_pairwise_oracle_bit_for_bit():
    # every element pair of every basis pair in one contraction, against one
    # pair at a time: bb84, and 30 random POVM games of 2-4 bases, outcomes
    # and dimensions, over one round and two
    games_ = [bb84_game()]
    for seed in range(30):
        rng = rng_for(seed)
        d, k, t = (int(v) for v in rng.integers(2, 5, 3))
        labels = tuple(map(str, range(t)))
        games_.append(MonogamyGame(d, labels, tuple(map(str, range(k))),
                                   np.array([random_povm(d, k, rng) for _ in labels])))
    for game in games_:
        for g in (game, game_power(game, 2)):
            assert overlap(g) == pairwise_overlap(g)


def test_overlap_requires_two_bases():
    single = MonogamyGame(dim_a=2, thetas=("0",), outcomes=("0", "1"),
                          povms={"0": bb84_game().povms["0"]})
    with pytest.raises(DomainError):
        overlap(single)


def test_overlap_of_random_two_basis_games(rng):
    # any two-projective-basis qubit game stays within [1/2, 1]
    from monogamy.rand import haar_unitary
    for _ in range(10):
        u = haar_unitary(2, rng)
        basis2 = tuple(np.outer(u[:, i], u[:, i].conj()) for i in (0, 1))
        g = MonogamyGame(dim_a=2, thetas=("0", "1"), outcomes=("0", "1"),
                         povms={"0": bb84_game().povms["0"], "1": basis2})
        c = overlap(g)
        assert 0.5 - 1e-9 <= c <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# winning probability


def test_optimal_unentangled_value():
    g = bb84_game()
    s = bb84_optimal_unentangled_strategy()
    assert winning_probability(g, s) == pytest.approx(BB84_ROUND_VALUE, abs=1e-15)


def test_uniform_random_answers_hit_inverse_alphabet_squared(rng):
    g = bb84_game()
    uniform = {t: (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2)
               for t in g.thetas}
    for _ in range(5):
        rho = random_density(8, rng)
        s = Strategy(rho, (2, 2, 2), uniform, uniform)
        assert winning_probability(g, s) == pytest.approx(0.25, abs=1e-12)


def test_entangled_bob_with_constant_charlie_is_exactly_half():
    g = bb84_game()
    rho = np.kron(maximally_entangled_density(2), np.eye(1, dtype=complex))
    bob = {t: g.povms[t] for t in g.thetas}
    charlie = constant_guess_povms(g.thetas, g.outcomes, "0", dim=1)
    s = Strategy(rho, (2, 2, 1), bob, charlie)
    value = winning_probability(g, s)
    assert value == 0.5
    assert value < BB84_ROUND_VALUE


def test_per_theta_terms_sum_to_winning_probability(rng):
    g = bb84_game()
    s = random_strategy(g, 2, 2, rng)
    terms = _basis_terms(g, s)
    assert sum(terms.tolist()) / 2 == pytest.approx(winning_probability(g, s),
                                                    abs=1e-12)


def test_winning_probability_bounded_by_operator_norm(rng):
    for n in (1, 2):
        g = game_power(bb84_game(), n)
        for _ in range(8):
            s = random_strategy(g, 2, 2, rng)
            value = winning_probability(g, s)
            total = sum(win_operator(g, s.bob, s.charlie, i)
                        for i in range(len(g.basis_labels)))
            assert 0.0 <= value <= 1.0 + 1e-12
            assert value <= schatten_inf_norm(total) / 2**n + 1e-9


def _three_basis_qutrit_game(rng) -> MonogamyGame:
    bases = [np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
             for _ in range(3)]
    elements = np.array([[np.outer(u[:, x], u[:, x].conj()) for x in range(3)]
                         for u in bases])
    return MonogamyGame(3, ("a", "b", "c"), ("0", "1", "2"), elements)


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=lambda s: f"lead{s}")
@pytest.mark.parametrize("game, n", [("bb84", 1), ("bb84", 2), ("bb84", 3),
                                     ("qutrit", 1), ("qutrit", 2)])
def test_win_operator_sum_is_the_sum_over_bases(rng, game, n, lead):
    one = bb84_game() if game == "bb84" else _three_basis_qutrit_game(rng)
    g = game_power(one, n)
    bases, outcomes = len(g.basis_labels), len(g.outcomes)**n
    bob, charlie = (np.array([[random_projective_povm(d, outcomes, rng) for _ in range(bases)]
                              for _ in range(math.prod(lead))]).reshape(
                                  lead + (bases, outcomes, d, d)) for d in (2, 3))
    total = win_operator_sum(g, bob, charlie)
    expected = sum(win_operator(g, bob, charlie, i) for i in range(bases))
    assert total.shape == expected.shape
    np.testing.assert_allclose(total, expected, rtol=0, atol=1e-14)


def test_averaged_win_operator_norm_at_most_one(rng):
    g = bb84_game()
    for _ in range(10):
        s = random_strategy(g, 2, 3, rng)
        total = sum(win_operator(g, s.bob, s.charlie, i)
                    for i in range(len(g.thetas)))
        assert schatten_inf_norm(total) / len(g.thetas) <= 1.0 + 1e-10


def test_strategy_shape_mismatch_is_rejected(rng):
    g = bb84_game()
    s = random_strategy(game_power(g, 2), 2, 2, rng)
    with pytest.raises(DimensionError):
        winning_probability(g, s)


def test_cross_term_norm_bound(rng):
    # ||Pi^theta Pi^theta'|| <= 2^(-t/2) for projective strategies, t the
    # Hamming distance of the basis strings (spot check; bulk in acceptance)
    for n in (1, 2):
        g = game_power(bb84_game(), n)
        for _ in range(6):
            s = random_strategy(g, 2, 2, rng)
            ops = {t: win_operator(g, s.bob, s.charlie, i)
                   for i, t in enumerate(g.basis_labels)}
            for ta, tb in itertools.combinations(g.basis_labels, 2):
                t_dist = sum(a != b for a, b in zip(ta, tb))
                norm = schatten_inf_norm(ops[ta] @ ops[tb])
                assert norm <= 2.0 ** (-t_dist / 2) + 1e-8


@pytest.mark.parametrize("n, party_dim, restarts",
                         [(1, 2, 3), (1, 4, 2), (2, 1, 3), (2, 4, 4), (3, 1, 1), (3, 2, 2)])
def test_conditional_stack_equals_the_per_restart_per_basis_loop(rng, n, party_dim,
                                                                 restarts):
    # one conditional_states call on every round's (basis, outcome) rows, for
    # all restarts, is the loop of one call per restart and basis, bit for
    # bit.  Not so for one round with one-dimensional parties: there the loop
    # multiplies one column per call, which BLAS takes through a matrix-vector
    # kernel, and imaginary parts differ by about 1e-18
    g = game_power(bb84_game(), n)
    rho = np.array([random_density(g.alice_dim * party_dim**2, rng)
                    for _ in range(restarts)])
    loop = np.array([[conditional_states(f, r) for f in basis_factors(g)] for r in rho])
    assert np.array_equal(conditional_stack(g, rho), loop)
    assert np.array_equal(conditional_stack(g, rho[0]), loop[0])


def _per_basis_terms(game, bob, charlie, rho) -> np.ndarray:
    """Oracle: tr(Pi^theta rho) from one conditional_states call and one
    contraction per basis, stacks in `game.basis_labels` order."""
    db, dc = bob.shape[-1], charlie.shape[-1]
    return np.array([
        np.einsum("kxbq,kxcr,xqrbc->", bob[i][None], charlie[i][None],
                  conditional_states(factors, rho).reshape(-1, db, dc, db, dc)).real
        for i, factors in enumerate(basis_factors(game))])


@pytest.mark.parametrize("db, dc", [(1, 1), (2, 1), (2, 2), (4, 4)])
@pytest.mark.parametrize("game, n", [("bb84", 1), ("bb84", 2), ("bb84", 3), ("bb84", 4),
                                     ("qutrit", 1), ("qutrit", 2)])
def test_win_terms_is_the_per_basis_loop_bit_for_bit(rng, game, n, db, dc):
    one = bb84_game() if game == "bb84" else _three_basis_qutrit_game(rng)
    g = game_power(one, n)
    s = random_strategy(g, db, dc, rng)
    terms = win_terms(g, s.bob, s.charlie, s.rho_abc)
    assert np.array_equal(terms, _per_basis_terms(g, s.bob, s.charlie, s.rho_abc))


def test_a_reordered_strategy_is_evaluated_as_the_per_basis_loop(rng):
    # the strategy's rows are put in the game's basis order before the one
    # contraction
    g = game_power(bb84_game(), 2)
    s = random_strategy(g, 2, 2, rng)
    order = rng.permutation(len(g.basis_labels))
    shuffled = Strategy(s.rho_abc, s.dims, s.bob[order], s.charlie[order],
                        [g.basis_labels[i] for i in order])
    assert shuffled.thetas != g.basis_labels
    terms = _basis_terms(g, shuffled).tolist()
    assert np.array_equal(terms, _per_basis_terms(g, s.bob, s.charlie, s.rho_abc))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_winning_probability_makes_one_conditional_states_call(monkeypatch, rng, n):
    calls = []

    def counting(factors, rho):
        calls.append(len(factors))
        return conditional_states(factors, rho)

    monkeypatch.setattr(games, "conditional_states", counting)
    g = game_power(bb84_game(), n)
    winning_probability(g, random_strategy(g, 2, 2, rng))
    assert calls == [n]


# ---------------------------------------------------------------------------
# Q-sets


def q_pairs(q: QSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """The Q-set's displacement pairs as (Bob row, Charlie row)."""
    if q.product:
        return [(pb, pc) for pb in q.bob for pc in q.charlie]
    return list(zip(q.bob, q.charlie))


def test_identity_q_set_reduces_to_plain_value(rng):
    g = bb84_game()
    s = random_strategy(g, 2, 2, rng)
    rows = np.arange(len(g.outcomes))[None]
    q = QSet(rows, rows)
    assert winning_probability_with_q(g, s, q) == \
        pytest.approx(winning_probability(g, s), abs=1e-12)


def test_q_value_by_brute_force_enumeration(rng):
    # independent oracle: direct triple sum over x, q and theta
    g = game_power(bb84_game(), 2)
    s = random_strategy(g, 2, 2, rng)
    q = hamming_q_set(2, 0.5, 0.0)
    expect = 0.0
    for theta, factors in zip(g.basis_labels, basis_factors(g)):
        f = power_elements(factors)
        for x in range(len(f)):
            for pb, pc in q_pairs(q):
                op = np.kron(np.kron(f[x], s.bob_povms[theta][pb[x]]),
                             s.charlie_povms[theta][pc[x]])
                expect += np.trace(op @ s.rho_abc).real
    expect /= len(g.basis_labels)
    assert winning_probability_with_q(g, s, q) == pytest.approx(expect, abs=1e-10)


def test_q_value_uniform_answers_is_cardinality_over_sixteen(rng):
    # uniform guessing wins each of the |Q| displacement pairs with 1/16
    g = game_power(bb84_game(), 2)
    uniform = {t: tuple(np.eye(1, dtype=complex) / 4 for _ in range(4))
               for t in g.basis_labels}
    rho = np.kron(random_density(4, rng), np.eye(1, dtype=complex))
    s = Strategy(rho, (4, 1, 1), uniform, uniform)
    q = hamming_q_set(2, 0.5, 0.0)
    assert len(q) == 3
    assert winning_probability_with_q(g, s, q) == pytest.approx(3 / 16, abs=1e-12)
    assert winning_probability_with_q(g, s, q) > winning_probability(g, s)


def test_full_q_set_with_deterministic_strategies_wins_always(rng):
    g = bb84_game()
    bob = constant_guess_povms(g.thetas, g.outcomes, "0", dim=1)
    charlie = constant_guess_povms(g.thetas, g.outcomes, "1", dim=1)
    rho = np.kron(random_density(2, rng), np.eye(1, dtype=complex))
    s = Strategy(rho, (2, 1, 1), bob, charlie)
    fam = xor_permutation_family(1, 2)
    q = QSet(fam, fam, product=True)
    assert len(q) == 4  # every displacement pair allowed
    assert winning_probability_with_q(g, s, q) == pytest.approx(1.0, abs=1e-12)


def test_q_set_rejects_duplicates():
    ident = [[0, 1]]
    with pytest.raises(ValidationError):
        QSet(ident * 2, ident * 2)
    with pytest.raises(ValidationError):
        QSet(ident * 2, [[1, 0]], product=True)
    # zipped pairs repeat only when both rows do
    assert len(QSet(ident * 2, [[0, 1], [1, 0]])) == 2


def test_q_set_rejects_non_bijection():
    with pytest.raises(ValidationError):
        QSet([[0, 0]], [[0, 1]])
    with pytest.raises(ValidationError):
        QSet([[0, 2]], [[0, 1]])


def test_q_set_rejects_malformed_rows():
    for bob, charlie in (([[0.0, 1.0]], [[0, 1]]), ([0, 1], [[0, 1]]),
                         (np.empty((0, 2), dtype=int), [[0, 1]]),
                         ([[0, 1]], [[0, 1, 2]]), ([[0, 1]], [[0, 1], [1, 0]])):
        with pytest.raises(ValidationError):
            QSet(bob, charlie)


def test_q_set_keeps_read_only_copies():
    rows = np.array([[0, 1], [1, 0]])
    q = QSet(rows, rows)
    rows[0] = (1, 0)
    np.testing.assert_array_equal(q.bob, [[0, 1], [1, 0]])
    assert not q.bob.flags.writeable and not q.charlie.flags.writeable


def test_q_set_width_must_match_the_game(rng):
    g = game_power(bb84_game(), 2)
    s = random_strategy(g, 1, 1, rng)
    with pytest.raises(ValidationError):
        winning_probability_with_q(g, s, hamming_q_set(3, 0.0, 0.0))


# ---------------------------------------------------------------------------
# XOR permutation families


def displacement_weights(fam: np.ndarray, n: int, q: int) -> np.ndarray:
    """Per row and point, the number of digits in which the row moves the point."""
    digits = np.array(np.unravel_index(np.arange(q**n), (q,) * n))
    return (digits[:, None, :] != digits[:, fam]).sum(axis=0)


def test_xor_family_binary_single_round():
    fam = xor_permutation_family(1, 2)
    np.testing.assert_array_equal(fam, [[0, 1], [1, 0]])


def test_xor_family_weight_profile():
    fam = xor_permutation_family(2, 2)
    assert fam.shape == (4, 4)
    weights = displacement_weights(fam, 2, 2)
    # the displacement weight is independent of the point
    assert (weights == weights[:, :1]).all()
    assert sorted(weights[:, 0].tolist()) == [0, 1, 1, 2]


def test_xor_family_mutual_orthogonality():
    for n, q in ((2, 2), (1, 3), (2, 3), (1, 11)):
        fam = xor_permutation_family(n, q)
        assert fam.shape == (q**n, q**n)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert (fam[i] != fam[j]).all()
        # every row is a permutation, so the family is a valid Q-set
        assert len(QSet(fam, fam)) == q**n


def test_xor_family_multiplicities_general_alphabet():
    weights = displacement_weights(xor_permutation_family(2, 3), 2, 3)[:, 0]
    assert np.bincount(weights).tolist() == [1, math.comb(2, 1) * 2, math.comb(2, 2) * 4]


# ---------------------------------------------------------------------------
# Hamming displacement sets


def test_hamming_q_set_zero_gammas_is_identity_pair():
    q = hamming_q_set(3, 0.0, 0.0)
    assert len(q) == 1
    for rows in (q.bob, q.charlie):
        np.testing.assert_array_equal(rows, [np.arange(8)])


def test_hamming_q_set_rows_are_xor_shifts():
    q = hamming_q_set(3, 1 / 3, 0.0)
    assert q.product
    shifts = q.bob[:, 0]
    assert shifts.tolist() == [0, 1, 2, 4]
    np.testing.assert_array_equal(q.bob, shifts[:, None] ^ np.arange(8))


def test_hamming_q_set_counts():
    q = hamming_q_set(4, 0.25, 0.0)
    assert len(q) == 1 + 4
    assert len(q) <= 2 ** (4 * binary_entropy(0.25))
    both = hamming_q_set(4, 0.25, 0.25)
    assert len(both) == 25


def test_hamming_q_set_domain():
    with pytest.raises(DomainError):
        hamming_q_set(3, 0.6, 0.0)
    with pytest.raises(DomainError):
        hamming_q_set(3, 0.0, -0.1)


def test_same_string_q_set():
    q0 = same_string_q_set(2, 0.0)
    assert len(q0) == 1
    q = same_string_q_set(3, 1.0 / 3.0)
    assert not q.product
    assert len(q) == 1 + math.comb(3, 1)
    np.testing.assert_array_equal(q.bob, q.charlie)
    assert len(q) <= 2 ** (3 * binary_entropy(1.0 / 3.0))


def test_zero_gamma_hamming_value_is_the_parallel_value_at_eight_rounds():
    s = product_strategy(bb84_optimal_unentangled_strategy(), 8)
    value = winning_probability_with_q(game_power(bb84_game(), 8), s,
                                       hamming_q_set(8, 0.0, 0.0))
    assert abs(value - bb84_parallel_value(8)) <= 1e-12


def test_hamming_value_of_the_seven_round_product_strategy():
    # the value the label-dict evaluation gave for the 4,096 pairs
    s = product_strategy(bb84_optimal_unentangled_strategy(), 7)
    value = winning_probability_with_q(game_power(bb84_game(), 7), s,
                                       hamming_q_set(7, 0.5, 0.5))
    assert abs(value - 0.9888980479297647) <= 1e-12


def test_twelve_round_hamming_value_is_a_binomial_sum():
    # the optimal unentangled guessers both name 0, so a round wins only when
    # Bob's and Charlie's shifts agree on it, with P(x = 0) = cos^2(pi/8) when
    # neither flips; at gamma = gamma' = 1/8 both shift at most one bit
    n, p = 12, math.cos(math.pi / 8)**2
    expect = sum(math.comb(n, w) * p**(n - w) * (1 - p)**w for w in range(2))
    s = product_strategy(bb84_optimal_unentangled_strategy(), n)
    value = winning_probability_with_q(game_power(bb84_game(), n), s,
                                       hamming_q_set(n, 1 / 8, 1 / 8))
    assert abs(value - expect) <= 1e-12


def test_product_strategy_refuses_other_q_sets():
    g2, s2 = game_power(bb84_game(), 2), product_strategy(bb84_optimal_unentangled_strategy(), 2)
    # a permutation of the four outcome strings that is no XOR shift
    swap = QSet([[0, 2, 1, 3]], [[0, 1, 2, 3]])
    with pytest.raises(DomainError, match="XOR shifts"):
        winning_probability_with_q(g2, s2, swap)
    with pytest.raises(DomainError, match="XOR shifts"):
        winning_probability_with_q(g2, s2, QSet([[0, 1, 2, 3]], [[0, 2, 1, 3], [1, 0, 3, 2]],
                                                product=True))
    # three outcomes: even the identity row is refused
    g = MonogamyGame(1, ("0",), ("0", "1", "2"), np.ones((1, 3, 1, 1)) / 3)
    guess = constant_guess_povms(g.thetas, g.outcomes, "0")
    s = product_strategy(Strategy(np.eye(1), (1, 1, 1), guess, dict(guess)), 2)
    assert winning_probability(game_power(g, 2), s) == pytest.approx(1 / 9, abs=1e-15)
    rows = np.arange(9)[None]
    with pytest.raises(DomainError, match="XOR shifts"):
        winning_probability_with_q(game_power(g, 2), s, QSet(rows, rows))
    # a Q-set as wide as another round count, and a game of other rounds
    with pytest.raises(DomainError, match="XOR shifts"):
        winning_probability_with_q(g2, s2, hamming_q_set(3, 0.0, 0.0))
    with pytest.raises(DimensionError):
        winning_probability(game_power(bb84_game(), 3), s2)


@pytest.mark.parametrize("n", [2.5, 0, -1, "2"])
def test_round_counts_must_be_positive_integers(n):
    with pytest.raises(DomainError, match="n must be a positive integer"):
        game_power(bb84_game(), n)
    with pytest.raises(DomainError, match="n must be a positive integer"):
        product_strategy(bb84_optimal_unentangled_strategy(), n)


@pytest.mark.parametrize("call", [
    lambda n: simulate_pv_rounds(TimingScenario(0.0, 2.0, 1.0), n, BreidbartPair(), 10),
    lambda n: hamming_q_set(n, 0.5, 0.5),
    lambda n: same_string_q_set(n, 0.5),
    lambda n: xor_permutation_family(n, 2),
])
@pytest.mark.parametrize("n", [2.5, 0])
def test_every_round_count_is_checked_alike(call, n):
    with pytest.raises(DomainError, match="n must be a positive integer"):
        call(n)


def test_round_counts_are_stored_as_python_ints():
    g = game_power(bb84_game(), np.int64(3))
    s = product_strategy(bb84_optimal_unentangled_strategy(), np.int64(3))
    assert type(g.rounds) is int and type(s.rounds) is int
    assert g.rounds == s.rounds == 3
    assert type(game_power(bb84_game(), 3.0).rounds) is int


def test_eight_round_hamming_set_builds_and_evaluates_in_little_memory():
    g = game_power(bb84_game(), 8)
    s = product_strategy(bb84_optimal_unentangled_strategy(), 8)
    tracemalloc.start()
    try:
        q = hamming_q_set(8, 0.5, 0.5)
        value = winning_probability_with_q(g, s, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q) == 163**2
    assert peak < 32 * 2**20
    assert bb84_parallel_value(8) < value <= 1.0


# ---------------------------------------------------------------------------
# strategies


def test_strategy_rejects_bad_density(rng):
    g = bb84_game()
    guess = constant_guess_povms(g.thetas, g.outcomes, "0", dim=1)
    with pytest.raises(ValidationError):
        Strategy(np.eye(2, dtype=complex), (2, 1, 1), guess, dict(guess))


def test_product_strategy_values_match_powers():
    g = bb84_game()
    s1 = bb84_optimal_unentangled_strategy()
    for n in (2, 3):
        gn = game_power(g, n)
        sn = product_strategy(s1, n)
        assert winning_probability(gn, sn) == \
            pytest.approx(BB84_ROUND_VALUE**n, abs=1e-9)


def test_product_strategy_reaches_the_parallel_value_up_to_twenty_rounds():
    s1 = bb84_optimal_unentangled_strategy()
    for n in range(1, 21):
        value = winning_probability(game_power(bb84_game(), n), product_strategy(s1, n))
        assert abs(value - bb84_parallel_value(n)) <= 1e-12


def test_hamming_q_set_values_lie_between_the_parallel_value_and_the_closed_form():
    # a Q-set only adds winning pairs, so the optimal product strategy wins
    # at least its plain value and at most the imperfect-guessing bound
    s1 = bb84_optimal_unentangled_strategy()
    for n in range(1, 9):
        game, strategy = game_power(bb84_game(), n), product_strategy(s1, n)
        for gamma, gamma_prime in ((0, 0), (1 / 8, 0), (1 / 4, 1 / 4), (1 / 2, 1 / 8)):
            value = winning_probability_with_q(game, strategy,
                                               hamming_q_set(n, gamma, gamma_prime))
            bound = imperfect_guessing_bound(0.5, 2, n, gamma, gamma_prime)
            assert bb84_parallel_value(n) - 1e-12 <= value <= bound + 1e-12


def test_strategy_basis_order_does_not_change_its_value(rng):
    g = game_power(bb84_game(), 2)
    s = random_strategy(g, 2, 2, rng)
    order = g.basis_labels[::-1]
    flipped = Strategy(s.rho_abc, s.dims, {t: s.bob_povms[t] for t in order},
                       {t: s.charlie_povms[t] for t in order})
    assert flipped.thetas == order
    assert np.array_equal(_basis_terms(g, flipped), _basis_terms(g, s))
    assert winning_probability(g, flipped) == winning_probability(g, s)
    q = hamming_q_set(2, 0.5, 0.5)
    assert winning_probability_with_q(g, flipped, q) == \
        winning_probability_with_q(g, s, q)


def _one_row_table(game, strategy) -> np.ndarray:
    """Oracle: the 2 x 2 round table T[b, c] of a product of `strategy`, from
    four evaluations of one-row Q-sets, x -> x ⊕ b for Bob and x -> x ⊕ c for
    Charlie."""
    return np.array([[win_terms(game, strategy.bob, strategy.charlie, strategy.rho_abc,
                                QSet([[b, 1 - b]], [[c, 1 - c]])).mean()
                      for c in (0, 1)] for b in (0, 1)])


def test_the_product_round_table_matches_one_row_q_sets_bit_for_bit():
    # 50 random one-round strategies, half with their bases listed in
    # reverse, each against up to three zipped XOR-shift pairs over 2-4 rounds
    g = bb84_game()
    for seed in range(50):
        rng = rng_for(seed)
        s = random_strategy(g, int(rng.integers(1, 3)), int(rng.integers(1, 3)), rng)
        n = int(rng.integers(2, 5))
        shifts = np.unique(rng.integers(0, 2**n, (3, 2)), axis=0)
        points = np.arange(2**n)
        q = QSet(points ^ shifts[:, :1], points ^ shifts[:, 1:])
        bits = (shifts[..., None] >> np.arange(n - 1, -1, -1)) & 1
        table = _one_row_table(g, s)
        expected = float(table[bits[:, 0], bits[:, 1]].prod(axis=1).sum())
        order = g.thetas[::-1] if seed % 2 else g.thetas
        played = Strategy(s.rho_abc, s.dims, {t: s.bob_povms[t] for t in order},
                          {t: s.charlie_povms[t] for t in order})
        assert winning_probability_with_q(game_power(g, n), product_strategy(played, n),
                                          q) == expected


def test_strategy_parties_must_cover_the_same_bases():
    g = bb84_game()
    guess = constant_guess_povms(g.thetas, g.outcomes, "0", dim=1)
    rho = np.kron(np.eye(2, dtype=complex) / 2, np.eye(1, dtype=complex))
    with pytest.raises(ValidationError):
        Strategy(rho, (2, 1, 1), guess, {"0": guess["0"]})


def test_strategy_missing_a_game_basis_is_rejected():
    g = bb84_game()
    guess = constant_guess_povms(("0",), g.outcomes, "0", dim=1)
    rho = np.kron(np.eye(2, dtype=complex) / 2, np.eye(1, dtype=complex))
    s = Strategy(rho, (2, 1, 1), guess, dict(guess))
    with pytest.raises(ValidationError):
        winning_probability(g, s)


def test_product_strategy_follows_an_unsorted_basis_order():
    base = bb84_game()
    g = MonogamyGame(dim_a=2, thetas=("1", "0"), outcomes=("0", "1"),
                     povms={"1": base.povms["1"], "0": base.povms["0"]})
    # Bob measures exactly as Alice does, on his half of a maximally
    # entangled pair; Charlie guesses "0"
    rho = np.kron(maximally_entangled_density(2), np.eye(1, dtype=complex))
    s1 = Strategy(rho, (2, 2, 1), g.povms,
                  constant_guess_povms(g.thetas, g.outcomes, "0", dim=1))
    g2, s2 = game_power(g, 2), product_strategy(s1, 2)
    assert g2.basis_labels == ("11", "10", "01", "00")
    oracle = dense_product(g2, s2)
    assert oracle.thetas == g2.basis_labels
    dense = [power_elements(factors) for factors in basis_factors(g2)]
    np.testing.assert_allclose(oracle.bob, dense, atol=1e-12, rtol=0)
    assert winning_probability(g2, s2) == \
        pytest.approx(winning_probability(g, s1) ** 2, abs=1e-12)
    assert winning_probability(g2, s2) == \
        pytest.approx(winning_probability(g2, oracle), abs=1e-12)


def test_a_product_of_a_two_round_strategy_plays_its_own_blocks():
    # the seesaw's dense bb84^2 strategy, played three times over six
    # rounds: each of its product rounds is a block of two game rounds
    g2 = game_power(bb84_game(), 2)
    s = seesaw(g2, SeesawConfig(bob_dim=4, charlie_dim=4, restarts=4)).strategy
    value = winning_probability(game_power(bb84_game(), 6), product_strategy(s, 3))
    assert value == pytest.approx(winning_probability(g2, s)**3, abs=1e-12)
    with pytest.raises(DimensionError, match="3 product rounds of 2 game rounds != 5"):
        winning_probability(game_power(bb84_game(), 5), product_strategy(s, 3))


def test_a_product_of_two_round_blocks_takes_xor_q_sets_block_by_block(rng):
    # a random round played four times, once as such and once as two
    # blocks of its dense two-round product: every XOR-shift Q-set values
    # both alike
    g = bb84_game()
    s1 = random_strategy(g, 2, 1, rng)
    s2 = dense_product(game_power(g, 2), product_strategy(s1, 2))
    g4 = game_power(g, 4)
    points = np.arange(16)
    for q in (hamming_q_set(4, 0.25, 0.5), same_string_q_set(4, 0.5),
              QSet(points ^ np.array([[0], [6], [13]]), points ^ np.array([[9], [6], [0]]))):
        assert winning_probability_with_q(g4, product_strategy(s2, 2), q) == pytest.approx(
            winning_probability_with_q(g4, product_strategy(s1, 4), q), abs=1e-12)


def test_product_strategy_of_entangled_round(rng):
    # product of a basis-matching entangled round keeps its per-round value
    g = bb84_game()
    rho = np.kron(maximally_entangled_density(2), np.eye(1, dtype=complex))
    bob = {t: g.povms[t] for t in g.thetas}
    charlie = constant_guess_povms(g.thetas, g.outcomes, "0", dim=1)
    s1 = Strategy(rho, (2, 2, 1), bob, charlie)
    s2 = product_strategy(s1, 2)
    assert winning_probability(game_power(g, 2), s2) == pytest.approx(0.25, abs=1e-12)


def test_strategy_state_purity():
    s = bb84_optimal_unentangled_strategy()
    assert np.trace(s.rho_abc @ s.rho_abc).real == pytest.approx(1.0, abs=1e-12)


def test_product_strategy_state_is_the_regrouped_tensor_power(rng):
    # the oracle's state: the kron power of the round state with its tensor
    # factors permuted from (A1 B1 C1 A2 ...) to (A1 A2 ...)(B1 ...)(C1 ...),
    # which the product strategy's round-by-round value must match
    dims = (2, 2, 3)
    g1 = MonogamyGame(2, ("0",), ("0", "1"), bb84_game().elements[:1])
    s1 = random_strategy(g1, 2, 3, rng)
    g3, s3 = game_power(g1, 3), product_strategy(s1, 3)
    dense = dense_product(g3, s3)
    big = linalg.tensor(s1.rho_abc, s1.rho_abc, s1.rho_abc)
    order = [0, 3, 6, 1, 4, 7, 2, 5, 8]
    np.testing.assert_array_equal(dense.rho_abc,
                                  reorder_systems(big, dims * 3, order))
    assert dense.dims == (8, 8, 27) and s3.dims == dims
    assert dense.rho_abc.flags.owndata and not dense.rho_abc.flags.writeable
    assert winning_probability(g3, s3) == \
        pytest.approx(winning_probability(g3, dense), abs=1e-12)


def test_product_strategy_shares_its_round_arrays():
    # the entangled (2, 2, 1) BB84 round: written out at n = 5, its real
    # state and Bob's real stack would hold 8 MiB each; the product keeps the
    # round's own read-only arrays at any round count
    import tracemalloc
    g = bb84_game()
    s1 = Strategy(maximally_entangled_density(2), (2, 2, 1), g.povms,
                  constant_guess_povms(g.thetas, g.outcomes, "0"))
    dense = dense_product(game_power(g, 5), product_strategy(s1, 5))
    assert dense.rho_abc.nbytes == dense.bob.nbytes == 8 * 2**20
    product_strategy(s1, 2)  # one-time allocations of numpy and the package
    tracemalloc.start()
    try:
        s20 = product_strategy(s1, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert s20.rounds == 20 and s20.dims == s1.dims
    assert all(getattr(s20, name) is getattr(s1, name)
               for name in ("rho_abc", "bob", "charlie", "bob_povms", "thetas"))
    assert product_strategy(s20, 2).rounds == 40
