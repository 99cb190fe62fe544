"""Alternating-optimization search: block steps, convergence, monotonicity."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from monogamy.bounds import BB84_ROUND_VALUE, bb84_parallel_value
from monogamy.errors import CapacityError, DimensionError, DomainError, ValidationError
from monogamy.fixtures import load_fixture
from monogamy.games import (MonogamyGame, Strategy, bb84_game, conditional_stack, game_power,
                            product_strategy, winning_probability)
from monogamy.seesaw import (SeesawConfig, bb84_optimal_unentangled_strategy,
                             optimal_povm_step, optimal_state_step, seesaw)

from conftest import dense_product, schatten_inf_norm


def test_state_step_for_constant_guessers():
    g = bb84_game()
    # every basis: the 1-dimensional identity on outcome "0"
    guess = np.zeros((2, 2, 1, 1), dtype=complex)
    guess[:, 0] = 1.0
    rho, value = optimal_state_step(g, guess, guess)
    assert value == pytest.approx(BB84_ROUND_VALUE, abs=1e-12)
    # optimal sender state is cos(pi/8)|0> + sin(pi/8)|1>
    phi = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    fidelity = float((phi @ rho.real @ phi))
    assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_state_step_flat_spectrum_uniform_answers():
    g = bb84_game()
    uniform = np.broadcast_to(np.eye(2, dtype=complex) / 2, (2, 2, 2, 2))
    rho, value = optimal_state_step(g, uniform, uniform)
    assert value == pytest.approx(0.25, abs=1e-12)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)


def test_state_step_value_never_exceeds_one(rng):
    from monogamy.rand import random_projective_povm
    g = bb84_game()
    for _ in range(10):
        bob = np.array([random_projective_povm(2, 2, rng) for _ in g.thetas])
        charlie = np.array([random_projective_povm(2, 2, rng) for _ in g.thetas])
        _, value = optimal_state_step(g, bob, charlie)
        assert value <= 1.0 + 1e-10


def test_povm_step_returns_constant_guess_for_optimal_state():
    g = bb84_game()
    s = bb84_optimal_unentangled_strategy()
    new_bob = optimal_povm_step(g, conditional_stack(g, s.rho_abc), s.charlie, "B")
    assert new_bob.shape == (len(g.thetas), 2, 1, 1)
    for povm in new_bob:
        np.testing.assert_allclose(povm[0], np.eye(1), atol=1e-12)
        np.testing.assert_allclose(povm[1], np.zeros((1, 1)), atol=1e-12)


def test_povm_step_rejects_bad_party():
    g = bb84_game()
    s = bb84_optimal_unentangled_strategy()
    with pytest.raises(ValueError):
        optimal_povm_step(g, conditional_stack(g, s.rho_abc), s.charlie, "D")


def test_povm_step_rejects_the_states_of_another_game():
    # one round's conditional states, given for a two-round game
    g = bb84_game()
    s = bb84_optimal_unentangled_strategy()
    with pytest.raises(DimensionError):
        optimal_povm_step(game_power(g, 2), conditional_stack(g, s.rho_abc), s.charlie, "B")


def test_a_nan_stops_the_search_in_its_first_cycle(monkeypatch):
    # the state step checks its eigenvectors, O(R D), in place of a density
    # check of every cycle's state
    eigh = np.linalg.eigh
    calls = []

    def nan_vectors(a, UPLO="L"):
        calls.append(a.shape)
        evals, vecs = eigh(a, UPLO=UPLO)
        return evals, np.full_like(vecs, np.nan)

    monkeypatch.setattr(np.linalg, "eigh", nan_vectors)
    with pytest.raises(ValidationError, match="not finite"):
        seesaw(game_power(bb84_game(), 2), SeesawConfig(restarts=4, bob_dim=2,
                                                        charlie_dim=2))
    assert calls == [(4, 16, 16)]


def test_seesaw_bb84_single_round_converges():
    result = seesaw(bb84_game(), SeesawConfig(seed=11, restarts=20))
    assert result.value == pytest.approx(BB84_ROUND_VALUE, abs=1e-6)
    assert result.iterations <= 10


def test_seesaw_bb84_two_rounds_converges():
    g2 = game_power(bb84_game(), 2)
    result = seesaw(g2, SeesawConfig(seed=0, restarts=20))
    assert result.value == pytest.approx(bb84_parallel_value(2), abs=1e-6)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_seesaw_classical_guessers_reach_the_parallel_value(n):
    # one-dimensional guessers win a round only together; the joint move
    # gets them out of agreeing on a wrong guess
    result = seesaw(game_power(bb84_game(), n), SeesawConfig(seed=0, restarts=20))
    assert result.value == pytest.approx(bb84_parallel_value(n), abs=1e-9)


def test_seesaw_trajectory_monotone_and_value_consistent(rng):
    g2 = game_power(bb84_game(), 2)
    for seed in (1, 5):
        result = seesaw(g2, SeesawConfig(seed=seed, restarts=4, bob_dim=2,
                                         charlie_dim=2))
        traj = result.trajectory
        assert all(traj[i + 1] >= traj[i] - 1e-10 for i in range(len(traj) - 1))
        assert result.value == pytest.approx(
            winning_probability(g2, result.strategy), abs=1e-12)
        assert result.value <= bb84_parallel_value(2) + 1e-9


# Taken with the refined measurement step and real (Haar orthogonal) starts,
# for bb84^2: (bob_dim, charlie_dim, seed) -> per-restart iterations, best
# restart, value
PINNED = {
    (4, 4, 0): ([6, 7, 6, 5], 0, 0.7285533905932751),
    (4, 4, 1): ([8, 7, 9, 8], 1, 0.7285533905932753),
    (2, 2, 5): ([7, 6, 14, 10], 0, 0.7285533905932753),
}


@pytest.mark.parametrize("dims_seed", PINNED, ids=lambda k: "dims {}/{} seed {}".format(*k))
def test_batched_restarts_follow_the_pinned_one_at_a_time_search(dims_seed):
    bob_dim, charlie_dim, seed = dims_seed
    iterations, restart, value = PINNED[dims_seed]
    result = seesaw(game_power(bb84_game(), 2),
                    SeesawConfig(seed=seed, restarts=4, bob_dim=bob_dim,
                                 charlie_dim=charlie_dim))
    assert [s.iterations for s in result.per_restart] == iterations
    assert result.restart == restart
    assert result.iterations == iterations[restart]
    assert result.value == pytest.approx(value, abs=1e-12)


def test_a_real_game_is_searched_in_real_arithmetic():
    # every array of the bb84 search is float64, down to the strategy
    result = seesaw(game_power(bb84_game(), 2), SeesawConfig(seed=0, restarts=2, bob_dim=2,
                                                             charlie_dim=2))
    s = result.strategy
    assert s.rho_abc.dtype == s.bob.dtype == s.charlie.dtype == np.float64
    # complex-typed initial stacks with no imaginary part start a real search
    one = bb84_optimal_unentangled_strategy()
    result = seesaw(bb84_game(), SeesawConfig(restarts=1),
                    init_povms=(one.bob.astype(complex), one.charlie.astype(complex)))
    assert result.strategy.rho_abc.dtype == np.float64
    assert result.value == pytest.approx(BB84_ROUND_VALUE, abs=1e-12)


# Z, X and Y bases on a qubit; the Y basis has imaginary entries
SIX_STATE = Path(__file__).resolve().parent / "six_state_game.json"


def test_the_six_state_game_searches_in_complex_arithmetic_as_it_did():
    # the complex path: pinned where every game was searched in complex128
    _, game = load_fixture(SIX_STATE)
    assert game.elements.dtype == np.complex128
    one = seesaw(game, SeesawConfig(seed=0, restarts=10))
    assert one.value == pytest.approx(0.7886751345948128, abs=1e-12)
    assert one.value == pytest.approx((1 + 1 / math.sqrt(3)) / 2, abs=1e-12)
    two = seesaw(game_power(game, 2), SeesawConfig(seed=0, restarts=10, bob_dim=2,
                                                   charlie_dim=2))
    assert two.value == pytest.approx(0.6220084679281473, abs=1e-12)
    assert [s.iterations for s in two.per_restart] == [8, 22, 7, 10, 19, 34, 10, 9, 7, 10]
    for result in (one, two):
        assert result.strategy.rho_abc.dtype == np.complex128
    assert two.strategy.bob.dtype == two.strategy.charlie.dtype == np.complex128


def test_batched_classical_guessers_follow_the_pinned_search():
    result = seesaw(game_power(bb84_game(), 3), SeesawConfig(seed=0, restarts=20))
    assert result.restart == 8
    assert result.value == pytest.approx(0.6218592167691152, abs=1e-12)


def test_per_restart_summary_names_each_stop():
    # restart 0 of bb84^3 at dims 2/2, seed 7, takes 17 cycles to settle,
    # so it stops at a cap of 10
    result = seesaw(game_power(bb84_game(), 3),
                    SeesawConfig(seed=7, restarts=2, bob_dim=2, charlie_dim=2, max_iters=10))
    first, second = result.per_restart
    assert (first.iterations, first.stop) == (10, "max_iters")
    assert (second.iterations, second.stop) == (3, "tol")
    assert result.restart == 1
    assert (second.value, second.iterations) == (result.value, result.iterations)
    assert first.value < second.value
    assert result.to_dict()["per_restart"] == [
        {"value": s.value, "iterations": s.iterations, "stop": s.stop}
        for s in result.per_restart]


def test_block_size_does_not_change_the_search(monkeypatch):
    import sys
    g2 = game_power(bb84_game(), 2)
    cfg = SeesawConfig(seed=5, restarts=4, bob_dim=2, charlie_dim=2)
    batched = seesaw(g2, cfg)
    assert sys.modules["monogamy.seesaw"]._block_size(g2, cfg, float) == 4
    monkeypatch.setattr(sys.modules["monogamy.seesaw"], "_BLOCK_BYTES", 1)
    assert sys.modules["monogamy.seesaw"]._block_size(g2, cfg, float) == 1
    alone = seesaw(g2, cfg)
    assert alone.per_restart == batched.per_restart
    assert (alone.restart, alone.trajectory) == (batched.restart, batched.trajectory)
    np.testing.assert_array_equal(alone.strategy.rho_abc, batched.strategy.rho_abc)


def test_seesaw_rejects_initial_povms_of_the_wrong_shape():
    s = bb84_optimal_unentangled_strategy()
    with pytest.raises(DimensionError):
        seesaw(bb84_game(), SeesawConfig(restarts=1, bob_dim=2),
               init_povms=(s.bob, s.charlie))


def test_seesaw_single_basis_game_reaches_one():
    povms = {"0": bb84_game().povms["0"]}
    g = MonogamyGame(dim_a=2, thetas=("0",), outcomes=("0", "1"), povms=povms)
    result = seesaw(g, SeesawConfig(seed=3, restarts=5))
    assert result.value == pytest.approx(1.0, abs=1e-9)


def test_seesaw_entanglement_does_not_help():
    result = seesaw(bb84_game(), SeesawConfig(seed=1, restarts=10, bob_dim=2,
                                              charlie_dim=2))
    assert result.value <= BB84_ROUND_VALUE + 1e-6


def test_seesaw_respects_product_initialization():
    g = bb84_game()
    s = bb84_optimal_unentangled_strategy()
    cfg = SeesawConfig(seed=0, restarts=1)
    result = seesaw(g, cfg, init_povms=(s.bob, s.charlie))
    assert result.value == pytest.approx(BB84_ROUND_VALUE, abs=1e-9)
    assert result.iterations <= 3


def test_seesaw_checks_one_strategy_per_restart(monkeypatch):
    import sys
    built = []

    def counted(*args, **kwargs):
        built.append(Strategy(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sys.modules["monogamy.seesaw"], "Strategy", counted)
    g2 = game_power(bb84_game(), 2)
    result = seesaw(g2, SeesawConfig(seed=1, restarts=3, bob_dim=2, charlie_dim=2))
    assert len(built) == 3
    assert result.strategy in built
    assert result.value == result.trajectory[-1] == winning_probability(g2, result.strategy)


def test_seesaw_peak_memory():
    # bob 16 x charlie 8 on a qubit, D = 256: the state, the averaged win
    # operator and its temporaries stay within 4.5 D x D arrays, real for
    # the real bb84 game
    import tracemalloc
    d = 256
    # one-time allocations of numpy and the package, untraced
    seesaw(bb84_game(), SeesawConfig(bob_dim=2, charlie_dim=2, restarts=1, max_iters=1))
    tracemalloc.start()
    try:
        seesaw(bb84_game(), SeesawConfig(bob_dim=16, charlie_dim=8, restarts=1, max_iters=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * d * d * 8 + 2**20


def test_seesaw_capacity_guard():
    with pytest.raises(CapacityError):
        seesaw(bb84_game(), SeesawConfig(bob_dim=64, charlie_dim=64))


def test_seesaw_config_validation():
    with pytest.raises(DomainError):
        SeesawConfig(tol=0.0)
    with pytest.raises(DomainError):
        SeesawConfig(restarts=0)


@pytest.mark.parametrize("field, value", [("max_iters", 2.5), ("restarts", 2.5),
                                          ("bob_dim", 1.5), ("charlie_dim", 1.5),
                                          ("bob_dim", 0), ("charlie_dim", -1)])
def test_seesaw_config_refuses_a_count_that_is_not_a_positive_integer(field, value):
    # a fractional count once ended in a bare TypeError deep inside the search
    with pytest.raises(DomainError, match=f"{field} must be a positive integer"):
        SeesawConfig(**{field: value})
    assert getattr(SeesawConfig(**{field: 2.0}), field) == 2


def test_optimal_unentangled_strategy_fields():
    s = bb84_optimal_unentangled_strategy()
    assert s.dims == (2, 1, 1)
    assert winning_probability(bb84_game(), s) == \
        pytest.approx(BB84_ROUND_VALUE, abs=1e-15)
    assert np.trace(s.rho_abc @ s.rho_abc).real == pytest.approx(1.0, abs=1e-12)


def test_sandwich_between_search_and_norm_bound():
    # seesaw value <= closed form <= averaged-operator norm of the optimal
    # product strategy; all three agree at desk scale
    from monogamy.games import game_power, product_strategy, win_operator
    s1 = bb84_optimal_unentangled_strategy()
    for n in (1, 2):
        g = game_power(bb84_game(), n) if n > 1 else bb84_game()
        sn = dense_product(g, product_strategy(s1, n))
        search = seesaw(g, SeesawConfig(seed=0, restarts=20)).value
        closed = bb84_parallel_value(n)
        norm = schatten_inf_norm(
            sum(win_operator(g, sn.bob, sn.charlie, i)
                for i in range(len(g.basis_labels)))) / 2**n
        assert search <= closed + 1e-9
        assert closed <= norm + 1e-9
        assert search == pytest.approx(closed, abs=1e-6)
        assert norm == pytest.approx(closed, abs=1e-6)


def test_state_step_retries_upper_triangle_when_eigh_fails(monkeypatch):
    g = game_power(bb84_game(), 2)
    s = dense_product(g, product_strategy(bb84_optimal_unentangled_strategy(), 2))
    expected = optimal_state_step(g, s.bob, s.charlie)
    eigh = np.linalg.eigh
    calls = []

    def lower_fails(a, UPLO="L"):
        calls.append(UPLO)
        if UPLO == "L":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigh", lower_fails)
    rho, value = optimal_state_step(g, s.bob, s.charlie)
    assert calls == ["L", "U"]
    assert value == pytest.approx(expected[1], abs=1e-12)
    np.testing.assert_allclose(rho, expected[0], atol=1e-10)
