"""The tensor contractions against a direct kron + partial-trace oracle.

The oracle builds every operator densely with ``np.kron`` and applies it to
the full state, exactly as the definitions read; the package contracts the
state as a tensor and never builds those operators.  For games of several
rounds the oracle's measurements are the dense n-fold products of
``power_elements``, while the package traces out Alice's rounds one by one.
A product Q-set, which the package smears into one row pair, is checked
against the same pairs listed as zipped rows.  A product strategy, which the
package evaluates on one round, is checked against its dense n-fold form.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monogamy import linalg
from monogamy.games import (MonogamyGame, QSet, Strategy, _basis_terms, conditional_stack,
                            game_power, hamming_q_set, product_strategy,
                            same_string_q_set, win_operator, win_terms,
                            winning_probability, winning_probability_with_q,
                            xor_permutation_family)
from monogamy.rand import random_density, random_povm, rng_for
from monogamy.seesaw import _conditional_operators
from monogamy.uncertainty import post_measurement_state

from conftest import basis_factors, dense_product, power_elements

ATOL = 1e-12


def kron(*mats) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def oracle_win_operator(f, p, c, pairs=None) -> np.ndarray:
    """sum_x F_x ⊗ sum_(pb, pc) P_pb(x) ⊗ Q_pc(x); no pairs is the identity pair."""
    pairs = pairs or [(range(len(f)), range(len(f)))]
    return sum(kron(f[x], p[pb[x]], c[pc[x]]) for x in range(len(f)) for pb, pc in pairs)


def random_case(seed, da, db, dc, n_out, n_theta):
    rng = rng_for(seed)
    thetas = tuple(str(t) for t in range(n_theta))
    outcomes = tuple(str(x) for x in range(n_out))
    game = MonogamyGame(da, thetas, outcomes,
                        {t: random_povm(da, n_out, rng) for t in thetas})
    bob = {t: tuple(random_povm(db, n_out, rng)) for t in thetas}
    charlie = {t: tuple(random_povm(dc, n_out, rng)) for t in thetas}
    strategy = Strategy(random_density(da * db * dc, rng), (da, db, dc), bob, charlie)
    perms = [tuple(int(i) for i in rng.permutation(n_out)) for _ in range(6)]
    pairs = list(dict.fromkeys(zip(perms[::2], perms[1::2])))
    return game, strategy, pairs


cases = st.builds(random_case, seed=st.integers(0, 2**32 - 1), da=st.integers(1, 3),
                  db=st.integers(1, 3), dc=st.integers(1, 3), n_out=st.integers(2, 3),
                  n_theta=st.integers(2, 3))


@settings(max_examples=40, deadline=None)
@given(cases, st.booleans())
def test_win_terms_and_operator_match_oracle(case, with_q):
    game, s, pairs = case
    pairs = pairs if with_q else None
    q = None if pairs is None else QSet(*zip(*pairs))
    terms = win_terms(game, s.bob, s.charlie, s.rho_abc, q)
    for i, (theta, term) in enumerate(zip(game.thetas, terms)):
        # the oracle reads the label-keyed views, the package the stacks
        f, p, c = game.povms[theta], s.bob_povms[theta], s.charlie_povms[theta]
        op = oracle_win_operator(f, p, c, pairs)
        assert abs(term - np.trace(op @ s.rho_abc).real) <= ATOL
        if pairs is None:
            np.testing.assert_allclose(win_operator(game, s.bob, s.charlie, i), op,
                                       atol=ATOL, rtol=0)
    # the same strategy with its bases stored in reverse order is realigned
    # to the game by label
    order = game.thetas[::-1]
    reversed_s = Strategy(s.rho_abc, s.dims, {t: s.bob_povms[t] for t in order},
                          {t: s.charlie_povms[t] for t in order})
    assert reversed_s.thetas == order
    for strategy in (s, reversed_s):
        if pairs is None:
            assert abs(winning_probability(game, strategy) - terms.mean()) <= ATOL
        else:
            assert abs(winning_probability_with_q(game, strategy, q)
                       - terms.mean()) <= ATOL


@settings(max_examples=40, deadline=None)
@given(cases)
def test_conditional_operators_match_oracle(case):
    game, s, _ = case
    da, db, dc = s.dims
    for party, fixed, keep in (("B", s.charlie_povms, 1), ("C", s.bob_povms, 2)):
        stack = s.charlie if party == "B" else s.bob
        sigmas = _conditional_operators(game, conditional_stack(game, s.rho_abc),
                                        stack, party)
        assert sigmas.shape[:2] == (len(game.thetas), len(game.outcomes))
        for theta, per_theta in zip(game.thetas, sigmas):
            f = game.povms[theta]
            for x, sigma in enumerate(per_theta):
                if party == "B":
                    op = kron(f[x], np.eye(db), fixed[theta][x])
                else:
                    op = kron(f[x], fixed[theta][x], np.eye(dc))
                expected = linalg.partial_trace(op @ s.rho_abc, s.dims, [keep])
                np.testing.assert_allclose(sigma, linalg.hermitianize(expected),
                                           atol=ATOL, rtol=0)


@settings(max_examples=40, deadline=None)
@given(cases)
def test_post_measurement_state_matches_oracle(case):
    game, s, _ = case
    da, db, dc = s.dims
    f0, f1 = (game.povms[t] for t in game.thetas[:2])
    b_ens, c_ens = post_measurement_state(s.rho_abc, s.dims, f0, f1)
    for theta, elems in enumerate((f0, f1)):
        ops = [kron(e, np.eye(db * dc)) @ s.rho_abc for e in elems]
        weights = np.array([np.trace(op).real for op in ops])
        np.testing.assert_allclose(b_ens[theta].weights, weights / weights.sum(),
                                   atol=ATOL, rtol=0)
        for x, op in enumerate(ops):
            for ens, keep in ((b_ens, 1), (c_ens, 2)):
                expected = linalg.partial_trace(op, s.dims, [keep]) / weights[x]
                np.testing.assert_allclose(ens[theta].conditionals[str(x)],
                                           linalg.hermitianize(expected),
                                           atol=ATOL, rtol=0)


def random_power_case(seed, da, db, dc, n_out, rounds):
    """A random two-basis family played for `rounds` rounds, its dense n-fold
    measurements, and random guessers, state and displacement pairs over the
    n-round bases and outcomes."""
    rng = rng_for(seed)
    outcomes = tuple(str(x) for x in range(n_out))
    family = MonogamyGame(da, ("0", "1"), outcomes,
                          {t: random_povm(da, n_out, rng) for t in ("0", "1")})
    game = game_power(family, rounds)
    dense = np.array([power_elements(factors) for factors in basis_factors(game)])
    bases, n_str = dense.shape[:2]
    bob = np.array([random_povm(db, n_str, rng) for _ in range(bases)])
    charlie = np.array([random_povm(dc, n_str, rng) for _ in range(bases)])
    rho = random_density(da**rounds * db * dc, rng)
    perms = [tuple(int(i) for i in rng.permutation(n_str)) for _ in range(6)]
    pairs = list(dict.fromkeys(zip(perms[::2], perms[1::2])))
    return game, dense, bob, charlie, rho, pairs


power_cases = st.builds(random_power_case, seed=st.integers(0, 2**32 - 1),
                        da=st.integers(1, 2), db=st.integers(1, 2), dc=st.integers(1, 2),
                        n_out=st.integers(2, 3), rounds=st.integers(1, 3))


@settings(max_examples=30, deadline=None)
@given(power_cases, st.booleans())
def test_round_by_round_contractions_match_the_dense_oracle(case, with_q):
    game, dense, bob, charlie, rho, pairs = case
    pairs = pairs if with_q else None
    q = None if pairs is None else QSet(*zip(*pairs))
    terms = win_terms(game, bob, charlie, rho, q)
    labels = game.basis_labels
    assert len(terms) == len(labels) == len(dense)
    dims = (game.alice_dim, bob.shape[-1], charlie.shape[-1])
    states = conditional_stack(game, rho)
    sigmas = {party: _conditional_operators(game, states, fixed, party)
              for party, fixed in (("B", charlie), ("C", bob))}
    for i, theta in enumerate(labels):
        op = oracle_win_operator(dense[i], bob[i], charlie[i], pairs)
        assert abs(terms[i] - np.trace(op @ rho).real) <= ATOL
        if pairs is None:
            np.testing.assert_allclose(win_operator(game, bob, charlie, i), op,
                                       atol=ATOL, rtol=0)
        for x, f in enumerate(dense[i]):
            measured = {"B": kron(f, np.eye(dims[1]), charlie[i][x]),
                        "C": kron(f, bob[i][x], np.eye(dims[2]))}
            for party, keep in (("B", 1), ("C", 2)):
                expected = linalg.partial_trace(measured[party] @ rho, dims, [keep])
                np.testing.assert_allclose(sigmas[party][i][x], expected,
                                           atol=ATOL, rtol=0)


def random_product_q_set(seed, n_str):
    """A product Q-set of one to four distinct random rows per party."""
    rng = rng_for(seed, 1)
    rows = [np.unique([rng.permutation(n_str) for _ in range(int(rng.integers(1, 5)))],
                      axis=0) for _ in range(2)]
    return QSet(*rows, product=True)


product_cases = st.builds(random_power_case, seed=st.integers(0, 2**32 - 1),
                          da=st.integers(1, 2), db=st.integers(1, 2), dc=st.integers(1, 2),
                          n_out=st.just(2), rounds=st.integers(1, 4))


@settings(max_examples=30, deadline=None)
@given(product_cases, st.integers(0, 2**32 - 1))
def test_smeared_product_set_matches_its_zipped_expansion(case, seed):
    game, _, bob, charlie, rho, _ = case
    q = random_product_q_set(seed, bob.shape[1])
    # every (Bob row, Charlie row) pair, Bob's row most significant
    zipped = QSet(np.repeat(q.bob, len(q.charlie), axis=0),
                  np.tile(q.charlie, (len(q.bob), 1)))
    assert len(zipped) == len(q)
    np.testing.assert_allclose(win_terms(game, bob, charlie, rho, q),
                               win_terms(game, bob, charlie, rho, zipped), atol=ATOL, rtol=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                       min_size=1, max_size=3))
def test_power_elements_matches_kron(seed, shapes):
    rng = rng_for(seed)
    factors = [rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
               for k, d in shapes]
    out = power_elements(factors)
    # lexicographic, round 1 most significant
    expected = [kron(*(f[x] for f, x in zip(factors, xs)))
                for xs in itertools.product(*(range(k) for k, _ in shapes))]
    np.testing.assert_array_equal(out, np.array(expected))


@pytest.mark.parametrize("dims, n", [((2, 2, 2), 2), ((2, 2, 2), 3), ((2, 2, 1), 4),
                                     ((2, 1, 2), 4)])
def test_product_strategy_matches_the_dense_oracle(dims, n):
    # a random binary-outcome round with an entangled state, played n times
    rng = rng_for(n, *dims)
    family = MonogamyGame(2, ("0", "1"), ("0", "1"),
                          {t: random_povm(2, 2, rng) for t in ("0", "1")})
    one = Strategy(random_density(dims[0] * dims[1] * dims[2], rng), dims,
                   {t: tuple(random_povm(dims[1], 2, rng)) for t in ("0", "1")},
                   {t: tuple(random_povm(dims[2], 2, rng)) for t in ("0", "1")})
    game, product = game_power(family, n), product_strategy(one, n)
    dense = dense_product(game, product)
    np.testing.assert_allclose(_basis_terms(game, product), _basis_terms(game, dense),
                               atol=ATOL, rtol=0)
    fam = xor_permutation_family(n, 2)
    q_sets = [hamming_q_set(n, g, gp) for g, gp in ((0, 0), (0.25, 0.5), (0.5, 0.5))]
    q_sets += [same_string_q_set(n, 0.5), QSet(fam, fam), QSet(fam, fam[::-1])]
    for q in q_sets:
        assert abs(winning_probability_with_q(game, product, q)
                   - winning_probability_with_q(game, dense, q)) <= ATOL
