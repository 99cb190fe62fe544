"""End-to-end acceptance checks.

Every quantitative target of the package is pinned here at its stated
tolerance, one test per criterion, each printing a single pass/fail line
(run with `pytest -s tests/test_acceptance.py` to see them live).

Two checks encode arithmetically unattainable targets and are left red on
purpose rather than loosened; the blocking numbers are worked out in their
docstrings.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from monogamy.bounds import (BB84_ROUND_VALUE, bb84_parallel_value,
                             binary_entropy)
from monogamy.games import (Strategy, bb84_game, constant_guess_povms,
                            game_power, maximally_entangled_density, overlap,
                            product_strategy, win_operator, winning_probability)
from monogamy.posver import (BreidbartPair, TimingScenario,
                             entangled_soundness_bound, max_entanglement_rate,
                             simulate_pv_rounds, soundness_bound)
from monogamy.qkd import (HonestNoisyDevice, QkdParams, max_key_length,
                          noise_threshold, run_eqkd_trials)
from monogamy.rand import (random_density, random_povm,
                           random_projective_povm, rng_for)
from monogamy.seesaw import SeesawConfig, seesaw
from monogamy.uncertainty import CqEnsemble, check_uncertainty_relation, secdef_gap

from conftest import (cyclic_permutations, dense_product, kittaneh_sum_bound,
                      schatten_inf_norm)


@contextmanager
def criterion(label: str, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL - {description} "
              f"[{time.perf_counter() - start:.1f}s]")
        raise
    print(f"criterion {label}: PASS - {description} "
          f"[{time.perf_counter() - start:.1f}s]")


def test_criterion_01_single_round_optimum():
    """Seesaw with 20 restarts and classical memories converges to the exact
    single-round value; the closed form matches it exactly."""
    with criterion("1", "single-round seesaw hits 0.8535533906 within 1e-6"):
        start = time.perf_counter()
        result = seesaw(bb84_game(), SeesawConfig(seed=7, restarts=20,
                                                  bob_dim=1, charlie_dim=1))
        elapsed = time.perf_counter() - start
        assert abs(result.value - 0.8535533906) <= 1e-6
        assert bb84_parallel_value(1) == 0.5 + 0.5 / math.sqrt(2.0)
        assert abs(bb84_parallel_value(1) - result.value) <= 1e-6
        assert elapsed < 5.0


def test_criterion_02_strong_parallel_repetition_desk_scale():
    """For one and two rounds, every seesaw run (free-form and product
    initialization, entangling dimensions allowed) stays below the n-th power
    of the single-round value, and the explicit product strategy meets it."""
    with criterion("2", "seesaw <= round_value^n + 1e-6; product strategy "
                        "equals it within 1e-9"):
        start = time.perf_counter()
        g1 = bb84_game()
        s1_result = seesaw(g1, SeesawConfig(seed=5, restarts=6, bob_dim=2,
                                            charlie_dim=2))
        assert s1_result.value <= bb84_parallel_value(1) + 1e-6

        g2 = game_power(g1, 2)
        free = seesaw(g2, SeesawConfig(seed=5, restarts=4, max_iters=60,
                                       bob_dim=4, charlie_dim=4))
        assert free.value <= bb84_parallel_value(2) + 1e-6

        product_round = dense_product(g2, product_strategy(s1_result.strategy, 2))
        seeded = seesaw(g2, SeesawConfig(seed=6, restarts=1, max_iters=60,
                                         bob_dim=4, charlie_dim=4),
                        init_povms=(product_round.bob, product_round.charlie))
        assert seeded.value <= bb84_parallel_value(2) + 1e-6

        from monogamy.seesaw import bb84_optimal_unentangled_strategy
        for n in (1, 2):
            sn = product_strategy(bb84_optimal_unentangled_strategy(), n)
            value = winning_probability(game_power(g1, n) if n > 1 else g1, sn)
            assert abs(value - bb84_parallel_value(n)) <= 1e-9
        assert time.perf_counter() - start < 120.0


def test_criterion_03_entanglement_does_not_help():
    """Maximal A:B entanglement with a basis-matching second player and a
    constant third player evaluates to exactly one half."""
    with criterion("3", "entangled-Bob strategy evaluates to exactly 0.5"):
        start = time.perf_counter()
        g = bb84_game()
        rho = np.kron(maximally_entangled_density(2), np.eye(1, dtype=complex))
        bob = {t: g.povms[t] for t in g.thetas}
        charlie = constant_guess_povms(g.thetas, g.outcomes, "0", dim=1)
        value = winning_probability(g, Strategy(rho, (2, 2, 1), bob, charlie))
        assert value == 0.5
        assert value < 0.8536
        assert time.perf_counter() - start < 1.0


def test_criterion_04_cross_term_norm_property():
    """Products of per-basis winning operators of projective strategies decay
    with the Hamming distance of the basis strings."""
    with criterion("4", "||Pi Pi'|| <= 2^(-t/2) + 1e-8 on 200 projective "
                        "strategies, n <= 3"):
        start = time.perf_counter()
        rng = rng_for(404)
        plan = [(1, 67), (2, 67), (3, 66)]
        for n, count in plan:
            g = game_power(bb84_game(), n)
            labels, n_out = g.basis_labels, len(g.outcomes)**n
            for _ in range(count):
                bob = np.array([random_projective_povm(2, n_out, rng)
                                for _ in labels])
                charlie = np.array([random_projective_povm(2, n_out, rng)
                                    for _ in labels])
                ops = {t: win_operator(g, bob, charlie, i) for i, t in enumerate(labels)}
                for ta, tb in itertools.combinations(labels, 2):
                    t_dist = sum(a != b for a, b in zip(ta, tb))
                    norm = schatten_inf_norm(ops[ta] @ ops[tb])
                    assert norm <= 2.0 ** (-t_dist / 2.0) + 1e-8
        assert time.perf_counter() - start < 120.0


def test_criterion_05_operator_sum_bound_suite():
    """The operator-sum norm bound with cyclic-shift permutation sets holds on
    200 random PSD tuples."""
    with criterion("5", "sum-norm bound lhs <= rhs + 1e-9 on 200 PSD tuples"):
        start = time.perf_counter()
        rng = rng_for(505)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 9))
            ops = []
            for _ in range(n):
                rank = int(rng.integers(1, dim + 1))
                g = rng.standard_normal((dim, rank)) \
                    + 1j * rng.standard_normal((dim, rank))
                ops.append(g @ g.conj().T)
            lhs, rhs = kittaneh_sum_bound(ops, cyclic_permutations(n))
            assert lhs <= rhs + 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_06_overlap_laws():
    """The base-game overlap is exactly one half and the overlap of tensor
    powers is multiplicative."""
    with criterion("6", "overlap(base) == 0.5 exactly; power law within 1e-12"):
        g = bb84_game()
        c = overlap(g)
        assert c == 0.5
        for n in (2, 3):
            assert abs(overlap(game_power(g, n)) - c**n) <= 1e-12


def test_criterion_07_noise_threshold():
    """The zero-rate noise level sits in the expected window around 1.5%."""
    with criterion("7", "threshold gamma* in [0.0148, 0.0158]"):
        start = time.perf_counter()
        gstar = noise_threshold()
        assert 0.0148 <= gstar <= 0.0158
        assert 2 * binary_entropy(gstar) == pytest.approx(
            -math.log2(BB84_ROUND_VALUE), abs=1e-9)
        assert time.perf_counter() - start < 1.0


def test_criterion_08_asymptotic_key_rate():
    """Key rate at n = 1e8 with a t = n^(2/3) sampling schedule.

    Arithmetically unattainable as stated, for every epsilon and target: the
    maximal ell satisfies

        ell/n = log2(1/b) - 2 h(g+e) - t/n + 2/n - (2/n) log2(1/delta_pa),

    so the distance to the named rate is at least t/n - 2/n, and with
    t = ceil(n^(2/3)) = 215444 at n = 1e8 that is 2.154e-3 > 1e-3 before the
    (positive) target-dependent correction.  The same schedule with
    t = O(n^0.6) passes comfortably (see test_qkd rate test).  Kept faithful
    and red.
    """
    with criterion("8", "ell/n within 1e-3 of the asymptotic rate at "
                        "t = n^(2/3)"):
        start = time.perf_counter()
        n = 10**8
        t = math.ceil(n ** (2.0 / 3.0))
        gamma, target = 0.005, 1e-9
        best = math.inf
        for eps_step in range(50, 301, 5):  # epsilon in [0.005, 0.03]
            epsilon = eps_step / 10**4
            s = math.ceil(n * binary_entropy(gamma + epsilon))
            rep = max_key_length(n, t, s, gamma, epsilon, target)
            if not rep.feasible:
                continue
            rate = -math.log2(BB84_ROUND_VALUE) - 2 * binary_entropy(gamma + epsilon)
            best = min(best, abs(rep.ell / n - rate))
        assert time.perf_counter() - start < 1.0
        assert best <= 1e-3


def test_criterion_09_protocol_simulator():
    """Noiseless runs never abort and always agree on the key; the sampled
    error rate honors its concentration bound under noise."""
    with criterion("9", "0 aborts / full key agreement at n=64; sampling "
                        "violations below exp(-0.5) at n=400"):
        start = time.perf_counter()
        clean = QkdParams(n=64, t=16, s=16, ell=16, gamma=0.0, epsilon=0.05)
        agg = run_eqkd_trials(clean, HonestNoisyDevice(0.0), 10**4, seed=909)
        assert agg["aborts"] == 0
        assert agg["completed"] == 10**4
        assert agg["key_match_rate"] == 1.0

        noisy = QkdParams(n=400, t=100, s=0, ell=0, gamma=0.0, epsilon=0.05)
        agg2 = run_eqkd_trials(noisy, HonestNoisyDevice(0.05), 10**5, seed=909)
        bound = math.exp(-2 * 0.05**2 * 100)
        assert bound == pytest.approx(0.6065306597126334, rel=1e-12)
        assert agg2["hoeffding_violation_rate"] <= bound
        assert agg2["hoeffding_violation_rate"] < 0.05  # far below, in practice
        assert time.perf_counter() - start < 300.0


def test_criterion_10_position_verification_simulation():
    """The intermediate-basis adversary pair meets the single-round bound and
    stays below the 20-round bound."""
    with criterion("10", "adversary acceptance 0.8536 +- 0.004 at n=1; "
                         "<= bound + 5 sigma at n=20"):
        start = time.perf_counter()
        scenario = TimingScenario(v0=0.0, v1=2.0, pos=1.0)
        one = simulate_pv_rounds(scenario, 1, BreidbartPair(), 10**5, seed=10)
        assert abs(one["acceptance_rate"] - 0.8536) <= 0.004

        twenty = simulate_pv_rounds(scenario, 20, BreidbartPair(), 10**6, seed=10)
        p = soundness_bound(20)
        sigma = math.sqrt(p * (1 - p) / 10**6)
        assert p == pytest.approx(0.0422, abs=1e-4)
        assert twenty["acceptance_rate"] <= p + 5 * sigma
        assert time.perf_counter() - start < 300.0


def test_criterion_11_entanglement_rate_threshold():
    """Pre-shared entanglement budget: threshold window, then decay of the
    bound at rate 0.2.

    The second clause is arithmetically unattainable as stated: with
    d = 2^ceil(0.2 n) the bound is 2^(0.2 n - 0.228447 n) up to the ceiling,
    which at n = 250 is 2^(50 - 57.11) = 7.23e-3 > 1e-3; the bound first
    drops below 1e-3 near n = 355.  Kept faithful and red.
    """
    with criterion("11", "rate in (0.228, 0.229); rate-0.2 bound below 1e-3 "
                         "by n = 250"):
        start = time.perf_counter()
        rate = max_entanglement_rate()
        assert 0.228 < rate < 0.229

        values = [entangled_soundness_bound(n, 2 ** math.ceil(0.2 * n))
                  for n in range(10, 251, 10)]
        assert all(b < a + 1e-12 for a, b in zip(values, values[1:]))
        assert time.perf_counter() - start < 1.0
        assert values[-1] <= 1e-3


def test_criterion_12_two_observer_tradeoff_suite():
    """The guessing-probability tradeoff against the measurement overlap holds
    on 500 random instances, and the intermediate state saturates it."""
    with criterion("12", "p_guess sums <= 1 + sqrt(c) + 1e-7 on 500 states; "
                         "saturation within 1e-9"):
        start = time.perf_counter()
        rng = rng_for(1212)
        for _ in range(500):
            rho = random_density(8, rng)
            f0 = random_povm(2, 2, rng)
            f1 = random_povm(2, 2, rng)
            rep = check_uncertainty_relation(rho, (2, 2, 2), f0, f1)
            assert rep.sum <= rep.bound + 1e-7

        g = bb84_game()
        phi = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
        rho = np.kron(np.outer(phi, phi), np.eye(1, dtype=complex))
        rep = check_uncertainty_relation(rho, (2, 1, 1), g.povms["0"],
                                         g.povms["1"])
        assert abs(rep.sum - (1.0 + 1.0 / math.sqrt(2.0))) <= 1e-9
        assert time.perf_counter() - start < 120.0


def test_criterion_13_conditioned_security_comparison():
    """The conditioned trace-distance comparison holds on 200 random CQ-state
    pairs with random events."""
    with criterion("13", "secdef lhs <= rhs on 200 random CQ pairs"):
        start = time.perf_counter()
        rng = rng_for(1313)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 4))
            labels = tuple(str(i) for i in range(k))

            def draw() -> CqEnsemble:
                w = rng.dirichlet(np.ones(k))
                return CqEnsemble(labels, w,
                                  {labels[i]: random_density(dim, rng)
                                   for i in range(k)})

            keep = set(l for l in labels if rng.random() < 0.5)
            lhs, rhs = secdef_gap(draw(), draw(), lambda x: x in keep)
            assert lhs <= rhs + 1e-9
        assert time.perf_counter() - start < 30.0
