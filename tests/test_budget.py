"""The one memory budget: each guarded routine predicts, from its inputs,
the bytes its largest arrays hold at once, and refuses a call over
`errors.MEMORY_BUDGET` before it allocates anything.

Each case below runs at the smallest of its sizes whose prediction reaches
8 MiB, so a routine that comes to need less memory moves to a larger size by
itself.  Under a lowered budget the call must be refused with a tracemalloc
peak below 1 MiB; under the real budget the peak must stay within the
prediction, and the prediction must not exceed twice the peak.  Each traced call follows one untraced call at the case's smallest
size, which takes the one-time allocations of numpy and the package out of
the peak.  The last tests refuse real sizes of GiB to TiB with the
allocating code patched out, so they allocate nothing.
"""

from __future__ import annotations

import itertools
import sys
import time
import tracemalloc

import numpy as np
import pytest

from monogamy import errors
from monogamy.cli import dispatch
from monogamy.errors import CapacityError
from monogamy.finite_key import QkdParams
from monogamy.games import (QSet, Strategy, bb84_game, constant_guess_povms, game_power,
                            hamming_q_set, maximally_entangled_density, product_strategy,
                            same_string_q_set, winning_probability,
                            winning_probability_with_q, xor_permutation_family)
from monogamy.posver import BreidbartPair, TimingScenario, simulate_pv_rounds
from monogamy.qkd import (HonestNoisyDevice, LinearCode, run_eqkd_trials, simulate_eqkd,
                          toeplitz_hash)
from monogamy.quantum_device import TripartiteQuantumDevice, epr_device
from monogamy.seesaw import SeesawConfig, _search_bytes, seesaw

from conftest import bb84_povms, device_strategy

MiB = 2**20
FLOOR = 8 * MiB
GUARDED = ["monogamy.games", "monogamy.seesaw", "monogamy.qkd", "monogamy.quantum_device",
           "monogamy.posver"]


def _entangled_round() -> Strategy:
    g = bb84_game()
    return Strategy(maximally_entangled_density(2), (2, 2, 1), g.povms,
                    constant_guess_povms(g.thetas, g.outcomes, "0"))


def _reversed_epr_strategy(n: int) -> Strategy:
    """The n-round EPR device strategy with its bases listed in reverse, so
    that evaluating it realigns, and copies, both party stacks."""
    s = device_strategy(maximally_entangled_density(2**n), bb84_povms(n))
    return Strategy(s.rho_abc, s.dims, s.bob[::-1], s.charlie[::-1], s.thetas[::-1])


def _build_all_tables(length: int, rows: int) -> LinearCode:
    code = LinearCode(length, rows, seed=0)
    for h in code._h.values():
        code._leader_table(h)
    return code


def _hash_inputs(ell: int):
    bits = np.random.default_rng(0).integers(0, 2, 3 * ell - 1, dtype=np.uint8)
    return bits, bits[:2 * ell], ell


def _q_value_inputs(d: int):
    """The two-round BB84 game; a maximally mixed state with Bob and Charlie
    of dimension d, who always name outcome "00"; and every pair of
    permutations of the four outcomes, as zipped Q-set rows."""
    g = game_power(bb84_game(), 2)
    guess = constant_guess_povms(g.basis_labels, ("00", "01", "10", "11"), "00", dim=d)
    dim = 4 * d * d
    s = Strategy(np.eye(dim, dtype=complex) / dim, (4, d, d), guess, guess)
    perms = np.array(list(itertools.permutations(range(4))))
    q = QSet(np.repeat(perms, len(perms), axis=0), np.tile(perms, (len(perms), 1)))
    return g, s, q


def _cases():
    """(name, sizes, prepare, call): prepare(size) builds the inputs outside
    the traced region and call(inputs) runs the guarded routine; sizes run
    upward from a tiny one."""
    line = TimingScenario(0.0, 2.0, 1.0)
    return [
        # evaluating a product strategy, which lists its per-basis terms
        ("product_strategy", range(2, 31),
         lambda n: (game_power(bb84_game(), n), product_strategy(_entangled_round(), n)),
         lambda a: winning_probability(*a)),
        # a dense strategy with its bases in reverse order, charged for its
        # realigned stacks before they are copied
        ("reversed_strategy", range(1, 6),
         lambda n: (game_power(bb84_game(), n), _reversed_epr_strategy(n)),
         lambda a: winning_probability(*a)),
        ("reversed_device_strategy", range(1, 6), _reversed_epr_strategy,
         TripartiteQuantumDevice),
        # four restarts, which run as one block until the block cap splits them
        ("seesaw", range(2, 33),
         lambda d: (bb84_game(), SeesawConfig(bob_dim=d, charlie_dim=d, restarts=4,
                                              max_iters=1)),
         lambda a: seesaw(*a)),
        ("LinearCode", [2**k for k in range(3, 21)], lambda n: n,
         lambda n: _build_all_tables(n, n // 4)),
        ("toeplitz_hash", [2**k for k in range(6, 21)], _hash_inputs,
         lambda a: toeplitz_hash(*a)),
        # batches of one row from 2^17 rounds on, with the float32 syndrome pass
        ("run_eqkd_trials", [2**k for k in range(17, 23)],
         lambda n: QkdParams(n=n, t=n // 8, s=n // 8, ell=0, gamma=0.05, epsilon=0.05),
         lambda p: run_eqkd_trials(p, HonestNoisyDevice(0.01), 3, seed=0)),
        # the EPR device, one round's table played in every round, a chunk of
        # rounds drawn at a time within the batch's per-entry charge
        ("run_eqkd_trials_epr", [2**k for k in range(17, 23)],
         lambda n: (QkdParams(n=n, t=n // 8, s=n // 8, ell=0, gamma=0.05, epsilon=0.05),
                    epr_device(n)),
         lambda a: run_eqkd_trials(*a, 3, seed=0)),
        # one trial, charged as a batch of one row
        ("simulate_eqkd", [2**k for k in range(8, 23)],
         lambda n: QkdParams(n=n, t=n // 8, s=0, ell=0, gamma=0.05, epsilon=0.05),
         lambda p: simulate_eqkd(p, HonestNoisyDevice(0.01), seed=0)),
        # every round but one sampled, where the transcript keeps the most
        ("simulate_eqkd_all_sampled", [2**k for k in range(8, 23)],
         lambda n: QkdParams(n=n, t=n - 1, s=0, ell=0, gamma=0.05, epsilon=0.05),
         lambda p: simulate_eqkd(p, HonestNoisyDevice(0.01), seed=0)),
        # the device reads its whole outcome table at construction
        ("TripartiteQuantumDevice", range(1, 6),
         lambda n: device_strategy(maximally_entangled_density(2**n), bb84_povms(n)),
         TripartiteQuantumDevice),
        ("simulate_pv_rounds", range(1, 65), lambda n: n,
         lambda n: simulate_pv_rounds(line, n, BreidbartPair(), 65536, seed=0)),
        ("hamming_q_set", range(2, 16), lambda n: n,
         lambda n: hamming_q_set(n, 0.34, 0.34)),
        ("same_string_q_set", range(2, 16), lambda n: n,
         lambda n: same_string_q_set(n, 0.5)),
        ("xor_permutation_family", range(2, 14), lambda n: n,
         lambda n: xor_permutation_family(n, 2)),
        ("winning_probability_with_q", range(2, 33), _q_value_inputs,
         lambda a: winning_probability_with_q(*a)),
    ]


CASES = {case[0]: case for case in _cases()}


class _Predicted(Exception):
    """Raised in place of the first require_bytes call, with its bytes."""


def _prediction(call, inputs) -> int:
    """The outermost prediction of call(inputs), taken before it allocates."""
    seen = []

    def stop(nbytes, what):
        seen.append(nbytes)
        raise _Predicted

    with pytest.MonkeyPatch.context() as mp:
        for name in GUARDED:
            mp.setattr(sys.modules[name], "require_bytes", stop)
        with pytest.raises(_Predicted):
            call(inputs)
    return seen[0]


def _sized(name):
    """(inputs at the smallest size, inputs at the first size whose
    prediction reaches FLOOR)."""
    _, sizes, prepare, call = CASES[name]
    for size in sizes:
        if _prediction(call, prepare(size)) >= FLOOR:
            return prepare(sizes[0]), prepare(size)
    pytest.fail(f"no size of {name} is predicted to need {FLOOR} bytes")


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def predictions(monkeypatch):
    """The nbytes of every require_bytes call, outermost first; the calls
    still check against the budget."""
    seen = []

    def recorder(nbytes, what):
        seen.append(nbytes)
        errors.require_bytes(nbytes, what)

    for name in GUARDED:
        monkeypatch.setattr(sys.modules[name], "require_bytes", recorder)
    return seen


@pytest.mark.parametrize("name", CASES)
def test_refused_before_allocating(name, monkeypatch):
    call = CASES[name][3]
    warm, inputs = _sized(name)
    call(warm)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", MiB)
    refused = []

    def attempt():
        with pytest.raises(CapacityError, match="memory budget"):
            call(inputs)
        refused.append(True)

    assert _traced_peak(attempt) < MiB
    assert refused


@pytest.mark.parametrize("name", CASES)
def test_prediction_bounds_the_peak(name, predictions):
    call = CASES[name][3]
    warm, inputs = _sized(name)
    call(warm)
    predictions.clear()
    peak = _traced_peak(lambda: call(inputs))
    predicted = predictions[0]
    assert isinstance(predicted, int)
    assert peak >= 4 * MiB
    assert peak <= predicted + MiB
    assert predicted <= 2 * peak


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_batch_of_short_rows_is_charged_its_per_row_arrays(n, predictions):
    # a full batch of 2^21 / 11n rows, after a one-trial run: below n = 8
    # its per-row rates, flags and completed-row indices are most of its
    # peak beyond the entries.  Its whole peak stays below the 4 MiB the
    # cases above need, so it is held to its prediction with no slack
    params = QkdParams(n=n, t=1, s=1, ell=1, gamma=0.3, epsilon=0.05)
    run_eqkd_trials(params, HonestNoisyDevice(0.05), 1, seed=0)
    predictions.clear()
    peak = _traced_peak(lambda: run_eqkd_trials(params, HonestNoisyDevice(0.05), 100_000,
                                                seed=0))
    assert peak <= predictions[0] <= 2 * peak


@pytest.mark.parametrize("params, noise, trials, limit", [
    (QkdParams(n=64, t=16, s=16, ell=16, gamma=0.05, epsilon=0.05), 0.01, 10_000, 3 * MiB),
    (QkdParams(n=4096, t=512, s=869, ell=1024, gamma=0.02, epsilon=0.02), 0.003, 50, 5 * MiB)])
def test_benchmark_qkd_runs_peak_below_their_floor(params, noise, trials, limit):
    # the benchmark's short and long qkd-sim runs, after a one-trial run that
    # takes the one-time allocations out of the peak: a batch draws within
    # its byte budget and frees its arrays before the next one draws, and
    # the long run's peak is mostly its weight-3 leader-table build
    run_eqkd_trials(params, HonestNoisyDevice(noise), 1, seed=1)
    assert _traced_peak(lambda: run_eqkd_trials(params, HonestNoisyDevice(noise), trials,
                                                seed=0)) <= limit


def test_budget_is_one_documented_constant():
    assert errors.MEMORY_BUDGET == 2**31
    errors.require_bytes(2**31, "exactly the budget")
    with pytest.raises(CapacityError, match="over 2\\^64 bytes"):
        errors.require_bytes(16**100, "an astronomical request")


# ---------------------------------------------------------------------------
# real sizes, with the allocating code replaced by a failing sentinel


def _sentinel(*args, **kwargs):
    pytest.fail("the guard let an oversized request reach its builder")


def test_seesaw_refuses_twelve_rounds_of_bb84(monkeypatch):
    # D = 2^12 with classical guessers, one restart per block: 6.5 D^2
    # real entries, plus 2^12 x 2^12 guesses per party held four times,
    # over 2 GiB; eleven rounds fit
    cfg = SeesawConfig()
    assert _search_bytes(game_power(bb84_game(), 11), cfg, float) <= errors.MEMORY_BUDGET
    monkeypatch.setattr(sys.modules["monogamy.seesaw"], "_search_block", _sentinel)
    with pytest.raises(CapacityError):
        seesaw(game_power(bb84_game(), 12), cfg)


def test_hamming_q_set_refuses_before_building_pairs(monkeypatch):
    # 9,908 shift rows per party over 2^14 outcomes, with the check's
    # copies: 6.5 GB; thirteen rounds (4,096 rows per party) fit
    monkeypatch.setattr(sys.modules["monogamy.games"], "_shift_rows", _sentinel)
    with pytest.raises(CapacityError):
        hamming_q_set(14, 0.5, 0.5)
    with pytest.raises(pytest.fail.Exception, match="oversized request"):
        hamming_q_set(13, 0.5, 0.5)


@pytest.mark.parametrize("n", [20000, 10**6, pytest.param(10**400, id="10^400")])
def test_cli_seesaw_refuses_rounds_past_any_budget_at_once(n, capsys):
    # the state's dimension 2^n is never written out, in digits or in
    # bytes: the refusal takes one line, well under a second and a MiB
    argv = ["seesaw", "--game", "bb84", "--n", str(n)]
    assert dispatch(argv) == 1  # loads the modules outside the traced call
    capsys.readouterr()
    codes = []
    start = time.perf_counter()
    peak = _traced_peak(lambda: codes.append(dispatch(argv)))
    assert time.perf_counter() - start < 1.0
    assert codes == [1] and peak < MiB
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "memory budget" in err


def test_a_product_of_rounds_past_any_budget_is_refused_at_once():
    # 2^(10^400) per-basis terms: charged from a capped power, never built
    n = 10**400
    game, strategy = game_power(bb84_game(), n), product_strategy(_entangled_round(), n)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="over 2\\^64 bytes"):
        winning_probability(game, strategy)
    assert time.perf_counter() - start < 1.0


def test_cli_seesaw_refuses_twelve_rounds(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules["monogamy.seesaw"], "_search_block", _sentinel)
    assert dispatch(["seesaw", "--game", "bb84", "--n", "12"]) == 1
    assert "memory budget" in capsys.readouterr().err
