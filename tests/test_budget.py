"""The one memory budget: each guarded routine predicts, from its inputs,
the bytes its largest arrays hold at once, and refuses a call over
`errors.MEMORY_BUDGET` before it allocates anything.

Each case below runs at a moderate size.  Under a lowered budget the call
must be refused with a tracemalloc peak below 1 MiB; under the real budget
the peak must stay within the prediction, and a prediction for numpy arrays
must not exceed twice the peak.  The last tests refuse real sizes of
GiB to TiB with the builders patched out, so they allocate nothing.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from monogamy import errors
from monogamy.cli import dispatch
from monogamy.errors import CapacityError
from monogamy.games import (Strategy, bb84_game, constant_guess_povms, game_power,
                            hamming_q_set, maximally_entangled_density, product_strategy,
                            same_string_q_set, xor_permutation_family)
from monogamy.posver import BreidbartPair, TimingScenario, simulate_pv_rounds
from monogamy.qkd import LinearCode, QkdParams, run_eqkd_trials, toeplitz_hash
from monogamy.seesaw import SeesawConfig, seesaw

MiB = 2**20
GUARDED = ["monogamy.games", "monogamy.seesaw", "monogamy.qkd", "monogamy.posver"]


def _entangled_round() -> Strategy:
    g = bb84_game()
    return Strategy(maximally_entangled_density(2), (2, 2, 1), g.povms,
                    constant_guess_povms(g.thetas, g.outcomes, "0"))


def _build_all_tables(length: int, rows: int) -> LinearCode:
    code = LinearCode(length, rows, seed=0)
    for i in range(len(code._chunks)):
        code._candidate_syndromes(i)
    return code


def _cases():
    """(name, prepare, call, numpy): prepare() builds the inputs outside the
    traced region and call(inputs) runs the guarded routine; `numpy` says
    whether the prediction counts numpy arrays rather than label dicts."""
    bits = np.random.default_rng(0).integers(0, 2, 1024 + 511, dtype=np.uint8)
    qkd = QkdParams(n=512, t=64, s=0, ell=0, gamma=0.05, epsilon=0.05)
    line = TimingScenario(0.0, 2.0, 1.0)
    return [
        ("game_power", bb84_game, lambda g: game_power(g, 5), True),
        ("product_strategy", _entangled_round, lambda s: product_strategy(s, 5), True),
        ("seesaw", bb84_game,
         lambda g: seesaw(g, SeesawConfig(bob_dim=16, charlie_dim=16, restarts=1,
                                          max_iters=1)), True),
        ("LinearCode", lambda: None, lambda _: _build_all_tables(64, 16), True),
        ("toeplitz_hash", lambda: (bits, bits[:1024]),
         lambda a: toeplitz_hash(a[0], a[1], 512), True),
        ("run_eqkd_trials", lambda: qkd, lambda p: run_eqkd_trials(p, 0.01, 512, seed=0),
         True),
        ("simulate_pv_rounds", lambda: line,
         lambda sc: simulate_pv_rounds(sc, 8, BreidbartPair(), 65536, seed=0), True),
        ("hamming_q_set", lambda: None, lambda _: hamming_q_set(6, 0.34, 0.34), False),
        ("same_string_q_set", lambda: None, lambda _: same_string_q_set(8, 0.5), False),
        ("xor_permutation_family", lambda: None, lambda _: xor_permutation_family(8, 2),
         False),
    ]


CASES = {case[0]: case for case in _cases()}


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
    _, prepare, call, _ = CASES[name]
    inputs = prepare()
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
    _, prepare, call, numpy_site = CASES[name]
    inputs = prepare()
    peak = _traced_peak(lambda: call(inputs))
    predicted = predictions[0]
    assert isinstance(predicted, int)
    assert peak >= 4 * MiB
    assert peak <= predicted + MiB
    if numpy_site:
        assert predicted <= 2 * peak


def test_budget_is_one_documented_constant():
    assert errors.MEMORY_BUDGET == 2**31
    errors.require_bytes(2**31, "exactly the budget")
    with pytest.raises(CapacityError, match="over 2\\^64 bytes"):
        errors.require_bytes(16**100, "an astronomical request")


# ---------------------------------------------------------------------------
# real sizes, with the allocating builders replaced by a failing sentinel


def _sentinel(*args, **kwargs):
    pytest.fail("the guard let an oversized request reach its builder")


def test_game_power_refuses_seven_rounds_of_bb84(monkeypatch):
    # (2 * 2 * 2^2)^7 entries of 16 B: 4 GiB
    monkeypatch.setattr(sys.modules["monogamy.games"], "_power_stack", _sentinel)
    with pytest.raises(CapacityError):
        game_power(bb84_game(), 7)


def test_hamming_q_set_refuses_before_building_pairs(monkeypatch):
    # 2^18 pairs of two dicts over 2^9 outcomes: 2^28 label entries
    monkeypatch.setattr(sys.modules["monogamy.games"], "_xor_q_set", _sentinel)
    with pytest.raises(CapacityError):
        hamming_q_set(9, 0.5, 0.5)


def test_cli_seesaw_refuses_seven_rounds(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules["monogamy.games"], "_power_stack", _sentinel)
    assert dispatch(["seesaw", "--game", "bb84", "--n", "7"]) == 1
    assert "memory budget" in capsys.readouterr().err
