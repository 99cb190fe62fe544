"""Smoke test of the benchmark's span tracer, so the harness does not rot.

No timing is asserted: only that every traced target still exists and that
a call through the package is counted.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import monogamy.games
from monogamy.seesaw import SeesawConfig, bb84_optimal_unentangled_strategy, seesaw

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("spans")
    yield module
    sys.modules.pop("spans", None)


def test_every_target_resolves(spans):
    for name, module_name, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_tracer_counts_one_winning_probability_call(spans):
    game = monogamy.games.bb84_game()
    strategy = bb84_optimal_unentangled_strategy()
    original = monogamy.games.winning_probability
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert monogamy.games.winning_probability is not original
        monogamy.games.winning_probability(game, strategy)
    finally:
        tracer.uninstall()
    assert monogamy.games.winning_probability is original
    assert tracer.stats["games.winning_probability"].calls == 1
    assert tracer.stats["linalg.tensor"].calls == 0
    assert tracer.stats["linalg.partial_trace"].calls == 0


def test_seesaw_steps_run_once_per_cycle_for_all_restarts(spans):
    # bb84^2 at dims 4/4, seed 0: the restarts stop after 6, 7, 6 and 5
    # cycles, and each cycle takes one state step and one refined pretty-good
    # measurement per party for every live restart at once
    game = monogamy.games.game_power(monogamy.games.bb84_game(), 2)
    cfg = SeesawConfig(seed=0, restarts=4, bob_dim=4, charlie_dim=4)
    with spans.Tracer() as tracer:
        result = seesaw(game, cfg)
    cycles = max(s.iterations for s in result.per_restart)
    assert cycles == 7
    assert tracer.stats["seesaw.state_step"].calls == cycles
    assert tracer.stats["seesaw.povm_step"].calls == 2 * cycles
    assert tracer.stats["uncertainty.pgm_povm"].calls == 2 * cycles
