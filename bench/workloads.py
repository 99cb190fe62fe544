"""The benchmark's workloads: the commands each one runs and the checks on
their output.

A command is a tuple of strings.  One that starts with ``monogamy`` is the
CLI as a user types it; any other names a script in this directory.  The
benchmark derives every seed the program sees from its own ``--seed``.

Each check takes the standard outputs of one workload run (one string per
command), raises ``CheckFailed`` when an output is wrong, and returns the
counts the report needs as bases for its ratios.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# rep i of a run with --seed S gives the program seed S * SEED_STRIDE + i, so
# runs with different --seed never share inputs
SEED_STRIDE = 100

QKD_SHORT = ("--n", "64", "--t", "16", "--s", "16", "--ell", "16", "--gamma", "0.05",
             "--epsilon", "0.05", "--noise", "0.01", "--trials", "10000")
# s = suggested_syndrome_length(4096, 512, 0.02, 0.02)
QKD_LONG = ("--n", "4096", "--t", "512", "--s", "869", "--ell", "1024",
            "--gamma", "0.02", "--epsilon", "0.02", "--noise", "0.003",
            "--trials", "50")
POSVER_N = 20
POSVER_TRIALS = 1_000_000


class CheckFailed(Exception):
    """A workload output that is not correct."""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[tuple[str, ...]]]
    check: Callable[[list[str]], dict]


def program_seed(seed: int, rep: int) -> int:
    if not 0 <= rep < SEED_STRIDE:
        raise ValueError(f"rep {rep} outside [0, {SEED_STRIDE})")
    return seed * SEED_STRIDE + rep


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _result(stdout: str) -> dict:
    try:
        return json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable output: {exc}") from None


def _check_qkd(stdout: str, trials: int) -> dict:
    r = _result(stdout)
    _require(r["trials"] == trials, f"trials {r['trials']} != {trials}")
    _require(r["aborts"] + r["completed"] == r["trials"],
             f"aborts {r['aborts']} + completed {r['completed']} != trials")
    _require(r["key_matches"] <= r["completed"],
             f"key matches {r['key_matches']} > completed {r['completed']}")
    return {"qkd.trials": r["trials"], "qkd.aborts": r["aborts"],
            "qkd.completed": r["completed"], "qkd.key_matches": r["key_matches"]}


def _check_posver(stdout: str) -> dict:
    r = _result(stdout)
    _require(r["trials"] == POSVER_TRIALS, f"trials {r['trials']} != {POSVER_TRIALS}")
    p = math.cos(math.pi / 8) ** (2 * POSVER_N)
    sigma = math.sqrt(p * (1 - p) / POSVER_TRIALS)
    _require(abs(r["acceptance_rate"] - p) <= 5 * sigma,
             f"acceptance {r['acceptance_rate']} is not within 5 sigma of {p}")
    return {"posver.trials": r["trials"], "posver.accepted": r["accepted"]}


def _seesaw_commands(seed: int) -> list[tuple[str, ...]]:
    return [("monogamy", "seesaw", "--game", "bb84", "--n", "2", "--bob-dim", "4",
             "--charlie-dim", "4", "--restarts", "4", "--seed", str(seed))]


def _check_seesaw(outputs: list[str]) -> dict:
    from monogamy import bb84_game, bb84_parallel_value, game_power, winning_probability
    from monogamy.fixtures import strategy_from_json

    r = _result(outputs[0])
    optimum = bb84_parallel_value(2)
    value = r["value"]
    _require(value <= optimum + 1e-9, f"value {value} exceeds the optimum {optimum}")
    _require(abs(value - optimum) <= 1e-6, f"value {value} misses the optimum {optimum}")
    exact = winning_probability(game_power(bb84_game(), 2),
                                strategy_from_json(r["strategy"]))
    _require(abs(exact - value) <= 1e-12,
             f"strategy evaluates to {exact}, reported {value}")
    return {}


def _check_power(outputs: list[str]) -> dict:
    from monogamy import bb84_parallel_value

    value = json.loads(outputs[0])["value"]
    target = bb84_parallel_value(6)
    _require(abs(value - target) <= 1e-9, f"value {value} != {target}")
    return {}


def _check_mc_short(outputs: list[str]) -> dict:
    return {**_check_qkd(outputs[0], 10_000), **_check_posver(outputs[1])}


def _check_qkd_long(outputs: list[str]) -> dict:
    return _check_qkd(outputs[0], 50)


# why each workload exists is in BENCHMARK.json
WORKLOADS = {w.name: w for w in [
    Workload("seesaw", _seesaw_commands, _check_seesaw),
    Workload("power", lambda seed: [("quickstart.py",)], _check_power),
    Workload("mc-short",
             lambda seed: [("monogamy", "qkd-sim", *QKD_SHORT, "--seed", str(seed)),
                           ("monogamy", "posver", "simulate", "--n", str(POSVER_N),
                            "--prover", "breidbart", "--trials", str(POSVER_TRIALS),
                            "--seed", str(seed))],
             _check_mc_short),
    Workload("qkd-long",
             lambda seed: [("monogamy", "qkd-sim", *QKD_LONG, "--seed", str(seed))],
             _check_qkd_long),
]}
