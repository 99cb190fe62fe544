"""Command-line interface: subcommands, exit codes, reproducible output."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monogamy.bounds import BB84_ROUND_VALUE
from monogamy.cli import dispatch
from monogamy.errors import MEMORY_BUDGET
from monogamy.fixtures import game_to_json, matrix_to_json

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(argv, **kwargs) -> subprocess.CompletedProcess:
    """The CLI run with `argv` in a child interpreter; stderr captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "monogamy.cli", *argv], stderr=subprocess.PIPE,
                          text=True, timeout=120, env=env, **kwargs)


def strict_json(text: str):
    """`text` parsed as strict JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_unknown_command_exits_2(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 2


def test_missing_required_option_exits_2(capsys):
    code, _, _ = run(capsys, "qkd-delta", "--n", "100")
    assert code == 2


def test_computation_error_exits_1(capsys):
    code, _, err = run(capsys, "bounds", "--game", "bb84", "--n", "2",
                       "--gamma", "0.7")
    assert code == 1
    assert "gamma" in err


def test_bounds_csv_sweep(capsys):
    code, out, _ = run(capsys, "bounds", "--game", "bb84", "--n", "1..10")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert rows[0]["formula"] == "bb84-parallel"
    values = [float(r["value"]) for r in rows]
    assert values[0] == pytest.approx(BB84_ROUND_VALUE, abs=1e-15)
    for n, v in enumerate(values, start=1):
        assert v == pytest.approx(BB84_ROUND_VALUE**n, rel=1e-12)


def test_bounds_imperfect_formula_selected(capsys):
    code, out, _ = run(capsys, "bounds", "--game", "bb84", "--n", "3",
                       "--gamma", "0.05", "--format", "json", "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"][0]["formula"] == "imperfect-guessing"
    assert "generated_at" not in doc


def test_bounds_general_game_and_same_string(capsys):
    code, out, _ = run(capsys, "bounds", "--game", "general", "--c", "0.25",
                       "--theta-count", "3", "--q", "2", "--n", "2",
                       "--format", "json", "--deterministic")
    assert code == 0
    row = json.loads(out)["result"][0]
    assert row["formula"] == "general"
    base = (1 + 2 * 0.5) / 3  # sqrt(0.25) = 0.5
    assert row["value"] == pytest.approx(2 * base**2, rel=1e-12)

    code, out, _ = run(capsys, "bounds", "--game", "bb84", "--n", "2",
                       "--gamma", "0.1", "--same-string", "--format", "json",
                       "--deterministic")
    assert code == 0
    assert json.loads(out)["result"][0]["formula"] == "same-string"

    code, _, _ = run(capsys, "bounds", "--game", "general", "--n", "1")
    assert code == 2  # --c required


def test_qkd_delta_json(capsys):
    code, out, _ = run(capsys, "qkd-delta", "--n", "100000", "--t", "10000",
                       "--gamma", "0.005", "--epsilon", "0.005", "--s", "auto",
                       "--ell", "1000", "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["s"] == 7272
    assert doc["result"]["vacuous"] is True
    assert doc["result"]["sampling_term"] == pytest.approx(3.032653298563167,
                                                           rel=1e-12)


def test_qkd_keylen_sweep(capsys):
    code, out, _ = run(capsys, "qkd-keylen", "--n", "1000000..2000000..1000000",
                       "--t", "frac:0.05", "--gamma", "0.005", "--epsilon",
                       "0.012", "--s", "auto", "--delta-target", "1e-9")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[0]["t"] == "50000"


def test_qkd_sim_aggregate(capsys):
    code, out, _ = run(capsys, "qkd-sim", "--n", "64", "--t", "16", "--s", "8",
                       "--ell", "8", "--gamma", "0", "--noise", "0",
                       "--trials", "200", "--seed", "5", "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["aborts"] == 0
    assert doc["result"]["key_match_rate"] == 1.0
    assert doc["result"]["decode_failures"] == doc["result"]["decode_unresolved"] == 0
    assert doc["seed"] == 5


def test_qkd_sim_rejects_a_syndrome_longer_than_the_key_rounds(capsys):
    code, out, err = run(capsys, "qkd-sim", "--n", "8", "--t", "2", "--s", "100",
                         "--ell", "1", "--gamma", "0.2", "--noise", "0.05",
                         "--trials", "200")
    assert code == 1 and out == ""
    assert "n - t" in err


def test_seesaw_reaches_single_round_value(capsys):
    code, out, _ = run(capsys, "seesaw", "--game", "bb84", "--n", "1",
                       "--restarts", "20", "--seed", "7", "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == pytest.approx(BB84_ROUND_VALUE, abs=1e-6)
    assert doc["result"]["upper_bound"] == pytest.approx(BB84_ROUND_VALUE,
                                                         abs=1e-12)
    strategy = doc["result"]["strategy"]
    assert strategy["kind"] == "strategy"
    assert strategy["dims"] == [2, 1, 1]
    per_restart = doc["result"]["per_restart"]
    assert len(per_restart) == 20
    assert {row["stop"] for row in per_restart} <= {"tol", "max_iters"}
    assert per_restart[doc["result"]["restart"]]["value"] == doc["result"]["value"]


def test_posver_bound_csv(capsys):
    code, out, _ = run(capsys, "posver", "bound", "--n", "50..150..50",
                       "--rate", "0.2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["50", "100", "150"]
    assert float(rows[1]["bound"]) == pytest.approx(0.13920957175493195,
                                                    rel=1e-12)


@pytest.mark.parametrize("argv, column, log2_value", [
    pytest.param(("bounds", "--n", "10000", "--gamma", "0.05", "--gamma-prime", "0.05"),
                 "value", None, id="imperfect-guessing"),
    pytest.param(("bounds", "--n", "10000", "--same-string", "--gamma", "0.1"), "value",
                 None, id="same-string"),
    pytest.param(("posver", "bound", "--n", "20000", "--gamma", "0.1", "--gamma-prime", "0.1"),
                 "noisy_bound", None, id="posver-noisy"),
    pytest.param(("bounds", "--game", "general", "--c", "0.5", "--q", "1" + "0" * 399,
                  "--n", "1"), "value", None, id="general-400-digit-q"),
    pytest.param(("posver", "bound", "--rate", "1", "--n", "1100"), "bound", 848.7,
                 id="posver-rate-1"),
    pytest.param(("posver", "bound", "--rate", "0.3", "--n", "4000"), "bound", 286.2,
                 id="posver-rate-0.3"),
    pytest.param(("posver", "bound", "--rate", "0.2", "--n", "6000"), "bound", -170.7,
                 id="posver-rate-0.2"),
    pytest.param(("posver", "bound", "--rate", "0.2", "--n", "5100"), "bound", -145.1,
                 id="posver-rate-0.2-power-underflows"),
])
def test_a_bound_past_the_float_range_is_vacuous_not_a_crash(capsys, argv, column,
                                                             log2_value):
    # a factor or a power past the float range: the bound is inf where it is
    # (which bounds nothing), and otherwise the float of log2 `log2_value`
    code, out, err = run(capsys, *argv, "--format", "json", "--deterministic")
    assert (code, err) == (0, "")
    row = strict_json(out)["result"][0]
    if log2_value is None:
        assert row[column] is None  # inf, written as null in strict JSON
    else:
        assert math.log2(row[column]) == pytest.approx(log2_value, abs=0.05)
    if column != "noisy_bound":
        assert row["vacuous"] is (log2_value is None or log2_value >= 0)


# the three sweeps and the CSV header of each, in column order
SWEEP_HEADERS = {
    "bounds": ["n", "value", "formula", "vacuous", "c", "theta_count", "q", "gamma",
               "gamma_prime"],
    "qkd-keylen": ["n", "t", "s", "gamma", "epsilon", "delta_target", "feasible", "ell",
                   "rate", "delta", "note"],
    # with --rate, whose rows give log2 d; with --d they give d in its place
    "posver": ["n", "log2_d", "bound", "vacuous"],
}


def parses_back(cell: str, value) -> bool:
    """Whether a CSV cell reads back as the JSON document's value: None as
    an empty cell, a float at full precision (nan as nan)."""
    if value is None or isinstance(value, (bool, str)):
        return cell == ("" if value is None else str(value))
    parsed = type(value)(cell)
    return parsed == value or (math.isnan(parsed) and math.isnan(value))


@pytest.mark.parametrize("argv, extra", [
    pytest.param(("bounds", "--n", "1..3"), [], id="bounds-bb84-parallel"),
    pytest.param(("bounds", "--game", "general", "--c", "0.5", "--q", "3", "--n", "1..4"),
                 [], id="bounds-general"),
    pytest.param(("bounds", "--n", "1..3", "--gamma", "0.05"), [],
                 id="bounds-imperfect-guessing"),
    pytest.param(("bounds", "--same-string", "--gamma", "0.1", "--n", "1..3"), [],
                 id="bounds-same-string"),
    pytest.param(("qkd-keylen", "--n", "10000000..20000000..10000000", "--t", "frac:0.05",
                  "--gamma", "0.005", "--epsilon", "0.005", "--delta-target", "1e-9"),
                 [], id="qkd-keylen"),
    pytest.param(("qkd-keylen", "--n", "100..200..100", "--t", "10", "--gamma", "0.01",
                  "--epsilon", "0.05", "--delta-target", "1e-3"), [],
                 id="qkd-keylen-infeasible"),
    pytest.param(("posver", "bound", "--n", "10..300..10", "--rate", "0.2"), [],
                 id="posver-bound"),
    pytest.param(("posver", "bound", "--n", "10..300..10", "--rate", "0.2", "--gamma",
                  "0.05"), ["noisy_bound"], id="posver-bound-gamma"),
])
def test_a_sweep_prints_the_same_rows_as_csv_and_as_json(capsys, argv, extra):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, *cells = list(csv.reader(io.StringIO(out)))
    assert header == SWEEP_HEADERS[argv[0]] + extra
    code, out, _ = run(capsys, *argv, "--format", "json", "--deterministic")
    assert code == 0
    rows = json.loads(out)["result"]
    assert len(rows) == len(cells) > 0
    for row, line in zip(rows, cells):
        assert list(row) == sorted(header)  # the document sorts its keys
        assert all(parses_back(cell, row[key]) for key, cell in zip(header, line))


@pytest.mark.parametrize("n_range", ["5..1", "10..1..-1", "1..5..0", "3..9..-3"])
@pytest.mark.parametrize("command", [("bounds",), ("posver", "bound"),
                                     ("qkd-keylen", "--t", "1", "--gamma", "0.01",
                                      "--epsilon", "0.05", "--delta-target", "1e-3")],
                         ids=["bounds", "posver-bound", "qkd-keylen"])
def test_an_empty_or_descending_range_is_a_usage_error(capsys, command, n_range):
    # '5..1' once printed a bare header, '10..1..-1' dropped its end points
    code, out, err = run(capsys, *command, "--n", n_range)
    assert (code, out) == (2, "")
    assert "empty or descending" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(("qkd-keylen", "--n", "100", "--t", "200"), "0 < t < n", id="t-above-n"),
    pytest.param(("qkd-keylen", "--n", "100", "--t", "-5"), "t must be a positive integer",
                 id="negative-t"),
    pytest.param(("qkd-keylen", "--n", "100", "--t", "10", "--s", "-3"),
                 "s must be a non-negative integer", id="negative-s"),
    pytest.param(("qkd-keylen", "--n", "0", "--t", "10"), "n must be a positive integer",
                 id="zero-n"),
    pytest.param(("qkd-delta", "--n", "100", "--t", "10", "--ell", "500"),
                 "key length cannot exceed the unsampled rounds", id="delta-long-key"),
])
def test_qkd_parameters_no_protocol_can_run_are_refused(capsys, argv, message):
    # each of these once printed a row or a delta and exited 0
    target = () if argv[0] == "qkd-delta" else ("--delta-target", "1e-3")
    code, out, err = run(capsys, *argv, "--gamma", "0.01", "--epsilon", "0.05", *target)
    assert (code, out) == (1, "")
    assert message in err


def test_posver_simulate_json(capsys):
    code, out, _ = run(capsys, "posver", "simulate", "--n", "1", "--prover",
                       "breidbart", "--trials", "4000", "--seed", "3",
                       "--deterministic")
    assert code == 0
    doc = json.loads(out)
    rate = doc["result"]["acceptance_rate"]
    assert abs(rate - BB84_ROUND_VALUE) < 0.03
    assert doc["result"]["soundness_bound"] == pytest.approx(BB84_ROUND_VALUE,
                                                             abs=1e-15)


def test_posver_simulate_honest_prover_output_is_pinned(capsys):
    # the honest prover, one party at the claimed position, answers every
    # round exactly; CI's command, whose 99,999 rounds end in a partial word
    code, out, _ = run(capsys, "posver", "simulate", "--n", "65", "--prover", "honest",
                       "--trials", "99999", "--seed", "1", "--deterministic")
    assert code == 0
    assert out == """{
  "command": "posver-simulate",
  "params": {
    "n": 65,
    "position": null,
    "prover": "honest",
    "scenario": "default",
    "trials": 99999
  },
  "result": {
    "acceptance_rate": 1.0,
    "accepted": 99999,
    "n": 65,
    "seed": 1,
    "soundness_bound": 3.3884023145171987e-05,
    "timing_ok_v0": true,
    "timing_ok_v1": true,
    "trials": 99999
  },
  "seed": 1
}
"""


@pytest.mark.parametrize("argv, nulls", [
    pytest.param(("qkd-delta", "--n", "1" + "0" * 21, "--t", "10", "--gamma", "0",
                  "--epsilon", "0.1", "--s", "auto", "--ell", "0"), ["delta", "pa_term"],
                 id="qkd-delta-n-1e21"),
    pytest.param(("bounds", "--game", "general", "--c", "0.5", "--q", "1" + "0" * 400,
                  "--n", "1", "--format", "json"), ["value"], id="bounds-q-1e400"),
    pytest.param(("posver", "bound", "--n", "1", "--d", "1" + "0" * 400, "--format", "json"),
                 ["bound"], id="posver-d-1e400"),
])
def test_an_infinite_value_is_null_in_strict_json(capsys, argv, nulls):
    code, out, err = run(capsys, *argv, "--deterministic")
    assert (code, err) == (0, "")
    result = strict_json(out)["result"]
    row = result if isinstance(result, dict) else result[0]
    assert all(row[k] is None for k in nulls)
    assert row["vacuous"] is True
    # CSV, which has no null, still writes inf
    if "--format" in argv:
        code, out, _ = run(capsys, *argv[:-2], "--format", "csv")
        assert code == 0 and ",inf," in out


def test_a_sampling_term_below_the_float_range_is_not_zero(capsys):
    # 5 e^-2000: the smallest positive float stands in for it
    code, out, _ = run(capsys, "qkd-delta", "--n", "100000000", "--t", "10000000",
                       "--gamma", "0.001", "--epsilon", "0.01", "--s", "0", "--ell", "1000",
                       "--deterministic")
    assert code == 0
    assert strict_json(out)["result"]["sampling_term"] == math.ulp(0.0)


def test_posver_simulate_single_needs_position(capsys):
    code, _, _ = run(capsys, "posver", "simulate", "--prover", "single")
    assert code == 2


# each case names its own id, so a case added anywhere in the list renames
# no other; these keep the ids pytest first derived from list positions
@pytest.mark.parametrize("flag, argv", [
    pytest.param("--c", ("bounds", "--game", "bb84", "--c", "0.3"), id="--c-argv0"),
    pytest.param("--theta-count", ("bounds", "--game", "bb84", "--theta-count", "3"),
                 id="--theta-count-argv1"),
    pytest.param("--q", ("bounds", "--game", "bb84", "--gamma", "0.05", "--q", "2"),
                 id="--q-argv2"),
    pytest.param("--q", ("bounds", "--game", "general", "--c", "0.25", "--gamma-prime",
                         "0.05", "--q", "2"), id="--q-argv3"),
    pytest.param("--q", ("bounds", "--gamma", "0.1", "--same-string", "--q", "2"),
                 id="--q-argv4"),
    pytest.param("--gamma-prime", ("bounds", "--gamma", "0.1", "--gamma-prime", "0.1",
                                   "--same-string"), id="--gamma-prime-argv5"),
    pytest.param("--position", ("posver", "simulate", "--prover", "breidbart",
                                "--position", "0.5", "--trials", "10"),
                 id="--position-argv6"),
    pytest.param("--position", ("posver", "simulate", "--prover", "honest",
                                "--position", "0.5", "--trials", "10"),
                 id="--position-argv7"),
    pytest.param("--random", ("ur-check", "instance.json", "--random", "5"),
                 id="--random-argv8"),
    pytest.param("--seed", ("ur-check", "instance.json", "--seed", "3"), id="--seed-argv9"),
    pytest.param("--d", ("posver", "bound", "--d", "8", "--rate", "0.5", "--n", "3"),
                 id="--d-argv10"),
    pytest.param("--noise", ("qkd-sim", "--n", "2", "--t", "1", "--gamma", "0", "--device",
                             "epr", "--noise", "0.01", "--trials", "3"), id="--noise-epr"),
    # typed, at its default value
    pytest.param("--noise", ("qkd-sim", "--n", "2", "--t", "1", "--gamma", "0", "--device",
                             "epr", "--noise", "0", "--trials", "3"), id="--noise-0-epr"),
])
def test_an_option_the_command_would_ignore_is_a_usage_error(capsys, flag, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{flag} has no effect" in err


@pytest.mark.parametrize("argv", [
    pytest.param(("bogus",), id="unknown-command"),
    pytest.param(("posver",), id="no-subcommand"),
    pytest.param(("qkd-delta", "--n", "100"), id="missing-required-option"),
    pytest.param(("seesaw", "--restarts", "two"), id="bad-int"),
    pytest.param(("qkd-sim", "--n", "2", "--t", "1", "--gamma", "0", "--device", "quantum"),
                 id="bad-choice"),
    pytest.param(("bounds", "--bogus", "1"), id="unknown-option"),
    # an option is named in full: a prefix of it is an unknown option
    pytest.param(("bounds", "--determ"), id="abbreviated-flag"),
    pytest.param(("seesaw", "--rest", "2"), id="abbreviated-option"),
    pytest.param(("ur-check", "--random", "0"), id="random-below-1"),
    pytest.param(("posver", "bound", "--rate", "-1"), id="negative-rate"),
    pytest.param(("posver", "bound", "--d", "8", "--rate", "0.5"), id="unused-option"),
    pytest.param(("bounds", "--n", "5..1"), id="empty-range"),
])
def test_a_usage_error_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("monogamy: error: ")


# every leaf command's options, each with the default its help shows (None:
# no default shown); each also takes --output and --deterministic
HELP = {
    ("bounds",): {"--game": "bb84", "--c": None, "--theta-count": "2", "--q": "1",
                  "--n": "1", "--gamma": None, "--gamma-prime": None, "--same-string": None,
                  "--format": "csv"},
    ("seesaw",): {"--game": "bb84", "--n": "1", "--bob-dim": "1", "--charlie-dim": "1",
                  "--restarts": "20", "--seed": "0", "--tol": "1e-09", "--max-iters": "200",
                  "--include-strategy": "True"},
    ("qkd-delta",): {"--n": None, "--t": None, "--gamma": None, "--epsilon": None,
                     "--s": "auto", "--ell": None},
    ("qkd-keylen",): {"--n": None, "--t": None, "--gamma": None, "--epsilon": None,
                      "--s": "auto", "--delta-target": None, "--format": "csv"},
    ("qkd-sim",): {"--n": None, "--t": None, "--s": "0", "--ell": "0", "--gamma": None,
                   "--epsilon": "0.05", "--noise": "0.0", "--device": "honest",
                   "--trials": "1000", "--seed": "0"},
    ("posver", "bound"): {"--n": "1", "--d": "1", "--rate": None, "--gamma": None,
                          "--gamma-prime": None, "--format": "csv"},
    ("posver", "simulate"): {"--scenario": None, "--n": "1", "--prover": "breidbart",
                             "--position": None, "--trials": "100000", "--seed": "0"},
    ("ur-check",): {"--random": None, "--seed": "0"},
    ("fixtures", "validate"): {},
}


def help_entries(text: str) -> dict[str, str]:
    """The option entries of a help text by first option string, each on one
    line, as help wraps them at the terminal width."""
    entries, name = {}, None
    for line in text.split("options:", 1)[1].splitlines():
        if line.startswith("  -"):
            name = line.split()[0].rstrip(",")
            entries[name] = ""
        if name:
            entries[name] += " " + line
    return {name: " ".join(entry.split()) for name, entry in entries.items()}


@pytest.mark.parametrize("command", HELP, ids=" ".join)
def test_every_command_help_names_its_options_and_their_defaults(capsys, command):
    code, out, err = run(capsys, *command, "--help")
    assert (code, err) == (0, "")
    entries = help_entries(out)
    options = {**HELP[command], "--output": None, "--deterministic": None, "--help": None}
    assert set(entries) == set(options)
    for option, default in options.items():
        shown = re.findall(r"\(default: (.*?)\)", entries[option])
        assert shown == ([] if default is None else [default]), option
    assert "--no-include-strategy" in entries.get("--include-strategy", "--no-include-strategy")
    assert {"ur-check": "[FIXTURE]", "fixtures": "PATHS"}.get(command[0], "") in out


def test_ctrl_c_exits_1_with_no_traceback(capsys, monkeypatch):
    def interrupt(n):
        raise KeyboardInterrupt

    monkeypatch.setattr(sys.modules["monogamy.bounds"], "bb84_parallel_value", interrupt)
    assert run(capsys, "bounds", "--n", "3") == (1, "", "\n")


# a child's stdout is buffered, which leaves the output a failed write could
# not send in the buffer for the interpreter's flush at exit, or unbuffered
UNBUFFERED = pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@UNBUFFERED
@pytest.mark.parametrize("argv", [("bounds", "--n", "1..3"), ("seesaw", "--restarts", "1"),
                                  ("bounds", "--help")], ids=["bounds", "seesaw", "help"])
def test_a_stdout_that_cannot_be_written_exits_1_with_one_line(monkeypatch, argv, unbuffered):
    # each once ended in an OSError traceback
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    with open("/dev/full", "w") as full:
        proc = run_child(argv, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr == "monogamy: error: stdout: cannot write the output " \
                          "(No space left on device)\n"


@UNBUFFERED
@pytest.mark.parametrize("argv", [("bounds", "--n", "1..3"), ("bounds", "--n", "1..100000")],
                         ids=["short", "past-the-pipe-buffer"])
def test_a_reader_that_closed_its_pipe_ends_the_command_quietly(monkeypatch, argv, unbuffered):
    # buffered, the flush at exit once failed again: exit 120, 'Exception ignored'
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_child(argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(("bounds", "--game", "general", "--c", "0.5", "--gamma", "-1e-3"), 1,
                 "gamma must lie in [0, 0.5], got -0.001", id="gamma-exponent"),
    pytest.param(("bounds", "--game", "general", "--c", "0.5", "--gamma", "-inf"), 1,
                 "gamma must lie in [0, 0.5], got -inf", id="gamma-inf"),
    pytest.param(("posver", "bound", "--rate", "-inf"), 2,
                 "argument --rate: -inf is not in the range x>=0", id="rate-inf"),
    pytest.param(("posver", "bound", "--rate", "-.5"), 2,
                 "argument --rate: -0.5 is not in the range x>=0", id="rate-point"),
])
def test_a_negative_number_is_a_value_not_an_option(capsys, argv, code, message):
    # argparse would read each as an unknown option, 'expected one argument'
    assert run(capsys, *argv) == (code, "", f"monogamy: error: {message}\n")


def test_posver_bound_refuses_a_negative_rate(capsys):
    code, out, err = run(capsys, "posver", "bound", "--rate", "-0.5", "--n", "3")
    assert code == 2
    assert out == ""
    assert "--rate" in err


KEYLEN = ("qkd-keylen", "--n", "100", "--gamma", "0.01", "--epsilon", "0.05")


@pytest.mark.parametrize("argv, code, name", [
    pytest.param(("qkd-sim", "--n", "64", "--t", "16", "--gamma", "0.05", "--epsilon", "nan",
                  "--trials", "10"), 1, "epsilon", id="qkd-sim-epsilon-nan"),
    pytest.param(("seesaw", "--tol", "nan", "--restarts", "1", "--max-iters", "3"), 1, "tol",
                 id="seesaw-tol-nan"),
    pytest.param((*KEYLEN, "--t", "10", "--delta-target", "nan"), 1, "delta_target",
                 id="qkd-keylen-delta-target-nan"),
    *(pytest.param((*KEYLEN, "--t", t, "--delta-target", "1e-3"), 2, "--t",
                   id=f"qkd-keylen-t-{t}")
      for t in ("frac:abc", "pow:x", "frac:", "frac:nan", "pow:inf", "frac:-inf")),
    pytest.param((*KEYLEN, "--t", "pow:400", "--delta-target", "1e-3"), 1, "--t",
                 id="qkd-keylen-t-past-the-float-range"),
    *(pytest.param(("posver", "bound", "--n", "3", "--rate", rate), 2, "--rate",
                   id=f"posver-bound-rate-{rate}") for rate in ("nan", "inf", "1e308")),
])
def test_a_nan_inf_or_malformed_number_is_refused(capsys, argv, code, name):
    # each of these once exited 0, failed naming no option, or ended in a traceback
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert name in err


@pytest.mark.parametrize("argv, column", [
    (("bounds", "--n", "5000"), "value"),
    (("bounds", "--game", "general", "--c", "0.5", "--q", "3", "--n", "100000"), "value"),
    (("posver", "bound", "--n", "100000", "--gamma", "0.1"), "bound")])
def test_a_bound_below_the_float_range_prints_the_smallest_positive_float(capsys, argv,
                                                                          column):
    # 2^-1142 and less: the row bounds the probability from above, as 0.0
    # would not, and is not vacuous
    code, out, err = run(capsys, *argv, "--format", "json", "--deterministic")
    assert (code, err) == (0, "")
    row = json.loads(out)["result"][0]
    assert row[column] == math.ulp(0.0) and row["vacuous"] is False


BIG = str(10**400)


@pytest.mark.parametrize("argv, column, value", [
    pytest.param(("bounds", "--n", BIG), "value", math.ulp(0.0), id="bounds"),
    pytest.param(("bounds", "--n", BIG, "--game", "general", "--c", "0.5"), "value",
                 math.ulp(0.0), id="bounds-general"),
    pytest.param(("bounds", "--n", BIG, "--gamma", "0.1"), "value", None,
                 id="bounds-imperfect-guessing"),
    pytest.param(("posver", "bound", "--n", BIG), "bound", math.ulp(0.0), id="posver-bound"),
    pytest.param(("posver", "bound", "--n", BIG, "--rate", "0.1"), "bound", math.ulp(0.0),
                 id="posver-bound-rate"),
    pytest.param(("posver", "bound", "--n", BIG, "--gamma", "0.1"), "noisy_bound", None,
                 id="posver-bound-noisy"),
    pytest.param(("qkd-keylen", "--n", BIG, "--t", "10", "--gamma", "0.01", "--epsilon", "0.01",
                  "--delta-target", "1e-9", "--format", "json"), "delta", None, id="qkd-keylen"),
    pytest.param(("qkd-delta", "--n", BIG, "--t", "10", "--gamma", "0", "--epsilon", "0.1",
                  "--s", "0", "--ell", "0"), "delta", None, id="qkd-delta"),
])
def test_a_round_count_past_the_float_range_gives_a_bound(capsys, argv, column, value):
    # 10^400 rounds: each row still bounds a probability, by the smallest
    # positive float or by inf (null in strict JSON), which bounds nothing;
    # the key-length row is infeasible, with a null delta
    if argv[0] in ("bounds", "posver"):
        argv += ("--format", "json")
    code, out, err = run(capsys, *argv, "--deterministic")
    assert (code, err) == (0, "")
    result = strict_json(out)["result"]
    row = result[0] if isinstance(result, list) else result
    assert row[column] == value
    if "vacuous" in row and column != "noisy_bound":
        assert row["vacuous"] is (value is None)


def test_a_key_length_past_the_float_range_is_exact(capsys):
    # t = n/100 of 10^400 rounds: the exponent budget is worked out exactly,
    # and the key length is the largest whose bound meets the target
    from fractions import Fraction

    from monogamy.bounds import binary_entropy
    from monogamy.finite_key import delta_terms
    n, t = 10**400, 10**398
    code, out, err = run(capsys, "qkd-keylen", "--n", str(n), "--t", str(t), "--gamma", "0",
                         "--epsilon", "0.001", "--delta-target", "1e-9", "--format", "json")
    assert (code, err) == (0, "")
    row = strict_json(out)["result"][0]
    assert row["feasible"] and row["s"] == math.ceil((n - t) * Fraction(binary_entropy(0.001)))
    assert delta_terms(n, t, row["s"], row["ell"], 0.0, 0.001)[3] == row["delta"] <= 1e-9
    assert delta_terms(n, t, row["s"], row["ell"] + 1, 0.0, 0.001)[3] > 1e-9


def test_posver_bound_with_a_rate_gives_log2_d_and_never_builds_d(capsys):
    # 2^20000 once failed to print, past Python's 4300-digit limit
    code, out, err = run(capsys, "posver", "bound", "--rate", "0.2", "--n",
                         "20000..100000..20000", "--format", "json", "--deterministic")
    assert (code, err) == (0, "")
    rows = json.loads(out)["result"]
    assert [(r["n"], r["log2_d"]) for r in rows] == [(n, n // 5) for n in
                                                     range(20000, 100001, 20000)]
    # 2^-2845 rounds up to the smallest positive float, never down to 0.0
    assert "d" not in rows[-1] and rows[-1]["bound"] == math.ulp(0.0) \
        and not rows[-1]["vacuous"]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_an_infeasible_key_length_row_gives_a_null_delta(capsys):
    code, out, _ = run(capsys, "qkd-keylen", "--n", "100..200..100", "--t", "10", "--gamma",
                       "0.01", "--epsilon", "0.05", "--delta-target", "1e-3", "--format",
                       "json", "--deterministic")
    assert code == 0
    rows = json.loads(out, parse_constant=_no_constant)["result"]
    assert [(r["feasible"], r["rate"], r["delta"]) for r in rows] == [(False, None, None)] * 2


def test_ur_check_random(capsys):
    code, out, _ = run(capsys, "ur-check", "--random", "3", "--seed", "11",
                       "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]) == 3
    assert all(row["satisfied"] for row in doc["result"])
    assert doc["seed"] == 11


def test_ur_check_requires_input(capsys):
    code, _, _ = run(capsys, "ur-check")
    assert code == 2


def test_fixtures_validate(tmp_path, capsys):
    good = tmp_path / "game.json"
    good.write_text(json.dumps(game_to_json(__import__("monogamy.games",
                                                       fromlist=["bb84_game"])
                                            .bb84_game())))
    code, out, _ = run(capsys, "fixtures", "validate", str(good))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"][0]["ok"] is True

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, "fixtures", "validate", str(good), str(bad))
    assert code == 1
    doc = json.loads(out)
    assert [row["ok"] for row in doc["result"]] == [True, False]


def test_deterministic_output_is_byte_identical(capsys):
    args = ("seesaw", "--game", "bb84", "--n", "1", "--restarts", "5",
            "--seed", "9", "--deterministic")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2

    args = ("qkd-sim", "--n", "32", "--t", "8", "--gamma", "0.01", "--noise",
            "0.02", "--trials", "100", "--seed", "13", "--deterministic")
    _, sim1, _ = run(capsys, *args)
    _, sim2, _ = run(capsys, *args)
    assert sim1 == sim2


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bounds", "--game", "bb84", "--n", "1..3",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    rows = list(csv.DictReader(target.open()))
    assert len(rows) == 3


@pytest.mark.parametrize("argv, reason", [
    (("bounds", "--n", "1..3"), "No such file or directory"),
    (("qkd-sim", "--n", "64", "--t", "16", "--gamma", "0.05", "--trials", "10"),
     "Is a directory")])
def test_an_output_path_that_cannot_be_opened_exits_1_with_one_line(tmp_path, capsys, argv,
                                                                     reason):
    target = tmp_path / "missing" / "rows.csv" if argv[0] == "bounds" else tmp_path
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 1
    assert out == ""
    assert err == f"monogamy: error: {target}: cannot write the output ({reason})\n"


def test_an_unwritable_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # a directory as --output: refused as the options are parsed, so a run
    # of 10^8 trials never starts
    def sentinel(*args, **kwargs):
        pytest.fail("the run started before --output was checked")

    monkeypatch.setattr(sys.modules["monogamy.qkd"], "run_eqkd_trials", sentinel)
    code, out, err = run(capsys, "qkd-sim", "--n", "64", "--t", "16", "--gamma", "0.05",
                         "--trials", "100000000", "--output", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"monogamy: error: {tmp_path}: cannot write the output (Is a directory)\n"


def test_a_command_that_fails_leaves_its_output_path_as_it_was(tmp_path, capsys):
    # the check opens an existing file to append and removes a file it made
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_text("earlier output\n")
    for target in (kept, new):
        code, _, err = run(capsys, "qkd-sim", "--n", "64", "--t", "16", "--gamma", "0.05",
                           "--epsilon", "nan", "--output", str(target))
        assert code == 1 and "epsilon" in err
    assert kept.read_text() == "earlier output\n"
    assert not new.exists()


@pytest.mark.parametrize("command", [("seesaw", "--game"), ("fixtures", "validate")])
@pytest.mark.parametrize("field, message", [
    ("povms", "game field 'povms' must be an object, not a number"),
    ("thetas", "game field 'thetas' must be an array, not a number")])
def test_a_game_field_of_the_wrong_json_type_exits_1_naming_it(tmp_path, capsys, command,
                                                               field, message):
    from monogamy.games import bb84_game
    path = tmp_path / "game.json"
    path.write_text(json.dumps({**game_to_json(bb84_game()), field: 5}))
    code, out, err = run(capsys, *command, str(path), "--deterministic")
    assert code == 1
    if command[0] == "fixtures":
        assert json.loads(out)["result"][0]["error"] == message
        assert err == "monogamy: error: 1 of 1 fixture(s) invalid\n"
    else:
        assert err == f"monogamy: error: {message}\n"


def test_seesaw_loads_game_fixture(tmp_path, capsys):
    from monogamy.games import bb84_game
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json(bb84_game())))
    code, out, _ = run(capsys, "seesaw", "--game", str(path), "--restarts", "5",
                       "--seed", "2", "--no-include-strategy", "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == pytest.approx(BB84_ROUND_VALUE, abs=1e-6)


def test_seesaw_bounds_a_fixture_of_several_rounds_by_its_round(tmp_path, capsys):
    # two rounds of BB84 in the fixture, played twice: four rounds in all
    from monogamy.bounds import bb84_parallel_value
    from monogamy.games import bb84_game, game_power
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json(game_power(bb84_game(), 2))))
    code, out, _ = run(capsys, "seesaw", "--game", str(path), "--n", "2", "--restarts",
                       "2", "--seed", "1", "--no-include-strategy", "--deterministic")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["upper_bound"] == pytest.approx(bb84_parallel_value(4), abs=1e-12)
    assert result["value"] <= result["upper_bound"] + 1e-9


def test_a_restart_whose_operators_cancel_to_noise_does_not_end_the_search(capsys,
                                                                            monkeypatch):
    # restart 545's Bob operators for basis 3 cancel to rounding noise, so
    # the pretty-good measurement takes its noise branch and treats S as all
    # kernel; such a measurement once failed its completeness check
    import monogamy.uncertainty as uncertainty
    pgm, cancelled = uncertainty.pgm_povm, []

    def spy(sigmas):
        # pgm_povm's own test: S's entries all below 1e-10 of the summed
        # absolute entries of its operators
        total = np.abs(uncertainty._outcome_sum(sigmas)).max(axis=(-2, -1))
        noise = total < 1e-10 * np.abs(sigmas).sum(axis=(-3, -2, -1))
        cancelled.extend(np.argwhere(noise).tolist())
        return pgm(sigmas)

    monkeypatch.setattr(uncertainty, "pgm_povm", spy)
    code, out, err = run(capsys, "seesaw", "--game", "bb84", "--n", "2", "--bob-dim", "2",
                         "--charlie-dim", "2", "--restarts", "546", "--max-iters", "1",
                         "--no-include-strategy", "--deterministic")
    assert (code, err) == (0, "")
    assert cancelled == [[545, 3]]
    result = json.loads(out)["result"]
    assert len(result["per_restart"]) == 546
    assert result["value"] == pytest.approx(0.7138994445864968, abs=1e-12)


def test_seesaw_runs_eight_rounds_of_bb84(capsys):
    # the dense eight-round game would hold 2^48 complex entries
    from monogamy.bounds import bb84_parallel_value
    code, out, _ = run(capsys, "seesaw", "--game", "bb84", "--n", "8", "--restarts", "1",
                       "--no-include-strategy", "--deterministic")
    assert code == 0
    assert json.loads(out)["result"]["value"] == \
        pytest.approx(bb84_parallel_value(8), abs=1e-9)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_seesaw_rejects_nonpositive_rounds(tmp_path, capsys, n):
    from monogamy.games import MonogamyGame, bb84_game
    one_basis = MonogamyGame(dim_a=2, thetas=("0",), outcomes=("0", "1"),
                             povms={"0": bb84_game().povms["0"]})
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json(one_basis)))
    code, out, err = run(capsys, "seesaw", "--game", str(path), "--n", n,
                         "--restarts", "1", "--deterministic")
    assert code == 1
    assert out == ""
    assert "n must be a positive integer" in err


def test_posver_simulate_scenario_fixture(tmp_path, capsys):
    from monogamy.fixtures import scenario_to_json
    from monogamy.posver import TimingScenario
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(TimingScenario(0.0, 4.0, 1.0))))
    code, out, _ = run(capsys, "posver", "simulate", "--scenario", str(path),
                       "--n", "2", "--prover", "honest", "--trials", "50",
                       "--seed", "0", "--deterministic")
    assert code == 0
    assert json.loads(out)["result"]["acceptance_rate"] == 1.0


def test_ur_check_fixture_file(tmp_path, capsys):
    g = __import__("monogamy.games", fromlist=["bb84_game"]).bb84_game()
    doc = {
        "kind": "ur_instance",
        "dims": [2, 1, 1],
        "rho_abc": matrix_to_json(np.array([[0.5, 0.5], [0.5, 0.5]])),
        "f0": [matrix_to_json(e) for e in g.povms["0"]],
        "f1": [matrix_to_json(e) for e in g.povms["1"]],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "ur-check", str(path), "--deterministic")
    assert code == 0
    result = json.loads(out)["result"][0]
    assert result["satisfied"] is True


@pytest.mark.parametrize("argv", [
    ("seesaw", "--game", "{missing}"),
    ("posver", "simulate", "--scenario", "{missing}"),
    ("ur-check", "{missing}"),
    ("fixtures", "validate", "{missing}"),
    ("seesaw", "--game", "{directory}"),
], ids=["seesaw", "posver-simulate", "ur-check", "fixtures-validate", "seesaw-directory"])
def test_a_fixture_path_that_cannot_be_read_exits_1_with_one_line(tmp_path, capsys, argv):
    # each once ended in a FileNotFoundError or IsADirectoryError traceback
    paths = {"missing": str(tmp_path / "missing.json"), "directory": str(tmp_path)}
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run(capsys, *argv, "--deterministic")
    assert code == 1
    assert len(err.splitlines()) == 1
    path = argv[-1]
    if argv[0] == "fixtures":
        row = json.loads(out)["result"][0]
        assert row["ok"] is False and row["error"].startswith(f"{path}: cannot read")
    else:
        assert out == ""
        assert f"{path}: cannot read the file" in err


@pytest.mark.parametrize("dims", [[2.5, 2, 2], [-1, 2, 2], [2, 2]])
def test_an_ur_instance_with_bad_dims_is_invalid(tmp_path, capsys, dims):
    # [2.5, 2, 2] and [-1, 2, 2] were once reported valid
    doc = {"kind": "ur_instance", "dims": dims,
           "rho_abc": matrix_to_json(np.eye(8) / 8),
           "f0": [matrix_to_json(np.eye(2))], "f1": [matrix_to_json(np.eye(2))]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "fixtures", "validate", str(path), "--deterministic")
    assert code == 1
    row = json.loads(out)["result"][0]
    assert row["ok"] is False and "subsystem dimension" in row["error"]


def test_fixtures_validate_takes_paths_on_both_sides_of_an_option(capsys):
    paths = [str(Path(__file__).parent / name)
             for name in ("six_state_game.json", "bb84_ur_instance.json")]
    code, out, err = run(capsys, "fixtures", "validate", paths[0], "--deterministic", paths[1])
    assert (code, err) == (0, "")
    assert [row["path"] for row in json.loads(out)["result"]] == paths
    assert run(capsys, "fixtures", "validate", paths[0], "--deterministic", "--bogus") == \
        (2, "", "monogamy: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [
    ("seesaw", "--restarts", "1000000000", "--max-iters", "1"),
    ("bounds", "--n", "1..100000000"),
    ("qkd-keylen", "--n", "1..100000000", "--t", "1", "--gamma", "0.01", "--epsilon", "0.05",
     "--delta-target", "1e-3"),
    ("posver", "bound", "--n", "1..100000000", "--format", "json"),
], ids=["seesaw-restarts", "bounds", "qkd-keylen", "posver-bound"])
def test_an_oversized_request_is_refused_before_it_allocates(argv):
    # a child whose address space ends 1 GiB past the memory budget: the
    # per-restart summaries and the listed range once ended in MemoryError
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BUDGET + 2**30,) * 2)

    proc = run_child(argv, preexec_fn=limit)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert "over the memory budget" in proc.stderr
