"""Command-line entry point.

One executable, one subcommand per calculator or simulator:

    bounds      closed-form game-value bounds over a sweep of round counts
    seesaw      strategy search by alternating optimization
    qkd-delta   finite-key security failure bound for one parameter set
    qkd-keylen  invert the bound for the key length over a sweep of n
    qkd-sim     Monte-Carlo runs of the key-distribution protocol
    posver      position-verification bounds and timing simulation
    ur-check    two-observer uncertainty-relation check
    fixtures    validate JSON fixture files

Every command writes through `_emit`: a JSON document, or for the three
sweeps (`bounds`, `qkd-keylen`, `posver bound`) by default the same rows as
CSV.  Stochastic commands record their seed in the output; identical inputs
give byte-identical output (`--deterministic` suppresses the one timestamp
field).  Computation and validation failures exit 1, usage errors exit 2,
each with one line on stderr, `monogamy: error: <message>`.

The parser is the standard library's :mod:`argparse`, so the executable
needs no package beyond numpy.  Each command imports the package modules it
runs, when it runs, so a command loads (and, without a bytecode cache,
compiles) no other.  The closed-form commands (`bounds`, `qkd-delta`,
`qkd-keylen`, `posver bound`) import only :mod:`monogamy.bounds` and
:mod:`monogamy.finite_key`, so they never load numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from typing import Sequence

from .errors import DomainError, ValidationError, require_bytes

PROG = "monogamy"

# bytes a sweep holds per row, as a dict and as the text written in `fmt`:
# tracemalloc read 410-788 B a row as CSV and 1,117-2,526 B as JSON over
# the three sweeps at 1,000 to 3,000 rows
_ROW_BYTES = {"csv": 1024, "json": 3072}


class UsageError(Exception):
    """A command line that cannot run as typed: exit 2."""


class _Given(argparse.Action):
    """argparse's store, which also adds an option, as typed, to the
    namespace's `given`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if option_string is not None:  # None for a positional argument
            namespace.given = getattr(namespace, "given", frozenset()) | {option_string}


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises UsageError where argparse would print
    its usage and exit, takes no abbreviated option, records each option
    typed with a value through `_Given`, shows each option's default in its
    help, and writes that help as a command writes its output."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.register("action", None, _Given)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        # a value such as -1e-3 or -inf is a negative number, not an option;
        # argparse reads this pattern from its undocumented attribute
        # `_negative_number_matcher`, which test_cli.py's negative-value
        # cases pin
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    def add_argument(self, *args, **kwargs):
        """argparse's add_argument, with the default in the help unless it
        is None or a flag's False."""
        action = super().add_argument(*args, **kwargs)
        shown = action.help or ""
        if action.default not in (None, argparse.SUPPRESS) and action.default is not False \
                and "%(default)" not in shown:
            action.help = f"{shown} (default: %(default)s)".lstrip()
        return action

    def print_help(self, file=None):
        _write_stdout(self.format_help())

    def error(self, message):
        raise UsageError(message)


def _at_least(kind, minimum):
    """An argparse type: the `kind` of the text, refused below `minimum`."""
    def convert(text: str):
        value = kind(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={minimum}")
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


def _parse_range(text: str, fmt: str) -> range:
    """'7' -> [7]; '1..10' -> 1..10; '10..100..10' -> arithmetic sweep, once
    its rows written in `fmt` fit the memory budget.  A range is non-empty
    and ascending: '5..1' or a step below 1 is a usage error."""
    try:
        parts = [int(part) for part in text.split("..")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 3:
        raise UsageError(f"cannot parse range {text!r}; use N, A..B or A..B..STEP")
    if len(parts) == 1:
        parts.append(parts[0])
    if len(parts) == 2:
        parts.append(1)
    a, b, step = parts
    if a > b or step < 1:
        raise UsageError(f"range {text!r} is empty or descending; a range "
                         "A..B..STEP needs A <= B and STEP >= 1")
    require_bytes(_ROW_BYTES[fmt] * ((b - a) // step + 1), f"a sweep over --n {text}")
    return range(a, b + 1, step)


def _emit(command: str, params: dict, result, output: str | None,
          deterministic: bool, seed: int | None = None, fmt: str = "json") -> None:
    """Write a command's output to `output` (stdout for None or '-'): the JSON
    document of `result`, strict JSON with null for any inf or nan, or for
    fmt 'csv' the rows of `result`, a list of flat dicts with the same keys,
    under a header of those keys."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(result[0]))
        writer.writeheader()
        writer.writerows(result)
        text = buf.getvalue()
    else:
        doc = {"command": command, "params": params, "result": result}
        if seed is not None:
            doc["seed"] = seed
        if not deterministic:
            doc["generated_at"] = datetime.now(timezone.utc).isoformat()
        try:
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:  # strict JSON has no inf or nan: write them as null
            doc = json.loads(json.dumps(doc), parse_constant=lambda name: None)
            text = json.dumps(doc, indent=2, sort_keys=True)
    if output is None or output == "-":
        _write_stdout(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"{output}: cannot write the output ({exc.strerror or exc})")


def _write_stdout(text: str) -> None:
    """Write `text` to the `sys.stdout` of the call, and flush it.  If that
    fails, stdout is pointed at os.devnull, so that the interpreter's own
    flush at exit drops what is left buffered instead of failing on it again
    (exit 120, 'Exception ignored').  A reader that has gone raises
    BrokenPipeError, which `dispatch` ends quietly; any other failure is a
    ValidationError."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # an in-process stream, such as a StringIO
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise
        raise ValidationError(f"stdout: cannot write the output ({exc.strerror or exc})")


def _writable(output: str | None) -> None:
    """Refuse `output` unless a file can be opened for writing there, before
    any work.  An existing file is opened to append, so it keeps its
    contents if the command fails; a new one is removed again."""
    if output is None or output == "-":
        return
    existed = os.path.lexists(output)
    try:
        open(output, "a").close()
    except OSError as exc:
        raise ValidationError(f"{output}: cannot write the output ({exc.strerror or exc})")
    if not existed:
        os.remove(output)


# every leaf command's parser, each given the output options after its own
_LEAVES = []


def _command(group, name: str, run) -> _Parser:
    """The parser of the subcommand `name` of `group`, which runs `run` (its
    docstring's first line is the help).  `dispatch` calls `run` with the
    set of options typed, then each option's value by name."""
    parser = group.add_parser(name, help=run.__doc__.splitlines()[0], description=run.__doc__)
    parser.set_defaults(run=run)
    _LEAVES.append(parser)
    return parser


def _reject_unused(given: frozenset, reason: str, *flags: str) -> None:
    """A usage error for the first of `flags` in `given`, the options typed,
    which `reason` leaves without effect; an option typed at its default
    value counts."""
    for flag in flags:
        if flag in given:
            raise UsageError(f"{flag} has no effect {reason}")


def _load_game(name: str):
    from . import fixtures as fixtures_mod
    from .games import bb84_game

    if name == "bb84":
        return bb84_game()
    kind, obj = fixtures_mod.load_fixture(name)
    if kind != "game":
        raise ValidationError(f"{name}: expected a game fixture, found {kind!r}")
    return obj


def _group(parser: argparse.ArgumentParser):
    """The subcommands of `parser`."""
    return parser.add_subparsers(title="commands", metavar="COMMAND", required=True)


cli = _Parser(prog=PROG, description="Monogamy-game calculators and simulators.")
_commands = _group(cli)


# ---------------------------------------------------------------------------


def bounds_cmd(given, game, c_value, theta_count, q_cardinality, n_range, gamma,
               gamma_prime, same_string, fmt, output, deterministic):
    """Closed-form upper bounds on the n-round winning probability."""
    from . import bounds as bounds_mod

    if game == "bb84":
        _reject_unused(given, "with --game bb84", "--c", "--theta-count")
        c_value, theta_count = 0.5, 2
    elif game == "general":
        if c_value is None:
            raise UsageError("--c is required for --game general")
    else:
        raise UsageError(f"unknown game {game!r}; use 'bb84' or 'general'")
    if same_string:
        _reject_unused(given, "with --same-string", "--q", "--gamma-prime")
        if gamma is None:
            raise UsageError("--same-string requires --gamma")
    elif gamma is not None or gamma_prime is not None:
        _reject_unused(given, "with --gamma or --gamma-prime", "--q")
    rows = []
    for n in _parse_range(n_range, fmt):
        if same_string:
            value = bounds_mod.same_string_bound(c_value, theta_count, n, gamma)
            formula = "same-string"
        elif gamma is not None or gamma_prime is not None:
            value = bounds_mod.imperfect_guessing_bound(
                c_value, theta_count, n, gamma or 0.0, gamma_prime or 0.0)
            formula = "imperfect-guessing"
        elif game == "bb84" and q_cardinality == 1:
            value = bounds_mod.bb84_parallel_value(n)
            formula = "bb84-parallel"
        else:
            value = bounds_mod.general_upper_bound(c_value, theta_count,
                                                   q_cardinality, n)
            formula = "general"
        rows.append({"n": n, "value": value, "formula": formula,
                     "vacuous": bounds_mod.vacuous(value), "c": c_value,
                     "theta_count": theta_count, "q": q_cardinality, "gamma": gamma,
                     "gamma_prime": gamma_prime})
    _emit("bounds", {"game": game, "n": n_range}, rows, output, deterministic, fmt=fmt)


_parser = _command(_commands, "bounds", bounds_cmd)
_parser.add_argument("--game", default="bb84", help="'bb84' or 'general' (general requires --c).")
_parser.add_argument("--c", dest="c_value", type=float, default=None,
                     help="Measurement overlap for a general game.")
_parser.add_argument("--theta-count", type=int, default=2)
_parser.add_argument("--q", dest="q_cardinality", type=int, default=1,
                     help="Cardinality of the allowed displacement set.")
_parser.add_argument("--n", dest="n_range", default="1",
                     help="Round count: N, A..B or A..B..STEP.")
_parser.add_argument("--gamma", type=float, default=None,
                     help="Error fraction for the first guesser (imperfect guessing).")
_parser.add_argument("--gamma-prime", type=float, default=None,
                     help="Error fraction for the second guesser.")
_parser.add_argument("--same-string", action="store_true",
                     help="Require both guessers to produce the same string.")
_parser.add_argument("--format", dest="fmt", choices=["json", "csv"], default="csv")


# ---------------------------------------------------------------------------


def seesaw_cmd(given, game, n, bob_dim, charlie_dim, restarts, seed, tol, max_iters,
               include_strategy, output, deterministic):
    """Search for a high-value strategy; the value is a certified lower bound."""
    from . import bounds as bounds_mod
    from . import fixtures as fixtures_mod
    from .games import MonogamyGame, game_power, overlap
    from .seesaw import SeesawConfig, seesaw as run_seesaw

    base = _load_game(game)
    played = game_power(base, n)
    cfg = SeesawConfig(max_iters=max_iters, tol=tol, seed=seed,
                       bob_dim=bob_dim, charlie_dim=charlie_dim,
                       restarts=restarts)
    result = run_seesaw(played, cfg)
    payload = result.to_dict()
    if len(base.thetas) >= 2:  # the bound over all rounds of one round's family
        one_round = MonogamyGame(base.dim_a, base.thetas, base.outcomes, base.elements)
        payload["upper_bound"] = bounds_mod.general_upper_bound(
            overlap(one_round), len(base.thetas), 1, played.rounds)
    if include_strategy:
        payload["strategy"] = fixtures_mod.strategy_to_json(result.strategy)
    _emit("seesaw", {"game": game, "n": n, "bob_dim": bob_dim,
                     "charlie_dim": charlie_dim, "restarts": restarts,
                     "tol": tol, "max_iters": max_iters},
          payload, output, deterministic, seed=seed)


_parser = _command(_commands, "seesaw", seesaw_cmd)
_parser.add_argument("--game", default="bb84", help="'bb84' or the path of a game fixture.")
_parser.add_argument("--n", type=int, default=1, help="Parallel repetitions of the game.")
_parser.add_argument("--bob-dim", type=int, default=1)
_parser.add_argument("--charlie-dim", type=int, default=1)
_parser.add_argument("--restarts", type=int, default=20)
_parser.add_argument("--seed", type=int, default=0)
_parser.add_argument("--tol", type=float, default=1e-9)
_parser.add_argument("--max-iters", type=int, default=200)
_parser.add_argument("--include-strategy", action=argparse.BooleanOptionalAction, default=True,
                     help="Embed the winning strategy as matrix JSON.")


# ---------------------------------------------------------------------------


def _resolve_syndrome(s_text: str, n: int, t: int, gamma: float, epsilon: float) -> int:
    if s_text == "auto":
        from .finite_key import suggested_syndrome_length

        return suggested_syndrome_length(n, t, gamma, epsilon)
    try:
        return int(s_text)
    except ValueError:
        raise UsageError(f"--s must be an integer or 'auto', got {s_text!r}")


def qkd_delta_cmd(given, n, t, gamma, epsilon, s_text, ell, output, deterministic):
    """Finite-key security failure bound for one parameter set."""
    from .finite_key import QkdParams, security_delta

    s = _resolve_syndrome(s_text, n, t, gamma, epsilon)
    params = QkdParams(n=n, t=t, s=s, ell=ell, gamma=gamma, epsilon=epsilon)
    report = security_delta(params)
    _emit("qkd-delta",
          {"n": n, "t": t, "s": s, "ell": ell, "gamma": gamma, "epsilon": epsilon},
          report.to_dict(), output, deterministic)


_parser = _command(_commands, "qkd-delta", qkd_delta_cmd)
_parser.add_argument("--n", type=int, required=True, help="Rounds exchanged.")
_parser.add_argument("--t", type=int, required=True, help="Sampled rounds.")
_parser.add_argument("--gamma", type=float, required=True, help="Tolerated error rate.")
_parser.add_argument("--epsilon", type=float, required=True, help="Sampling slack.")
_parser.add_argument("--s", dest="s_text", default="auto",
                     help="Syndrome bits, or 'auto' for ceil((n-t) h(gamma+epsilon)).")
_parser.add_argument("--ell", type=int, required=True, help="Key length in bits.")


def qkd_keylen_cmd(given, n_range, t_text, gamma, epsilon, s_text, delta_target, fmt,
                   output, deterministic):
    """Maximal key length within a failure-bound target, swept over n."""
    from .finite_key import max_key_length

    kind, colon, number = t_text.partition(":")
    try:
        value = float(number) if kind in ("frac", "pow") else int(t_text)
    except ValueError:
        value = math.nan
    if not -math.inf < value < math.inf:
        raise UsageError(f"cannot parse --t {t_text!r}; use an integer, frac:F or "
                         "pow:P with a finite number")
    rows = []
    for n in _parse_range(n_range, fmt):
        try:
            t = math.ceil(value * n if kind == "frac" else n**value if colon else value)
        except OverflowError:  # t is refused either way, as not below n
            raise DomainError(f"--t {t_text} gives a t past the float range at n={n}")
        s = _resolve_syndrome(s_text, n, t, gamma, epsilon)
        rep = max_key_length(n, t, s, gamma, epsilon, delta_target)
        rows.append({"n": n, "t": t, "s": s, "gamma": gamma, "epsilon": epsilon,
                     "delta_target": delta_target, "feasible": rep.feasible,
                     "ell": rep.ell, "rate": rep.ell / n if rep.feasible else None,
                     "delta": rep.delta if rep.feasible else None, "note": rep.note})
    _emit("qkd-keylen", {"n": n_range, "t": t_text, "s": s_text, "gamma": gamma,
                         "epsilon": epsilon, "delta_target": delta_target},
          rows, output, deterministic, fmt=fmt)


_parser = _command(_commands, "qkd-keylen", qkd_keylen_cmd)
_parser.add_argument("--n", dest="n_range", required=True, help="Rounds: N, A..B or A..B..STEP.")
_parser.add_argument("--t", dest="t_text", required=True,
                     help="Sampled rounds: an integer, 'frac:F' for ceil(F n), or "
                          "'pow:P' for ceil(n^P).")
_parser.add_argument("--gamma", type=float, required=True)
_parser.add_argument("--epsilon", type=float, required=True)
_parser.add_argument("--s", dest="s_text", default="auto")
_parser.add_argument("--delta-target", type=float, required=True)
_parser.add_argument("--format", dest="fmt", choices=["json", "csv"], default="csv")


def qkd_sim_cmd(given, n, t, s, ell, gamma, epsilon, noise, device, trials, seed,
                output, deterministic):
    """Monte-Carlo protocol runs: abort rate, key agreement, sampling statistics."""
    from . import qkd as qkd_mod
    from .finite_key import QkdParams

    if device == "epr":
        _reject_unused(given, "with --device epr", "--noise")
        from .quantum_device import epr_device
        dev = epr_device(n)
    else:
        dev = qkd_mod.HonestNoisyDevice(noise)
    params = QkdParams(n=n, t=t, s=s, ell=ell, gamma=gamma, epsilon=epsilon)
    agg = qkd_mod.run_eqkd_trials(params, dev, trials, seed=seed)
    _emit("qkd-sim",
          {"n": n, "t": t, "s": s, "ell": ell, "gamma": gamma,
           "epsilon": epsilon, "noise": noise, "device": device,
           "trials": trials},
          agg, output, deterministic, seed=seed)


_parser = _command(_commands, "qkd-sim", qkd_sim_cmd)
_parser.add_argument("--n", type=int, required=True)
_parser.add_argument("--t", type=int, required=True)
_parser.add_argument("--s", type=int, default=0)
_parser.add_argument("--ell", type=int, default=0)
_parser.add_argument("--gamma", type=float, required=True)
_parser.add_argument("--epsilon", type=float, default=0.05)
_parser.add_argument("--noise", type=float, default=0.0,
                     help="Flip probability of the classical device model.")
_parser.add_argument("--device", choices=["honest", "epr"], default="honest",
                     help="'epr' runs the exact quantum device.")
_parser.add_argument("--trials", type=int, default=1000)
_parser.add_argument("--seed", type=int, default=0)


# ---------------------------------------------------------------------------


_POSVER = "Position-verification soundness bounds and timing simulation."
_posver = _group(_commands.add_parser("posver", help=_POSVER, description=_POSVER))


def posver_bound_cmd(given, n_range, d, rate, gamma, gamma_prime, fmt, output,
                     deterministic):
    """Soundness bounds over a sweep of qubit counts."""
    from . import bounds as bounds_mod

    if rate is not None:
        _reject_unused(given, "with --rate", "--d")
    rows = []
    for n in _parse_range(n_range, fmt):
        if rate is None:
            row = {"n": n, "d": d, "bound": bounds_mod.entangled_soundness_bound(n, d)}
        elif math.isfinite(rate) and (n > sys.float_info.max or math.isfinite(rate * n)):
            # from log2 d, so that 2^log2_d is never built; exact past the float range
            log2_d = math.ceil(bounds_mod._exact(lambda r, n: r * n, rate, n))
            row = {"n": n, "log2_d": log2_d,
                   "bound": bounds_mod.entangled_soundness_bound_log2(n, log2_d)}
        else:  # nan, inf, or a product past the float range at this n
            raise UsageError(f"argument --rate: {rate} times n = {n} is not finite")
        row["vacuous"] = bounds_mod.vacuous(row["bound"])
        if gamma is not None or gamma_prime is not None:
            row["noisy_bound"] = bounds_mod.noisy_soundness_bound(
                n, gamma or 0.0, gamma_prime or 0.0)
        rows.append(row)
    _emit("posver-bound", {"n": n_range, "d": d, "rate": rate, "gamma": gamma,
                           "gamma_prime": gamma_prime,
                           "max_entanglement_rate": bounds_mod.max_entanglement_rate()},
          rows, output, deterministic, fmt=fmt)


_parser = _command(_posver, "bound", posver_bound_cmd)
_parser.add_argument("--n", dest="n_range", default="1")
_parser.add_argument("--d", type=int, default=1,
                     help="Dimension of the adversaries' pre-shared state.")
_parser.add_argument("--rate", type=_at_least(float, 0), default=None,
                     help="Entanglement rate: rows give log2_d = ceil(rate n) in place of --d.")
_parser.add_argument("--gamma", type=float, default=None,
                     help="Allowed error fraction (noise-tolerant variant).")
_parser.add_argument("--gamma-prime", type=float, default=None)
_parser.add_argument("--format", dest="fmt", choices=["json", "csv"], default="csv")


def posver_simulate_cmd(given, scenario_path, n, prover, position, trials, seed, output,
                        deterministic):
    """Monte-Carlo acceptance statistics for a prover model."""
    from . import posver as posver_mod

    if scenario_path is None:
        scenario = posver_mod.TimingScenario(v0=0.0, v1=2.0, pos=1.0)
    else:
        from . import fixtures as fixtures_mod

        kind, scenario = fixtures_mod.load_fixture(scenario_path)
        if kind != "scenario":
            raise ValidationError(f"{scenario_path}: expected a scenario fixture")
    if prover != "single":
        _reject_unused(given, f"with --prover {prover}", "--position")
    if prover == "honest":  # one party at the claimed position answers exactly
        model = posver_mod.SingleAdversary(scenario.pos)
    elif prover == "breidbart":
        model = posver_mod.BreidbartPair()
    else:
        if position is None:
            raise UsageError("--prover single requires --position")
        model = posver_mod.SingleAdversary(position)
    agg = posver_mod.simulate_pv_rounds(scenario, n, model, trials, seed=seed)
    _emit("posver-simulate",
          {"scenario": scenario_path or "default", "n": n, "prover": prover,
           "position": position, "trials": trials},
          agg, output, deterministic, seed=seed)


_parser = _command(_posver, "simulate", posver_simulate_cmd)
_parser.add_argument("--scenario", dest="scenario_path", default=None,
                     help="Scenario fixture path; defaults to verifiers at 0 and 2, "
                          "claimed position 1.")
_parser.add_argument("--n", type=int, default=1)
_parser.add_argument("--prover", choices=["honest", "breidbart", "single"], default="breidbart")
_parser.add_argument("--position", type=float, default=None,
                     help="Adversary position for --prover single.")
_parser.add_argument("--trials", type=int, default=100000)
_parser.add_argument("--seed", type=int, default=0)


# ---------------------------------------------------------------------------


def ur_check_cmd(given, fixture, random_count, seed, output, deterministic):
    """Check the two-observer guessing tradeoff for a fixture or random states."""
    from . import fixtures as fixtures_mod
    from . import uncertainty as ur_mod
    from .rand import random_density, random_povm, rng_for

    rows = []
    if fixture is not None:
        _reject_unused(given, "with a fixture", "--random", "--seed")
        kind, obj = fixtures_mod.load_fixture(fixture)
        if kind != "ur_instance":
            raise ValidationError(f"{fixture}: expected an ur_instance fixture")
        rho, dims, f0, f1 = obj
        rows.append(ur_mod.check_uncertainty_relation(rho, dims, f0, f1).to_dict())
    elif random_count is not None:
        for k in range(random_count):
            rng = rng_for(seed, k)
            rho = random_density(8, rng)
            f0 = random_povm(2, 2, rng)
            f1 = random_povm(2, 2, rng)
            rows.append(ur_mod.check_uncertainty_relation(
                rho, (2, 2, 2), f0, f1).to_dict())
    else:
        raise UsageError("provide a fixture path or --random K")
    _emit("ur-check", {"fixture": fixture, "random": random_count},
          rows, output, deterministic,
          seed=seed if random_count is not None else None)


_parser = _command(_commands, "ur-check", ur_check_cmd)
_parser.add_argument("fixture", nargs="?", default=None, metavar="FIXTURE")
_parser.add_argument("--random", dest="random_count", type=_at_least(int, 1), default=None,
                     help="Check this many random tripartite qubit instances instead.")
_parser.add_argument("--seed", type=int, default=0)


# ---------------------------------------------------------------------------


_FIXTURES = "Fixture-file utilities."
_fixtures = _group(_commands.add_parser("fixtures", help=_FIXTURES, description=_FIXTURES))


def fixtures_validate_cmd(given, paths, output, deterministic):
    """Validate fixture files; exits 1 if any file is invalid."""
    from . import fixtures as fixtures_mod

    rows = []
    failures = 0
    for path in paths:
        try:
            kind, _ = fixtures_mod.load_fixture(path)
            rows.append({"path": path, "kind": kind, "ok": True, "error": None})
        except ValueError as exc:
            failures += 1
            rows.append({"path": path, "kind": None, "ok": False, "error": str(exc)})
    _emit("fixtures-validate", {"paths": list(paths)}, rows, output, deterministic)
    if failures:
        raise ValidationError(f"{failures} of {len(paths)} fixture(s) invalid")


_parser = _command(_fixtures, "validate", fixtures_validate_cmd)
_parser.add_argument("paths", nargs="+", metavar="PATHS")

for _parser in _LEAVES:
    _parser.add_argument("--output", default=None, help="Output path (default stdout).")
    _parser.add_argument("--deterministic", action="store_true",
                         help="Suppress the timestamp field.")


# ---------------------------------------------------------------------------


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Run the CLI programmatically; returns the process exit code.  Output
    goes to the `sys.stdout` of the call, and an error to one line of
    stderr."""
    try:
        try:
            options, extra = cli.parse_known_args(argv)
        except SystemExit as exc:  # --help, printed
            return exc.code
        if options.run is fixtures_validate_cmd and not any(a.startswith("-") for a in extra):
            options.paths += extra  # paths may stand on both sides of an option
        elif extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        options = vars(options)
        run = options.pop("run")
        _writable(options["output"])
        run(options.pop("given", frozenset()), **options)
        return 0
    except UsageError as exc:
        message, code = exc, 2
    except ValueError as exc:
        message, code = exc, 1
    except BrokenPipeError:  # the reader has gone, and has nothing to be told
        return 1
    except KeyboardInterrupt:
        print(file=sys.stderr)  # ends the line the terminal's ^C began
        return 1
    print(f"{PROG}: error: {message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
