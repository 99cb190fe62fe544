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
field).  Computation and validation failures exit 1, usage errors exit 2.

Each command imports the package modules it runs, when it runs, so a
command loads (and, without a bytecode cache, compiles) no other.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Sequence

import click
from click.core import ParameterSource

from .errors import DomainError, ValidationError, require_bytes

PROG = "monogamy"

# bytes a sweep holds per row, as a dict and as the text written in `fmt`:
# tracemalloc read 410-788 B a row as CSV and 1,117-2,526 B as JSON over
# the three sweeps at 1,000 to 3,000 rows
_ROW_BYTES = {"csv": 1024, "json": 3072}


def _parse_range(text: str, fmt: str) -> range:
    """'7' -> [7]; '1..10' -> 1..10; '10..100..10' -> arithmetic sweep, once
    its rows written in `fmt` fit the memory budget.  A range is non-empty
    and ascending: '5..1' or a step below 1 is a usage error."""
    try:
        parts = [int(part) for part in text.split("..")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 3:
        raise click.UsageError(f"cannot parse range {text!r}; use N, A..B or A..B..STEP")
    if len(parts) == 1:
        parts.append(parts[0])
    if len(parts) == 2:
        parts.append(1)
    a, b, step = parts
    if a > b or step < 1:
        raise click.UsageError(f"range {text!r} is empty or descending; a range "
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
        click.echo(text, nl=not text.endswith("\n"))
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"{output}: cannot write the output ({exc.strerror or exc})")


def _writable(ctx, param, output: str | None) -> str | None:
    """`output`, once a file can be opened for writing there, checked as the
    options are parsed, before any work.  An existing file is opened to
    append, so it keeps its contents if the command fails; a new one is
    removed again."""
    if output is None or output == "-":
        return output
    existed = os.path.lexists(output)
    try:
        open(output, "a").close()
    except OSError as exc:
        raise ValidationError(f"{output}: cannot write the output ({exc.strerror or exc})")
    if not existed:
        os.remove(output)
    return output


def _output_options(command):
    """The `--output` and `--deterministic` options every command takes."""
    command = click.option("--deterministic", is_flag=True,
                           help="Suppress the timestamp field.")(command)
    return click.option("--output", default=None, callback=_writable,
                        help="Output path (default stdout).")(command)


# the `--format` option of the three sweeps, which print the same rows either way
_format_option = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                              default="csv", show_default=True)


def _reject_unused(reason: str, *names: str) -> None:
    """A usage error for the first of the named options the user gave,
    which `reason` leaves unused; an option left at its default passes."""
    ctx = click.get_current_context()
    for param in ctx.command.params:
        if param.name in names and \
                ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT:
            raise click.UsageError(f"{param.opts[0]} has no effect {reason}", ctx)


def _load_game(name: str):
    from . import fixtures as fixtures_mod
    from .games import bb84_game

    if name == "bb84":
        return bb84_game()
    kind, obj = fixtures_mod.load_fixture(name)
    if kind != "game":
        raise ValidationError(f"{name}: expected a game fixture, found {kind!r}")
    return obj


@click.group()
def cli() -> None:
    """Monogamy-game calculators and simulators."""


# ---------------------------------------------------------------------------


@cli.command("bounds")
@click.option("--game", default="bb84", show_default=True,
              help="'bb84' or 'general' (general requires --c).")
@click.option("--c", "c_value", type=float, default=None,
              help="Measurement overlap for a general game.")
@click.option("--theta-count", type=int, default=2, show_default=True)
@click.option("--q", "q_cardinality", type=int, default=1, show_default=True,
              help="Cardinality of the allowed displacement set.")
@click.option("--n", "n_range", default="1", show_default=True,
              help="Round count: N, A..B or A..B..STEP.")
@click.option("--gamma", type=float, default=None,
              help="Error fraction for the first guesser (imperfect guessing).")
@click.option("--gamma-prime", type=float, default=None,
              help="Error fraction for the second guesser.")
@click.option("--same-string", is_flag=True,
              help="Require both guessers to produce the same string.")
@_format_option
@_output_options
def bounds_cmd(game, c_value, theta_count, q_cardinality, n_range, gamma,
               gamma_prime, same_string, fmt, output, deterministic):
    """Closed-form upper bounds on the n-round winning probability."""
    from . import bounds as bounds_mod

    if game == "bb84":
        _reject_unused("with --game bb84", "c_value", "theta_count")
        c_value, theta_count = 0.5, 2
    elif game == "general":
        if c_value is None:
            raise click.UsageError("--c is required for --game general")
    else:
        raise click.UsageError(f"unknown game {game!r}; use 'bb84' or 'general'")
    if same_string:
        _reject_unused("with --same-string", "q_cardinality", "gamma_prime")
        if gamma is None:
            raise click.UsageError("--same-string requires --gamma")
    elif gamma is not None or gamma_prime is not None:
        _reject_unused("with --gamma or --gamma-prime", "q_cardinality")
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


# ---------------------------------------------------------------------------


@cli.command("seesaw")
@click.option("--game", default="bb84", show_default=True,
              help="'bb84' or the path of a game fixture.")
@click.option("--n", type=int, default=1, show_default=True,
              help="Parallel repetitions of the game.")
@click.option("--bob-dim", type=int, default=1, show_default=True)
@click.option("--charlie-dim", type=int, default=1, show_default=True)
@click.option("--restarts", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--max-iters", type=int, default=200, show_default=True)
@click.option("--include-strategy/--no-include-strategy", default=True,
              show_default=True, help="Embed the winning strategy as matrix JSON.")
@_output_options
def seesaw_cmd(game, n, bob_dim, charlie_dim, restarts, seed, tol, max_iters,
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


# ---------------------------------------------------------------------------


def _resolve_syndrome(s_text: str, n: int, t: int, gamma: float, epsilon: float) -> int:
    if s_text == "auto":
        from . import qkd as qkd_mod

        return qkd_mod.suggested_syndrome_length(n, t, gamma, epsilon)
    try:
        return int(s_text)
    except ValueError:
        raise click.UsageError(f"--s must be an integer or 'auto', got {s_text!r}")


@cli.command("qkd-delta")
@click.option("--n", type=int, required=True, help="Rounds exchanged.")
@click.option("--t", type=int, required=True, help="Sampled rounds.")
@click.option("--gamma", type=float, required=True, help="Tolerated error rate.")
@click.option("--epsilon", type=float, required=True, help="Sampling slack.")
@click.option("--s", "s_text", default="auto", show_default=True,
              help="Syndrome bits, or 'auto' for ceil((n-t) h(gamma+epsilon)).")
@click.option("--ell", type=int, required=True, help="Key length in bits.")
@_output_options
def qkd_delta_cmd(n, t, gamma, epsilon, s_text, ell, output, deterministic):
    """Finite-key security failure bound for one parameter set."""
    from . import qkd as qkd_mod

    s = _resolve_syndrome(s_text, n, t, gamma, epsilon)
    params = qkd_mod.QkdParams(n=n, t=t, s=s, ell=ell, gamma=gamma, epsilon=epsilon)
    report = qkd_mod.security_delta(params)
    _emit("qkd-delta",
          {"n": n, "t": t, "s": s, "ell": ell, "gamma": gamma, "epsilon": epsilon},
          report.to_dict(), output, deterministic)


@cli.command("qkd-keylen")
@click.option("--n", "n_range", required=True, help="Rounds: N, A..B or A..B..STEP.")
@click.option("--t", "t_text", required=True,
              help="Sampled rounds: an integer, 'frac:F' for ceil(F n), or "
                   "'pow:P' for ceil(n^P).")
@click.option("--gamma", type=float, required=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--s", "s_text", default="auto", show_default=True)
@click.option("--delta-target", type=float, required=True)
@_format_option
@_output_options
def qkd_keylen_cmd(n_range, t_text, gamma, epsilon, s_text, delta_target, fmt,
                   output, deterministic):
    """Maximal key length within a failure-bound target, swept over n."""
    from . import qkd as qkd_mod

    kind, colon, number = t_text.partition(":")
    try:
        value = float(number) if kind in ("frac", "pow") else int(t_text)
    except ValueError:
        value = math.nan
    if not -math.inf < value < math.inf:
        raise click.UsageError(f"cannot parse --t {t_text!r}; use an integer, frac:F or "
                               "pow:P with a finite number")
    rows = []
    for n in _parse_range(n_range, fmt):
        try:
            t = math.ceil(value * n if kind == "frac" else n**value if colon else value)
        except OverflowError:  # t is refused either way, as not below n
            raise DomainError(f"--t {t_text} gives a t past the float range at n={n}")
        s = _resolve_syndrome(s_text, n, t, gamma, epsilon)
        rep = qkd_mod.max_key_length(n, t, s, gamma, epsilon, delta_target)
        rows.append({"n": n, "t": t, "s": s, "gamma": gamma, "epsilon": epsilon,
                     "delta_target": delta_target, "feasible": rep.feasible,
                     "ell": rep.ell, "rate": rep.ell / n if rep.feasible else None,
                     "delta": rep.delta if rep.feasible else None, "note": rep.note})
    _emit("qkd-keylen", {"n": n_range, "t": t_text, "s": s_text, "gamma": gamma,
                         "epsilon": epsilon, "delta_target": delta_target},
          rows, output, deterministic, fmt=fmt)


@cli.command("qkd-sim")
@click.option("--n", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--s", type=int, default=0, show_default=True)
@click.option("--ell", type=int, default=0, show_default=True)
@click.option("--gamma", type=float, required=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--noise", type=float, default=0.0, show_default=True,
              help="Flip probability of the classical device model.")
@click.option("--device", type=click.Choice(["honest", "epr"]), default="honest",
              show_default=True, help="'epr' runs the exact quantum device.")
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_output_options
def qkd_sim_cmd(n, t, s, ell, gamma, epsilon, noise, device, trials, seed,
                output, deterministic):
    """Monte-Carlo protocol runs: abort rate, key agreement, sampling statistics."""
    from . import qkd as qkd_mod

    if device == "epr":
        _reject_unused("with --device epr", "noise")
        from .quantum_device import epr_device
        dev = epr_device(n)
    else:
        dev = qkd_mod.HonestNoisyDevice(noise)
    params = qkd_mod.QkdParams(n=n, t=t, s=s, ell=ell, gamma=gamma, epsilon=epsilon)
    agg = qkd_mod.run_eqkd_trials(params, dev, trials, seed=seed)
    _emit("qkd-sim",
          {"n": n, "t": t, "s": s, "ell": ell, "gamma": gamma,
           "epsilon": epsilon, "noise": noise, "device": device,
           "trials": trials},
          agg, output, deterministic, seed=seed)


# ---------------------------------------------------------------------------


@cli.group("posver")
def posver_group() -> None:
    """Position-verification soundness bounds and timing simulation."""


@posver_group.command("bound")
@click.option("--n", "n_range", default="1", show_default=True)
@click.option("--d", type=int, default=1, show_default=True,
              help="Dimension of the adversaries' pre-shared state.")
@click.option("--rate", type=click.FloatRange(min=0), default=None,
              help="Entanglement rate: rows give log2_d = ceil(rate n) in place of --d.")
@click.option("--gamma", type=float, default=None,
              help="Allowed error fraction (noise-tolerant variant).")
@click.option("--gamma-prime", type=float, default=None)
@_format_option
@_output_options
def posver_bound_cmd(n_range, d, rate, gamma, gamma_prime, fmt, output,
                     deterministic):
    """Soundness bounds over a sweep of qubit counts."""
    from . import bounds as bounds_mod
    from . import posver as posver_mod

    if rate is not None:
        _reject_unused("with --rate", "d")
    rows = []
    for n in _parse_range(n_range, fmt):
        if rate is None:
            row = {"n": n, "d": d, "bound": posver_mod.entangled_soundness_bound(n, d)}
        elif math.isfinite(rate) and (n > sys.float_info.max or math.isfinite(rate * n)):
            # from log2 d, so that 2^log2_d is never built; exact past the float range
            log2_d = math.ceil(bounds_mod._exact(lambda r, n: r * n, rate, n))
            row = {"n": n, "log2_d": log2_d,
                   "bound": posver_mod.entangled_soundness_bound_log2(n, log2_d)}
        else:  # nan, inf, or a product past the float range at this n
            raise click.BadParameter(f"{rate} times n = {n} is not finite", param_hint="'--rate'")
        row["vacuous"] = bounds_mod.vacuous(row["bound"])
        if gamma is not None or gamma_prime is not None:
            row["noisy_bound"] = posver_mod.noisy_soundness_bound(
                n, gamma or 0.0, gamma_prime or 0.0)
        rows.append(row)
    _emit("posver-bound", {"n": n_range, "d": d, "rate": rate, "gamma": gamma,
                           "gamma_prime": gamma_prime,
                           "max_entanglement_rate": posver_mod.max_entanglement_rate()},
          rows, output, deterministic, fmt=fmt)


@posver_group.command("simulate")
@click.option("--scenario", "scenario_path", default=None,
              help="Scenario fixture path; defaults to verifiers at 0 and 2, "
                   "claimed position 1.")
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--prover", type=click.Choice(["honest", "breidbart", "single"]),
              default="breidbart", show_default=True)
@click.option("--position", type=float, default=None,
              help="Adversary position for --prover single.")
@click.option("--trials", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_output_options
def posver_simulate_cmd(scenario_path, n, prover, position, trials, seed, output,
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
        _reject_unused(f"with --prover {prover}", "position")
    if prover == "honest":  # one party at the claimed position answers exactly
        model = posver_mod.SingleAdversary(scenario.pos)
    elif prover == "breidbart":
        model = posver_mod.BreidbartPair()
    else:
        if position is None:
            raise click.UsageError("--prover single requires --position")
        model = posver_mod.SingleAdversary(position)
    agg = posver_mod.simulate_pv_rounds(scenario, n, model, trials, seed=seed)
    _emit("posver-simulate",
          {"scenario": scenario_path or "default", "n": n, "prover": prover,
           "position": position, "trials": trials},
          agg, output, deterministic, seed=seed)


# ---------------------------------------------------------------------------


@cli.command("ur-check")
@click.argument("fixture", required=False)
@click.option("--random", "random_count", type=click.IntRange(min=1), default=None,
              help="Check this many random tripartite qubit instances instead.")
@click.option("--seed", type=int, default=0, show_default=True)
@_output_options
def ur_check_cmd(fixture, random_count, seed, output, deterministic):
    """Check the two-observer guessing tradeoff for a fixture or random states."""
    from . import fixtures as fixtures_mod
    from . import uncertainty as ur_mod
    from .rand import random_density, random_povm, rng_for

    rows = []
    if fixture is not None:
        _reject_unused("with a fixture", "random_count", "seed")
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
        raise click.UsageError("provide a fixture path or --random K")
    _emit("ur-check", {"fixture": fixture, "random": random_count},
          rows, output, deterministic,
          seed=seed if random_count is not None else None)


# ---------------------------------------------------------------------------


@cli.group("fixtures")
def fixtures_group() -> None:
    """Fixture-file utilities."""


@fixtures_group.command("validate")
@click.argument("paths", nargs=-1, required=True)
@_output_options
def fixtures_validate_cmd(paths, output, deterministic):
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


# ---------------------------------------------------------------------------


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Run the CLI programmatically; returns the process exit code."""
    try:
        cli.main(args=list(argv) if argv is not None else None, prog_name=PROG,
                 standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.Abort:
        return 1
    except ValueError as exc:
        click.echo(f"{PROG}: error: {exc}", err=True)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
