"""Benchmark of the monogamy package: end to end, and layer by layer.

Run from anywhere in a checkout; the package is taken from its ``src``:

    python3 bench/run.py --workload seesaw --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

The workloads are in ``workloads.py``; the metrics, their units and the
reasons for each workload are in ``BENCHMARK.json`` at the root.

``--trace 0`` runs the workload's commands as fresh child processes, one at
a time, until ``--seconds`` have passed.  Rep i runs them with the program
seed ``100 * seed + i``.  Before each of the first five reps, a fresh
interpreter that only imports ``monogamy.cli`` runs.  It reports

    wall_s       median wall time of a rep, interpreter start included
    cpu_s        median user + system time of a rep's children
    peak_rss_mb  largest resident size of any child
    setup_s      median time of the import-only interpreters
    fail_ratio   failed reps / reps attempted (a nonzero exit or a failed
                 output check fails a rep; nothing is retried)

Each child's resource use comes from its own ``wait4``.  This process never
loads numpy while it measures, since a child inherits its parent's resident
size in ``ru_maxrss``; the outputs are checked after the last rep.

``--trace 1`` runs the same commands in this process through
``monogamy.cli.dispatch``, in pairs: once with the spans of ``spans.py``
installed and once without, which gives the tracing overhead.  Times are
medians over the traced reps; counts and ratios are those of rep 0, so they
repeat exactly for a given seed.  A last traced rep takes the
``tracemalloc`` peaks; its times are not used.  ``cli.import_s`` is timed in
fresh interpreters.

Lines before the last describe the run and its provenance.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--workload all`` each metric's name is
prefixed with its workload and a colon.  ``--record PATH`` also writes the
whole result, with every sample, as JSON.  The exit code is 0 when the
benchmark ran, even if an output was wrong, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import SEED_STRIDE, WORKLOADS, CheckFailed, program_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PROBES = 5
SETUP_PROBE = "import monogamy.cli"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import monogamy.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child_argv(cmd: tuple[str, ...]) -> list[str]:
    if cmd[0] == "monogamy":
        return [sys.executable, "-m", "monogamy.cli", *cmd[1:]]
    return [sys.executable, str(BENCH / cmd[0]), *cmd[1:]]


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str


def run_child(argv: list[str]) -> Child:
    """Run one child to its end; its stderr passes through to ours."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, out.decode())


def probe(code: str) -> Child:
    child = run_child([sys.executable, "-c", code])
    if child.code != 0:
        raise SystemExit(f"bench: the set-up probe exited with {child.code}")
    return child


def check(workload, outputs: list[str], codes: list[int]) -> dict | None:
    """Counts from the workload's check, or None when the rep failed."""
    if any(codes):
        print(f"bench: {workload.name}: a command exited with {codes}", file=sys.stderr)
        return None
    try:
        return workload.check(outputs)
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        print(f"bench: {workload.name}: check failed: {exc!r}", file=sys.stderr)
        return None


def keep_going(deadline: float, per_rep: list[float], reps: int) -> bool:
    return (reps < SEED_STRIDE
            and time.perf_counter() + statistics.median(per_rep) <= deadline)


# ---------------------------------------------------------------------------
# end to end


def measure_end_to_end(workload, seed: int, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    probes, reps, per_rep = [], [], []
    while True:
        start = time.perf_counter()
        if len(probes) < MIN_PROBES:
            probes.append(probe(SETUP_PROBE).wall_s)
        rep_seed = program_seed(seed, len(reps))
        children = [run_child(child_argv(c)) for c in workload.commands(rep_seed)]
        reps.append({"seed": rep_seed,
                     "wall_s": sum(c.wall_s for c in children),
                     "cpu_s": sum(c.cpu_s for c in children),
                     "rss_mb": max(c.rss_mb for c in children),
                     "codes": [c.code for c in children],
                     "outputs": [c.stdout for c in children]})
        per_rep.append(time.perf_counter() - start)
        if not keep_going(deadline, per_rep, len(reps)):
            break
    while len(probes) < MIN_PROBES:
        probes.append(probe(SETUP_PROBE).wall_s)

    # numpy is loaded from here on; nothing below is timed
    sys.path.insert(0, str(SRC))
    counts: dict[str, int] = {}
    failed = 0
    for rep in reps:
        got = check(workload, rep.pop("outputs"), rep["codes"])
        failed += got is None
        for key, value in (got or {}).items():
            counts[key] = counts.get(key, 0) + value
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
        "setup_s": statistics.median(probes),
    }
    return {"attempted": len(reps), "failed": failed, "metrics": metrics,
            "counts": counts, "samples": {"reps": reps, "setup_s": probes}}


# ---------------------------------------------------------------------------
# traced, in process


def run_in_process(workload, seed: int, tracer) -> tuple[float, list[str], list[int]]:
    from monogamy import cli

    outputs, codes = [], []
    start = time.perf_counter()
    for cmd in workload.commands(seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                if cmd[0] == "monogamy":
                    argv = list(cmd[1:])
                    code = (tracer.span("cli", cli.dispatch, argv) if tracer
                            else cli.dispatch(argv))
                else:
                    importlib.import_module(Path(cmd[0]).stem).main()
                    code = 0
            except Exception:
                traceback.print_exc()
                code = 1
        outputs.append(buf.getvalue())
        codes.append(code)
    return time.perf_counter() - start, outputs, codes


def layer_metrics(stats: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced rep, but for peaks, import and overhead."""
    from spans import SpanStats

    def span(name):
        return stats.get(name, SpanStats())

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ["games.game_power", "games.product_strategy"]:
        m[name + ".s"] = span(name).total_s
    for name in ["games.winning_probability", "games.win_operator", "linalg.tensor",
                 "linalg.partial_trace", "seesaw.state_step", "seesaw.povm_step",
                 "uncertainty.pgm_povm", "qkd.toeplitz_hash", "qkd.decode",
                 "qkd.encode", "posver.respond_batch"]:
        m[name + ".calls"] = span(name).calls
        m[name + ".s"] = span(name).total_s
    # one state step per iteration, summed over restarts
    iterations = span("seesaw.state_step").calls
    m["seesaw.iterations"] = iterations
    m["seesaw.s_per_iteration"] = ratio(span("seesaw").total_s, iterations)
    m["seesaw.self_s"] = span("seesaw").self_s
    m["qkd.toeplitz_hash.ops"] = span("qkd.toeplitz_hash").work
    m["qkd.sampling.self_s"] = span("qkd.sampling").self_s
    m["qkd.trials_per_s"] = ratio(counts.get("qkd.trials", 0), span("qkd.sampling").total_s)
    m["qkd.abort_ratio"] = ratio(counts.get("qkd.aborts", 0), counts.get("qkd.trials", 0))
    m["qkd.key_match_ratio"] = ratio(counts.get("qkd.key_matches", 0),
                                     counts.get("qkd.completed", 0))
    m["qkd.completed"] = counts.get("qkd.completed", 0)
    m["qkd.key_matches"] = counts.get("qkd.key_matches", 0)
    m["posver.self_s"] = span("posver").self_s
    m["posver.trials_per_s"] = ratio(counts.get("posver.trials", 0), span("posver").total_s)
    m["cli.self_s"] = span("cli").self_s
    return m


def peak_mb(tracer, name: str) -> float:
    stats = tracer.stats.get(name)
    return stats.peak_bytes / 2**20 if stats else 0.0


def measure_layers(workload, seed: int, seconds: float, units: dict) -> dict:
    from spans import Tracer

    deadline = time.perf_counter() + seconds
    import_s = [float(probe(IMPORT_PROBE).stdout) for _ in range(MIN_PROBES)]
    sys.path.insert(0, str(SRC))
    importlib.import_module("monogamy.cli")

    untraced, traced, per_rep, failed = [], [], [], 0
    while True:
        start = time.perf_counter()
        rep_seed = program_seed(seed, len(traced))
        # alternate which side runs first, so warm-up is not charged to one
        for with_spans in (False, True) if len(traced) % 2 == 0 else (True, False):
            tracer = Tracer() if with_spans else None
            with tracer or contextlib.nullcontext():
                wall, outputs, codes = run_in_process(workload, rep_seed, tracer)
            counts = check(workload, outputs, codes)
            failed += counts is None
            if with_spans:
                traced.append({"seed": rep_seed, "wall_s": wall, "counts": counts or {},
                               "metrics": layer_metrics(tracer.stats, counts or {})})
            else:
                untraced.append({"seed": rep_seed, "wall_s": wall})
        per_rep.append(time.perf_counter() - start)
        # leave room for the peak pass, which costs about half a pair
        if not keep_going(deadline, [1.5 * t for t in per_rep], len(traced)):
            break

    peaks = Tracer(peak=True)
    with peaks:
        _, outputs, codes = run_in_process(workload, program_seed(seed, 0), peaks)
    failed += check(workload, outputs, codes) is None

    metrics = {name: (value if units[name] in ("count", "ratio")
                      else statistics.median(r["metrics"][name] for r in traced))
               for name, value in traced[0]["metrics"].items()}
    metrics["games.game_power.peak_mb"] = peak_mb(peaks, "games.game_power")
    metrics["qkd.toeplitz_hash.peak_mb"] = peak_mb(peaks, "qkd.toeplitz_hash")
    metrics["cli.import_s"] = statistics.median(import_s)
    untraced_s = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced_s
    return {"attempted": len(traced) + len(untraced) + 1, "failed": failed,
            "metrics": metrics, "counts": traced[0]["counts"],
            "samples": {"traced": traced, "untraced": untraced, "import_s": import_s}}


# ---------------------------------------------------------------------------
# report


def notes_for(result: dict) -> dict[str, str]:
    """Sample counts and the bases of ratios and rates, as text."""
    samples, c, m = result["samples"], result["counts"], result["metrics"]
    if "reps" in samples:
        walls = [r["wall_s"] for r in samples["reps"]]
        return {"wall_s": f"median of {len(walls)} reps, min {min(walls):.4f}, "
                          f"max {max(walls):.4f}",
                "setup_s": f"median of {len(samples['setup_s'])}",
                "fail_ratio": f"{result['failed']}/{result['attempted']} reps"}
    notes = {"trace.untraced_s": f"median of {len(samples['untraced'])} in-process reps",
             "trace.overhead_s": f"{m['trace.overhead_s'] / m['trace.untraced_s']:.1%} "
                                 "of trace.untraced_s"}
    if "qkd.trials" in c:
        notes["qkd.abort_ratio"] = f"{c['qkd.aborts']}/{c['qkd.trials']} trials, rep 0"
        notes["qkd.key_match_ratio"] = (f"{c['qkd.key_matches']}/{c['qkd.completed']} "
                                        "completed trials, rep 0")
        notes["qkd.trials_per_s"] = f"{c['qkd.trials']} trials a rep"
    if "posver.trials" in c:
        notes["posver.trials_per_s"] = f"{c['posver.trials']} trials a rep"
    return notes


def print_report(name: str, seed: int, result: dict, units: dict) -> None:
    print(f"workload {name}  seed {seed}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    for cmd in WORKLOADS[name].commands(program_seed(seed, 0)):
        print("  command (rep 0): " + " ".join(cmd))
    rows = [(metric, value, units[metric]) for metric, value in result["metrics"].items()]
    end_to_end = "reps" in result["samples"]
    if end_to_end:
        rows.append(("fail_ratio", result["failed"] / result["attempted"], "ratio"))
    notes = notes_for(result)
    for metric, value, unit in rows:
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:34s} {value:14.6g} {unit:6s}{note}")
    if end_to_end and result["counts"]:
        print("  outputs, summed over reps: " + ", ".join(
            f"{k} {v}" for k, v in result["counts"].items()))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    # on SIGTERM, unwind so that run_child kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", default=None,
                        help="also write the whole result to this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "monogamy" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'monogamy'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    provenance = {"load_avg_start": os.getloadavg(), "git_commit": git_commit(),
                  "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  **json.loads(run_child(child_argv(("provenance.py",))).stdout)}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if args.trace:
            result = measure_layers(WORKLOADS[name], args.seed, args.seconds, units)
        else:
            result = measure_end_to_end(WORKLOADS[name], args.seed, args.seconds)
        result["metrics"] = {metric: result["metrics"][metric] for metric in units}
        print_report(name, args.seed, result, units)
        results[name] = result
    print("provenance " + json.dumps(provenance))
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"provenance": provenance, "results": results}, fh, indent=1)

    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else name + ":"
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
