"""Timing spans around the package's functions, installed from outside.

``Tracer.install()`` replaces each target function with a wrapper that
records a span, wherever the package binds it: the defining module, the
package's re-exports and every ``from .x import f`` alias in its other
modules.  Class methods are replaced on the class.  ``uninstall()`` puts
the originals back.

A span's self time is its duration minus the time of the spans directly
inside it, on the same thread.  With ``peak=True``, ``tracemalloc`` traces each call of the
target alone and the span keeps the largest peak; tracing slows the call,
so the timings of such a run are not used.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    peak_bytes: int = 0


def _toeplitz_ops(seed_bits, input_bits, ell):
    return int(ell) * len(input_bits)


# span name, defining module, attribute (Class.method for methods),
# work counter, whether tracemalloc peaks are taken
TARGETS = [
    ("games.game_power", "monogamy.games", "game_power", None, True),
    ("games.product_strategy", "monogamy.games", "product_strategy", None, False),
    ("games.winning_probability", "monogamy.games", "winning_probability", None, False),
    ("games.win_operator", "monogamy.games", "win_operator", None, False),
    ("linalg.tensor", "monogamy.linalg", "tensor", None, False),
    ("linalg.partial_trace", "monogamy.linalg", "partial_trace", None, False),
    ("seesaw", "monogamy.seesaw", "seesaw", None, False),
    ("seesaw.state_step", "monogamy.seesaw", "optimal_state_step", None, False),
    ("seesaw.povm_step", "monogamy.seesaw", "optimal_povm_step", None, False),
    ("uncertainty.pgm_povm", "monogamy.uncertainty", "pgm_povm", None, False),
    ("qkd.sampling", "monogamy.qkd", "run_eqkd_trials", None, False),
    ("qkd.toeplitz_hash", "monogamy.qkd", "toeplitz_hash", _toeplitz_ops, True),
    ("qkd.encode", "monogamy.qkd", "LinearCode.encode", None, False),
    ("qkd.decode", "monogamy.qkd", "LinearCode.decode", None, False),
    ("posver", "monogamy.posver", "simulate_pv_rounds", None, False),
    ("posver.respond_batch", "monogamy.posver", "BreidbartPair.respond_batch",
     None, False),
]


class Tracer:
    def __init__(self, peak: bool = False):
        self.peak = peak
        self.stats: dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        return self._call(self.stats.setdefault(name, SpanStats()), None, False,
                          fn, args, kwargs)

    def _call(self, stats: SpanStats, work, peak: bool, fn, args, kwargs):
        with self._lock:
            stats.calls += 1
            if work is not None:
                stats.work += work(*args, **kwargs)
        frame = [0.0]  # time of the spans directly inside this one
        stack = self._stack()
        stack.append(frame)
        measure = peak and self.peak and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            if measure:
                stats.peak_bytes = max(stats.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            stack.pop()
            if stack:
                stack[-1][0] += took
            with self._lock:
                stats.total_s += took
                stats.self_s += took - frame[0]

    def _wrap(self, name, fn, work, peak):
        stats = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(stats, work, peak, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if n == "monogamy" or n.startswith("monogamy.")]
        for name, module_name, attr, work, peak in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(name, vars(cls)[meth], work, peak))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, work, peak)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, key, new) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
