"""One-round position verification on a line: soundness calculators and a
timing-model Monte-Carlo simulator.

Two verifiers bracket a claimed position; one sends n qubits prepared in
random BB84 states, the other the basis string, timed to meet at the claimed
position.  A response is accepted only if it is correct and arrives at both
verifiers on the light-speed schedule of that position (unit signal speed,
instantaneous local computation).

Adversary quantum behaviour is modeled per qubit; the canonical unentangled
attack measures every qubit in the intermediate basis halfway between the
two BB84 bases, which succeeds per qubit with the game's one-round value
cos^2(pi/8) and meets the n = 1 soundness bound with equality.  The honest
prover is a :class:`SingleAdversary` at the claimed position.

Every prover's `respond_batch` takes the challenges x and bases theta of a
batch as bit-packed (n, words) uint64 arrays (see `_sample_batch`) and
returns its two responses in the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import (BB84_ROUND_VALUE, LOG2_INV_ROUND_VALUE, _exact, _pow2, _scaled_power,
                     bb84_parallel_value, imperfect_guessing_bound)
from .errors import ValidationError, require_bytes, whole
from .rand import _words, bernoulli, rng_for

_ROUND_BATCH = 65536
# bytes a batch holds per (round, qubit) entry, rounds counted up to a whole
# word: 2.32 measured with tracemalloc at n = 8..64 for BreidbartPair, whose
# flips are drawn a byte per entry before they are packed, and 0.75-0.88 for
# an exact SingleAdversary
_ROUND_ENTRY_BYTES = 3


# ---------------------------------------------------------------------------
# closed-form soundness


def soundness_bound(n: int) -> float:
    """Acceptance probability bound for unentangled adversary pairs."""
    return bb84_parallel_value(n)


def entangled_soundness_bound(n: int, d: int) -> float:
    """Bound d * (single-round value)^n for adversaries pre-sharing a
    d-dimensional state; unclamped, so it may be vacuous
    (:func:`monogamy.bounds.vacuous`)."""
    return _scaled_power(whole(d, "d"), BB84_ROUND_VALUE, whole(n))


def entangled_soundness_bound_log2(n: int, log2_d: int) -> float:
    """:func:`entangled_soundness_bound` at d = 2^log2_d, without building
    2^log2_d: the same float wherever 2^log2_d is a normal float."""
    n, log2_d = whole(n), whole(log2_d, "log2_d", minimum=0)
    if log2_d < 1024:
        return _scaled_power(2.0**log2_d, BB84_ROUND_VALUE, n)
    return _pow2(_exact(lambda d, n, b: d - n * b, log2_d, n, LOG2_INV_ROUND_VALUE))


def max_entanglement_rate() -> float:
    """Pre-shared entangled qubits per transmitted qubit below which the
    soundness error still decays exponentially: log2(1/round value)."""
    return LOG2_INV_ROUND_VALUE


def noisy_soundness_bound(n: int, gamma: float, gamma_prime: float) -> float:
    """Soundness when responses may differ from the challenge string in at
    most a gamma (resp. gamma') fraction of positions."""
    return imperfect_guessing_bound(0.5, 2, n, gamma, gamma_prime)


# ---------------------------------------------------------------------------
# timing scenario and prover models


@dataclass(frozen=True)
class TimingScenario:
    """Verifier coordinates and the claimed position, unit signal speed."""

    v0: float
    v1: float
    pos: float

    def __post_init__(self):
        if not self.v0 < self.pos < self.v1:
            raise ValidationError(f"claimed position {self.pos} must lie strictly "
                                  f"between the verifiers at {self.v0} and {self.v1}")

    def require_inside(self, position: float, who: str) -> float:
        if not self.v0 < position < self.v1:
            raise ValidationError(f"{who} at {position} is outside the segment "
                                  f"({self.v0}, {self.v1}) covered by the timing model")
        return float(position)


class BreidbartPair:
    """Two colluding adversaries, one on each side of the claimed position,
    holding no shared entanglement.

    The one facing the qubit source measures every qubit immediately in the
    intermediate basis (success cos^2(pi/8) per qubit, independent of the
    basis bit) and forwards the outcome string both ways; the other merely
    relays.  That schedule meets both deadlines whenever the first adversary
    sits between its verifier and the claimed position.
    """

    def __init__(self, pos_e0: float | None = None, pos_e1: float | None = None):
        self.pos_e0 = pos_e0
        self.pos_e1 = pos_e1

    def _positions(self, scenario: TimingScenario) -> tuple[float, float]:
        e0 = (scenario.v0 + scenario.pos) / 2 if self.pos_e0 is None else self.pos_e0
        e1 = (scenario.pos + scenario.v1) / 2 if self.pos_e1 is None else self.pos_e1
        e0 = scenario.require_inside(e0, "adversary E0")
        e1 = scenario.require_inside(e1, "adversary E1")
        return e0, e1

    def timing(self, scenario: TimingScenario) -> tuple[bool, bool]:
        e0, e1 = self._positions(scenario)
        # answering V0 on time requires E0 at or before the claimed position;
        # the relayed string reaches V1 exactly on the deadline iff it never
        # travels backwards
        return e0 <= scenario.pos, e0 <= e1

    def respond_batch(self, x: np.ndarray, theta: np.ndarray,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        flips = bernoulli(rng, 1.0 - BB84_ROUND_VALUE, (*x.shape[:-1], 64 * x.shape[-1]))
        guess = x ^ np.packbits(flips, axis=-1, bitorder="little").view("<u8")
        return guess, guess.copy()


class SingleAdversary:
    """One adversary who waits for both the qubits and the basis string.

    With the basis in hand the measurement is perfect, but waiting at any
    point other than the claimed position makes one of the two response
    deadlines unreachable, so the timing check alone rejects the attack.
    """

    def __init__(self, position: float):
        self.position = float(position)

    def timing(self, scenario: TimingScenario) -> tuple[bool, bool]:
        q = scenario.require_inside(self.position, "adversary")
        return q <= scenario.pos, q >= scenario.pos

    def respond_batch(self, x: np.ndarray, theta: np.ndarray,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return x.copy(), x.copy()


# ---------------------------------------------------------------------------
# simulation


def _check_n(n: int, rounds: int) -> int:
    """n as an int, once positive and once a batch of `rounds` rounds of n
    qubits, counted up to a whole word of rounds, fits the memory budget."""
    n = whole(n)
    require_bytes(_ROUND_ENTRY_BYTES * 64 * -(-rounds // 64) * n,
                  f"a batch of {rounds} rounds of {n} qubits")
    return n


def _sample_batch(n: int, prover, rounds: int, rng: np.random.Generator) -> np.ndarray:
    """Per round of `rounds` rounds of n qubits, whether both of the prover's
    responses equal the challenges.  Challenges x, bases theta and the
    responses are bit-packed and qubit-major, (n, ceil(rounds / 64)) uint64
    words, row q for qubit q and bit j of word w for round 64 w + j; bits
    past `rounds` are drawn and answered but not counted."""
    words = -(-rounds // 64)
    x = _words(rng, n * words).reshape(n, words)
    theta = _words(rng, n * words).reshape(n, words)
    x0p, x1p = prover.respond_batch(x, theta, rng)
    wrong = np.bitwise_or.reduce((x0p ^ x) | (x1p ^ x), axis=0)
    return np.unpackbits(wrong.astype("<u8", copy=False).view(np.uint8), count=rounds,
                         bitorder="little") == 0


def simulate_pv_rounds(scenario: TimingScenario, n: int, prover, trials: int,
                       seed: int = 0) -> dict:
    """Acceptance statistics over many rounds, batched and seed-derived so the
    aggregate is reproducible at any batch schedule."""
    trials, seed = whole(trials, "trials"), whole(seed, "seed", minimum=None)
    n = _check_n(n, min(_ROUND_BATCH, trials))
    ok0, ok1 = prover.timing(scenario)
    accepted = 0
    # a prover the timing check rejects is accepted in no round, so none is drawn
    for batch_index, done in enumerate(range(0, trials if ok0 and ok1 else 0, _ROUND_BATCH)):
        nb = min(_ROUND_BATCH, trials - done)
        accepted += int(np.sum(_sample_batch(n, prover, nb, rng_for(seed, batch_index))))
    return {
        "trials": trials,
        "seed": seed,
        "n": n,
        "accepted": accepted,
        "acceptance_rate": accepted / trials,
        "timing_ok_v0": ok0,
        "timing_ok_v1": ok1,
        "soundness_bound": soundness_bound(n),
    }
