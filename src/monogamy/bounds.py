"""Closed-form upper bounds on monogamy-game winning probabilities, and the
soundness bounds of position verification that follow from them.

The single-round BB84 value ``BB84_ROUND_VALUE = 1/2 + 1/(2 sqrt 2)`` =
cos^2(pi/8), and its ``LOG2_INV_ROUND_VALUE`` = log2(1/value), are computed
at full floating precision here and imported everywhere else, so the game
bounds, the QKD calculator (:mod:`monogamy.finite_key`) and the
position-verification bounds all share one constant.

Bounds are returned unclamped; :func:`vacuous` is the one rule that says
when a bound (a winning probability, a soundness or a failure bound) bounds
nothing.  This module uses the standard library only, so `bounds` and
`posver bound` never load numpy.
"""

from __future__ import annotations

import math
import sys

from .errors import whole, within

BB84_ROUND_VALUE = 0.5 + 0.5 / math.sqrt(2.0)
LOG2_INV_ROUND_VALUE = -math.log2(BB84_ROUND_VALUE)


def vacuous(value: float) -> bool:
    """Whether a bound on a probability bounds nothing: it is 1 or more, or nan."""
    return not value < 1.0


def binary_entropy(p: float) -> float:
    """-p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0 by continuity."""
    p = within(p, "p", 0.0, 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _pow2(exponent: float) -> float:
    """2^exponent as a float never below it: inf from 2^1024 up; below
    2^-1022, where floats are subnormal, rounded up to the next float; and
    the smallest positive float, never 0.0, from 2^-1074 down."""
    if exponent >= 1024.0:
        return math.inf
    if exponent <= -1074.0:
        return math.ulp(0.0)
    value = 2.0**exponent
    return value if value >= sys.float_info.min else math.nextafter(value, math.inf)


def _exact(f, *args):
    """f(*args) in floats, or in exact Fractions of the same numbers once an
    int among them lies past the float range."""
    try:
        return f(*args)
    except OverflowError:
        from fractions import Fraction  # loaded on first use, not with the package
        return f(*map(Fraction, args))


def _scaled_exp(factor: float, x: float) -> float:
    """factor * e^x for a positive factor: the float product where it is a
    normal float, else 2^(log2 factor + x log2 e), never rounded to 0."""
    value = factor * math.exp(x)
    return value if value >= sys.float_info.min else _pow2(math.log2(factor) + x / math.log(2))


def _scaled_power(factor, base: float, n: int) -> float:
    """factor * base^n for a positive factor (an int of any size) and base:
    the float product where both terms and it are normal floats, else
    2^(log2 factor + n log2 base), inf past the float range; an n past the
    float range counts as the largest float, where that power saturates."""
    try:
        scale, power = float(factor), base**n
    except OverflowError:  # a term past the float range
        scale = power = math.inf
    if all(sys.float_info.min <= v < math.inf for v in (scale, power, scale * power)):
        return scale * power
    return _pow2(math.log2(factor) + min(n, sys.float_info.max) * math.log2(base))


def _family_inputs(c: float, theta_count: int, n: int) -> tuple[float, int, int]:
    """(c, theta_count, n) of the overlap bounds, once the overlap c lies in
    (0, 1], theta_count is an integer of at least 2 and n a positive
    integer."""
    return (within(c, "overlap c", 0.0, 1.0, lo_open=True),
            whole(theta_count, "theta_count", minimum=2), whole(n))


def bb84_parallel_value(n: int) -> float:
    """Exact optimal n-round BB84 game value: BB84_ROUND_VALUE ** n, never
    rounded to 0 (see :func:`_scaled_power`)."""
    return _scaled_power(1, BB84_ROUND_VALUE, whole(n))


def general_upper_bound(c: float, theta_count: int, q_cardinality: int, n: int) -> float:
    """|Q| * (1/|Theta| + (|Theta|-1)/|Theta| * sqrt(c))^n for overlap c."""
    c, theta_count, n = _family_inputs(c, theta_count, n)
    q_cardinality = whole(q_cardinality, "q_cardinality")
    base = (1.0 + (theta_count - 1) * math.sqrt(c)) / theta_count
    return _scaled_power(q_cardinality, base, n)


def imperfect_guessing_bound(c: float, theta_count: int, n: int,
                             gamma: float, gamma_prime: float) -> float:
    """(2^{h(gamma)+h(gamma')} (1 + (|Theta|-1) sqrt(c)) / |Theta|)^n.

    Bounds the n-round value when each party may miss a bounded fraction of
    the outcome string (gamma for one party, gamma' for the other).
    """
    gamma = within(gamma, "gamma", 0.0, 0.5)
    gamma_prime = within(gamma_prime, "gamma_prime", 0.0, 0.5)
    c, theta_count, n = _family_inputs(c, theta_count, n)
    factor = 2.0 ** (binary_entropy(gamma) + binary_entropy(gamma_prime))
    base = factor * (1.0 + (theta_count - 1) * math.sqrt(c)) / theta_count
    return _scaled_power(1, base, n)


def same_string_bound(c: float, theta_count: int, n: int, gamma: float) -> float:
    """Variant of the imperfect-guessing bound when both parties must produce
    the same (approximately correct) string: single entropy factor."""
    return imperfect_guessing_bound(c, theta_count, n, gamma, 0.0)


# ---------------------------------------------------------------------------
# position-verification soundness


def soundness_bound(n: int) -> float:
    """Acceptance probability bound for unentangled adversary pairs."""
    return bb84_parallel_value(n)


def entangled_soundness_bound(n: int, d: int) -> float:
    """Bound d * (single-round value)^n for adversaries pre-sharing a
    d-dimensional state; unclamped, so it may be vacuous (:func:`vacuous`)."""
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
