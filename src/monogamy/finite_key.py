"""Finite-key security of the key-distribution protocol, in closed form:
the failure bound, its key-length inversion, the asymptotic noise
threshold and a syndrome-length preset.

The failure bound is

    delta = 5 exp(-2 eps^2 t)
          + 2^{ -(1/2) ( log2(1/b) n - h(gamma+eps) n - ell - t - s + 2 ) }

with b the single-round BB84 game value of :mod:`monogamy.bounds`.  This
module uses the standard library only, so `qkd-delta` and `qkd-keylen`
never load numpy; the protocol simulator is :mod:`monogamy.qkd`.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from .bounds import LOG2_INV_ROUND_VALUE, _exact, _pow2, _scaled_exp, binary_entropy, vacuous
from .errors import DomainError, ValidationError, whole, within


@dataclass(frozen=True)
class QkdParams:
    """Protocol parameters: rounds n, sample size t, syndrome bits s, key
    length ell, tolerated relative error gamma, sampling slack epsilon.  The
    syndrome and the key both come from the n - t unsampled rounds."""

    n: int
    t: int
    s: int
    ell: int
    gamma: float
    epsilon: float

    def __post_init__(self):
        for name, minimum in (("n", 1), ("t", 1), ("s", 0), ("ell", 0)):
            object.__setattr__(self, name, whole(getattr(self, name), name, minimum))
        if not self.t < self.n:
            raise DomainError(f"need 0 < t < n, got t={self.t}, n={self.n}")
        if self.s > self.n - self.t:
            raise DomainError(f"need s <= n - t = {self.n - self.t}, got s={self.s}")
        if self.ell > self.n - self.t:
            raise ValidationError("key length cannot exceed the unsampled rounds")
        _sampling_inputs(self.gamma, self.epsilon)


def _sampling_inputs(gamma: float, epsilon: float) -> tuple[float, float]:
    """(gamma, epsilon) as floats, once gamma lies in [0, 1/2), epsilon is
    positive and gamma + epsilon stays below 1/2."""
    gamma = within(gamma, "gamma", 0.0, 0.5, hi_open=True)
    epsilon = within(epsilon, "epsilon", 0.0, math.inf, lo_open=True, hi_open=True)
    within(gamma + epsilon, "gamma + epsilon", 0.0, 0.5, hi_open=True)
    return gamma, epsilon


@dataclass(frozen=True)
class QkdSecurityReport:
    delta: float
    sampling_term: float
    pa_term: float
    exponent_budget: float

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "vacuous": vacuous(self.delta)}


def delta_terms(n: float, t: float, s: float, ell: float,
                gamma: float, epsilon: float) -> tuple[float, float, float, float]:
    """(sampling_term, exponent_budget, pa_term, delta) of the failure bound;
    a budget past the float range is an exact Fraction.

    Numeric core: accepts real-valued arguments so budgets can be probed
    exactly; the typed entry point is :func:`security_delta`.
    """
    gamma, epsilon = _sampling_inputs(gamma, epsilon)
    # a t past the float range counts as the largest float: the term saturates
    sampling = _scaled_exp(5.0, -2.0 * epsilon**2 * min(t, sys.float_info.max))
    budget = _exact(lambda n, t, s, ell, b, h: b * n - h * n - ell - t - s + 2,
                    n, t, s, ell, LOG2_INV_ROUND_VALUE, binary_entropy(gamma + epsilon))
    pa = _pow2(-budget / 2)
    return sampling, budget, pa, sampling + pa


def security_delta(params: QkdParams) -> QkdSecurityReport:
    """Evaluate the failure bound for a parameter set."""
    sampling, budget, pa, delta = delta_terms(params.n, params.t, params.s,
                                              params.ell, params.gamma,
                                              params.epsilon)
    if abs(budget) > sys.float_info.max:  # exact, past the float range
        budget = math.inf if budget > 0 else -math.inf
    return QkdSecurityReport(delta=delta, sampling_term=sampling, pa_term=pa,
                             exponent_budget=float(budget))


@dataclass(frozen=True)
class KeyLengthReport:
    """Result of inverting the failure bound for the key length."""

    feasible: bool
    ell: int
    delta: float
    note: str = ""


def max_key_length(n: int, t: int, s: int, gamma: float, epsilon: float,
                   delta_target: float) -> KeyLengthReport:
    """Largest ell >= 0 whose failure bound stays within `delta_target`.

    Infeasible targets (the sampling term alone, or the bound already at
    ell = 0, exceeds the target) yield an explicit infeasibility report, not
    an exception.  A feasible ell = 0 means no extractable key.  Arguments
    that :class:`QkdParams` refuses raise its error.
    """
    QkdParams(n, t, s, 0, gamma, epsilon)
    delta_target = within(delta_target, "delta_target", 0.0, math.inf, lo_open=True,
                          hi_open=True)
    sampling, budget0, _, delta0 = delta_terms(n, t, s, 0, gamma, epsilon)
    if delta_target <= sampling:
        return KeyLengthReport(False, 0, math.nan,
                               "sampling term alone exceeds the target")
    if delta0 > delta_target:
        return KeyLengthReport(False, 0, math.nan,
                               "bound exceeds the target even at ell = 0")
    # closed-form inversion, exact past the float range, then adjusted by +-1
    ell = math.floor(budget0 + type(budget0)(2.0 * math.log2(delta_target - sampling)))
    ell = max(ell, 0)
    while delta_terms(n, t, s, ell + 1, gamma, epsilon)[3] <= delta_target:
        ell += 1
    while ell > 0 and delta_terms(n, t, s, ell, gamma, epsilon)[3] > delta_target:
        ell -= 1
    delta = delta_terms(n, t, s, ell, gamma, epsilon)[3]
    note = "" if ell > 0 else "no extractable key"
    return KeyLengthReport(True, ell, delta, note)


def noise_threshold() -> float:
    """The error rate where the asymptotic key rate hits zero.

    Unique root of 2 h(gamma) = log2(1/b) in (0, 1/2), found by bisection to
    1e-10.  Numerically about 1.5 percent.
    """
    target = LOG2_INV_ROUND_VALUE
    lo, hi = 1e-12, 0.5 - 1e-12
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        if 2.0 * binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def suggested_syndrome_length(n: int, t: int, gamma: float, epsilon: float) -> int:
    """ceil((n - t) h(gamma + epsilon)): a reasonable preset, not a mandate.
    Arguments that :class:`QkdParams` refuses raise its error."""
    QkdParams(n, t, 0, 0, gamma, epsilon)
    return math.ceil(_exact(lambda m, h: m * h, n - t, binary_entropy(gamma + epsilon)))
