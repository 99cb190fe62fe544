"""The exact quantum measuring device of the QKD simulator.

A :class:`TripartiteQuantumDevice` is a state on Alice's n qubits, the
device's share and an optional third share nobody measures, plus the
device's (2^n, 2^n, d, d) POVM stack in ``game_power(bb84_game(), n)``
basis order, the layout of a :class:`monogamy.games.Strategy` guesser.  Its
construction reads p(x, y | theta) = tr[(F_x^theta ⊗ P_y^theta ⊗ 1) rho]
from one :func:`monogamy.games.conditional_stack` call and one contraction
and keeps only the cumulative table, so a trial costs one uniform.  Exact
evaluation keeps this at n <= MAX_ROUNDS = 5 rounds, checked first.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import linalg
from .errors import CapacityError, DimensionError, ValidationError, require_bytes, whole
from .games import (_povm_stack, _win_terms_bytes, bb84_game, conditional_stack,
                    game_power, maximally_entangled_density, power_elements)
from .qkd import _int_to_bits, _pack

_UNIT = 2.0**53
MAX_ROUNDS = 5


def _rounds(n: int) -> int:
    if not 1 <= n <= MAX_ROUNDS:
        raise CapacityError(f"quantum device supports 1..{MAX_ROUNDS} rounds")
    return whole(n)


class TripartiteQuantumDevice:
    """Measurement device holding a share of a joint quantum state, with one
    checked POVM per basis string; see the module docstring."""

    def __init__(self, state, povms):
        shape = np.shape(povms)
        if len(shape) != 4 or shape[0] & (shape[0] - 1):
            raise DimensionError(f"device POVM stack has shape {shape}, "
                                 "expected (2^n, 2^n, d, d)")
        self.n = _rounds(shape[0].bit_length() - 1)
        if shape[1] != shape[0]:
            raise ValidationError(f"device POVMs have {shape[1]} elements, expected "
                                  f"one per outcome string, {shape[0]}")
        game = game_power(bb84_game(), self.n)
        dim = game.alice_dim * shape[-1]
        size = math.prod(np.shape(state))
        if len(np.shape(state)) != 2 or size % dim**2:
            raise DimensionError(f"state shape {np.shape(state)} does not hold "
                                 f"2^{self.n} x {shape[-1]} dimensions")
        # the stack's checked copy, the evaluator's arrays, and the tables
        require_bytes(16 * math.prod(shape) + _win_terms_bytes(game, size)
                      + 32 * game.alice_dim**3,
                      f"{type(self).__name__}(n={self.n})")
        povms = _povm_stack(povms, game.basis_labels, shape[-1], "device:")
        states = conditional_stack(game, linalg.require_density(state, "device state"))
        # the third share, of dimension e, traced out in the contraction
        split = states.shape[:2] + (shape[-1], states.shape[-1] // shape[-1]) * 2
        table = np.einsum("tyij,txjeie->txy", povms, states.reshape(split)).real
        cdf = np.cumsum(np.clip(table, 0.0, None).reshape(len(table), -1), axis=1)
        # in units of 2^-53, the grid rng.random() draws on, with row theta
        # offset by theta 2^53: one sorted integer array serves every basis,
        # and a lookup rounds nothing
        cdf = (cdf / cdf[:, -1:] * _UNIT).astype(np.int64)
        self._cdf = (cdf + (np.arange(len(cdf), dtype=np.int64) << 53)[:, None]).ravel()

    def sample(self, theta: np.ndarray, rng: np.random.Generator):
        """Exact outcomes for every row of `theta`: one uniform per row,
        looked up in its basis's cumulative row of the table."""
        if theta.shape[1:] != (self.n,):
            raise DimensionError(f"device built for n={self.n}, got {theta.shape[1:]} rounds")
        basis = _pack(theta).astype(np.int64)
        u = (rng.random(len(theta)) * _UNIT).astype(np.int64)
        xy = np.searchsorted(self._cdf, (basis << 53) + u, side="right") - basis * 4**self.n
        return _int_to_bits(xy >> self.n, self.n), _int_to_bits(xy & (2**self.n - 1), self.n)


def epr_device(n: int) -> TripartiteQuantumDevice:
    """Honest quantum device: maximally entangled pairs, the device measuring
    its halves in the announced basis, so outcomes match Alice's exactly."""
    _rounds(n)  # before the 4^n x 4^n state
    elements = bb84_game().elements
    povms = [power_elements(elements[list(bases)])
             for bases in itertools.product(range(2), repeat=n)]
    return TripartiteQuantumDevice(maximally_entangled_density(2**n), povms)
