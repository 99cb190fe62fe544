"""The exact quantum measuring device of the QKD simulator.

A :class:`TripartiteQuantumDevice` plays a :class:`monogamy.games.Strategy`
for ``game_power(bb84_game(), n)``: Bob's stack is the device, and the
third share, Charlie's, is traced out (his POVMs are not read).  Its
construction reads p(x, y | theta) = tr[(F_x^theta ⊗ P_y^theta ⊗ 1) rho]
from one :func:`monogamy.games.conditional_stack` call and one contraction
and keeps only the cumulative table, so a trial costs one uniform.  Exact
evaluation keeps this at n <= MAX_ROUNDS = 5 rounds, checked first.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CapacityError, DimensionError, require_bytes, whole
from .games import (Strategy, _aligned, _win_terms_bytes, bb84_game, conditional_stack,
                    game_power, maximally_entangled_density, power_elements)
from .qkd import _int_to_bits, _pack

_UNIT = 2.0**53
MAX_ROUNDS = 5


def _rounds(n: int) -> int:
    if not 1 <= n <= MAX_ROUNDS:
        raise CapacityError(f"quantum device supports 1..{MAX_ROUNDS} rounds")
    return whole(n)


class TripartiteQuantumDevice:
    """Measurement device playing Bob's part of a one-round-count BB84
    strategy; see the module docstring."""

    def __init__(self, strategy: Strategy):
        if strategy.rounds > 1:
            raise DimensionError("the quantum device takes one dense strategy, "
                                 f"not a product of {strategy.rounds} rounds")
        self.n = _rounds(strategy.dims[0].bit_length() - 1)
        game = game_power(bb84_game(), self.n)
        _, order, copies = _aligned(game, strategy)
        # the evaluator's arrays beside the realigned stacks, and the tables
        require_bytes(_win_terms_bytes(game, strategy.rho_abc.size, copies)
                      + 32 * game.alice_dim**3, f"{type(self).__name__}(n={self.n})")
        povms = strategy.bob[order]
        states = conditional_stack(game, strategy.rho_abc)
        split = states.shape[:2] + strategy.dims[1:] * 2
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
    its halves in the announced basis, so outcomes match Alice's exactly;
    Charlie holds nothing and always names outcome 0."""
    n = _rounds(n)  # before the 4^n x 4^n state
    game = game_power(bb84_game(), n)
    bob = [power_elements(game.elements[list(bases)])
           for bases in itertools.product(range(2), repeat=n)]
    charlie = np.zeros((2**n, 2**n, 1, 1))
    charlie[:, 0] = 1.0
    return TripartiteQuantumDevice(Strategy(maximally_entangled_density(2**n), (2**n, 2**n, 1),
                                            bob, charlie, game.basis_labels))
