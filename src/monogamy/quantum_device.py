"""The exact quantum measuring device of the QKD simulator.

A :class:`TripartiteQuantumDevice` plays Bob's stack of a BB84 strategy, dense
or product, block by block: a block is its m = log2 d_A rounds, and Charlie's
share is traced out.  One block's p(x, y | theta) = tr[(F_x ⊗ P_y ⊗ 1) rho]
comes from one :func:`monogamy.games.conditional_stack` call, and only its
cumulative table is kept, so a block costs one uniform.
"""

from __future__ import annotations

from ._numpy import np
from .errors import DimensionError, require_bytes, whole
from .games import (Strategy, _aligned, _block_rounds, _itemsize, _win_terms_bytes,
                    bb84_game, conditional_stack, constant_guess_povms, game_power,
                    maximally_entangled_density, product_strategy)
from .qkd import _int_to_bits, _pack

_UNIT = 2.0**53
# blocks drawn at once: their int64 temporaries stay within a batch's charge
_CHUNK_BLOCKS = 2**14


class TripartiteQuantumDevice:
    """Measurement device playing Bob's part of a BB84 strategy; see the
    module docstring."""

    def __init__(self, strategy: Strategy):
        bb84 = bb84_game()
        self.block = _block_rounds(bb84.dim_a, strategy.dims[0])
        self.n = self.block * strategy.rounds
        game, order, copies = _aligned(game_power(bb84, self.n), strategy)
        # the evaluator's arrays beside the realigned stacks, and the tables
        require_bytes(_win_terms_bytes(game, strategy.rho_abc.size, _itemsize(game, strategy),
                                       copies)
                      + 32 * game.alice_dim**3, f"{type(self).__name__}(n={self.n})")
        states = conditional_stack(game, strategy.rho_abc)
        split = states.shape[:2] + strategy.dims[1:] * 2
        table = np.einsum("tyij,txjeie->txy", strategy.bob[order], states.reshape(split)).real
        cdf = np.cumsum(np.clip(table, 0.0, None).reshape(len(table), -1), axis=1)
        # in units of 2^-53, the grid rng.random() draws on, with row theta
        # offset by theta 2^53: one sorted integer array serves every basis,
        # and a lookup rounds nothing
        cdf = (cdf / cdf[:, -1:] * _UNIT).astype(np.int64)
        self._cdf = (cdf + (np.arange(len(cdf), dtype=np.int64) << 53)[:, None]).ravel()

    def sample(self, theta: np.ndarray, rng: np.random.Generator):
        """Exact outcomes for every row of `theta`: one uniform per block, in
        row order, looked up in its basis's cumulative row of the table."""
        if theta.shape[1:] != (self.n,):
            raise DimensionError(f"device built for n={self.n}, got {theta.shape[1:]} rounds")
        m, blocks = self.block, theta.reshape(-1, self.block)
        x, y = (np.empty(blocks.shape, dtype=np.uint8) for _ in range(2))
        for lo in range(0, len(blocks), _CHUNK_BLOCKS):
            basis = _pack(blocks[lo:lo + _CHUNK_BLOCKS]).astype(np.int64)
            u = (rng.random(len(basis)) * _UNIT).astype(np.int64)
            xy = np.searchsorted(self._cdf, (basis << 53) + u, side="right") - basis * 4**m
            x[lo:lo + len(xy)] = _int_to_bits(xy >> m, m)
            y[lo:lo + len(xy)] = _int_to_bits(xy & (2**m - 1), m)
        return x.reshape(theta.shape), y.reshape(theta.shape)


def epr_device(n: int) -> TripartiteQuantumDevice:
    """Honest quantum device: the one-round EPR strategy, a maximally
    entangled pair with Bob measuring in the announced basis, played in each
    of n rounds; Charlie holds nothing and always names outcome 0."""
    game = bb84_game()
    one_round = Strategy(maximally_entangled_density(2), (2, 2, 1), game.elements,
                         constant_guess_povms(game.thetas, game.outcomes, "0"), game.thetas)
    return TripartiteQuantumDevice(product_strategy(one_round, whole(n)))
