"""Shared helpers for the test suite, and the oracles that only tests call."""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

# before numpy, so the test process runs BLAS on the package's one thread and
# seeded seesaw pins do not depend on the host's core count
import monogamy  # noqa: F401
import numpy as np
import pytest

from monogamy import linalg
from monogamy.errors import DimensionError, NotPsdError, ValidationError
from monogamy.games import MonogamyGame, Strategy, bb84_game, game_power
from monogamy.rand import rng_for


@pytest.fixture
def rng() -> np.random.Generator:
    return rng_for(20240817)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_psd(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def reorder_systems(m: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Oracle: permute tensor factors so factor order[i] becomes the i-th factor."""
    n = len(dims)
    assert sorted(order) == list(range(n)), f"{order} is not a permutation"
    d = math.prod(dims)
    axes = list(order) + [i + n for i in order]
    return np.asarray(m).reshape(tuple(dims) * 2).transpose(axes).reshape(d, d)


def power_elements(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Oracle: every n-fold tensor product of per-round element stacks.

    Factor i is a stack E_i[x, a, a'].  Row (x_1, ..., x_n) of the result is
    E_1[x_1] ⊗ ... ⊗ E_n[x_n]; rows run lexicographically, round 1 most
    significant.
    """
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        f = np.asarray(f, dtype=complex)
        k, d = out.shape[0] * f.shape[0], out.shape[1] * f.shape[1]
        out = (out[:, None, :, None, :, None] * f[None, :, None, :, None, :]).reshape(k, d, d)
    return out


def basis_factors(game: MonogamyGame) -> list[np.ndarray]:
    """For each n-round basis of `game`, in `basis_labels` order, the
    (rounds, |X|, dim_a, dim_a) stack of its per-round POVMs: the factors a
    per-basis ``conditional_states`` call or ``power_elements`` takes."""
    return [game.elements[list(ts)]
            for ts in itertools.product(range(len(game.thetas)), repeat=game.rounds)]


def bb84_povms(n: int) -> np.ndarray:
    """The n-round BB84 measurement as a (2^n, 2^n, 2^n, 2^n) stack, rows in
    ``game_power(bb84_game(), n).basis_labels`` order."""
    return np.array([power_elements(f) for f in basis_factors(game_power(bb84_game(), n))])


def device_strategy(state, povms) -> Strategy:
    """The n-round BB84 strategy in which Bob holds `povms`, a
    (2^n, |X|, d, d) stack in basis-label order, and Charlie holds the rest
    of `state` and always names outcome 0: a quantum device's strategy."""
    game = game_power(bb84_game(), len(povms).bit_length() - 1)
    d = np.shape(povms)[-1]
    extra = len(state) // (game.alice_dim * d)
    charlie = np.zeros(np.shape(povms)[:2] + (extra, extra))
    charlie[:, 0] = np.eye(extra)
    return Strategy(state, (game.alice_dim, d, extra), povms, charlie, game.basis_labels)


def dense_product(game: MonogamyGame, strategy: Strategy) -> Strategy:
    """Oracle: a product strategy written out as one dense strategy for
    `game`, which plays as many rounds.  The state is the tensor power of the
    round's state, systems regrouped from (A1 B1 C1 A2 ...) to
    (A1 A2 ...)(B1 ...)(C1 ...); each party's stack holds the
    ``power_elements`` of its per-round POVMs, rows in `game.basis_labels`
    order."""
    n = strategy.rounds
    assert game.rounds == n, "the oracle writes out a game's own round count"
    order = [3 * i + party for party in range(3) for i in range(n)]
    rho = reorder_systems(functools.reduce(np.kron, [strategy.rho_abc] * n),
                          strategy.dims * n, order)
    idx = [strategy.thetas.index(t) for t in game.thetas]
    bob, charlie = (np.array([power_elements(stack[list(ts)])
                              for ts in itertools.product(idx, repeat=n)])
                    for stack in (strategy.bob, strategy.charlie))
    return Strategy(rho, tuple(d**n for d in strategy.dims), bob, charlie, game.basis_labels)


def _square(m) -> np.ndarray:
    """`m` as an array, once it is checked to be a square matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def schatten_inf_norm(m) -> float:
    """Oracle: the largest singular value, as the square root of the top
    eigenvalue of M^dagger M, clipped at zero.  For Hermitian PSD input it
    is the largest eigenvalue."""
    m = _square(m)
    gram = m.conj().T @ m
    top = float(np.linalg.eigvalsh(linalg.hermitianize(gram))[-1])
    return float(np.sqrt(max(top, 0.0)))


def pairwise_overlap(game: MonogamyGame) -> float:
    """Oracle: :func:`monogamy.games.overlap` one element pair at a time.
    For each pair of elements of distinct bases, the top eigenvalue of the
    Gram matrix of sqrt(F_x^theta) sqrt(F_x'^theta'), each root taken alone;
    the largest, clipped at zero, to the power of the game's rounds."""
    best = max(float(np.linalg.eigvalsh(linalg.hermitianize(m.conj().T @ m))[-1])
               for fa, fb in itertools.combinations(game.elements, 2)
               for m in (linalg.psd_sqrt(a) @ linalg.psd_sqrt(b) for a in fa for b in fb))
    return max(best, 0.0)**game.rounds


def cyclic_permutations(n: int) -> np.ndarray:
    """The n cyclic shifts of [0..n-1] as rows; a mutually orthogonal
    permutation set."""
    return (np.arange(n)[:, None] + np.arange(n)) % n


def kittaneh_sum_bound(ops: Sequence[np.ndarray],
                       perms: Sequence[Sequence[int]]) -> tuple[float, float]:
    """Oracle for the paper's operator-sum lemma, after Kittaneh (1997).

    For PSD A_1..A_N and N mutually orthogonal permutations pi^k of [N],
    returns (lhs, rhs) with

        lhs = || sum_i A_i ||,    rhs = sum_k max_i || sqrt(A_i) sqrt(A_{pi^k(i)}) ||.

    The inequality lhs <= rhs is the caller's to assert.
    """
    if not ops:
        raise DimensionError("need at least one operator")
    mats = [_square(a) for a in ops]
    dim = mats[0].shape[0]
    for a in mats:
        if a.shape[0] != dim:
            raise DimensionError("all operators must share one dimension")
        if not linalg.hermitian_psd(a):
            raise NotPsdError("operators must be Hermitian PSD")
    n = len(mats)
    perms = np.asarray(perms)
    if perms.shape != (n, n) or not linalg.permutation_rows(perms):
        raise ValidationError(f"need {n} permutations of 0..{n - 1}, got {perms.tolist()}")
    # two permutations agree at a point exactly when a column repeats a value
    if not linalg.permutation_rows(perms.T):
        raise ValidationError("the permutations are not mutually orthogonal")
    roots = [linalg.psd_sqrt(a) for a in mats]
    lhs = schatten_inf_norm(sum(mats))
    rhs = 0.0
    for p in perms.astype(int):
        rhs += max(schatten_inf_norm(roots[i] @ roots[p[i]]) for i in range(n))
    return lhs, rhs
