"""Seeded randomness helpers.

All stochastic code in the package draws from a counter-based Philox
generator keyed by a user seed plus an explicit derivation path, so restarts
and Monte-Carlo batches are reproducible no matter how work is scheduled.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for derivation path (seed, *stream); same path, same stream."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if dim < 1:
        raise DimensionError("dim must be positive")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Mixed state from a normalized complex Wishart matrix."""
    rank = dim if rank is None else int(rank)
    if rank < 1:
        raise DimensionError("rank must be positive")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_projective_povm(dim: int, outcomes: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Projective POVM with `outcomes` elements on a `dim`-dimensional space,
    as an (outcomes, dim, dim) stack.

    Columns of a Haar unitary are dealt to outcomes as evenly as possible with
    a random rotation and shuffle; when dim < outcomes some elements are zero.
    """
    if outcomes < 1:
        raise DimensionError("outcomes must be positive")
    u = haar_unitary(dim, rng)
    slots = (np.arange(dim) + rng.integers(outcomes)) % outcomes
    rng.shuffle(slots)
    cols = [u[:, slots == x] for x in range(outcomes)]
    return np.array([c @ c.conj().T for c in cols])


def random_povm(dim: int, outcomes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """General (non-projective) POVM: random PSD blocks whitened to sum to 1."""
    if outcomes < 1:
        raise DimensionError("outcomes must be positive")
    blocks = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    evals, vecs = np.linalg.eigh((total + total.conj().T) / 2)
    inv_root = (vecs * (1.0 / np.sqrt(evals))) @ vecs.conj().T
    povm = [inv_root @ b @ inv_root for b in blocks]
    return [(m + m.conj().T) / 2 for m in povm]
