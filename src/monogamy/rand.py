"""Seeded randomness helpers.

All stochastic code in the package draws from a counter-based Philox
generator keyed by a user seed plus an explicit derivation path, so restarts
and Monte-Carlo batches are reproducible no matter how work is scheduled.

Monte-Carlo bits and flips are drawn at the entropy they need, because the
generator is the slow part: :func:`random_bits` unpacks 64 fair bits from
each random word, and :func:`bernoulli` decides most entries from one random
byte, drawing a float64 only for the one entry in about 256 whose byte ties
the threshold.  P(1) is then p exactly, to float64 rounding, with no
quantized threshold.
"""

from __future__ import annotations

from ._numpy import np
from .errors import DimensionError, whole, within


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for derivation path (seed, *stream); same path, same stream.
    A negative seed wraps modulo 2^64."""
    ss = np.random.SeedSequence(entropy=whole(seed, "seed", minimum=None) & (2**64 - 1),
                                spawn_key=tuple(whole(s, "stream", minimum=0) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def _words(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` random uint64 words as little-endian bytes, so their bits
    come out the same on every platform."""
    return rng.integers(0, 2**64, size=count, dtype=np.uint64).astype("<u8", copy=False)


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """Fair uint8 bits of `shape`: the bits of ceil(size / 64) random words,
    each word's bytes in little-endian order, each byte's bits MSB first."""
    size = int(np.prod(shape, dtype=np.int64))
    bits = np.unpackbits(_words(rng, -(-size // 64)).view(np.uint8), count=size)
    return bits.reshape(shape)


def bernoulli(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """uint8 entries of `shape`, each 1 with probability p.

    Entry i takes random byte b_i of ceil(size / 8) words; with k the floor
    of 256 p it is 1 if b_i < k and 0 if b_i > k.  The entries with b_i == k
    then draw one float64 each, in index order, and are 1 if it is below
    256 p - k, which is exact in float64, so P(1) = p to float64 rounding.
    When 256 p is whole they are 0, and no float is drawn.
    """
    p = within(p, "probability", 0.0, 1.0)
    size = int(np.prod(shape, dtype=np.int64))
    k = int(256.0 * p)
    tie_p = 256.0 * p - k
    draws = _words(rng, -(-size // 8)).view(np.uint8)[:size]
    # the ties first, so that no more than two entry-sized arrays are held
    ties = np.flatnonzero(draws == k) if tie_p else None
    out = (draws < k).view(np.uint8)
    if tie_p:
        out[ties] = rng.random(ties.size) < tie_p
    return out.reshape(shape)


def haar_unitary(dim: int, rng: np.random.Generator, dtype=complex) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix, or for
    a real `dtype` a Haar-distributed orthogonal matrix via QR of a real one
    (Mezzadri, Notices AMS 54, 592, 2007)."""
    dim = whole(dim, "dim", error=DimensionError)
    g = rng.standard_normal((dim, dim))
    if np.dtype(dtype).kind == "c":
        g = g + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase (for a real matrix, the sign) ambiguity of QR so the
    # distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Mixed state from a normalized complex Wishart matrix."""
    dim = whole(dim, "dim", error=DimensionError)
    rank = whole(dim if rank is None else rank, "rank", error=DimensionError)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_projective_povm(dim: int, outcomes: int, rng: np.random.Generator,
                           dtype=complex) -> np.ndarray:
    """Projective POVM with `outcomes` elements on a `dim`-dimensional space,
    as an (outcomes, dim, dim) stack of `dtype`.

    Columns of a Haar unitary (orthogonal matrix, for a real `dtype`) are
    dealt to outcomes as evenly as possible with a random rotation and
    shuffle; when dim < outcomes some elements are zero.
    """
    outcomes = whole(outcomes, "outcomes", error=DimensionError)
    u = haar_unitary(dim, rng, dtype)
    slots = (np.arange(dim) + rng.integers(outcomes)) % outcomes
    rng.shuffle(slots)
    povm = np.zeros((outcomes, dim, dim), dtype=u.dtype)
    for x in set(slots.tolist()):  # only the outcomes that hold columns
        c = u[:, slots == x]
        povm[x] = c @ c.conj().T
    return povm


def random_povm(dim: int, outcomes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """General (non-projective) POVM: random PSD blocks whitened to sum to 1."""
    dim = whole(dim, "dim", error=DimensionError)
    outcomes = whole(outcomes, "outcomes", error=DimensionError)
    blocks = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    evals, vecs = np.linalg.eigh((total + total.conj().T) / 2)
    inv_root = (vecs * (1.0 / np.sqrt(evals))) @ vecs.conj().T
    povm = [inv_root @ b @ inv_root for b in blocks]
    return [(m + m.conj().T) / 2 for m in povm]
