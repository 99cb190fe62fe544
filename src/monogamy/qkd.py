"""Monte-Carlo simulator for the entanglement-based BB84 protocol with an
untrusted measurement device on the receiving side.

The protocol parameters it takes, :class:`~monogamy.finite_key.QkdParams`, the
closed-form failure bound and its key-length inversion are in
:mod:`monogamy.finite_key`.  The simulator executes the protocol itself
(sampling, abort rule, syndrome correction, Toeplitz hashing) along one
pipeline for every device: a batch of trials draws its basis strings, the
device measures the whole batch, the sampled comparison decides each abort,
and the completed rows are corrected and hashed a block of rows at a time.
:func:`run_eqkd_trials` runs batch after batch and keeps counts;
:func:`simulate_eqkd` runs a batch of one trial and keeps its transcript;
the device alone says how Bob measures.  A device is any object with
`sample(theta, rng) -> (x, y)` that takes a (trials, n) array of basis bits
and returns Alice's and its own outcome bits in that shape, drawn from `rng`
only; one built for another n raises DimensionError.  This module's device is
the classical noise model :class:`HonestNoisyDevice`; the exact quantum one,
which plays a strategy block by block, is in :mod:`monogamy.quantum_device`.
The memory budget is the only bound on run sizes: one trial with t = 1 and
s = ell = 0 is charged 21 bytes a round, up to 102,258,189 rounds.  An
eavesdropper is never simulated; the failure bound is the security claim and
is computed exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

from ._numpy import np
from .bounds import _scaled_exp
from .errors import (CapacityError, DimensionError, DomainError, ValidationError,
                     require_bytes, whole, within)
from .finite_key import QkdParams
from .rand import bernoulli, random_bits, rng_for

# the bytes a trial batch takes to draw, and a block of its completed rows
# to post-process
_BATCH_BYTES = 2**21
# the widest code chunk, and the most error patterns a leader table lists
_CHUNK_LEN = 64
_LEADER_PATTERNS = 2**16

# Byte costs the memory predictions charge, from tracemalloc peaks at n >= 16:
# a trial batch holds 8.0-9.2 B per (trial, round) entry while it draws (its
# bits, the int32 rounds it shuffles and the sample mask; 11.0 B in a batch
# of one row, whose unshuffled row is as large) and 4.0-4.1 B while its
# completed rows are post-processed (its bits and the mask), which takes
# 2.0-13.0 B per completed row and round beyond the hash, the most at
# s = n - t (the float32 syndrome pass); a Toeplitz hash takes 20-22 B per
# output row and FFT point, plus its rounded window.  A one-trial transcript
# adds 9 B per sampled round (its int64 sample set and bits), within the
# post-processing charge.  A batch also holds 25 B per row: its sample error
# rates, the full rates and slackened sample rates they are compared with
# (float64 each) and its abort flags, while it draws; its two flag arrays and
# the int64 indices of its completed rows, fewer, while they are
# post-processed.  Below n = 8 the entry charges do not cover these: without
# this one, a full batch at n = 2 peaks at 3.65 MiB against 2.79 MiB.
_TRIAL_ENTRY_BYTES = 11
_TRIAL_ROW_BYTES = 25
_HELD_ENTRY_BYTES = 4
_POST_ENTRY_BYTES = 13
_HASH_NFFT_BYTES = 24
_HASH_OUT_BYTES = 16
# A code keeps 190-235 B per chunk, 5 B per parity-matrix entry (uint8 and
# float32), 8 B per input column and syndrome row of its shapes with syndrome
# rows, and a leader table 16 B per syndrome; building a table peaks 65 B per
# listed pattern above what it keeps.
_CHUNK_BYTES = 256
_PARITY_ENTRY_BYTES = 5
_INDEX_BYTES = 8
_LEADER_KEPT_BYTES = 16
_LEADER_BUILD_BYTES = 72

# rng derivation streams, so basis strings, code construction and the rest
# of a batch's draws never overlap
_ROUND_STREAM = 0
_CODE_STREAM = 1
_BATCH_STREAM = 2


# ---------------------------------------------------------------------------
# privacy amplification and error correction primitives


def _as_bits(bits) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(bits, dtype=np.uint8))
    if arr.size and arr.max() > 1:
        raise ValidationError("bit arrays may only contain 0 and 1")
    return arr


def toeplitz_hash(seed_bits, input_bits, ell: int) -> np.ndarray:
    """Toeplitz matrix-vector products over GF(2), by FFT convolution.

    Output bit j is the XOR over i of seed[j + L - 1 - i] * input[i], that
    is conv(seed, input)[j + L - 1] mod 2, with L = input.shape[-1]; a seed
    has exactly L + ell - 1 bits (for ell = 0, none or L - 1).  Seeds
    (..., L + ell - 1) and inputs (..., L) broadcast over their leading
    axes to outputs (..., ell); a 1-D call is a batch of one.  The integer
    convolution comes from float64 rfft/irfft at the power of two
    nfft >= L + ell - 1, where the indices read do not wrap around; it is
    rounded to the nearest integer, and a residual of 0.25 or more raises
    CapacityError instead of returning a wrong bit.
    """
    ell = whole(ell, "ell", minimum=0)
    x = _as_bits(input_bits)
    seed = _as_bits(seed_bits)
    length = x.shape[-1]
    if ell == 0:
        if seed.shape[-1] not in (0, max(length - 1, 0)):
            # zero-row matrix: accept an empty seed or the L-1 convention
            raise DimensionError(f"seed length {seed.shape[-1]} invalid for ell=0")
    elif seed.shape[-1] != length + ell - 1:
        raise DimensionError(f"seed length {seed.shape[-1]} != input length {length} "
                             f"+ ell {ell} - 1")
    lead = np.broadcast_shapes(seed.shape[:-1], x.shape[:-1])
    if ell == 0 or length == 0:
        return np.zeros(lead + (ell,), dtype=np.uint8)
    rows = math.prod(lead)
    require_bytes(_hash_bytes(length, ell, rows), f"toeplitz_hash({ell} x {length}, {rows} rows)")
    from numpy import fft  # loaded on first use, not with the package
    nfft = 1 << (length + ell - 2).bit_length()
    spectrum = fft.rfft(seed, nfft) * fft.rfft(x, nfft)
    conv = fft.irfft(spectrum, nfft)[..., length - 1:length + ell - 1]
    counts = np.rint(conv)
    residual = float(np.abs(conv - counts).max())
    if residual >= 0.25:
        raise CapacityError(f"toeplitz_hash({ell} x {length}): FFT residual {residual:.3g} "
                            "is too large to round")
    return (counts % 2).astype(np.uint8)


def _hash_bytes(length: int, ell: int, rows: int = 1) -> int:
    """Peak bytes of :func:`toeplitz_hash` for `rows` output rows: per row,
    the float64 input padded to nfft, both spectra and their product, the
    float64 convolution, and the rounded window with its residual."""
    if ell == 0 or length == 0:
        return 0
    nfft = 1 << (length + ell - 2).bit_length()
    return rows * (_HASH_NFFT_BYTES * nfft + _HASH_OUT_BYTES * ell)


def _pack(bits: np.ndarray) -> np.ndarray:
    # at most 64 bits into a uint64, MSB first along the last axis, so
    # ascending integers sort like lexicographic bit strings
    shifts = np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.uint64)
    return bits.astype(np.uint64) @ np.left_shift(np.uint64(1), shifts)


def _int_to_bits(value, width: int) -> np.ndarray:
    # MSB first; an array of values gives one row of bits per value
    value = np.asarray(value)
    shifts = (width - 1 - np.arange(width)).astype(value.dtype)
    return ((value[..., None] >> shifts) & 1).astype(np.uint8)


def _bit_rows(bits, width: int, what: str) -> tuple[np.ndarray, tuple]:
    """(`bits` as a (rows, width) array, its leading shape); 1-D is one row."""
    arr = _as_bits(bits)
    if arr.shape[-1] != width:
        raise DimensionError(f"{what} length {arr.shape[-1]} != {width}")
    return arr.reshape(math.prod(arr.shape[:-1]), width), arr.shape[:-1]


def _leader_reach(width: int) -> tuple[int, int]:
    """(w, count) for the largest weight w whose error patterns of `width`
    bits and weight at most w number count <= _LEADER_PATTERNS."""
    counts = list(itertools.accumulate(math.comb(width, k) for k in range(width + 1)))
    weight = sum(count <= _LEADER_PATTERNS for count in counts) - 1
    return weight, counts[weight]


class LinearCode:
    """Seeded random linear code, decoded chunk by chunk with coset leaders.

    The input is split into chunks of at most `_CHUNK_LEN` = 64 bits, and the
    syndrome rows are spread over them in proportion to their width.  Chunks
    of one shape (width, rows) share one parity matrix, drawn from path
    (seed, code stream, k) with k counting the shapes in sorted order.
    `encode` and `decode` take (rows, length) arrays, a 1-D array being one
    row; both run one matmul per chunk shape over the rows.  Decoding is
    syndrome decoding with coset leaders (MacWilliams and Sloane 1977,
    ch. 1): each shape's table lists the error patterns of weight 0, 1, 2,
    ... for as many whole weights as fit in _LEADER_PATTERNS patterns (all
    of them for chunks of 16 bits or less), and keeps per syndrome its
    leader, the pattern of lowest weight, ties to the smallest bit string.
    A chunk whose syndrome differs from the given one by d is XOR-ed with
    the leader of d, giving a nearest word with that syndrome among those
    the table reaches; a d with no leader leaves the chunk as received.
    Tables are built on first use, and the memory budget bounds them at
    construction.
    """

    def __init__(self, length: int, syndrome_bits: int, seed: int):
        length = whole(length, "length", minimum=0)
        syndrome_bits = whole(syndrome_bits, "syndrome_bits", minimum=0)
        if not syndrome_bits <= length:
            raise DomainError(f"need 0 <= syndrome_bits <= length, got {syndrome_bits}, {length}")
        require_bytes(_code_bytes(length, syndrome_bits), f"LinearCode({length}, {syndrome_bits})")
        self.length = length
        self.syndrome_bits = syndrome_bits
        self.seed = whole(seed, "seed", minimum=None)
        # (start, stop, first syndrome row, stop syndrome row) of each chunk,
        # rows allocated proportionally so that they sum to syndrome_bits
        self._chunks: list[tuple[int, int, int, int]] = []
        for start in range(0, self.length, _CHUNK_LEN):
            stop = min(start + _CHUNK_LEN, self.length)
            lo = (self.syndrome_bits * start) // self.length
            self._chunks.append((start, stop, lo, (self.syndrome_bits * stop) // self.length))
        shapes = sorted({(b - a, hi - lo) for a, b, lo, hi in self._chunks})
        self._h = {(width, rows): rng_for(self.seed, _CODE_STREAM, k).integers(
                       0, 2, size=(rows, width), dtype=np.uint8)
                   for k, (width, rows) in enumerate(shapes)}
        # per shape with syndrome rows: H, its transpose in float32, and the
        # input columns (chunks, width) and syndrome rows (chunks, rows) of
        # its chunks; a shape without rows has no syndrome to compute
        self._shapes = []
        for (width, rows), h in self._h.items():
            if rows:
                firsts = np.array([(a, lo) for a, b, lo, hi in self._chunks
                                   if (b - a, hi - lo) == (width, rows)])
                self._shapes.append((h, h.T.astype(np.float32),
                                     firsts[:, :1] + np.arange(width),
                                     firsts[:, 1:] + np.arange(rows)))
        self._leaders: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _shape_syndromes(self, bits: np.ndarray):
        """(H, input columns, syndrome rows, syndrome bits) of each chunk shape
        with syndrome rows, the bits as (rows of `bits`, chunks, rows of H):
        one float32 matmul per shape, whose sums of at most 64 bits are
        exact, so their parity is too."""
        for h, h_t, columns, syndrome_rows in self._shapes:
            sums = bits[:, columns].astype(np.float32).reshape(-1, h.shape[1]) @ h_t
            syn = sums.astype(np.uint8).reshape(len(bits), *syndrome_rows.shape)
            del sums
            syn &= 1
            yield h, columns, syndrome_rows, syn

    def encode(self, x) -> np.ndarray:
        """The syndrome of each row of x."""
        rows, lead = _bit_rows(x, self.length, "input")
        out = np.empty((len(rows), self.syndrome_bits), dtype=np.uint8)
        for _, _, syndrome_rows, syn in self._shape_syndromes(rows):
            out[:, syndrome_rows] = syn
        return out.reshape(lead + (self.syndrome_bits,))

    def _leader_table(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sorted packed syndromes, their packed leaders) for parity matrix
        h.  A pattern of weight k is one of weight k - 1 plus one bit below
        its lowest set bit, so each weight comes out in ascending order and
        the first pattern of each syndrome is its leader."""
        shape = h.shape[::-1]
        if shape not in self._leaders:
            width = h.shape[1]
            # the bit with value 2^q and its column, for q = 0 .. width - 1
            bits = np.left_shift(np.uint64(1), np.arange(width, dtype=np.uint64))
            columns = _pack(h.T)[::-1]
            patterns = [np.zeros(1, np.uint64)]
            syndromes = [np.zeros(1, np.uint64)]
            free = np.array([width])  # bits below each pattern's lowest set bit
            for _ in range(_leader_reach(width)[0]):
                parent = np.repeat(np.arange(free.size), free)
                # q counts 0 .. free - 1 within each parent's children
                q = np.arange(parent.size) - np.repeat(np.cumsum(free) - free, free)
                patterns.append(patterns[-1][parent] | bits[q])
                syndromes.append(syndromes[-1][parent] ^ columns[q])
                free = q
            table, first = np.unique(np.concatenate(syndromes), return_index=True)
            self._leaders[shape] = table, np.concatenate(patterns)[first]
        return self._leaders[shape]

    def decode(self, y, syndrome) -> np.ndarray:
        """Each row of y, chunk by chunk, XOR the coset leader of the
        difference between its syndrome and the given one."""
        received, lead = _bit_rows(y, self.length, "received")
        syndrome, syndrome_lead = _bit_rows(syndrome, self.syndrome_bits, "syndrome")
        if lead != syndrome_lead:
            raise DimensionError(f"{lead} received rows but {syndrome_lead} syndromes")
        out = received.copy()
        for h, columns, syndrome_rows, syn in self._shape_syndromes(received):
            diff = syn ^ syndrome[:, syndrome_rows]
            row, chunk = np.nonzero(diff.any(axis=2))
            if row.size:
                table, leaders = self._leader_table(h)
                d = _pack(diff[row, chunk])
                at = np.minimum(np.searchsorted(table, d), table.size - 1)
                error = np.where(table[at] == d, leaders[at], np.uint64(0))
                out[row[:, None], columns[chunk]] ^= _int_to_bits(error, h.shape[1])
        return out.reshape(lead + (self.length,))


def _code_bytes(length: int, rows: int) -> int:
    """Peak bytes of a :class:`LinearCode` of `rows` syndrome bits with every
    leader table built: the chunk bookkeeping, at most three parity matrices
    in uint8 and float32, the column and syndrome-row indices of the chunks,
    and the tables of at most two row counts among the full chunks and one
    short last chunk, with the construction of the largest."""
    if length == 0:
        return 0
    full, rest = divmod(length, _CHUNK_LEN)
    chunks = full + (rest > 0)
    listed = [_leader_reach(_CHUNK_LEN)[1]] * min(full, 2) + [_leader_reach(rest)[1]] * (rest > 0)
    leaders = _LEADER_KEPT_BYTES * sum(listed) + _LEADER_BUILD_BYTES * max(listed) if rows else 0
    index = _INDEX_BYTES * (length + rows) if rows else 0
    return chunks * _CHUNK_BYTES + 3 * _PARITY_ENTRY_BYTES * _CHUNK_LEN**2 + index + leaders


# ---------------------------------------------------------------------------
# device models (the protocol a device follows is in the module docstring)


class HonestNoisyDevice:
    """Classical reference device: outcomes equal Alice's bits, flipped
    independently with probability `flip_prob`."""

    def __init__(self, flip_prob: float):
        self.flip_prob = within(flip_prob, "flip probability", 0.0, 1.0)

    def sample(self, theta: np.ndarray, rng: np.random.Generator):
        x = random_bits(rng, theta.shape)
        return x, x ^ bernoulli(rng, self.flip_prob, theta.shape)


# ---------------------------------------------------------------------------
# protocol simulation


@dataclass(frozen=True)
class ProtocolTranscript:
    seed: int
    params: QkdParams
    theta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    sample_set: np.ndarray
    x_sample: np.ndarray
    aborted: bool
    syndrome: np.ndarray | None
    hash_seed: np.ndarray | None
    key: np.ndarray | None
    key_hat: np.ndarray | None

    @property
    def sample_error_rate(self) -> float:
        return float(np.mean(self.x[self.sample_set] != self.y[self.sample_set]))

    @property
    def full_error_rate(self) -> float:
        return float(np.mean(self.x != self.y))


def _admit_run(params: QkdParams, batch_rows: int, what: str) -> None:
    """Refuse a run before it builds its code unless the budget holds the
    code with its decode tables and a batch of `batch_rows` trials, while it
    draws or post-processes a block."""
    block_rows, row_bytes = _post_rows(params)
    entries = batch_rows * params.n
    require_bytes(_code_bytes(params.n - params.t, params.s) + _TRIAL_ROW_BYTES * batch_rows
                  + max(_TRIAL_ENTRY_BYTES * entries,
                        _HELD_ENTRY_BYTES * entries + min(block_rows, batch_rows) * row_bytes),
                  what)


# the post-processing of a block of runs that passed the abort rule, one row
# per run, and one batch
_Completed = namedtuple("_Completed", "x_rest x_hat syndrome hash_seed key key_hat")
_Batch = namedtuple("_Batch", "theta x y sample aborted violated completed")


def _post_rows(params: QkdParams) -> tuple[int, int]:
    """(completed rows per post-processing block, bytes per row): the block
    gathers its rows' key rounds through the sample mask, holds their bits,
    syndromes, corrected bits and hash seeds, and hashes the sent and the
    corrected bits of each row in one call."""
    length = params.n - params.t
    per_row = _POST_ENTRY_BYTES * params.n + _hash_bytes(length, params.ell, 2)
    return max(1, _BATCH_BYTES // per_row), per_row


def _batch_rows(n: int) -> int:
    """Trials per batch: as many rows of n rounds as draw within _BATCH_BYTES."""
    return max(1, _BATCH_BYTES // (n * _TRIAL_ENTRY_BYTES))


def _sample_mask(rng: np.random.Generator, shape: tuple[int, int], t: int) -> np.ndarray:
    """A bool mask of `shape` that marks each row's sample set: the first t
    of its rounds after an exact Fisher-Yates shuffle of the row (Durstenfeld,
    CACM 7, 420, 1964)."""
    order = np.empty(shape, dtype=np.int32)
    order[:] = np.arange(shape[1], dtype=np.int32)
    rng.permuted(order, axis=1, out=order)
    mask = np.zeros(shape, dtype=bool)
    np.put_along_axis(mask, order[:, :t], True, axis=1)
    return mask


def _trial_batch(params: QkdParams, device, code: LinearCode, seed: int,
                 index: int, size: int) -> _Batch:
    """Batch `index` of the runs with `seed`: `size` runs, one per row, up to
    the abort rule; `completed` post-processes the rows that passed it, a
    block of rows at a time, with one encode, decode and hash call per
    block.  The basis strings come from path (seed, round stream, index);
    the batch generator (seed, batch stream, index) feeds the device, then
    the sample sets, then each block's hash seeds, one row per completed
    row, in row order.  A row's key rounds are the rounds outside its
    sample set, in ascending order."""
    shape = (size, params.n)
    theta = random_bits(rng_for(seed, _ROUND_STREAM, index), shape)
    rng = rng_for(seed, _BATCH_STREAM, index)
    x, y = device.sample(theta, rng)
    if np.shape(x) != shape or np.shape(y) != shape:
        raise DimensionError(f"device output shapes {np.shape(x)}, {np.shape(y)} != {shape}")
    x, y = (_as_bits(bits) for bits in (x, y))
    sample = _sample_mask(rng, shape, params.t)
    diff = x != y
    d_sample = np.count_nonzero(diff & sample, axis=1) / params.t
    aborted = d_sample > params.gamma

    def completed():
        done = np.flatnonzero(~aborted)
        step = _post_rows(params)[0]
        key_shape = (-1, params.n - params.t)
        seed_bits = params.n - params.t + params.ell - 1
        for lo in range(0, done.size, step):
            rows = done[lo:lo + step]
            key_rounds = ~sample[rows]
            x_rest = x[rows][key_rounds].reshape(key_shape)
            y_rest = y[rows][key_rounds].reshape(key_shape)
            del key_rounds
            syndrome = code.encode(x_rest)
            x_hat = code.decode(y_rest, syndrome)
            del y_rest
            hash_seed = random_bits(rng, (rows.size, seed_bits))
            key, key_hat = toeplitz_hash(hash_seed, np.stack([x_rest, x_hat]), params.ell)
            yield _Completed(x_rest, x_hat, syndrome, hash_seed, key, key_hat)

    return _Batch(theta, x, y, sample, aborted,
                  diff.mean(axis=1) > d_sample + params.epsilon, completed())


def simulate_eqkd(params: QkdParams, device, seed: int = 0) -> ProtocolTranscript:
    """One protocol run and its transcript: batch 0 of :func:`run_eqkd_trials`
    with one trial and the same seed, so the two agree on its abort and key."""
    _admit_run(params, 1, f"simulate_eqkd(n={params.n})")
    batch = _trial_batch(params, device, LinearCode(params.n - params.t, params.s, seed=seed),
                         seed, 0, 1)
    done = next(batch.completed, None)  # None: the run aborted
    batch.completed.close()  # drops the block's arrays before the transcript
    sample_set = np.flatnonzero(batch.sample[0])
    return ProtocolTranscript(
        seed=seed, params=params, theta=batch.theta[0], x=batch.x[0], y=batch.y[0],
        sample_set=sample_set, x_sample=batch.x[0, sample_set], aborted=done is None,
        **{name: None if done is None else getattr(done, name)[0]
           for name in ("syndrome", "hash_seed", "key", "key_hat")})


def run_eqkd_trials(params: QkdParams, device, trials: int, seed: int = 0) -> dict:
    """Counts over `trials` protocol runs on `device`, batch after batch of
    the one pipeline (see :func:`_trial_batch`), with one syndrome code for
    the whole call, so results do not depend on scheduling.  Decode failures
    count completed trials whose corrected word differs from the sent one,
    and unresolved ones those that still miss the syndrome (a chunk had no
    leader).  Hoeffding violations count trials whose full error rate
    exceeds the sampled rate by more than epsilon."""
    trials = whole(trials, "trials")
    step = min(_batch_rows(params.n), trials)
    _admit_run(params, step, f"run_eqkd_trials(n={params.n}, trials={trials})")
    code = LinearCode(params.n - params.t, params.s, seed=seed)
    aborts = completed = key_matches = decode_failures = unresolved = violations = 0
    for index, start in enumerate(range(0, trials, step)):
        batch = _trial_batch(params, device, code, seed, index, min(step, trials - start))
        aborts += int(batch.aborted.sum())
        violations += int(batch.violated.sum())
        for done in batch.completed:
            completed += len(done.key)
            decode_failures += int((done.x_hat != done.x_rest).any(axis=1).sum())
            unresolved += int((code.encode(done.x_hat) != done.syndrome).any(axis=1).sum())
            key_matches += int((done.key == done.key_hat).all(axis=1).sum())
        del batch  # its arrays go before the next batch draws
    return {
        "trials": trials,
        "seed": seed,
        "aborts": aborts,
        "abort_rate": aborts / trials,
        "completed": completed,
        "decode_failures": decode_failures,
        "decode_unresolved": unresolved,
        "key_matches": key_matches,
        "key_match_rate": key_matches / completed if completed else None,
        "hoeffding_violations": violations,
        "hoeffding_violation_rate": violations / trials,
        "hoeffding_bound": _scaled_exp(1.0, -2.0 * params.epsilon**2 * params.t),
    }
