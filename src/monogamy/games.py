"""Monogamy games, strategies, and exact winning-probability evaluation.

A game is one basis-stacked POVM array F[theta, x, a, a'] on Alice's system;
a strategy is a tripartite state with two such stacks, P[theta, x, b, b'] and
Q[theta, x, c, c'], for the two guessing parties.  Both store these read-only
arrays for one round plus a round count, and every evaluator reads them.
Everything here is exact evaluation, by one evaluator that the seesaw
and the uncertainty relation share: :func:`conditional_stack` gives every
basis's conditional states from one call, and :func:`win_terms_from_states`
contracts them in one einsum.  Closed-form bounds live in
:mod:`monogamy.bounds`.

Basis and outcome labels are strings used only at the edges: constructors
accept label-keyed mappings, ``povms`` views map labels to rows, and a
strategy is matched to a game by basis label.  A game of n rounds keeps one
round's family; its n-round labels concatenate the per-round labels (joined
with "," when any base label has more than one character).  A Q-set of
allowed displacements is two arrays of outcome-index rows, with no labels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .bounds import binary_entropy
from .errors import (DimensionError, DomainError, ValidationError, capped_power,
                     require_bytes, whole, within)

POVM_COMPLETENESS_ATOL = 1e-8

# Bytes held per n-round basis by its terms as an array and a list
# (tracemalloc: 40 B).
_TERM_BYTES = 48


def _povm_stack(povms, keys: Sequence[str], dim: int, who: str = "") -> np.ndarray:
    """A checked, read-only (|keys|, |X|, dim, dim) stack, rows in `keys`
    order, copied at most once, and once more to float64 when it is complex
    with no imaginary part: a real family is stored real.  A label-keyed
    mapping must cover exactly `keys`; its one copy is the stack itself.
    The whole stack is checked at once: Hermitian PSD elements, naming the
    first element that is not Hermitian, else the first that is not PSD,
    then every basis summing to the identity, naming the first that does
    not."""
    if isinstance(povms, Mapping):
        povms = {str(k): v for k, v in povms.items()}
        if set(povms) != set(keys):
            raise ValidationError(f"{who}POVMs cover bases {sorted(povms)}, "
                                  f"expected {sorted(keys)}")
        if len({len(povms[k]) for k in keys}) != 1:
            raise ValidationError(f"{who}POVMs have inconsistent outcome counts")
        for key in keys:
            for x, e in enumerate(povms[key]):
                if np.shape(e) != (dim, dim):
                    raise DimensionError(f"POVM '{who}{key}' element {x} has shape "
                                         f"{np.shape(e)}, expected ({dim}, {dim})")
        povms = [povms[k] for k in keys]
    stack = linalg.frozen(povms)
    if stack.dtype.kind == "c" and linalg.scalar_type(stack) is float:
        stack = linalg.frozen(stack.real)
    if stack.ndim != 4 or stack.shape[0] != len(keys) or stack.shape[2:] != (dim, dim):
        raise DimensionError(f"{who}POVM stack has shape {stack.shape}, expected "
                             f"({len(keys)}, |X|, {dim}, {dim})")
    ok = linalg.hermitian_psd(stack)
    if not ok.all():
        basis, x = np.unravel_index(np.argmin(ok), ok.shape)
        raise ValidationError(f"POVM '{who}{keys[basis]}' element {x} is not Hermitian PSD")
    total = stack.sum(axis=1)
    ok = np.abs(total - np.eye(dim)).max(axis=(-2, -1)) <= POVM_COMPLETENESS_ATOL
    if not ok.all():
        raise ValidationError(f"POVM '{who}{keys[np.argmin(ok)]}' does not sum to the identity")
    return stack


@dataclass(frozen=True, eq=False)
class MonogamyGame:
    """Basis-indexed POVM family {F_x^theta} on a dim_a-dimensional system,
    played for `rounds` rounds in parallel.

    `povms`, label-keyed (theta -> elements in `outcomes` order) or already
    stacked, is stored once as the read-only (|Theta|, |X|, dim_a, dim_a)
    array `elements` of one round; `povms` then becomes a read-only label view
    of it.  Over n rounds Alice measures F_x1^theta1 ⊗ ... ⊗ F_xn^thetan on
    A_1 ... A_n; bases and outcomes are strings of per-round ones, round 1
    most significant.
    """

    dim_a: int
    thetas: tuple[str, ...]
    outcomes: tuple[str, ...]
    povms: Mapping[str, Sequence[np.ndarray]] | np.ndarray
    rounds: int = 1
    elements: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dim_a", whole(self.dim_a, "dim_a", error=DimensionError))
        object.__setattr__(self, "rounds", whole(self.rounds, "rounds"))
        for name, what in (("thetas", "basis"), ("outcomes", "outcome")):
            labels = tuple(str(t) for t in getattr(self, name))
            if len(set(labels)) != len(labels) or not labels:
                raise ValidationError(f"{what} labels must be non-empty and distinct")
            object.__setattr__(self, name, labels)
        elements = _povm_stack(self.povms, self.thetas, self.dim_a)
        if elements.shape[1] != len(self.outcomes):
            raise ValidationError(f"POVMs have {elements.shape[1]} elements, "
                                  f"expected {len(self.outcomes)}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "povms", MappingProxyType(dict(zip(self.thetas, elements))))

    @property
    def alice_dim(self) -> int:
        """Alice's dimension over all rounds."""
        return self.dim_a**self.rounds

    @property
    def basis_labels(self) -> tuple[str, ...]:
        """The n-round basis labels, built on each access."""
        sep = "" if all(len(t) == 1 for t in self.thetas) else ","
        return tuple(sep.join(ts) for ts in itertools.product(self.thetas, repeat=self.rounds))

    def __reduce__(self):
        return MonogamyGame, (self.dim_a, self.thetas, self.outcomes, self.elements,
                              self.rounds)


@dataclass(frozen=True, eq=False)
class Strategy:
    """Tripartite state plus per-basis guessing POVMs for both parties.

    Each party's POVMs, label-keyed or stacked with rows in `thetas` order
    (default: the order of Bob's keys), are stored once as the read-only
    stacks `bob` and `charlie`, each (|Theta|, |X|, d, d); `bob_povms` and
    `charlie_povms` then become read-only label views.  Both parties must
    cover the same bases.  `rounds` is 1; see :func:`product_strategy`.
    """

    rho_abc: np.ndarray
    dims: tuple[int, int, int]
    bob_povms: Mapping[str, Sequence[np.ndarray]] | np.ndarray
    charlie_povms: Mapping[str, Sequence[np.ndarray]] | np.ndarray
    thetas: tuple[str, ...] | None = None
    bob: np.ndarray = field(init=False, repr=False)
    charlie: np.ndarray = field(init=False, repr=False)
    rounds: int = field(init=False, default=1)

    def __post_init__(self):
        dims = linalg.dimensions(self.dims, 3)
        object.__setattr__(self, "dims", dims)
        rho = linalg.frozen(self.rho_abc)
        if rho.shape != (math.prod(dims),) * 2:
            raise DimensionError(f"state shape {rho.shape} does not match dims {dims}")
        object.__setattr__(self, "rho_abc", linalg.require_density(rho, "rho_abc"))
        thetas = self.bob_povms if self.thetas is None else self.thetas
        if isinstance(thetas, np.ndarray):
            raise ValidationError("stacked POVMs need their basis order `thetas`")
        thetas = tuple(str(t) for t in thetas)
        object.__setattr__(self, "thetas", thetas)
        for name, dim in (("bob", dims[1]), ("charlie", dims[2])):
            stack = _povm_stack(getattr(self, f"{name}_povms"), thetas, dim, f"{name}:")
            object.__setattr__(self, name, stack)
            object.__setattr__(self, f"{name}_povms", MappingProxyType(dict(zip(thetas, stack))))

    def __reduce__(self):
        if self.rounds > 1:
            return product_strategy, (_with_rounds(self, 1), self.rounds)
        return Strategy, (self.rho_abc, self.dims, self.bob, self.charlie, self.thetas)


def constant_guess_povms(thetas: Sequence[str], outcomes: Sequence[str],
                         guess: str, dim: int = 1) -> dict[str, tuple[np.ndarray, ...]]:
    """Basis-independent deterministic guesser: the full identity sits on `guess`."""
    if guess not in outcomes:
        raise ValidationError(f"guess '{guess}' not among outcomes {tuple(outcomes)}")
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    elems = tuple(eye if x == guess else zero for x in outcomes)
    return {str(t): elems for t in thetas}


def maximally_entangled_density(d: int) -> np.ndarray:
    """|Phi><Phi| with |Phi> = sum_i |ii>/sqrt(d) on a d x d bipartite space.

    Entries are written as 1/d directly, so powers of two stay exact.
    """
    d = whole(d, "d", error=DimensionError)
    rho = np.zeros((d * d, d * d))
    diagonal = np.arange(d) * (d + 1)  # the index of |ii>
    rho[np.ix_(diagonal, diagonal)] = 1.0 / d
    return rho


def bb84_game() -> MonogamyGame:
    """Qubit game with the rectilinear and Hadamard bases.

    All projector entries are 0, 1 or +-1/2, so the elements are exact in
    floating point.
    """
    elements = np.array([[[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                         [[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]]])
    return MonogamyGame(dim_a=2, thetas=("0", "1"), outcomes=("0", "1"), povms=elements)


def _with_rounds(obj, rounds: int):
    """A game or strategy playing the same checked arrays for `rounds` rounds."""
    out = object.__new__(type(obj))
    out.__dict__.update(vars(obj), rounds=rounds)
    return out


def game_power(game: MonogamyGame, n: int) -> MonogamyGame:
    """n-fold parallel repetition: the same checked single-round family, played
    for n times as many rounds (tensor products of POVMs need no check)."""
    n = whole(n)
    return game if n == 1 else _with_rounds(game, game.rounds * n)


def overlap(game: MonogamyGame) -> float:
    """Maximal measurement overlap across distinct bases.

    max over theta != theta' and outcomes x, x' of
    ||sqrt(F_x^theta) sqrt(F_x'^theta')||^2; in (0, 1], at least 1/|X| if projective.

    Over n rounds the basis pair ranges over strings that differ in every
    round, which keeps the overlap multiplicative: the n-round overlap is the
    single-round one to the n-th power.
    """
    if len(game.thetas) < 2:
        raise DomainError("overlap requires at least two bases")
    # the top eigenvalue of the Gram matrix of sqrt(F_x) sqrt(F_x'), for every
    # element pair of every basis pair at once: no lossy sqrt-then-square
    roots = linalg.psd_sqrt(game.elements)
    first, second = np.triu_indices(len(roots), 1)
    m = roots[first][:, :, None] @ roots[second][:, None, :]
    gram = np.conj(m).swapaxes(-1, -2) @ m
    best = max(float(np.linalg.eigvalsh(linalg.hermitianize(gram))[..., -1].max()), 0.0)
    assert 0.0 < best <= 1.0 + 1e-9
    return best**game.rounds


def _block_rounds(dim_a: int, alice_dim: int) -> int:
    """The least m >= 1 with dim_a^m >= alice_dim: the game rounds that a
    strategy of Alice dimension alice_dim plays as one block, when that
    power is equal, which the caller checks."""
    m = 1
    while dim_a > 1 and dim_a**m < alice_dim:
        m += 1
    return m


def _aligned(game: MonogamyGame, strategy: Strategy) -> tuple:
    """The strategy's block of `game` for a product strategy, the m rounds
    with dim_a^m = d_A that each of its rounds plays, else `game`; the rows
    that put the strategy's stacks in that game's `basis_labels` order, a
    slice that views them when they are in it, else an index list; and the
    entries that `bob[rows]` and `charlie[rows]` then copy, which the
    caller charges before it indexes."""
    if strategy.rounds > 1:
        block = _block_rounds(game.dim_a, strategy.dims[0])
        if strategy.rounds * block != game.rounds:
            raise DimensionError(f"{strategy.rounds} product rounds of {block} game rounds "
                                 f"!= {game.rounds} game rounds")
        game = _with_rounds(game, block)
    if strategy.dims[0] != game.alice_dim:
        raise DimensionError(f"strategy Alice dimension {strategy.dims[0]} != "
                             f"game dimension {game.alice_dim}")
    if {strategy.bob.shape[1], strategy.charlie.shape[1]} != {len(game.outcomes)**game.rounds}:
        raise ValidationError("strategy POVMs have the wrong outcome count")
    labels = game.basis_labels
    if strategy.thetas == labels:
        return game, slice(None), 0
    # each label's first row, as tuple.index finds it, by one lookup
    row = {t: i for i, t in reversed(tuple(enumerate(strategy.thetas)))}
    missing = set(labels) - row.keys()
    if missing:
        raise ValidationError(f"strategy POVMs missing bases {sorted(missing)}")
    return game, [row[t] for t in labels], strategy.bob.size + strategy.charlie.size


def conditional_states(factors: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """tr_A[(E_x ⊗ 1) rho] for every outcome string x of a product
    measurement E_x = E_1[x_1] ⊗ ... ⊗ E_n[x_n] on the first factors
    A_1 ... A_n of rho; factor i is a stack E_i[x, a, a'].

    These are the unnormalized states the rest of the system is left in,
    returned as an (|X_1| ... |X_n|, m, m) stack, outcome strings
    lexicographic with round 1 most significant.  Alice's rounds are traced
    out one at a time, last round first, each with one matmul.
    """
    pre = math.prod(f.shape[-1] for f in factors)
    m, rem = divmod(rho.shape[-1], pre)
    if rem:
        raise DimensionError(f"state dimension {rho.shape[-1]} is not a multiple "
                             f"of {pre}")
    out = rho
    for f in reversed(factors):
        d = f.shape[-1]
        pre //= d
        # out[k, (p, a', i), (q, a, j)] -> rows (a, a'), columns (k, p, i, q, j)
        r = out.reshape(-1, pre, d, m, pre, d, m).transpose(5, 2, 0, 1, 3, 4, 6)
        out = (f.reshape(len(f), -1) @ r.reshape(d * d, -1)).reshape(-1, pre * m, pre * m)
    return out


def _trace_out_entries(size: int, k: int, d: int, rounds: int) -> tuple[int, int]:
    """(entries of the result, the most entries held at once beyond the
    input) of :func:`conditional_states` on a state of `size` entries with
    `rounds` factors of k outcomes on dimension d: round by round, its last
    result, the reordered copy it multiplies and their product."""
    held, states = 0, 0
    for _ in range(rounds):
        product = size * k // d**2
        states = max(states, held + size + product)
        held = size = product
    return size, states


def conditional_stack(game: MonogamyGame, rho: np.ndarray) -> np.ndarray:
    """tr_A[(F_x^theta ⊗ 1) rho] for every n-round basis theta and outcome
    x, of one density matrix or of an (R, D, D) stack of them.  Returns
    (|Theta|, |X|, m, m), or (R, |Theta|, |X|, m, m) for a stack, rows in
    `game.basis_labels` order: the states the guessers are left in.  One
    conditional_states call takes every round's (basis, outcome) pairs as
    its rows; its result, rows (theta_1 x_1, ..., theta_n x_n, restart), is
    then reordered."""
    t, k, n = len(game.thetas), len(game.outcomes), game.rounds
    rows = game.elements.reshape(t * k, game.dim_a, game.dim_a)
    out = conditional_states([rows] * n, rho)
    m = out.shape[-1]
    out = out.reshape((t, k) * n + (-1, m, m))
    order = (2 * n, *range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n + 1, 2 * n + 2)
    return out.transpose(order).reshape(rho.shape[:-2] + (t**n, k**n, m, m))


def win_terms_from_states(bob: np.ndarray, charlie: np.ndarray,
                          states: np.ndarray) -> np.ndarray:
    """tr(Pi^theta rho) for every basis and leading index from rho's
    :func:`conditional_stack`: sum_x tr((P_x ⊗ Q_x) sigma_x), in one einsum."""
    db, dc = bob.shape[-1], charlie.shape[-1]
    sigma = states.reshape(states.shape[:-2] + (db, dc, db, dc))
    return np.einsum("...xbq,...xcr,...xqrbc->...", bob, charlie, sigma).real


def _itemsize(game: MonogamyGame, strategy: Strategy) -> int:
    """Bytes an entry of the evaluator's arrays takes for `strategy` on
    `game`: 8 when all of their arrays are real, else 16."""
    return np.result_type(game.elements, strategy.rho_abc, strategy.bob,
                          strategy.charlie).itemsize


def _win_terms_bytes(game: MonogamyGame, size: int, itemsize: int, copies: int = 0) -> int:
    """Peak bytes of :func:`win_terms` beyond its inputs, for a state of
    `size` entries of `itemsize` bytes: conditional_stack's call, then its
    result and reordered copy, or the result beside np.einsum's iterator
    buffers (at most numpy's 8192 entries for each of four operands); plus
    `copies` entries of party stacks held beside them, reindexed, or a
    Q-set's smeared or gathered.
    tracemalloc on dense bb84^n strategies read 0.997-1.000 of this at
    n = 7-10, dims 1/1 (12.0 MiB at n = 9, rho 4 MiB) and n = 3, 4, dims
    4/4; 0.60-0.80 where the buffers dominate (n = 6, dims 1/1; n = 2-4,
    dims 2/2)."""
    states, trace_out = _trace_out_entries(size, len(game.thetas) * len(game.outcomes),
                                           game.dim_a, game.rounds)
    peak = max(trace_out, 2 * states, states + 4 * min(states, 8192)) + copies
    # and 4 KiB for the array objects of its views (tracemalloc: 1.5 KiB)
    return itemsize * peak + 4096


def _smeared(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k P[theta, row_k(x)] for a (|Theta|, |X|, d, d) stack P,
    accumulated one row at a time."""
    out = stack[:, rows[0]]
    for row in rows[1:]:
        out += stack[:, row]
    return out


def win_terms(game: MonogamyGame, bob: np.ndarray, charlie: np.ndarray, rho: np.ndarray,
              q: QSet | None = None) -> np.ndarray:
    """tr(Pi^theta rho) for every n-round basis, in `game.basis_labels` order.

    `bob` and `charlie` are (|Theta|, |X|, d, d) stacks over the n-round bases
    and outcomes.  All bases come from one :func:`conditional_stack` call
    and one contraction, without building Pi^theta.  `q` is the Q-set of
    allowed displacement pairs, None the plain game.  The caller charges
    :func:`_win_terms_bytes` first.
    """
    db, dc = bob.shape[-1], charlie.shape[-1]
    if rho.shape[0] != game.alice_dim * db * dc:
        raise DimensionError(f"state dimension {rho.shape[0]} != "
                             f"{game.alice_dim} x {db} x {dc}")
    if q is not None and q.bob.shape[1] != bob.shape[1]:
        raise ValidationError(f"Q-set rows cover {q.bob.shape[1]} outcomes, "
                              f"the game has {bob.shape[1]}")
    if q is not None and q.product:
        # exact: sum_(k,k') P_k ⊗ Q_k' = (sum_k P_k) ⊗ (sum_k' Q_k'), one pair
        bob, charlie, q = _smeared(bob, q.bob), _smeared(charlie, q.charlie), None
    states = conditional_stack(game, rho)
    if q is None:
        return win_terms_from_states(bob, charlie, states)
    # sum_k sum_x tr((P(row_k(x)) ⊗ Q(row'_k(x))) sigma_x), one row pair at a time
    return sum(win_terms_from_states(bob[:, rb], charlie[:, rc], states)
               for rb, rc in zip(q.bob, q.charlie))


def win_operator(game: MonogamyGame, bob: np.ndarray, charlie: np.ndarray,
                 i: int) -> np.ndarray:
    """The winning operator for the n-round basis at index `i` of
    `game.basis_labels`: sum_x F_x ⊗ P_x ⊗ Q_x, with the stacks' rows
    following that order.  Starts from the last round's F ⊗ P ⊗ Q and adds
    Alice's rounds from last to first.  Stacks with leading axes,
    (..., |Theta|, |X|, d, d), give one operator per leading index."""
    f = game.elements[list(np.unravel_index(i, (len(game.thetas),) * game.rounds))]
    k = len(game.outcomes)
    db, dc = bob.shape[-1], charlie.shape[-1]
    lead = bob.shape[:-4]
    m = game.dim_a * db * dc
    op = np.einsum("xap,...kxbq,...kxcr->...kabcpqr", f[-1],
                   bob[..., i, :, :, :].reshape(lead + (-1, k, db, db)),
                   charlie[..., i, :, :, :].reshape(lead + (-1, k, dc, dc)))
    for e in f[-2::-1]:
        op = np.einsum("xap,...kxbq->...kabpq", e, op.reshape(lead + (-1, k, m, m)))
        m *= game.dim_a
    return op.reshape(lead + (m, m))


def win_operator_sum(game: MonogamyGame, bob: np.ndarray, charlie: np.ndarray) -> np.ndarray:
    """The sum of every n-round basis's :func:`win_operator`,
    sum_theta sum_x F_x^theta ⊗ P_x^theta ⊗ Q_x^theta, in one contraction
    for all bases: the last round's bases and outcomes are summed out of
    F ⊗ P ⊗ Q first, then each earlier round's, Alice's rounds joining in
    front.  Takes stacks, with leading axes or without, as win_operator
    does."""
    t, k = len(game.thetas), len(game.outcomes)
    db, dc = bob.shape[-1], charlie.shape[-1]
    lead = bob.shape[:-4]
    m = game.dim_a * db * dc
    bases, outcomes = bob.shape[-4] // t, bob.shape[-3] // k
    # rows (earlier bases, last basis, earlier outcomes, last outcome)
    split = lead + (bases, t, outcomes, k)
    op = np.einsum("txap,...stkxbq,...stkxcr->...skabcpqr", game.elements,
                   bob.reshape(split + (db, db)), charlie.reshape(split + (dc, dc)))
    for _ in range(game.rounds - 1):
        bases, outcomes = bases // t, outcomes // k
        op = np.einsum("txap,...stkxbq->...skabpq", game.elements,
                       op.reshape(lead + (bases, t, outcomes, k, m, m)))
        m *= game.dim_a
    return op.reshape(lead + (m, m))


def _win_operator_sum_entries(game: MonogamyGame, db: int, dc: int) -> int:
    """The most entries :func:`win_operator_sum` holds at once per leading
    index: one round's result and the next's, (|Theta| |X|)^(n-j) operators
    on A_(n-j+1) ... A_n B C after j rounds are summed out."""
    pairs, d = len(game.thetas) * len(game.outcomes), game.dim_a
    held = [pairs**(game.rounds - j) * (d**j * db * dc)**2 for j in range(game.rounds + 1)]
    return max(a + b for a, b in zip(held[1:], held[2:] + [0]))


def _basis_terms(game: MonogamyGame, strategy: Strategy) -> np.ndarray:
    """tr(Pi^theta rho) for every n-round basis in `game.basis_labels` order;
    a product's are the kron of its round's."""
    one, order, copies = _aligned(game, strategy)
    require_bytes(_TERM_BYTES * capped_power(len(game.thetas), game.rounds)
                  + _win_terms_bytes(one, strategy.rho_abc.size, _itemsize(game, strategy),
                                     copies), "win_terms")
    terms = win_terms(one, strategy.bob[order], strategy.charlie[order], strategy.rho_abc)
    return functools.reduce(np.kron, [terms] * strategy.rounds)


def winning_probability(game: MonogamyGame, strategy: Strategy) -> float:
    """Probability that both parties guess Alice's outcome, basis uniform."""
    terms = _basis_terms(game, strategy)
    return float(sum(terms.tolist()) / len(terms))


@dataclass(frozen=True, eq=False)
class QSet:
    """Allowed displacement pairs for the imperfect-guessing win condition.

    `bob` (Kb, |X|) and `charlie` (Kc, |X|) hold rows of outcome indices,
    each a permutation of range(|X|) over the n-round outcome strings: row k
    maps Alice's outcome x to the outcome a party must name.  The pairs are
    the rows zipped, (bob[k], charlie[k]), or with `product`, which the
    Hamming constructor sets, every (bob[k], charlie[k']).  Both are stored
    as read-only integer arrays, and no pair may repeat.
    """

    bob: np.ndarray
    charlie: np.ndarray
    product: bool = False

    def __post_init__(self):
        for name in ("bob", "charlie"):
            rows = np.asarray(getattr(self, name))
            if not (np.issubdtype(rows.dtype, np.integer) and linalg.permutation_rows(rows)):
                raise ValidationError(f"Q-set {name} rows must be bijections on the "
                                      f"outcome indices, as a (K, |X|) integer array")
            object.__setattr__(self, name, linalg.frozen(rows, np.intp))
        if self.bob.shape[1] != self.charlie.shape[1] or \
                not (self.product or len(self.bob) == len(self.charlie)):
            raise ValidationError("Q-set rows must cover one outcome count, with one "
                                  "Charlie row per Bob row unless `product` is set")
        # a product set repeats a pair exactly when a party repeats a row;
        # each row is compared as one opaque item, a void view of its bytes
        checked = [self.bob, self.charlie] if self.product else \
            [np.hstack([self.bob, self.charlie])]
        for r in map(np.ascontiguousarray, checked):
            if len(np.unique(r.view(np.dtype((np.void, r.itemsize * r.shape[1]))))) < len(r):
                raise ValidationError("duplicate permutation pair in Q-set")

    def __len__(self) -> int:
        return len(self.bob) * len(self.charlie) if self.product else len(self.bob)


def winning_probability_with_q(game: MonogamyGame, strategy: Strategy, q: QSet) -> float:
    """Winning probability when any displacement pair in the Q-set counts as
    a win.  A product takes only Q-sets of XOR shifts x -> x ⊕ k of binary
    outcome strings: pair (kb, kc) wins with prod_i T[kb_i, kc_i], T[b, c]
    being one block's value when Bob must name x ⊕ b and Charlie x ⊕ c, and
    kb_i, kc_i the shifts' bits of block i."""
    one, order, copies = _aligned(game, strategy)
    entries = strategy.bob.size + strategy.charlie.size
    itemsize = _itemsize(game, strategy)
    if strategy.rounds == 1:
        copies += (2 if q.product else 1) * entries  # smeared or gathered
        require_bytes(_win_terms_bytes(game, strategy.rho_abc.size, itemsize, copies),
                      "win_terms")
        bob, charlie = strategy.bob[order], strategy.charlie[order]
        terms = win_terms(game, bob, charlie, strategy.rho_abc, q)
        return float(sum(terms.tolist()) / len(terms))
    n, points = game.rounds, np.arange(2**game.rounds)
    if len(game.outcomes) != 2 or not all(np.array_equal(row, row[0] ^ points)
                                          for rows in (q.bob, q.charlie) for row in rows):
        raise DomainError(f"a product strategy takes only Q-sets of XOR shifts "
                          f"x -> x ⊕ k of {n}-bit binary outcome strings")
    # T[b, c] from one block's conditional states, with the outcomes of Bob's
    # and Charlie's stacks shifted by b and c
    require_bytes(_win_terms_bytes(one, strategy.rho_abc.size, itemsize, copies + entries),
                  "win_terms")
    bob, charlie = strategy.bob[order], strategy.charlie[order]
    states = conditional_stack(one, strategy.rho_abc)
    shift = np.arange(2**one.rounds)
    table = np.array([[win_terms_from_states(bob[:, shift ^ b], charlie[:, shift ^ c],
                                             states).mean()
                       for c in shift] for b in shift])
    # block i's bits of each shift, block 1 most significant
    blocks = one.rounds * np.arange(strategy.rounds - 1, -1, -1)
    kb, kc = ((rows[:, :1] >> blocks) & shift[-1] for rows in (q.bob, q.charlie))
    if not q.product:
        return float(table[kb, kc].prod(axis=1).sum())
    # T applied block by block to Charlie's shift indicator, read at Bob's shifts
    v = np.zeros((len(shift),) * strategy.rounds)
    v[tuple(kc.T)] = 1.0
    for i in range(strategy.rounds):
        v = np.moveaxis(np.tensordot(table, v, axes=(1, i)), 0, i)
    return float(v[tuple(kb.T)].sum())


def xor_permutation_family(n: int, alphabet_size_theta: int) -> np.ndarray:
    """All coordinatewise shifts of Theta^n: |Theta|^n mutually orthogonal
    permutations whose displacement has a point-independent Hamming weight.

    Row s maps outcome index x to the index of the digit-wise sum
    (x + s) mod |Theta|, strings lexicographic with round 1 most significant.
    The family partitions by shift weight t with multiplicity
    C(n, t) (|Theta|-1)^t.
    """
    n, q = whole(n), whole(alphabet_size_theta, "alphabet size", minimum=2)
    size = q**n
    # the family and one digit's shifted outer sum
    require_bytes(2 * 8 * size**2, f"xor_permutation_family(n={n})")
    out = np.zeros((size, size), dtype=np.intp)
    shifted = np.empty_like(out)
    for digit in np.indices((q,) * n).reshape(n, -1):
        np.add.outer(digit, digit, out=shifted)
        shifted %= q
        out *= q
        out += shifted
    return out


def _max_weight(n: int, gamma: float) -> int:
    return int(math.floor(gamma * n + 1e-9))


def _shift_count(n: int, gamma: float, name: str) -> int:
    """The number of n-bit shifts of Hamming weight at most gamma n, after
    checking gamma."""
    gamma = within(gamma, name, 0.0, 0.5)
    return sum(math.comb(n, w) for w in range(_max_weight(n, gamma) + 1))


def _shift_rows(n: int, gamma: float) -> np.ndarray:
    """The read-only rows x -> x ⊕ k over the n-bit outcome indices, one per
    shift k of Hamming weight at most gamma n, k ascending."""
    points = np.arange(2**n, dtype=np.intp)
    weights = sum((points >> b) & 1 for b in range(n))
    rows = points[weights <= _max_weight(n, gamma), None] ^ points
    rows.setflags(write=False)
    return rows


def hamming_q_set(n: int, gamma: float, gamma_prime: float) -> QSet:
    """XOR displacement pairs (x ⊕ k, x ⊕ k') with wt(k) <= gamma n and
    wt(k') <= gamma' n, on the length-n binary outcome alphabet: the product
    of Bob's and Charlie's shift rows."""
    n = whole(n)
    kb, kc = _shift_count(n, gamma, "gamma"), _shift_count(n, gamma_prime, "gamma_prime")
    # both parties' rows, and the sorted copy and result of np.unique over
    # the larger party's, which QSet checks one party at a time
    require_bytes(8 * 2**n * (kb + kc + 2 * max(kb, kc)), f"hamming_q_set(n={n})")
    qset = QSet(_shift_rows(n, gamma), _shift_rows(n, gamma_prime), product=True)
    cap = 2.0 ** (n * binary_entropy(gamma) + n * binary_entropy(gamma_prime))
    assert len(qset) <= cap * (1 + 1e-12)
    return qset


def same_string_q_set(n: int, gamma: float) -> QSet:
    """XOR displacement pairs with both parties shifted by the same k."""
    n = whole(n)
    k = _shift_count(n, gamma, "gamma")
    # the rows both parties share, and the copy, sorted copy and result of
    # np.unique over the pairs side by side, which QSet checks at once
    require_bytes(8 * 2**n * 7 * k, f"same_string_q_set(n={n})")
    rows = _shift_rows(n, gamma)
    qset = QSet(rows, rows)
    assert len(qset) <= 2.0 ** (n * binary_entropy(gamma)) * (1 + 1e-12)
    return qset


def product_strategy(strategy: Strategy, n: int) -> Strategy:
    """n-fold product of a strategy, systems regrouped to
    (A_1..A_n)(B_1..B_n)(C_1..C_n): its checked arrays, uncopied, played for
    n times as many rounds, as in :func:`game_power`.  It takes the Q-sets of
    :func:`hamming_q_set`, :func:`same_string_q_set` and
    ``xor_permutation_family(n, 2)``; see :func:`winning_probability_with_q`."""
    n = whole(n)
    return strategy if n == 1 else _with_rounds(strategy, strategy.rounds * n)
