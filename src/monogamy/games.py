"""Monogamy games, strategies, and exact winning-probability evaluation.

A game is one basis-stacked POVM array F[theta, x, a, a'] on Alice's system;
a strategy is a tripartite state with two such stacks, P[theta, x, b, b'] and
Q[theta, x, c, c'], for the two guessing parties.  These read-only arrays are
the only stored form and every evaluator reads them.  Everything here is
exact, desk-scale evaluation; closed-form bounds for large round counts live
in :mod:`monogamy.bounds`.

Basis and outcome labels are strings used only at the edges: constructors
accept label-keyed mappings, ``povms`` views map labels to rows, and a
strategy is matched to a game by basis label.  A game of n rounds keeps one
round's family; its n-round labels concatenate the per-round labels (joined
with "," when any base label has more than one character).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .bounds import binary_entropy
from .errors import (CapacityError, DimensionError, DomainError, ValidationError,
                     require_bytes)

POVM_COMPLETENESS_ATOL = 1e-8

# Byte costs the memory predictions charge, from tracemalloc peaks: a complex
# entry takes 16 B; a product strategy's basis label with its row view, under
# 690 B; one entry of a label dict, 80-85 B, or 90-93 B with its share of
# QSet's duplicate-pair keys.
_BASIS_LABEL_BYTES = 1024
_LABEL_ENTRY_BYTES = 128


def _validate_povm(elements: np.ndarray, label: str) -> None:
    """Check one (|X|, d, d) POVM stack in place: Hermitian PSD elements that
    sum to the identity."""
    ok = linalg.hermitian_psd(elements)
    if not ok.all():
        raise ValidationError(f"POVM '{label}' element {int(np.argmin(ok))} "
                              f"is not Hermitian PSD")
    total = elements.sum(axis=0)
    if np.max(np.abs(total - np.eye(elements.shape[-1]))) > POVM_COMPLETENESS_ATOL:
        raise ValidationError(f"POVM '{label}' does not sum to the identity")


def _povm_stack(povms, keys: Sequence[str], dim: int, who: str = "") -> np.ndarray:
    """A checked, read-only (|keys|, |X|, dim, dim) stack, rows in `keys`
    order, copied at most once.  A label-keyed mapping must cover exactly
    `keys`; its one copy is the stack itself."""
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
    if stack.ndim != 4 or stack.shape[0] != len(keys) or stack.shape[2:] != (dim, dim):
        raise DimensionError(f"{who}POVM stack has shape {stack.shape}, expected "
                             f"({len(keys)}, |X|, {dim}, {dim})")
    for key, block in zip(keys, stack):
        _validate_povm(block, f"{who}{key}")
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
        if self.dim_a < 1:
            raise DimensionError("dim_a must be positive")
        if int(self.rounds) != self.rounds or self.rounds < 1:
            raise DomainError("rounds must be a positive integer")
        object.__setattr__(self, "rounds", int(self.rounds))
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
        return _power_labels(self.thetas, self.rounds)

    def factors(self):
        """For each n-round basis, in `basis_labels` order, the
        (rounds, |X|, dim_a, dim_a) stack of its per-round POVMs."""
        for ts in itertools.product(range(len(self.thetas)), repeat=self.rounds):
            yield self.elements[list(ts)]

    def element(self, theta: str, outcome: str) -> np.ndarray:
        """F_x^theta of one round."""
        return self.elements[self.thetas.index(theta), self.outcomes.index(outcome)]

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
    cover the same bases.
    """

    rho_abc: np.ndarray
    dims: tuple[int, int, int]
    bob_povms: Mapping[str, Sequence[np.ndarray]] | np.ndarray
    charlie_povms: Mapping[str, Sequence[np.ndarray]] | np.ndarray
    thetas: tuple[str, ...] | None = None
    bob: np.ndarray = field(init=False, repr=False)
    charlie: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise DimensionError(f"dims must be three positive integers, got {self.dims}")
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
        return Strategy, (self.rho_abc, self.dims, self.bob, self.charlie, self.thetas)


def pure_strategy(state_vector, dims, bob_povms, charlie_povms) -> Strategy:
    """Strategy from a pure tripartite state vector."""
    v = np.asarray(state_vector, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValidationError("state vector must be nonzero")
    v = v / nrm
    return Strategy(np.outer(v, v.conj()), tuple(dims), bob_povms, charlie_povms)


def constant_guess_povms(thetas: Sequence[str], outcomes: Sequence[str],
                         guess: str, dim: int = 1) -> dict[str, tuple[np.ndarray, ...]]:
    """Basis-independent deterministic guesser: the full identity sits on `guess`."""
    if guess not in outcomes:
        raise ValidationError(f"guess '{guess}' not among outcomes {tuple(outcomes)}")
    eye = np.eye(dim, dtype=complex)
    zero = np.zeros((dim, dim), dtype=complex)
    elems = tuple(eye if x == guess else zero for x in outcomes)
    return {str(t): elems for t in thetas}


def maximally_entangled_density(d: int) -> np.ndarray:
    """|Phi><Phi| with |Phi> = sum_i |ii>/sqrt(d) on a d x d bipartite space.

    Entries are written as 1/d directly, so powers of two stay exact.
    """
    if d < 1:
        raise DimensionError("d must be positive")
    rho = np.zeros((d * d, d * d), dtype=complex)
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


def _power_labels(labels: Sequence[str], n: int) -> tuple[str, ...]:
    sep = "" if all(len(l) == 1 for l in labels) else ","
    return tuple(sep.join(ls) for ls in itertools.product(labels, repeat=n))


def power_elements(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Every n-fold tensor product of per-round element stacks.

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


def _power_stack(family: np.ndarray, n: int) -> np.ndarray:
    """n-fold repetition of a (|Theta|, |X|, d, d) family as one read-only
    stack.  Basis strings run lexicographically, round 1 most significant,
    and each row is the :func:`power_elements` block of its rounds, written
    into the preallocated stack."""
    k, m, d, _ = family.shape
    out = np.empty((k**n, m**n, d**n, d**n), dtype=complex)
    for i, ts in enumerate(itertools.product(range(k), repeat=n)):
        out[i] = power_elements([family[t] for t in ts])
    out.setflags(write=False)
    return out


def _power_stack_bytes(shape: Sequence[int], n: int) -> int:
    """Peak bytes of :func:`_power_stack` and the validation of its result:
    the stack, three basis blocks of temporaries (measured: 1.5-1.65), and
    the basis labels."""
    k, m, d = (int(x) for x in shape[:3])
    block = 16 * (m * d * d)**n
    return k**n * (block + _BASIS_LABEL_BYTES) + 3 * block


def game_power(game: MonogamyGame, n: int) -> MonogamyGame:
    """n-fold parallel repetition: the same checked single-round family,
    played for n times as many rounds.  Nothing is copied or checked again,
    since tensor products of POVMs are POVMs."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    if n == 1:
        return game
    power = object.__new__(MonogamyGame)
    power.__dict__.update(vars(game), rounds=game.rounds * n)
    return power


def overlap(game: MonogamyGame) -> float:
    """Maximal measurement overlap across distinct bases.

    max over theta != theta' and outcomes x, x' of
    ||sqrt(F_x^theta) sqrt(F_x'^theta')||^2; always within [1/|X|, 1].

    Over n rounds the basis pair ranges over strings that differ in every
    round, which keeps the overlap multiplicative: the n-round overlap is the
    single-round one to the n-th power.
    """
    if len(game.thetas) < 2:
        raise DomainError("overlap requires at least two bases")
    best = max(linalg.overlap_of_pair(a, b)
               for fa, fb in itertools.combinations(game.elements, 2) for a in fa for b in fb)
    assert 1.0 / len(game.outcomes) - 1e-9 <= best <= 1.0 + 1e-9
    return best**game.rounds


def _aligned(game: MonogamyGame, strategy: Strategy) -> tuple[np.ndarray, np.ndarray]:
    """The strategy's Bob and Charlie stacks with rows in `game.basis_labels`
    order, reindexed by label only when the two basis orders differ."""
    if strategy.dims[0] != game.alice_dim:
        raise DimensionError(f"strategy Alice dimension {strategy.dims[0]} != "
                             f"game dimension {game.alice_dim}")
    if {strategy.bob.shape[1], strategy.charlie.shape[1]} != {len(game.outcomes)**game.rounds}:
        raise ValidationError("strategy POVMs have the wrong outcome count")
    labels = game.basis_labels
    if strategy.thetas == labels:
        return strategy.bob, strategy.charlie
    missing = set(labels) - set(strategy.thetas)
    if missing:
        raise ValidationError(f"strategy POVMs missing bases {sorted(missing)}")
    idx = [strategy.thetas.index(t) for t in labels]
    return strategy.bob[idx], strategy.charlie[idx]


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
    m, rem = divmod(rho.shape[0], pre)
    if rem:
        raise DimensionError(f"state dimension {rho.shape[0]} is not a multiple "
                             f"of {pre}")
    out = rho
    for f in reversed(factors):
        d = f.shape[-1]
        pre //= d
        # out[k, (p, a', i), (q, a, j)] -> rows (a, a'), columns (k, p, i, q, j)
        r = out.reshape(-1, pre, d, m, pre, d, m).transpose(5, 2, 0, 1, 3, 4, 6)
        out = (f.reshape(len(f), -1) @ r.reshape(d * d, -1)).reshape(-1, pre * m, pre * m)
    return out


def win_terms(game: MonogamyGame, bob: np.ndarray, charlie: np.ndarray, rho: np.ndarray,
              q: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """tr(Pi^theta rho) for every n-round basis, in `game.basis_labels` order.

    `bob` and `charlie` are (|Theta|, |X|, d, d) stacks over the n-round bases
    and outcomes.  Contracts rho one basis at a time, without building
    Pi^theta.  `q` is a pair of index arrays of shape (|Q|, |X|): row k gives,
    for each outcome of Alice, the outcome Bob and Charlie must name under the
    k-th allowed displacement pair.  None is the plain game.
    """
    db, dc = bob.shape[-1], charlie.shape[-1]
    if rho.shape[0] != game.alice_dim * db * dc:
        raise DimensionError(f"state dimension {rho.shape[0]} != "
                             f"{game.alice_dim} x {db} x {dc}")
    if q is None:
        q = (np.arange(len(game.outcomes)**game.rounds)[None],) * 2
    bob_idx, charlie_idx = q
    out = np.empty(len(game.thetas)**game.rounds)
    for i, factors in enumerate(game.factors()):
        sigma = conditional_states(factors, rho).reshape(-1, db, dc, db, dc)
        # sum_k sum_x tr((P_k(x) ⊗ Q_k(x)) sigma_x)
        out[i] = np.einsum("kxbq,kxcr,xqrbc->", bob[i][bob_idx], charlie[i][charlie_idx],
                           sigma).real
    return out


def win_operator(game: MonogamyGame, bob: np.ndarray, charlie: np.ndarray,
                 theta: str) -> np.ndarray:
    """The winning operator for one n-round basis: sum_x F_x ⊗ P_x ⊗ Q_x,
    with the stacks' rows following `game.basis_labels`.  Starts from the
    last round's F ⊗ P ⊗ Q and adds Alice's rounds from last to first."""
    i = game.basis_labels.index(theta)
    f = game.elements[list(np.unravel_index(i, (len(game.thetas),) * game.rounds))]
    k = len(game.outcomes)
    db, dc = bob.shape[-1], charlie.shape[-1]
    m = game.dim_a * db * dc
    op = np.einsum("xap,kxbq,kxcr->kabcpqr", f[-1], bob[i].reshape(-1, k, db, db),
                   charlie[i].reshape(-1, k, dc, dc))
    for e in f[-2::-1]:
        op = np.einsum("xap,kxbq->kabpq", e, op.reshape(-1, k, m, m))
        m *= game.dim_a
    return op.reshape(m, m)


def per_theta_win_terms(game: MonogamyGame, strategy: Strategy) -> dict[str, float]:
    """tr(Pi^theta rho) for every basis; the winning probability is their mean."""
    terms = win_terms(game, *_aligned(game, strategy), strategy.rho_abc)
    return dict(zip(game.basis_labels, terms.tolist()))


def winning_probability(game: MonogamyGame, strategy: Strategy) -> float:
    """Probability that both parties guess Alice's outcome, basis uniform."""
    terms = per_theta_win_terms(game, strategy)
    return float(sum(terms.values()) / len(terms))


@dataclass(frozen=True)
class QSet:
    """Allowed displacement pairs for the imperfect-guessing win condition.

    Each pair is (bob_map, charlie_map): bijections outcome -> outcome.  For
    the binary XOR families `shift_pairs` records the originating bit-string
    shifts (k, k').
    """

    outcomes: tuple[str, ...]
    pairs: tuple[tuple[dict, dict], ...]
    shift_pairs: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(str(x) for x in self.outcomes))
        seen = set()
        for pb, pc in self.pairs:
            for perm in (pb, pc):
                if set(perm.keys()) != set(self.outcomes) or \
                        set(perm.values()) != set(self.outcomes):
                    raise ValidationError("Q-set entries must be bijections on the "
                                          "outcome set")
            # each map as its images in `outcomes` order
            key = tuple(tuple(perm[x] for x in self.outcomes) for perm in (pb, pc))
            if key in seen:
                raise ValidationError("duplicate permutation pair in Q-set")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.pairs)


def identity_q_set(outcomes: Sequence[str]) -> QSet:
    ident = {str(x): str(x) for x in outcomes}
    return QSet(tuple(outcomes), ((dict(ident), dict(ident)),))


def winning_probability_with_q(game: MonogamyGame, strategy: Strategy, q: QSet) -> float:
    """Winning probability when any displacement pair in the Q-set counts as a win."""
    bob, charlie = _aligned(game, strategy)
    outcomes = _power_labels(game.outcomes, game.rounds)
    if tuple(q.outcomes) != outcomes:
        raise ValidationError("Q-set outcome alphabet does not match the game")
    idx = {x: i for i, x in enumerate(outcomes)}
    bob_idx = np.array([[idx[pb[x]] for x in outcomes] for pb, _ in q.pairs])
    charlie_idx = np.array([[idx[pc[x]] for x in outcomes] for _, pc in q.pairs])
    terms = win_terms(game, bob, charlie, strategy.rho_abc, (bob_idx, charlie_idx))
    return float(sum(terms.tolist()) / len(terms))


def xor_permutation_family(n: int, alphabet_size_theta: int) -> list[dict]:
    """All coordinatewise shifts of Theta^n: |Theta|^n mutually orthogonal
    permutations whose displacement has a point-independent Hamming weight.

    The family partitions by shift weight t with multiplicity
    C(n, t) (|Theta|-1)^t.
    """
    q = int(alphabet_size_theta)
    if n < 1:
        raise DomainError("n must be positive")
    if q < 2:
        raise DomainError("alphabet size must be at least 2")
    if q > 10:
        raise CapacityError("digit labels support alphabet sizes up to 10")
    # q^n permutations, each a dict over the q^n points
    require_bytes(q**(2 * n) * _LABEL_ENTRY_BYTES, f"xor_permutation_family(n={n})")
    points = ["".join(p) for p in itertools.product("0123456789"[:q], repeat=n)]
    return [{label: "".join(str((int(c) + s) % q) for c, s in zip(label, shift))
             for label in points}
            for shift in itertools.product(range(q), repeat=n)]


def bit_strings(n: int) -> list[str]:
    return ["".join(b) for b in itertools.product("01", repeat=n)]


def _xor_label(x: str, k: str) -> str:
    return "".join("1" if a != b else "0" for a, b in zip(x, k))


def _max_weight(bound: float) -> int:
    return int(math.floor(bound + 1e-9))


def _weight_at_most(n: int, bound: float) -> list[str]:
    w_max = _max_weight(bound)
    return [k for k in bit_strings(n) if k.count("1") <= w_max]


def _count_weight_at_most(n: int, bound: float) -> int:
    return sum(math.comb(n, w) for w in range(min(_max_weight(bound), n) + 1))


def _require_xor_q_set(n: int, pairs: int, what: str) -> None:
    """Charge a Q-set of `pairs` pairs on n bits: two label dicts over the
    2^n outcomes per pair."""
    require_bytes(2 * pairs * 2**n * _LABEL_ENTRY_BYTES, what)


def _xor_q_set(n: int, shifts: Sequence[tuple[str, str]]) -> QSet:
    """The pairs (x ⊕ k, x ⊕ k') for the given shifts (k, k')."""
    outcomes = bit_strings(n)
    pairs = tuple(tuple({x: _xor_label(x, s) for x in outcomes} for s in ks)
                  for ks in shifts)
    return QSet(tuple(outcomes), pairs, tuple(shifts))


def hamming_q_set(n: int, gamma: float, gamma_prime: float) -> QSet:
    """XOR displacement pairs (x ⊕ k, x ⊕ k') with wt(k) <= gamma n and
    wt(k') <= gamma' n, on the length-n binary outcome alphabet."""
    for name, g in (("gamma", gamma), ("gamma_prime", gamma_prime)):
        if not 0.0 <= g <= 0.5:
            raise DomainError(f"{name} must lie in [0, 1/2], got {g}")
    if n < 1:
        raise DomainError("n must be positive")
    _require_xor_q_set(n, _count_weight_at_most(n, gamma * n)
                       * _count_weight_at_most(n, gamma_prime * n), f"hamming_q_set(n={n})")
    qset = _xor_q_set(n, [(k, kp) for k in _weight_at_most(n, gamma * n)
                          for kp in _weight_at_most(n, gamma_prime * n)])
    cap = 2.0 ** (n * binary_entropy(gamma) + n * binary_entropy(gamma_prime))
    assert len(qset) <= cap * (1 + 1e-12)
    return qset


def same_string_q_set(n: int, gamma: float) -> QSet:
    """XOR displacement pairs with both parties shifted by the same k."""
    if not 0.0 <= gamma <= 0.5:
        raise DomainError(f"gamma must lie in [0, 1/2], got {gamma}")
    if n < 1:
        raise DomainError("n must be positive")
    _require_xor_q_set(n, _count_weight_at_most(n, gamma * n), f"same_string_q_set(n={n})")
    qset = _xor_q_set(n, [(k, k) for k in _weight_at_most(n, gamma * n)])
    assert len(qset) <= 2.0 ** (n * binary_entropy(gamma)) * (1 + 1e-12)
    return qset


def product_strategy(strategy: Strategy, n: int) -> Strategy:
    """n-fold product of a single-round strategy, systems regrouped to
    (A_1..A_n)(B_1..B_n)(C_1..C_n) order.  Basis strings run over the
    single-round strategy's basis order, as in :func:`game_power`."""
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        return strategy
    dims = strategy.dims * n  # interleaved: A1 B1 C1 A2 B2 C2 ...
    d = math.prod(dims)
    # the product and its regrouped copy, then Strategy's PSD check of the
    # kept state (measured: 2.5 state-sized arrays at once, the state included)
    require_bytes(16 * 3 * d * d + _power_stack_bytes(strategy.bob.shape, n)
                  + _power_stack_bytes(strategy.charlie.shape, n), f"product_strategy(n={n})")
    order = [3 * i + party for party in range(3) for i in range(n)]
    axes, grouped = order + [3 * n + i for i in order], [dims[i] for i in order]
    interleaved = power_elements([strategy.rho_abc[None]] * n)[0].reshape(dims + dims)
    # written once into an array that owns its data, which Strategy keeps
    rho = np.empty((d, d), dtype=complex)
    rho.reshape(grouped + grouped)[...] = interleaved.transpose(axes)
    del interleaved
    rho.setflags(write=False)
    da, db, dc = strategy.dims
    return Strategy(rho, (da**n, db**n, dc**n), _power_stack(strategy.bob, n),
                    _power_stack(strategy.charlie, n), _power_labels(strategy.thetas, n))
