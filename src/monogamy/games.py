"""Monogamy games, strategies, and exact winning-probability evaluation.

A game is a basis-indexed family of POVMs on Alice's system; a strategy is a
tripartite state together with per-basis POVMs for the two guessing parties.
Everything here is exact, desk-scale evaluation; closed-form bounds for large
round counts live in :mod:`monogamy.bounds`.

Labels for bases and outcomes are strings.  Tensor-power labels are the
concatenations of the single-round labels (joined with "," when any base
label has more than one character, so round-trips stay unambiguous).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .bounds import binary_entropy
from .errors import CapacityError, DimensionError, DomainError, ValidationError

POVM_COMPLETENESS_ATOL = 1e-8

# exact evaluation guard: |Theta|^n * |X|^n terms at most
POWER_TERM_GUARD = 10**6


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _validate_povm(elements: Sequence[np.ndarray], dim: int, label: str) -> tuple[np.ndarray, ...]:
    elems = []
    for i, e in enumerate(elements):
        e = linalg.require_square(e)
        if e.shape[0] != dim:
            raise DimensionError(f"POVM '{label}' element {i} has dimension "
                                 f"{e.shape[0]}, expected {dim}")
        if not linalg.is_psd(e):
            raise ValidationError(f"POVM '{label}' element {i} is not Hermitian PSD")
        elems.append(_frozen(e))
    total = sum(elems)
    if np.max(np.abs(total - np.eye(dim))) > POVM_COMPLETENESS_ATOL:
        raise ValidationError(f"POVM '{label}' does not sum to the identity")
    return tuple(elems)


@dataclass(frozen=True)
class MonogamyGame:
    """Basis-indexed POVM family {F_x^theta} on a dim_a-dimensional system.

    Games built by :func:`game_power` carry the per-round decomposition of
    each basis label in `theta_parts`; single-round games leave it None.
    """

    dim_a: int
    thetas: tuple[str, ...]
    outcomes: tuple[str, ...]
    povms: Mapping[str, tuple[np.ndarray, ...]]
    theta_parts: Mapping[str, tuple[str, ...]] | None = None

    def __post_init__(self):
        if self.dim_a < 1:
            raise DimensionError("dim_a must be positive")
        object.__setattr__(self, "thetas", tuple(str(t) for t in self.thetas))
        object.__setattr__(self, "outcomes", tuple(str(x) for x in self.outcomes))
        if len(set(self.thetas)) != len(self.thetas) or not self.thetas:
            raise ValidationError("basis labels must be non-empty and distinct")
        if len(set(self.outcomes)) != len(self.outcomes) or not self.outcomes:
            raise ValidationError("outcome labels must be non-empty and distinct")
        povms = {}
        for theta in self.thetas:
            if theta not in self.povms:
                raise ValidationError(f"missing POVM for basis '{theta}'")
            elems = self.povms[theta]
            if len(elems) != len(self.outcomes):
                raise ValidationError(f"POVM for basis '{theta}' has {len(elems)} "
                                      f"elements, expected {len(self.outcomes)}")
            povms[theta] = _validate_povm(elems, self.dim_a, theta)
        object.__setattr__(self, "povms", povms)
        if self.theta_parts is not None:
            parts = {str(t): tuple(str(p) for p in ps)
                     for t, ps in self.theta_parts.items()}
            if set(parts.keys()) != set(self.thetas):
                raise ValidationError("theta_parts must cover exactly the basis labels")
            lengths = {len(ps) for ps in parts.values()}
            if len(lengths) != 1:
                raise ValidationError("theta_parts entries must share one round count")
            object.__setattr__(self, "theta_parts", parts)

    def element(self, theta: str, outcome: str) -> np.ndarray:
        return self.povms[theta][self.outcomes.index(outcome)]


@dataclass(frozen=True)
class Strategy:
    """Tripartite state plus per-basis guessing POVMs for both parties."""

    rho_abc: np.ndarray
    dims: tuple[int, int, int]
    bob_povms: Mapping[str, tuple[np.ndarray, ...]]
    charlie_povms: Mapping[str, tuple[np.ndarray, ...]]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise DimensionError(f"dims must be three positive integers, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        rho = linalg.require_density(self.rho_abc, "rho_abc")
        if rho.shape[0] != dims[0] * dims[1] * dims[2]:
            raise DimensionError(f"state dimension {rho.shape[0]} != product of {dims}")
        object.__setattr__(self, "rho_abc", _frozen(rho))
        for name, povms, dim in (("bob", self.bob_povms, dims[1]),
                                 ("charlie", self.charlie_povms, dims[2])):
            checked = {}
            counts = {len(v) for v in povms.values()}
            if len(counts) > 1:
                raise ValidationError(f"{name} POVMs have inconsistent outcome counts")
            for theta, elems in povms.items():
                checked[str(theta)] = _validate_povm(elems, dim, f"{name}:{theta}")
            object.__setattr__(self, f"{name}_povms", checked)


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
    for i in range(d):
        for j in range(d):
            rho[i * d + i, j * d + j] = 1.0 / d
    return rho


def bb84_game() -> MonogamyGame:
    """Qubit game with the rectilinear and Hadamard bases.

    All projector entries are 0, 1 or +-1/2, so the elements are exact in
    floating point.
    """
    povms = {
        "0": (np.array([[1, 0], [0, 0]], dtype=complex),
              np.array([[0, 0], [0, 1]], dtype=complex)),
        "1": (np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
              np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)),
    }
    return MonogamyGame(dim_a=2, thetas=("0", "1"), outcomes=("0", "1"), povms=povms)


def _join_labels(labels: Sequence[str]) -> str:
    sep = "" if all(len(l) == 1 for l in labels) else ","
    return sep.join(labels)


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


def _repeated(povms: Mapping[str, tuple[np.ndarray, ...]], thetas: Sequence[str],
              n: int) -> dict[str, tuple[np.ndarray, ...]]:
    """n-fold repetition of a basis-indexed POVM family, keyed by joined labels."""
    stacks = {t: np.stack(povms[t]) for t in thetas}
    return {_join_labels(ts): tuple(power_elements([stacks[t] for t in ts]))
            for ts in itertools.product(thetas, repeat=n)}


def game_power(game: MonogamyGame, n: int) -> MonogamyGame:
    """n-fold parallel repetition: POVMs are n-fold tensor products."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    if n == 1:
        return game
    terms = (len(game.thetas) * len(game.outcomes)) ** n
    if terms > POWER_TERM_GUARD:
        raise CapacityError(f"{terms} POVM entries exceed the exact-evaluation "
                            f"guard of {POWER_TERM_GUARD}")
    outcomes = [_join_labels(xs) for xs in itertools.product(game.outcomes, repeat=n)]
    base_parts = game.theta_parts or {t: (t,) for t in game.thetas}
    parts = {_join_labels(ts): sum((base_parts[t] for t in ts), ())
             for ts in itertools.product(game.thetas, repeat=n)}
    povms = _repeated(game.povms, game.thetas, n)
    return MonogamyGame(dim_a=game.dim_a**n, thetas=tuple(povms),
                        outcomes=tuple(outcomes), povms=povms, theta_parts=parts)


def overlap(game: MonogamyGame) -> float:
    """Maximal measurement overlap across distinct bases.

    max over theta != theta' and outcomes x, x' of
    ||sqrt(F_x^theta) sqrt(F_x'^theta')||^2; always within [1/|X|, 1].

    For round-structured games built by :func:`game_power` the basis pair
    ranges over strings that differ in every round, which keeps the overlap
    multiplicative: overlap(G^n) = overlap(G)^n.
    """
    if len(game.thetas) < 2:
        raise DomainError("overlap requires at least two bases")
    roots = {(t, i): linalg.psd_sqrt(e)
             for t in game.thetas for i, e in enumerate(game.povms[t])}
    parts = game.theta_parts
    best = 0.0
    for ta, tb in itertools.permutations(game.thetas, 2):
        if parts is not None and any(a == b for a, b in zip(parts[ta], parts[tb])):
            continue
        for i in range(len(game.outcomes)):
            for j in range(len(game.outcomes)):
                m = roots[(ta, i)] @ roots[(tb, j)]
                gram = m.conj().T @ m
                val = float(max(np.linalg.eigh(linalg.hermitianize(gram))[0][-1], 0.0))
                best = max(best, val)
    assert 1.0 / len(game.outcomes) - 1e-9 <= best <= 1.0 + 1e-9
    return best


def _check_compatible(game: MonogamyGame, strategy: Strategy) -> None:
    if strategy.dims[0] != game.dim_a:
        raise DimensionError(f"strategy Alice dimension {strategy.dims[0]} != "
                             f"game dimension {game.dim_a}")
    for name, povms in (("bob", strategy.bob_povms), ("charlie", strategy.charlie_povms)):
        for theta in game.thetas:
            if theta not in povms:
                raise ValidationError(f"{name} POVMs missing basis '{theta}'")
            if len(povms[theta]) != len(game.outcomes):
                raise ValidationError(f"{name} POVM for basis '{theta}' has wrong "
                                      f"outcome count")


def _party_dim(povms) -> int:
    return next(iter(povms.values()))[0].shape[0]


def conditional_states(elements: np.ndarray, rho: np.ndarray, dim_a: int) -> np.ndarray:
    """tr_A[(E_x ⊗ 1) rho] for each E_x of a stack E[x, a, a'] on the first factor.

    These are the unnormalized states the rest of the system is left in,
    returned as an (|X|, m, m) stack with m = dim(rho) / dim_a.
    """
    m, rem = divmod(rho.shape[0], dim_a)
    if rem:
        raise DimensionError(f"state dimension {rho.shape[0]} is not a multiple "
                             f"of {dim_a}")
    # rho[(a', i), (a, j)] -> rows (a, a'), columns (i, j)
    r = rho.reshape(dim_a, m, dim_a, m).transpose(2, 0, 1, 3).reshape(dim_a * dim_a, m * m)
    return (elements.reshape(len(elements), -1) @ r).reshape(-1, m, m)


def win_terms(game: MonogamyGame, bob_povms, charlie_povms, rho: np.ndarray,
              q: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """tr(Pi^theta rho) for every basis, in `game.thetas` order.

    Contracts rho, as an (a, b, c, a', b', c') tensor, one basis at a time,
    without building Pi^theta.  `q` is a pair of index arrays of shape
    (|Q|, |X|): row k gives, for each outcome of Alice, the outcome Bob and
    Charlie must name under the k-th allowed displacement pair.  None is the
    plain game, whose only pair is the identity.
    """
    db, dc = _party_dim(bob_povms), _party_dim(charlie_povms)
    if rho.shape[0] != game.dim_a * db * dc:
        raise DimensionError(f"state dimension {rho.shape[0]} != "
                             f"{game.dim_a} x {db} x {dc}")
    if q is None:
        q = (np.arange(len(game.outcomes))[None],) * 2
    bob_idx, charlie_idx = q
    out = np.empty(len(game.thetas))
    for i, theta in enumerate(game.thetas):
        sigma = conditional_states(np.stack(game.povms[theta]), rho, game.dim_a)
        sigma = sigma.reshape(-1, db, dc, db, dc)
        p = np.stack(bob_povms[theta])[bob_idx]
        c = np.stack(charlie_povms[theta])[charlie_idx]
        # sum_k sum_x tr((P_k(x) ⊗ Q_k(x)) sigma_x)
        out[i] = np.einsum("kxbq,kxcr,xqrbc->", p, c, sigma).real
    return out


def win_operator(game: MonogamyGame, bob_povms, charlie_povms, theta: str) -> np.ndarray:
    """The winning operator for one basis: sum_x F_x ⊗ P_x ⊗ Q_x."""
    f, p, c = (np.stack(povms[theta]) for povms in (game.povms, bob_povms, charlie_povms))
    d = f.shape[1] * p.shape[1] * c.shape[1]
    return np.einsum("xap,xbq,xcr->abcpqr", f, p, c).reshape(d, d)


def per_theta_win_terms(game: MonogamyGame, strategy: Strategy) -> dict[str, float]:
    """tr(Pi^theta rho) for every basis; the winning probability is their mean."""
    _check_compatible(game, strategy)
    terms = win_terms(game, strategy.bob_povms, strategy.charlie_povms, strategy.rho_abc)
    return dict(zip(game.thetas, terms.tolist()))


def winning_probability(game: MonogamyGame, strategy: Strategy) -> float:
    """Probability that both parties guess Alice's outcome, basis uniform."""
    terms = per_theta_win_terms(game, strategy)
    return float(sum(terms.values()) / len(game.thetas))


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
            key = (tuple(sorted(pb.items())), tuple(sorted(pc.items())))
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
    _check_compatible(game, strategy)
    if tuple(q.outcomes) != tuple(game.outcomes):
        raise ValidationError("Q-set outcome alphabet does not match the game")
    idx = {x: i for i, x in enumerate(game.outcomes)}
    bob_idx = np.array([[idx[pb[x]] for x in game.outcomes] for pb, _ in q.pairs])
    charlie_idx = np.array([[idx[pc[x]] for x in game.outcomes] for _, pc in q.pairs])
    terms = win_terms(game, strategy.bob_povms, strategy.charlie_povms,
                      strategy.rho_abc, (bob_idx, charlie_idx))
    return float(sum(terms.tolist()) / len(game.thetas))


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
    if q**n > POWER_TERM_GUARD:
        raise CapacityError(f"{q**n} permutations exceed the capacity guard")
    points = ["".join(p) for p in itertools.product(*(["".join(str(d) for d in range(q))] * n))]
    family = []
    for shift in itertools.product(range(q), repeat=n):
        perm = {}
        for label in points:
            perm[label] = "".join(str((int(c) + s) % q) for c, s in zip(label, shift))
        family.append(perm)
    return family


def bit_strings(n: int) -> list[str]:
    return ["".join(b) for b in itertools.product("01", repeat=n)]


def _xor_label(x: str, k: str) -> str:
    return "".join("1" if a != b else "0" for a, b in zip(x, k))


def _weight_at_most(n: int, bound: float) -> list[str]:
    w_max = int(math.floor(bound + 1e-9))
    return [k for k in bit_strings(n) if k.count("1") <= w_max]


def hamming_q_set(n: int, gamma: float, gamma_prime: float) -> QSet:
    """XOR displacement pairs (x ⊕ k, x ⊕ k') with wt(k) <= gamma n and
    wt(k') <= gamma' n, on the length-n binary outcome alphabet."""
    for name, g in (("gamma", gamma), ("gamma_prime", gamma_prime)):
        if not 0.0 <= g <= 0.5:
            raise DomainError(f"{name} must lie in [0, 1/2], got {g}")
    if n < 1:
        raise DomainError("n must be positive")
    outcomes = bit_strings(n)
    if (len(outcomes)) ** 2 > POWER_TERM_GUARD:
        raise CapacityError("outcome alphabet exceeds the capacity guard")
    ks = _weight_at_most(n, gamma * n)
    kps = _weight_at_most(n, gamma_prime * n)
    pairs = []
    shifts = []
    for k in ks:
        pb = {x: _xor_label(x, k) for x in outcomes}
        for kp in kps:
            pc = {x: _xor_label(x, kp) for x in outcomes}
            pairs.append((dict(pb), pc))
            shifts.append((k, kp))
    qset = QSet(tuple(outcomes), tuple(pairs), tuple(shifts))
    cap = 2.0 ** (n * binary_entropy(gamma) + n * binary_entropy(gamma_prime))
    assert len(qset) <= cap * (1 + 1e-12)
    return qset


def same_string_q_set(n: int, gamma: float) -> QSet:
    """XOR displacement pairs with both parties shifted by the same k."""
    if not 0.0 <= gamma <= 0.5:
        raise DomainError(f"gamma must lie in [0, 1/2], got {gamma}")
    if n < 1:
        raise DomainError("n must be positive")
    outcomes = bit_strings(n)
    pairs = []
    shifts = []
    for k in _weight_at_most(n, gamma * n):
        perm = {x: _xor_label(x, k) for x in outcomes}
        pairs.append((dict(perm), dict(perm)))
        shifts.append((k, k))
    qset = QSet(tuple(outcomes), tuple(pairs), tuple(shifts))
    assert len(qset) <= 2.0 ** (n * binary_entropy(gamma)) * (1 + 1e-12)
    return qset


def product_strategy(strategy: Strategy, n: int) -> Strategy:
    """n-fold product of a single-round strategy, systems regrouped to
    (A_1..A_n)(B_1..B_n)(C_1..C_n) order."""
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        return strategy
    da, db, dc = strategy.dims
    big = power_elements([strategy.rho_abc[None]] * n)[0]
    # interleaved factor list (A1 B1 C1 A2 B2 C2 ...) -> grouped by party
    dims = [da, db, dc] * n
    order = [3 * i for i in range(n)] + [3 * i + 1 for i in range(n)] + \
            [3 * i + 2 for i in range(n)]
    big = linalg.reorder_systems(big, dims, order)
    return Strategy(big, (da**n, db**n, dc**n),
                    _repeated(strategy.bob_povms, sorted(strategy.bob_povms), n),
                    _repeated(strategy.charlie_povms, sorted(strategy.charlie_povms), n))
