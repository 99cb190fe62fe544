"""Alternating-optimization search for high-value game strategies.

Each block step is either exact (state step: top eigenvector of the averaged
winning operator; binary-outcome measurement step: Helstrom projector; for
guessers without quantum memory, one joint step of both to their best reply)
or a feasibility-preserving pretty-good-measurement step for larger alphabets,
guarded so the trajectory never decreases.  Every value the search reports is
the exactly evaluated winning probability of a valid strategy, hence a true
lower bound on the optimal game value.  Matching upper bounds come from
:mod:`monogamy.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError, ValidationError, require_bytes
from .games import (MonogamyGame, Strategy, conditional_states, constant_guess_povms,
                    win_operator, win_terms, winning_probability)
from .rand import random_projective_povm, rng_for
from .uncertainty import helstrom_binary_povm, pgm_povm


@dataclass(frozen=True)
class SeesawConfig:
    max_iters: int = 200
    tol: float = 1e-9
    seed: int = 0
    bob_dim: int = 1
    charlie_dim: int = 1
    restarts: int = 20

    def __post_init__(self):
        if self.tol <= 0:
            raise DomainError("tol must be positive")
        if self.bob_dim < 1 or self.charlie_dim < 1:
            raise DimensionError("party dimensions must be at least 1")
        if self.max_iters < 1 or self.restarts < 1:
            raise DomainError("max_iters and restarts must be at least 1")


@dataclass(frozen=True)
class SeesawResult:
    strategy: Strategy
    value: float
    iterations: int
    trajectory: tuple[float, ...]
    restart: int
    seed: int

    def to_dict(self) -> dict:
        return {"value": self.value, "iterations": self.iterations,
                "trajectory": list(self.trajectory), "restart": self.restart,
                "seed": self.seed}


def optimal_state_step(game: MonogamyGame, bob: np.ndarray, charlie: np.ndarray):
    """Best state for fixed measurements: top eigenvector of the averaged
    winning operator.  `bob` and `charlie` are (|Theta|, |X|, d, d) stacks
    whose rows follow `game.basis_labels`.

    Returns (rank-1 density matrix, top eigenvalue); the eigenvalue equals the
    winning probability of the returned state.  Degenerate top eigenvalues are
    broken deterministically: first column of the eigensolver output sorted by
    descending eigenvalue.  LAPACK can fail to converge on a highly
    degenerate spectrum; the solver then retries once on the upper triangle,
    which holds the same data since the operator is hermitianized.
    """
    d = game.alice_dim * bob.shape[-1] * charlie.shape[-1]
    op = np.zeros((d, d), dtype=complex)
    n_bases = len(game.thetas)**game.rounds
    for i in range(n_bases):
        op += win_operator(game, bob, charlie, i)
    op /= n_bases
    op = linalg.hermitianize(op)
    try:
        evals, vecs = np.linalg.eigh(op)
    except np.linalg.LinAlgError:
        evals, vecs = np.linalg.eigh(op, UPLO="U")
    top = vecs[:, ::-1][:, 0]
    rho = np.outer(top, top.conj())
    return rho, float(evals[-1])


def _conditional_operators(game: MonogamyGame, rho: np.ndarray, fixed: np.ndarray,
                           party: str) -> np.ndarray:
    """Per-basis, per-outcome operators on the optimized party's space:
    partial traces of (F_x ⊗ 1 ⊗ fixed_x) rho over the other two systems, as
    a (|Theta|, |X|, d, d) stack.  They are Hermitian up to rounding; the
    measurement updates take their Hermitian parts."""
    d_fixed = fixed.shape[-1]
    d_opt, rem = divmod(rho.shape[0], game.alice_dim * d_fixed)
    if rem or d_opt < 1:
        raise DimensionError("state dimension incompatible with game and fixed POVMs")
    spec, dims = (("xcr,xbrsc->xbs", (d_opt, d_fixed)) if party == "B"
                  else ("xbq,xqcbs->xcs", (d_fixed, d_opt)))
    out = np.empty(fixed.shape[:2] + (d_opt, d_opt), dtype=complex)
    for i, factors in enumerate(game.factors()):
        sigma = conditional_states(factors, rho).reshape(-1, *dims, *dims)
        out[i] = np.einsum(spec, fixed[i], sigma)
    return out


def _joint_guess(game: MonogamyGame, rho: np.ndarray) -> np.ndarray:
    """The best reply of two guessers without quantum memory, who win a round
    only together: both name Alice's likeliest outcome in every basis, ties
    going to the lowest outcome."""
    probs = np.array([conditional_states(f, rho).real.reshape(-1) for f in game.factors()])
    guess = np.zeros(probs.shape + (1, 1), dtype=complex)
    guess[np.arange(len(probs)), probs.argmax(axis=1)] = 1.0
    return guess


def optimal_povm_step(game: MonogamyGame, rho, fixed: np.ndarray, party: str) -> np.ndarray:
    """Re-optimize one party's per-basis POVMs with the state and the other
    party's (|Theta|, |X|, d, d) stack `fixed` held; returns the new stack,
    rows in `game.basis_labels` order.

    Binary outcomes are solved exactly by the Helstrom projector (the zero
    eigenspace of the conditional difference goes to outcome 0); larger
    alphabets get a pretty-good-measurement update, which always yields a
    valid POVM but is only a heuristic improvement.
    """
    if party not in ("B", "C"):
        raise ValidationError(f"party must be 'B' or 'C', got {party!r}")
    rho = linalg.require_density(rho, "rho")
    sigmas = _conditional_operators(game, rho, fixed, party)
    out = np.empty_like(sigmas)
    for s, povm in zip(sigmas, out):
        if len(s) == 2:
            povm[0], povm[1], _ = helstrom_binary_povm(s[0], s[1])
        else:
            povm[:] = pgm_povm(s)
    return out


def bb84_optimal_unentangled_strategy() -> Strategy:
    """The optimal classical-memory BB84 strategy: send
    cos(pi/8)|0> + sin(pi/8)|1> and always guess outcome 0."""
    phi = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex)
    rho = np.kron(np.outer(phi, phi.conj()), np.eye(1, dtype=complex))
    guess = constant_guess_povms(("0", "1"), ("0", "1"), "0", dim=1)
    return Strategy(rho, (2, 1, 1), guess, dict(guess))


def _run_restart(game: MonogamyGame, cfg: SeesawConfig, restart: int,
                 init_povms=None) -> SeesawResult:
    rng = rng_for(cfg.seed, restart)
    n_bases, n_out = len(game.thetas)**game.rounds, len(game.outcomes)**game.rounds
    if init_povms is not None:
        bob, charlie = init_povms
    else:
        bob = np.array([random_projective_povm(cfg.bob_dim, n_out, rng)
                        for _ in range(n_bases)])
        charlie = np.array([random_projective_povm(cfg.charlie_dim, n_out, rng)
                            for _ in range(n_bases)])
    trajectory: list[float] = []
    prev = -np.inf
    for _ in range(cfg.max_iters):
        rho = None  # the state step does not need the last cycle's state
        rho, value = optimal_state_step(game, bob, charlie)
        if bob.shape[-1] == charlie.shape[-1] == 1:
            # one joint step, which no step of one guesser alone can improve on
            cand = _joint_guess(game, rho)
            if win_terms(game, cand, cand, rho).mean() >= value - 1e-12:
                bob = charlie = cand
        else:
            cand = optimal_povm_step(game, rho, charlie, "B")
            cand_value = win_terms(game, cand, charlie, rho).mean()
            if cand_value >= value - 1e-12:
                bob, value = cand, cand_value
            cand = optimal_povm_step(game, rho, bob, "C")
            cand_value = win_terms(game, bob, cand, rho).mean()
            if cand_value >= value - 1e-12:
                charlie, value = cand, cand_value
        # winning_probability's arithmetic, without building a Strategy
        value = sum(win_terms(game, bob, charlie, rho).tolist()) / n_bases
        trajectory.append(value)
        if value - prev < cfg.tol:
            break
        prev = value
    # the last cycle, checked once; the state is handed over without a copy
    rho.setflags(write=False)
    strategy = Strategy(rho, (game.alice_dim, bob.shape[-1], charlie.shape[-1]), bob,
                        charlie, game.basis_labels)
    return SeesawResult(strategy=strategy, value=winning_probability(game, strategy),
                        iterations=len(trajectory), trajectory=tuple(trajectory),
                        restart=restart, seed=cfg.seed)


def _search_bytes(game: MonogamyGame, cfg: SeesawConfig) -> int:
    """Peak bytes of a search, from D = d_A d_B d_C.  Measured at D = 256 to
    1024: 4.03-4.31 D x D complex arrays at once (the best restart's state,
    and the averaged win operator with hermitianize's two temporaries, or the
    operator, its eigenvectors and the new state), or 3 of them plus the
    conditional states after the first or the last round is traced out; and
    a few copies of the party stacks."""
    d = game.alice_dim * cfg.bob_dim * cfg.charlie_dim
    x = len(game.outcomes)
    conditional = max(x**j * (d // game.dim_a**j)**2 for j in (1, game.rounds))
    stacks = (len(game.thetas) * x)**game.rounds * (cfg.bob_dim**2 + cfg.charlie_dim**2)
    return 16 * (max(9 * d * d // 2, 3 * d * d + conditional) + 4 * stacks)


def seesaw(game: MonogamyGame, cfg: SeesawConfig, init_povms=None) -> SeesawResult:
    """Best strategy over seeded random restarts.

    `init_povms`, when given as (bob, charlie) stacks whose rows follow
    `game.basis_labels`, replaces the random initialization of restart 0;
    remaining restarts stay random.
    Restarts run one after another and only the best result so far is kept,
    ties going to the lowest restart index.
    """
    total_dim = game.alice_dim * cfg.bob_dim * cfg.charlie_dim
    require_bytes(_search_bytes(game, cfg), f"seesaw at total dimension {total_dim}")
    return max((_run_restart(game, cfg, r, init_povms if r == 0 else None)
                for r in range(cfg.restarts)), key=lambda result: result.value)
