"""Alternating-optimization search for high-value game strategies.

Each block step is either exact (state step: top eigenvector of the averaged
winning operator; binary-outcome measurement step: Helstrom projector) or a
feasibility-preserving pretty-good-measurement step for larger alphabets,
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
from .errors import CapacityError, DimensionError, DomainError, ValidationError
from .games import (MonogamyGame, Strategy, _party_dim, conditional_states,
                    constant_guess_povms, win_operator, win_terms, winning_probability)
from .rand import random_projective_povm, rng_for
from .uncertainty import helstrom_binary_povm, pgm_povm

# total Hilbert-space dimension the dense eigensolver is allowed to touch
STATE_DIM_GUARD = 4096


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


def optimal_state_step(game: MonogamyGame, bob_povms, charlie_povms):
    """Best state for fixed measurements: top eigenvector of the averaged
    winning operator.

    Returns (rank-1 density matrix, top eigenvalue); the eigenvalue equals the
    winning probability of the returned state.  Degenerate top eigenvalues are
    broken deterministically: first column of the eigensolver output sorted by
    descending eigenvalue.  LAPACK can fail to converge on a highly
    degenerate spectrum; the solver then retries once on the upper triangle,
    which holds the same data since the operator is hermitianized.
    """
    op = None
    for theta in game.thetas:
        term = win_operator(game, bob_povms, charlie_povms, theta)
        op = term if op is None else op + term
    op = linalg.hermitianize(op / len(game.thetas))
    try:
        evals, vecs = np.linalg.eigh(op)
    except np.linalg.LinAlgError:
        evals, vecs = np.linalg.eigh(op, UPLO="U")
    top = vecs[:, ::-1][:, 0]
    rho = np.outer(top, top.conj())
    return rho, float(evals[-1])


def _conditional_operators(game: MonogamyGame, rho: np.ndarray, fixed_povms,
                           party: str, theta: str):
    """Per-outcome operators on the optimized party's space: partial traces of
    (F_x ⊗ 1 ⊗ fixed_x) rho over the other two systems."""
    d_fixed = _party_dim(fixed_povms)
    d_opt, rem = divmod(rho.shape[0], game.dim_a * d_fixed)
    if rem or d_opt < 1:
        raise DimensionError("state dimension incompatible with game and fixed POVMs")
    sigma = conditional_states(np.stack(game.povms[theta]), rho, game.dim_a)
    fixed = np.stack(fixed_povms[theta])
    if party == "B":
        sigma = sigma.reshape(-1, d_opt, d_fixed, d_opt, d_fixed)
        sigmas = np.einsum("xcr,xbrsc->xbs", fixed, sigma)
    else:
        sigma = sigma.reshape(-1, d_fixed, d_opt, d_fixed, d_opt)
        sigmas = np.einsum("xbq,xqcbs->xcs", fixed, sigma)
    return [linalg.hermitianize(s) for s in sigmas]


def optimal_povm_step(game: MonogamyGame, rho, fixed_party_povms, party: str):
    """Re-optimize one party's per-basis POVMs with the state and the other
    party fixed.

    Binary outcomes are solved exactly by the Helstrom projector (the zero
    eigenspace of the conditional difference goes to outcome 0); larger
    alphabets get a pretty-good-measurement update, which always yields a
    valid POVM but is only a heuristic improvement.
    """
    if party not in ("B", "C"):
        raise ValidationError(f"party must be 'B' or 'C', got {party!r}")
    rho = linalg.require_density(rho, "rho")
    out = {}
    for theta in game.thetas:
        sigmas = _conditional_operators(game, rho, fixed_party_povms, party, theta)
        if len(sigmas) == 2:
            p0, p1, _ = helstrom_binary_povm(sigmas[0], sigmas[1])
            out[theta] = (p0, p1)
        else:
            out[theta] = tuple(pgm_povm(sigmas))
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
    n_out = len(game.outcomes)
    if init_povms is not None:
        bob = {t: tuple(e) for t, e in init_povms[0].items()}
        charlie = {t: tuple(e) for t, e in init_povms[1].items()}
    else:
        bob = {t: tuple(random_projective_povm(cfg.bob_dim, n_out, rng))
               for t in game.thetas}
        charlie = {t: tuple(random_projective_povm(cfg.charlie_dim, n_out, rng))
                   for t in game.thetas}
    trajectory: list[float] = []
    prev = -np.inf
    strategy = None
    value = 0.0
    for _ in range(cfg.max_iters):
        rho, value = optimal_state_step(game, bob, charlie)
        for party in ("B", "C"):
            fixed = charlie if party == "B" else bob
            cand = optimal_povm_step(game, rho, fixed, party)
            if party == "B":
                cand_value = win_terms(game, cand, charlie, rho).mean()
                if cand_value >= value - 1e-12:
                    bob, value = cand, cand_value
            else:
                cand_value = win_terms(game, bob, cand, rho).mean()
                if cand_value >= value - 1e-12:
                    charlie, value = cand, cand_value
        # re-validates density and POVM invariants every cycle
        dims = (game.dim_a, _party_dim(bob), _party_dim(charlie))
        strategy = Strategy(rho, dims, bob, charlie)
        value = winning_probability(game, strategy)
        trajectory.append(value)
        if value - prev < cfg.tol:
            break
        prev = value
    return SeesawResult(strategy=strategy, value=value, iterations=len(trajectory),
                        trajectory=tuple(trajectory), restart=restart, seed=cfg.seed)


def seesaw(game: MonogamyGame, cfg: SeesawConfig, init_povms=None) -> SeesawResult:
    """Best strategy over seeded random restarts.

    `init_povms`, when given as (bob_povms, charlie_povms), replaces the
    random initialization of restart 0; remaining restarts stay random.
    Restarts run one after another and the merge picks the maximal value,
    breaking ties toward the lowest restart index.
    """
    total_dim = game.dim_a * cfg.bob_dim * cfg.charlie_dim
    if total_dim > STATE_DIM_GUARD:
        raise CapacityError(f"total dimension {total_dim} exceeds the seesaw "
                            f"guard of {STATE_DIM_GUARD}")
    results = [_run_restart(game, cfg, r, init_povms if r == 0 else None)
               for r in range(cfg.restarts)]
    best = results[0]
    for res in results[1:]:
        if res.value > best.value:
            best = res
    return best
