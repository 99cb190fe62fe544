"""Alternating-optimization search for high-value game strategies.

Each block step is either exact (state step: top eigenvector of the averaged
winning operator, summed over all bases in one contraction; for guessers
without quantum memory, one joint step of both to their best reply) or a
measurement step for one party, which takes whatever
:func:`~monogamy.uncertainty.minimum_error_povm` chooses for its
conditional operators: the Helstrom projector for binary alphabets (exact),
otherwise the refined pretty-good measurement (feasible).  Every
measurement step is guarded so the trajectory never decreases.  A cycle's
steps share one batch of conditional states for all restarts and bases,
from the exact evaluator of :mod:`monogamy.games`.  The search runs in
float64 when the game's elements and any initial POVMs have no imaginary
part, else in complex128.  Every value the search reports is the exactly
evaluated winning probability of a valid strategy, hence a true lower bound
on the optimal game value; a real strategy is a complex one too, though at
equal dimensions a real search may miss a complex optimum (McKague, Mosca
and Gisin, PRL 102, 020505, 2009).  Matching upper bounds come from
:mod:`monogamy.bounds`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from ._numpy import np
from .errors import DimensionError, ValidationError, capped_power, require_bytes, whole, within
from .games import (MonogamyGame, Strategy, _trace_out_entries, _win_operator_sum_entries,
                    _win_terms_bytes, conditional_stack, constant_guess_povms,
                    win_operator_sum, win_terms_from_states, winning_probability)
from .rand import random_projective_povm, rng_for
from .uncertainty import minimum_error_povm


# the most bytes one block of restarts may hold; a block runs as many
# restarts at once as fit, and at least one
_BLOCK_BYTES = 2**24
# bytes a restart's summary holds until the search returns: at one restart
# a block, tracemalloc's peak on bb84 grows 0.55-0.81 KiB a restart
_SUMMARY_BYTES = 1024


@dataclass(frozen=True)
class SeesawConfig:
    max_iters: int = 200
    tol: float = 1e-9
    seed: int = 0
    bob_dim: int = 1
    charlie_dim: int = 1
    restarts: int = 20

    def __post_init__(self):
        object.__setattr__(self, "tol", within(self.tol, "tol", 0.0, math.inf,
                                               lo_open=True, hi_open=True))
        object.__setattr__(self, "seed", whole(self.seed, "seed", minimum=None))
        for name in ("max_iters", "bob_dim", "charlie_dim", "restarts"):
            object.__setattr__(self, name, whole(getattr(self, name), name))


class RestartSummary(NamedTuple):
    """How one restart ended: its exactly evaluated value, its cycles, and
    "tol" when a cycle gained less than `tol`, else "max_iters"."""

    value: float
    iterations: int
    stop: str


@dataclass(frozen=True)
class SeesawResult:
    strategy: Strategy
    value: float
    iterations: int
    trajectory: tuple[float, ...]
    restart: int
    seed: int
    per_restart: tuple[RestartSummary, ...] = ()

    def to_dict(self) -> dict:
        return {"value": self.value, "iterations": self.iterations,
                "trajectory": list(self.trajectory), "restart": self.restart,
                "seed": self.seed, "per_restart": [s._asdict() for s in self.per_restart]}


def optimal_state_step(game: MonogamyGame, bob: np.ndarray, charlie: np.ndarray):
    """Best state for fixed measurements: top eigenvector of the averaged
    winning operator.  `bob` and `charlie` are (|Theta|, |X|, d, d) stacks
    whose rows follow `game.basis_labels`, or (R, |Theta|, |X|, d, d) stacks
    of R restarts at once.

    Returns (rank-1 density matrix, top eigenvalue), or an (R, D, D) stack of
    them and an (R,) array; the eigenvalue equals the winning probability of
    the returned state.  Degenerate top eigenvalues are broken
    deterministically: first column of the eigensolver output sorted by
    descending eigenvalue.  LAPACK can fail to converge on a highly
    degenerate spectrum; the solver then retries once on the upper triangle,
    which holds the same data since the operator is hermitianized.  An
    eigenvector that is not finite, from a NaN in the stacks or the solver,
    raises ValidationError; the state is a unit vector's projector, so no
    other check of it is needed.
    """
    op = win_operator_sum(game, bob, charlie)
    op /= len(game.thetas)**game.rounds
    op = linalg.hermitianize(op)
    try:
        evals, vecs = np.linalg.eigh(op)
    except np.linalg.LinAlgError:
        evals, vecs = np.linalg.eigh(op, UPLO="U")
    top = vecs[..., -1]
    if not np.isfinite(top).all():
        raise ValidationError("the state step's top eigenvector is not finite")
    rho = top[..., :, None] * top.conj()[..., None, :]
    return rho, (float(evals[-1]) if evals.ndim == 1 else evals[..., -1])


def _joint_guess(states: np.ndarray) -> np.ndarray:
    """The best reply of two guessers without quantum memory, who win a round
    only together: both name Alice's likeliest outcome in every basis, ties
    going to the lowest outcome."""
    probs = states.real.reshape(states.shape[:-2])
    guess = np.zeros(states.shape, dtype=states.dtype)
    np.put_along_axis(guess, probs.argmax(axis=-1)[..., None, None, None], 1.0, axis=-3)
    return guess


def _conditional_operators(game: MonogamyGame, states: np.ndarray, fixed: np.ndarray,
                           party: str) -> np.ndarray:
    """Per-basis, per-outcome operators on the optimized party's space, from
    the (..., |Theta|, |X|, m, m) :func:`~monogamy.games.conditional_stack`
    of the state: partial traces of (F_x ⊗ 1 ⊗ fixed_x) rho over the other
    two systems, as a (..., |Theta|, |X|, d, d) stack.  They are Hermitian
    up to rounding; the measurement updates take their Hermitian parts."""
    d_fixed = fixed.shape[-1]
    d_opt, rem = divmod(states.shape[-1], d_fixed)
    rows = (len(game.thetas)**game.rounds, len(game.outcomes)**game.rounds)
    if rem or d_opt < 1 or states.shape[-4:-2] != rows:
        raise DimensionError("state dimension incompatible with game and fixed POVMs")
    spec, dims = (("...xcr,...xbrsc->...xbs", (d_opt, d_fixed)) if party == "B"
                  else ("...xbq,...xqcbs->...xcs", (d_fixed, d_opt)))
    return np.einsum(spec, fixed, states.reshape(states.shape[:-2] + dims + dims))


def optimal_povm_step(game: MonogamyGame, states: np.ndarray, fixed: np.ndarray,
                      party: str) -> np.ndarray:
    """Re-optimize one party's per-basis POVMs with the state and the other
    party's (|Theta|, |X|, d, d) stack `fixed` held; returns the new stack,
    rows in `game.basis_labels` order.  `states` is the state's
    :func:`~monogamy.games.conditional_stack`, which a cycle's steps share;
    an (R, |Theta|, |X|, m, m) stack of them with (R, |Theta|, |X|, d, d)
    stacks runs R restarts at once.

    The measurement is :func:`~monogamy.uncertainty.minimum_error_povm` of
    the party's conditional operators: the Helstrom projector for binary
    outcomes, which is optimal, and otherwise the refined pretty-good
    measurement, which always yields a valid POVM but is not certified
    optimal.
    """
    if party not in ("B", "C"):
        raise ValidationError(f"party must be 'B' or 'C', got {party!r}")
    return minimum_error_povm(_conditional_operators(game, states, fixed, party))


def bb84_optimal_unentangled_strategy() -> Strategy:
    """The optimal classical-memory BB84 strategy: send
    cos(pi/8)|0> + sin(pi/8)|1> and always guess outcome 0."""
    phi = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    rho = np.kron(np.outer(phi, phi), np.eye(1))
    guess = constant_guess_povms(("0", "1"), ("0", "1"), "0", dim=1)
    return Strategy(rho, (2, 1, 1), guess, dict(guess))


def _initial_povms(game: MonogamyGame, cfg: SeesawConfig, restarts: range,
                   init_povms, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The block's starting (R, |Theta|, |X|, d, d) stacks of `dtype`:
    restart r draws Bob's and then Charlie's random projective POVMs from
    rng_for(seed, r), unless it is restart 0 and `init_povms` replaces
    them."""
    n_bases, n_out = len(game.thetas)**game.rounds, len(game.outcomes)**game.rounds
    stacks = [np.empty((len(restarts), n_bases, n_out, d, d), dtype=dtype)
              for d in (cfg.bob_dim, cfg.charlie_dim)]
    for j, r in enumerate(restarts):
        if r == 0 and init_povms is not None:
            for stack, given in zip(stacks, init_povms):
                if np.shape(given) != stack.shape[1:]:
                    raise DimensionError(f"initial POVMs have shape {np.shape(given)}, "
                                         f"expected {stack.shape[1:]}")
                stack[j] = given
            continue
        rng = rng_for(cfg.seed, r)
        for stack in stacks:
            stack[j] = [random_projective_povm(stack.shape[-1], n_out, rng, dtype)
                        for _ in range(n_bases)]
    return stacks[0], stacks[1]


def _search_block(game: MonogamyGame, cfg: SeesawConfig, restarts: range, init_povms,
                  dtype: np.dtype):
    """Run a block of restarts as one batch of `dtype`, each on its own row
    of every stack, and yield (restart, rho, bob, charlie, trajectory, stop)
    for each restart as it stops, rho and the stacks as views into the batch.  A
    cycle takes the state step, then, for guessers without quantum memory,
    their joint step, else Bob's and then Charlie's step, each kept only
    when it does not lower the value; all of them share the cycle's
    conditional states."""
    n_bases = len(game.thetas)**game.rounds
    bob, charlie = _initial_povms(game, cfg, restarts, init_povms, dtype)
    live = list(restarts)  # the restart on each row
    trajectories = {r: [] for r in restarts}
    prev = np.full(len(live), -np.inf)
    for cycle in range(1, cfg.max_iters + 1):
        rho = states = None  # the state step needs neither of the last cycle's
        rho, value = optimal_state_step(game, bob, charlie)
        states = conditional_stack(game, rho)
        if bob.shape[-1] == charlie.shape[-1] == 1:
            # one joint step, which no step of one guesser alone can improve on
            cand = _joint_guess(states)
            keep = win_terms_from_states(cand, cand, states).mean(axis=-1) >= value - 1e-12
            bob[keep] = charlie[keep] = cand[keep]
        else:
            cand = optimal_povm_step(game, states, charlie, "B")
            cand_value = win_terms_from_states(cand, charlie, states).mean(axis=-1)
            keep = cand_value >= value - 1e-12
            bob[keep], value = cand[keep], np.where(keep, cand_value, value)
            cand = optimal_povm_step(game, states, bob, "C")
            keep = win_terms_from_states(bob, cand, states).mean(axis=-1) >= value - 1e-12
            charlie[keep] = cand[keep]
        # winning_probability's arithmetic, without building a Strategy
        value = [sum(t) / n_bases for t in win_terms_from_states(bob, charlie, states).tolist()]
        for r, v in zip(live, value):
            trajectories[r].append(v)
        value = np.array(value)
        converged = value - prev < cfg.tol
        stop = converged | (cycle == cfg.max_iters)
        for j in np.flatnonzero(stop):
            yield (live[j], rho[j], bob[j], charlie[j], trajectories[live[j]],
                   "tol" if converged[j] else "max_iters")
        go = ~stop
        live = [r for r, g in zip(live, go) if g]
        bob, charlie, prev = bob[go], charlie[go], value[go]
        if not live:
            return


def _restart_bytes(game: MonogamyGame, cfg: SeesawConfig, dtype: np.dtype) -> int:
    """Peak bytes each restart of a block adds, beside its party stacks and
    one candidate, from D = d_A d_B d_C, the S entries of its conditional
    states over all bases and the entries of one party's stack, each entry
    of the search's `dtype`.  The largest of three phases:

    - the state step: 4.5 D x D arrays (the averaged win operator
      with hermitianize's temporaries, or the operator, its eigenvectors and
      the new state), or win_operator_sum's two largest rounds;
    - the conditional states: the state, and conditional_states' rounds
      with S traced out by the batched call, or S and its reordered copy;
    - a measurement step: the state, S, and 11 stacks of the party it
      measures (the refined PGM's iterates, their temporaries and the PGM),
      or 2 for the joint step of guessers without quantum memory.

    Measured by tracemalloc at D = 16 to 512 and 1 to 16 restarts per
    block, bb84 with n = 1 to 8: 3.0-3.3 D x D arrays in the state step
    once D >= 256, 2 S (n = 1) or 3 S (n > 1) beyond the state for the
    conditional states, and 9.8-11.2 party stacks in a measurement step."""
    d = game.alice_dim * cfg.bob_dim * cfg.charlie_dim
    pairs = len(game.thetas) * len(game.outcomes)
    states, trace_out = _trace_out_entries(d * d, pairs, game.dim_a, game.rounds)
    party = pairs**game.rounds * max(cfg.bob_dim, cfg.charlie_dim)**2
    stacks = pairs**game.rounds * (cfg.bob_dim**2 + cfg.charlie_dim**2)
    state_step = max(9 * d * d // 2, _win_operator_sum_entries(game, cfg.bob_dim,
                                                               cfg.charlie_dim))
    measure = d * d + states + (11 if max(cfg.bob_dim, cfg.charlie_dim) > 1 else 2) * party
    phases = (state_step, d * d + max(trace_out, 2 * states), measure)
    return np.dtype(dtype).itemsize * (max(phases) + 2 * stacks)


def _block_size(game: MonogamyGame, cfg: SeesawConfig, dtype: np.dtype) -> int:
    """Restarts per block: as many as fit in _BLOCK_BYTES, at least one."""
    return max(1, min(cfg.restarts, _BLOCK_BYTES // _restart_bytes(game, cfg, dtype)))


def _search_bytes(game: MonogamyGame, cfg: SeesawConfig, dtype: np.dtype) -> int:
    """Peak bytes of a search: one block of restarts, and beside it the best
    restart's strategy and a stopping restart's, each a state and its party
    stacks, the final evaluation, which holds the conditional states of
    every basis (tracemalloc, one restart of two cycles at dims 1/1: 0.72
    MiB of 1.22 MiB charged at bb84^6, 2.81 of 4.38 MiB at bb84^7), and
    every restart's summary, all in the search's `dtype`.  Over 2^64 bytes
    the two strategies, counted from capped powers, are the charge: the rest
    takes a step a round."""
    itemsize = np.dtype(dtype).itemsize
    d = capped_power(game.dim_a, game.rounds) * cfg.bob_dim * cfg.charlie_dim
    stacks = capped_power(len(game.thetas) * len(game.outcomes), game.rounds) * \
        (cfg.bob_dim**2 + cfg.charlie_dim**2)
    held = itemsize * 2 * (d * d + stacks)
    if held > 2**64:
        return held
    return (_block_size(game, cfg, dtype) * _restart_bytes(game, cfg, dtype) + held
            + _win_terms_bytes(game, d * d, itemsize) + _SUMMARY_BYTES * cfg.restarts)


def seesaw(game: MonogamyGame, cfg: SeesawConfig, init_povms=None) -> SeesawResult:
    """Best strategy over seeded random restarts.

    `init_povms`, when given as (bob, charlie) stacks whose rows follow
    `game.basis_labels`, replaces the random initialization of restart 0;
    remaining restarts stay random.  Every array of the search is float64
    when neither the game's elements nor `init_povms` have an imaginary
    part, else complex128; random starts are then Haar orthogonal, else Haar
    unitary.
    Restarts run in blocks of as many as fit in `_BLOCK_BYTES`, each block as
    one batch along a leading axis of every state and stack, and a restart
    leaves its batch when it stops.  Each restart's last strategy is built
    and evaluated exactly; the best is returned, ties going to the lowest
    restart index, with every restart's summary.
    """
    init_povms = None if init_povms is None else tuple(map(linalg.frozen, init_povms))
    dtype = np.result_type(game.elements, *(init_povms or ()))
    require_bytes(_search_bytes(game, cfg, dtype), f"seesaw at total dimension {game.dim_a}^"
                  f"{game.rounds} x {cfg.bob_dim} x {cfg.charlie_dim}")
    dims = (game.alice_dim, cfg.bob_dim, cfg.charlie_dim)
    summaries: list[RestartSummary | None] = [None] * cfg.restarts
    best = None
    block = _block_size(game, cfg, dtype)
    for start in range(0, cfg.restarts, block):
        restarts = range(start, min(start + block, cfg.restarts))
        for r, rho, bob, charlie, trajectory, stop in _search_block(game, cfg, restarts,
                                                                    init_povms, dtype):
            strategy = Strategy(rho, dims, bob, charlie, game.basis_labels)
            value = winning_probability(game, strategy)
            summaries[r] = RestartSummary(value, len(trajectory), stop)
            if best is None or (value, -r) > (best.value, -best.restart):
                best = SeesawResult(strategy, value, len(trajectory), tuple(trajectory),
                                    r, cfg.seed)
    return dataclasses.replace(best, per_restart=tuple(summaries))
