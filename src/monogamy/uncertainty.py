"""Min-entropy uncertainty with two quantum observers.

Builds the classical-quantum ensembles a basis-random measurement leaves
behind on each observer, and decides in one place which measurement
guesses the classical symbol best: :func:`minimum_error_povm`, the Helstrom
projector for binary alphabets (optimal) and otherwise the pretty-good
measurement refined by a fixed number of Ježek, Řeháček and Fiurášek steps
(feasible, not certified optimal).  The seesaw's measurement step calls it
too.  By König, Renner and Schaffner (IEEE TIT 55, 4337, 2009) the
conditional min-entropy is -log2 of the optimal guessing probability, so
:func:`guessing_probability` and :func:`min_entropy_bracket` read the same
measurement; the bracket is exact when every alphabet is binary.  Checks
the two-observer tradeoff

    p_guess(X|B,Theta) + p_guess(X|C,Theta) <= 1 + sqrt(c)

together with its min-entropy form against any state and binary POVM pair,
and the conditioned-security comparison of two CQ states, :func:`secdef_gap`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError, ValidationError, whole, within
from .games import MonogamyGame, conditional_stack, overlap

WEIGHT_ATOL = 1e-9


def _distribution(weights, what: str) -> np.ndarray:
    """`weights` as a float array, clipped at 0, once they sum to 1 within
    WEIGHT_ATOL and none is below -WEIGHT_ATOL; nan fails both."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if not abs(w.sum() - 1.0) <= WEIGHT_ATOL:
        raise ValidationError(f"{what}s sum to {w.sum()}, expected 1")
    if not w.min() >= -WEIGHT_ATOL:
        raise ValidationError(f"negative {what} {w.min()}")
    return np.clip(w, 0.0, None)


@dataclass(frozen=True, eq=False)
class CqEnsemble:
    """Classical symbol with quantum side information: weights p_x and
    conditional states rho^x of one shared dimension.

    `conditionals`, label-keyed or already stacked in `alphabet` order, is
    stored once as the read-only (|X|, d, d) array `states`; `conditionals`
    then becomes a read-only label view of it.
    """

    alphabet: tuple[str, ...]
    weights: np.ndarray
    conditionals: Mapping[str, np.ndarray] | np.ndarray
    states: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(str(x) for x in self.alphabet))
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValidationError("alphabet labels must be non-empty and distinct")
        if np.size(self.weights) != len(self.alphabet):
            raise DimensionError("one weight per alphabet symbol required")
        w = _distribution(self.weights, "weight")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        conds = self.conditionals
        if isinstance(conds, Mapping):
            missing = [x for x in self.alphabet if x not in conds]
            if missing:
                raise ValidationError(f"missing conditional state for '{missing[0]}'")
            extra = [x for x in conds if x not in self.alphabet]
            if extra:
                raise ValidationError(f"conditional state for '{extra[0]}' is outside "
                                      "the alphabet")
            if len({np.shape(conds[x]) for x in self.alphabet}) != 1:
                raise DimensionError("conditional states must share one dimension")
            conds = [conds[x] for x in self.alphabet]
        states = linalg.frozen(conds)
        if states.ndim != 3 or states.shape[0] != w.shape[0] or \
                states.shape[1] != states.shape[2]:
            raise DimensionError(f"conditional states have shape {states.shape}, "
                                 f"expected ({w.shape[0]}, d, d)")
        ok = linalg.hermitian_psd(states)
        if not ok.all():
            raise ValidationError(f"conditional '{self.alphabet[np.argmin(ok)]}' is not "
                                  f"positive semi-definite within tolerance")
        ok = linalg._unit_trace(states)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValidationError(f"conditional '{self.alphabet[i]}' has trace "
                                  f"{float(np.trace(states[i]).real)!r}, expected 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "conditionals",
                           MappingProxyType(dict(zip(self.alphabet, states))))

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def weighted_conditionals(self) -> np.ndarray:
        """The (|X|, d, d) stack of p_x rho^x."""
        return self.weights[:, None, None] * self.states

    def average_state(self) -> np.ndarray:
        return sum(self.weighted_conditionals())

    def joint_density(self) -> np.ndarray:
        """The full CQ density sum_x p_x |x><x| ⊗ rho^x."""
        k, d = len(self.alphabet), self.dim
        out = np.zeros((k, d, k, d), dtype=complex)
        out[np.arange(k), :, np.arange(k)] = self.weighted_conditionals()
        return out.reshape(k * d, k * d)


def secdef_gap(rho: CqEnsemble, rho_tilde: CqEnsemble,
               predicate: Callable[[str], bool],
               tau_x: np.ndarray | None = None) -> tuple[float, float]:
    """Both sides of the conditioned-security comparison

        Pr_rho[L] D(rho_XB|L, tau ⊗ rho_B|L)
            <= 5 D(rho_XB, rho~_XB) + Pr_rho~[L] D(rho~_XB|L, tau ⊗ rho~_B|L)

    for CQ states over one alphabet and an event L determined by a predicate
    on the classical symbol.  Returns (lhs, rhs); the inequality is the
    caller's to assert.
    """
    if rho.alphabet != rho_tilde.alphabet:
        raise ValidationError("the two CQ states must share an alphabet")
    if rho.dim != rho_tilde.dim:
        raise DimensionError("the two CQ states must share the side-information dimension")
    k = len(rho.alphabet)
    if tau_x is None:
        tau_x = np.eye(k, dtype=complex) / k
    tau_x = linalg.require_density(tau_x, "tau_x")
    if tau_x.shape[0] != k:
        raise DimensionError("tau_x must match the alphabet size")

    def conditioned_term(ens: CqEnsemble) -> float:
        mask = np.array([1.0 if predicate(x) else 0.0 for x in ens.alphabet])
        prob = float((ens.weights * mask).sum())
        if prob <= 0.0:
            return 0.0
        cond = CqEnsemble(ens.alphabet, ens.weights * mask / prob, ens.states)
        return prob * linalg.trace_distance(cond.joint_density(),
                                            linalg.tensor(tau_x, cond.average_state()))

    lhs = conditioned_term(rho)
    between = linalg.trace_distance(rho.joint_density(), rho_tilde.joint_density())
    rhs = 5.0 * between + conditioned_term(rho_tilde)
    return lhs, rhs


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _projector(vecs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """sum of |v><v| over the eigenvector columns that `keep` marks, for one
    eigenbasis or a stack: the masked columns times their adjoint."""
    return (vecs * keep[..., None, :]) @ _adjoint(vecs)


def _psd_clip(m: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(m)
    return (vecs * np.clip(evals, 0.0, None)[..., None, :]) @ _adjoint(vecs)


def _outcome_sum(stack: np.ndarray) -> np.ndarray:
    """sum_x of a (..., |X|, d, d) stack, adding the outcomes in order to a
    zero start, as Python's sum over a list of the elements does."""
    return sum(stack[..., x, :, :] for x in range(stack.shape[-3]))


def _guessing(sigmas: np.ndarray, povm: np.ndarray) -> np.ndarray:
    """sum_x tr(sigma_x P_x) for each ensemble of a (..., |X|, d, d) stack."""
    return np.einsum("...xij,...xji->...", sigmas, povm).real


def _inverse_root(total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S^{-1/2} on the support of each PSD matrix S of a stack, eigenvalues
    up to 1e-10 of the largest counting as kernel, and the projector onto
    that kernel."""
    evals, vecs = np.linalg.eigh(total)
    top = np.maximum(evals[..., -1:], 0.0)
    tol = top * 1e-10 + 1e-300
    inv_root_diag = np.where(evals > tol, 1.0 / np.sqrt(np.clip(evals, tol, None)), 0.0)
    return (vecs * inv_root_diag[..., None, :]) @ _adjoint(vecs), _projector(vecs, evals <= tol)


def _whitened(povm: np.ndarray) -> np.ndarray:
    """A Hermitian-congruence whitening T^{-1/2} M_x T^{-1/2}, T = sum_x M_x,
    which restores completeness exactly while keeping every element PSD."""
    s_evals, s_vecs = np.linalg.eigh(linalg.hermitianize(_outcome_sum(povm)))
    root = 1.0 / np.sqrt(np.clip(s_evals, 1e-12, None))
    whiten = ((s_vecs * root[..., None, :]) @ _adjoint(s_vecs))[..., None, :, :]
    return linalg.hermitianize(whiten @ povm @ whiten)


def _hermitian_stack(sigmas) -> np.ndarray:
    """The Hermitian parts of a sequence of d x d operators or of a
    (..., |X|, d, d) stack of ensembles."""
    mats = np.asarray(sigmas)
    if mats.ndim < 3 or mats.shape[-3] == 0:
        raise DimensionError("need at least one operator")
    return linalg.hermitianize(mats)


def pgm_povm(sigmas) -> np.ndarray:
    """Pretty-good measurement for weighted PSD operators.

    M_x = S^{-1/2} sigma_x S^{-1/2} with S = sum sigma_x inverted on its
    support; the kernel of S is assigned to the first outcome.  Operators
    that cancel to rounding noise, S's entries all below 1e-10 of their
    summed absolute entries, leave S all kernel.  A final
    Hermitian-congruence whitening restores completeness exactly while
    keeping every element PSD, so the family is always a valid POVM even for
    nearly singular S.

    `sigmas` is a sequence of d x d operators or a (..., |X|, d, d) stack of
    ensembles; the POVMs come back as an array of the same shape.
    """
    mats = _hermitian_stack(sigmas)
    total = _outcome_sum(mats)
    noise = np.abs(total).max(axis=(-2, -1)) < 1e-10 * np.abs(mats).sum(axis=(-3, -2, -1))
    inv_root, kernel = _inverse_root(np.where(noise[..., None, None], 0.0, total))
    inv_root = inv_root[..., None, :, :]
    povm = _psd_clip(linalg.hermitianize(inv_root @ mats @ inv_root))
    povm[..., 0, :, :] += kernel
    return _whitened(povm)


# Iteration steps after the PGM in minimum_error_povm.  On the bb84^2 and
# bb84^3 seesaws 30 steps took as many cycles as 5, at 2-4 times the time.
_REFINE_STEPS = 5


def minimum_error_povm(sigmas) -> np.ndarray:
    """The measurement that guesses x best from weighted operators
    sigma_x = p_x rho^x: the one choice of measurement that the seesaw's
    measurement step and :func:`guessing_probability` share.

    A binary alphabet gets the Helstrom projector onto the nonnegative
    eigenspace of sigma_0 - sigma_1 (zero eigenvalues go to outcome 0),
    which is optimal.  A larger alphabet gets the pretty-good measurement
    refined by a fixed number of steps of Ježek, Řeháček and Fiurášek's
    iteration (PRA 65, 060301(R), 2002): each sets
    R = (sum_x sigma_x P_x sigma_x)^{1/2} and
    P_x <- R^{-1} sigma_x P_x sigma_x R^{-1}, with R inverted on its
    support and its kernel assigned to the first outcome.  The iterates end
    with the PGM's PSD clip and whitening, so the family is a valid POVM,
    though not certified optimal.  R's kernel holds the directions whose
    weight is below about 1e-5 of the largest, which the steps can give
    away, so each ensemble keeps whichever of the refined family and the
    PGM guesses better: the result never guesses worse than the PGM.

    Takes and returns stacks as :func:`pgm_povm` does.
    """
    mats = _hermitian_stack(sigmas)
    if mats.shape[-3] == 2:
        evals, vecs = np.linalg.eigh(mats[..., 0, :, :] - mats[..., 1, :, :])
        p0 = _projector(vecs, evals >= 0.0)
        return np.stack([p0, np.eye(mats.shape[-1], dtype=mats.dtype) - p0], axis=-3)
    pgm = pgm_povm(mats)
    povm = pgm
    for _ in range(_REFINE_STEPS):
        lifted = mats @ povm @ mats
        inv_root, kernel = _inverse_root(linalg.hermitianize(_outcome_sum(lifted)))
        inv_root = inv_root[..., None, :, :]
        povm = linalg.hermitianize(inv_root @ lifted @ inv_root)
        povm[..., 0, :, :] += kernel
    povm = _whitened(_psd_clip(povm))
    better = _guessing(mats, povm) >= _guessing(mats, pgm)
    return np.where(better[..., None, None, None], povm, pgm)


def guessing_probability(ensemble: CqEnsemble) -> tuple[float, np.ndarray]:
    """sum_x p_x tr(rho^x P_x) for the :func:`minimum_error_povm` P of the
    ensemble, and P as an (|X|, d, d) stack ordered like the alphabet.

    Exact for a binary alphabet, where it equals
    (1 + ||p0 rho0 - p1 rho1||_1) / 2; otherwise a feasible lower bound.
    """
    sigmas = linalg.hermitianize(ensemble.weighted_conditionals())
    povm = minimum_error_povm(sigmas)
    value = sum(np.trace(s @ m).real for s, m in zip(sigmas, povm))
    return float(value), povm


def min_entropy_bracket(ensembles: Mapping, theta_weights: Mapping) -> tuple[float, float]:
    """(lower, upper) bracket on the conditional min-entropy
    -log2 sum_theta w_theta p_guess(X | B, theta).

    `ensembles` maps a basis key to the CQ ensemble conditioned on that
    basis, and the optimal guesser picks a measurement per basis; the basis
    weights `theta_weights` must cover the same keys, be nonnegative and
    sum to 1 within WEIGHT_ATOL.  The upper end is -log2 of the weighted
    :func:`guessing_probability`; the lower end equals it when every
    alphabet is binary, where that guess is optimal, and is the trivial 0
    otherwise.
    """
    if set(theta_weights) != set(ensembles):
        raise ValidationError(f"basis weights cover {sorted(theta_weights, key=str)}, "
                              f"expected {sorted(ensembles, key=str)}")
    weights = _distribution([theta_weights[k] for k in ensembles], "basis weight")
    avg = sum(w * guessing_probability(e)[0]
              for w, e in zip(weights.tolist(), ensembles.values()))
    upper = -math.log2(avg)
    exact = all(len(e.alphabet) == 2 for e in ensembles.values())
    return (upper if exact else 0.0), upper


def post_measurement_state(rho_abc, dims: Sequence[int], f0, f1):
    """Ensembles the two observers hold after a basis-uniform measurement.

    `f0` and `f1` are the two POVMs on the first factor; returns
    (b_ensembles, c_ensembles), each a dict mapping basis key 0/1 to the
    CqEnsemble of outcome weights and normalized conditional states.
    Zero-weight outcomes get the maximally mixed conditional.
    """
    dims = linalg.dimensions(dims, 3)
    rho = linalg.require_density(rho_abc, "rho_abc")
    da, db, dc = dims
    if rho.shape[0] != da * db * dc:
        raise DimensionError(f"state dimension {rho.shape[0]} != product of {dims}")
    alphabet = tuple(str(i) for i in range(len(f0)))
    game = MonogamyGame(da, ("0", "1"), alphabet, {"0": f0, "1": f1})
    states = conditional_stack(game, rho).reshape(2, -1, db, dc, db, dc)
    b_out, c_out = {}, {}
    for theta, sigma in enumerate(states):
        marginals_b = np.einsum("xbcsc->xbs", sigma)
        p = np.trace(marginals_b, axis1=1, axis2=2).real
        w = np.clip(p, 0.0, None)
        w = w / w.sum()
        seen = (p > 1e-14)[:, None, None]
        for out, marginals, d in ((b_out, marginals_b, db),
                                  (c_out, np.einsum("xbcbr->xcr", sigma), dc)):
            conds = np.where(seen, linalg.hermitianize(marginals)
                             / np.where(seen, p[:, None, None], 1.0),
                             np.eye(d, dtype=complex) / d)
            conds.setflags(write=False)
            out[theta] = CqEnsemble(alphabet, w, conds)
    return b_out, c_out


@dataclass(frozen=True)
class UrReport:
    """Both observers' guessing data against the overlap tradeoff."""

    c: float
    pguess_b: float
    pguess_c: float
    sum: float
    bound: float
    hmin_b: float
    hmin_c: float
    entropy_bound: float
    satisfied: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def ur_bound_n(c: float, n: int) -> float:
    """n-round min-entropy floor -2 log2((1 + sqrt(c^n)) / 2).

    Tends to 2 as n grows for c < 1: even over many rounds the relation only
    guarantees a constant amount of uncertainty.
    """
    c, n = within(c, "overlap c", 0.0, 1.0, lo_open=True), whole(n)
    return -2.0 * math.log2((1.0 + math.sqrt(c**n)) / 2.0)


def check_uncertainty_relation(rho_abc, dims: Sequence[int], f0, f1) -> UrReport:
    """Evaluate both observers' optimal guessing probabilities and compare with
    1 + sqrt(c) (and the min-entropy sum with -2 log2((1+sqrt(c))/2))."""
    if len(list(f0)) != 2 or len(list(f1)) != 2:
        raise DomainError("exact evaluation requires binary-outcome POVMs")
    b_ens, c_ens = post_measurement_state(rho_abc, dims, f0, f1)
    c = overlap(MonogamyGame(dims[0], ("0", "1"), ("0", "1"), {"0": f0, "1": f1}))
    pg_b, pg_c = (sum(0.5 * guessing_probability(ens[t])[0] for t in (0, 1))
                  for ens in (b_ens, c_ens))
    total = pg_b + pg_c
    bound = 1.0 + math.sqrt(c)
    hmin_b = -math.log2(pg_b)
    hmin_c = -math.log2(pg_c)
    entropy_bound = -2.0 * math.log2((1.0 + math.sqrt(c)) / 2.0)
    satisfied = (total <= bound + 1e-8) and (hmin_b + hmin_c >= entropy_bound - 1e-8)
    return UrReport(c=c, pguess_b=pg_b, pguess_c=pg_c, sum=total, bound=bound,
                    hmin_b=hmin_b, hmin_c=hmin_c, entropy_bound=entropy_bound,
                    satisfied=satisfied)
