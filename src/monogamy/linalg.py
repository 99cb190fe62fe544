"""Dense linear algebra for states and POVMs.

Matrices are plain ``numpy`` arrays, float64 or complex128: a real array
stays real, so a real game is searched, stored and written in real
arithmetic.  Conventions fixed once and used everywhere:

* row-major storage, 0-based indexing; in tensor products factor 0 is the
  leftmost factor,
* the deterministic Hermitian eigensolver (``numpy.linalg.eigh``) backs every
  spectral computation; singular values of a general matrix come from the
  eigenvalues of ``M^dagger M`` with non-negativity clipping,
* one predicate, :func:`hermitian_psd`, decides Hermiticity (entrywise within
  ``HERMITIAN_ATOL``) and positive semi-definiteness (eigenvalue floor
  ``PSD_EIG_FLOOR``) for a single matrix or a (..., d, d) stack; with the
  unit-trace test (``TRACE_ATOL``) it backs ``require_density``, and
  properties are always checked by it, never assumed,
* no function mutates its inputs.  The predicates read ndarray input in
  place, without a copy; an object that keeps a checked array keeps a
  read-only copy of it made by :func:`frozen`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NotPsdError, ValidationError, whole

# Tolerances, documented here once and reused across the package.
HERMITIAN_ATOL = 1e-10
PSD_EIG_FLOOR = -1e-8
TRACE_ATOL = 1e-8


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-d complex array (copies, so results are safe to keep)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def require_square(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def scalar_type(*arrays) -> type:
    """float when no entry of any of `arrays` has an imaginary part, else
    complex: the type in which arithmetic on them loses nothing."""
    return complex if any(np.iscomplexobj(a) and np.any(np.imag(a)) for a in arrays) else float


def frozen(a, dtype=None) -> np.ndarray:
    """`a` as a read-only array of `dtype`; None keeps a complex array
    complex128 and makes any other float64.  One that already is read-only,
    owns its data and has that dtype is kept as it is; anything else is
    copied once, so the caller's array stays writable and is never aliased."""
    if dtype is None:
        dtype = complex if np.iscomplexobj(a) else float
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata
            and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a


def hermitianize(m: np.ndarray) -> np.ndarray:
    """The Hermitian part (M + M^dagger)/2 of a matrix or of each matrix of a stack."""
    return (m + np.conj(m).swapaxes(-1, -2)) / 2


def _numeric(m) -> np.ndarray:
    """`m` as an array of at least two dimensions; a floating or complex
    ndarray is returned as it is, anything else as float64."""
    a = np.asarray(m)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    if a.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    return a


def hermitian_psd(m, psd: bool = True) -> np.ndarray:
    """Per matrix of a (..., d, d) stack: Hermitian within HERMITIAN_ATOL and,
    when `psd`, no eigenvalue of its Hermitian part below PSD_EIG_FLOOR.

    The eigenvalues are taken only when every matrix is Hermitian.  A
    non-square shape is not Hermitian.  ndarray input is read in place; the
    one temporary of its size holds M^dagger - M, then (M + M^dagger)/2.
    """
    a = _numeric(m)
    if a.shape[-1] != a.shape[-2]:
        return np.zeros(a.shape[:-2], dtype=bool)
    buf = np.conj(a)
    adjoint = buf.swapaxes(-1, -2)
    adjoint -= a
    ok = np.abs(adjoint).max(axis=(-2, -1)) <= HERMITIAN_ATOL
    if psd and ok.all():
        np.conj(a, out=buf)
        adjoint += a
        adjoint /= 2
        ok = np.linalg.eigvalsh(adjoint).min(axis=-1) >= PSD_EIG_FLOOR
    return ok


def _unit_trace(a: np.ndarray) -> np.ndarray:
    return np.abs(np.trace(a, axis1=-2, axis2=-1) - 1.0) <= TRACE_ATOL


def require_density(m, what: str = "state") -> np.ndarray:
    """`m` as an array, not copied, once it is checked to be a density matrix."""
    a = _numeric(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {a.shape}")
    if not hermitian_psd(a):
        raise ValidationError(f"{what} is not positive semi-definite within tolerance")
    if not _unit_trace(a):
        raise ValidationError(f"{what} has trace {np.trace(a).real!r}, expected 1")
    return a


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition, of a matrix or of
    each matrix of a (..., d, d) stack.

    Idempotent input (a projector) is its own square root and is returned
    unchanged, keeping projective measurements exact.  Eigenvalues in
    [PSD_EIG_FLOOR, 0) are clipped to 0 before square-rooting; anything below
    the floor raises NotPsdError.
    """
    a = np.array(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not hermitian_psd(a, psd=False).all():
        raise ValidationError("psd_sqrt requires Hermitian input")
    rest = np.abs(a @ a - a).max(axis=(-2, -1)) > 1e-12  # not projectors
    evals, vecs = np.linalg.eigh(hermitianize(a[rest]))
    if evals.size and evals.min() < PSD_EIG_FLOOR:
        raise NotPsdError(f"eigenvalue {evals.min():g} below PSD floor {PSD_EIG_FLOOR:g}")
    root = np.sqrt(np.clip(evals, 0.0, None))
    a[rest] = hermitianize((vecs * root[..., None, :]) @ np.conj(vecs).swapaxes(-1, -2))
    return a


def trace_distance(rho, sigma) -> float:
    """(1/2) tr |rho - sigma| for density matrices of equal dimension."""
    rho = require_density(rho, "rho")
    sigma = require_density(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise DimensionError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    evals = np.linalg.eigvalsh(hermitianize(rho - sigma))
    return float(0.5 * np.sum(np.abs(evals)))


def tensor(*mats) -> np.ndarray:
    """Kronecker product of one or more matrices, leftmost factor first."""
    if not mats:
        raise DimensionError("tensor() needs at least one matrix")
    out = as_matrix(mats[0])
    for m in mats[1:]:
        out = np.kron(out, as_matrix(m))
    return out


def dimensions(dims: Sequence[int], count: int | None = None) -> tuple[int, ...]:
    """Subsystem dimensions as a tuple of Python ints, once each is a positive
    integer and, given `count`, there are that many; else DimensionError."""
    dims = tuple(whole(d, "subsystem dimension", error=DimensionError) for d in dims)
    if count is not None and len(dims) != count:
        raise DimensionError(f"expected {count} subsystem dimensions, got {dims}")
    return dims


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in `keep`.

    `dims` lists the subsystem dimensions left to right; kept factors stay in
    their original order.  An empty `keep` returns the 1x1 matrix [[tr m]].
    """
    m = require_square(m)
    dims = dimensions(dims)
    if m.shape[0] != int(np.prod(dims)):
        raise DimensionError(f"matrix dimension {m.shape[0]} != product of dims {dims}")
    n = len(dims)
    keep = sorted({whole(k, "keep index", minimum=0, error=DimensionError) for k in keep})
    if keep and keep[-1] >= n:
        raise DimensionError(f"keep indices {keep} out of range for {n} factors")
    if not keep:
        return np.array([[np.trace(m)]], dtype=complex)
    tens = m.reshape(dims + dims)
    # contract bra/ket axis pairs of the traced factors
    for j in reversed([i for i in range(n) if i not in keep]):
        tens = np.trace(tens, axis1=j, axis2=j + tens.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return tens.reshape(d_keep, d_keep)


def permutation_rows(a) -> bool:
    """Whether `a` is a non-empty 2-D array each of whose rows permutes
    range(a.shape[1])."""
    a = np.asarray(a)
    return (a.ndim == 2 and a.size > 0
            and bool((np.sort(a, axis=1) == np.arange(a.shape[1])).all()))
