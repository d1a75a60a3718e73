"""Dense complex linear algebra helpers shared by every other module.

All matrices are plain ``numpy.ndarray`` objects with dtype complex128.
Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of the
computational-basis index.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import numpy.typing as npt

from . import config
from .errors import DegenerateInputError, DimensionError, ValidationError

ComplexArray = npt.NDArray[np.complex128]


def as_complex(a: npt.ArrayLike) -> ComplexArray:
    """Coerce to a complex128 array, rejecting non-finite entries."""
    out = np.asarray(a, dtype=np.complex128)
    if not (np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))):
        raise ValidationError("array contains non-finite entries")
    return out


def outer(u: npt.ArrayLike, v: npt.ArrayLike | None = None) -> ComplexArray:
    """|u><v| as a matrix; v defaults to u."""
    u = as_complex(u).ravel()
    v = u if v is None else as_complex(v).ravel()
    return np.outer(u, v.conj())


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def is_hermitian(a: npt.ArrayLike, tol: float = config.HERMITICITY_TOL) -> bool:
    a = as_complex(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and bool(
        np.max(np.abs(a - a.conj().T), initial=0.0) <= tol
    )


def require_square(a: ComplexArray, who: str) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{who} expects a square matrix, got shape {a.shape}")
    return a.shape[0]


def partial_trace(rho: npt.ArrayLike, n_qubits: int, traced: Iterable[int]) -> ComplexArray:
    """Trace out the named qubits of an n-qubit operator.

    Parameters
    ----------
    rho : array_like
        2^n x 2^n matrix.
    n_qubits : int
        Total qubit count n.
    traced : iterable of int
        Qubit indices to remove, each in range(n).  Qubit 0 is the leftmost
        factor.  The kept qubits retain their relative order.

    Returns
    -------
    numpy.ndarray
        2^k x 2^k matrix on the kept qubits, k = n - len(traced).
    """
    rho = as_complex(rho)
    dim = require_square(rho, "partial_trace")
    if n_qubits < 1 or dim != 2**n_qubits:
        raise DimensionError(
            f"matrix of shape {rho.shape} does not act on {n_qubits} qubits"
        )
    traced_list = sorted(set(int(q) for q in traced))
    if traced_list and (traced_list[0] < 0 or traced_list[-1] >= n_qubits):
        raise DimensionError(f"traced qubits {traced_list} out of range for n={n_qubits}")
    if len(traced_list) == n_qubits:
        return np.array([[np.trace(rho)]], dtype=np.complex128)
    t = rho.reshape([2] * (2 * n_qubits))
    for count, q in enumerate(traced_list):
        ax = q - count
        # ket and bra axes of the current tensor sit n_remaining apart
        t = np.trace(t, axis1=ax, axis2=ax + (n_qubits - count))
    keep = n_qubits - len(traced_list)
    return t.reshape(2**keep, 2**keep)


def hermitian_eig(
    a: npt.ArrayLike, tol: float = config.HERMITICITY_TOL
) -> tuple[npt.NDArray[np.float64], ComplexArray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvectors as columns.  Raises ValidationError when the input is not
    Hermitian within ``tol``.
    """
    a = as_complex(a)
    require_square(a, "hermitian_eig")
    if not is_hermitian(a, tol):
        raise ValidationError(f"matrix is not Hermitian within {tol:g}")
    w, v = np.linalg.eigh(a)
    return w, v


def purity(rho: npt.ArrayLike) -> float:
    """tr(rho_hat^2) for rho_hat = rho / tr(rho); 1 for pure states."""
    rho = as_complex(rho)
    require_square(rho, "purity")
    tr = np.trace(rho)
    if abs(tr) < 1e-14:
        raise DegenerateInputError("purity of a (numerically) zero-trace operator is undefined")
    return float(np.real(np.trace(rho @ rho)) / np.real(tr) ** 2)


def numerical_rank(rho: npt.ArrayLike, tol: float = config.RANK_TOL) -> int:
    """Count of eigenvalues above ``tol`` for a Hermitian matrix."""
    rho = as_complex(rho)
    require_square(rho, "numerical_rank")
    if not is_hermitian(rho):
        raise ValidationError("numerical_rank expects a Hermitian matrix")
    return int(np.sum(np.linalg.eigvalsh(rho) > tol))


def phase_equal(u: npt.ArrayLike, v: npt.ArrayLike, tol: float = config.PHASE_TOL) -> bool:
    """Whether two vectors agree up to a global phase.

    Compares 1 - |<u|v>| of the normalized vectors against ``tol``; a zero
    vector raises DegenerateInputError.
    """
    u = as_complex(u).ravel()
    v = as_complex(v).ravel()
    if u.shape != v.shape:
        raise DimensionError(f"phase_equal got shapes {u.shape} and {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-14 or nv < 1e-14:
        raise DegenerateInputError("phase comparison with a zero vector is undefined")
    return bool(1.0 - abs(np.vdot(u, v)) / (nu * nv) < tol)


def phase_coincidences(
    rows: ComplexArray, tol: float = config.PHASE_TOL
) -> npt.NDArray[np.bool_]:
    """Which rows agree with which up to a global phase.

    Entry (i, j) is 1 - |<r_i|r_j>| < ``tol``.  The rows must be unit vectors,
    as principal vectors are; this is the row-stacked ``phase_equal`` without
    the normalization, one matrix product for all pairs.
    """
    return 1.0 - np.abs(rows.conj() @ rows.T) < tol


def canonical_phase(v: npt.ArrayLike) -> ComplexArray:
    """Rotate a vector's global phase so its largest-magnitude entry is real positive."""
    v = as_complex(v).ravel()
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if abs(pivot) < 1e-14:
        raise DegenerateInputError("cannot fix the phase of a zero vector")
    return v * (abs(pivot) / pivot)


def principal_vector(rho: npt.ArrayLike) -> ComplexArray:
    """Top (largest-eigenvalue) eigenvector of a Hermitian matrix, phase-fixed."""
    w, v = hermitian_eig(rho)
    return canonical_phase(v[:, -1])
