"""Dense complex linear algebra helpers shared by every other module.

All matrices are plain ``numpy.ndarray`` objects with dtype complex128.
Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of the
computational-basis index.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np
import numpy.typing as npt

from . import config
from .errors import DegenerateInputError, DimensionError, ValidationError

ComplexArray = npt.NDArray[np.complex128]


def as_complex(a: npt.ArrayLike) -> ComplexArray:
    """Coerce to a complex128 array, rejecting non-finite entries."""
    out = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(out).all():
        raise ValidationError("array contains non-finite entries")
    return out


def read_only_copy(a: ComplexArray) -> ComplexArray:
    """A copy that cannot be written, for arrays a validated container keeps."""
    out = a.copy()
    out.setflags(write=False)
    return out


def stacked(items: Sequence[npt.ArrayLike], shape: tuple[int, ...], what: str) -> ComplexArray:
    """Arrays of one shape as one complex (K, *shape) array.

    Raises DimensionError naming the first item of another shape, before any
    entry is read.
    """
    for i, item in enumerate(items):
        if np.shape(item) != shape:
            raise DimensionError(f"{what} {i} has shape {np.shape(item)}, expected {shape}")
    return as_complex(items).reshape(-1, *shape)


def outer(u: npt.ArrayLike, v: npt.ArrayLike | None = None) -> ComplexArray:
    """|u><v| as a matrix; v defaults to u."""
    u = as_complex(u).ravel()
    v = u if v is None else as_complex(v).ravel()
    return np.outer(u, v.conj())


def outers(rows: ComplexArray) -> ComplexArray:
    """|v><v| for each row v of a (K, d) array, as one (K, d, d) array."""
    return rows[:, :, None] * rows[:, None, :].conj()


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def hermiticity_residuals(stack: ComplexArray) -> npt.NDArray[np.float64]:
    """Largest entry of |A - A^H| for each matrix A of a (..., d, d) stack."""
    # one contiguous transposed copy, conjugated and subtracted in place: the
    # same entrywise a - conj(b) as stack - stack.conj().swapaxes(-1, -2),
    # with one complex temporary in place of two
    difference = stack.swapaxes(-1, -2).copy()
    np.conjugate(difference, out=difference)
    np.subtract(stack, difference, out=difference)
    return np.max(np.abs(difference), axis=(-2, -1), initial=0.0)


def is_hermitian(a: npt.ArrayLike, tol: float = config.HERMITICITY_TOL) -> bool:
    a = as_complex(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and bool(
        hermiticity_residuals(a) <= tol
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


def purities(stack: ComplexArray) -> npt.NDArray[np.float64]:
    """``purity`` of each matrix of a (K, d, d) stack."""
    tr = np.trace(stack, axis1=1, axis2=2)
    if np.any(np.abs(tr) < config.ZERO_FLOOR):
        raise DegenerateInputError("purity of a (numerically) zero-trace operator is undefined")
    return np.einsum("kij,kji->k", stack, stack).real / tr.real**2


def purity(rho: npt.ArrayLike) -> float:
    """tr(rho_hat^2) for rho_hat = rho / tr(rho); 1 for pure states."""
    rho = as_complex(rho)
    require_square(rho, "purity")
    return float(purities(rho[None])[0])


def numerical_rank(rho: npt.ArrayLike, tol: float = config.RANK_TOL) -> int:
    """Count of eigenvalues above ``tol`` for a Hermitian matrix."""
    rho = as_complex(rho)
    require_square(rho, "numerical_rank")
    if not is_hermitian(rho):
        raise ValidationError("numerical_rank expects a Hermitian matrix")
    return int(np.sum(np.linalg.eigvalsh(rho) > tol))


def phase_equal(
    u: npt.ArrayLike, v: npt.ArrayLike, tol: float = config.REQUIREMENT_TOL
) -> bool:
    """Whether two vectors agree up to a global phase.

    Compares 1 - |<u|v>| of the normalized vectors against ``tol``; a zero
    vector raises DegenerateInputError.
    """
    u = as_complex(u).ravel()
    v = as_complex(v).ravel()
    if u.shape != v.shape:
        raise DimensionError(f"phase_equal got shapes {u.shape} and {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < config.ZERO_FLOOR or nv < config.ZERO_FLOOR:
        raise DegenerateInputError("phase comparison with a zero vector is undefined")
    return bool(1.0 - abs(np.vdot(u, v)) / (nu * nv) < tol)


def phase_coincidences(
    rows: ComplexArray, tol: float = config.REQUIREMENT_TOL
) -> npt.NDArray[np.bool_]:
    """Which rows agree with which up to a global phase.

    Entry (i, j) is 1 - |<r_i|r_j>| < ``tol``.  The rows must be unit vectors,
    as principal vectors are; this is the row-stacked ``phase_equal`` without
    the normalization, one matrix product for all pairs.
    """
    return 1.0 - np.abs(rows.conj() @ rows.T) < tol


def canonical_phase(v: npt.ArrayLike) -> ComplexArray:
    """Rotate a vector's global phase so its largest-magnitude entry is real positive.

    A 2-D array is a stack of row vectors, each rotated on its own; any other
    shape is flattened to one vector.
    """
    v = as_complex(v)
    rows = v if v.ndim == 2 else v.reshape(1, -1)
    pivots = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    if np.any(np.abs(pivots) < config.ZERO_FLOOR):
        raise DegenerateInputError("cannot fix the phase of a zero vector")
    # scalar division: numpy's array division rounds differently, and the
    # seeded samplers (random_pure, random_mixed) return vectors rotated here
    factors = np.array([abs(p) / p for p in pivots], dtype=np.complex128)
    out = rows * factors[:, None]
    return out if v.ndim == 2 else out[0]


def principal_vectors(
    stack: ComplexArray, tol: float = config.HERMITICITY_TOL
) -> ComplexArray:
    """Top eigenvector of each Hermitian matrix of a (K, d, d) stack, as K phase-fixed rows.

    Raises ValidationError when a matrix is not Hermitian within ``tol``.
    """
    if np.any(hermiticity_residuals(stack) > tol):
        raise ValidationError(f"matrix is not Hermitian within {tol:g}")
    _, v = np.linalg.eigh(stack)
    return canonical_phase(v[..., -1])
