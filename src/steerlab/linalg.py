"""Dense complex linear algebra helpers shared by every other module.

All matrices are plain ``numpy.ndarray`` objects with dtype complex128.
Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of the
computational-basis index.
"""

from __future__ import annotations

from collections.abc import Sequence

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


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, marked unwritable: for a fresh array a container keeps."""
    a.setflags(write=False)
    return a


def read_only_copy(a: ComplexArray) -> ComplexArray:
    """A copy that cannot be written, for arrays a validated container keeps."""
    return read_only(a.copy())


def stacked(items: Sequence[npt.ArrayLike], shape: tuple[int, ...], what: str) -> ComplexArray:
    """Arrays of one shape as one complex (K, *shape) array, finite (``as_complex``).

    The whole sequence is converted in one ``np.asarray`` and its shape
    checked once.  Only when that conversion fails or gives another shape
    are the items read one by one, to raise DimensionError naming the first
    item of another shape; so a wrong shape is reported before any
    non-finite entry.  An array of the right shape and dtype is not copied.
    """
    try:
        out = np.asarray(items, dtype=np.complex128)
    except (ValueError, TypeError):
        out = None
    if out is None or out.shape != (len(items), *shape):
        for i, item in enumerate(items):
            if np.shape(item) != shape:
                raise DimensionError(f"{what} {i} has shape {np.shape(item)}, expected {shape}")
    return as_complex(items if out is None else out).reshape(-1, *shape)


def outers(rows: ComplexArray) -> ComplexArray:
    """|v><v| for each row v of a (K, d) array, as one (K, d, d) array."""
    return rows[:, :, None] * rows[:, None, :].conj()


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


# rows and columns of one block in the passes that read a 2^N x 2^N matrix
# piecewise: a 64 x 64 complex block is 64 KiB, so a block and its mirror
# stay in a core's cache
TILE = 64


def hermiticity_residuals(stack: ComplexArray) -> npt.NDArray[np.float64]:
    """Largest entry of |A - A^H| for each matrix A of a (..., d, d) stack.

    The matrices are read in TILE x TILE tiles (i, j) with j <= i, each
    compared with the conjugate transpose of its mirror tile (j, i); a
    diagonal tile is its own mirror, and a matrix with d <= TILE is one
    tile.  |a_rc - conj(a_cr)| and |a_cr - conj(a_rc)| are the same float,
    so the result is bitwise max |A - A^H|, and no temporary is larger than
    one tile of the stack.  A NaN or infinite entry makes its matrix's
    result NaN or infinite (inf - inf is NaN, and np.max and np.maximum
    carry NaN from tile to tile); ``DensityMatrix`` decides finiteness so
    when it keeps no low-rank factor, whose remainder would prove it.
    """
    d = stack.shape[-1]
    out = np.zeros(stack.shape[:-2])
    for i in range(0, d, TILE):
        for j in range(0, i + 1, TILE):
            # a C-ordered conjugate, so the subtraction and np.abs run along rows
            mirror = stack[..., j : j + TILE, i : i + TILE].swapaxes(-1, -2)
            difference = np.conjugate(mirror, order="C")
            np.subtract(stack[..., i : i + TILE, j : j + TILE], difference, out=difference)
            np.maximum(out, np.max(np.abs(difference), axis=(-2, -1)), out=out)
    return out[()]


def has_cholesky(stack: ComplexArray) -> bool:
    """Whether every matrix of a (..., d, d) stack has a Cholesky factor.

    The PSD rule of every validated operator A, asked of A + ``config.PSD_TOL``
    * I: it holds exactly when no eigenvalue of A lies below -``PSD_TOL``.
    Only the lower triangle is read.
    """
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


def purities(stack: ComplexArray) -> npt.NDArray[np.float64]:
    """tr(A^2) / tr(A)^2 for each matrix A of a (K, d, d) stack; 1 for a pure state.

    Raises DegenerateInputError when a trace is (numerically) zero.
    """
    tr = np.trace(stack, axis1=1, axis2=2)
    if np.any(np.abs(tr) < config.ZERO_FLOOR):
        raise DegenerateInputError("purity of a (numerically) zero-trace operator is undefined")
    return np.einsum("kij,kji->k", stack, stack).real / tr.real**2


def phase_coincidences(
    rows: ComplexArray, tol: float = config.REQUIREMENT_TOL
) -> npt.NDArray[np.bool_]:
    """Which rows agree with which up to a global phase.

    Entry (i, j) is 1 - |<r_i|r_j>| / (|r_i| |r_j|) < ``tol``, from one
    matrix product for all pairs, so the rows need not be unit vectors; a
    zero row raises DegenerateInputError.  The relation is not transitive:
    u may coincide with v and v with w while u does not coincide with w.
    """
    gram = rows.conj() @ rows.T
    norms = np.sqrt(gram.diagonal().real)
    if norms.min(initial=np.inf) < config.ZERO_FLOOR:
        raise DegenerateInputError("phase comparison with a zero vector is undefined")
    return 1.0 - np.abs(gram) / (norms[:, None] * norms) < tol


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
