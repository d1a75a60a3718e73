"""State containers, the worked example states, random samplers and JSON I/O.

Two containers are used throughout: ``EnsembleState`` for explicit pure-state
decompositions sum_a p_a |psi_a><psi_a| and ``DensityMatrix`` for operators
given directly.  Both carry their qubit count; qubit 0 is the leftmost tensor
factor.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import config
from ._schema import (
    complex_entry,
    expect_int,
    expect_list,
    expect_mapping,
    expect_number,
    parse_matrix,
    parse_json,
    parse_vector,
    required,
)
from .errors import DimensionError, ParseError, ValidationError
from .linalg import (
    TILE,
    ComplexArray,
    as_complex,
    canonical_phase,
    has_cholesky,
    hermiticity_residuals,
    read_only,
    read_only_copy,
)


class BoundaryThetaWarning(UserWarning):
    """A mixing angle sits on the boundary where one branch has weight zero."""


@dataclass(frozen=True, eq=False)
class EnsembleState:
    """Convex mixture of pure states, sum_a weights[a] |vectors[a]><vectors[a]|.

    Invariants, checked on construction: every weight is finite and positive,
    the weights sum to one within 1e-10, every vector is finite and unit norm
    on 2**n_qubits amplitudes, and sum_a p_a ||psi_a||^2 = 1 within 1e-10.
    ``vectors`` is a read-only (T, 2**n_qubits) copy of the input, one row
    per term.
    """

    n_qubits: int
    weights: tuple[float, ...]
    vectors: ComplexArray = field(repr=False)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise DimensionError(f"n_qubits must be positive, got {self.n_qubits}")
        dim = config.capped_dim(self.n_qubits)
        weights = tuple(float(w) for w in self.weights)
        if len(weights) == 0 or len(weights) != len(self.vectors):
            raise ValidationError("ensemble needs matching, non-empty weights and vectors")
        # every comparison with NaN is false, so the checks below would pass it
        if not all(map(math.isfinite, weights)):
            raise ValidationError("ensemble weights must be finite")
        if any(w <= 0.0 for w in weights):
            raise ValidationError("ensemble weights must be positive")
        if abs(sum(weights) - 1.0) > config.WEIGHT_TOL:
            raise ValidationError(f"ensemble weights sum to {sum(weights)!r}, not 1")
        rows = [np.ravel(v) for v in self.vectors]
        wrong = [i for i, row in enumerate(rows) if row.size != dim]
        if wrong:
            i = wrong[0]
            raise DimensionError(
                f"ensemble vector {i} has {rows[i].size} amplitudes, expected {dim}"
            )
        vectors = read_only_copy(as_complex(rows))
        squared_norms = np.einsum("ti,ti->t", vectors.conj(), vectors).real
        unnormalized = np.flatnonzero(np.abs(np.sqrt(squared_norms) - 1.0) > config.NORM_TOL)
        if unnormalized.size:
            raise ValidationError(f"ensemble vector {unnormalized[0]} is not normalized")
        trace = float(np.array(weights) @ squared_norms)
        if abs(trace - 1.0) > config.WEIGHT_TOL:
            raise ValidationError(f"ensemble trace {trace!r} is not 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n_terms(self) -> int:
        return len(self.weights)


# a pivoted partial Cholesky factor takes at most dim // 32 columns, so at
# n <= 4 qubits (dim <= 16) the full factor always decides
_PIVOT_SHARE = 32


def _low_rank_psd(m: ComplexArray, tol: float) -> ComplexArray | None:
    """A pivoted partial Cholesky factor L with ||L L^H - m||_F < tol, or None.

    Columns enter L largest remaining diagonal first, each read from the
    lower triangle less its projection on the columns taken, until the
    remaining diagonal's squared sum falls below tol**2, the next pivot is
    not positive, or len(m) // 32 columns are taken.  Only in the first
    case is the remainder E = L L^H - m formed: all of it, ``TILE`` rows at
    a time.  L L^H is Hermitian, so m - m^H = E^H - E, and ||E||_F < tol
    proves m finite (NaN or inf makes ||E|| so), Hermitian within 2 tol
    and, by Weyl, without an eigenvalue below -tol.  Returns L, a compact
    (len(m), r) copy; None means undecided, not indefinite.  Non-finite or
    huge input may warn on its way to None; the caller silences that.
    """
    dim = len(m)
    budget = dim // _PIVOT_SHARE
    factor = np.zeros((dim, budget), dtype=np.complex128)
    remaining = m.diagonal().real.copy()
    for k in range(budget + 1):
        if remaining @ remaining < tol**2:
            break
        j = int(np.argmax(remaining))
        pivot = remaining[j]
        if k == budget or pivot <= 0.0:
            return None
        column = factor[:, k]
        column[j:] = m[j:, j]
        column[:j] = m[j, :j].conj()
        column -= factor[:, :k] @ factor[j, :k].conj()
        column[j] = pivot
        column /= np.sqrt(pivot)
        remaining -= column.real**2 + column.imag**2
        # cleared exactly, so rounding cannot make the same pivot twice
        remaining[j] = 0.0
    taken = factor[:, :k]
    adjoint = taken.conj().T
    # one block for all rows (dim is a power of two): a fresh TILE x dim
    # array per block is mapped anew, a quarter of the remainder's time
    block = np.empty((min(TILE, dim), dim), dtype=np.complex128)
    squared = 0.0
    for i in range(0, dim, TILE):
        np.matmul(taken[i : i + TILE], adjoint, out=block)
        block -= m[i : i + TILE]
        squared += np.vdot(block, block).real
    return taken.copy() if squared < tol**2 else None


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator on n qubits.

    Invariants: finite, Hermitian within 1e-10, positive semidefinite within
    1e-9 (no eigenvalue below -1e-9), unit trace within 1e-10, checked in
    that order.  A matrix is accepted on one of two paths.  First, a
    pivoted partial Cholesky factor L of at most 2**n_qubits // 32 columns
    whose remainder E = L L^H - matrix has ||E||_F below
    ``config.ZERO_FLOOR`` (``_low_rank_psd``) is ``factor``, read-only and
    (2**n_qubits, r): as matrix - matrix^H = E^H - E, it proves the first
    three invariants at once.  Otherwise, and always at n_qubits <= 4,
    ``factor`` is None and the checks run in turn: finiteness from the
    Hermiticity residual, which is not finite exactly when an entry is not
    (or a difference overflows), then Hermiticity, then a full Cholesky
    factor of matrix + 1e-9 * I (``linalg.has_cholesky``), which reads only
    the lower triangle.  The only full-size array a low-rank input costs is
    ``matrix``, a read-only copy of the input; the full factor is taken on
    that copy, shifted in place and restored.
    """

    n_qubits: int
    matrix: ComplexArray = field(repr=False)
    factor: ComplexArray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        dim = 2**self.n_qubits
        if self.n_qubits < 1 or m.shape != (dim, dim):
            as_complex(m)
            raise DimensionError(
                f"density matrix of shape {m.shape} does not act on {self.n_qubits} qubits"
            )
        config.capped_dim(self.n_qubits)
        # NaN, inf or overflow leaves the remainder not finite, and no factor
        with np.errstate(invalid="ignore", over="ignore"):
            factor = _low_rank_psd(m, config.ZERO_FLOOR)
        kept = m.copy()
        if factor is None:
            # NaN or inf makes the residual so (inf - inf is NaN), and as_complex
            # raises; a finite difference that overflowed fails as not Hermitian
            with np.errstate(invalid="ignore"):
                residual = hermiticity_residuals(m)
            if not np.isfinite(residual):
                as_complex(m)
            if residual > config.HERMITICITY_TOL:
                raise ValidationError("density matrix is not Hermitian within 1e-10")
            # the kept copy is shifted in place for the full factor and its
            # diagonal then restored: m + PSD_TOL * eye(dim) would hold two
            # more 2^N x 2^N arrays
            diagonal = kept.ravel()[:: dim + 1]
            diagonal += config.PSD_TOL
            if not has_cholesky(kept):
                raise ValidationError("density matrix is not positive semidefinite within 1e-9")
            diagonal[:] = m.diagonal()
        trace = np.trace(m)
        if abs(trace.real - 1.0) > config.WEIGHT_TOL or abs(trace.imag) > config.WEIGHT_TOL:
            raise ValidationError(f"density matrix trace {trace!r} is not 1")
        object.__setattr__(self, "matrix", read_only(kept))
        if factor is not None:
            object.__setattr__(self, "factor", read_only(factor))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def basis_ket(n_qubits: int, index: int) -> ComplexArray:
    """Computational basis vector |index> on n qubits."""
    dim = 2**n_qubits
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for {n_qubits} qubits")
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 <= theta <= np.pi / 2:
        raise DimensionError(f"theta must lie in [0, pi/2], got {theta!r}")
    return theta


def two_qubit_theta_state(theta: float) -> EnsembleState:
    """Entangled pair cos(theta)|00> + sin(theta)|11> as a one-term ensemble."""
    theta = _check_theta(theta)
    v = np.zeros(4, dtype=np.complex128)
    v[0b00] = np.cos(theta)
    v[0b11] = np.sin(theta)
    v /= np.linalg.norm(v)
    return EnsembleState(2, (1.0,), (v,))


def lc4_states() -> tuple[ComplexArray, ComplexArray]:
    """The two orthogonal four-qubit linear-cluster vectors used by lc4_mixed."""
    a = np.zeros(16, dtype=np.complex128)
    a[0b0000] = 0.5
    a[0b1100] = 0.5
    a[0b0011] = 0.5
    a[0b1111] = -0.5
    b = np.zeros(16, dtype=np.complex128)
    b[0b0100] = 0.5
    b[0b1000] = 0.5
    b[0b0111] = 0.5
    b[0b1011] = -0.5
    return a, b


def lc4_mixed(theta: float) -> EnsembleState:
    """Rank-2 mixture cos^2(theta) |LC><LC| + sin^2(theta) |LC'><LC'|.

    Boundary angles 0 and pi/2 collapse the mixture to a single branch; they
    are permitted but flagged with BoundaryThetaWarning.
    """
    theta = _check_theta(theta)
    a, b = lc4_states()
    wa, wb = float(np.cos(theta) ** 2), float(np.sin(theta) ** 2)
    if wa <= config.WEIGHT_TOL or wb <= config.WEIGHT_TOL:
        warnings.warn(
            f"theta={theta!r} lies on the boundary; the mixture degenerates to one branch",
            BoundaryThetaWarning,
            stacklevel=2,
        )
        keep = a if wb <= config.WEIGHT_TOL else b
        return EnsembleState(4, (1.0,), (keep,))
    return EnsembleState(4, (wa / (wa + wb), wb / (wa + wb)), (a, b))


def density_of(ensemble: EnsembleState) -> DensityMatrix:
    """Density operator of an ensemble."""
    dim = 2**ensemble.n_qubits
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for w, v in zip(ensemble.weights, ensemble.vectors):
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(ensemble.n_qubits, rho)


def random_pure(n_qubits: int, seed: int) -> ComplexArray:
    """Haar-random unit vector on n qubits (deterministic per seed)."""
    if n_qubits < 1:
        raise DimensionError(f"n_qubits must be positive, got {n_qubits}")
    dim = config.capped_dim(n_qubits)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return canonical_phase(v / np.linalg.norm(v))


def random_mixed(n_qubits: int, rank: int, seed: int) -> EnsembleState:
    """Random mixture of `rank` orthonormal Haar vectors with Dirichlet weights.

    The weights are resampled (from the same deterministic stream) until the
    smallest one clears 1e-6, so the numerical rank of the density operator is
    exactly ``rank``.
    """
    if n_qubits < 1:
        raise DimensionError(f"n_qubits must be positive, got {n_qubits}")
    dim = config.capped_dim(n_qubits)
    if not 1 <= rank <= dim:
        raise DimensionError(f"rank must lie in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    vectors = canonical_phase(q.T)
    if rank == 1:
        return EnsembleState(n_qubits, (1.0,), vectors)
    weights = rng.dirichlet(np.ones(rank))
    while np.min(weights) < 1e-6:
        weights = rng.dirichlet(np.ones(rank))
    weights = weights / np.sum(weights)
    return EnsembleState(n_qubits, tuple(float(w) for w in weights), vectors)


# ---------------------------------------------------------------------------
# JSON document handling
# ---------------------------------------------------------------------------


def load_state(doc: str | Mapping) -> EnsembleState | DensityMatrix:
    """Parse a state document (JSON text or parsed mapping).

    Schema::

        {"n_qubits": N,
         "state": {"type": "ensemble",
                   "terms": [{"weight": w, "vector": [[re, im], ...]}, ...]}}

    or with ``{"type": "density", "matrix": [[[re, im], ...], ...]}`` as the
    state node.  Schema problems raise ParseError with the offending path;
    well-formed documents that break a state invariant raise ValidationError.
    """
    root = expect_mapping(parse_json(doc, ""), "")
    n = expect_int(required(root, "n_qubits", "n_qubits"), "n_qubits")
    if n < 1:
        raise ParseError(f"n_qubits must be positive, got {n}", "n_qubits")
    state = expect_mapping(required(root, "state", "state"), "state")
    kind = state.get("type")
    dim = 2**n
    if kind == "ensemble":
        terms = expect_list(state.get("terms"), "state.terms")
        if not terms:
            raise ParseError("ensemble needs at least one term", "state.terms")
        weights: list[float] = []
        vectors: list[ComplexArray] = []
        for i, term in enumerate(terms):
            tpath = f"state.terms[{i}]"
            tmap = expect_mapping(term, tpath)
            weight = required(tmap, "weight", f"{tpath}.weight")
            weights.append(expect_number(weight, f"{tpath}.weight"))
            vec = parse_vector(required(tmap, "vector", f"{tpath}.vector"), f"{tpath}.vector")
            if vec.shape[0] != dim:
                raise ParseError(
                    f"vector has {vec.shape[0]} amplitudes, expected {dim}", f"{tpath}.vector"
                )
            vectors.append(vec)
        return EnsembleState(n, tuple(weights), tuple(vectors))
    if kind == "density":
        m = parse_matrix(required(state, "matrix", "state.matrix"), "state.matrix")
        if m.shape != (dim, dim):
            raise ParseError(f"matrix has shape {m.shape}, expected {(dim, dim)}", "state.matrix")
        return DensityMatrix(n, m)
    raise ParseError(f"unknown state type {kind!r}", "state.type")


def save_state(state: EnsembleState | DensityMatrix) -> dict:
    """Inverse of load_state; returns a plain JSON-serializable document."""
    if isinstance(state, EnsembleState):
        return {
            "n_qubits": state.n_qubits,
            "state": {
                "type": "ensemble",
                "terms": [
                    {"weight": w, "vector": [complex_entry(z) for z in v]}
                    for w, v in zip(state.weights, state.vectors)
                ],
            },
        }
    if isinstance(state, DensityMatrix):
        return {
            "n_qubits": state.n_qubits,
            "state": {
                "type": "density",
                "matrix": [[complex_entry(z) for z in row] for row in state.matrix],
            },
        }
    raise ValidationError(f"cannot serialize {type(state).__name__}")


__all__ = [
    "BoundaryThetaWarning",
    "DensityMatrix",
    "EnsembleState",
    "basis_ket",
    "density_of",
    "lc4_mixed",
    "lc4_states",
    "load_state",
    "random_mixed",
    "random_pure",
    "save_state",
    "two_qubit_theta_state",
]
