"""State containers, the worked example states, random samplers and JSON I/O.

Two containers are used throughout: ``EnsembleState`` for explicit pure-state
decompositions sum_a p_a |psi_a><psi_a| and ``DensityMatrix`` for operators
given directly.  Both carry their qubit count; qubit 0 is the leftmost tensor
factor.
"""

from __future__ import annotations

import json
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
    parse_vector,
)
from .errors import DimensionError, ParseError, ValidationError
from .linalg import (
    ComplexArray,
    as_complex,
    canonical_phase,
    hermitian_eig,
    is_hermitian,
    outer,
)


class BoundaryThetaWarning(UserWarning):
    """A mixing angle sits on the boundary where one branch has weight zero."""


@dataclass(frozen=True)
class EnsembleState:
    """Convex mixture of pure states, sum_a weights[a] |vectors[a]><vectors[a]|.

    Invariants, checked on construction: every weight is positive, the weights
    sum to one within 1e-10, and every vector is unit norm on 2**n_qubits
    amplitudes.
    """

    n_qubits: int
    weights: tuple[float, ...]
    vectors: tuple[ComplexArray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise DimensionError(f"n_qubits must be positive, got {self.n_qubits}")
        if 2**self.n_qubits > config.max_dim():
            raise DimensionError(
                f"{self.n_qubits} qubits exceed the configured dimension cap "
                f"{config.max_dim()}"
            )
        weights = tuple(float(w) for w in self.weights)
        vectors = tuple(as_complex(v).ravel() for v in self.vectors)
        if len(weights) == 0 or len(weights) != len(vectors):
            raise ValidationError("ensemble needs matching, non-empty weights and vectors")
        if any(w <= 0.0 for w in weights):
            raise ValidationError("ensemble weights must be positive")
        if abs(sum(weights) - 1.0) > config.WEIGHT_TOL:
            raise ValidationError(f"ensemble weights sum to {sum(weights)!r}, not 1")
        dim = 2**self.n_qubits
        for i, v in enumerate(vectors):
            if v.shape != (dim,):
                raise DimensionError(
                    f"ensemble vector {i} has {v.shape[0]} amplitudes, expected {dim}"
                )
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise ValidationError(f"ensemble vector {i} is not normalized")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n_terms(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator on n qubits.

    Invariants: Hermitian within 1e-10, positive semidefinite within 1e-9,
    unit trace within 1e-10.
    """

    n_qubits: int
    matrix: ComplexArray = field(repr=False)

    def __post_init__(self) -> None:
        m = as_complex(self.matrix)
        dim = 2**self.n_qubits
        if self.n_qubits < 1 or m.shape != (dim, dim):
            raise DimensionError(
                f"density matrix of shape {m.shape} does not act on {self.n_qubits} qubits"
            )
        if dim > config.max_dim():
            raise DimensionError(
                f"{self.n_qubits} qubits exceed the configured dimension cap "
                f"{config.max_dim()}"
            )
        if not is_hermitian(m, config.HERMITICITY_TOL):
            raise ValidationError("density matrix is not Hermitian within 1e-10")
        if np.min(np.linalg.eigvalsh(m)) < -1e-9:
            raise ValidationError("density matrix is not positive semidefinite within 1e-9")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise ValidationError(f"density matrix trace {np.trace(m)!r} is not 1")
        object.__setattr__(self, "matrix", m)

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
        rho += w * outer(v)
    return DensityMatrix(ensemble.n_qubits, rho)


def random_pure(n_qubits: int, seed: int) -> ComplexArray:
    """Haar-random unit vector on n qubits (deterministic per seed)."""
    if n_qubits < 1:
        raise DimensionError(f"n_qubits must be positive, got {n_qubits}")
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
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
    dim = 2**n_qubits
    if not 1 <= rank <= dim:
        raise DimensionError(f"rank must lie in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    vectors = tuple(canonical_phase(q[:, i]) for i in range(rank))
    if rank == 1:
        return EnsembleState(n_qubits, (1.0,), vectors)
    weights = rng.dirichlet(np.ones(rank))
    while np.min(weights) < 1e-6:
        weights = rng.dirichlet(np.ones(rank))
    weights = weights / np.sum(weights)
    return EnsembleState(n_qubits, tuple(float(w) for w in weights), vectors)


def canonical_ensemble(rho: DensityMatrix, tol: float = config.RANK_TOL) -> EnsembleState:
    """Eigendecomposition of a density matrix as an ensemble.

    Eigenvalues at or below ``tol`` are dropped and the rest renormalized;
    eigenvector phases are fixed deterministically.
    """
    w, v = hermitian_eig(rho.matrix)
    keep = [i for i in range(len(w)) if w[i] > tol]
    if not keep:
        raise ValidationError("density matrix has no eigenvalue above the rank tolerance")
    total = float(np.sum(w[keep]))
    weights = tuple(float(w[i]) / total for i in keep)
    vectors = tuple(canonical_phase(v[:, i]) for i in keep)
    return EnsembleState(rho.n_qubits, weights, vectors)


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
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
    root = expect_mapping(doc, "")
    if "n_qubits" not in root:
        raise ParseError("missing required key", "n_qubits")
    n = expect_int(root["n_qubits"], "n_qubits")
    if n < 1:
        raise ParseError(f"n_qubits must be positive, got {n}", "n_qubits")
    if "state" not in root:
        raise ParseError("missing required key", "state")
    state = expect_mapping(root["state"], "state")
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
            if "weight" not in tmap:
                raise ParseError("missing required key", f"{tpath}.weight")
            weights.append(expect_number(tmap["weight"], f"{tpath}.weight"))
            if "vector" not in tmap:
                raise ParseError("missing required key", f"{tpath}.vector")
            vec = parse_vector(tmap["vector"], f"{tpath}.vector")
            if vec.shape[0] != dim:
                raise ParseError(
                    f"vector has {vec.shape[0]} amplitudes, expected {dim}", f"{tpath}.vector"
                )
            vectors.append(vec)
        return EnsembleState(n, tuple(weights), tuple(vectors))
    if kind == "density":
        if "matrix" not in state:
            raise ParseError("missing required key", "state.matrix")
        m = parse_matrix(state["matrix"], "state.matrix")
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
    "canonical_ensemble",
    "density_of",
    "lc4_mixed",
    "lc4_states",
    "load_state",
    "random_mixed",
    "random_pure",
    "save_state",
    "two_qubit_theta_state",
]
