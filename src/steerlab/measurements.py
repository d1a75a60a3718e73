"""Projective measurement settings on Alice's qubits, plus protocol containers.

A setting is a complete set of orthogonal projectors on 2**M dimensions with
bitstring outcome labels.  Three constructors cover everything the package
needs: per-qubit Pauli product bases, explicit rank-1 vector lists, and the
one-parameter interpolating family built from a fixed pairing of orthonormal
basis vectors.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import config
from ._schema import (
    complex_entry,
    expect_int,
    expect_list,
    expect_mapping,
    expect_number,
    parse_json,
    parse_vector,
    required,
)
from .errors import (
    DimensionError,
    ParseError,
    UnsupportedSettingError,
    ValidationError,
)
from .linalg import (
    ComplexArray,
    as_complex,
    canonical_phase,
    hermiticity_residuals,
    n_qubits_of,
    outers,
    phase_coincidences,
    read_only,
    read_only_copy,
    stacked,
)

_PAULI_BASES = {
    "z": (np.array([1.0, 0.0], dtype=np.complex128), np.array([0.0, 1.0], dtype=np.complex128)),
    "x": (
        np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0),
        np.array([1.0, -1.0], dtype=np.complex128) / np.sqrt(2.0),
    ),
    "y": (
        np.array([1.0, 1.0j], dtype=np.complex128) / np.sqrt(2.0),
        np.array([1.0, -1.0j], dtype=np.complex128) / np.sqrt(2.0),
    ),
}


def pauli_axis_basis(axis: str) -> tuple[ComplexArray, ComplexArray]:
    """(+1, -1) eigenvectors of the named Pauli operator, axis in {'x','y','z'}."""
    try:
        plus, minus = _PAULI_BASES[axis]
    except (KeyError, TypeError):
        raise UnsupportedSettingError(
            f"unknown Pauli axis {axis!r}, expected one of 'x', 'y', 'z'"
        ) from None
    return plus.copy(), minus.copy()


def bitstring(index: int, width: int) -> str:
    return format(index, f"0{width}b")


@dataclass(frozen=True, eq=False)
class BellLikeBasis:
    """Angle-parametrized basis over a fixed pairing of orthonormal vectors.

    ``pairs[i]`` holds the two partner vectors of slot i; the derived setting
    mixes each pair with cos(beta) / sin(beta) weights.  All 2**M base vectors
    must be mutually orthonormal.
    """

    beta: float
    pairs: tuple[tuple[ComplexArray, ComplexArray], ...]
    family_label: str | None = None

    def __post_init__(self) -> None:
        pairs = tuple(
            (as_complex(p).ravel(), as_complex(m).ravel()) for p, m in self.pairs
        )
        if not pairs:
            raise ValidationError("basis needs at least one pair")
        flat = [v for pair in pairs for v in pair]
        dim = flat[0].shape[0]
        if any(v.shape[0] != dim for v in flat):
            raise DimensionError("family vectors have mixed dimensions")
        m = n_qubits_of(dim)
        if len(flat) != dim:
            raise DimensionError(
                f"family has {len(flat)} vectors, expected {dim} for {m} qubits"
            )
        flat = np.array(flat)
        if np.max(np.abs(flat.conj() @ flat.T - np.eye(dim))) > config.SETTING_TOL:
            raise ValidationError(
                f"family vectors are not orthonormal within {config.SETTING_TOL:g}"
            )
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "pairs", pairs)

    @property
    def m_qubits(self) -> int:
        return n_qubits_of(2 * len(self.pairs))

    @property
    def n_slots(self) -> int:
        return len(self.pairs)


def computational_family(m_qubits: int) -> tuple[tuple[ComplexArray, ComplexArray], ...]:
    """Computational basis paired consecutively: (|0..0>,|0..1>), (|0..10>,|0..11>), ..."""
    if m_qubits < 1:
        raise DimensionError(f"m_qubits must be positive, got {m_qubits}")
    dim = config.capped_dim(m_qubits)
    eye = np.eye(dim, dtype=np.complex128)
    return tuple((eye[:, 2 * i].copy(), eye[:, 2 * i + 1].copy()) for i in range(dim // 2))


def same_family(a: BellLikeBasis, b: BellLikeBasis) -> bool:
    """Whether two bases are built over the same pairing (up to per-vector phases).

    Each vector of ``a`` must coincide with its partner in ``b`` under
    ``config.REQUIREMENT_TOL``.
    """
    if a.n_slots != b.n_slots:
        return False
    rows = np.array([v for basis in (a, b) for pair in basis.pairs for v in pair])
    k = 2 * a.n_slots
    return bool(np.all(np.diagonal(phase_coincidences(rows)[:k, k:])))


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """Complete projective measurement on Alice's M qubits.

    ``projectors`` is one (K, d, d) array and ``vectors`` one (K, d) array or
    None; the first axis of both follows ``outcomes``, and both are read-only
    copies of the inputs.  Outcome labels are unique.  Given ``vectors``
    define a rank-1 setting and keep the constructor's sign conventions:
    they must be orthonormal and resolve the identity within 1e-10, and the
    projectors are derived from them as their outer products, replacing
    given projectors, which must each lie within 1e-9 of them.  Bare
    projectors must be Hermitian and idempotent within 1e-10, pairwise
    orthogonal and sum to the identity within 1e-10; when all have unit
    trace, their principal vectors become ``vectors``.
    """

    label: str
    m_qubits: int
    outcomes: tuple[str, ...]
    projectors: ComplexArray | None = field(default=None, repr=False)
    vectors: ComplexArray | None = field(default=None, repr=False)
    bell_like: BellLikeBasis | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        dim = 2**self.m_qubits
        tol = config.SETTING_TOL
        vectors = self.vectors
        if vectors is not None:
            # sum_a |u_a><u_a| = U^T U* = I and U* U^T = I bound the
            # completeness, idempotence and orthogonality residuals of the
            # outer products, which are exactly Hermitian: no projector is
            # checked on its own
            if self.projectors is not None and len(self.projectors) != len(vectors):
                raise ValidationError("vectors and projectors differ in count")
            try:
                # each vector raveled, in one conversion when all have dim entries
                vectors = np.asarray(vectors, dtype=np.complex128).reshape(len(vectors), dim)
            except (ValueError, TypeError):
                vectors = [np.ravel(v) for v in vectors]
            vectors = stacked(vectors, (dim,), "vector")
            stack = read_only(outers(vectors))
            if self.projectors is not None:
                given = stacked(self.projectors, (dim, dim), "projector")
                if np.max(np.abs(stack - given)) > config.SETTING_VECTOR_TOL:
                    gap = np.max(np.abs(stack - given), axis=(1, 2))
                    bad = np.flatnonzero(gap > config.SETTING_VECTOR_TOL)[0]
                    raise ValidationError(f"vector {bad} does not generate projector {bad}")
            if np.max(np.abs(vectors.T @ vectors.conj() - np.eye(dim))) > tol:
                raise ValidationError(f"vectors do not resolve the identity within {tol:g}")
            if np.max(np.abs(vectors.conj() @ vectors.T - np.eye(len(vectors)))) > tol:
                raise ValidationError(f"vectors are not orthonormal within {tol:g}")
        else:
            if self.projectors is None or len(self.projectors) == 0:
                raise ValidationError("setting needs at least one projector")
            stack = read_only_copy(stacked(self.projectors, (dim, dim), "projector"))
            not_hermitian = hermiticity_residuals(stack) > tol
            not_idempotent = np.max(np.abs(stack @ stack - stack), axis=(1, 2)) > tol
            bad = np.flatnonzero(not_hermitian | not_idempotent)
            if bad.size:
                i = bad[0]
                flaw = "Hermitian" if not_hermitian[i] else "idempotent"
                raise ValidationError(f"projector {i} is not {flaw} within {tol:g}")
            for i in range(len(stack) - 1):
                clash = np.flatnonzero(np.max(np.abs(stack[i] @ stack[i + 1 :]), axis=(1, 2)) > tol)
                if clash.size:
                    j = i + 1 + clash[0]
                    raise ValidationError(f"projectors {i} and {j} are not orthogonal")
            if np.max(np.abs(stack.sum(0) - np.eye(dim))) > tol:
                raise ValidationError(f"projectors do not sum to the identity within {tol:g}")
            if np.all(np.abs(np.trace(stack, axis1=1, axis2=2).real - 1.0) <= tol):
                vectors = canonical_phase(np.linalg.eigh(stack)[1][..., -1])
        outcomes = tuple(str(o) for o in self.outcomes)
        if len(outcomes) != len(stack):
            raise ValidationError("outcome labels and projectors differ in count")
        if len(set(outcomes)) != len(outcomes):
            raise ValidationError("outcome labels are not unique")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "projectors", stack)
        object.__setattr__(self, "vectors", None if vectors is None else read_only_copy(vectors))

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def dim(self) -> int:
        return 2**self.m_qubits

    def rank1_vectors(self) -> ComplexArray:
        if self.vectors is None:
            raise UnsupportedSettingError(
                f"setting {self.label!r} has projectors of rank > 1; no basis vectors exist"
            )
        return self.vectors


def _rank1_setting(
    label: str, vectors: ComplexArray, bell_like: BellLikeBasis | None = None
) -> MeasurementSetting:
    """Setting whose outcome i, the M-bit string of i, projects onto row i of ``vectors``."""
    m_qubits = n_qubits_of(len(vectors))
    return MeasurementSetting(
        label=label,
        m_qubits=m_qubits,
        outcomes=tuple(bitstring(i, m_qubits) for i in range(len(vectors))),
        vectors=vectors,
        bell_like=bell_like,
    )


def tensor_setting(axes: str | Sequence[str]) -> MeasurementSetting:
    """Product of single-qubit Pauli measurements, one axis character per qubit.

    Outcome label bit q picks the (+/-) eigenvector of qubit q's axis, so for
    ``axes='yx'`` the outcome ``'01'`` projects onto (y+) tensor (x-).
    """
    axes = "".join(axes)
    if not axes:
        raise DimensionError("axes must name at least one qubit")
    config.capped_dim(len(axes))
    # row i of the Kronecker product of the per-qubit bases, qubit 0 leftmost,
    # is the product vector of the bits of i; the unit seed keeps y's -0.0
    vectors = reduce(
        np.kron, (np.array(pauli_axis_basis(c)) for c in axes), np.ones((1, 1), np.complex128)
    )
    return _rank1_setting(axes, vectors)


def bell_like_setting(basis: BellLikeBasis) -> MeasurementSetting:
    """Rank-1 setting generated by a pairing at angle beta.

    Slot i contributes the two vectors

        cos(beta) |pair_i plus> + sin(beta) |pair_i minus>
        sin(beta) |pair_i plus> - cos(beta) |pair_i minus>

    ordered plus-block first (slots ascending) then minus-block (slots
    ascending), so the overlap matrix between two angles over one family is
    made of cos/sin multiples of the identity, block by block.
    """
    c, s = np.cos(basis.beta), np.sin(basis.beta)
    plus, minus = np.array(basis.pairs).swapaxes(0, 1)
    vectors = np.concatenate([c * plus + s * minus, s * plus - c * minus])
    return _rank1_setting(f"bell_like(beta={basis.beta:.6g})", vectors, basis)


def settings_equal(a: MeasurementSetting, b: MeasurementSetting) -> bool:
    """Whether two settings have the same projector set (labels ignored).

    Each projector of ``a`` takes the first still unmatched projector of ``b``
    within ``config.SETTING_TOL``, entrywise.  When both store vectors, one
    overlap product answers first for most unequal pairs: |u><u| and |v><v|
    within t entrywise give |<u|v>|^2 >= |u|^4 - d t |u|^2, and |u|^2 >=
    1 - t, so |<u|v>| >= 1 - (d + 2) t / 2 (1 - 3e-7 at the default cap
    d = 4096); a vector of ``a`` whose largest overlap is below 1 - 1e-6
    matches nothing.
    """
    if a.m_qubits != b.m_qubits or a.n_outcomes != b.n_outcomes:
        return False
    if a.vectors is not None and b.vectors is not None:
        overlaps = np.abs(a.vectors.conj() @ b.vectors.T)
        if overlaps.max(axis=1).min() < 1.0 - 1e-6:
            return False
    unmatched = np.ones(b.n_outcomes, dtype=bool)
    for p in a.projectors:
        close = np.max(np.abs(b.projectors - p), axis=(1, 2)) <= config.SETTING_TOL
        match = np.flatnonzero(unmatched & close)
        if match.size == 0:
            return False
        unmatched[match[0]] = False
    return True


@dataclass(frozen=True, eq=False)
class SteeringProtocol:
    """Two distinct complete settings on Alice's first M qubits.

    ``n_qubits`` may be left None for protocols meant to pair with any state;
    the certifier checks M < n at call time either way.
    """

    alice_qubits: int
    setting_1: MeasurementSetting
    setting_2: MeasurementSetting
    n_qubits: int | None = None

    def __post_init__(self) -> None:
        m = self.alice_qubits
        if m < 1:
            raise DimensionError(f"alice_qubits must be positive, got {m}")
        for k, s in ((1, self.setting_1), (2, self.setting_2)):
            if s.m_qubits != m:
                raise DimensionError(
                    f"setting {k} acts on {s.m_qubits} qubits, protocol says {m}"
                )
        if self.n_qubits is not None and self.n_qubits <= m:
            raise DimensionError(
                f"alice_qubits={m} must be smaller than n_qubits={self.n_qubits}"
            )
        if settings_equal(self.setting_1, self.setting_2):
            raise ValidationError("the two settings are identical as projector sets")

    @property
    def settings(self) -> tuple[MeasurementSetting, MeasurementSetting]:
        return (self.setting_1, self.setting_2)


def tensor_protocol(
    axes_1: str, axes_2: str, n_qubits: int | None = None
) -> SteeringProtocol:
    """Protocol from two Pauli product settings, e.g. ('zz', 'yx')."""
    if len(axes_1) != len(axes_2):
        raise DimensionError("both settings must cover the same qubits")
    return SteeringProtocol(
        alice_qubits=len(axes_1),
        setting_1=tensor_setting(axes_1),
        setting_2=tensor_setting(axes_2),
        n_qubits=n_qubits,
    )


def random_rank1_setting(
    m_qubits: int, rng: np.random.Generator, label: str = "random"
) -> MeasurementSetting:
    """Haar-random orthonormal rank-1 setting on M qubits."""
    if m_qubits < 1:
        raise DimensionError(f"m_qubits must be positive, got {m_qubits}")
    dim = config.capped_dim(m_qubits)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return _rank1_setting(label, q.T.copy())


# ---------------------------------------------------------------------------
# JSON document handling
# ---------------------------------------------------------------------------


def _check_cap(m_qubits: int, path: str) -> None:
    """ParseError at ``path`` when 2**m_qubits exceeds the dimension cap."""
    try:
        config.capped_dim(m_qubits)
    except DimensionError as exc:
        raise ParseError(str(exc), path) from None


def load_measurement(doc: str | Mapping, path: str = "") -> MeasurementSetting:
    """Parse a measurement document.

    Schemas::

        {"type": "tensor_pauli", "axes": "yx"}
        {"type": "projectors", "vectors": [[[re, im], ...], ...]}
        {"type": "bell_like", "beta": 0.5,
         "phi_family": "computational" | [[[re, im], ...], ...]}
    """
    root = expect_mapping(parse_json(doc, path), path or "measurement")
    kind = root.get("type")
    prefix = f"{path}." if path else ""
    if kind == "tensor_pauli":
        axes = root.get("axes")
        if not isinstance(axes, str) or not axes:
            raise ParseError("expected a non-empty axis string", f"{prefix}axes")
        if any(c not in _PAULI_BASES for c in axes):
            raise ParseError(f"axes {axes!r} contain a non-Pauli character", f"{prefix}axes")
        _check_cap(len(axes), f"{prefix}axes")
        return tensor_setting(axes)
    if kind == "projectors":
        vecs = expect_list(root.get("vectors"), f"{prefix}vectors")
        parsed = [parse_vector(v, f"{prefix}vectors[{i}]") for i, v in enumerate(vecs)]
        count = len(parsed)
        if count < 2 or count & (count - 1):
            raise ParseError(f"{count} vectors cannot form a complete qubit setting", f"{prefix}vectors")
        if any(v.shape[0] != count for v in parsed):
            raise ParseError(f"vectors must each have {count} amplitudes", f"{prefix}vectors")
        try:
            return _rank1_setting("projectors", np.array(parsed))
        except ValidationError as exc:
            raise ParseError(str(exc), f"{prefix}vectors") from None
    if kind == "bell_like":
        beta = expect_number(required(root, "beta", f"{prefix}beta"), f"{prefix}beta")
        family = root.get("phi_family", "computational")
        if family == "computational":
            m = root.get("m_qubits", 1)
            m = expect_int(m, f"{prefix}m_qubits")
            if m < 1:
                raise ParseError(f"m_qubits must be positive, got {m}", f"{prefix}m_qubits")
            _check_cap(m, f"{prefix}m_qubits")
            basis = BellLikeBasis(beta, computational_family(m), "computational")
        else:
            vecs = expect_list(family, f"{prefix}phi_family")
            parsed = [
                parse_vector(v, f"{prefix}phi_family[{i}]") for i, v in enumerate(vecs)
            ]
            if len(parsed) < 2 or len(parsed) % 2:
                raise ParseError(
                    f"family must pair an even number of vectors, got {len(parsed)}",
                    f"{prefix}phi_family",
                )
            pairs = tuple(
                (parsed[2 * i], parsed[2 * i + 1]) for i in range(len(parsed) // 2)
            )
            basis = BellLikeBasis(beta, pairs)
        return bell_like_setting(basis)
    raise ParseError(f"unknown measurement type {kind!r}", f"{prefix}type")


def save_measurement(setting: MeasurementSetting) -> dict:
    """Inverse of load_measurement where a faithful schema exists."""
    basis = setting.bell_like
    if basis is not None:
        doc: dict = {"type": "bell_like", "beta": basis.beta}
        if basis.family_label == "computational":
            doc["phi_family"] = "computational"
            doc["m_qubits"] = basis.m_qubits
        else:
            flat = [v for pair in basis.pairs for v in pair]
            doc["phi_family"] = [[complex_entry(z) for z in v] for v in flat]
        return doc
    vectors = setting.rank1_vectors()
    return {
        "type": "projectors",
        "vectors": [[complex_entry(z) for z in v] for v in vectors],
    }


def load_protocol(doc: str | Mapping) -> SteeringProtocol:
    """Parse a protocol document.

    Schema::

        {"alice_qubits": M, "setting_1": <measurement>, "setting_2": <measurement>}
    """
    root = expect_mapping(parse_json(doc, ""), "")
    m = expect_int(required(root, "alice_qubits", "alice_qubits"), "alice_qubits")
    keys = ("setting_1", "setting_2")
    settings = [load_measurement(required(root, key, key), key) for key in keys]
    for key, s in zip(keys, settings):
        if s.m_qubits != m:
            raise ParseError(
                f"setting acts on {s.m_qubits} qubits but alice_qubits is {m}", key
            )
    return SteeringProtocol(alice_qubits=m, setting_1=settings[0], setting_2=settings[1])


def save_protocol(protocol: SteeringProtocol) -> dict:
    return {
        "alice_qubits": protocol.alice_qubits,
        "setting_1": save_measurement(protocol.setting_1),
        "setting_2": save_measurement(protocol.setting_2),
    }


__all__ = [
    "BellLikeBasis",
    "MeasurementSetting",
    "SteeringProtocol",
    "bell_like_setting",
    "bitstring",
    "computational_family",
    "load_measurement",
    "load_protocol",
    "pauli_axis_basis",
    "random_rank1_setting",
    "same_family",
    "save_measurement",
    "save_protocol",
    "settings_equal",
    "tensor_protocol",
    "tensor_setting",
]
