"""Conditional-state assembly and the two-requirement paradox certifier.

Alice measures one of two complete settings on her M qubits; Bob's
unnormalized conditional states are

    rho_a^k = tr_A[(P_a^k (x) 1) rho],

whose traces are the outcome probabilities.  Summing the traces over both
complete settings always gives 2.  A local-hidden-state explanation forces the
same total down to tr(rho_B) = 1 whenever two structural requirements hold:
every nonzero-probability conditional state is pure, and no conditional state
of one setting coincides (up to phase) with one of the other setting.  The
certifier checks exactly those two requirements and reports the verdict with
the full per-outcome evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import config
from .config import Tolerances
from .errors import (
    DimensionError,
    PreconditionError,
    UnsupportedSettingError,
    ValidationError,
)
from .linalg import (
    ComplexArray,
    as_complex,
    is_hermitian,
    numerical_rank,
    outer,
    partial_trace,
    phase_coincidences,
    principal_vector,
    purity,
)
from .measurements import MeasurementSetting, SteeringProtocol, same_family
from .states import DensityMatrix, EnsembleState, density_of

PARADOX = "PARADOX"
NO_PARADOX_PURITY = "NO_PARADOX_PURITY"
NO_PARADOX_CROSS_DUPLICATE = "NO_PARADOX_CROSS_DUPLICATE"

DECOMPOSITION_GIVEN = "given"
DECOMPOSITION_EIGEN = "eigen"


@dataclass(frozen=True)
class ConditionalStateSet:
    """Bob's unnormalized conditional states for one setting.

    Operators follow the setting's outcome order; probabilities are the
    traces.  ``validate`` checks hermiticity, positivity, unit total
    probability and the non-signalling identity sum_a rho_a = rho_B.
    """

    setting_index: int
    setting_label: str
    bob_qubits: int
    outcomes: tuple[str, ...]
    operators: tuple[ComplexArray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        operators = tuple(as_complex(op) for op in self.operators)
        dim = 2**self.bob_qubits
        if len(operators) != len(self.outcomes):
            raise ValidationError("outcome labels and operators differ in count")
        for op in operators:
            if op.shape != (dim, dim):
                raise DimensionError(
                    f"conditional operator has shape {op.shape}, expected {(dim, dim)}"
                )
        object.__setattr__(self, "operators", operators)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([float(np.trace(op).real) for op in self.operators])

    def total(self) -> ComplexArray:
        out = np.zeros_like(self.operators[0])
        for op in self.operators:
            out = out + op
        return out

    def validate(self, rho_b: ComplexArray, tols: Tolerances | None = None) -> None:
        tols = tols or Tolerances()
        for label, op in zip(self.outcomes, self.operators):
            if not is_hermitian(op, tols.hermiticity):
                raise ValidationError(f"conditional state {label!r} is not Hermitian")
            if np.min(np.linalg.eigvalsh(op)) < -tols.hermiticity:
                raise ValidationError(f"conditional state {label!r} is not PSD")
        if abs(float(np.sum(self.probabilities)) - 1.0) > tols.marginal:
            raise ValidationError("outcome probabilities do not sum to 1")
        if np.linalg.norm(self.total() - rho_b) > tols.marginal:
            raise ValidationError("conditional states do not sum to Bob's marginal")


def bob_marginal(rho: DensityMatrix, alice_qubits: int) -> ComplexArray:
    """Bob's reduced state: Alice's qubits traced out."""
    if not 1 <= alice_qubits < rho.n_qubits:
        raise DimensionError(
            f"alice_qubits must lie in [1, {rho.n_qubits - 1}], got {alice_qubits}"
        )
    return partial_trace(rho.matrix, rho.n_qubits, range(alice_qubits))


def conditional_states(
    rho: DensityMatrix,
    protocol: SteeringProtocol,
    which: int,
    tols: Tolerances | None = None,
) -> ConditionalStateSet:
    """Bob's conditional states for setting ``which`` (1 or 2) of the protocol."""
    if which not in (1, 2):
        raise DimensionError(f"which must be 1 or 2, got {which}")
    m = protocol.alice_qubits
    n = rho.n_qubits
    if protocol.n_qubits is not None and protocol.n_qubits != n:
        raise DimensionError(
            f"protocol is bound to n={protocol.n_qubits} but the state has n={n}"
        )
    if m >= n:
        raise DimensionError(f"alice_qubits={m} leaves Bob empty for n={n}")
    setting = protocol.settings[which - 1]
    d_a, d_b = 2**m, 2 ** (n - m)
    r = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    operators = tuple(
        np.einsum("tc,cjtl->jl", p, r) for p in setting.projectors
    )
    out = ConditionalStateSet(
        setting_index=which,
        setting_label=setting.label,
        bob_qubits=n - m,
        outcomes=setting.outcomes,
        operators=operators,
    )
    out.validate(bob_marginal(rho, m), tols)
    return out


@dataclass(frozen=True)
class CollapseDecomposition:
    """Per-component collapse data of an ensemble under one rank-1 setting.

    For component alpha and outcome slot o the projection
    (<u_o| (x) 1)|psi_alpha> is split into a nonnegative coefficient (its
    norm) and a unit collapsed vector; empty branches keep coefficient 0 and
    vector None.  Squared coefficients sum to 1 along each component.
    """

    setting_label: str
    outcomes: tuple[str, ...]
    weights: tuple[float, ...]
    coefficients: np.ndarray = field(repr=False)  # (n_terms, n_outcomes) complex
    vectors: tuple[tuple[ComplexArray | None, ...], ...] = field(repr=False)

    def reconstruct(self, outcome_index: int) -> ComplexArray:
        """Sum_alpha p_alpha |c|^2 |v><v| for one outcome; equals rho_a."""
        vecs = [term[outcome_index] for term in self.vectors]
        dim = next((v.shape[0] for v in vecs if v is not None), 1)
        out = np.zeros((dim, dim), dtype=np.complex128)
        for p, c_row, v in zip(self.weights, self.coefficients, vecs):
            if v is not None:
                out += p * abs(c_row[outcome_index]) ** 2 * outer(v)
        return out


def collapse_decomposition(
    ensemble: EnsembleState, setting: MeasurementSetting, alice_qubits: int
) -> CollapseDecomposition:
    """Collapse every ensemble component along every outcome of a rank-1 setting."""
    if setting.m_qubits != alice_qubits:
        raise DimensionError(
            f"setting acts on {setting.m_qubits} qubits, expected {alice_qubits}"
        )
    if not 1 <= alice_qubits < ensemble.n_qubits:
        raise DimensionError(
            f"alice_qubits must lie in [1, {ensemble.n_qubits - 1}], got {alice_qubits}"
        )
    u = setting.rank1_vectors()
    d_a = 2**alice_qubits
    d_b = 2 ** (ensemble.n_qubits - alice_qubits)
    coefficients = np.zeros((ensemble.n_terms, setting.n_outcomes), dtype=np.complex128)
    vectors: list[tuple[ComplexArray | None, ...]] = []
    for a, psi in enumerate(ensemble.vectors):
        block = psi.reshape(d_a, d_b)
        row: list[ComplexArray | None] = []
        for o, u_o in enumerate(u):
            proj = u_o.conj() @ block
            norm = float(np.linalg.norm(proj))
            if norm < 1e-13:
                row.append(None)
            else:
                coefficients[a, o] = norm
                row.append(proj / norm)
        vectors.append(tuple(row))
    return CollapseDecomposition(
        setting_label=setting.label,
        outcomes=setting.outcomes,
        weights=ensemble.weights,
        coefficients=coefficients,
        vectors=tuple(vectors),
    )


@dataclass(frozen=True)
class OutcomeRecord:
    """Per-outcome evidence row: probability and (when defined) purity."""

    setting: int
    outcome: str
    probability: float
    purity: float | None


@dataclass(frozen=True)
class PurityCheck:
    """Outcome of the pure state requirement, with the evidence later checks reuse.

    When ``ok``, ``labels`` holds each setting's counted outcome labels and
    ``vectors`` their unit principal vectors, one row per label, setting 1
    first.  When not, ``labels`` is empty, ``vectors`` is None and no
    eigenvector was computed.
    """

    ok: bool
    records: tuple[OutcomeRecord, ...]
    excluded: tuple[tuple[int, str], ...]
    labels: tuple[tuple[str, ...], tuple[str, ...]]
    vectors: np.ndarray | None = field(repr=False, compare=False)


def purity_requirement(
    set1: ConditionalStateSet,
    set2: ConditionalStateSet,
    tol: float = config.PURITY_TOL,
    prob_floor: float = config.PROB_FLOOR,
) -> PurityCheck:
    """Whether every nonzero-probability conditional state is pure.

    Outcomes with probability at or below ``prob_floor`` are excluded from the
    check and listed separately.
    """
    records: list[OutcomeRecord] = []
    excluded: list[tuple[int, str]] = []
    counted: tuple[list[str], list[str]] = ([], [])
    operators: list[ComplexArray] = []
    ok = True
    for cs in (set1, set2):
        for label, op in zip(cs.outcomes, cs.operators):
            p = float(np.trace(op).real)
            if p <= prob_floor:
                records.append(OutcomeRecord(cs.setting_index, label, p, None))
                excluded.append((cs.setting_index, label))
                continue
            q = purity(op)
            records.append(OutcomeRecord(cs.setting_index, label, p, q))
            counted[cs.setting_index - 1].append(label)
            operators.append(op)
            if abs(q - 1.0) >= tol:
                ok = False
    labels: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())
    vectors = None
    if ok:
        labels = (tuple(counted[0]), tuple(counted[1]))
        dim = set1.operators[0].shape[0]
        vectors = np.array([principal_vector(op) for op in operators]).reshape(-1, dim)
    return PurityCheck(
        ok=ok, records=tuple(records), excluded=tuple(excluded), labels=labels, vectors=vectors
    )


@dataclass(frozen=True)
class DuplicateCheck:
    """Phase-coincidence report between and within the two settings."""

    ok: bool
    cross: tuple[tuple[str, str], ...]
    within_1: tuple[tuple[str, str], ...]
    within_2: tuple[tuple[str, str], ...]


def _duplicates(check: PurityCheck, tol: float) -> DuplicateCheck:
    labels_1, labels_2 = check.labels
    k1 = len(labels_1)
    hits = phase_coincidences(check.vectors, tol)

    def pairs(block, labels_a, labels_b):
        return tuple((labels_a[i], labels_b[j]) for i, j in np.argwhere(block))

    cross = pairs(hits[:k1, k1:], labels_1, labels_2)
    return DuplicateCheck(
        ok=not cross,
        cross=cross,
        within_1=pairs(np.triu(hits[:k1, :k1], 1), labels_1, labels_1),
        within_2=pairs(np.triu(hits[k1:, k1:], 1), labels_2, labels_2),
    )


def measurement_requirement(
    set1: ConditionalStateSet,
    set2: ConditionalStateSet,
    tol: float = config.PHASE_TOL,
    prob_floor: float = config.PROB_FLOOR,
    purity_tol: float = config.PURITY_TOL,
) -> DuplicateCheck:
    """Cross-setting and within-setting coincidences among conditional states.

    Requires the purity requirement to hold (PreconditionError otherwise).
    Two counted conditional states coincide when their unit principal vectors
    u, v satisfy 1 - |<u|v>| < ``tol``.  The requirement itself is satisfied
    exactly when no conditional state of setting 1 coincides with one of
    setting 2; within-setting coincidences never block a paradox and are
    reported as context.
    """
    check = purity_requirement(set1, set2, purity_tol, prob_floor)
    if not check.ok:
        raise PreconditionError(
            "a conditional state is mixed; the coincidence check is only defined "
            "for pure conditional states"
        )
    return _duplicates(check, tol)


@dataclass(frozen=True)
class RankBoundResult:
    rank: int
    bound: int
    satisfied: bool


def rank_bound_check(rho: DensityMatrix, protocol: SteeringProtocol) -> RankBoundResult:
    """Compare the state's rank with the ceiling 2**(M-1) for paired-basis settings.

    Both settings must be built from the same vector pairing (shared family)
    at different angles; other settings raise UnsupportedSettingError.
    """
    b1, b2 = protocol.setting_1.bell_like, protocol.setting_2.bell_like
    if b1 is None or b2 is None:
        raise UnsupportedSettingError(
            "rank bound is only defined for settings built from a vector pairing"
        )
    if not same_family(b1, b2):
        raise UnsupportedSettingError("the two settings do not share a vector pairing")
    rank = numerical_rank(rho.matrix)
    bound = 2 ** (protocol.alice_qubits - 1)
    return RankBoundResult(rank=rank, bound=bound, satisfied=rank <= bound)


@dataclass(frozen=True)
class ParadoxReport:
    """Full certification outcome for one state-protocol pair."""

    verdict: str
    quantum_trace_sum: float
    lhs_trace_sum: float | None
    per_outcome: tuple[OutcomeRecord, ...]
    cross_setting_duplicates: tuple[tuple[str, str], ...]
    within_setting_duplicates: tuple[tuple[int, str, str], ...]
    excluded_outcomes: tuple[tuple[int, str], ...]
    ambiguous_duplicates: bool
    decomposition_used: str
    setting_labels: tuple[str, str]
    lp_verdict: str | None = None
    lp_phase1_optimum: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "quantum_trace_sum": self.quantum_trace_sum,
            "lhs_trace_sum": self.lhs_trace_sum,
            "per_outcome": [
                {
                    "setting": r.setting,
                    "outcome": r.outcome,
                    "probability": r.probability,
                    "purity": r.purity,
                }
                for r in self.per_outcome
            ],
            "cross_setting_duplicates": [list(p) for p in self.cross_setting_duplicates],
            "within_setting_duplicates": [
                {"setting": s, "pair": [a, b]} for s, a, b in self.within_setting_duplicates
            ],
            "ambiguous_duplicates": self.ambiguous_duplicates,
            "decomposition_used": self.decomposition_used,
            "setting_labels": list(self.setting_labels),
            "lp_verdict": self.lp_verdict,
            "lp_phase1_optimum": self.lp_phase1_optimum,
        }

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        lhs = "1.000000" if self.lhs_trace_sum is not None else "not-forced"
        lines.append(f"quantum={self.quantum_trace_sum:.6f} lhs={lhs}")
        for k in (1, 2):
            lines.append(f"setting {k} ({self.setting_labels[k - 1]}):")
            for r in self.per_outcome:
                if r.setting != k:
                    continue
                if r.purity is None:
                    lines.append(
                        f"  outcome {r.outcome}  p={r.probability:.6f}  excluded (below probability floor)"
                    )
                else:
                    lines.append(
                        f"  outcome {r.outcome}  p={r.probability:.6f}  purity={r.purity:.8f}"
                    )
        if self.within_setting_duplicates:
            parts = " ".join(f"setting {s}: ({a},{b})" for s, a, b in self.within_setting_duplicates)
            lines.append(f"within-setting duplicates: {parts}")
        else:
            lines.append("within-setting duplicates: none")
        if self.cross_setting_duplicates:
            parts = " ".join(f"({a},{b})" for a, b in self.cross_setting_duplicates)
            lines.append(f"cross-setting duplicates: {parts}")
        else:
            lines.append("cross-setting duplicates: none")
        if self.ambiguous_duplicates:
            lines.append(
                "note: within-setting and cross-setting duplicates occur together; "
                "the cross-setting coincidence decides the verdict"
            )
        lines.append(f"decomposition: {self.decomposition_used}")
        if self.lp_verdict is not None:
            if self.lp_phase1_optimum is not None:
                lines.append(
                    f"lhs-lp: {self.lp_verdict} (phase-1 optimum {self.lp_phase1_optimum:.6e})"
                )
            else:
                lines.append(f"lhs-lp: {self.lp_verdict}")
        return "\n".join(lines) + "\n"


def certify(
    state: EnsembleState | DensityMatrix,
    protocol: SteeringProtocol,
    lp: bool = False,
    candidates: list[ComplexArray] | None = None,
    tolerances: Tolerances | None = None,
) -> ParadoxReport:
    """Run both requirement checks and classify the state-protocol pair.

    The verdict is PARADOX exactly when every nonzero-probability conditional
    state is pure and no cross-setting coincidence exists; the 2-vs-1 trace
    ledger is then forced.  With ``lp=True`` the independent linear-program
    oracle runs as a cross-check (see lhs_lp); an explicit candidate list
    switches it to the relative mode.
    """
    tols = tolerances or Tolerances()
    if isinstance(state, EnsembleState):
        decomposition = DECOMPOSITION_GIVEN
        rho = density_of(state)
    elif isinstance(state, DensityMatrix):
        decomposition = DECOMPOSITION_EIGEN
        rho = state
    else:
        raise ValidationError(f"cannot certify a {type(state).__name__}")
    set1 = conditional_states(rho, protocol, 1, tols)
    set2 = conditional_states(rho, protocol, 2, tols)
    quantum = float(np.sum(set1.probabilities) + np.sum(set2.probabilities))
    check = purity_requirement(set1, set2, tol=tols.purity, prob_floor=tols.prob_floor)

    cross: tuple[tuple[str, str], ...] = ()
    within: tuple[tuple[int, str, str], ...] = ()
    ambiguous = False
    if not check.ok:
        verdict = NO_PARADOX_PURITY
    else:
        dup = _duplicates(check, tols.phase)
        cross = dup.cross
        within = tuple((1, a, b) for a, b in dup.within_1) + tuple(
            (2, a, b) for a, b in dup.within_2
        )
        verdict = PARADOX if dup.ok else NO_PARADOX_CROSS_DUPLICATE
        ambiguous = bool(cross) and bool(within)

    report = ParadoxReport(
        verdict=verdict,
        quantum_trace_sum=quantum,
        lhs_trace_sum=1.0 if verdict == PARADOX else None,
        per_outcome=check.records,
        cross_setting_duplicates=cross,
        within_setting_duplicates=within,
        excluded_outcomes=check.excluded,
        ambiguous_duplicates=ambiguous,
        decomposition_used=decomposition,
        setting_labels=(set1.setting_label, set2.setting_label),
    )
    if not lp:
        return report

    from . import lhs_lp

    problem, relative = lhs_lp.problem_for(set1, set2, candidates, tols)
    result = lhs_lp.solve_feasibility(problem, tol=tols.lp_feasibility)
    if result.feasible:
        lp_verdict = "feasible"
    else:
        lp_verdict = "infeasible-relative-to-candidates" if relative else "infeasible"
    return replace(
        report, lp_verdict=lp_verdict, lp_phase1_optimum=result.phase1_optimum
    )


__all__ = [
    "CollapseDecomposition",
    "ConditionalStateSet",
    "DECOMPOSITION_EIGEN",
    "DECOMPOSITION_GIVEN",
    "DuplicateCheck",
    "NO_PARADOX_CROSS_DUPLICATE",
    "NO_PARADOX_PURITY",
    "OutcomeRecord",
    "PARADOX",
    "ParadoxReport",
    "PurityCheck",
    "RankBoundResult",
    "bob_marginal",
    "certify",
    "collapse_decomposition",
    "conditional_states",
    "measurement_requirement",
    "purity_requirement",
    "rank_bound_check",
]
