"""Conditional-state assembly and the two-requirement paradox certifier.

Alice measures one of two complete settings on her M qubits; Bob's
unnormalized conditional states are

    rho_a^k = tr_A[(P_a^k (x) 1) rho],

whose traces are the outcome probabilities.  For an ensemble
sum_alpha p_alpha |psi_alpha><psi_alpha| they come straight from the
amplitudes, the validated (T, 2^N) array whose rows psi_alpha reshape to
d_A x d_B matrices Psi_alpha:

    rho_a^k = sum_alpha p_alpha Psi_alpha^T (P_a^k)^T Psi_alpha^*,

so the 2^N x 2^N density operator is never built.  Under a rank-1 setting
with basis vectors u_a this is rho_a = W_a W_a^H, whose columns are the
branches w_{a,alpha} = sqrt(p_alpha) Psi_alpha^T conj(u_a).  The T x T Gram
matrix G_a = W_a^H W_a has the same nonzero eigenvalues as rho_a, so the PSD
test, the purity tr(G_a^2) / tr(G_a)^2 and the principal vector
W_a g / ||W_a g|| are all read from it, where g is G_a's top eigenvector:
for a pure outcome the normalized G_a(G_a e_j), two products, and for any
other one the top eigenvector from ``eigh``.  Such a set holds only its
branches: its probabilities are tr(G_a), its total sum_a rho_a is one
product of the branches flattened to (K T, d_B), and its (K, d_B, d_B)
operators are built on first read, which no verdict stage does.  When both
settings are rank-1, ``certify`` contracts them together: one product with
the stacked (K1 + K2, d_A) bases, whose two sets are row views of one
branch array and share one ``_Joint`` record, so the Gram stack, the PSD
test, the purities and the principal vectors are each computed once for
both; every batched step acts matrix by matrix, so each set is bitwise the
one its setting gives alone.  A
density matrix kept with its low-rank ``factor`` L, rho = L L^H to rounding,
is contracted the same way, with L's columns as the amplitudes.  Any other
density matrix (n <= 4, a rank above the pivot budget, or input whose
remainder or Hermiticity residual exceeds rounding) is contracted for both
settings in one banded pass: each setting's flattened projector stack
multiplies rho one band of Bob's rows at a time, so with two or more Bob
qubits the pass builds no full-size array; the density matrix's own kept
copy is the only one.
Summing the traces over both complete settings always gives 2.  A
local-hidden-state explanation forces the same total down to tr(rho_B) = 1
whenever two structural requirements hold: every nonzero-probability
conditional state is pure, and no conditional state
of one setting coincides (up to phase) with one of the other setting.  The
certifier checks exactly those two requirements and reports the verdict with
the full per-outcome evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import config
from .errors import (
    DimensionError,
    PreconditionError,
    UnsupportedSettingError,
    ValidationError,
)
from .linalg import (
    TILE,
    ComplexArray,
    canonical_phase,
    has_cholesky,
    hermiticity_residuals,
    phase_coincidences,
    read_only,
    read_only_copy,
    stacked,
)
from .linalg import purities as stack_purities
from .measurements import MeasurementSetting, SteeringProtocol, same_family
from .states import DensityMatrix, EnsembleState

PARADOX = "PARADOX"
NO_PARADOX_PURITY = "NO_PARADOX_PURITY"
NO_PARADOX_CROSS_DUPLICATE = "NO_PARADOX_CROSS_DUPLICATE"

DECOMPOSITION_GIVEN = "given"
DECOMPOSITION_EIGEN = "eigen"


def _two_products(stack: ComplexArray) -> ComplexArray:
    """E(E e_j), normalized, for each E of a (K, d, d) stack; j indexes E's largest diagonal."""
    j = stack.diagonal(axis1=1, axis2=2).real.argmax(axis=1)
    column = stack[np.arange(len(stack)), :, j]
    v = (stack @ column[..., None])[..., 0]
    return v / np.linalg.norm(v, axis=1)[:, None]


def _is_psd(stack: ComplexArray) -> bool:
    """``linalg.has_cholesky``'s PSD rule for evidence matrices E: E + ``PSD_TOL`` * I has a factor."""
    return has_cholesky(stack + config.PSD_TOL * np.eye(stack.shape[-1]))


class _Joint:
    """The evidence of one or more sets, computed once over their stacked rows.

    ``evidence`` stacks the rows of every set that shares the record,
    setting 1's first: their operators, or for sets held as (K, T, d_B)
    ``branches`` the Gram stack G_a = W_a^H W_a, formed on first read.  Each
    set reads its slice of the quantities below.  Every batched step acts
    matrix by matrix, so a slice is bitwise what its rows alone would give.
    """

    def __init__(
        self, operators: ComplexArray | None = None, branches: ComplexArray | None = None
    ) -> None:
        self.branches = branches
        if operators is not None:
            # fills the cached property: operators are their own evidence
            self.evidence = operators

    @cached_property
    def evidence(self) -> ComplexArray:
        return self.branches.conj() @ self.branches.swapaxes(1, 2)

    @cached_property
    def probabilities(self) -> np.ndarray:
        return read_only(np.trace(self.evidence, axis1=1, axis2=2).real)

    @cached_property
    def counted(self) -> np.ndarray:
        return read_only(self.probabilities > config.PROB_FLOOR)

    @cached_property
    def purities(self) -> np.ndarray:
        return read_only(stack_purities(self.evidence[self.counted]))

    @cached_property
    def principal_vectors(self) -> ComplexArray:
        stack = self.evidence[self.counted]
        top = _two_products(stack)
        mixed = np.abs(self.purities - 1.0) >= config.REQUIREMENT_TOL
        if mixed.any():
            top[mixed] = np.linalg.eigh(stack[mixed])[1][..., -1]
        if self.branches is not None:
            top = (top[:, None] @ self.branches[self.counted])[:, 0]
            top = top / np.linalg.norm(top, axis=1)[:, None]
        return read_only(canonical_phase(top))


@dataclass(frozen=True, eq=False)
class ConditionalStateSet:
    """Bob's unnormalized conditional states for one setting.

    ``operators`` is one read-only (K, d_B, d_B) array, a copy of the input,
    whose first axis follows the setting's outcome order; probabilities are
    the traces.  Construction checks that every operator is Hermitian within
    ``config.HERMITICITY_TOL`` (ValidationError naming the first that is
    not), so no stage reads a non-Hermitian set.  ``validate`` checks
    positivity, unit total probability and the non-signalling identity
    sum_a rho_a = rho_B.

    The contraction behind ``conditional_states`` and ``certify`` returns,
    for an ensemble or a density matrix kept with its factor under a rank-1
    setting, a set that holds only its branches (``_BranchStates``): its
    operators are built on first read, and its probabilities, total and
    evidence come from the branches.

    ``counted``, ``purities`` and ``principal_vectors``, the evidence every
    stage reads, are computed on first use and kept, by the set's ``_Joint``
    record: its own, or for the branch-backed sets of one contraction one
    record shared by both settings, of which each set reads its rows.
    Equality and hashing go by identity.
    """

    setting_index: int
    setting_label: str
    bob_qubits: int
    outcomes: tuple[str, ...]
    operators: ComplexArray = field(repr=False)

    # the set's rows in its ``_Joint`` record
    _rows = slice(0, None)

    def __post_init__(self) -> None:
        dim = 2**self.bob_qubits
        if len(self.operators) != len(self.outcomes):
            raise ValidationError("outcome labels and operators differ in count")
        operators = stacked(self.operators, (dim, dim), "conditional operator")
        not_hermitian = np.flatnonzero(hermiticity_residuals(operators) > config.HERMITICITY_TOL)
        if not_hermitian.size:
            label = self.outcomes[not_hermitian[0]]
            raise ValidationError(f"conditional state {label!r} is not Hermitian")
        object.__setattr__(self, "operators", read_only_copy(operators))

    @cached_property
    def _joint(self) -> _Joint:
        return _Joint(operators=self.operators)

    @property
    def _counted_rows(self) -> slice:
        """This set's rows among its record's counted rows."""
        before = int(np.count_nonzero(self._joint.counted[: self._rows.start]))
        return slice(before, before + int(np.count_nonzero(self.counted)))

    @property
    def probabilities(self) -> np.ndarray:
        return self._joint.probabilities[self._rows]

    def total(self) -> ComplexArray:
        return self.operators.sum(0)

    @cached_property
    def _evidence_stack(self) -> ComplexArray:
        """The matrices the PSD test, purities and principal vectors read."""
        return self._joint.evidence[self._rows]

    @cached_property
    def counted(self) -> np.ndarray:
        """Which outcomes count: probability above ``config.PROB_FLOOR``."""
        return self._joint.counted[self._rows]

    @cached_property
    def purities(self) -> np.ndarray:
        """Purity of each counted state: tr(E^2) / tr(E)^2 of its evidence matrix E."""
        return self._joint.purities[self._counted_rows]

    @cached_property
    def principal_vectors(self) -> ComplexArray:
        """Unit, phase-fixed principal vectors of the counted states, one row each.

        E is the evidence matrix: the operator, or G_a for a branch-backed
        set.  A pure outcome, |purity - 1| < ``config.REQUIREMENT_TOL``,
        takes two batched products: v = E(E e_j), normalized, with j the
        index of E's largest diagonal entry.  This is accurate because a
        purity gap g leaves all eigenvalues but the top one, lambda_1, about
        g / 2 of the trace, so lambda_2 / lambda_1 <~ g / 2; and
        E_jj >= tr(E) / d gives the top eigenvector v_1 an entry
        |v_1j|^2 >~ 1 / d.  The other eigenvectors then make up about
        (lambda_2 / lambda_1)^2 sqrt(d) <~ 1e-15 of v.  Only the other
        outcomes, mixed ones that a ``tol`` above the default lets through or
        a direct call on a mixed set, take one batched ``eigh``, whose top
        eigenvector is their principal vector.  A branch-backed set lifts
        the vector g found for G_a to W_a g / ||W_a g||.  The record computes
        them for all its counted rows in one pass, setting 1's first.
        """
        return self._joint.principal_vectors[self._counted_rows]

    def validate(self, rho_b: ComplexArray) -> None:
        """Check positivity, unit total probability and Bob's marginal ``rho_b``.

        Positivity is ``linalg.has_cholesky``'s rule, as for a
        ``DensityMatrix``: each evidence matrix plus ``config.PSD_TOL`` * I
        must have a Cholesky factor.  A rank-1 outcome's rho_a compresses
        rho, so its spectrum lies within rho's; a rank-r outcome can reach
        -r ``PSD_TOL``.  All outcomes are factored
        in one batched call; only when it fails is each factored alone, to
        name the first outcome without a factor.
        """
        # G_a has rho_a's nonzero eigenvalues, and rho_a's others are zero
        stack = self._evidence_stack
        if not _is_psd(stack):
            first = next(i for i, e in enumerate(stack) if not _is_psd(e))
            raise ValidationError(f"conditional state {self.outcomes[first]!r} is not PSD")
        self._check_sums(rho_b)

    def _check_sums(self, rho_b: ComplexArray) -> None:
        """``validate``'s checks after positivity: unit total probability and Bob's marginal."""
        if abs(float(np.sum(self.probabilities)) - 1.0) > config.MARGINAL_TOL:
            raise ValidationError("outcome probabilities do not sum to 1")
        if np.linalg.norm(self.total() - rho_b) > config.MARGINAL_TOL:
            raise ValidationError("conditional states do not sum to Bob's marginal")


class _BranchStates(ConditionalStateSet):
    """A set held as its branches: an ensemble's states under a rank-1 setting.

    The ensemble may be a density matrix's factor L, one term per column.
    ``branches`` is a read-only (K, T, d_B) array whose row (a, alpha) is the
    branch w_{a,alpha}, so that rho_a = W_a W_a^H.  ``_unvalidated_states``
    contracts every rank-1 setting of a call in one fresh product, and each
    set keeps its rows of it as a view, rows ``start`` on of the ``_Joint``
    record they share; a set given only its branches gets its own record.
    The array is not copied, and the constructor's finiteness and
    Hermiticity checks are skipped: W W^H is Hermitian by construction.
    Every verdict quantity comes from the record's T x T Gram stack
    G_a = W_a^H W_a, which has rho_a's nonzero eigenvalues: the PSD test,
    the purities, the principal vectors and the probabilities tr(G_a).  The
    total is one product of the flattened (K T, d_B) branches, B^T B^*.
    ``operators``, read only by the LP stage, ``fallback_candidates`` and
    ``verify_model``, is built on first read as branches^T @ branches^*,
    read-only, and kept.
    """

    def __init__(
        self, setting_index: int, setting_label: str, bob_qubits: int,
        outcomes: tuple[str, ...], branches: ComplexArray,
        joint: _Joint | None = None, start: int = 0,
    ) -> None:
        if joint is None:
            joint = _Joint(branches=read_only(branches))
        vars(self).update(
            setting_index=setting_index, setting_label=setting_label,
            bob_qubits=bob_qubits, outcomes=outcomes, branches=branches,
            _joint=joint, _rows=slice(start, start + len(outcomes)),
        )

    @cached_property
    def operators(self) -> ComplexArray:
        return read_only(self.branches.swapaxes(1, 2) @ self.branches.conj())

    def total(self) -> ComplexArray:
        flat = self.branches.reshape(-1, self.branches.shape[-1])
        return flat.T @ flat.conj()


def _amplitudes(
    state: EnsembleState | DensityMatrix, alice_qubits: int
) -> ComplexArray | None:
    """The terms of a state as d_A x d_B matrices, stacked on axis 0, or None.

    An ensemble's terms are sqrt(p_alpha) psi_alpha; a density matrix kept
    with its ``factor`` L has L's columns, since rho = L L^H.  A density
    matrix without a factor has none.
    """
    d_b = 2 ** (state.n_qubits - alice_qubits)
    if isinstance(state, EnsembleState):
        terms = np.sqrt(state.weights)[:, None] * state.vectors
    elif state.factor is not None:
        terms = state.factor.T
    else:
        return None
    return terms.reshape(len(terms), -1, d_b)


def _branches(terms: ComplexArray, basis: ComplexArray) -> ComplexArray:
    """(<u_a| (x) 1) on each (d_A, d_B) term, for the K rows u_a of ``basis``: (K, T, d_B)."""
    t, d_a, d_b = terms.shape
    return (basis.conj() @ terms.swapaxes(0, 1).reshape(d_a, t * d_b)).reshape(-1, t, d_b)


def bob_marginal(state: EnsembleState | DensityMatrix, alice_qubits: int) -> ComplexArray:
    """Bob's reduced state: Alice's qubits traced out.

    For an ensemble this is sum_alpha p_alpha Psi_alpha^T Psi_alpha^*, one
    product over the stacked amplitudes.  For a density matrix it is
    rho_B[j, l] = sum_t rho[(t, j), (t, l)], one trace over the matrix
    reshaped to (d_A, d_B, d_A, d_B): a single strided read of the d_A
    diagonal blocks.
    """
    if not 1 <= alice_qubits < state.n_qubits:
        raise DimensionError(
            f"alice_qubits must lie in [1, {state.n_qubits - 1}], got {alice_qubits}"
        )
    d_a, d_b = 2**alice_qubits, 2 ** (state.n_qubits - alice_qubits)
    if isinstance(state, EnsembleState):
        phi = _amplitudes(state, alice_qubits).reshape(-1, d_b)
        return phi.T @ phi.conj()
    return np.trace(state.matrix.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)


def conditional_states(
    state: EnsembleState | DensityMatrix,
    protocol: SteeringProtocol,
    which: int,
) -> ConditionalStateSet:
    """Bob's conditional states for setting ``which`` (1 or 2) of the protocol.

    Both inputs are contracted for every outcome at once.  An ensemble,
    validated on construction, is only weighted and reshaped; so is a
    density matrix kept with its ``factor`` L, whose columns are its terms.
    Under a setting with basis vectors u_a the terms give the branches
    w_{a,alpha} = sqrt(p_alpha) Psi_alpha^T conj(u_a) in one product, and
    the set holds only them (``_BranchStates``): its evidence comes from the
    T x T Gram matrices W_a^H W_a, which share rho_a's nonzero eigenvalues,
    and rho_a = W_a W_a^H is built on first read.  Under other settings the
    terms are contracted with the projector stack.  A density matrix without
    a factor is contracted with the flattened projector stack in the banded
    pass of ``_banded_product``, one band of Bob's rows at a time.  The set
    is validated against Bob's marginal, for a density matrix the exact
    partial trace of its kept ``matrix``.
    """
    return _validated_states(state, protocol, (which,))[0]


def _validated_states(
    state: EnsembleState | DensityMatrix, protocol: SteeringProtocol, which: tuple[int, ...]
) -> tuple[ConditionalStateSet, ...]:
    """The sets of ``_unvalidated_states``, validated against one Bob marginal."""
    sets = _unvalidated_states(state, protocol, which)
    _validate(sets, bob_marginal(state, protocol.alice_qubits))
    return sets


def _validate(sets: tuple[ConditionalStateSet, ...], rho_b: ComplexArray) -> None:
    """Each set's ``validate``, in order, with one PSD test per ``_Joint`` record.

    The sets of one contraction that share a record are factored in one
    batched call over its whole evidence stack; only when a record fails does
    each set run its own ``validate``, which names the first outcome without
    a factor as it would alone.  Each set then checks its own probability sum
    and Bob marginal.
    """
    joints = {id(cs._joint): cs._joint for cs in sets}.values()
    if all(_is_psd(joint.evidence) for joint in joints):
        for cs in sets:
            cs._check_sums(rho_b)
    else:
        for cs in sets:
            cs.validate(rho_b)


def _banded_product(
    matrix: ComplexArray, stacks: tuple[ComplexArray, ...], d_a: int, d_b: int
) -> list[ComplexArray]:
    """rho_a[j, l] = sum_{t, c} P_a[t, c] rho[(c, j), (t, l)] for each row P_a of each stack.

    Each stack holds one setting's flattened (d_A, d_A) projectors, one per
    row, and gives one (K, d_B, d_B) array.  With rho's axes ordered
    (t, c, j, l) all outcomes are one product over (t, c); it is taken one
    band J of TILE // d_A Bob rows j at a time: rho.reshape(d_A, d_B, d_A,
    d_B)[:, J], copied into (t, c, j, l) order once, times each whole stack
    gives rho_a[j, l] for j in J.  Each entry is still one sum over all of
    (t, c) in one product, so the result is bitwise the unbanded product's,
    and the only temporary is one band of TILE rows of rho, or of one Bob
    row when d_A > TILE; the stacks are read where they are, never copied
    into one.  A band is at least 4 columns wide, as the unbanded product is
    (d_B^2 >= 4): OpenBLAS computes a narrower product with edge kernels
    that round differently, so with d_B = 2 the one band is the whole matrix.
    """
    operators = [np.empty((len(stack), d_b, d_b), dtype=np.complex128) for stack in stacks]
    flats = [out.reshape(len(out), d_b * d_b) for out in operators]
    rows = max(1, TILE // d_a, 4 // d_b)
    blocks = matrix.reshape(d_a, d_b, d_a, d_b)
    for j in range(0, d_b, rows):
        band = blocks[:, j : j + rows].transpose(2, 0, 1, 3).reshape(d_a * d_a, -1)
        for stack, flat in zip(stacks, flats):
            np.matmul(stack, band, out=flat[:, j * d_b : (j + rows) * d_b])
    return operators


def _unvalidated_states(
    state: EnsembleState | DensityMatrix, protocol: SteeringProtocol, which: tuple[int, ...]
) -> tuple[ConditionalStateSet, ...]:
    """The sets of the settings ``which`` (each 1 or 2), before validation.

    A state with amplitudes, an ensemble or a density matrix kept with its
    ``factor``, gives a ``_BranchStates`` under a rank-1 setting, and all
    rank-1 settings of the call are contracted in one product whose
    ``_Joint`` record they share; every other pair gives operators, checked
    by ``ConditionalStateSet``'s constructor.
    A density matrix without a factor is contracted once for all of them:
    each setting's flattened projector stack, a view of its own array,
    multiplies the same bands of rho in one ``_banded_product``.
    """
    for k in which:
        if k not in (1, 2):
            raise DimensionError(f"which must be 1 or 2, got {k}")
    m = protocol.alice_qubits
    n = state.n_qubits
    if protocol.n_qubits is not None and protocol.n_qubits != n:
        raise DimensionError(
            f"protocol is bound to n={protocol.n_qubits} but the state has n={n}"
        )
    if m >= n:
        raise DimensionError(f"alice_qubits={m} leaves Bob empty for n={n}")
    settings = [protocol.settings[k - 1] for k in which]
    d_a, d_b = 2**m, 2 ** (n - m)
    heads = [(k, s.label, n - m, s.outcomes) for k, s in zip(which, settings)]
    phi = _amplitudes(state, m)
    if phi is None:
        stacks = tuple(s.projectors.reshape(s.n_outcomes, d_a * d_a) for s in settings)
        operators = _banded_product(state.matrix, stacks, d_a, d_b)
        return tuple(ConditionalStateSet(*head, ops) for head, ops in zip(heads, operators))
    bases = [s.vectors for s in settings if s.vectors is not None]
    if bases:
        # one product for the stacked (K1 + K2, d_A) bases; each set keeps its rows
        branches = read_only(_branches(phi, np.concatenate(bases)))
        joint = _Joint(branches=branches)
    sets: list[ConditionalStateSet] = []
    start = 0
    for head, setting in zip(heads, settings):
        if setting.vectors is not None:
            stop = start + setting.n_outcomes
            sets.append(_BranchStates(*head, branches[start:stop], joint, start))
            start = stop
            continue
        # projected[a, alpha] = P_a^T Phi_alpha^*; summing Phi_alpha^T
        # projected[a, alpha] over alpha is one product with the terms
        # stacked along the rows
        projected = setting.projectors.swapaxes(1, 2)[:, None] @ phi.conj()
        projected = projected.reshape(setting.n_outcomes, -1, d_b)
        sets.append(ConditionalStateSet(*head, phi.reshape(-1, d_b).T @ projected))
    return tuple(sets)


@dataclass(frozen=True, eq=False)
class CollapseDecomposition:
    """Per-component collapse data of an ensemble under one rank-1 setting.

    For component alpha and outcome slot o the projection
    (<u_o| (x) 1)|psi_alpha> is split into a nonnegative coefficient (its
    norm) and a unit collapsed vector, entry (alpha, o) of ``coefficients``
    and ``vectors``; empty branches keep coefficient 0 and a zero vector.
    Squared coefficients sum to 1 along each component.
    """

    setting_label: str
    outcomes: tuple[str, ...]
    weights: tuple[float, ...]
    coefficients: np.ndarray = field(repr=False)  # (n_terms, n_outcomes) complex
    vectors: ComplexArray = field(repr=False)  # (n_terms, n_outcomes, d_B)


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
    terms = ensemble.vectors.reshape(ensemble.n_terms, 2**alice_qubits, -1)
    branches = _branches(terms, setting.rank1_vectors()).swapaxes(0, 1)
    norms = np.linalg.norm(branches, axis=2)
    filled = norms >= config.COLLAPSE_FLOOR
    vectors = np.zeros_like(branches)
    vectors[filled] = branches[filled] / norms[filled][:, None]
    return CollapseDecomposition(
        setting_label=setting.label,
        outcomes=setting.outcomes,
        weights=ensemble.weights,
        coefficients=np.where(filled, norms, 0.0).astype(np.complex128),
        vectors=vectors,
    )


@dataclass(frozen=True)
class OutcomeRecord:
    """Per-outcome evidence row: probability and (when defined) purity."""

    setting: int
    outcome: str
    probability: float
    purity: float | None


def _excluded(records: tuple[OutcomeRecord, ...]) -> tuple[tuple[int, str], ...]:
    """(setting, outcome) of each record without a purity: below the probability floor."""
    return tuple((r.setting, r.outcome) for r in records if r.purity is None)


@dataclass(frozen=True)
class PurityCheck:
    """Outcome of the pure state requirement, with its per-outcome records."""

    ok: bool
    records: tuple[OutcomeRecord, ...]

    @property
    def excluded(self) -> tuple[tuple[int, str], ...]:
        return _excluded(self.records)


def purity_requirement(
    set1: ConditionalStateSet,
    set2: ConditionalStateSet,
    tol: float = config.REQUIREMENT_TOL,
) -> PurityCheck:
    """Whether every nonzero-probability conditional state is pure.

    A counted state is pure when |purity - 1| < ``tol``, the one tolerance
    that also decides the measurement requirement.  It must be positive
    (ValidationError otherwise); this is the one place that checks it, and
    every path to a verdict passes through here.  Outcomes with probability
    at or below ``config.PROB_FLOOR`` are excluded from the check and listed
    separately.  The purities are each set's own ``purities``: a set that
    holds branches W_a reads tr(G_a^2) / tr(G_a)^2 from the Gram matrix
    G_a = W_a^H W_a, which has the nonzero eigenvalues of rho_a = W_a W_a^H;
    any other set reads them from its operators.  No eigenvector is
    computed here.
    """
    if not tol > 0.0:
        raise ValidationError(f"tolerance must be positive, got {tol!r}")
    records: list[OutcomeRecord] = []
    for cs in (set1, set2):
        q = np.zeros(len(cs.outcomes))
        q[cs.counted] = cs.purities
        rows = zip(cs.outcomes, cs.probabilities.tolist(), cs.counted.tolist(), q.tolist())
        for label, p, kept, q_a in rows:
            records.append(OutcomeRecord(cs.setting_index, label, p, q_a if kept else None))
    ok = not any(r.purity is not None and abs(r.purity - 1.0) >= tol for r in records)
    return PurityCheck(ok=ok, records=tuple(records))


@dataclass(frozen=True)
class DuplicateCheck:
    """Phase-coincidence report between and within the two settings."""

    ok: bool
    cross: tuple[tuple[str, str], ...]
    within_1: tuple[tuple[str, str], ...]
    within_2: tuple[tuple[str, str], ...]


@dataclass(frozen=True, eq=False)
class _Evidence:
    """What the verdict and the LP read from one pair of sets, computed once.

    When every counted state is pure under the caller's ``tol``,
    ``vectors`` stacks both sets' counted ``principal_vectors``, setting 1's
    rows first, and ``hits`` is their ``phase_coincidences`` at that
    ``tol``; otherwise both are None.  The duplicate report and the LP's
    candidate list read the rows in this one order.
    """

    set1: ConditionalStateSet
    set2: ConditionalStateSet
    purity: PurityCheck
    vectors: ComplexArray | None
    hits: np.ndarray | None


def _evidence(set1: ConditionalStateSet, set2: ConditionalStateSet, tol: float) -> _Evidence:
    """The pair's ``_Evidence``: the purity check, then the coincidences if it holds."""
    purity = purity_requirement(set1, set2, tol)
    if not purity.ok:
        return _Evidence(set1, set2, purity, None, None)
    vectors = np.concatenate([set1.principal_vectors, set2.principal_vectors])
    return _Evidence(set1, set2, purity, vectors, phase_coincidences(vectors, tol))


def _duplicates(evidence: _Evidence) -> DuplicateCheck:
    """The duplicate report read from the coincidences of pure ``evidence``."""
    hits = evidence.hits
    labels_1, labels_2 = (
        tuple(label for label, kept in zip(cs.outcomes, cs.counted) if kept)
        for cs in (evidence.set1, evidence.set2)
    )
    k1 = len(labels_1)

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
    tol: float = config.REQUIREMENT_TOL,
) -> DuplicateCheck:
    """Cross-setting and within-setting coincidences among conditional states.

    Requires the purity requirement to hold under the same ``tol``
    (PreconditionError otherwise): one tolerance serves both requirements.
    Two counted conditional states coincide when their unit principal vectors
    u, v satisfy 1 - |<u|v>| < ``tol``.  The requirement itself is satisfied
    exactly when no conditional state of setting 1 coincides with one of
    setting 2; within-setting coincidences never block a paradox and are
    reported as context.
    """
    evidence = _evidence(set1, set2, tol)
    if evidence.hits is None:
        raise PreconditionError(
            "a conditional state is mixed; the coincidence check is only defined "
            "for pure conditional states"
        )
    return _duplicates(evidence)


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
    rank = int(np.sum(np.linalg.eigvalsh(rho.matrix) > config.RANK_TOL))
    bound = 2 ** (protocol.alice_qubits - 1)
    return RankBoundResult(rank=rank, bound=bound, satisfied=rank <= bound)


@dataclass(frozen=True)
class ParadoxReport:
    """Full certification outcome for one state-protocol pair.

    ``lhs_trace_sum``, ``excluded_outcomes`` and ``ambiguous_duplicates``
    are read from the verdict, the per-outcome records and the duplicate
    pairs, so they cannot disagree with them.  ``decomposition_used`` names
    the input kind, ``"given"`` for an ensemble and ``"eigen"`` for a density
    matrix; ``certify`` never eigen-decomposes the input, and on a PARADOX
    density input runs no eigen decomposition at all.  ``lp_verdict`` and
    ``lp_residual`` are set only by the LP stage that follows the verdict.
    """

    verdict: str
    quantum_trace_sum: float
    per_outcome: tuple[OutcomeRecord, ...]
    cross_setting_duplicates: tuple[tuple[str, str], ...]
    within_setting_duplicates: tuple[tuple[int, str, str], ...]
    decomposition_used: str
    setting_labels: tuple[str, str]
    lp_verdict: str | None = None
    lp_residual: float | None = None

    @property
    def lhs_trace_sum(self) -> float | None:
        """1.0, the trace sum a hidden-state model is forced to, under PARADOX; else None."""
        return 1.0 if self.verdict == PARADOX else None

    @property
    def excluded_outcomes(self) -> tuple[tuple[int, str], ...]:
        return _excluded(self.per_outcome)

    @property
    def ambiguous_duplicates(self) -> bool:
        """Whether within-setting and cross-setting duplicates occur together."""
        return bool(self.cross_setting_duplicates) and bool(self.within_setting_duplicates)

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
            "lp_residual": self.lp_residual,
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
            if self.lp_residual is not None:
                lines.append(f"lhs-lp: {self.lp_verdict} (residual {self.lp_residual:.6e})")
            else:
                lines.append(f"lhs-lp: {self.lp_verdict}")
            if self.verdict == PARADOX and self.lp_verdict == "feasible":
                # the one combination the 2 = 1 argument rules out
                lines.append(
                    "warning: LP oracle found a hidden-state model although the "
                    "structural verdict is PARADOX"
                )
        return "\n".join(lines) + "\n"


def certify(
    state: EnsembleState | DensityMatrix,
    protocol: SteeringProtocol,
    lp: bool = False,
    tol: float = config.REQUIREMENT_TOL,
) -> ParadoxReport:
    """Run both requirement checks and classify the state-protocol pair.

    The verdict is PARADOX exactly when every nonzero-probability conditional
    state is pure and no cross-setting coincidence exists; the 2-vs-1 trace
    ledger is then forced.  With ``lp=True`` the independent LHS feasibility
    oracle (lhs_lp, nonnegative least squares) then checks the verdict,
    adding its verdict and residual or raising SolverLimitError; its program
    is ``lhs_lp.problem_for``'s, built from the verdict's evidence, whose
    candidates are the pure conditional states, or the relative-mode
    ``fallback_candidates`` when one is mixed.  ``tol`` decides both
    requirements and the LP's candidate deduplication; it must be positive.
    """
    report, evidence = _certify(state, protocol, tol)
    if not lp:
        return report
    from . import lhs_lp

    return lhs_lp._judged(report, *lhs_lp._problem(evidence))


def _certify(
    state: EnsembleState | DensityMatrix,
    protocol: SteeringProtocol,
    tol: float,
) -> tuple[ParadoxReport, _Evidence]:
    """The verdict's report, without an LP answer, and the evidence it read.

    ``lhs_lp._problem`` builds the LP stage's program from that evidence, so
    the purity check and the coincidence matrix are computed once per run.
    """
    if isinstance(state, EnsembleState):
        decomposition = DECOMPOSITION_GIVEN
    elif isinstance(state, DensityMatrix):
        decomposition = DECOMPOSITION_EIGEN
    else:
        raise ValidationError(f"cannot certify a {type(state).__name__}")
    # both sets from one contraction, validated against one marginal
    set1, set2 = _validated_states(state, protocol, (1, 2))
    quantum = float(np.sum(set1.probabilities) + np.sum(set2.probabilities))
    evidence = _evidence(set1, set2, tol)

    cross: tuple[tuple[str, str], ...] = ()
    within: tuple[tuple[int, str, str], ...] = ()
    if evidence.hits is None:
        verdict = NO_PARADOX_PURITY
    else:
        dup = _duplicates(evidence)
        cross = dup.cross
        within = tuple((1, a, b) for a, b in dup.within_1) + tuple(
            (2, a, b) for a, b in dup.within_2
        )
        verdict = PARADOX if dup.ok else NO_PARADOX_CROSS_DUPLICATE
    return ParadoxReport(
        verdict=verdict,
        quantum_trace_sum=quantum,
        per_outcome=evidence.purity.records,
        cross_setting_duplicates=cross,
        within_setting_duplicates=within,
        decomposition_used=decomposition,
        setting_labels=(set1.setting_label, set2.setting_label),
    ), evidence


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
