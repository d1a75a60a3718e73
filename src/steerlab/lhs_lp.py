"""Local-hidden-state feasibility as an exact linear program.

A hidden-state explanation of the two-setting data is a finite ensemble
(weight p_xi, state rho_xi) plus response probabilities p(a | setting k, xi)
reproducing every conditional state:

    sum_xi p(a|k,xi) p_xi rho_xi = rho_a^k        (matching)
    sum_a  p(a|k,xi)             = 1              (responses normalized)
    sum_xi p_xi                  = 1              (weights normalized)

With the substitution w_xi(a|k) = p(a|k,xi) * p_xi everything is linear: the
matching rows fix sum_xi w_xi(a|k) rho_xi entrywise, the coupling rows tie
sum_a w_xi(a|k) to p_xi for each setting separately, and all variables are
nonnegative.  When every conditional state is pure the candidate member list
may be restricted, without loss of generality, to the deduplicated conditional
states themselves: any member contributing to a pure mixture must equal it.

Feasibility is decided by a dense phase-1 simplex with Bland's rule, so the
verdict and the returned vertex are bit-deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from ._schema import complex_entry
from .config import Tolerances
from .errors import (
    DimensionError,
    PreconditionError,
    SolverLimitError,
    ValidationError,
)
from .linalg import (
    ComplexArray,
    as_complex,
    is_hermitian,
    outer,
    phase_coincidences,
)
from .steering import ConditionalStateSet, purity_requirement


@dataclass(frozen=True)
class LhsModel:
    """Explicit hidden-state ensemble with per-setting response tables.

    ``responses[k][xi, a]`` is the probability of outcome a when the member
    xi is asked about setting k+1.
    """

    member_weights: tuple[float, ...]
    member_states: tuple[ComplexArray, ...] = field(repr=False)
    responses: tuple[np.ndarray, np.ndarray] = field(repr=False)
    outcome_labels: tuple[tuple[str, ...], tuple[str, ...]]


def candidate_ensemble(
    set1: ConditionalStateSet,
    set2: ConditionalStateSet,
    tol: float = config.PHASE_TOL,
    prob_floor: float = config.PROB_FLOOR,
    purity_tol: float = config.PURITY_TOL,
) -> list[ComplexArray]:
    """Deduplicated normalized conditional states across both settings.

    Zero-probability outcomes contribute nothing.  Every surviving state must
    be pure (PreconditionError otherwise); the general mode with a caller
    supplied candidate list has no such restriction.  The principal vectors
    are taken in outcome order, setting 1 first, and one is kept unless
    1 - |<u|v>| < ``tol`` for a vector u kept before it.
    """
    check = purity_requirement(set1, set2, purity_tol, prob_floor)
    if not check.ok:
        raise PreconditionError(
            "a conditional state is mixed; supply an explicit candidate list instead"
        )
    hits = phase_coincidences(check.vectors, tol)
    kept: list[int] = []
    for i in range(len(hits)):
        if not hits[kept, i].any():
            kept.append(i)
    return [outer(check.vectors[i]) for i in kept]


def fallback_candidates(
    set1: ConditionalStateSet,
    set2: ConditionalStateSet,
    prob_floor: float = config.PROB_FLOOR,
) -> list[ComplexArray]:
    """Default candidate list for the relative mode with mixed conditionals.

    The deduplicated normalized conditional states (pure or not) plus the
    eigenprojectors of Bob's marginal.
    """
    candidates: list[ComplexArray] = []

    def push(mat: ComplexArray) -> None:
        if not any(np.linalg.norm(mat - c) <= 1e-8 for c in candidates):
            candidates.append(mat)

    for cs in (set1, set2):
        for op in cs.operators:
            p = float(np.trace(op).real)
            if p > prob_floor:
                push(op / p)
    rho_b = set1.total()
    w, v = np.linalg.eigh((rho_b + rho_b.conj().T) / 2)
    for i in range(len(w)):
        if w[i] > config.RANK_TOL:
            push(outer(v[:, i]))
    return candidates


@dataclass(frozen=True)
class LpProblem:
    """Equality-form feasibility program over nonnegative variables.

    Variable layout: the w block first, member-major then setting-major then
    outcome (w_xi(a|k) at xi*(n1+n2) + offset_k + a), followed by one weight
    variable per member.  Row groups are recorded as (start, stop) slices.
    """

    a_eq: np.ndarray = field(repr=False)
    b_eq: np.ndarray = field(repr=False)
    n_members: int
    n_outcomes: tuple[int, int]
    outcome_labels: tuple[tuple[str, ...], tuple[str, ...]]
    candidates: tuple[ComplexArray, ...] = field(repr=False)
    matching_rows: tuple[int, int]
    coupling_rows: tuple[int, int]
    normalization_row: int

    @property
    def n_variables(self) -> int:
        return self.a_eq.shape[1]

    def w_index(self, member: int, which: int, outcome: int) -> int:
        n1, n2 = self.n_outcomes
        offset = 0 if which == 1 else n1
        return member * (n1 + n2) + offset + outcome

    def weight_index(self, member: int) -> int:
        n1, n2 = self.n_outcomes
        return self.n_members * (n1 + n2) + member

    def pack(self, weights: np.ndarray, responses: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Variable vector for an explicit assignment (for residual analysis)."""
        x = np.zeros(self.n_variables)
        for xi in range(self.n_members):
            for which in (1, 2):
                table = responses[which - 1]
                for a in range(self.n_outcomes[which - 1]):
                    x[self.w_index(xi, which, a)] = table[xi, a] * weights[xi]
            x[self.weight_index(xi)] = weights[xi]
        return x

    def residuals(self, x: np.ndarray) -> dict[str, float]:
        """Max absolute violation per row group for a candidate solution."""
        r = self.a_eq @ x - self.b_eq
        m0, m1 = self.matching_rows
        c0, c1 = self.coupling_rows
        return {
            "matching": float(np.max(np.abs(r[m0:m1]), initial=0.0)),
            "coupling": float(np.max(np.abs(r[c0:c1]), initial=0.0)),
            "normalization": float(abs(r[self.normalization_row])),
        }

    def to_json_dict(self) -> dict:
        return {
            "n_members": self.n_members,
            "n_variables": self.n_variables,
            "n_outcomes": list(self.n_outcomes),
            "outcome_labels": [list(o) for o in self.outcome_labels],
            "row_groups": {
                "matching": list(self.matching_rows),
                "coupling": list(self.coupling_rows),
                "normalization": self.normalization_row,
            },
            "a_eq": [[float(v) for v in row] for row in self.a_eq],
            "b_eq": [float(v) for v in self.b_eq],
            "candidates": [
                [[complex_entry(z) for z in row] for row in c] for c in self.candidates
            ],
        }


def build_lp(
    set1: ConditionalStateSet,
    set2: ConditionalStateSet,
    candidates: list[ComplexArray],
) -> LpProblem:
    """Assemble the feasibility program for the given candidate members.

    Rows: Re and Im of every Bob matrix entry for every outcome of both
    settings (matching), one coupling row per member and setting, and the
    single weight-normalization row.
    """
    if not candidates:
        raise ValidationError("candidate list is empty")
    cands = [as_complex(c) for c in candidates]
    dim = set1.operators[0].shape[0]
    if set2.operators[0].shape[0] != dim:
        raise DimensionError("the two conditional sets live on different Bob dimensions")
    for i, c in enumerate(cands):
        if c.shape != (dim, dim):
            raise DimensionError(f"candidate {i} has shape {c.shape}, expected {(dim, dim)}")
        if not is_hermitian(c, 1e-8):
            raise ValidationError(f"candidate {i} is not Hermitian")
        if abs(np.trace(c).real - 1.0) > 1e-8:
            raise ValidationError(f"candidate {i} does not have unit trace")
    n1, n2 = set1.operators.__len__(), set2.operators.__len__()
    k = len(cands)
    n_vars = k * (n1 + n2) + k
    n_matching = 2 * dim * dim * (n1 + n2)
    n_rows = n_matching + 2 * k + 1
    a = np.zeros((n_rows, n_vars))
    b = np.zeros(n_rows)

    def w_col(member: int, which: int, outcome: int) -> int:
        offset = 0 if which == 1 else n1
        return member * (n1 + n2) + offset + outcome

    row = 0
    for which, cs in ((1, set1), (2, set2)):
        for a_idx, op in enumerate(cs.operators):
            for r in range(dim):
                for c in range(dim):
                    for part in (np.real, np.imag):
                        for xi, cand in enumerate(cands):
                            a[row, w_col(xi, which, a_idx)] = float(part(cand[r, c]))
                        b[row] = float(part(op[r, c]))
                        row += 1
    matching_rows = (0, row)
    coupling_start = row
    for xi in range(k):
        for which, n_out in ((1, n1), (2, n2)):
            for a_idx in range(n_out):
                a[row, w_col(xi, which, a_idx)] = 1.0
            a[row, k * (n1 + n2) + xi] = -1.0
            row += 1
    coupling_rows = (coupling_start, row)
    for xi in range(k):
        a[row, k * (n1 + n2) + xi] = 1.0
    b[row] = 1.0
    normalization_row = row

    return LpProblem(
        a_eq=a,
        b_eq=b,
        n_members=k,
        n_outcomes=(n1, n2),
        outcome_labels=(set1.outcomes, set2.outcomes),
        candidates=tuple(cands),
        matching_rows=matching_rows,
        coupling_rows=coupling_rows,
        normalization_row=normalization_row,
    )


def problem_for(
    set1: ConditionalStateSet,
    set2: ConditionalStateSet,
    candidates: list[ComplexArray] | None = None,
    tolerances: Tolerances | None = None,
) -> tuple[LpProblem, bool]:
    """Build the program with the right candidate source.

    Returns (problem, relative): ``relative`` is False only when the
    candidates came from the pure-state completeness argument, in which case
    an infeasible verdict rules out every hidden-state model.  The purity,
    phase and probability-floor thresholds come from ``tolerances``, as in
    ``certify``.
    """
    tols = tolerances or Tolerances()
    if candidates is not None:
        return build_lp(set1, set2, candidates), True
    try:
        pure = candidate_ensemble(set1, set2, tols.phase, tols.prob_floor, tols.purity)
    except PreconditionError:
        return build_lp(set1, set2, fallback_candidates(set1, set2, tols.prob_floor)), True
    return build_lp(set1, set2, pure), False


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the phase-1 solve: a model or an infeasibility certificate."""

    feasible: bool
    phase1_optimum: float
    iterations: int
    model: LhsModel | None = None


def _phase1_simplex(
    a: np.ndarray, b: np.ndarray, max_iter: int
) -> tuple[np.ndarray, float, int]:
    """Minimize the artificial mass of Ax = b, x >= 0 with Bland's rule.

    Returns (x, optimum, iterations).  Deterministic: the entering variable is
    the lowest eligible index, ties in the ratio test break toward the lowest
    basic index.
    """
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # tableau [A | I | b] with the artificial block as the starting basis
    t = np.zeros((m, n + m + 1))
    t[:, :n] = a
    t[:, n : n + m] = np.eye(m)
    t[:, -1] = b
    basis = list(range(n, n + m))
    # reduced costs for min sum(artificials): structural columns start at
    # -(column sum), artificials at 0; objective starts at sum(b)
    cost = np.zeros(n + m + 1)
    cost[:n] = -np.sum(a, axis=0)
    cost[-1] = -float(np.sum(b))

    pivot_tol = 1e-11
    iterations = 0
    while True:
        eligible = np.flatnonzero(cost[: n + m] < -pivot_tol)
        if eligible.size == 0:
            break
        entering = int(eligible[0])
        col = t[:, entering]
        rows = np.flatnonzero(col > pivot_tol)
        if rows.size == 0:
            # the phase-1 objective is bounded below by 0, so an unbounded
            # direction cannot occur; guard anyway
            raise SolverLimitError("phase-1 simplex found an unbounded direction")
        ratios = t[rows, -1] / col[rows]
        best = float(np.min(ratios))
        # Bland tie-break: smallest basic variable index among minimal ratios
        leave_row = min(
            (int(i) for i, r in zip(rows, ratios) if r == best),
            key=lambda i: basis[i],
        )
        pivot = t[leave_row, entering]
        t[leave_row] /= pivot
        for i in range(m):
            if i != leave_row and abs(t[i, entering]) > 0.0:
                t[i] -= t[i, entering] * t[leave_row]
        cost -= cost[entering] * t[leave_row]
        basis[leave_row] = entering
        iterations += 1
        if iterations >= max_iter:
            raise SolverLimitError(
                f"phase-1 simplex exceeded {max_iter} iterations without converging"
            )

    optimum = -float(cost[-1])
    x = np.zeros(n + m)
    for i, var in enumerate(basis):
        x[var] = t[i, -1]
    return x[:n], optimum, iterations


def solve_feasibility(
    problem: LpProblem,
    tol: float = config.LP_FEASIBILITY_TOL,
    max_iter: int = config.LP_MAX_ITERATIONS,
) -> FeasibilityResult:
    """Decide the program and, when feasible, return the vertex as an LhsModel.

    The phase-1 optimum is the infeasibility certificate: a value above
    ``tol`` means no hidden-state assignment exists for these candidates.
    """
    x, optimum, iterations = _phase1_simplex(problem.a_eq, problem.b_eq, max_iter)
    if optimum > tol:
        return FeasibilityResult(
            feasible=False, phase1_optimum=optimum, iterations=iterations
        )
    k = problem.n_members
    n1, n2 = problem.n_outcomes
    weights = np.array([max(0.0, x[problem.weight_index(i)]) for i in range(k)])
    responses = (np.zeros((k, n1)), np.zeros((k, n2)))
    for xi in range(k):
        for which, n_out in ((1, n1), (2, n2)):
            table = responses[which - 1]
            if weights[xi] > 1e-12:
                for a_idx in range(n_out):
                    table[xi, a_idx] = max(0.0, x[problem.w_index(xi, which, a_idx)]) / weights[xi]
            else:
                # weightless members never influence the mixture; give them
                # the uniform response so normalization still holds
                table[xi, :] = 1.0 / n_out
    model = LhsModel(
        member_weights=tuple(float(w) for w in weights),
        member_states=problem.candidates,
        responses=responses,
        outcome_labels=problem.outcome_labels,
    )
    return FeasibilityResult(
        feasible=True, phase1_optimum=optimum, iterations=iterations, model=model
    )


def verify_model(
    model: LhsModel, set1: ConditionalStateSet, set2: ConditionalStateSet
) -> float:
    """Largest violation of the hidden-state identities by an explicit model.

    Covers weight normalization, response normalization, every matching
    equation and the marginal identity; the returned value is the maximum
    over all of them (Frobenius norm for the matrix-valued ones).
    """
    weights = np.asarray(model.member_weights)
    worst = abs(float(np.sum(weights)) - 1.0)
    for table in model.responses:
        if table.shape[0] != len(weights):
            raise DimensionError("response table does not match the member count")
        worst = max(worst, float(np.max(np.abs(np.sum(table, axis=1) - 1.0))))
    for which, cs in ((1, set1), (2, set2)):
        table = model.responses[which - 1]
        for a_idx, op in enumerate(cs.operators):
            acc = np.zeros_like(op)
            for xi, state in enumerate(model.member_states):
                acc = acc + table[xi, a_idx] * weights[xi] * state
            worst = max(worst, float(np.linalg.norm(acc - op)))
    rho_b = set1.total()
    acc = np.zeros_like(rho_b)
    for xi, state in enumerate(model.member_states):
        acc = acc + weights[xi] * state
    worst = max(worst, float(np.linalg.norm(acc - rho_b)))
    return worst


__all__ = [
    "FeasibilityResult",
    "LhsModel",
    "LpProblem",
    "build_lp",
    "candidate_ensemble",
    "fallback_candidates",
    "solve_feasibility",
    "verify_model",
]
