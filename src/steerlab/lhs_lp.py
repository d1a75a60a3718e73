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

Feasibility is decided by nonnegative least squares (Lawson and Hanson 1974,
ch. 23): a zero residual b - Ax gives the model, and a nonzero one is, by
Farkas' lemma, a proof that none exists, which ``verify_certificate`` checks.
The solver works on the Gram matrix A^T A in the normal-equation form of Bro
and De Jong (J. Chemometrics 11, 393 (1997)), and A itself is never built
for it: the matching columns of one outcome are the candidates C_xi read as
real vectors, and columns of different outcomes are orthogonal, so A^T A is
the same K x K block Re tr(C_xi C_xi') in every outcome plus the coupling
and normalization terms; A^T b, ||A||_1, the residual and A^T y are read
from the candidates and Bob's d_B x d_B conditional states in the same way.
The passive block's Cholesky factor is grown one column at a time, not
refactored per step.  Normal equations square the condition number of every
passive-set solve, which is safe only because no answer is taken on trust:
a model must meet the residual tolerance, an infeasible verdict needs a
positive certificate margin, and anything else raises SolverLimitError.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import config
from ._schema import complex_entry
from .errors import (
    DimensionError,
    SolverLimitError,
    ValidationError,
)
from .linalg import (
    ComplexArray,
    hermiticity_residuals,
    outers,
    read_only_copy,
    stacked,
)
from .steering import ConditionalStateSet, ParadoxReport, _Evidence, _evidence


@dataclass(frozen=True, eq=False)
class LhsModel:
    """Explicit hidden-state ensemble with per-setting response tables.

    ``responses[k][xi, a]`` is the probability of outcome a when the member
    xi is asked about setting k+1.
    """

    member_weights: tuple[float, ...]
    member_states: ComplexArray = field(repr=False)  # (members, d_B, d_B)
    responses: tuple[np.ndarray, np.ndarray] = field(repr=False)
    outcome_labels: tuple[tuple[str, ...], tuple[str, ...]]


def fallback_candidates(
    set1: ConditionalStateSet,
    set2: ConditionalStateSet,
) -> ComplexArray:
    """Default candidates for the relative mode with mixed conditionals, as one array.

    The deduplicated normalized conditional states (pure or not) plus the
    eigenprojectors of Bob's marginal; two count as one within a Frobenius
    distance of ``CANDIDATE_TOL``.  Outcomes with probability at or below
    ``PROB_FLOOR`` contribute nothing.
    """
    ops = np.concatenate([set1.operators, set2.operators])
    p = np.concatenate([set1.probabilities, set2.probabilities])
    keep = np.concatenate([set1.counted, set2.counted])
    rho_b = set1.total()
    w, v = np.linalg.eigh((rho_b + rho_b.conj().T) / 2)
    eigenprojectors = outers(v[:, w > config.RANK_TOL].T)
    candidates = np.concatenate([ops[keep] / p[keep, None, None], eigenprojectors])
    distances = np.linalg.norm(candidates[:, None] - candidates, axis=(2, 3))
    return candidates[_first_kept(distances <= config.CANDIDATE_TOL)]


def _first_kept(hits: np.ndarray) -> list[int]:
    """Greedy deduplication: index i is kept unless it hits an index kept before it.

    ``hits`` need not be transitive (``phase_coincidences`` is not), so
    which indices are kept depends on their order.
    """
    kept: list[int] = []
    for i in range(len(hits)):
        if not hits[kept, i].any():
            kept.append(i)
    return kept


def _real_rows(matrices: ComplexArray) -> np.ndarray:
    """Each matrix as one real row: Re and Im of every entry, entry by entry."""
    return np.stack([matrices.real, matrices.imag], axis=-1).reshape(len(matrices), -1)


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Equality-form feasibility program over nonnegative variables.

    Variable layout: the w block first, member-major then setting-major then
    outcome (w_xi(a|k) at xi*(n1+n2) + offset_k + a), followed by one weight
    variable per member.  Row groups are recorded as (start, stop) slices.
    The solver reads the program from ``candidates`` and ``b_eq`` alone;
    ``a_eq`` is built, once, only when asked for.
    """

    b_eq: np.ndarray = field(repr=False)
    n_members: int
    n_outcomes: tuple[int, int]
    outcome_labels: tuple[tuple[str, ...], tuple[str, ...]]
    candidates: ComplexArray = field(repr=False)  # (n_members, d_B, d_B), read-only
    matching_rows: tuple[int, int]
    coupling_rows: tuple[int, int]
    normalization_row: int

    @property
    def n_variables(self) -> int:
        return self.n_members * (sum(self.n_outcomes) + 1)

    def weight_index(self, member: int) -> int:
        n1, n2 = self.n_outcomes
        return self.n_members * (n1 + n2) + member

    @cached_property
    def a_eq(self) -> np.ndarray:
        """The constraint matrix, its rows those of ``b_eq``.

        Matching row (o, r, c, part) holds part(cand[r, c]) in column
        w(xi, o) of every member xi; coupling row (xi, k) holds
        sum_a w_xi(a|k) - p_xi; the normalization row sums the weights.
        """
        k = self.n_members
        n1, n2 = self.n_outcomes
        n_out = n1 + n2
        n_w = self.weight_index(0)
        n_matching = self.matching_rows[1]
        a = np.zeros((len(self.b_eq), self.n_variables))
        members = np.arange(k)
        outcomes = np.arange(n_out)  # both settings, setting 1 first
        w_cols = members * n_out + outcomes[:, None]
        a[:n_matching].reshape(n_out, n_matching // n_out, -1)[outcomes[:, None], :, w_cols] = (
            _real_rows(self.candidates)
        )
        setting_of = np.repeat([0, 1], [n1, n2])
        a[n_matching + 2 * members[:, None] + setting_of, w_cols.T] = 1.0
        a[n_matching + np.arange(2 * k), n_w + members.repeat(2)] = -1.0
        a[self.normalization_row, n_w:] = 1.0
        a.setflags(write=False)  # every reader shares the one cached copy
        return a

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
    candidates: Sequence[ComplexArray] | ComplexArray,
) -> LpProblem:
    """Assemble the feasibility program for the given candidate members.

    Rows: Re and Im of every Bob matrix entry for every outcome of both
    settings (matching), one coupling row per member and setting, and the
    single weight-normalization row.  Only ``b_eq`` is filled in; the
    matrix is ``LpProblem.a_eq``.
    """
    if len(candidates) == 0:
        raise ValidationError("candidate list is empty")
    dim = set1.operators.shape[1]
    if set2.operators.shape[1] != dim:
        raise DimensionError("the two conditional sets live on different Bob dimensions")
    cands = read_only_copy(stacked(candidates, (dim, dim), "candidate"))
    not_hermitian = hermiticity_residuals(cands) > config.CANDIDATE_TOL
    not_unit = np.abs(np.trace(cands, axis1=1, axis2=2).real - 1.0) > config.CANDIDATE_TOL
    bad = np.flatnonzero(not_hermitian | not_unit)
    if bad.size:
        i = bad[0]
        flaw = "is not Hermitian" if not_hermitian[i] else "does not have unit trace"
        raise ValidationError(f"candidate {i} {flaw}")
    n1, n2 = len(set1.operators), len(set2.operators)
    k = len(cands)
    n_matching = 2 * dim * dim * (n1 + n2)  # Re and Im of every Bob matrix entry
    b = np.zeros(n_matching + 2 * k + 1)
    b[:n_matching] = _real_rows(np.concatenate([set1.operators, set2.operators])).ravel()
    b[-1] = 1.0
    return LpProblem(
        b_eq=b,
        n_members=k,
        n_outcomes=(n1, n2),
        outcome_labels=(set1.outcomes, set2.outcomes),
        candidates=cands,
        matching_rows=(0, n_matching),
        coupling_rows=(n_matching, n_matching + 2 * k),
        normalization_row=n_matching + 2 * k,
    )


def problem_for(
    set1: ConditionalStateSet,
    set2: ConditionalStateSet,
    tol: float = config.REQUIREMENT_TOL,
) -> tuple[LpProblem, bool]:
    """Build the program with the right candidate source.

    Returns (problem, relative): ``relative`` is False only when the
    candidates came from the pure-state completeness argument, in which case
    an infeasible verdict rules out every hidden-state model.  ``tol``
    decides purity and deduplication, the one tolerance of both requirements,
    as in ``certify``; the evidence is the sets' own, computed once per set
    whichever stage asks first.  Explicit candidates go to ``build_lp``.
    """
    return _problem(_evidence(set1, set2, tol))


def _problem(evidence: _Evidence) -> tuple[LpProblem, bool]:
    """``problem_for`` from evidence already computed, such as the verdict's.

    With a mixed counted state the candidates are ``fallback_candidates``
    (relative).  Otherwise they are |v><v| for the principal vectors v that
    ``_first_kept`` keeps under the coincidences, setting 1's first in
    outcome order: one is kept unless 1 - |<u|v>| < ``tol`` for a u kept
    before it.
    """
    set1, set2 = evidence.set1, evidence.set2
    if evidence.vectors is None:
        return build_lp(set1, set2, fallback_candidates(set1, set2)), True
    return build_lp(set1, set2, outers(evidence.vectors[_first_kept(evidence.hits)])), False


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """A model, or the residual b_eq - a_eq x as a certificate that none exists.

    ``residual`` is the residual's largest entry in magnitude.
    """

    feasible: bool
    residual: float
    iterations: int
    model: LhsModel | None = None
    certificate: np.ndarray | None = field(default=None, repr=False)


def _normal_equations(problem: LpProblem) -> tuple[np.ndarray, np.ndarray, float]:
    """(A^T A, A^T b, 10 eps ||A||_1 max(m, n)) of the program, without A.

    No matching row holds two outcomes, and the matching columns of outcome
    o are the candidates' real rows, so the matching part of A^T A is the
    K x K block Re tr(C_xi C_xi') on every outcome's columns and that of
    A^T b is Re tr(C_xi rho_o).  Each w column also has a 1 in one
    coupling row; each weight column has -1 in two and 1 in the
    normalization row, whose b is 1.
    """
    k = problem.n_members
    n1, n2 = problem.n_outcomes
    n_out = n1 + n2
    n_w = problem.weight_index(0)
    n = problem.n_variables
    parts = _real_rows(problem.candidates)
    states = problem.b_eq[slice(*problem.matching_rows)].reshape(n_out, -1)
    members = np.arange(k)
    w_cols = members * n_out + np.arange(n_out)[:, None]  # (outcome, member)
    same_setting = np.repeat(np.repeat(np.eye(2), [n1, n2], axis=0), [n1, n2], axis=1)
    gram = np.zeros((n, n))
    gram[w_cols[:, :, None], w_cols[:, None, :]] = parts @ parts.T
    gram[w_cols.T[:, :, None], w_cols.T[:, None, :]] += same_setting
    gram[w_cols, n_w + members] = gram[n_w + members, w_cols] = -1.0
    gram[n_w:, n_w:] = 2.0 * np.eye(k) + 1.0
    atb = np.concatenate([(parts @ states.T).ravel(), np.ones(k)])
    norm = max(float(np.max(np.sum(np.abs(parts), axis=1))) + 1.0, 3.0)
    return gram, atb, 10 * np.finfo(float).eps * norm * max(len(problem.b_eq), n)


def _residual(problem: LpProblem, x: np.ndarray) -> np.ndarray:
    """b_eq - a_eq x, row for row, without a_eq: rho_o - sum_xi w_xi(o) C_xi and the sums."""
    n1 = problem.n_outcomes[0]
    n_w = problem.weight_index(0)
    w, weights = x[:n_w].reshape(problem.n_members, -1), x[n_w:]
    r = problem.b_eq.copy()
    r[slice(*problem.matching_rows)] -= (w.T @ _real_rows(problem.candidates)).ravel()
    sums = np.stack([np.sum(w[:, :n1], axis=1), np.sum(w[:, n1:], axis=1)], axis=1)
    r[slice(*problem.coupling_rows)] -= (sums - weights[:, None]).ravel()
    r[problem.normalization_row] -= np.sum(weights)
    return r


def _transposed(problem: LpProblem, y: np.ndarray) -> np.ndarray:
    """a_eq^T y without a_eq: tr(C_xi Y_o) plus the coupling and normalization terms."""
    n1, n2 = problem.n_outcomes
    matching = y[slice(*problem.matching_rows)].reshape(n1 + n2, -1)
    coupling = y[slice(*problem.coupling_rows)].reshape(problem.n_members, 2)
    w = _real_rows(problem.candidates) @ matching.T + np.repeat(coupling, [n1, n2], axis=1)
    weights = y[problem.normalization_row] - np.sum(coupling, axis=1)
    return np.concatenate([w.ravel(), weights])


def _nnls(
    gram: np.ndarray, atb: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """Minimize ||Ax - b|| over x >= 0 from G = A^T A and A^T b (Lawson and Hanson).

    Returns (x, iterations), one iteration per passive-set solve.  ``tol``
    is the dual tolerance, 10 eps ||A||_1 max(m, n); an entering variable
    whose solved value is not positive is passed over (round-off).  As in
    Bro and De Jong's fast NNLS, each passive set P is solved from
    G[P, P] z_P = (A^T b)_P and the dual is A^T b - G x.  The passive
    columns are held in the order they entered, with rows[k] = G[order[k]]
    and R = L^-1 for the Cholesky factor L of their Gram block, so
    z_P = R^T R (A^T b)_P.  An entering column grows R by one row
    (y = R g, pivot G_ee - y.y); one passed over drops that row again; only
    after a column leaves is R refactored, from the kept columns.  A pivot
    that is not positive means a singular passive block and raises
    SolverLimitError.  G has A's condition number squared, which the
    callers may accept only because every answer is checked afterwards.
    """
    n = len(atb)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.intp)  # the p passive columns, in the order they entered
    rows = np.empty((n, n))
    inv = np.zeros((n, n))  # R in its leading p x p block; never written above the diagonal
    p = 0
    dual = atb.copy()
    iterations = 0

    def count() -> None:
        nonlocal iterations
        iterations += 1
        if iterations > max_iter:
            raise SolverLimitError(f"NNLS exceeded {max_iter} iterations without converging")

    def grow(col: int) -> None:
        nonlocal p
        r = inv[:p, :p]
        y = r @ rows[:p, col]
        pivot = gram[col, col] - y @ y
        if not pivot > 0.0:
            raise SolverLimitError(f"NNLS passive Gram block ({p + 1} x {p + 1}) is singular")
        d = np.sqrt(pivot)
        inv[p, :p] = (y @ r) / -d
        inv[p, p] = 1.0 / d
        rows[p] = gram[col]
        order[p] = col
        p += 1

    def passive_solution() -> np.ndarray:
        r = inv[:p, :p]
        z = np.zeros(n)
        z[order[:p]] = (r @ atb[order[:p]]) @ r
        return z

    while p < n:
        entering = int(np.argmax(np.where(passive, -np.inf, dual)))
        if dual[entering] <= tol:
            break
        count()
        grow(entering)
        passive[entering] = True
        z = passive_solution()
        if z[entering] <= 0.0:
            p -= 1
            passive[entering] = False
            dual[entering] = 0.0
            continue
        while (cut := passive & (z <= 0.0)).any():
            x += np.min(x[cut] / (x[cut] - z[cut])) * (z - x)
            passive &= x > tol
            count()
            kept = order[:p][passive[order[:p]]]
            p = 0
            for j in kept:
                grow(j)
            z = passive_solution()
        x = z
        dual = atb - z[order[:p]] @ rows[:p]
    return x, iterations


def verify_certificate(problem: LpProblem, y: np.ndarray) -> float:
    """Margin (b^T y - 3 max(0, max A^T y)) / b^T y; positive proves infeasibility.

    Every feasible x has 1^T x = 3 (the weights sum to 1, and each setting's
    w block to the weights), so b^T y = x^T A^T y <= 3 max(0, max A^T y).
    The margin is -inf when b^T y <= 0.
    """
    gain = float(problem.b_eq @ y)
    if not gain > 0.0:
        return -np.inf
    bound = 3.0 * max(0.0, float(np.max(_transposed(problem, y))))
    return (gain - bound) / gain


def solve_feasibility(
    problem: LpProblem,
    max_iter: int | None = None,
) -> FeasibilityResult:
    """Decide the program by the residual r = b_eq - a_eq x of its NNLS solution x.

    max|r| <= ``config.LP_FEASIBILITY_TOL``: feasible, with x as the
    LhsModel.  Otherwise r is the certificate if ``verify_certificate`` gives
    it a positive margin; if not, or past ``max_iter`` passive-set solves
    (default three per variable, as scipy's ``nnls``), SolverLimitError is
    raised.
    """
    if max_iter is None:
        max_iter = 3 * problem.n_variables
    x, iterations = _nnls(*_normal_equations(problem), max_iter)
    r = _residual(problem, x)
    residual = float(np.max(np.abs(r)))
    tol = config.LP_FEASIBILITY_TOL
    if residual > tol:
        margin = verify_certificate(problem, r)
        if not margin > 0.0:
            raise SolverLimitError(
                f"NNLS residual {residual:.3g} is above the tolerance {tol:g} "
                f"but certifies nothing (margin {margin:.3g})"
            )
        return FeasibilityResult(
            feasible=False, residual=residual, iterations=iterations, certificate=r
        )
    x = np.where(x > 0.0, x, 0.0)  # as max(0.0, v): negatives and -0.0 become +0.0
    n_w = problem.weight_index(0)
    weights = x[n_w:]
    heavy = (weights > config.LP_WEIGHT_FLOOR)[:, None]
    w_block = x[:n_w].reshape(problem.n_members, -1)
    tables = np.divide(w_block, weights[:, None], out=np.zeros_like(w_block), where=heavy)
    # weightless members never influence the mixture; give them the uniform
    # response so normalization still holds
    responses = tuple(
        np.where(heavy, table, 1.0 / table.shape[1])
        for table in np.split(tables, [problem.n_outcomes[0]], axis=1)
    )
    model = LhsModel(
        member_weights=tuple(float(w) for w in weights),
        member_states=problem.candidates,
        responses=responses,
        outcome_labels=problem.outcome_labels,
    )
    return FeasibilityResult(
        feasible=True, residual=residual, iterations=iterations, model=model
    )


def verdict_label(result: FeasibilityResult, relative: bool) -> str:
    """The LP verdict as reported: an infeasible one is qualified when ``relative``."""
    if result.feasible:
        return "feasible"
    return "infeasible-relative-to-candidates" if relative else "infeasible"


def _judged(report: ParadoxReport, problem: LpProblem, relative: bool) -> ParadoxReport:
    """``report`` with the LP verdict and residual of ``problem``, solved once.

    The one place an LP answer enters a report; SolverLimitError passes
    through when the solver decides nothing.
    """
    result = solve_feasibility(problem)
    return replace(report, lp_verdict=verdict_label(result, relative), lp_residual=result.residual)


def verify_model(
    model: LhsModel, set1: ConditionalStateSet, set2: ConditionalStateSet
) -> float:
    """Largest violation of the hidden-state identities by an explicit model.

    Covers weight normalization, response normalization, every matching
    equation and the marginal identity; the returned value is the maximum
    over all of them (Frobenius norm for the matrix-valued ones).
    """
    weights = np.asarray(model.member_weights)
    states = model.member_states
    worst = abs(float(np.sum(weights)) - 1.0)
    for table, cs in zip(model.responses, (set1, set2)):
        if table.shape[0] != len(weights):
            raise DimensionError("response table does not match the member count")
        worst = max(worst, float(np.max(np.abs(np.sum(table, axis=1) - 1.0))))
        terms = (table * weights[:, None])[:, :, None, None] * states[:, None]
        mixtures = terms.sum(axis=0)
        worst = max(worst, float(np.max(np.linalg.norm(mixtures - cs.operators, axis=(1, 2)))))
    marginal = (weights[:, None, None] * states).sum(axis=0)
    return max(worst, float(np.linalg.norm(marginal - set1.total())))


__all__ = [
    "FeasibilityResult",
    "LhsModel",
    "LpProblem",
    "build_lp",
    "fallback_candidates",
    "problem_for",
    "solve_feasibility",
    "verdict_label",
    "verify_certificate",
    "verify_model",
]
