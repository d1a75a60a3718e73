"""Shared fixtures and independent brute-force oracles.

The helpers here recompute quantities along deliberately different code
paths than the library (explicit Kronecker products and block traces instead
of einsum contractions) so the tests cross-check real math, not the
implementation against itself.
"""

import numpy as np
import pytest

from steerlab import (
    BellLikeBasis,
    EnsembleState,
    MeasurementSetting,
    SteeringProtocol,
    random_rank1_setting,
    settings_equal,
    tensor_protocol,
)
from steerlab import DegenerateInputError, DimensionError, ValidationError, config
from steerlab.linalg import as_complex, canonical_phase


def phase_equal(u, v, tol=config.REQUIREMENT_TOL):
    """Whether two vectors agree up to a global phase, one pair at a time.

    Reference for ``linalg.phase_coincidences``: 1 - |<u|v>| / (|u| |v|)
    against ``tol``, from ``np.vdot`` and the two norms; a zero vector
    raises DegenerateInputError.
    """
    u = as_complex(u).ravel()
    v = as_complex(v).ravel()
    if u.shape != v.shape:
        raise DimensionError(f"phase_equal got shapes {u.shape} and {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < config.ZERO_FLOOR or nv < config.ZERO_FLOOR:
        raise DegenerateInputError("phase comparison with a zero vector is undefined")
    return bool(1.0 - abs(np.vdot(u, v)) / (nu * nv) < tol)


def brute_conditional(rho, projector, n_qubits, alice_qubits):
    """Bob's unnormalized conditional state via full-matrix products.

    Applies (P ⊗ 1) to rho explicitly and traces Alice out by summing the
    d_B x d_B diagonal blocks.
    """
    d_a = 2**alice_qubits
    d_b = 2 ** (n_qubits - alice_qubits)
    big = np.kron(projector, np.eye(d_b)) @ rho
    out = np.zeros((d_b, d_b), dtype=complex)
    for t in range(d_a):
        out += big[t * d_b : (t + 1) * d_b, t * d_b : (t + 1) * d_b]
    return out


def loop_conditional(rho, projectors, n_qubits, alice_qubits):
    """Bob's unnormalized conditional states, one einsum per outcome.

    Reference for ``conditional_states``' single product on density input:
    rho_a[j, l] = sum_{t, c} P_a[t, c] rho[(c, j), (t, l)].
    """
    d_a = 2**alice_qubits
    d_b = 2 ** (n_qubits - alice_qubits)
    r = rho.reshape(d_a, d_b, d_a, d_b)
    return np.array([np.einsum("tc,cjtl->jl", p, r) for p in projectors])


def plain_hermiticity_residuals(stack):
    """Largest |A - A^H| entry per matrix, with the conjugate transpose and the
    difference as two temporaries; reference for ``hermiticity_residuals``."""
    return np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)


def partial_trace(rho, n_qubits, traced):
    """Trace out the named qubits of an n-qubit operator, one qubit at a time.

    Qubit 0 is the leftmost factor; the kept qubits retain their order.
    Reference for ``bob_marginal``'s single trace over the reshaped matrix.
    """
    rho = as_complex(rho)
    traced_list = sorted(set(int(q) for q in traced))
    if len(traced_list) == n_qubits:
        return np.array([[np.trace(rho)]], dtype=np.complex128)
    t = rho.reshape([2] * (2 * n_qubits))
    for count, q in enumerate(traced_list):
        ax = q - count
        # ket and bra axes of the current tensor sit n_remaining apart
        t = np.trace(t, axis1=ax, axis2=ax + (n_qubits - count))
    keep = n_qubits - len(traced_list)
    return t.reshape(2**keep, 2**keep)


def pivoted_factor(m, tol):
    """``states._low_rank_psd``'s pivot loop: the taken columns L, or None when
    the loop stops on a nonpositive pivot or the len(m) // 32 budget."""
    dim = len(m)
    budget = dim // 32
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
        remaining[j] = 0.0
    return factor[:, :k]


def untiled_low_rank_psd(m, tol):
    """Whether ``states._low_rank_psd`` keeps a factor, with the remainder formed whole.

    The same pivoted partial factor L; then E = L L^H - m as one full-size
    array, every entry counted once.  Reference for the tiled remainder.
    """
    taken = pivoted_factor(m, tol)
    return taken is not None and bool(np.linalg.norm(taken @ taken.conj().T - m) < tol)


def legacy_density_check(n_qubits, matrix):
    """``DensityMatrix``'s checks as they ran before the whole remainder decided
    the factor: (exception type name, message), or None when accepted.

    Shape and cap, then the Hermiticity residual (not finite: the non-finite
    message), then the factor, tried only when the residual is below
    ZERO_FLOOR and judged on the remainder the lower triangle defines (its
    diagonal and twice its strictly lower part), else the shifted full
    Cholesky factor, then the trace.  Every array is formed whole.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    dim = 2**n_qubits
    try:
        if n_qubits < 1 or m.shape != (dim, dim):
            as_complex(m)
            raise DimensionError(
                f"density matrix of shape {m.shape} does not act on {n_qubits} qubits"
            )
        config.capped_dim(n_qubits)
        with np.errstate(invalid="ignore"):
            residual = plain_hermiticity_residuals(m)
        if not np.isfinite(residual):
            as_complex(m)
        if residual > config.HERMITICITY_TOL:
            raise ValidationError("density matrix is not Hermitian within 1e-10")
        kept = False
        if residual < config.ZERO_FLOOR:
            # the old constructor ran this loop unguarded, and it warned on
            # overflow; only its outcome is compared here
            with np.errstate(invalid="ignore", over="ignore"):
                taken = pivoted_factor(m, config.ZERO_FLOOR)
            if taken is not None:
                e = taken @ taken.conj().T - m
                lower = e * np.tri(dim, k=-1, dtype=bool)
                squared = e.diagonal().real @ e.diagonal().real + 2.0 * np.vdot(lower, lower).real
                kept = bool(squared < config.ZERO_FLOOR**2)
        if not kept:
            try:
                np.linalg.cholesky(m + config.PSD_TOL * np.eye(dim))
            except np.linalg.LinAlgError:
                raise ValidationError(
                    "density matrix is not positive semidefinite within 1e-9"
                ) from None
        trace = np.trace(m)
        if abs(trace.real - 1.0) > config.WEIGHT_TOL or abs(trace.imag) > config.WEIGHT_TOL:
            raise ValidationError(f"density matrix trace {trace!r} is not 1")
    except (DimensionError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    return None


def outer(v):
    """|v><v| of one vector; reference for ``linalg.outers``, one row at a time."""
    v = as_complex(v).ravel()
    return np.outer(v, v.conj())


def principal_vector(rho):
    """Top (largest-eigenvalue) eigenvector of a Hermitian matrix, phase-fixed.

    Reference for the principal vectors of a ``ConditionalStateSet`` and of a
    bare-projector ``MeasurementSetting``, one matrix at a time.
    """
    return canonical_phase(np.linalg.eigh(as_complex(rho))[1][:, -1])


def _counted_vectors(cs):
    return {
        label: principal_vector(op)
        for label, op in zip(cs.outcomes, cs.operators)
        if np.trace(op).real > config.PROB_FLOOR
    }


def pairwise_duplicates(set1, set2, tol=config.REQUIREMENT_TOL):
    """(cross, within_1, within_2) coincidences by one phase_equal call per pair.

    Reference for the overlap-matrix check; the conditional states must be pure.
    """
    v1, v2 = _counted_vectors(set1), _counted_vectors(set2)

    def within(vecs):
        labels = list(vecs)
        return tuple(
            (a, b)
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
            if phase_equal(vecs[a], vecs[b], tol)
        )

    cross = tuple((a, b) for a in v1 for b in v2 if phase_equal(v1[a], v2[b], tol))
    return cross, within(v1), within(v2)


def pairwise_candidates(set1, set2, tol=config.REQUIREMENT_TOL):
    """Greedy phase_equal deduplication of the counted principal vectors, setting 1 first."""
    kept = []
    for cs in (set1, set2):
        for v in _counted_vectors(cs).values():
            if not any(phase_equal(u, v, tol) for u in kept):
                kept.append(v)
    return [outer(v) for v in kept]


def loop_lp(set1, set2, candidates):
    """(a_eq, b_eq) of the feasibility program, one entry at a time.

    Reference for ``build_lp``'s array assembly: same row and column layout,
    filled by nested loops over outcomes, entries, parts and members.
    """
    n1, n2 = len(set1.operators), len(set2.operators)
    k, dim = len(candidates), set1.operators[0].shape[0]
    n_matching = 2 * dim * dim * (n1 + n2)
    a = np.zeros((n_matching + 2 * k + 1, k * (n1 + n2) + k))
    b = np.zeros(len(a))
    row = 0
    for offset, cs in ((0, set1), (n1, set2)):
        for o, op in enumerate(cs.operators):
            for r in range(dim):
                for c in range(dim):
                    for part in (np.real, np.imag):
                        for xi, cand in enumerate(candidates):
                            a[row, xi * (n1 + n2) + offset + o] = float(part(cand[r, c]))
                        b[row] = float(part(op[r, c]))
                        row += 1
    for xi in range(k):
        for offset, n_out in ((0, n1), (n1, n2)):
            for o in range(n_out):
                a[row, xi * (n1 + n2) + offset + o] = 1.0
            a[row, k * (n1 + n2) + xi] = -1.0
            row += 1
    a[row, k * (n1 + n2) :] = 1.0
    b[row] = 1.0
    return a, b


def loop_nnls(a, b, max_iter):
    """Lawson and Hanson's NNLS on the full A, with index lists and Python loops.

    Reference for ``lhs_lp._nnls``, which solves each passive set from the
    Gram matrix A^T A: same dual tolerance and entering rule, the passive set kept as a sorted
    list and each step-length ratio taken one index at a time.  Returns
    (x, iterations) or None when max_iter least-squares solves do not finish.
    """
    m, n = a.shape
    tol = 10 * np.finfo(float).eps * np.linalg.norm(a, 1) * max(m, n)
    x = np.zeros(n)
    passive = []
    skipped = set()
    iterations = 0

    def solve():
        z = np.zeros(n)
        if passive:
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        return z

    while len(passive) < n:
        dual = a.T @ (b - a @ x)
        candidates = [j for j in range(n) if j not in passive and j not in skipped]
        if not candidates:
            break
        entering = max(candidates, key=lambda j: dual[j])
        if dual[entering] <= tol:
            break
        passive = sorted(passive + [entering])
        iterations += 1
        if iterations > max_iter:
            return None
        z = solve()
        if z[entering] <= 0.0:
            passive.remove(entering)
            skipped.add(entering)
            continue
        skipped.clear()
        while any(z[j] <= 0.0 for j in passive):
            step = min(x[j] / (x[j] - z[j]) for j in passive if z[j] <= 0.0)
            for j in range(n):
                x[j] += step * (z[j] - x[j])
            passive = [j for j in passive if x[j] > tol]
            iterations += 1
            if iterations > max_iter:
                return None
            z = solve()
        x = z
    return x, iterations


def w_index(problem, member, which, outcome):
    """Column of w_member(outcome | setting ``which``) in an LpProblem's variables."""
    n1, n2 = problem.n_outcomes
    return member * (n1 + n2) + (0 if which == 1 else n1) + outcome


def loop_model_tables(problem, x):
    """(weights, responses) of a feasible vertex x, one entry at a time.

    Reference for ``solve_feasibility``'s array form: negative entries clip
    to 0.0, and members at or below the weight floor get the uniform response.
    """
    k = problem.n_members
    n1, n2 = problem.n_outcomes
    weights = np.array([max(0.0, x[problem.weight_index(i)]) for i in range(k)])
    responses = (np.zeros((k, n1)), np.zeros((k, n2)))
    for xi in range(k):
        for which, n_out in ((1, n1), (2, n2)):
            table = responses[which - 1]
            if weights[xi] > config.LP_WEIGHT_FLOOR:
                for a in range(n_out):
                    table[xi, a] = max(0.0, x[w_index(problem, xi, which, a)]) / weights[xi]
            else:
                table[xi, :] = 1.0 / n_out
    return weights, responses


def loop_verify_model(model, set1, set2):
    """``verify_model`` with every mixture accumulated member by member in Python."""
    weights = np.asarray(model.member_weights)
    worst = abs(float(np.sum(weights)) - 1.0)
    for table in model.responses:
        worst = max(worst, float(np.max(np.abs(np.sum(table, axis=1) - 1.0))))
    for which, cs in ((1, set1), (2, set2)):
        table = model.responses[which - 1]
        for a, op in enumerate(cs.operators):
            acc = np.zeros_like(op)
            for xi, state in enumerate(model.member_states):
                acc = acc + table[xi, a] * weights[xi] * state
            worst = max(worst, float(np.linalg.norm(acc - op)))
    rho_b = set1.total()
    acc = np.zeros_like(rho_b)
    for xi, state in enumerate(model.member_states):
        acc = acc + weights[xi] * state
    return max(worst, float(np.linalg.norm(acc - rho_b)))


def completeness_gap(setting):
    """Frobenius distance of a setting's projector sum from the identity."""
    return float(np.linalg.norm(setting.projectors.sum(0) - np.eye(setting.dim)))


def loop_settings_equal(a, b):
    """Reference for ``settings_equal``: the greedy entrywise matching alone.

    Each projector of ``a`` takes the first still unmatched projector of ``b``
    within ``config.SETTING_TOL``, entrywise, with no overlap pre-check.
    """
    if a.m_qubits != b.m_qubits or a.n_outcomes != b.n_outcomes:
        return False
    unmatched = np.ones(b.n_outcomes, dtype=bool)
    for p in a.projectors:
        close = np.max(np.abs(b.projectors - p), axis=(1, 2)) <= config.SETTING_TOL
        match = np.flatnonzero(unmatched & close)
        if match.size == 0:
            return False
        unmatched[match[0]] = False
    return True


def overlaps(setting_1, setting_2):
    """V[j, i] = <setting_2 vector j | setting_1 vector i> for two rank-1 settings."""
    return setting_2.vectors.conj() @ setting_1.vectors.T


def pack(problem, weights, responses):
    """Variable vector of an LpProblem for an explicit model assignment."""
    x = np.zeros(problem.n_variables)
    for xi in range(problem.n_members):
        for which in (1, 2):
            table = responses[which - 1]
            for a in range(problem.n_outcomes[which - 1]):
                x[w_index(problem, xi, which, a)] = table[xi, a] * weights[xi]
        x[problem.weight_index(xi)] = weights[xi]
    return x


def lp_residuals(problem, x):
    """Max absolute violation of an LpProblem per row group for a candidate solution."""
    r = problem.a_eq @ x - problem.b_eq
    m0, m1 = problem.matching_rows
    c0, c1 = problem.coupling_rows
    return {
        "matching": float(np.max(np.abs(r[m0:m1]), initial=0.0)),
        "coupling": float(np.max(np.abs(r[c0:c1]), initial=0.0)),
        "normalization": float(abs(r[problem.normalization_row])),
    }


def reconstruct(decomposition, outcome_index):
    """sum_alpha p_alpha |c|^2 |v><v| of a CollapseDecomposition for one outcome; equals rho_a."""
    vecs = decomposition.vectors[:, outcome_index]
    out = np.zeros((vecs.shape[1], vecs.shape[1]), dtype=np.complex128)
    for p, c_row, v in zip(decomposition.weights, decomposition.coefficients, vecs):
        out += p * abs(c_row[outcome_index]) ** 2 * outer(v)
    return out


def loop_collapse(ensemble, setting, alice_qubits):
    """(coefficients, vectors) of the collapse, one ensemble component at a time.

    Reference for ``collapse_decomposition``'s single product: an empty
    branch has coefficient 0 and vector None.
    """
    u_conj = setting.rank1_vectors().conj()
    d_a = 2**alice_qubits
    d_b = 2 ** (ensemble.n_qubits - alice_qubits)
    coefficients = np.zeros((ensemble.n_terms, setting.n_outcomes), dtype=np.complex128)
    vectors = []
    for a, psi in enumerate(ensemble.vectors):
        branches = u_conj @ psi.reshape(d_a, d_b)
        norms = np.linalg.norm(branches, axis=1)
        filled = norms >= config.COLLAPSE_FLOOR
        coefficients[a, filled] = norms[filled]
        vectors.append(tuple(b / n if f else None for b, n, f in zip(branches, norms, filled)))
    return coefficients, tuple(vectors)


def loop_fallback_candidates(set1, set2, prob_floor=config.PROB_FLOOR):
    """``fallback_candidates`` with each candidate compared to the kept ones in turn."""
    candidates = []

    def push(mat):
        if not any(np.linalg.norm(mat - c) <= config.CANDIDATE_TOL for c in candidates):
            candidates.append(mat)

    for cs in (set1, set2):
        for op, p in zip(cs.operators, cs.probabilities):
            if p > prob_floor:
                push(op / p)
    rho_b = set1.total()
    w, v = np.linalg.eigh((rho_b + rho_b.conj().T) / 2)
    for i in range(len(w)):
        if w[i] > config.RANK_TOL:
            push(outer(v[:, i]))
    return np.array(candidates)


def loop_two_term_violations(ensemble, pairs, alice_qubits):
    """(violations, slots, coefficients, bob_pairs) of ``two_term_extract``, one component at a time.

    Reference for the stacked extraction: each component's projections are
    separate products with the pair vectors, and the coincident-pair test is
    one ``phase_equal`` call.
    """
    d_a, d_b = 2**alice_qubits, 2 ** (ensemble.n_qubits - alice_qubits)
    violations, slots, coefficients, bob_pairs = [], [], [], []
    for alpha, psi in enumerate(ensemble.vectors):
        block = psi.reshape(d_a, d_b)
        projections = [(plus.conj() @ block, minus.conj() @ block) for plus, minus in pairs]
        masses = [np.linalg.norm(p) ** 2 + np.linalg.norm(m) ** 2 for p, m in projections]
        support = [q for q, mass in enumerate(masses) if mass > config.SUPPORT_TOL]
        if len(support) != 1:
            violations.append((alpha, "multi-slot support"))
            continue
        p_proj, m_proj = projections[support[0]]
        sp, sm = np.linalg.norm(p_proj), np.linalg.norm(m_proj)
        if min(sp, sm) ** 2 <= config.SUPPORT_TOL:
            violations.append((alpha, "product form"))
            continue
        if phase_equal(p_proj / sp, m_proj / sm):
            violations.append((alpha, "coincident collapse pair"))
            continue
        slots.append(support[0])
        coefficients.append((sp, sm))
        bob_pairs.append((p_proj / sp, m_proj / sm))
    kept = [a for a in range(ensemble.n_terms) if a not in {v[0] for v in violations}]
    for alpha, slot in zip(kept, slots):
        if slots.count(slot) > 1:
            violations.append((alpha, "shared slot"))
    return sorted(violations), slots, coefficients, bob_pairs


def form_ensemble(form):
    """The EnsembleState a TwoTermForm describes, one vector per component."""
    vectors = tuple(form.component_vector(a) for a in range(form.n_components))
    return EnsembleState(form.n_qubits, form.weights, vectors)


def with_beta(basis, beta):
    """The same BellLikeBasis family at a different angle."""
    return BellLikeBasis(beta, basis.pairs, basis.family_label)


def random_protocol(m_qubits, seed):
    rng = np.random.default_rng([seed, 17])
    s1 = random_rank1_setting(m_qubits, rng, label="s1")
    s2 = random_rank1_setting(m_qubits, rng, label="s2")
    while settings_equal(s1, s2):
        s2 = random_rank1_setting(m_qubits, rng, label="s2")
    return SteeringProtocol(alice_qubits=m_qubits, setting_1=s1, setting_2=s2)


def partial_duplicate_instance(shared, seed):
    """psi = sum_a c_a u_a (x) v_a on n = 4, M = 2, with Haar c, u_a and v_a, and its protocol.

    Setting 1 measures {u_a}; setting 2 keeps the first ``shared`` of the u_a
    and Haar-rotates the rest within their span.  Every conditional state is
    pure, and setting 2's first ``shared`` outcomes repeat setting 1's, so
    ``shared`` > 0 gives a cross duplicate whose LP is still infeasible.
    """
    rng = np.random.default_rng([seed, 23])

    def haar(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    c = haar(4)
    c /= np.linalg.norm(c)
    u, _ = np.linalg.qr(haar((4, 4)))
    u = u.T  # rows u_a
    v = haar((4, 4))
    v /= np.linalg.norm(v, axis=1)[:, None]
    psi = sum(c[a] * np.kron(u[a], v[a]) for a in range(4))
    rotation, _ = np.linalg.qr(haar((4 - shared, 4 - shared)))
    u2 = np.concatenate([u[:shared], rotation @ u[shared:]])
    outcomes = ("00", "01", "10", "11")
    s1 = MeasurementSetting("u", 2, outcomes, vectors=u)
    s2 = MeasurementSetting("u-rotated", 2, outcomes, vectors=u2)
    state = EnsembleState(4, (1.0,), (psi / np.linalg.norm(psi),))
    return state, SteeringProtocol(alice_qubits=2, setting_1=s1, setting_2=s2)


@pytest.fixture
def zx_protocol():
    return tensor_protocol("z", "x", n_qubits=2)


@pytest.fixture
def zzyx_protocol():
    return tensor_protocol("zz", "yx", n_qubits=4)
