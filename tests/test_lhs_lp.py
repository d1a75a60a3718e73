"""Feasibility program assembly, the NNLS decision and its certificate, and external cross-checks."""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    loop_fallback_candidates,
    loop_lp,
    loop_model_tables,
    loop_nnls,
    loop_verify_model,
    lp_residuals,
    pack,
    random_protocol,
)
from steerlab import (
    ConditionalStateSet,
    EnsembleState,
    LhsModel,
    SolverLimitError,
    SteeringProtocol,
    basis_ket,
    build_lp,
    certify,
    conditional_states,
    density_of,
    fallback_candidates,
    lc4_mixed,
    problem_for,
    random_mixed,
    random_pure,
    random_rank1_setting,
    solve_feasibility,
    tensor_protocol,
    two_qubit_theta_state,
    verify_certificate,
    verify_model,
)
from steerlab import config, lhs_lp
from steerlab.lhs_lp import _nnls, _normal_equations, _residual, _transposed

# explicit cap for direct solver calls: the benchmark's budget, well above
# the three solves per column that any program here needs
NNLS_CAP = 1000


def sets_for(state, protocol):
    rho = density_of(state) if isinstance(state, EnsembleState) else state
    return (
        conditional_states(rho, protocol, 1),
        conditional_states(rho, protocol, 2),
    )


def two_qubit_sets(theta=np.pi / 4):
    return sets_for(two_qubit_theta_state(theta), tensor_protocol("z", "x", n_qubits=2))


class TestCandidates:
    def test_two_qubit_candidate_count(self):
        s1, s2 = two_qubit_sets()
        assert len(problem_for(s1, s2)[0].candidates) == 4

    def test_product_single_candidate(self):
        ens = EnsembleState(2, (1.0,), (basis_ket(2, 0),))
        s1, s2 = sets_for(ens, tensor_protocol("z", "x", n_qubits=2))
        assert len(problem_for(s1, s2)[0].candidates) == 1

    def test_lc4_candidate_count(self):
        s1, s2 = sets_for(lc4_mixed(np.pi / 4), tensor_protocol("zz", "yx", n_qubits=4))
        assert len(problem_for(s1, s2)[0].candidates) == 4

    def test_candidates_are_projectors(self):
        s1, s2 = two_qubit_sets(np.pi / 6)
        for c in problem_for(s1, s2)[0].candidates:
            np.testing.assert_allclose(c @ c, c, atol=1e-10)
            np.testing.assert_allclose(np.trace(c), 1.0, atol=1e-10)

    def test_mixed_conditionals_rejected(self):
        # mixed conditionals leave the pure-state list for the fallback one
        mix = EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3)))
        s1, s2 = sets_for(mix, tensor_protocol("z", "x", n_qubits=2))
        fallback = fallback_candidates(s1, s2)
        assert len(fallback) >= 2
        assert problem_for(s1, s2)[0].candidates.tobytes() == fallback.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_fallback_matches_loop_reference(self, seed):
        m = 1 + seed % 2
        state = random_mixed(m + 1 + seed % 3, 2 + seed % 2, seed)
        protocol = random_protocol(m, seed)
        s1, s2 = (conditional_states(state, protocol, k) for k in (1, 2))
        got, want = fallback_candidates(s1, s2), loop_fallback_candidates(s1, s2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("inside", [True, False])
    def test_fallback_pair_at_candidate_tol(self, inside):
        # the two states differ only in two off-diagonal entries e, and every
        # division is by 0.5, so both forms compute the distance sqrt(2 e^2)
        # exactly alike; e is the last (inside) or first (outside) float on
        # its side of CANDIDATE_TOL
        e = config.CANDIDATE_TOL / np.sqrt(2)
        while np.sqrt(2 * e * e) <= config.CANDIDATE_TOL:
            e = np.nextafter(e, 1.0)
        if inside:
            e = np.nextafter(e, 0.0)
        a = np.eye(2, dtype=complex) / 2
        near = a + np.array([[0.0, e], [e, 0.0]])
        s1 = ConditionalStateSet(1, "s1", 1, ("0", "1"), (a / 2, np.diag([0.5, 0.0])))
        s2 = ConditionalStateSet(2, "s2", 1, ("0", "1"), (near / 2, np.diag([0.0, 0.5])))
        got, want = fallback_candidates(s1, s2), loop_fallback_candidates(s1, s2)
        assert got.tobytes() == want.tobytes()
        # a, diag(1, 0), near unless it counts as a, diag(0, 1); the marginal's
        # eigenprojectors repeat the two diagonal ones
        assert len(got) == (3 if inside else 4)

    def test_problem_for_marks_relative(self):
        mix = EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3)))
        s1, s2 = sets_for(mix, tensor_protocol("z", "x", n_qubits=2))
        _, relative = problem_for(s1, s2)
        assert relative
        _, relative = problem_for(*two_qubit_sets())
        assert not relative


class TestProblemAssembly:
    def test_variable_layout(self):
        s1, s2 = two_qubit_sets()
        problem, _ = problem_for(s1, s2)
        assert problem.n_members == 4
        assert problem.n_variables == 4 * (2 + 2) + 4 == 20
        # matching rows: 2 settings x 2 outcomes x (2x2 entries x re/im)
        assert problem.matching_rows == (0, 32)
        assert problem.coupling_rows == (32, 40)
        assert problem.normalization_row == 40
        assert problem.a_eq.shape == (32 + 8 + 1, 20)
        assert problem.b_eq[problem.normalization_row] == 1.0

    def test_hand_built_model_has_zero_residuals(self):
        # two-member model for the classical mixture of |00> and |11>
        mix = EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3)))
        s1, s2 = sets_for(mix, tensor_protocol("z", "x", n_qubits=2))
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        problem = build_lp(s1, s2, [zero, one])
        weights = np.array([0.5, 0.5])
        responses = (
            np.array([[1.0, 0.0], [0.0, 1.0]]),  # z outcomes follow the member
            np.array([[0.5, 0.5], [0.5, 0.5]]),  # x outcomes are coin flips
        )
        x = pack(problem, weights, responses)
        res = lp_residuals(problem, x)
        assert res["matching"] < 1e-12
        assert res["coupling"] < 1e-12
        assert res["normalization"] < 1e-12

    @pytest.mark.parametrize(
        "kind", ["two-qubit", "lc4", "fallback", "rank2-m2", "given"]
    )
    def test_matches_loop_reference(self, kind):
        """The array assembly writes the loop reference's floats, bit for bit."""
        if kind == "two-qubit":
            s1, s2 = two_qubit_sets(np.pi / 5)
        elif kind == "lc4":
            s1, s2 = sets_for(lc4_mixed(0.4), tensor_protocol("zz", "yx", n_qubits=4))
        elif kind == "fallback":
            s1, s2 = sets_for(random_mixed(3, 2, 5), random_protocol(1, 5))
        elif kind == "rank2-m2":
            s1, s2 = sets_for(random_mixed(4, 2, 8), random_protocol(2, 8))
        else:
            s1, s2 = two_qubit_sets()
        if kind == "given":
            candidates = [np.diag([1.0, 0.0]).astype(complex), np.eye(2) / 2]
        else:
            candidates = problem_for(s1, s2)[0].candidates
        problem = build_lp(s1, s2, candidates)
        a, b = loop_lp(s1, s2, candidates)
        assert problem.a_eq.tobytes() == a.tobytes()
        assert problem.b_eq.tobytes() == b.tobytes()

    def test_rejects_bad_candidate(self):
        s1, s2 = two_qubit_sets()
        from steerlab import ValidationError

        with pytest.raises(ValidationError):
            build_lp(s1, s2, [np.diag([2.0, 0.0]).astype(complex)])

    def test_candidates_are_a_read_only_copy(self):
        """Writing into the caller's candidates reaches neither the program nor its model."""
        s1, s2 = sets_for(
            EnsembleState(2, (1.0,), (basis_ket(2, 0),)), tensor_protocol("z", "x", n_qubits=2)
        )
        source = np.array(problem_for(s1, s2)[0].candidates)
        problem = build_lp(s1, s2, source)
        model = solve_feasibility(problem).model
        kept = problem.candidates.tobytes()
        source[0, 0, 0] = 9
        assert problem.candidates.tobytes() == kept
        assert model.member_states.tobytes() == kept
        for stored in (problem.candidates, model.member_states):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0, 0] = 9

    def test_json_dump_shape(self):
        import json

        s1, s2 = two_qubit_sets()
        problem, _ = problem_for(s1, s2)
        doc = problem.to_json_dict()
        json.dumps(doc)
        assert len(doc["a_eq"]) == problem.a_eq.shape[0]
        assert doc["n_variables"] == 20


def _random_n4(rank, seed):
    return sets_for(random_mixed(4, rank, seed), random_protocol(2, seed))


def _lp_oracle_instance(seed, index):
    """The program of benchmark instance lp-oracle (seed, index), its draws repeated.

    The share is index mod 3: 0 is ``haar-pure`` (195) and 2 ``rank2-mixed``
    (137), each with two Haar-random settings on two qubits.
    """
    rng = np.random.default_rng([seed, index])
    assert index % 3 in (0, 2)
    if index % 3 == 0:
        state = EnsembleState(4, (1.0,), (random_pure(4, int(rng.integers(2**62))),))
    else:
        state = random_mixed(4, 2, int(rng.integers(2**62)))
    s1, s2 = (random_rank1_setting(2, rng) for _ in range(2))
    return problem_for(*sets_for(state, SteeringProtocol(2, s1, s2, 4)))


class _ZeroStepNumpy:
    """numpy, except that ``min`` returns 0: the NNLS step length is always 0."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def min(values):
        return 0.0


def _haar_pair():
    """Two Haar-random pure members 1e-7 apart."""
    rng = np.random.default_rng(17)
    v, w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = v + 1e-7 * w / np.linalg.norm(w)
    return [np.outer(x, x.conj()) / np.vdot(x, x).real for x in (v, u)]


DEGENERATE_CANDIDATES = {
    "repeated": lambda: [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag([1.0, 0.0])],
    "dependent": lambda: [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2],
    "haar-pair": _haar_pair,
}


def _highs_feasible(problem):
    lp = scipy.optimize.linprog(
        c=np.zeros(problem.n_variables),
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=(0, None),
        method="highs",
    )
    assert lp.status in (0, 2), lp.message
    return lp.status == 0


class TestSolver:
    def test_paradox_instances_infeasible(self):
        # max|r| and ||r||_2 of each least-squares residual r; 13/112 and 7/138
        for sets, residual, norm in (
            (two_qubit_sets(np.pi / 4), 13 / 112, 0.2988071523335984),
            (
                sets_for(lc4_mixed(np.pi / 3), tensor_protocol("zz", "yx", n_qubits=4)),
                7 / 138,
                0.2252213082307254,
            ),
        ):
            problem, relative = problem_for(*sets)
            assert not relative
            result = solve_feasibility(problem)
            assert not result.feasible
            assert result.model is None
            assert result.residual == pytest.approx(residual, rel=1e-9)
            assert np.linalg.norm(result.certificate) == pytest.approx(norm, rel=1e-9)
            assert verify_certificate(problem, result.certificate) > 1 - 1e-9

    def test_feasible_instances_verify(self):
        for state in (
            EnsembleState(2, (1.0,), (basis_ket(2, 0),)),
            EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3))),
        ):
            s1, s2 = sets_for(state, tensor_protocol("z", "x", n_qubits=2))
            problem, _ = problem_for(s1, s2)
            result = solve_feasibility(problem)
            assert result.feasible
            assert result.certificate is None
            assert result.residual < 1e-9
            assert verify_model(result.model, s1, s2) <= 1e-8

    def test_deterministic_runs(self):
        problem, _ = problem_for(*two_qubit_sets(np.pi / 6))
        a = solve_feasibility(problem)
        b = solve_feasibility(problem)
        assert a.iterations == b.iterations
        assert np.float64(a.residual).tobytes() == np.float64(b.residual).tobytes()
        assert a.certificate.tobytes() == b.certificate.tobytes()

    def test_iteration_cap_raises(self):
        problem, _ = problem_for(*two_qubit_sets())
        with pytest.raises(SolverLimitError, match="^NNLS exceeded 1 iterations"):
            solve_feasibility(problem, max_iter=1)

    def test_default_cap_is_three_solves_per_variable(self, monkeypatch):
        caps = []

        def recording(gram, atb, tol, max_iter):
            caps.append(max_iter)
            return _nnls(gram, atb, tol, max_iter)

        monkeypatch.setattr(lhs_lp, "_nnls", recording)
        problem, _ = problem_for(*two_qubit_sets())
        solve_feasibility(problem)
        solve_feasibility(problem, max_iter=1000)
        assert caps == [3 * problem.n_variables, 1000]

    def test_stalled_step_stops_at_default_cap(self, monkeypatch):
        """A step length of 0 never moves x, so the same column enters and
        leaves forever; the default cap ends that within a second."""
        problem, relative = problem_for(*_random_n4(2, 1))
        assert relative
        monkeypatch.setattr(lhs_lp, "np", _ZeroStepNumpy())
        cap = 3 * problem.n_variables
        start = time.perf_counter()
        with pytest.raises(SolverLimitError, match=f"^NNLS exceeded {cap} iterations"):
            solve_feasibility(problem)
        assert time.perf_counter() - start < 1.0

    def test_singular_passive_block_raises(self, monkeypatch):
        """A zero Gram diagonal at the first entering column is a zero pivot."""
        problem, _ = problem_for(*two_qubit_sets())

        def zero_pivot(problem):
            gram, atb, tol = _normal_equations(problem)
            entering = np.argmax(atb)
            gram[entering, entering] = 0.0
            return gram, atb, tol

        monkeypatch.setattr(lhs_lp, "_normal_equations", zero_pivot)
        with pytest.raises(SolverLimitError, match=r"^NNLS passive Gram block \(1 x 1\) is singular$"):
            solve_feasibility(problem)

    def test_dependent_entering_column_raises(self):
        """A column opposite to the passive one leaves a pivot of 0: the 2 x 2 block is singular."""
        gram = np.array([[1.0, -1.0], [-1.0, 1.0]])  # A's two columns are a and -a
        atb = np.array([1.0, 0.5])  # no b gives this A^T b, so the second column still enters
        with pytest.raises(SolverLimitError, match=r"^NNLS passive Gram block \(2 x 2\) is singular$"):
            _nnls(gram, atb, 1e-12, NNLS_CAP)

    @pytest.mark.parametrize("sets", ["paradox-two-qubit-6", "feasible-mixture"])
    @pytest.mark.parametrize("kind", sorted(DEGENERATE_CANDIDATES))
    def test_degenerate_candidates_decide_or_raise(self, sets, kind):
        """Repeated, linearly dependent and nearly equal members make the Gram
        matrix singular or nearly so: the verdict is HiGHS's, or none."""
        s1, s2 = LP_CASES[sets]()
        problem = build_lp(s1, s2, DEGENERATE_CANDIDATES[kind]())
        try:
            result = solve_feasibility(problem)
        except SolverLimitError:
            return
        assert result.feasible == _highs_feasible(problem)
        if result.feasible:
            assert verify_model(result.model, s1, s2) <= 1e-8
        else:
            assert verify_certificate(problem, result.certificate) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 2))
    def test_agrees_with_external_solver(self, seed, rank):
        state = random_mixed(2, rank, seed)
        protocol = random_protocol(1, seed)
        s1, s2 = sets_for(state, protocol)
        problem, _ = problem_for(s1, s2)
        result = solve_feasibility(problem)
        assert result.feasible == _highs_feasible(problem)
        if result.feasible:
            assert verify_model(result.model, s1, s2) <= 1e-8
        else:
            assert verify_certificate(problem, result.certificate) > 0.0

    @pytest.mark.parametrize("seed, index", [(104, 195), (513, 137)])
    def test_former_stalls_decide(self, seed, index):
        """lp-oracle instances on which the phase-1 simplex found an "unbounded
        direction" (104, 195) and a vertex off its rows by 6.5e19 (513, 137)."""
        problem, relative = _lp_oracle_instance(seed, index)
        assert relative == (index % 3 == 2)
        result = solve_feasibility(problem, max_iter=1000)
        assert result.feasible == _highs_feasible(problem)
        assert not result.feasible
        assert result.residual > 0.01
        assert verify_certificate(problem, result.certificate) > 1 - 1e-9

    def test_vertex_off_its_rows_raises(self, monkeypatch):
        """A solution far off its rows, as the simplex's vertex with weights near
        1.9e18 on lp-oracle (513, 137), is neither a model nor a certificate.

        With x = c x* for the least-squares x*, b^T (b - Ax) = (1 - c)||b||^2 +
        c ||b - Ax*||^2, negative for large c: the solve raises.
        """
        problem, relative = _lp_oracle_instance(513, 137)
        assert relative
        x, _ = _nnls(*_normal_equations(problem), NNLS_CAP)
        far = x * 1e18
        monkeypatch.setattr(lhs_lp, "_nnls", lambda gram, atb, tol, max_iter: (far, 6))
        message = r"^NNLS residual \d\.\d+e\+\d\d is above .* certifies nothing \(margin -inf\)$"
        with pytest.raises(SolverLimitError, match=message):
            solve_feasibility(problem)

    def test_off_row_vertex_is_not_a_model(self, monkeypatch):
        """A solution whose rows miss b_eq by 2e-9 certifies nothing, so the solve raises."""
        problem, _ = problem_for(*LP_CASES["feasible-product"]())
        x, _ = _nnls(*_normal_equations(problem), NNLS_CAP)
        scaled = x * (1 + 2e-9)  # the coupling rows still hold, b_eq's largest rows do not
        monkeypatch.setattr(lhs_lp, "_nnls", lambda gram, atb, tol, max_iter: (scaled, 6))
        message = r"^NNLS residual 2e-09 is above the tolerance 1e-09 but certifies nothing"
        with pytest.raises(SolverLimitError, match=message):
            solve_feasibility(problem)

    def test_model_reproduces_members(self):
        s1, s2 = sets_for(
            EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3))),
            tensor_protocol("z", "x", n_qubits=2),
        )
        problem, _ = problem_for(s1, s2)
        result = solve_feasibility(problem)
        model = result.model
        np.testing.assert_allclose(np.sum(model.member_weights), 1.0, atol=1e-9)
        for table in model.responses:
            np.testing.assert_allclose(np.sum(table, axis=1), 1.0, atol=1e-9)


class TestCertificate:
    def test_feasible_point_bounds_every_certificate(self):
        """b^T y <= 3 max(0, max A^T y) whenever Ax = b, x >= 0, so no y certifies."""
        s1, s2 = LP_CASES["feasible-mixture"]()
        problem, _ = problem_for(s1, s2)
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = rng.normal(size=len(problem.b_eq))
            assert verify_certificate(problem, y) <= 1e-12

    def test_bound_is_tight(self):
        """y = 3 (normalization) + 1 (every coupling row) has A^T y = 1 and b^T y = 3.

        The feasible total 1^T x = 3 meets the bound with equality, so the
        margin is 0: a smaller factor than 3 would certify a feasible program.
        """
        problem, _ = problem_for(*LP_CASES["feasible-mixture"]())
        y = np.zeros(len(problem.b_eq))
        y[slice(*problem.coupling_rows)] = 1.0
        y[problem.normalization_row] = 3.0
        np.testing.assert_array_equal(problem.a_eq.T @ y, 1.0)
        assert verify_certificate(problem, y) == 0.0

    def test_sign_flipped_certificate_is_rejected(self):
        problem, _ = problem_for(*two_qubit_sets())
        y = solve_feasibility(problem).certificate
        assert verify_certificate(problem, -y) == -np.inf
        assert verify_certificate(problem, np.zeros_like(y)) == -np.inf

    def test_margin_is_normalized(self):
        problem, _ = problem_for(*two_qubit_sets())
        y = solve_feasibility(problem).certificate
        margin = verify_certificate(problem, y)
        assert verify_certificate(problem, 1e6 * y) == pytest.approx(margin, rel=1e-12)


# The LP instances of this file and of test_acceptance.py, by kind, and random
# n=4/M=2 ones, feasible and not.
LP_CASES = {
    **{
        f"paradox-two-qubit-{k}": (lambda k=k: two_qubit_sets(k * np.pi / 24))
        for k in (3, 4, 5, 6, 8, 9)
    },
    **{
        f"paradox-lc4-{name}": (
            lambda theta=theta: sets_for(
                lc4_mixed(theta), tensor_protocol("zz", "yx", n_qubits=4)
            )
        )
        for name, theta in (
            ("pi/6", np.pi / 6), ("pi/4", np.pi / 4), ("pi/3", np.pi / 3), ("0.4", 0.4)
        )
    },
    "feasible-product": lambda: sets_for(
        EnsembleState(2, (1.0,), (basis_ket(2, 0),)), tensor_protocol("z", "x", n_qubits=2)
    ),
    "feasible-mixture": lambda: sets_for(
        EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3))),
        tensor_protocol("z", "x", n_qubits=2),
    ),
    "fallback-n3": lambda: sets_for(random_mixed(3, 2, 5), random_protocol(1, 5)),
    "fallback-n2-rank2": lambda: sets_for(random_mixed(2, 2, 11), random_protocol(1, 11)),
    "haar-n2-9990": lambda: sets_for(random_mixed(2, 1, 9990), random_protocol(1, 9990)),
    **{f"haar-n4-{seed}": (lambda seed=seed: _random_n4(1, seed)) for seed in range(6)},
    **{f"rank2-n4-{seed}": (lambda seed=seed: _random_n4(2, seed)) for seed in (1, 2, 6, 10)},
}


def _assert_matches_references(problem):
    """``_nnls``, the loop reference and ``scipy.optimize.nnls`` agree.

    Same verdict at the feasibility tolerance, and residual norms within
    1e-10 relative: the minimum is unique even where the minimizer is not.
    """
    x, _ = _nnls(*_normal_equations(problem), NNLS_CAP)
    looped = loop_nnls(problem.a_eq, problem.b_eq, NNLS_CAP)
    assert looped is not None
    compiled, _ = scipy.optimize.nnls(
        problem.a_eq, problem.b_eq, maxiter=50 * problem.n_variables
    )
    tol = config.LP_FEASIBILITY_TOL
    r = problem.b_eq - problem.a_eq @ x
    for ref in (looped[0], compiled):
        r_ref = problem.b_eq - problem.a_eq @ ref
        assert (np.max(np.abs(r)) <= tol) == (np.max(np.abs(r_ref)) <= tol)
        assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(r_ref), rel=1e-10, abs=1e-12)
    assert np.all(x >= 0.0)


class TestSimplexDifferential:
    """The solver against a loop Lawson-Hanson and scipy's compiled NNLS.

    The cases, and the class name, are those the deleted phase-1 simplex
    was checked on against its own row-loop reference.
    """

    @pytest.mark.parametrize("case", sorted(LP_CASES))
    def test_matches_loop_reference(self, case):
        _assert_matches_references(problem_for(*LP_CASES[case]())[0])

    def test_given_candidates(self):
        _assert_matches_references(_given_problem())

    @pytest.mark.parametrize("seed", [0, 4, 8])
    def test_stalled_solve_stops_alike(self, seed):
        """Rank-2 relative-mode instances the simplex could not finish in 300 pivots.

        Within that budget the solve stops with HiGHS's verdict and a
        verified certificate, and agrees with both references.
        """
        problem, relative = problem_for(*_random_n4(2, seed))
        assert relative
        _assert_matches_references(problem)
        result = solve_feasibility(problem, max_iter=300)
        assert result.feasible == _highs_feasible(problem)
        assert not result.feasible
        assert result.residual > 0.01
        assert verify_certificate(problem, result.certificate) > 1 - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 2), st.integers(2, 3))
    def test_matches_on_random_instances(self, seed, rank, n_qubits):
        s1, s2 = sets_for(random_mixed(n_qubits, rank, seed), random_protocol(1, seed))
        _assert_matches_references(problem_for(s1, s2)[0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 2))
    def test_matches_at_benchmark_size(self, seed, rank):
        """n=4, M=2 as in the benchmark's lp-oracle workload."""
        problem, _ = problem_for(*_random_n4(rank, seed))
        _assert_matches_references(problem)
        assert solve_feasibility(problem).feasible == _highs_feasible(problem)

    def test_wide_program(self):
        """More columns than rows, so the Gram matrix A^T A is singular: the same answer."""
        problem = _wide_problem()
        assert problem.a_eq.shape[0] < problem.a_eq.shape[1]
        _assert_matches_references(problem)


class TestClosedForm:
    """The products the solver reads without A against the same products of ``a_eq``."""

    @pytest.mark.parametrize("case", [*sorted(LP_CASES), "given", "wide"])
    def test_matches_dense_products(self, case):
        if case == "given":
            problem = _given_problem()
        elif case == "wide":
            problem = _wide_problem()
        else:
            problem = problem_for(*LP_CASES[case]())[0]
        a, b = problem.a_eq, problem.b_eq
        m, n = a.shape
        gram, atb, tol = _normal_equations(problem)
        np.testing.assert_allclose(gram, a.T @ a, rtol=0, atol=1e-14)
        np.testing.assert_allclose(atb, a.T @ b, rtol=0, atol=1e-14)
        norm = tol / (10 * np.finfo(float).eps * max(m, n))
        assert norm == pytest.approx(np.linalg.norm(a, 1), rel=1e-14)
        rng = np.random.default_rng(len(case))
        x = rng.exponential(size=n) * (rng.random(n) < 0.5)  # half the columns at zero
        y = rng.normal(size=m)
        np.testing.assert_allclose(_residual(problem, x), b - a @ x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(_transposed(problem, y), a.T @ y, rtol=0, atol=1e-14)

    def test_large_program_builds_no_matrix(self, monkeypatch):
        """``certify(lp=True)`` at n = 9, M = 4, ``scripts/ladder.py``'s instance.

        The program's A would be 65 601 x 1056 (554 MB); the solve reads its
        9 MB Gram instead, and never asks for ``a_eq``.
        """
        rng = np.random.default_rng([9, 4])
        state = EnsembleState(9, (1.0,), (random_pure(9, int(rng.integers(2**32))),))
        s1, s2 = (random_rank1_setting(4, rng, label=f"haar-{k}") for k in (1, 2))

        def refuse(problem):
            raise AssertionError("a_eq was built")

        monkeypatch.setattr(lhs_lp.LpProblem, "a_eq", property(refuse))
        tracemalloc.start()
        try:
            report = certify(state, SteeringProtocol(4, s1, s2), lp=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "PARADOX"
        assert report.lp_verdict == "infeasible"
        assert peak < 64 * 2**20


def _given_problem():
    """The two-qubit paradox pair against two caller-given members."""
    s1, s2 = two_qubit_sets()
    return build_lp(s1, s2, [np.diag([1.0, 0.0]).astype(complex), np.eye(2) / 2])


def _wide_problem():
    """The two-qubit paradox pair against 12 random pure members: 60 columns, 57 rows."""
    s1, s2 = two_qubit_sets()
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return build_lp(s1, s2, [np.outer(v, v.conj()) for v in vecs])


def _separable(seed):
    """Two-term product mixture at n=3, M=1: feasible in relative mode, some members weightless."""
    a = [random_pure(1, 10 * seed + i) for i in range(2)]
    b = [random_pure(2, 10 * seed + 5 + i) for i in range(2)]
    state = EnsembleState(3, (0.4, 0.6), (np.kron(a[0], b[0]), np.kron(a[1], b[1])))
    return sets_for(state, random_protocol(1, seed))


FEASIBLE_CASES = {
    "feasible-product": LP_CASES["feasible-product"],
    "feasible-mixture": LP_CASES["feasible-mixture"],
    **{f"separable-{k}": (lambda k=k: _separable(k)) for k in range(6)},
}


class TestModelArrays:
    """The model's tables and ``verify_model`` against their loop references."""

    @pytest.mark.parametrize("case", sorted(FEASIBLE_CASES))
    def test_solved_models_match_loop_reference(self, case):
        s1, s2 = FEASIBLE_CASES[case]()
        problem, _ = problem_for(s1, s2)
        result = solve_feasibility(problem)
        assert result.feasible
        x, _ = _nnls(*_normal_equations(problem), NNLS_CAP)
        weights, responses = loop_model_tables(problem, x)
        model = result.model
        assert np.array(model.member_weights).tobytes() == weights.tobytes()
        assert [t.tobytes() for t in model.responses] == [t.tobytes() for t in responses]
        assert verify_model(model, s1, s2) == pytest.approx(
            loop_verify_model(model, s1, s2), rel=1e-12, abs=1e-16
        )
        if case.startswith("separable"):
            assert np.any(weights <= config.LP_WEIGHT_FLOOR)

    @pytest.mark.parametrize("seed", range(6))
    def test_any_vertex_matches_loop_reference(self, seed, monkeypatch):
        """Negative entries, signed zeros and weights on both sides of the floor."""
        rng = np.random.default_rng([seed, 41])
        problem, _ = problem_for(*sets_for(random_mixed(3, 2, seed), random_protocol(2, seed)))
        x = rng.choice([-0.5, -0.0, 0.0, 1e-13, 0.3, 2.0], size=problem.n_variables)
        x[problem.weight_index(0) :] *= rng.uniform(0.0, 1.0, problem.n_members)
        weights, responses = loop_model_tables(problem, x)
        # an infinite tolerance lets any vertex through to the model tables
        monkeypatch.setattr(lhs_lp, "_nnls", lambda gram, atb, tol, max_iter: (x, 1))
        monkeypatch.setattr(config, "LP_FEASIBILITY_TOL", np.inf)
        model = solve_feasibility(problem).model
        assert np.array(model.member_weights).tobytes() == weights.tobytes()
        assert [t.tobytes() for t in model.responses] == [t.tobytes() for t in responses]

    @pytest.mark.parametrize("seed", range(6))
    def test_verify_model_matches_loop_reference(self, seed):
        rng = np.random.default_rng([seed, 43])
        s1, s2 = sets_for(random_mixed(3, 2, seed), random_protocol(1, seed))
        problem, _ = problem_for(s1, s2)
        k = problem.n_members
        weights = rng.dirichlet(np.ones(k)) * np.where(rng.random(k) < 0.3, 0.0, 1.0)
        responses = tuple(rng.dirichlet(np.ones(n), size=k) for n in problem.n_outcomes)
        model = LhsModel(tuple(weights), problem.candidates, responses, problem.outcome_labels)
        want = loop_verify_model(model, s1, s2)
        assert want > 1e-3
        assert verify_model(model, s1, s2) == pytest.approx(want, rel=1e-12)
