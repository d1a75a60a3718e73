"""Feasibility program assembly, the phase-1 simplex, and the external solver cross-check."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    loop_lp,
    loop_model_tables,
    loop_simplex,
    loop_verify_model,
    lp_residuals,
    pack,
    random_protocol,
)
from steerlab import (
    EnsembleState,
    LhsModel,
    PreconditionError,
    SolverLimitError,
    SteeringProtocol,
    basis_ket,
    build_lp,
    candidate_ensemble,
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
    verify_model,
)
from steerlab import config, lhs_lp
from steerlab.lhs_lp import _phase1_simplex


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
        assert len(candidate_ensemble(s1, s2)) == 4

    def test_product_single_candidate(self):
        ens = EnsembleState(2, (1.0,), (basis_ket(2, 0),))
        s1, s2 = sets_for(ens, tensor_protocol("z", "x", n_qubits=2))
        assert len(candidate_ensemble(s1, s2)) == 1

    def test_lc4_candidate_count(self):
        s1, s2 = sets_for(lc4_mixed(np.pi / 4), tensor_protocol("zz", "yx", n_qubits=4))
        assert len(candidate_ensemble(s1, s2)) == 4

    def test_candidates_are_projectors(self):
        s1, s2 = two_qubit_sets(np.pi / 6)
        for c in candidate_ensemble(s1, s2):
            np.testing.assert_allclose(c @ c, c, atol=1e-10)
            np.testing.assert_allclose(np.trace(c), 1.0, atol=1e-10)

    def test_mixed_conditionals_rejected(self):
        mix = EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3)))
        s1, s2 = sets_for(mix, tensor_protocol("z", "x", n_qubits=2))
        with pytest.raises(PreconditionError):
            candidate_ensemble(s1, s2)
        fallback = fallback_candidates(s1, s2)
        assert len(fallback) >= 2

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
        problem = build_lp(s1, s2, candidate_ensemble(s1, s2))
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
        source = np.array(candidate_ensemble(s1, s2))
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


class TestSolver:
    def test_paradox_instances_infeasible(self):
        for sets in (
            two_qubit_sets(np.pi / 4),
            sets_for(lc4_mixed(np.pi / 3), tensor_protocol("zz", "yx", n_qubits=4)),
        ):
            problem, relative = problem_for(*sets)
            assert not relative
            result = solve_feasibility(problem)
            assert not result.feasible
            assert result.phase1_optimum >= 0.5

    def test_feasible_instances_verify(self):
        for state in (
            EnsembleState(2, (1.0,), (basis_ket(2, 0),)),
            EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3))),
        ):
            s1, s2 = sets_for(state, tensor_protocol("z", "x", n_qubits=2))
            problem, _ = problem_for(s1, s2)
            result = solve_feasibility(problem)
            assert result.feasible
            assert result.phase1_optimum < 1e-9
            assert verify_model(result.model, s1, s2) <= 1e-8

    def test_deterministic_runs(self):
        problem, _ = problem_for(*two_qubit_sets(np.pi / 6))
        a = solve_feasibility(problem)
        b = solve_feasibility(problem)
        assert a.iterations == b.iterations
        assert a.phase1_optimum == b.phase1_optimum

    def test_iteration_cap_raises(self):
        problem, _ = problem_for(*two_qubit_sets())
        with pytest.raises(SolverLimitError):
            solve_feasibility(problem, max_iter=1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 2))
    def test_agrees_with_external_solver(self, seed, rank):
        state = random_mixed(2, rank, seed)
        protocol = random_protocol(1, seed)
        s1, s2 = sets_for(state, protocol)
        problem, _ = problem_for(s1, s2)
        result = solve_feasibility(problem)
        lp = scipy.optimize.linprog(
            c=np.zeros(problem.n_variables),
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=(0, None),
            method="highs",
        )
        assert result.feasible == lp.success

    def test_vertex_off_its_rows_raises(self):
        """Benchmark instance lp-oracle (seed 513, index 137), a rank-2 relative-mode LP.

        Its draws are repeated here: the simplex ends at optimum <= tol on a
        vertex with weights near 1.9e18, and that vertex is not a model.
        """
        rng = np.random.default_rng([513, 137])
        state = random_mixed(4, 2, int(rng.integers(2**62)))
        s1, s2 = (random_rank1_setting(2, rng) for _ in range(2))
        problem, relative = problem_for(*sets_for(state, SteeringProtocol(2, s1, s2, 4)))
        assert relative
        x, optimum, _ = _phase1_simplex(problem.a_eq, problem.b_eq, 1000)
        assert optimum <= config.LP_FEASIBILITY_TOL
        assert np.max(np.abs(problem.a_eq @ x - problem.b_eq)) > 1e18
        message = r"^phase-1 simplex vertex misses its rows by 6\.5\de\+19 "
        with pytest.raises(SolverLimitError, match=message):
            solve_feasibility(problem, max_iter=1000)

    def test_off_row_vertex_is_not_a_model(self, monkeypatch):
        """A vertex with optimum 0 whose rows miss b_eq by 2e-9 raises instead of a model."""
        problem, _ = problem_for(*SIMPLEX_CASES["feasible-product"]())
        x, _, _ = _phase1_simplex(problem.a_eq, problem.b_eq, config.LP_MAX_ITERATIONS)
        scaled = x * (1 + 2e-9)  # the coupling rows still hold, b_eq's largest rows do not
        monkeypatch.setattr(lhs_lp, "_phase1_simplex", lambda a, b, max_iter: (scaled, 0.0, 6))
        message = r"misses its rows by 2e-09 \(tolerance 1e-09\)$"
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


def _random_n4(rank, seed):
    return sets_for(random_mixed(4, rank, seed), random_protocol(2, seed))


# The LP instances of this file and of test_acceptance.py, by kind, and random
# n=4/M=2 ones that finish within 600 pivots under the default budget.
SIMPLEX_CASES = {
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


def _simplex_outcome(solve, problem, max_iter):
    """What a solve returns, as bytes, or the message it raised."""
    try:
        x, optimum, iterations = solve(problem.a_eq, problem.b_eq, max_iter)
    except SolverLimitError as exc:
        return str(exc)
    return x.tobytes(), np.float64(optimum).tobytes(), iterations


class TestSimplexDifferential:
    """The rank-1 pivot update takes the row loop's pivot path, bit for bit."""

    @pytest.mark.parametrize("case", sorted(SIMPLEX_CASES))
    def test_matches_loop_reference(self, case):
        s1, s2 = SIMPLEX_CASES[case]()
        problem, _ = problem_for(s1, s2)
        budget = config.LP_MAX_ITERATIONS
        expected = _simplex_outcome(loop_simplex, problem, budget)
        assert _simplex_outcome(_phase1_simplex, problem, budget) == expected
        # a budget of half the pivots stops the solve midway
        cut = max(1, expected[2] // 2)
        expected = _simplex_outcome(loop_simplex, problem, cut)
        assert isinstance(expected, str)
        assert _simplex_outcome(_phase1_simplex, problem, cut) == expected

    def test_given_candidates(self):
        s1, s2 = two_qubit_sets()
        problem = build_lp(s1, s2, [np.diag([1.0, 0.0]).astype(complex), np.eye(2) / 2])
        budget = config.LP_MAX_ITERATIONS
        assert _simplex_outcome(_phase1_simplex, problem, budget) == _simplex_outcome(
            loop_simplex, problem, budget
        )

    @pytest.mark.parametrize("seed", [0, 4, 8])
    def test_stalled_solve_stops_alike(self, seed):
        """Rank-2 relative-mode instances that run past the pivot budget."""
        problem, relative = problem_for(*_random_n4(2, seed))
        assert relative
        expected = _simplex_outcome(loop_simplex, problem, 300)
        assert expected == "phase-1 simplex exceeded 300 iterations without converging"
        assert _simplex_outcome(_phase1_simplex, problem, 300) == expected


def _separable(seed):
    """Two-term product mixture at n=3, M=1: feasible in relative mode, some members weightless."""
    a = [random_pure(1, 10 * seed + i) for i in range(2)]
    b = [random_pure(2, 10 * seed + 5 + i) for i in range(2)]
    state = EnsembleState(3, (0.4, 0.6), (np.kron(a[0], b[0]), np.kron(a[1], b[1])))
    return sets_for(state, random_protocol(1, seed))


FEASIBLE_CASES = {
    "feasible-product": SIMPLEX_CASES["feasible-product"],
    "feasible-mixture": SIMPLEX_CASES["feasible-mixture"],
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
        x, _, _ = _phase1_simplex(problem.a_eq, problem.b_eq, config.LP_MAX_ITERATIONS)
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
        monkeypatch.setattr(lhs_lp, "_phase1_simplex", lambda a, b, max_iter: (x, 0.0, 1))
        model = solve_feasibility(problem, tol=np.inf).model
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
