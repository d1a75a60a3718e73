"""Release gate: one test per acceptance criterion, each timed and printed.

Every test prints a single "criterion N (<label>): PASS" line once all of its
assertions hold; a failure surfaces through pytest with the offending
comparison.  Budgets are wall-clock seconds measured around the whole
criterion body.
"""

import time

import numpy as np
import pytest

from conftest import completeness_gap, overlaps, random_protocol, reconstruct
from steerlab import (
    BellLikeBasis,
    EnsembleState,
    NO_PARADOX_CROSS_DUPLICATE,
    NO_PARADOX_PURITY,
    PARADOX,
    SteeringProtocol,
    add_shared_slot_component,
    basis_ket,
    bell_like_setting,
    bob_marginal,
    certify,
    collapse_decomposition,
    computational_family,
    conditional_states,
    density_of,
    lc4_mixed,
    max_rank_family,
    problem_for,
    random_mixed,
    random_pure,
    rank_bound_check,
    solve_feasibility,
    tensor_protocol,
    two_qubit_theta_state,
    verify_certificate,
    verify_model,
)
from steerlab.linalg import phase_coincidences


def _sets(state, protocol):
    rho = density_of(state) if isinstance(state, EnsembleState) else state
    return (
        conditional_states(rho, protocol, 1),
        conditional_states(rho, protocol, 2),
    )


def test_criterion_1_two_qubit_paradox():
    start = time.perf_counter()
    protocol = tensor_protocol("z", "x", n_qubits=2)
    for theta in (np.pi / 8, np.pi / 6, np.pi / 4, np.pi / 3, 3 * np.pi / 8):
        state = two_qubit_theta_state(theta)
        report = certify(state, protocol)
        assert report.verdict == PARADOX
        assert abs(report.quantum_trace_sum - 2.0) < 1e-9
        assert abs(report.lhs_trace_sum - 1.0) < 1e-9
        s1, s2 = _sets(state, protocol)
        np.testing.assert_allclose(
            s1.probabilities, [np.cos(theta) ** 2, np.sin(theta) ** 2], atol=1e-10
        )
        np.testing.assert_allclose(s2.probabilities, [0.5, 0.5], atol=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 (two-qubit paradox, 5 angles, {elapsed:.3f}s): PASS")


def test_criterion_2_four_qubit_mixed_paradox():
    start = time.perf_counter()
    protocol = tensor_protocol("zz", "yx", n_qubits=4)
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        report = certify(lc4_mixed(theta), protocol)
        assert report.verdict == PARADOX
        s1, s2 = _sets(lc4_mixed(theta), protocol)
        c2, s2q = np.cos(theta) ** 2 / 2, np.sin(theta) ** 2 / 2
        np.testing.assert_allclose(s1.probabilities, [c2, s2q, s2q, c2], atol=1e-10)
        np.testing.assert_allclose(s2.probabilities, [0.25] * 4, atol=1e-10)
        dups = {(a, b) for setting, a, b in report.within_setting_duplicates if setting == 2}
        assert {("00", "11"), ("01", "10")} <= dups
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 2 (four-qubit mixed paradox, 3 angles, {elapsed:.3f}s): PASS")


def test_criterion_3_lp_oracle_agreement():
    start = time.perf_counter()
    zx = tensor_protocol("z", "x", n_qubits=2)
    zzyx = tensor_protocol("zz", "yx", n_qubits=4)
    # each paradox instance with the max|b - Ax| of its least-squares solution
    paradox_instances = [
        (_sets(two_qubit_theta_state(theta), zx), residual)
        for theta, residual in (
            (np.pi / 8, 0.1141011899416362),
            (np.pi / 6, 0.14955512909979063),
            (np.pi / 4, 13 / 112),
            (np.pi / 3, 0.14955512909979057),
            (3 * np.pi / 8, 0.11410118994163632),
        )
    ] + [(_sets(lc4_mixed(theta), zzyx), 7 / 138) for theta in (np.pi / 6, np.pi / 4, np.pi / 3)]
    for (s1, s2), residual in paradox_instances:
        problem, relative = problem_for(s1, s2)
        assert not relative
        result = solve_feasibility(problem)
        assert not result.feasible
        assert result.residual == pytest.approx(residual, rel=1e-9)
        assert verify_certificate(problem, result.certificate) > 0.0
    feasible_states = [
        EnsembleState(2, (1.0,), (basis_ket(2, 0),)),
        EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3))),
    ]
    for state in feasible_states:
        s1, s2 = _sets(state, zx)
        problem, _ = problem_for(s1, s2)
        result = solve_feasibility(problem)
        assert result.feasible
        assert verify_model(result.model, s1, s2) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 3 (LP oracle agreement, 10 instances, {elapsed:.3f}s): PASS")


def test_criterion_4_rank2_sweep_never_paradox():
    start = time.perf_counter()
    allowed = {NO_PARADOX_PURITY, NO_PARADOX_CROSS_DUPLICATE}
    paradox_count = 0
    for i in range(200):
        state = random_mixed(2, 2, 5000 + i)
        report = certify(state, random_protocol(1, 5000 + i))
        paradox_count += report.verdict == PARADOX
        assert report.verdict in allowed
    assert paradox_count == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4 (200-state rank-2 sweep, 0 paradoxes, {elapsed:.3f}s): PASS")


def test_criterion_5_rank_bound():
    start = time.perf_counter()
    for n, m in ((2, 1), (3, 2), (4, 2)):
        family = computational_family(m)
        protocol = SteeringProtocol(
            alice_qubits=m,
            setting_1=bell_like_setting(BellLikeBasis(0.3, family, family_label="computational")),
            setting_2=bell_like_setting(BellLikeBasis(1.1, family, family_label="computational")),
            n_qubits=n,
        )
        for seed in range(20):
            ensemble = max_rank_family(n, m, seed)
            assert rank_bound_check(density_of(ensemble), protocol).rank == 2 ** (m - 1)
            assert certify(ensemble, protocol).verdict == PARADOX
            widened = add_shared_slot_component(ensemble, m, seed)
            assert certify(widened, protocol).verdict != PARADOX
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 5 (rank bound, 3 cells x 20 seeds, {elapsed:.3f}s): PASS")


def test_criterion_6_bell_like_completeness_and_transform():
    start = time.perf_counter()
    for m in (1, 2, 3):
        family = computational_family(m)
        for beta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            setting = bell_like_setting(BellLikeBasis(float(beta), family))
            assert completeness_gap(setting) < 1e-12
    rng = np.random.default_rng(77)
    checked = 0
    for m in (1, 2):
        family = computational_family(m)
        half = 2 ** (m - 1)
        for _ in range(4):
            b1, b2 = (float(x) for x in rng.uniform(0.0, np.pi, 2))
            v = overlaps(
                bell_like_setting(BellLikeBasis(b1, family)),
                bell_like_setting(BellLikeBasis(b2, family)),
            )
            assert np.max(np.abs(v @ v.conj().T - np.eye(2 * half))) < 1e-10
            eye = np.eye(half)
            delta = b1 - b2
            want = np.block(
                [
                    [np.cos(delta) * eye, np.sin(delta) * eye],
                    [-np.sin(delta) * eye, np.cos(delta) * eye],
                ]
            )
            assert np.max(np.abs(v - want)) < 1e-12
            checked += 1
    assert checked == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 6 (Bell-like completeness and transform, {elapsed:.3f}s): PASS")


def test_criterion_7_property_suite():
    start = time.perf_counter()

    # non-signalling marginal identity
    for i in range(100):
        state = random_mixed(2 + i % 2, 2, 9000 + i)
        rho = density_of(state)
        protocol = random_protocol(1, 9000 + i)
        marginal = bob_marginal(rho, 1)
        for which in (1, 2):
            total = conditional_states(rho, protocol, which).total()
            assert np.max(np.abs(total - marginal)) < 1e-9

    # probability ledger: both settings sum to one each, jointly 2
    for i in range(100):
        state = random_mixed(2, 1 + i % 3, 9300 + i)
        report = certify(state, random_protocol(1, 9300 + i))
        assert abs(report.quantum_trace_sum - 2.0) < 1e-9

    # collapse-decomposition reconstruction
    for i in range(100):
        state = random_mixed(3, 2, 9600 + i)
        protocol = random_protocol(1, 9600 + i)
        rho = density_of(state)
        dec = collapse_decomposition(state, protocol.setting_1, 1)
        sset = conditional_states(rho, protocol, 1)
        for o in range(len(sset.operators)):
            assert np.max(np.abs(reconstruct(dec, o) - sset.operators[o])) < 1e-9

    # phase-equality invariances
    rng = np.random.default_rng(321)
    for i in range(100):
        v = random_pure(2, seed=9900 + i)
        phi = float(rng.uniform(0.0, 2 * np.pi))
        scale = float(rng.uniform(0.5, 2.0))
        w = random_pure(2, seed=19900 + i)
        hits = phase_coincidences(np.array([v, scale * np.exp(1j * phi) * v, w]), 1e-8)
        assert hits[0, 1]
        assert np.array_equal(hits, hits.T)

    # solver determinism: identical problems give identical runs
    for i in range(100):
        state = random_mixed(2, 1 + i % 2, 9990 + i)
        s1, s2 = _sets(state, random_protocol(1, 9990 + i))
        problem, _ = problem_for(s1, s2)
        a = solve_feasibility(problem)
        b = solve_feasibility(problem)
        assert a.feasible == b.feasible
        assert a.iterations == b.iterations
        assert np.float64(a.residual).tobytes() == np.float64(b.residual).tobytes()

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 7 (property suite, 5 x 100 instances, {elapsed:.3f}s): PASS")
