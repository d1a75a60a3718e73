"""Conditional states, the two requirements, verdicts and report rendering."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_conditional,
    pairwise_candidates,
    pairwise_duplicates,
    random_protocol,
)
from steerlab import (
    NO_PARADOX_CROSS_DUPLICATE,
    NO_PARADOX_PURITY,
    PARADOX,
    DimensionError,
    EnsembleState,
    MeasurementSetting,
    PreconditionError,
    SteeringProtocol,
    Tolerances,
    UnsupportedSettingError,
    basis_ket,
    bob_marginal,
    candidate_ensemble,
    certify,
    collapse_decomposition,
    conditional_states,
    density_of,
    lc4_mixed,
    lc4_states,
    measurement_requirement,
    purity_requirement,
    random_mixed,
    random_pure,
    rank_bound_check,
    tensor_protocol,
    tensor_setting,
    two_qubit_theta_state,
)
from steerlab.linalg import outer, phase_equal, purity


def two_qubit_setup(theta):
    state = two_qubit_theta_state(theta)
    protocol = tensor_protocol("z", "x", n_qubits=2)
    rho = density_of(state)
    return state, rho, protocol


def evidence_instance(kind, seed):
    """A state-protocol pair whose coincidence pattern ``kind`` names.

    haar: pure state, no coincidences; product: every conditional state is
    Bob's factor, so cross and within duplicates; lc4: within duplicates
    only; mixed: mixed conditional states.
    """
    if kind == "lc4":
        theta = 0.2 + 1.1 * np.random.default_rng(seed).random()
        return lc4_mixed(theta), tensor_protocol("zz", "yx", n_qubits=4)
    m = 1 + seed % 2
    n = m + 2
    protocol = random_protocol(m, seed)
    if kind == "mixed":
        return random_mixed(n, 2, seed), protocol
    if kind == "haar":
        psi = random_pure(n, seed)
    else:
        psi = np.kron(random_pure(m, seed), random_pure(n - m, seed + 1))
    return EnsembleState(n, (1.0,), (psi,)), protocol


class TestConditionalStates:
    def test_two_qubit_z_conditionals_frozen(self):
        theta = np.pi / 6
        _, rho, protocol = two_qubit_setup(theta)
        s1 = conditional_states(rho, protocol, 1)
        np.testing.assert_allclose(
            s1.operators[0], np.cos(theta) ** 2 * np.diag([1.0, 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            s1.operators[1], np.sin(theta) ** 2 * np.diag([0.0, 1.0]), atol=1e-12
        )

    def test_two_qubit_x_traces_half(self):
        _, rho, protocol = two_qubit_setup(np.pi / 6)
        s2 = conditional_states(rho, protocol, 2)
        np.testing.assert_allclose(s2.probabilities, [0.5, 0.5], atol=1e-12)

    def test_lc4_zz_outcome_00(self):
        rho = density_of(lc4_mixed(np.pi / 4))
        s1 = conditional_states(rho, tensor_protocol("zz", "yx", n_qubits=4), 1)
        np.testing.assert_allclose(s1.probabilities[0], np.cos(np.pi / 4) ** 2 / 2, atol=1e-12)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            s1.operators[0] / s1.probabilities[0], outer(bell), atol=1e-12
        )

    def test_lc4_yx_traces_quarter(self):
        rho = density_of(lc4_mixed(1.1))
        s2 = conditional_states(rho, tensor_protocol("zz", "yx", n_qubits=4), 2)
        np.testing.assert_allclose(s2.probabilities, [0.25] * 4, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 4), st.integers(1, 2))
    def test_matches_brute_force(self, seed, n, m):
        if m >= n:
            m = n - 1
        state = random_mixed(n, 2, seed)
        rho = density_of(state)
        protocol = random_protocol(m, seed)
        for which in (1, 2):
            sset = conditional_states(rho, protocol, which)
            setting = protocol.setting_1 if which == 1 else protocol.setting_2
            for i, p in enumerate(setting.projectors):
                want = brute_conditional(rho.matrix, p, n, m)
                np.testing.assert_allclose(sset.operators[i], want, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_non_signalling_marginal(self, seed):
        state = random_mixed(3, 2, seed)
        rho = density_of(state)
        protocol = random_protocol(1, seed)
        marginal = bob_marginal(rho, 1)
        for which in (1, 2):
            total = conditional_states(rho, protocol, which).total()
            np.testing.assert_allclose(total, marginal, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        rho = density_of(two_qubit_theta_state(0.5))
        with pytest.raises(DimensionError):
            conditional_states(rho, tensor_protocol("zz", "yx", n_qubits=4), 1)

    def test_validate_accepts_good_set(self):
        _, rho, protocol = two_qubit_setup(0.8)
        sset = conditional_states(rho, protocol, 1)
        sset.validate(bob_marginal(rho, 1))


class TestCollapseDecomposition:
    def test_two_qubit_z_slots(self):
        theta = np.pi / 5
        state = two_qubit_theta_state(theta)
        dec = collapse_decomposition(state, tensor_setting("z"), 1)
        np.testing.assert_allclose(dec.coefficients[0][0], np.cos(theta), atol=1e-12)
        np.testing.assert_allclose(dec.coefficients[0][1], np.sin(theta), atol=1e-12)
        assert phase_equal(dec.vectors[0][0], basis_ket(1, 0), 1e-10)
        assert phase_equal(dec.vectors[0][1], basis_ket(1, 1), 1e-10)

    def test_lc4_zz_outcome_00_frozen(self):
        a, _ = lc4_states()
        ens = EnsembleState(4, (1.0,), (a,))
        dec = collapse_decomposition(ens, tensor_setting("zz"), 2)
        np.testing.assert_allclose(dec.coefficients[0][0], 1 / np.sqrt(2), atol=1e-12)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert phase_equal(dec.vectors[0][0], bell, 1e-10)

    def test_product_state_single_slot(self):
        ens = EnsembleState(2, (1.0,), (basis_ket(2, 0),))
        dec = collapse_decomposition(ens, tensor_setting("z"), 1)
        np.testing.assert_allclose(dec.coefficients[0][0], 1.0, atol=1e-12)
        assert dec.vectors[0][1] is None

    def test_requires_rank1(self):
        from steerlab import MeasurementSetting

        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        coarse = MeasurementSetting(label="c", m_qubits=2, outcomes=("a", "b"),
                                    projectors=(p, np.eye(4) - p))
        with pytest.raises(UnsupportedSettingError):
            collapse_decomposition(lc4_mixed(0.5), coarse, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 3))
    def test_reconstruction(self, seed, n):
        state = random_mixed(n, 2, seed)
        protocol = random_protocol(1, seed)
        rho = density_of(state)
        dec = collapse_decomposition(state, protocol.setting_1, 1)
        sset = conditional_states(rho, protocol, 1)
        for o in range(len(sset.operators)):
            np.testing.assert_allclose(dec.reconstruct(o), sset.operators[o], atol=1e-10)


class TestRequirements:
    def test_purity_holds_for_paradox_family(self):
        _, rho, protocol = two_qubit_setup(np.pi / 3)
        s1 = conditional_states(rho, protocol, 1)
        s2 = conditional_states(rho, protocol, 2)
        check = purity_requirement(s1, s2)
        assert check.ok
        assert all(r.purity == pytest.approx(1.0, abs=1e-10) for r in check.records
                   if r.purity is not None)

    def test_purity_fails_for_mixed_conditionals(self):
        # equal mixture of |00> and |1+>: the z-conditionals stay pure but
        # the x-setting sees genuine mixtures
        plus = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2)
        state = EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), plus))
        rho = density_of(state)
        protocol = tensor_protocol("z", "x", n_qubits=2)
        s1 = conditional_states(rho, protocol, 1)
        s2 = conditional_states(rho, protocol, 2)
        assert not purity_requirement(s1, s2).ok

    def test_zero_probability_outcomes_excluded(self):
        ens = EnsembleState(2, (1.0,), (basis_ket(2, 0),))
        rho = density_of(ens)
        protocol = tensor_protocol("z", "x", n_qubits=2)
        s1 = conditional_states(rho, protocol, 1)
        s2 = conditional_states(rho, protocol, 2)
        check = purity_requirement(s1, s2)
        assert check.ok
        assert (1, "1") in check.excluded

    def test_measurement_requirement_cross_duplicates(self):
        ens = EnsembleState(2, (1.0,), (basis_ket(2, 0),))
        rho = density_of(ens)
        protocol = tensor_protocol("z", "x", n_qubits=2)
        s1 = conditional_states(rho, protocol, 1)
        s2 = conditional_states(rho, protocol, 2)
        check = measurement_requirement(s1, s2)
        assert not check.ok
        assert ("0", "0") in check.cross and ("0", "1") in check.cross

    def test_measurement_requirement_lc4_within_only(self):
        rho = density_of(lc4_mixed(np.pi / 4))
        protocol = tensor_protocol("zz", "yx", n_qubits=4)
        s1 = conditional_states(rho, protocol, 1)
        s2 = conditional_states(rho, protocol, 2)
        check = measurement_requirement(s1, s2)
        assert check.ok
        assert check.cross == ()
        assert ("00", "11") in check.within_2 and ("01", "10") in check.within_2

    def test_measurement_requirement_rejects_mixed(self):
        rho = density_of(random_mixed(2, 3, seed=2))
        protocol = tensor_protocol("z", "x", n_qubits=2)
        s1 = conditional_states(rho, protocol, 1)
        s2 = conditional_states(rho, protocol, 2)
        with pytest.raises(PreconditionError):
            measurement_requirement(s1, s2)


class TestOverlapMatrixDifferential:
    """The overlap-matrix checks against one phase_equal call per pair."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["haar", "product", "lc4"])
    def test_matches_pairwise_reference(self, kind, seed):
        state, protocol = evidence_instance(kind, seed)
        rho = density_of(state)
        s1 = conditional_states(rho, protocol, 1)
        s2 = conditional_states(rho, protocol, 2)
        cross, within_1, within_2 = pairwise_duplicates(s1, s2)
        if kind == "haar":
            assert not cross
        elif kind == "product":
            assert cross and within_1 and within_2
        else:
            assert within_2 and not cross

        dup = measurement_requirement(s1, s2)
        assert (dup.cross, dup.within_1, dup.within_2) == (cross, within_1, within_2)
        report = certify(state, protocol)
        assert report.cross_setting_duplicates == cross
        assert report.within_setting_duplicates == tuple(
            (1, a, b) for a, b in within_1
        ) + tuple((2, a, b) for a, b in within_2)

        got, want = candidate_ensemble(s1, s2), pairwise_candidates(s1, s2)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def bob_rotated(state, alice_qubits, rng):
    d_b = 2 ** (state.n_qubits - alice_qubits)
    u, _ = np.linalg.qr(rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b)))
    vectors = tuple((v.reshape(-1, d_b) @ u.T).ravel() for v in state.vectors)
    return EnsembleState(state.n_qubits, state.weights, vectors)


def relabelled(setting, order):
    return MeasurementSetting(
        label=setting.label,
        m_qubits=setting.m_qubits,
        outcomes=tuple(setting.outcomes[i] for i in order),
        projectors=tuple(setting.projectors[i] for i in order),
        vectors=tuple(setting.vectors[i] for i in order),
    )


def within_pairs(report, swap=False):
    return {
        (3 - k if swap else k, frozenset((a, b))) for k, a, b in report.within_setting_duplicates
    }


class TestMetamorphic:
    """Transformations that cannot change the verdict or the coincidences."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["haar", "product", "lc4", "mixed"]),
        seed=st.integers(0, 10_000),
        phase=st.floats(0.0, 2 * np.pi),
    )
    def test_invariances(self, kind, seed, phase):
        state, protocol = evidence_instance(kind, seed)
        base = certify(state, protocol)
        m, n = protocol.alice_qubits, protocol.n_qubits
        s1, s2 = protocol.setting_1, protocol.setting_2
        rng = np.random.default_rng(seed)
        phased = EnsembleState(
            state.n_qubits, state.weights, tuple(np.exp(1j * phase) * v for v in state.vectors)
        )
        reordered = SteeringProtocol(
            m,
            relabelled(s1, rng.permutation(s1.n_outcomes)),
            relabelled(s2, rng.permutation(s2.n_outcomes)),
            n,
        )
        for name, variant in (
            ("bob-unitary", certify(bob_rotated(state, m, rng), protocol)),
            ("global-phase", certify(phased, protocol)),
            ("reordered-outcomes", certify(state, reordered)),
        ):
            assert variant.verdict == base.verdict, name
            cross = set(variant.cross_setting_duplicates)
            assert cross == set(base.cross_setting_duplicates), name
            assert within_pairs(variant) == within_pairs(base), name

        swapped = certify(state, SteeringProtocol(m, s2, s1, n))
        assert swapped.verdict == base.verdict
        assert set(swapped.cross_setting_duplicates) == {
            (b, a) for a, b in base.cross_setting_duplicates
        }
        assert within_pairs(swapped, swap=True) == within_pairs(base)


class TestCertify:
    @pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    def test_two_qubit_paradox(self, theta):
        state, _, protocol = two_qubit_setup(theta)
        report = certify(state, protocol)
        assert report.verdict == PARADOX
        assert report.quantum_trace_sum == pytest.approx(2.0, abs=1e-9)
        assert report.lhs_trace_sum == 1.0
        assert report.decomposition_used == "given"

    def test_density_input_uses_eigen_decomposition(self):
        _, rho, protocol = two_qubit_setup(np.pi / 4)
        report = certify(rho, protocol)
        assert report.verdict == PARADOX
        assert report.decomposition_used == "eigen"

    def test_product_state_cross_duplicate(self):
        ens = EnsembleState(2, (1.0,), (basis_ket(2, 0),))
        report = certify(ens, tensor_protocol("z", "x", n_qubits=2))
        assert report.verdict == NO_PARADOX_CROSS_DUPLICATE
        assert report.lhs_trace_sum is None
        assert report.ambiguous_duplicates

    def test_separable_mixture_purity_verdict(self):
        mix = EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3)))
        report = certify(mix, tensor_protocol("z", "x", n_qubits=2))
        assert report.verdict == NO_PARADOX_PURITY

    def test_purity_verdict_takes_precedence(self):
        # mixed conditionals in one setting and a cross duplicate via the
        # other: purity must win
        plus = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2)
        state = EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), plus))
        report = certify(state, tensor_protocol("z", "x", n_qubits=2))
        assert report.verdict == NO_PARADOX_PURITY

    def test_lp_relative_candidates(self):
        state, _, protocol = two_qubit_setup(np.pi / 4)
        wrong = (np.diag([1.0, 0.0]).astype(complex),)
        report = certify(state, protocol, lp=True, candidates=wrong)
        assert report.lp_verdict == "infeasible-relative-to-candidates"

    def test_lp_uses_callers_purity_tolerance(self):
        # setting 1's outcome 0 has purity 1 - 4e-8: pure at purity=1e-6, so the
        # LP must take its candidates from the complete pure-state list too
        phi = (basis_ket(2, 0) + basis_ket(2, 3)) / np.sqrt(2)
        state = EnsembleState(2, (1 - 1e-8, 1e-8), (phi, basis_ket(2, 1)))
        tols = Tolerances(purity=1e-6, phase=1e-6)
        report = certify(state, tensor_protocol("z", "x", n_qubits=2), lp=True, tolerances=tols)
        assert report.verdict == PARADOX
        assert report.lp_verdict == "infeasible"
        assert report.lp_phase1_optimum == pytest.approx(1.0, abs=1e-6)

    def test_lp_agreement_on_paradox(self):
        state, _, protocol = two_qubit_setup(np.pi / 3)
        report = certify(state, protocol, lp=True)
        assert report.lp_verdict == "infeasible"
        assert report.lp_phase1_optimum >= 0.5


class TestRankBound:
    def test_rejects_tensor_settings(self):
        rho = density_of(lc4_mixed(np.pi / 4))
        with pytest.raises(UnsupportedSettingError):
            rank_bound_check(rho, tensor_protocol("zz", "yx", n_qubits=4))

    def test_shared_family_bound(self):
        from steerlab import BellLikeBasis, SteeringProtocol, bell_like_setting

        e = np.eye(4, dtype=complex)
        fam = ((e[0], e[3]), (e[1], e[2]))
        proto = SteeringProtocol(
            alice_qubits=2,
            setting_1=bell_like_setting(BellLikeBasis(0.0, fam)),
            setting_2=bell_like_setting(BellLikeBasis(np.pi / 4, fam)),
            n_qubits=4,
        )
        rho = density_of(lc4_mixed(np.pi / 4))
        result = rank_bound_check(rho, proto)
        assert result.rank == 2 and result.bound == 2 and result.satisfied


class TestReportRendering:
    def test_text_contains_ledger_line(self):
        state, _, protocol = two_qubit_setup(np.pi / 4)
        text = certify(state, protocol).to_text()
        assert "quantum=2.000000 lhs=1.000000" in text
        assert text.startswith("verdict: PARADOX")

    def test_text_not_forced_when_no_paradox(self):
        mix = EnsembleState(2, (0.5, 0.5), (basis_ket(2, 0), basis_ket(2, 3)))
        text = certify(mix, tensor_protocol("z", "x", n_qubits=2)).to_text()
        assert "lhs=not-forced" in text

    def test_json_dict_shape(self):
        state, _, protocol = two_qubit_setup(np.pi / 4)
        doc = certify(state, protocol, lp=True).to_json_dict()
        json.dumps(doc)
        assert doc["verdict"] == PARADOX
        assert doc["quantum_trace_sum"] == pytest.approx(2.0)
        assert doc["lhs_trace_sum"] == 1.0
        assert doc["lp_verdict"] == "infeasible"
        assert doc["setting_labels"] == ["z", "x"]
        assert {"setting", "outcome", "probability", "purity"} <= set(doc["per_outcome"][0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_quantum_ledger_always_two(self, seed):
        state = random_mixed(2, 2, seed)
        report = certify(state, random_protocol(1, seed))
        assert report.quantum_trace_sum == pytest.approx(2.0, abs=1e-9)
