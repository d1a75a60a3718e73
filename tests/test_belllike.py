"""Two-term extraction, the rank ceiling construction, and shared-slot detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import form_ensemble, loop_two_term_violations
from steerlab import (
    BellLikeBasis,
    DimensionError,
    EnsembleState,
    SteeringProtocol,
    ValidationError,
    add_shared_slot_component,
    bell_like_setting,
    certify,
    computational_family,
    density_of,
    lc4_mixed,
    max_rank_family,
    no_shared_component_check,
    rank_bound_check,
    two_term_extract,
)
from steerlab.belllike import (
    COINCIDENT_PAIR,
    MULTI_SLOT,
    PRODUCT_FORM,
    SHARED_SLOT,
    TwoTermForm,
)

E4 = np.eye(4, dtype=complex)
LC4_FAMILY = ((E4[0], E4[3]), (E4[1], E4[2]))


def paired_protocol(m, n, b1=0.3, b2=1.1):
    fam = computational_family(m)
    return SteeringProtocol(
        alice_qubits=m,
        setting_1=bell_like_setting(BellLikeBasis(b1, fam, family_label="computational")),
        setting_2=bell_like_setting(BellLikeBasis(b2, fam, family_label="computational")),
        n_qubits=n,
    )


def component(slot_pair, sp, sm, eta_p, eta_m):
    plus, minus = slot_pair
    return sp * np.kron(plus, eta_p) + sm * np.kron(minus, eta_m)


class TestTwoTermExtract:
    def test_two_clean_components(self):
        fam = computational_family(2)
        k0, k1 = np.array([1.0, 0j]), np.array([0j, 1.0])
        v0 = component(fam[0], 0.6, 0.8, k0, k1)
        v1 = component(fam[1], 1 / np.sqrt(2), 1 / np.sqrt(2), k1, k0)
        ens = EnsembleState(3, (0.5, 0.5), (v0, v1))
        ext = two_term_extract(ens, fam, alice_qubits=2)
        assert ext.ok
        assert ext.form.slots == (0, 1)
        np.testing.assert_allclose(abs(ext.form.coefficients[0][0]), 0.6, atol=1e-10)
        np.testing.assert_allclose(abs(ext.form.coefficients[0][1]), 0.8, atol=1e-10)

    def test_multi_slot_violation(self):
        fam = computational_family(2)
        k0 = np.array([1.0, 0j])
        spread = (np.kron(fam[0][0], k0) + np.kron(fam[1][0], k0)) / np.sqrt(2)
        ens = EnsembleState(3, (1.0,), (spread,))
        ext = two_term_extract(ens, fam, alice_qubits=2)
        assert not ext.ok
        assert (0, MULTI_SLOT) in ext.violations

    def test_product_form_violation(self):
        fam = computational_family(1)
        k0 = np.array([1.0, 0j])
        ens = EnsembleState(2, (1.0,), (np.kron(fam[0][0], k0),))
        ext = two_term_extract(ens, fam, alice_qubits=1)
        assert (0, PRODUCT_FORM) in ext.violations

    def test_coincident_pair_violation(self):
        fam = computational_family(1)
        k0 = np.array([1.0, 0j])
        both = component(fam[0], 0.6, 0.8, k0, np.exp(1j) * k0)
        ens = EnsembleState(2, (1.0,), (both / np.linalg.norm(both),))
        ext = two_term_extract(ens, fam, alice_qubits=1)
        assert (0, COINCIDENT_PAIR) in ext.violations

    def test_shared_slot_violation_marks_all_parties(self):
        fam = computational_family(2)
        k0, k1 = np.array([1.0, 0j]), np.array([0j, 1.0])
        v0 = component(fam[0], 0.6, 0.8, k0, k1)
        v1 = component(fam[0], 0.8, 0.6, k1, k0)
        ens = EnsembleState(3, (0.5, 0.5), (v0, v1))
        ext = two_term_extract(ens, fam, alice_qubits=2)
        assert (0, SHARED_SLOT) in ext.violations
        assert (1, SHARED_SLOT) in ext.violations

    def test_lc4_over_native_family(self):
        for theta in np.linspace(0.2, 1.3, 6):
            ens = lc4_mixed(float(theta))
            ext = two_term_extract(ens, LC4_FAMILY, alice_qubits=2)
            assert ext.ok
            assert ext.form.slots == (0, 1)

    def test_lc4_over_consecutive_family_spreads(self):
        ext = two_term_extract(lc4_mixed(0.7), computational_family(2), alice_qubits=2)
        assert not ext.ok
        assert all(reason == MULTI_SLOT for _, reason in ext.violations)

    def test_form_round_trips_to_same_density(self):
        ens = max_rank_family(4, 2, 3)
        ext = two_term_extract(ens, computational_family(2), alice_qubits=2)
        assert ext.ok
        np.testing.assert_allclose(
            density_of(form_ensemble(ext.form)).matrix,
            density_of(ens).matrix,
            atol=1e-10,
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_loop_reference(self, seed):
        """Random faulty and clean mixes, and a rank-ceiling family that extracts cleanly."""
        rng = np.random.default_rng(seed)
        fam = computational_family(2)

        def haar():
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            return v / np.linalg.norm(v)

        def clean(slot):
            tau = rng.uniform(0.2, 1.3)
            return component(fam[slot], np.cos(tau), np.sin(tau), haar(), haar())

        kinds = {
            "clean": lambda: clean(int(rng.integers(2))),
            "product": lambda: np.kron(fam[int(rng.integers(2))][int(rng.integers(2))], haar()),
            "spread": lambda: clean(0) + clean(1),
            "coincident": lambda: component(fam[int(rng.integers(2))], 0.6, 0.8, eta := haar(),
                                            np.exp(1j * rng.uniform(0, 6)) * eta),
        }
        names = rng.choice(list(kinds), size=int(rng.integers(1, 5)), p=[0.55, 0.15, 0.15, 0.15])
        vectors = [kinds[name]() for name in names]
        mixed = EnsembleState(4, (1 / len(vectors),) * len(vectors),
                              [v / np.linalg.norm(v) for v in vectors])
        for ens, m in ((mixed, 2), (max_rank_family(5, 3, seed), 3)):
            pairs = computational_family(m)
            violations, slots, coefficients, bob_pairs = loop_two_term_violations(ens, pairs, m)
            ext = two_term_extract(ens, pairs, alice_qubits=m)
            assert list(ext.violations) == violations
            if ext.ok:
                assert list(ext.form.slots) == slots
                np.testing.assert_allclose(ext.form.coefficients, coefficients, rtol=0, atol=1e-14)
                np.testing.assert_allclose(ext.form.bob_pairs, bob_pairs, rtol=0, atol=1e-14)
        assert ext.ok


class TestFormContainer:
    def test_rejects_unnormalized_coefficients(self):
        fam = computational_family(1)
        k0 = np.array([1.0, 0j])
        with pytest.raises(ValidationError):
            TwoTermForm(
                n_qubits=2, alice_qubits=1, family=fam,
                weights=(1.0,), slots=(0,),
                coefficients=((0.9, 0.9),), bob_pairs=(((k0), (k0)),),
            )

    def test_rejects_out_of_range_slot(self):
        fam = computational_family(1)
        k0 = np.array([1.0, 0j])
        with pytest.raises(DimensionError):
            TwoTermForm(
                n_qubits=2, alice_qubits=1, family=fam,
                weights=(1.0,), slots=(1,),
                coefficients=((0.6, 0.8),), bob_pairs=((k0, k0),),
            )

    def test_no_shared_component_detects_phase_copies(self):
        fam = computational_family(1)
        k0, k1 = np.array([1.0, 0j]), np.array([0j, 1.0])
        phase = np.exp(1j * np.pi / 3)
        form = TwoTermForm(
            n_qubits=2, alice_qubits=1, family=fam,
            weights=(0.5, 0.5), slots=(0, 0),
            coefficients=((0.6, 0.8), (0.6, 0.8)),
            bob_pairs=((k0, k1), (phase * k0, phase * k1)),
        )
        assert not no_shared_component_check(form)

    def test_single_component_trivially_clean(self):
        fam = computational_family(1)
        k0, k1 = np.array([1.0, 0j]), np.array([0j, 1.0])
        form = TwoTermForm(
            n_qubits=2, alice_qubits=1, family=fam,
            weights=(1.0,), slots=(0,),
            coefficients=((0.6, 0.8),), bob_pairs=((k0, k1),),
        )
        assert no_shared_component_check(form)

    def test_lc4_components_distinct(self):
        ext = two_term_extract(lc4_mixed(0.8), LC4_FAMILY, alice_qubits=2)
        assert no_shared_component_check(ext.form)


class TestMaxRankFamily:
    def test_single_slot_case(self):
        ens = max_rank_family(2, 1, seed=0)
        assert ens.weights == (1.0,)
        assert rank_bound_check(density_of(ens), paired_protocol(1, 2)).rank == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**5))
    def test_saturates_bound_and_certifies(self, seed):
        ens = max_rank_family(4, 2, seed)
        protocol = paired_protocol(2, 4)
        assert rank_bound_check(density_of(ens), protocol).rank == 2
        report = certify(ens, protocol)
        assert report.verdict == "PARADOX"

    def test_shared_slot_flips_verdict(self):
        ens = max_rank_family(3, 2, seed=9)
        protocol = paired_protocol(2, 3)
        assert certify(ens, protocol).verdict == "PARADOX"
        widened = add_shared_slot_component(ens, 2, seed=9)
        assert certify(widened, protocol).verdict != "PARADOX"
        ext = two_term_extract(widened, computational_family(2), alice_qubits=2)
        assert any(reason == SHARED_SLOT for _, reason in ext.violations)

    def test_rejects_empty_bob(self):
        with pytest.raises(DimensionError):
            max_rank_family(2, 2, seed=0)

    @pytest.mark.parametrize("alice_qubits", [0, 3, 4])
    def test_shared_slot_rejects_a_split_without_bob(self, alice_qubits):
        # at alice_qubits == n, Bob's dimension is 1 and no two distinct
        # collapse vectors exist to draw
        with pytest.raises(DimensionError, match="alice_qubits must lie in"):
            add_shared_slot_component(max_rank_family(3, 2, 1), alice_qubits, 1)

    def test_refuses_past_the_cap_before_drawing(self):
        with pytest.raises(DimensionError, match="dimension cap"):
            max_rank_family(40, 1, seed=0)

    def test_deterministic(self):
        a = max_rank_family(4, 2, seed=5)
        b = max_rank_family(4, 2, seed=5)
        for va, vb in zip(a.vectors, b.vectors):
            np.testing.assert_array_equal(va, vb)
