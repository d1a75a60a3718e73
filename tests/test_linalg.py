"""Dense linear-algebra helpers: frozen oracles plus invariance properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerlab import DegenerateInputError, DimensionError, ValidationError
from steerlab.linalg import (
    as_complex,
    canonical_phase,
    hermitian_eig,
    is_hermitian,
    n_qubits_of,
    numerical_rank,
    outer,
    partial_trace,
    phase_equal,
    principal_vector,
    purity,
)


def haar_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestBasics:
    def test_as_complex_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_complex([1.0, np.nan])

    def test_as_complex_rejects_inf_imag(self):
        with pytest.raises(ValidationError):
            as_complex([1.0, 1j * np.inf])

    def test_as_complex_noncontiguous_slice(self):
        # column views of Fortran-incompatible layouts must still validate
        m = np.arange(9, dtype=complex).reshape(3, 3)
        np.testing.assert_allclose(as_complex(m[:, 1]), [1, 4, 7])

    def test_outer_self(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        p = outer(v)
        assert is_hermitian(p, 1e-12)
        np.testing.assert_allclose(np.trace(p), 1.0)

    def test_n_qubits_of(self):
        assert n_qubits_of(8) == 3
        with pytest.raises(DimensionError):
            n_qubits_of(6)


class TestPartialTrace:
    def test_bell_pair_marginal(self):
        # maximally entangled pair traces to the maximally mixed qubit
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        rho = outer(v)
        np.testing.assert_allclose(partial_trace(rho, 2, [0]), np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, 2, [1]), np.eye(2) / 2, atol=1e-12)

    def test_product_state_factors(self):
        a = haar_vector(np.random.default_rng(0), 2)
        b = haar_vector(np.random.default_rng(1), 4)
        rho = outer(np.kron(a, b))
        np.testing.assert_allclose(partial_trace(rho, 3, [1, 2]), outer(a), atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, 3, [0]), outer(b), atol=1e-12)

    def test_qubit_zero_is_most_significant(self):
        # |10> means qubit 0 in |1>, qubit 1 in |0>
        v = np.zeros(4, dtype=complex)
        v[2] = 1.0
        rho = outer(v)
        np.testing.assert_allclose(partial_trace(rho, 2, [1]), np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, 2, [0]), np.diag([1.0, 0.0]), atol=1e-12)

    @settings(max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 4))
    def test_trace_preserved(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        reduced = partial_trace(rho, n, [0])
        np.testing.assert_allclose(np.trace(reduced), 1.0, atol=1e-10)
        assert is_hermitian(reduced, 1e-10)


class TestEigenPurityRank:
    def test_hermitian_eig_reconstructs(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (m + m.conj().T) / 2
        vals, vecs = hermitian_eig(h)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, h, atol=1e-9)

    def test_hermitian_eig_rejects_nonhermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_purity_frozen_values(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        np.testing.assert_allclose(purity(rho), 0.625, atol=1e-12)
        np.testing.assert_allclose(purity(np.eye(4) / 4), 0.25, atol=1e-12)
        np.testing.assert_allclose(purity(np.diag([1.0, 0.0]).astype(complex)), 1.0, atol=1e-12)

    def test_purity_scale_invariant(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        np.testing.assert_allclose(purity(rho), purity(5.0 * rho), atol=1e-12)

    def test_purity_zero_trace_degenerate(self):
        with pytest.raises(DegenerateInputError):
            purity(np.zeros((2, 2), dtype=complex))

    def test_numerical_rank(self):
        assert numerical_rank(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)) == 2
        assert numerical_rank(np.eye(4).astype(complex)) == 4
        assert numerical_rank(np.diag([1.0, 1e-12, 0.0, 0.0]).astype(complex)) == 1

    def test_principal_vector(self):
        v = haar_vector(np.random.default_rng(9), 4)
        w = principal_vector(outer(v))
        assert abs(abs(np.vdot(w, v)) - 1.0) < 1e-10
        # phase canonicalized: largest entry is real positive
        idx = np.argmax(np.abs(w))
        assert w[idx].imag == pytest.approx(0.0, abs=1e-12)
        assert w[idx].real > 0


class TestPhaseEquality:
    @settings(max_examples=80)
    @given(st.integers(0, 10**6), st.floats(0.0, 2 * np.pi))
    def test_global_phase_invariance(self, seed, phi):
        v = haar_vector(np.random.default_rng(seed), 4)
        assert phase_equal(v, np.exp(1j * phi) * v, 1e-8)

    @settings(max_examples=80)
    @given(st.integers(0, 10**6))
    def test_orthogonal_not_equal(self, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert not phase_equal(q[:, 0], q[:, 1], 1e-8)

    def test_symmetry(self):
        u = haar_vector(np.random.default_rng(1), 3)
        v = haar_vector(np.random.default_rng(2), 3)
        assert phase_equal(u, v, 1e-8) == phase_equal(v, u, 1e-8)

    def test_scale_invariance(self):
        v = haar_vector(np.random.default_rng(4), 3)
        assert phase_equal(v, 3.7 * v, 1e-8)

    def test_zero_vector_degenerate(self):
        with pytest.raises(DegenerateInputError):
            phase_equal(np.zeros(3), np.ones(3))

    def test_canonical_phase_idempotent(self):
        v = haar_vector(np.random.default_rng(5), 4)
        c = canonical_phase(v)
        np.testing.assert_allclose(canonical_phase(c), c, atol=1e-12)
