"""Dense linear-algebra helpers: frozen oracles plus invariance properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    outer,
    partial_trace,
    phase_equal,
    plain_hermiticity_residuals,
    principal_vector,
    with_beta,
)
from steerlab import (
    BellLikeBasis,
    ConditionalStateSet,
    DegenerateInputError,
    DensityMatrix,
    DimensionError,
    SteeringProtocol,
    ValidationError,
    bell_like_setting,
    computational_family,
    rank_bound_check,
)
from steerlab.linalg import (
    as_complex,
    canonical_phase,
    hermiticity_residuals,
    n_qubits_of,
    outers,
    phase_coincidences,
    purities,
)
from steerlab.lhs_lp import _first_kept
from steerlab.config import REQUIREMENT_TOL


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
        p = outers(v[None])[0]
        assert hermiticity_residuals(p) <= 1e-12
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
        assert hermiticity_residuals(reduced) <= 1e-10


class TestEigenPurityRank:
    def purity(self, rho):
        return purities(as_complex(rho)[None])[0]

    def test_purity_frozen_values(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        np.testing.assert_allclose(self.purity(rho), 0.625, atol=1e-12)
        np.testing.assert_allclose(self.purity(np.eye(4) / 4), 0.25, atol=1e-12)
        np.testing.assert_allclose(self.purity(np.diag([1.0, 0.0])), 1.0, atol=1e-12)

    def test_purity_scale_invariant(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        np.testing.assert_allclose(self.purity(rho), self.purity(5.0 * rho), atol=1e-12)

    def test_purity_zero_trace_degenerate(self):
        with pytest.raises(DegenerateInputError):
            self.purity(np.zeros((2, 2), dtype=complex))

    def test_numerical_rank(self):
        """``rank_bound_check`` counts the eigenvalues above ``config.RANK_TOL``."""
        basis = BellLikeBasis(0.3, computational_family(1))
        paired = SteeringProtocol(
            1, bell_like_setting(basis), bell_like_setting(with_beta(basis, 1.1))
        )
        for diagonal, rank in (
            ([0.5, 0.5, 0.0, 0.0], 2), ([0.25] * 4, 4), ([1.0, 1e-12, 0.0, 0.0], 1)
        ):
            rho = DensityMatrix(2, np.diag(diagonal).astype(complex))
            assert rank_bound_check(rho, paired).rank == rank

    def test_principal_vector(self):
        v = haar_vector(np.random.default_rng(9), 4)
        w = ConditionalStateSet(0, "s", 2, ("0",), outer(v)[None]).principal_vectors[0]
        assert abs(abs(np.vdot(w, v)) - 1.0) < 1e-10
        # phase canonicalized: largest entry is real positive
        idx = np.argmax(np.abs(w))
        assert w[idx].imag == pytest.approx(0.0, abs=1e-12)
        assert w[idx].real > 0


class TestStacks:
    """The stack helpers against their one-matrix counterparts, matrix by matrix."""

    def stack(self, seed, k=6, dim=8):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((k, dim, dim)) + 1j * rng.standard_normal((k, dim, dim))
        return g @ g.conj().swapaxes(1, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_principal_vectors_bitwise(self, seed):
        stack = self.stack(seed)
        outcomes = tuple(str(a) for a in range(len(stack)))
        got = ConditionalStateSet(0, "s", 3, outcomes, stack).principal_vectors
        want = np.array([principal_vector(a) for a in stack])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_canonical_phase_rows_bitwise(self, seed):
        rows = self.stack(seed)[:, 0]
        want = np.array([canonical_phase(r) for r in rows])
        np.testing.assert_array_equal(canonical_phase(rows), want)

    @pytest.mark.parametrize("seed", range(4))
    def test_outers_bitwise(self, seed):
        rows = self.stack(seed)[:, 0]
        want = np.array([outer(r) for r in rows])
        assert outers(rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_purities(self, seed):
        stack = self.stack(seed)
        want = [np.trace(a @ a).real / np.trace(a).real ** 2 for a in stack]
        np.testing.assert_allclose(purities(stack), want, rtol=1e-14)

    @pytest.mark.parametrize("shape", [(4, 4), (512, 512), (16, 32, 32), (0, 8, 8)])
    def test_hermiticity_residuals_bitwise(self, shape):
        rng = np.random.default_rng(shape)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        near = (a + a.conj().swapaxes(-1, -2)) / 2 + 1e-11 * a
        for stack in (a, near, a.swapaxes(-1, -2)):
            assert np.array_equal(
                hermiticity_residuals(stack), plain_hermiticity_residuals(stack)
            )

    @pytest.mark.parametrize("d", [1, 2, 32, 63, 64, 65, 127, 128, 512])
    def test_tiled_hermiticity_residuals_bitwise(self, d):
        """One asymmetric entry planted at every pair of tile-boundary positions.

        The base is exactly Hermitian plus 1e-12 noise, so the planted entry
        sets the residual only if its tile is read; on the diagonal the
        plant is imaginary.  Each case runs as one matrix and as a stack
        whose other members hold the mirror plant and none.
        """
        rng = np.random.default_rng(d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        base = (g + g.conj().T) / 2 + 1e-12 * rng.standard_normal((d, d))
        edges = sorted({p for p in (0, 63, 64, 65, 127, 128, d - 1) if 0 <= p < d})
        for r in edges:
            for c in edges:
                planted = base.copy()
                planted[r, c] += 1e-6j if r == c else 1e-6 * (1 + 2j)
                mirror = base.copy()
                mirror[c, r] -= 3e-6j if r == c else 3e-6
                stack = np.array([base, planted, mirror])
                for a in (planted, stack):
                    assert np.array_equal(hermiticity_residuals(a), plain_hermiticity_residuals(a))
                assert hermiticity_residuals(planted) > 1e-7

    def test_empty_stack(self):
        # no outcome of a zero set counts, so its evidence stacks are empty
        zero = ConditionalStateSet(0, "s", 2, ("0", "1"), np.zeros((2, 4, 4)))
        assert zero.principal_vectors.shape == (0, 4)
        assert purities(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)


class TestPhaseEquality:
    """``phase_coincidences`` against the pairwise ``phase_equal`` oracle."""

    @staticmethod
    def oracle(rows, tol):
        return np.array([[phase_equal(u, v, tol) for v in rows] for u in rows])

    @settings(max_examples=80)
    @given(st.integers(0, 10**6), st.floats(0.0, 2 * np.pi))
    def test_global_phase_invariance(self, seed, phi):
        v = haar_vector(np.random.default_rng(seed), 4)
        assert phase_coincidences(np.array([v, np.exp(1j * phi) * v]), 1e-8).all()

    @settings(max_examples=80)
    @given(st.integers(0, 10**6))
    def test_orthogonal_not_equal(self, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert np.array_equal(phase_coincidences(q.T, 1e-8), np.eye(4, dtype=bool))

    def test_symmetry(self):
        u = haar_vector(np.random.default_rng(1), 3)
        v = haar_vector(np.random.default_rng(2), 3)
        hits = phase_coincidences(np.array([u, v, 1j * u]), 1e-8)
        assert np.array_equal(hits, hits.T)
        assert np.array_equal(hits, self.oracle([u, v, 1j * u], 1e-8))

    def test_scale_invariance(self):
        v = haar_vector(np.random.default_rng(4), 3)
        assert phase_coincidences(np.array([v, 3.7 * v, 1e-3 * v]), 1e-8).all()

    def test_zero_vector_degenerate(self):
        with pytest.raises(DegenerateInputError):
            phase_coincidences(np.array([np.zeros(3), np.ones(3)], dtype=complex))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_oracle(self, seed):
        """Unnormalized rows, some near the tolerance from one another."""
        rng = np.random.default_rng(seed)
        base = np.array([haar_vector(rng, 4) for _ in range(3)])
        tilts = [base[0] + 1e-4 * haar_vector(rng, 4), base[1] + 2e-5 * haar_vector(rng, 4)]
        rows = np.concatenate([base, tilts]) * rng.uniform(0.5, 3.0, (5, 1))
        assert np.array_equal(phase_coincidences(rows, 1e-8), self.oracle(rows, 1e-8))

    def test_not_transitive(self):
        """u ~ v and v ~ w, yet not u ~ w: greedy deduplication keeps u and w.

        1 - |<u|v>| = 1 - cos(a) ~ a^2 / 2 = 6.05e-9 is below the
        tolerance, and 1 - |<u|w>| = 1 - cos(2a) ~ 2 a^2 = 2.42e-8 is not.
        """
        a = 1.1e-4
        u = np.array([1.0, 0.0], dtype=complex)
        v = np.exp(0.7j) * np.array([np.cos(a), np.sin(a)])
        w = np.array([np.cos(2 * a), np.sin(2 * a)], dtype=complex)
        hits = phase_coincidences(np.array([u, v, w]), REQUIREMENT_TOL)
        assert hits.tolist() == [[True, True, False], [True, True, True], [False, True, True]]
        assert np.array_equal(hits, self.oracle([u, v, w], REQUIREMENT_TOL))
        assert _first_kept(hits) == [0, 2]
        # the middle vector first: it absorbs both others
        assert _first_kept(phase_coincidences(np.array([v, u, w]), REQUIREMENT_TOL)) == [0]

    def test_canonical_phase_idempotent(self):
        v = haar_vector(np.random.default_rng(5), 4)
        c = canonical_phase(v)
        np.testing.assert_allclose(canonical_phase(c), c, atol=1e-12)
