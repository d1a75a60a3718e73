"""State containers, worked-example families, samplers and JSON round trips."""

import json

import numpy as np
import pytest

from steerlab import (
    BoundaryThetaWarning,
    DensityMatrix,
    DimensionError,
    EnsembleState,
    ParseError,
    ValidationError,
    basis_ket,
    density_of,
    lc4_mixed,
    lc4_states,
    load_state,
    random_mixed,
    random_pure,
    save_state,
    two_qubit_theta_state,
)
from conftest import loop_conditional, random_protocol, untiled_low_rank_psd
from steerlab import NO_PARADOX_PURITY, certify, conditional_states, config, states
from steerlab.linalg import hermiticity_residuals


class TestContainers:
    def test_ensemble_rejects_bad_weight_sum(self):
        v = basis_ket(1, 0)
        with pytest.raises(ValidationError):
            EnsembleState(1, (0.5, 0.4), (v, basis_ket(1, 1)))

    def test_ensemble_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            EnsembleState(1, (1.0, 0.0), (basis_ket(1, 0), basis_ket(1, 1)))

    def test_ensemble_rejects_unnormalized_vector(self):
        with pytest.raises(ValidationError):
            EnsembleState(1, (1.0,), (np.array([1.0, 1.0]),))

    def test_ensemble_rejects_wrong_dim(self):
        with pytest.raises(DimensionError):
            EnsembleState(2, (1.0,), (basis_ket(1, 0),))

    def test_density_rejects_nonhermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_negative_eigenvalue(self):
        m = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            DensityMatrix(1, m)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.diag([0.6, 0.6]).astype(complex))

    def test_density_accepts_valid(self):
        d = DensityMatrix(1, np.diag([0.25, 0.75]).astype(complex))
        assert d.dim == 2

    def test_ensemble_keeps_its_own_read_only_vectors(self):
        source = np.array([basis_ket(2, 0), basis_ket(2, 3)])
        for given in (source, tuple(source)):
            ens = EnsembleState(2, (0.5, 0.5), given)
            source[0, 0] = 7
            assert ens.vectors.shape == (2, 4)
            np.testing.assert_array_equal(ens.vectors, [basis_ket(2, 0), basis_ket(2, 3)])
            with pytest.raises(ValueError, match="read-only"):
                ens.vectors[0, 0] = 7
            source[0, 0] = 1

    def test_density_keeps_its_own_read_only_matrix(self):
        source = np.diag([0.25, 0.75]).astype(complex)
        rho = DensityMatrix(1, source)
        source[0, 0] = 5
        np.testing.assert_array_equal(rho.matrix, np.diag([0.25, 0.75]))
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 0] = 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_ensemble_rejects_non_finite_amplitude(self, bad):
        v = basis_ket(2, 0)
        v[3] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            EnsembleState(2, (0.5, 0.5), (basis_ket(2, 1), v))

    def test_basis_ket(self):
        v = basis_ket(2, 0b10)
        assert v[2] == 1.0
        assert np.count_nonzero(v) == 1

    def test_dimension_cap_env(self, monkeypatch):
        monkeypatch.setenv("STEERLAB_MAX_DIM", "4")
        EnsembleState(2, (1.0,), (basis_ket(2, 0),))
        with pytest.raises(DimensionError):
            EnsembleState(3, (1.0,), (basis_ket(3, 0),))
        with pytest.raises(DimensionError):
            DensityMatrix(3, np.eye(8) / 8)


def boundary_density(n, rank, lam_min, seed=()):
    """Exactly Hermitian operator with `rank` positive eigenvalues and one at `lam_min`.

    The eigenvalues sum to 1, every other eigenvalue is 0, and the eigenvectors
    are Haar-random orthonormal columns, drawn from the stream (n, rank, *seed).
    """
    rng = np.random.default_rng([n, rank, *seed])
    dim = 2**n
    g = rng.standard_normal((dim, rank + 1)) + 1j * rng.standard_normal((dim, rank + 1))
    v, _ = np.linalg.qr(g)
    positive = rng.dirichlet(np.ones(rank)) * (1.0 - lam_min)
    m = (v * np.append(positive, lam_min)) @ v.conj().T
    return (m + m.conj().T) / 2


# n = 5 and 6 pivot at most 1 and 2 columns before the full factor decides,
# n = 9 at most 16; n <= 4 never pivots
BOUNDARY_CASES = [
    (n, rank, shift)
    for n, ranks in (
        (1, (1,)),
        (3, range(1, 5)),
        (5, range(1, 5)),
        (6, range(1, 4)),
        (9, (1, 2, 3, 4, 15, 16, 17)),
    )
    for rank in ranks
    for shift in (-1e-2, 1e-2, -1e-3, 1e-3)
]


def count_full_factors(monkeypatch):
    """The shapes ``np.linalg.cholesky`` is called on, which it still factors."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(states.np.linalg, "cholesky", counted)
    return calls


class TestPsdBoundary:
    """Inputs whose smallest eigenvalue sits just either side of -PSD_TOL."""

    @pytest.mark.parametrize("n, rank, shift", BOUNDARY_CASES)
    def test_boundary(self, n, rank, shift):
        lam_min = -config.PSD_TOL * (1.0 + shift)
        m = boundary_density(n, rank, lam_min)
        assert hermiticity_residuals(m) == 0.0
        assert abs(np.trace(m) - 1.0) < 1e-14
        # the fixture is on the side it claims
        assert abs(np.linalg.eigvalsh(m)[0] - lam_min) < 1e-3 * config.PSD_TOL / 10
        if shift > 0:
            with pytest.raises(ValidationError, match="not positive semidefinite within 1e-9"):
                DensityMatrix(n, m)
        else:
            np.testing.assert_array_equal(DensityMatrix(n, m).matrix, m)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_accepts_large_valid_inputs(self, rank):
        rho = density_of(random_mixed(9, rank, seed=rank))
        np.testing.assert_array_equal(DensityMatrix(9, rho.matrix).matrix, rho.matrix)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_low_rank_inputs_need_no_full_factor(self, rank, monkeypatch):
        rho = density_of(random_mixed(9, rank, seed=rank)).matrix
        calls = count_full_factors(monkeypatch)
        np.testing.assert_array_equal(DensityMatrix(9, rho).matrix, rho)
        assert calls == []

    def test_full_rank_input_accepted_with_identical_bytes(self):
        # Werner-like: every eigenvalue is at least 0.7 / 512
        psi = random_pure(9, 5)
        m = 0.3 * np.outer(psi, psi.conj()) + 0.7 * np.eye(512) / 512
        kept = DensityMatrix(9, m).matrix
        assert kept.tobytes() == m.tobytes()

    def test_negative_diagonal_entry_rejected(self):
        # two pivots clear the positive entries; the next pivot is 0, so the
        # full factor decides, and the -0.1 entry is an eigenvalue
        m = np.zeros((512, 512), dtype=complex)
        m[[0, 1, 2], [0, 1, 2]] = 0.6, 0.5, -0.1
        with pytest.raises(ValidationError, match="not positive semidefinite within 1e-9"):
            DensityMatrix(9, m)

    def test_small_indefinite_remainder_rejected(self):
        # after three pivots the remaining diagonal's squared sum is far below
        # PSD_TOL**2, but the remainder holds the -2 * PSD_TOL eigenvalue
        m = boundary_density(9, 3, -2.0 * config.PSD_TOL)
        with pytest.raises(ValidationError, match="not positive semidefinite within 1e-9"):
            DensityMatrix(9, m)

    @staticmethod
    def one_triangle_negative(lower):
        """A rank-3 state with one triangle moved by at most 0.9e-10 per entry.

        Returns the matrix and the Hermitian operator the moved triangle
        defines, whose smallest eigenvalue is several times -PSD_TOL; the
        other triangle is the state's own.
        """
        a = boundary_density(9, 3, 0.0)
        support = np.linalg.eigh(a)[1][:, -3:]
        rng = np.random.default_rng(7)
        w = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        w -= support @ (support.conj().T @ w)
        d = np.outer(w, w.conj())
        np.fill_diagonal(d, 0.0)
        d *= -0.9e-10 / np.max(np.abs(d))
        return a + (np.tril(d, -1) if lower else np.triu(d, 1)), a + d

    def test_lower_triangle_decides(self, monkeypatch):
        # the full factor reads the lower triangle only, and so must the
        # certificate: an indefinite lower triangle is rejected, and an
        # indefinite upper triangle changes nothing
        m, operator = self.one_triangle_negative(lower=True)
        assert np.linalg.eigvalsh(operator)[0] < -2.0 * config.PSD_TOL
        assert 1e-11 < hermiticity_residuals(m) <= config.HERMITICITY_TOL
        with pytest.raises(ValidationError, match="not positive semidefinite within 1e-9"):
            DensityMatrix(9, m)
        # its Hermiticity residual is above ZERO_FLOOR, so the full factor
        # decides, once
        m, _ = self.one_triangle_negative(lower=False)
        calls = count_full_factors(monkeypatch)
        assert DensityMatrix(9, m).matrix.tobytes() == m.tobytes()
        assert calls == [(512, 512)]


class TestFactorGate:
    """A matrix keeps its factor L only when L L^H is the matrix to rounding."""

    def test_non_hermitian_input_keeps_no_factor(self):
        # L stands for the operator the lower triangle defines; an upper
        # triangle 2e-11 away, within HERMITICITY_TOL, moves Bob's marginal
        # by about 7e-9, so L's conditional states would not sum to it
        m = density_of(random_mixed(9, 2, 3)).matrix + np.triu(np.full((512, 512), 2e-11), 1)
        assert config.ZERO_FLOOR <= hermiticity_residuals(m) <= config.HERMITICITY_TOL
        # the lower triangle alone is its factor to rounding
        assert states._low_rank_psd(m, config.ZERO_FLOOR) is not None
        rho = DensityMatrix(9, m)
        assert rho.factor is None
        assert certify(rho, random_protocol(4, 5)).verdict == NO_PARADOX_PURITY

    @pytest.mark.parametrize("lam_min", [-0.5 * config.PSD_TOL, -1e-12])
    def test_remainder_above_floor_keeps_no_factor(self, lam_min, monkeypatch):
        # a rank-3 operator and one small negative eigenvalue: a low-rank
        # proof would hold at PSD_TOL, but the remainder is that eigenvalue,
        # not rounding, so the full factor decides, once
        m = boundary_density(9, 3, lam_min)
        assert states._low_rank_psd(m, config.PSD_TOL) is not None
        assert states._low_rank_psd(m, config.ZERO_FLOOR) is None
        protocol = random_protocol(4, 9)
        calls = count_full_factors(monkeypatch)
        rho = DensityMatrix(9, m)
        monkeypatch.undo()
        assert calls == [(512, 512)]
        assert rho.factor is None
        for which, setting in enumerate(protocol.settings, start=1):
            cs = conditional_states(rho, protocol, which)
            assert not hasattr(cs, "branches")
            want = loop_conditional(m, setting.projectors, 9, 4)
            np.testing.assert_allclose(cs.operators, want, rtol=0, atol=1e-15)

    def test_small_positive_tail_keeps_its_column(self):
        # a rank-3 operator and a 1e-12 eigenvalue: the tail is pivoted as a
        # fourth column, and L L^H is the matrix to rounding
        m = boundary_density(9, 3, 1e-12)
        rho = DensityMatrix(9, m)
        assert rho.factor.shape == (512, 4)
        protocol = random_protocol(4, 9)
        for which, setting in enumerate(protocol.settings, start=1):
            cs = conditional_states(rho, protocol, which)
            want = loop_conditional(m, setting.projectors, 9, 4)
            np.testing.assert_allclose(cs.operators, want, rtol=0, atol=1e-15)

    @staticmethod
    def gate_inputs():
        """The boundary fixtures, the 2e-11 upper-triangle input and valid
        mixtures at n = 5 to 9, ranks 1 to two past the pivot budget."""
        for n, rank, shift in BOUNDARY_CASES:
            yield n, boundary_density(n, rank, -config.PSD_TOL * (1.0 + shift))
        upper = np.triu(np.full((512, 512), 2e-11), 1)
        yield 9, density_of(random_mixed(9, 2, 3)).matrix + upper
        for n in range(5, 10):
            for rank in range(1, 2**n // 32 + 3):
                yield n, density_of(random_mixed(n, rank, 10 * n + rank)).matrix

    def test_factor_kept_exactly_when_hermitian_and_factored(self):
        # rejected input keeps nothing
        kept, expected = [], []
        for n, m in self.gate_inputs():
            try:
                kept.append(DensityMatrix(n, m).factor is not None)
            except ValidationError:
                kept.append(False)
            expected.append(
                bool(hermiticity_residuals(m) < config.ZERO_FLOOR)
                and untiled_low_rank_psd(m, config.ZERO_FLOOR)
            )
        assert kept == expected
        assert True in kept and False in kept


def test_tiled_remainder_matches_untiled():
    """``_low_rank_psd`` against the remainder formed whole, decision by decision.

    The boundary fixtures, then ranks 1 to 16 at n = 5 and 9: valid
    mixtures, and the same ranks with one eigenvalue at -2 * PSD_TOL, which
    a remainder inside the pivot budget must expose.
    """
    matrices = [
        boundary_density(n, rank, -config.PSD_TOL * (1.0 + shift))
        for n, rank, shift in BOUNDARY_CASES
    ]
    for n in (5, 9):
        for rank in range(1, 17):
            matrices.append(density_of(random_mixed(n, rank, seed=rank)).matrix)
            matrices.append(boundary_density(n, rank, -2.0 * config.PSD_TOL))
    decisions = [states._low_rank_psd(m, config.PSD_TOL) is not None for m in matrices]
    assert decisions == [untiled_low_rank_psd(m, config.PSD_TOL) for m in matrices]
    assert True in decisions and False in decisions


def test_psd_decision_matches_eigenvalues():
    """DensityMatrix against eigvalsh at lambda_min within 1e-3 * PSD_TOL of -PSD_TOL.

    Every n from 2 to 9 and every rank up to two past the pivot budget
    2**n // 32: ranks within the budget reach the remainder test, which at
    this margin leaves the decision to the full factor, and larger ranks run
    out of budget first.
    """
    rng = np.random.default_rng(2024)
    disagreements = []
    for n in range(2, 10):
        for rank in range(1, 2**n // 32 + 3):
            lam_min = -config.PSD_TOL * (1.0 + rng.uniform(-1e-3, 1e-3))
            m = boundary_density(n, rank, lam_min, seed=(int(rng.integers(2**31)),))
            expected = np.linalg.eigvalsh(m)[0] >= -config.PSD_TOL
            try:
                DensityMatrix(n, m)
                accepted = True
            except ValidationError:
                accepted = False
            if accepted != expected:
                disagreements.append((n, rank, lam_min))
    assert disagreements == []


class TestThetaFamilies:
    def test_two_qubit_amplitudes(self):
        theta = np.pi / 6
        state = two_qubit_theta_state(theta)
        v = state.vectors[0]
        np.testing.assert_allclose(v[0b00], np.cos(theta), atol=1e-12)
        np.testing.assert_allclose(v[0b11], np.sin(theta), atol=1e-12)
        assert v[0b01] == v[0b10] == 0.0

    def test_theta_range_enforced(self):
        with pytest.raises(DimensionError):
            two_qubit_theta_state(-0.1)
        with pytest.raises(DimensionError):
            lc4_mixed(np.pi / 2 + 0.1)

    def test_lc4_vectors_frozen(self):
        a, b = lc4_states()
        # first branch lives on |0000>, |1100>, |0011>, -|1111>
        np.testing.assert_allclose(a[[0, 12, 3]], [0.5, 0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(a[15], -0.5, atol=1e-15)
        # second on |0100>, |1000>, |0111>, -|1011>
        np.testing.assert_allclose(b[[4, 8, 7]], [0.5, 0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(b[11], -0.5, atol=1e-15)
        assert np.vdot(a, b) == 0.0

    def test_lc4_mixed_weights(self):
        theta = np.pi / 3
        state = lc4_mixed(theta)
        np.testing.assert_allclose(state.weights, [0.25, 0.75], atol=1e-12)

    def test_lc4_mixed_eigenvalues_frozen(self):
        rho = density_of(lc4_mixed(np.pi / 3))
        vals = np.linalg.eigvalsh(rho.matrix)
        np.testing.assert_allclose(vals[-2:], [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(vals[:-2], 0.0, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    def test_lc4_boundary_warns_and_degenerates(self, theta):
        with pytest.warns(BoundaryThetaWarning):
            state = lc4_mixed(theta)
        assert state.weights == (1.0,)


class TestSamplersAndCanonical:
    def test_random_pure_deterministic(self):
        a = random_pure(3, seed=11)
        b = random_pure(3, seed=11)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "draw", [lambda: random_pure(40, 0), lambda: random_mixed(40, 1, 0)], ids=["pure", "mixed"]
    )
    def test_samplers_refuse_past_the_cap_before_drawing(self, draw):
        # 2**40 amplitudes would not fit in memory: the cap must come first
        with pytest.raises(DimensionError, match="dimension cap"):
            draw()

    def test_random_mixed_rank(self):
        rho = density_of(random_mixed(2, 2, seed=5))
        vals = np.linalg.eigvalsh(rho.matrix)
        assert np.sum(vals > 1e-9) == 2


class TestJsonRoundTrip:
    def test_ensemble_round_trip(self):
        state = lc4_mixed(0.9)
        doc = save_state(state)
        back = load_state(json.dumps(doc))
        assert isinstance(back, EnsembleState)
        np.testing.assert_allclose(
            density_of(back).matrix, density_of(state).matrix, atol=1e-12
        )

    def test_density_round_trip(self):
        rho = density_of(random_mixed(2, 2, seed=3))
        back = load_state(json.dumps(save_state(rho)))
        assert isinstance(back, DensityMatrix)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_mapping_input_accepted(self):
        doc = save_state(two_qubit_theta_state(0.7))
        back = load_state(doc)
        assert back.n_qubits == 2

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ("{", "invalid JSON"),
            ('{"state": {}}', "n_qubits"),
            ('{"n_qubits": 1}', "state"),
            ('{"n_qubits": 1, "state": {"type": "nope"}}', "state.type"),
            ('{"n_qubits": 1, "state": {"type": "ensemble", "terms": []}}', "terms"),
            (
                '{"n_qubits": 1, "state": {"type": "ensemble", '
                '"terms": [{"weight": 1.0, "vector": [[1, 0], [0]]}]}}',
                "vector",
            ),
            (
                '{"n_qubits": 2, "state": {"type": "density", "matrix": [[[1, 0]]]}}',
                "matrix",
            ),
        ],
    )
    def test_parse_errors_carry_paths(self, doc, fragment):
        with pytest.raises(ParseError) as err:
            load_state(doc)
        assert fragment in str(err.value)

    def test_rejects_boolean_weight(self):
        doc = {
            "n_qubits": 1,
            "state": {"type": "ensemble", "terms": [{"weight": True, "vector": [[1, 0], [0, 0]]}]},
        }
        with pytest.raises(ParseError):
            load_state(doc)
