"""Conditional states, the two requirements, verdicts and report rendering."""

import functools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_conditional,
    loop_collapse,
    loop_conditional,
    outer,
    pairwise_candidates,
    pairwise_duplicates,
    partial_duplicate_instance,
    partial_trace,
    phase_equal,
    principal_vector,
    random_protocol,
    reconstruct,
)
import steerlab.lhs_lp
import steerlab.states
import steerlab.steering
from steerlab import (
    NO_PARADOX_CROSS_DUPLICATE,
    NO_PARADOX_PURITY,
    PARADOX,
    BellLikeBasis,
    ConditionalStateSet,
    DensityMatrix,
    DimensionError,
    EnsembleState,
    MeasurementSetting,
    PreconditionError,
    SteeringProtocol,
    UnsupportedSettingError,
    ValidationError,
    basis_ket,
    bell_like_setting,
    bob_marginal,
    build_lp,
    certify,
    collapse_decomposition,
    computational_family,
    config,
    conditional_states,
    density_of,
    lc4_mixed,
    lc4_states,
    max_rank_family,
    measurement_requirement,
    problem_for,
    purity_requirement,
    random_mixed,
    random_pure,
    random_rank1_setting,
    rank_bound_check,
    tensor_protocol,
    tensor_setting,
    two_qubit_theta_state,
)
from steerlab.linalg import purities
from steerlab.steering import _BranchStates


def count_phase_fixes(monkeypatch):
    """Record the row count of every principal-vector phase fix in ``steering``."""
    computed = []
    canonical_phase = steerlab.steering.canonical_phase

    def counting(rows):
        computed.append(len(rows))
        return canonical_phase(rows)

    monkeypatch.setattr(steerlab.steering, "canonical_phase", counting)
    return computed


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

    def test_density_marginal_matches_partial_trace(self):
        for n in range(2, 8):
            rho = density_of(random_mixed(n, 3, seed=n))
            for m in range(1, n):
                np.testing.assert_allclose(
                    bob_marginal(rho, m), partial_trace(rho.matrix, n, range(m)),
                    rtol=0, atol=1e-15,
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_reductions_match_loops(self, seed):
        """Probabilities and total read off the stack are the per-matrix loops' bits.

        Density-input and projector-stack sets read their operators; a
        branch-backed set reads the traces of its Gram stack, and its total,
        one product of the flattened branches, is the operator loop's to 1e-15.
        """
        state, protocol = haar_ensemble(4, 3, seed), random_protocol(2, seed)

        def loops(stack):
            total = np.zeros_like(stack[0])
            for op in stack:
                total = total + op
            return total, np.array([float(np.trace(op).real) for op in stack])

        operator_sets = [conditional_states(density_of(state), protocol, w) for w in (1, 2)]
        operator_sets.append(conditional_states(state, coarse_protocol(), 1))
        for cs in operator_sets:
            assert type(cs) is ConditionalStateSet
            total, traces = loops(cs.operators)
            assert cs.total().tobytes() == total.tobytes()
            assert cs.probabilities.tobytes() == traces.tobytes()
        for which in (1, 2):
            cs = conditional_states(state, protocol, which)
            assert isinstance(cs, _BranchStates)
            _, traces = loops(cs.branches.conj() @ cs.branches.swapaxes(1, 2))
            assert cs.probabilities.tobytes() == traces.tobytes()
            total, _ = loops(cs.operators)
            np.testing.assert_allclose(cs.total(), total, rtol=0, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        rho = density_of(two_qubit_theta_state(0.5))
        with pytest.raises(DimensionError):
            conditional_states(rho, tensor_protocol("zz", "yx", n_qubits=4), 1)

    def test_validate_accepts_good_set(self):
        _, rho, protocol = two_qubit_setup(0.8)
        sset = conditional_states(rho, protocol, 1)
        sset.validate(bob_marginal(rho, 1))

    def test_operators_are_a_read_only_copy(self):
        ops = np.array([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])], dtype=complex)
        sset = ConditionalStateSet(1, "s", 1, ("a", "b"), ops)
        kept = sset.operators.tobytes()
        ops[0, 0, 0] = 5
        assert sset.operators.tobytes() == kept
        with pytest.raises(ValueError, match="read-only"):
            sset.operators[0, 0, 0] = 5

    @pytest.mark.parametrize(
        "order, first", [((0, 1, 2), "b"), ((1, 0, 2), "a"), ((0, 3, 1), "c")]
    )
    def test_construction_names_first_non_hermitian_outcome(self, order, first):
        ops = (
            np.diag([0.5, 0.0]).astype(complex),
            np.array([[0.0, 1e-3], [0.0, 0.0]], dtype=complex),
            np.array([[0.5, 1e-3], [0.0, -1e-3]], dtype=complex),  # neither Hermitian nor PSD
            np.diag([0.5, -1e-3]).astype(complex),  # Hermitian, not PSD
        )
        ops = tuple(ops[i] for i in order)
        with pytest.raises(ValidationError, match=f"'{first}' is not Hermitian"):
            ConditionalStateSet(1, "s", 1, ("a", "b", "c"), ops)

    @pytest.mark.parametrize(
        "order, message",
        [
            ((0, 1, 2), "'b' is not PSD"),
            ((0, 2, 1), "'b' is not PSD"),
            ((0, 1, 3), "'b' is not PSD"),
        ],
    )
    def test_validate_names_first_failing_outcome(self, order, message):
        ops = (
            np.diag([0.5, 0.0]).astype(complex),
            np.diag([0.5, -1e-3]).astype(complex),
            np.array([[0.0, 1e-3], [1e-3, 0.0]], dtype=complex),  # eigenvalues -1e-3, 1e-3
            np.diag([0.5, 0.5]).astype(complex),
        )
        ops = tuple(ops[i] for i in order)
        sset = ConditionalStateSet(1, "s", 1, ("a", "b", "c"), ops)
        with pytest.raises(ValidationError, match=message):
            sset.validate(sum(ops))

    def test_non_hermitian_set_reaches_no_stage(self):
        # a set that purity_requirement, measurement_requirement and
        # problem_for would read without an error: construction,
        # the only way to a set, refuses it
        ops = np.array([[[0.5, 0.5], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]], dtype=complex)
        with pytest.raises(ValidationError, match="'0' is not Hermitian"):
            ConditionalStateSet(1, "s", 1, ("0", "1"), ops)
        hermitian_part = (ops + ops.conj().swapaxes(1, 2)) / 2
        good = ConditionalStateSet(1, "s", 1, ("0", "1"), hermitian_part)
        with pytest.raises(ValidationError, match="'0' is not Hermitian"):
            replace(good, operators=ops)


def planted_operator(dim, trace, lam_min, rng):
    """Exactly Hermitian operator of the given trace with one eigenvalue at ``lam_min``.

    The other dim - 1 eigenvalues are positive; the eigenvectors are
    Haar-random orthonormal columns.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v, _ = np.linalg.qr(g)
    positive = rng.dirichlet(np.ones(dim - 1)) * (trace - lam_min)
    m = (v * np.append(positive, lam_min)) @ v.conj().T
    return (m + m.conj().T) / 2


class TestConditionalPsdBoundary:
    """Sets whose smallest evidence eigenvalue sits just either side of -PSD_TOL.

    The planted outcomes have eigenvalue -PSD_TOL * (1 + shift); the others
    are positive definite.  The operator path reads the operators.  A set
    that keeps branches reads the T x T Gram stack W_a^H W_a, which cannot
    dip below 0 by more than rounding, so the branch case seeds the set's
    Gram stack with planted T x T matrices of the operators' traces.
    """

    LABELS = ("a", "b", "c", "d")
    TRACES = (0.4, 0.3, 0.2, 0.1)

    def stack(self, dim, planted, shift, rng):
        lam_min = -config.PSD_TOL * (1.0 + shift)
        ops = np.array([
            planted_operator(dim, p, lam_min if label in planted else 1e-3, rng)
            for label, p in zip(self.LABELS, self.TRACES)
        ])
        # each matrix is on the side the case claims
        lowest = np.linalg.eigvalsh(ops)[:, 0]
        for label, low in zip(self.LABELS, lowest):
            if label in planted:
                assert abs(low - lam_min) < 1e-3 * config.PSD_TOL / 10
        return ops

    def check(self, sset, rho_b, planted, shift):
        if shift > 0:
            with pytest.raises(ValidationError, match=f"conditional state '{planted[0]}' is not PSD"):
                sset.validate(rho_b)
        else:
            sset.validate(rho_b)

    @pytest.mark.parametrize("planted", [("b", "d"), ("d",)])
    @pytest.mark.parametrize("shift", [-1e-2, -1e-3, 1e-3, 1e-2])
    def test_operator_path(self, planted, shift):
        ops = self.stack(4, planted, shift, np.random.default_rng([4, len(planted)]))
        sset = ConditionalStateSet(1, "s", 2, self.LABELS, ops)
        self.check(sset, ops.sum(0), planted, shift)

    @pytest.mark.parametrize("planted", [("b", "d"), ("d",)])
    @pytest.mark.parametrize("shift", [-1e-2, -1e-3, 1e-3, 1e-2])
    def test_branch_path(self, planted, shift):
        rng = np.random.default_rng([5, len(planted)])
        terms, d_b = 6, 4
        w = rng.standard_normal((4, terms, d_b)) + 1j * rng.standard_normal((4, terms, d_b))
        w *= np.sqrt(np.array(self.TRACES) / np.linalg.norm(w, axis=(1, 2)) ** 2)[:, None, None]
        sset = _BranchStates(1, "s", 2, self.LABELS, w)
        sset.__dict__["_evidence_stack"] = self.stack(terms, planted, shift, rng)
        self.check(sset, sset.total(), planted, shift)


def haar_ensemble(n, terms, seed):
    """Dirichlet mixture of independent (non-orthogonal) Haar vectors."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(terms))
    vectors = tuple(random_pure(n, seed * 31 + t) for t in range(terms))
    return EnsembleState(n, tuple(weights / np.sum(weights)), vectors)


def coarse_protocol():
    """Rank-2 setting {diag(1,1,0,0), diag(0,0,1,1)} against yx on four qubits."""
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    coarse = MeasurementSetting(
        label="coarse", m_qubits=2, outcomes=("a", "b"), projectors=(p, np.eye(4) - p)
    )
    return SteeringProtocol(2, coarse, tensor_setting("yx"), 4)


def assert_same_report(got, want):
    """Verdict and ledger agree; floats to 1e-10.  The decomposition label is not compared."""
    a, b = got.to_json_dict(), want.to_json_dict()
    for key in ("quantum_trace_sum", "lp_residual"):
        assert a.pop(key) == pytest.approx(b.pop(key), abs=1e-10)
    for ra, rb in zip(a.pop("per_outcome"), b.pop("per_outcome"), strict=True):
        assert (ra["setting"], ra["outcome"]) == (rb["setting"], rb["outcome"])
        assert ra["probability"] == pytest.approx(rb["probability"], abs=1e-10)
        assert (ra["purity"] is None) == (rb["purity"] is None)
        if ra["purity"] is not None:
            assert ra["purity"] == pytest.approx(rb["purity"], abs=1e-10)
    a.pop("decomposition_used"), b.pop("decomposition_used")
    assert a == b


def coarse_haar_setting(m_qubits, seed):
    """Rank-2 projectors: the Haar basis vectors of a random setting, summed in pairs."""
    fine = random_rank1_setting(m_qubits, np.random.default_rng([seed, 5]))
    pairs = fine.projectors.reshape(-1, 2, 2**m_qubits, 2**m_qubits).sum(1)
    labels = tuple(f"c{i}" for i in range(len(pairs)))
    return MeasurementSetting(label="coarse", m_qubits=m_qubits, outcomes=labels, projectors=pairs)


class TestDensityContraction:
    """Density input, contracted in one product, against the per-outcome einsum loop."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 7) for m in range(1, n)])
    def test_matches_einsum_loop(self, n, m, seed):
        rho = density_of(random_mixed(n, 1 + seed, seed + 10 * n + m))
        protocol = random_protocol(m, seed)
        if m >= 2:
            protocol = replace(protocol, setting_2=coarse_haar_setting(m, seed))
        for which, setting in ((1, protocol.setting_1), (2, protocol.setting_2)):
            got = conditional_states(rho, protocol, which).operators
            want = loop_conditional(rho.matrix, setting.projectors, n, m)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def full_rank_density(n, seed):
    """``random_mixed(n, 2**n, seed)`` as a density matrix, summed in one product.

    Its rank exceeds the pivot budget 2**n // 32, so it keeps no factor and
    takes the banded pass.
    """
    mixed = random_mixed(n, 2**n, seed)
    return DensityMatrix(n, (mixed.vectors.T * mixed.weights) @ mixed.vectors.conj())


def one_product(matrix, stack, d_a, d_b):
    """rho_a for each flattened projector row of ``stack``: the whole matrix,
    reordered to (t, c, j, l), in one product; reference for the banded pass."""
    r = matrix.reshape(d_a, d_b, d_a, d_b).transpose(2, 0, 1, 3)
    return (stack @ r.reshape(d_a * d_a, d_b * d_b)).reshape(-1, d_b, d_b)


class TestBandedContraction:
    """Both settings' density contraction, one band of Bob rows at a time.

    The banded pass serves density matrices kept without a factor, here of
    full rank.
    """

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 10) for m in range(1, n)])
    def test_banded_product_bitwise(self, n, m):
        rng = np.random.default_rng([n, m])
        d_a, d_b = 2**m, 2 ** (n - m)
        matrix = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        stack = rng.normal(size=(3, d_a * d_a)) + 1j * rng.normal(size=(3, d_a * d_a))
        got = steerlab.steering._banded_product(matrix, (stack, stack[1:]), d_a, d_b)
        assert np.array_equal(got[0], one_product(matrix, stack, d_a, d_b))
        assert np.array_equal(got[1], one_product(matrix, stack[1:], d_a, d_b))

    # an M = 8 setting holds 256 dense 256 x 256 projectors (268 MB); the
    # bitwise test above covers that band shape
    @pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 10) for m in range(1, min(n, 8))])
    def test_joint_sets_match_one_product_and_loop(self, n, m):
        rho = full_rank_density(n, 100 * n + m)
        assert rho.factor is None
        protocol = replace(random_protocol(m, n), setting_2=coarse_haar_setting(m, n))
        d_a, d_b = 2**m, 2 ** (n - m)
        joint = steerlab.steering._validated_states(rho, protocol, (1, 2))
        for which, (cs, setting) in enumerate(zip(joint, protocol.settings), start=1):
            stack = setting.projectors.reshape(setting.n_outcomes, d_a * d_a)
            assert np.array_equal(cs.operators, one_product(rho.matrix, stack, d_a, d_b))
            want = loop_conditional(rho.matrix, setting.projectors, n, m)
            np.testing.assert_allclose(cs.operators, want, rtol=0, atol=1e-15)
            alone = conditional_states(rho, protocol, which).operators
            assert np.array_equal(alone, cs.operators)

    def test_certify_peak_below_matrix_size(self):
        rho = density_of(random_mixed(9, 2, 5))
        protocol = random_protocol(4, 5)
        tracemalloc.start()
        try:
            certify(rho, protocol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rho.matrix.nbytes

    @staticmethod
    def certify_peak(rho, protocol):
        """The tracemalloc peak of one ``certify``, in bytes."""
        tracemalloc.start()
        try:
            certify(rho, protocol)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_certify_peak_below_matrix_size_full_rank(self):
        rho = full_rank_density(9, 5)
        assert rho.factor is None
        assert self.certify_peak(rho, random_protocol(4, 5)) < rho.matrix.nbytes

    def test_certify_peak_below_projector_bytes(self):
        # each setting's stack multiplies the shared band where it lies; a
        # stacked copy of both would peak at their whole 8.4 MB
        protocol = random_protocol(6, 7)
        projector_bytes = sum(s.projectors.nbytes for s in protocol.settings)
        assert self.certify_peak(full_rank_density(7, 6), protocol) < projector_bytes / 8


@functools.lru_cache(maxsize=1)
def rank1_and_coarse_protocol(m_qubits, seed):
    """``random_protocol`` with a ``coarse_haar_setting`` as setting 2.

    The last pair is kept, so consecutive ranks of one (n, m) share it.
    """
    return replace(random_protocol(m_qubits, seed), setting_2=coarse_haar_setting(m_qubits, seed))


class TestFactorContraction:
    """Density input kept with its factor L, contracted from L's columns as amplitudes."""

    @pytest.mark.parametrize(
        "n, m, rank",
        [
            (n, m, rank)
            for n in range(5, 10)
            for m in range(1, min(n, 8))
            for rank in range(1, 2**n // 32 + 1)
        ],
    )
    def test_matches_einsum_loop(self, n, m, rank):
        rho = density_of(random_mixed(n, rank, 1000 * n + 10 * m + rank))
        assert rho.factor.shape == (2**n, rank)
        protocol = rank1_and_coarse_protocol(m, n)
        joint = steerlab.steering._validated_states(rho, protocol, (1, 2))
        assert isinstance(joint[0], _BranchStates)
        for cs, setting in zip(joint, protocol.settings):
            want = loop_conditional(rho.matrix, setting.projectors, n, m)
            np.testing.assert_allclose(cs.operators, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n, rank", [(5, 1), (7, 3), (9, 16)])
    def test_factor_is_read_only_and_reproduces_matrix(self, n, rank):
        rho = density_of(random_mixed(n, rank, n))
        with pytest.raises(ValueError):
            rho.factor[0, 0] = 0.0
        gap = rho.factor @ rho.factor.conj().T - rho.matrix
        assert np.linalg.norm(gap) < config.ZERO_FLOOR

    @staticmethod
    def instances():
        """(ensemble, protocol) pairs whose verdicts cover all three labels."""
        # ranks up to the pivot budget 2**n // 32
        for n, m, ranks in ((5, 2, (1,)), (7, 3, (1, 2, 4)), (9, 4, (1, 3, 16))):
            protocol = random_protocol(m, n)
            for rank in ranks:
                yield random_mixed(n, rank, 7 * n + rank), protocol
            # Alice's part |0...0>: one outcome of the computational setting
            # counts, the others are excluded, and every counted state is
            # Bob's part, within and across the settings
            product = np.kron(basis_ket(m, 0), random_pure(n - m, n))
            yield (
                EnsembleState(n, (1.0,), (product,)),
                replace(protocol, setting_1=tensor_setting("z" * m)),
            )

    def test_certify_matches_ensemble(self):
        verdicts = set()
        for ensemble, protocol in self.instances():
            rho = density_of(ensemble)
            assert rho.factor is not None
            got, want = certify(rho, protocol), certify(ensemble, protocol)
            assert got.verdict == want.verdict
            assert got.setting_labels == want.setting_labels
            assert [(r.setting, r.outcome) for r in got.per_outcome] == [
                (r.setting, r.outcome) for r in want.per_outcome
            ]
            assert got.excluded_outcomes == want.excluded_outcomes
            assert got.cross_setting_duplicates == want.cross_setting_duplicates
            assert got.within_setting_duplicates == want.within_setting_duplicates
            verdicts.add(got.verdict)
        assert verdicts == {PARADOX, NO_PARADOX_PURITY, NO_PARADOX_CROSS_DUPLICATE}

    @pytest.mark.parametrize("n, m, rank", [(5, 2, 1), (6, 3, 2)])
    def test_lp_verdict_matches_banded(self, n, m, rank):
        rho = density_of(random_mixed(n, rank, n))
        assert rho.factor is not None
        banded = DensityMatrix(n, rho.matrix)
        object.__setattr__(banded, "factor", None)
        protocol = random_protocol(m, n)
        got, want = certify(rho, protocol, lp=True), certify(banded, protocol, lp=True)
        assert got.lp_verdict == want.lp_verdict
        assert got.lp_residual == pytest.approx(want.lp_residual, abs=1e-10)
        assert got.verdict == want.verdict


class TestAmplitudePath:
    """Ensemble input, contracted from its amplitudes, against the dense path."""

    def check_against_dense(self, state, protocol):
        rho = density_of(state)
        m = protocol.alice_qubits
        np.testing.assert_allclose(bob_marginal(state, m), bob_marginal(rho, m), atol=1e-14)
        for which in (1, 2):
            native = conditional_states(state, protocol, which)
            dense = conditional_states(rho, protocol, which)
            assert native.outcomes == dense.outcomes
            for i, p in enumerate(protocol.settings[which - 1].projectors):
                want = brute_conditional(rho.matrix, p, state.n_qubits, m)
                np.testing.assert_allclose(native.operators[i], dense.operators[i], atol=1e-14)
                np.testing.assert_allclose(native.operators[i], want, atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n, m, terms", [(2, 1, 1), (3, 1, 3), (3, 2, 2), (4, 2, 4), (5, 3, 3)])
    def test_haar_ensembles(self, n, m, terms, seed):
        state, protocol = haar_ensemble(n, terms, seed), random_protocol(m, seed)
        self.check_against_dense(state, protocol)
        assert_same_report(certify(state, protocol), certify(density_of(state), protocol))

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.2])
    def test_lc4_mixed(self, theta):
        state, protocol = lc4_mixed(theta), tensor_protocol("zz", "yx", n_qubits=4)
        self.check_against_dense(state, protocol)
        report = certify(state, protocol, lp=True)
        assert report.verdict == PARADOX
        assert_same_report(report, certify(density_of(state), protocol, lp=True))

    def test_coarse_rank2_setting(self):
        state, protocol = lc4_mixed(0.5), coarse_protocol()
        self.check_against_dense(state, protocol)
        assert_same_report(certify(state, protocol), certify(density_of(state), protocol))

    def test_unit_trace_still_enforced(self):
        # each check passes on its own (weights sum to 1 + 8e-11, norms are
        # 1 + 9e-11), but the density operator's trace is 1 + 2.6e-10, so the
        # ensemble is rejected on construction
        phi = (basis_ket(2, 0) + basis_ket(2, 3)) / np.sqrt(2)
        scale = 1 + 9e-11
        with pytest.raises(ValidationError, match="ensemble trace .* is not 1"):
            EnsembleState(
                2, (0.5 + 4e-11, 0.5 + 4e-11), (scale * phi, scale * basis_ket(2, 1))
            )

    @pytest.mark.parametrize("lp", [False, True])
    def test_certify_builds_no_density(self, lp, monkeypatch):
        def dense_build(*args, **kwargs):
            raise AssertionError("certify built the dense density operator")

        monkeypatch.setattr(steerlab.steering, "density_of", dense_build, raising=False)
        monkeypatch.setattr(steerlab.states, "density_of", dense_build)
        monkeypatch.setattr(DensityMatrix, "__post_init__", dense_build)
        for state, protocol in (
            (two_qubit_theta_state(0.7), tensor_protocol("z", "x", n_qubits=2)),
            (lc4_mixed(0.6), tensor_protocol("zz", "yx", n_qubits=4)),
        ):
            report = certify(state, protocol, lp=lp)
            assert report.verdict == PARADOX
            assert report.lp_verdict == ("infeasible" if lp else None)


def operator_twin(cs):
    """The same conditional states without branches, so evidence comes from the operators."""
    return ConditionalStateSet(
        cs.setting_index, cs.setting_label, cs.bob_qubits, cs.outcomes, cs.operators
    )


def branch_cases():
    for n in range(2, 7):
        for m in range(1, n):
            d_b = 2 ** (n - m)
            for terms in sorted({1, 2, d_b - 1, d_b + 3}):
                yield n, m, terms


class TestBranchEvidence:
    """Evidence from the branches' Gram matrices against evidence from the operators."""

    @pytest.mark.parametrize("n, m, terms", list(branch_cases()))
    def test_matches_operator_evidence(self, n, m, terms):
        seed = 100 * n + 10 * m + terms
        state, protocol = haar_ensemble(n, terms, seed), random_protocol(m, seed)
        sets = [conditional_states(state, protocol, which) for which in (1, 2)]
        twins = [operator_twin(cs) for cs in sets]
        rho_b = bob_marginal(state, m)
        for cs, twin in zip(sets, twins):
            assert cs.branches.shape == (2**m, terms, 2 ** (n - m))
            # the PSD decision: both paths accept the same states
            cs.validate(rho_b)
            twin.validate(rho_b)
            keep = cs.probabilities > config.PROB_FLOOR
            np.testing.assert_array_equal(cs.counted, keep)
            np.testing.assert_array_equal(twin.counted, keep)
            np.testing.assert_allclose(
                cs.purities, purities(cs.operators[keep]), rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                cs.principal_vectors, twin.principal_vectors, rtol=0, atol=1e-10
            )
        got, want = purity_requirement(*sets), purity_requirement(*twins)
        assert (got.ok, got.excluded) == (want.ok, want.excluded)
        for a, b in zip(got.records, want.records, strict=True):
            assert (a.setting, a.outcome, a.purity is None) == (b.setting, b.outcome, b.purity is None)
            if a.purity is not None:
                assert a.purity == pytest.approx(b.purity, abs=1e-12)
        report, dense = certify(state, protocol), certify(density_of(state), protocol)
        assert report.verdict == dense.verdict
        assert report.cross_setting_duplicates == dense.cross_setting_duplicates
        assert report.within_setting_duplicates == dense.within_setting_duplicates
        assert report.excluded_outcomes == dense.excluded_outcomes
        assert_same_report(report, dense)

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 7) for m in range(1, n)])
    def test_product_state_duplicates(self, n, m):
        # every conditional state is Bob's factor: cross and within duplicates
        psi = np.kron(random_pure(m, n), random_pure(n - m, m))
        state, protocol = EnsembleState(n, (1.0,), (psi,)), random_protocol(m, n + m)
        report, dense = certify(state, protocol), certify(density_of(state), protocol)
        assert report.verdict == dense.verdict == NO_PARADOX_CROSS_DUPLICATE
        assert report.cross_setting_duplicates == dense.cross_setting_duplicates
        assert report.within_setting_duplicates == dense.within_setting_duplicates
        assert_same_report(report, dense)

    def test_excluded_outcomes(self):
        # |0> on Alice's side: the z setting's outcome 1 has probability 0
        psi = np.kron(basis_ket(1, 0), random_pure(2, 7))
        state, protocol = EnsembleState(3, (1.0,), (psi,)), tensor_protocol("z", "x", n_qubits=3)
        report, dense = certify(state, protocol), certify(density_of(state), protocol)
        assert report.excluded_outcomes == dense.excluded_outcomes == ((1, "1"),)
        assert_same_report(report, dense)

    def test_branches_are_read_only(self):
        state, protocol = haar_ensemble(4, 2, 3), random_protocol(2, 3)
        cs = conditional_states(state, protocol, 1)
        assert cs.branches.shape == (4, 2, 4)
        with pytest.raises(ValueError):
            cs.branches[0, 0, 0] = 1.0
        with pytest.raises(TypeError):
            ConditionalStateSet(1, "s", 2, cs.outcomes, cs.operators, cs.branches)

    @staticmethod
    def near_setting(setting, step):
        """``setting``'s projectors with each vector u_a moved by ``step[a]``, scaled
        so that the largest entry of |v_a><v_a| - P_a is 0.95 SETTING_VECTOR_TOL."""
        u = setting.vectors
        gap = np.max(np.abs(np.einsum("ki,kj->kij", u + step, (u + step).conj()) - setting.projectors))
        scale = 0.95 * config.SETTING_VECTOR_TOL / gap
        for _ in range(3):  # the quadratic term: refine the linear estimate
            v = u + scale * step
            gap = np.max(np.abs(np.einsum("ki,kj->kij", v, v.conj()) - setting.projectors))
            scale *= 0.95 * config.SETTING_VECTOR_TOL / gap
        return MeasurementSetting(
            label="near", m_qubits=setting.m_qubits, outcomes=setting.outcomes,
            projectors=setting.projectors, vectors=u + scale * step,
        )

    @pytest.mark.parametrize("terms", [1, 2, 5])
    def test_rotated_vectors_certify_like_density(self, terms):
        # vectors of an exactly rotated basis, within SETTING_VECTOR_TOL of the
        # projectors: ensemble input (contracted with the vectors) and density
        # input (with the projectors) give the same report
        n, m = 6, 4
        protocol = random_protocol(m, 40 + terms)
        rng = np.random.default_rng(terms)
        h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        w, x = np.linalg.eigh(h + h.conj().T)
        rotated = protocol.setting_1.vectors @ ((x * np.exp(1e-3j * w)) @ x.conj().T).T
        near = self.near_setting(protocol.setting_1, rotated - protocol.setting_1.vectors)
        protocol = replace(protocol, setting_1=near)
        state = haar_ensemble(n, terms, 50 + terms)
        report, dense = certify(state, protocol), certify(density_of(state), protocol)
        assert report.verdict == dense.verdict
        assert report.cross_setting_duplicates == dense.cross_setting_duplicates
        assert report.within_setting_duplicates == dense.within_setting_duplicates
        assert report.excluded_outcomes == dense.excluded_outcomes
        for a, b in zip(report.per_outcome, dense.per_outcome, strict=True):
            assert a.probability == pytest.approx(b.probability, abs=1e-8)
            assert a.purity == pytest.approx(b.purity, abs=1e-8)

    def test_vectors_off_the_identity_rejected(self):
        # each v_a = u_a + eps u_{a+1} stays within SETTING_VECTOR_TOL of P_a, but
        # sum_a |v_a><v_a| is off I by about 2.4e-9: contracted with these
        # vectors, a state whose Alice part is the top eigenvector of that
        # deviation has outcome probabilities summing to 1 + 2e-9
        setting = random_protocol(4, 3).setting_1
        with pytest.raises(ValidationError, match="vectors do not resolve the identity"):
            self.near_setting(setting, np.roll(setting.vectors, -1, axis=0))

    def test_rank2_setting_keeps_operator_path(self):
        state, protocol = lc4_mixed(0.5), coarse_protocol()
        assert type(conditional_states(state, protocol, 1)) is ConditionalStateSet
        assert isinstance(conditional_states(state, protocol, 2), _BranchStates)
        assert type(conditional_states(density_of(state), protocol, 2)) is ConditionalStateSet


def joint_cases():
    """(kind, n, m, terms, coarse) for n = 2..9, with T cycling through 1..9.

    "ensemble" is a Haar mixture of T terms; "factor" a density matrix of
    rank T within the pivot budget 2**n // 32, kept with its factor.
    ``coarse`` names the setting replaced by a ``coarse_haar_setting``, which
    stores no vectors; bare projectors take O(d_A^5) checks, so only up to
    M = 5.
    """
    cases = []
    for n in range(2, 10):
        for m in sorted({1, (n + 1) // 2, n - 1}):
            for coarse in (None, 1, 2) if m <= 5 else (None,):
                cases.append(("ensemble", n, m, 1 + len(cases) % 9, coarse))
                if n >= 5:
                    cases.append(("factor", n, m, 1 + len(cases) % (2**n // 32), coarse))
    return cases


class TestJointContraction:
    """Both rank-1 settings contracted in one stack, against each setting contracted alone."""

    FIELDS = ("probabilities", "counted", "purities", "principal_vectors", "operators")

    @pytest.mark.parametrize("kind, n, m, terms, coarse", joint_cases())
    def test_matches_each_setting_alone(self, kind, n, m, terms, coarse):
        """Bitwise the sets ``conditional_states`` builds one setting at a time.

        With a setting that stores no vectors the pair falls back to one
        record per set: the rank-1 one alone, the other from its operators.
        """
        seed = 100 * n + 10 * m + terms
        if kind == "ensemble":
            state = haar_ensemble(n, terms, seed)
        else:
            state = density_of(random_mixed(n, terms, seed))
            assert state.factor.shape == (2**n, terms)
        protocol = random_protocol(m, seed)
        if coarse is not None:
            protocol = replace(protocol, **{f"setting_{coarse}": coarse_haar_setting(m, seed)})
        joint = steerlab.steering._validated_states(state, protocol, (1, 2))
        assert len({id(cs._joint) for cs in joint}) == (1 if coarse is None else 2)
        for k, got in enumerate(joint, start=1):
            alone = conditional_states(state, protocol, k)
            assert type(got) is type(alone)
            assert type(got) is (ConditionalStateSet if k == coarse else _BranchStates)
            for name in self.FIELDS:
                a, b = getattr(got, name), getattr(alone, name)
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name

    @pytest.mark.parametrize("planted", [
        ((2, 3),), ((1, 0), (2, 1)), ((1, 5), (1, 6), (2, 0)), ((2, 6), (2, 7)),
    ])
    def test_planted_non_psd_outcome_named(self, planted):
        """A joint record that fails the batched PSD test names the outcome each
        set's own ``validate``, run in turn, names: the first planted one."""
        m, terms = 3, 3
        state, protocol = haar_ensemble(6, terms, 7), random_protocol(m, 7)
        sets = steerlab.steering._unvalidated_states(state, protocol, (1, 2))
        rho_b = bob_marginal(state, m)
        joint = sets[0]._joint
        evidence = np.array(joint.evidence)
        for k, a in planted:
            row = (k - 1) * 2**m + a
            low = np.linalg.eigvalsh(evidence[row])[0]
            evidence[row] -= (low + 2 * config.PSD_TOL) * np.eye(terms)
        joint.__dict__["evidence"] = evidence
        k, a = planted[0]
        message = f"^conditional state '{protocol.settings[k - 1].outcomes[a]}' is not PSD$"
        with pytest.raises(ValidationError, match=message):
            steerlab.steering._validate(sets, rho_b)
        with pytest.raises(ValidationError, match=message):
            for cs in sets:
                cs.validate(rho_b)


class TestBranchStates:
    """An ensemble's set under a rank-1 setting holds its branches; operators only when read."""

    @pytest.mark.parametrize("n, m, terms", [(2, 1, 1), (4, 2, 3), (5, 2, 6), (6, 3, 2)])
    def test_lazy_operators(self, n, m, terms):
        seed = 10 * n + terms
        state, protocol = haar_ensemble(n, terms, seed), random_protocol(m, seed)
        rho = density_of(state).matrix
        for which, setting in zip((1, 2), protocol.settings):
            cs = conditional_states(state, protocol, which)
            assert isinstance(cs, _BranchStates)
            assert "operators" not in cs.__dict__
            ops = cs.operators
            assert cs.operators is ops and not ops.flags.writeable
            want = cs.branches.swapaxes(1, 2) @ cs.branches.conj()
            assert ops.tobytes() == want.tobytes()
            np.testing.assert_allclose(
                ops, loop_conditional(rho, setting.projectors, n, m), rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(
                cs.probabilities, np.trace(ops, axis1=1, axis2=2).real, rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(cs.total(), ops.sum(0), rtol=0, atol=1e-15)

    def test_branches_kept_without_copy(self):
        w = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(complex)
        cs = _BranchStates(1, "s", 2, ("a", "b"), w)
        assert cs.branches is w and not w.flags.writeable

    @pytest.mark.parametrize("terms", [1, 3])
    def test_certify_builds_no_operators(self, terms):
        state, protocol = haar_ensemble(6, terms, 8), random_protocol(3, 8)
        report, evidence = steerlab.steering._certify(state, protocol, config.REQUIREMENT_TOL)
        assert report.verdict == (PARADOX if terms == 1 else NO_PARADOX_PURITY)
        for cs in (evidence.set1, evidence.set2):
            assert isinstance(cs, _BranchStates)
            assert "operators" not in cs.__dict__

    def test_validate_rejects_marginal_mismatch(self):
        state, protocol = haar_ensemble(4, 2, 5), random_protocol(2, 5)
        cs = conditional_states(state, protocol, 1)
        rho_b = bob_marginal(state, 2)
        cs.validate(rho_b)
        # trace kept, so only the marginal check can fail
        off = rho_b + 1e-6 * np.diag([1.0, -1.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="do not sum to Bob's marginal"):
            cs.validate(off)
        assert "operators" not in cs.__dict__

    def test_large_certify_peak(self):
        """``certify`` on ``scripts/ladder.py``'s n = 12, M = 6 instance peaks below 4 MB.

        Each setting's (64, 1, 64) branches take 64 KiB; the (64, 64, 64)
        operator stack they stand for would take 4 MiB.
        """
        rng = np.random.default_rng([12, 6])
        state = EnsembleState(12, (1.0,), (random_pure(12, int(rng.integers(2**32))),))
        s1, s2 = (random_rank1_setting(6, rng, label=f"haar-{k}") for k in (1, 2))
        protocol = SteeringProtocol(6, s1, s2)
        tracemalloc.start()
        try:
            report = certify(state, protocol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == PARADOX
        assert peak < 4 * 2**20


def near_pure_branches(rng, d, p, gap, terms=3):
    """(terms, d) branches whose rho = sum_alpha w w^H has trace p and purity 1 - gap.

    rho = p ((1 - e) |u><u| + e |w><w|) for orthonormal Haar u, w, with e
    solving 2e - 2e^2 = gap; a Haar unitary on the branch index spreads the
    two rows over all ``terms`` rows without changing rho.
    """
    e = (1.0 - np.sqrt(1.0 - 2.0 * gap)) / 2.0

    def haar_columns(rows, cols):
        z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(z)[0]

    u, w = haar_columns(d, 2).T
    rows = np.zeros((terms, d), dtype=complex)
    rows[0], rows[1] = np.sqrt(p * (1.0 - e)) * u, np.sqrt(p * e) * w
    return haar_columns(terms, terms) @ rows


def branch_set(branches):
    """A set whose evidence is the Gram stack of ``branches`` (K, T, d), as certify builds it."""
    outcomes = tuple(str(a) for a in range(len(branches)))
    return _BranchStates(1, "s", branches.shape[-1].bit_length() - 1, outcomes, branches)


def count_eigh(monkeypatch):
    """Record the shape of every ``np.linalg.eigh`` argument."""
    shapes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return shapes


PROBABILITIES = (1e-6, 1e-4, 1e-2, 1.0)


class TestPurePrincipalVectors:
    """Principal vectors of pure outcomes, from two products, against ``eigh``."""

    @pytest.mark.parametrize("branches", [False, True])
    @pytest.mark.parametrize("d", [2, 4, 32, 128])
    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-10, 3e-9, 9e-9])
    def test_matches_eigh(self, gap, d, branches, monkeypatch):
        rng = np.random.default_rng([d, int(gap * 1e12), branches])
        stack = np.array([near_pure_branches(rng, d, p, gap) for p in PROBABILITIES])
        cs = branch_set(stack)
        if not branches:
            cs = operator_twin(cs)
        np.testing.assert_allclose(cs.probabilities, PROBABILITIES, rtol=1e-12)
        np.testing.assert_allclose(1.0 - cs.purities, gap, rtol=0, atol=1e-14)
        want = np.array([principal_vector(op) for op in cs.operators])
        calls = count_eigh(monkeypatch)
        np.testing.assert_allclose(cs.principal_vectors, want, rtol=0, atol=1e-14)
        assert calls == []

    @pytest.mark.parametrize("d", [2, 32])
    def test_mixed_rows_take_eigh(self, d, monkeypatch):
        # pure and mixed outcomes in one set: only the mixed ones, whose gap
        # is at or above the tolerance, go to eigh, and they keep its bits
        rng = np.random.default_rng(d)
        gaps = (0.0, 2e-8, 3e-9, 0.3, 1e-12, 1e-6)
        stack = np.array([near_pure_branches(rng, d, 0.5, g) for g in gaps])
        cs = operator_twin(branch_set(stack))
        mixed = np.abs(cs.purities - 1.0) >= config.REQUIREMENT_TOL
        np.testing.assert_array_equal(mixed, [False, True, False, True, False, True])
        want = np.array([principal_vector(op) for op in cs.operators])
        calls = count_eigh(monkeypatch)
        got = cs.principal_vectors
        assert calls == [(3, d, d)]
        np.testing.assert_array_equal(got[mixed], want[mixed])
        np.testing.assert_allclose(got[~mixed], want[~mixed], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_paradox_density_makes_no_eigh(self, seed, monkeypatch):
        state, protocol = evidence_instance("haar", seed)
        rho = density_of(state)
        calls = count_eigh(monkeypatch)
        assert certify(rho, protocol).verdict == PARADOX
        assert calls == []


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
        assert dec.coefficients[0][1] == 0.0
        assert not dec.vectors[0][1].any()

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
            np.testing.assert_allclose(reconstruct(dec, o), sset.operators[o], atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["mixed", "family", "basis"])
    def test_matches_loop_reference(self, kind, seed):
        # family components sit on one slot of the computational pairing and
        # basis terms on one computational ket, so both have empty branches
        m = 2 + seed % 2 if kind == "family" else 1 + seed % 3
        n = m + 1 + seed % 2
        if kind == "mixed":
            state, setting = random_mixed(n, 3, seed), random_protocol(m, seed).setting_1
        elif kind == "family":
            state = max_rank_family(n, m, seed)
            setting = bell_like_setting(BellLikeBasis(0.4, computational_family(m), "c"))
        else:
            state = EnsembleState(n, (0.25, 0.75), (basis_ket(n, seed), basis_ket(n, 2**n - 1)))
            setting = tensor_setting("z" * m)
        dec = collapse_decomposition(state, setting, m)
        coefficients, vectors = loop_collapse(state, setting, m)
        empty = np.array([[v is None for v in row] for row in vectors])
        assert empty.any() == (kind != "mixed")
        want = np.zeros_like(dec.vectors)
        want[~empty] = [v for row in vectors for v in row if v is not None]
        # one product in place of one per component: each branch entry is a
        # length-2^M dot product of unit vectors, so it may move by 2^M eps,
        # and its unit vector by that over the branch norm
        tol = 2**m * np.finfo(float).eps
        np.testing.assert_allclose(dec.coefficients, coefficients, rtol=0, atol=tol)
        np.testing.assert_allclose(
            np.abs(coefficients)[..., None] * (dec.vectors - want), 0.0, atol=2 * tol
        )
        assert not dec.vectors[empty].any()


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

        # the candidates come from the two-product principal vectors, the
        # reference's from eigh: they agree to rounding, measured <= 1.0e-15
        got, want = problem_for(s1, s2)[0].candidates, pairwise_candidates(s1, s2)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)


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

    @pytest.mark.parametrize("lp", [False, True])
    @pytest.mark.parametrize("density", [False, True])
    def test_bob_marginal_formed_once(self, monkeypatch, lp, density):
        """Both settings' sets are validated against one marginal."""
        state, rho, protocol = two_qubit_setup(np.pi / 4)
        calls = []

        def counting(*args):
            calls.append(args)
            return bob_marginal(*args)

        monkeypatch.setattr(steerlab.steering, "bob_marginal", counting)
        certify(rho if density else state, protocol, lp=lp)
        assert len(calls) == 1

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
        s1, s2 = (conditional_states(state, protocol, k) for k in (1, 2))
        wrong = (np.diag([1.0, 0.0]).astype(complex),)
        result = steerlab.lhs_lp.solve_feasibility(build_lp(s1, s2, wrong))
        assert steerlab.lhs_lp.verdict_label(result, True) == "infeasible-relative-to-candidates"

    def test_lp_uses_callers_purity_tolerance(self):
        # setting 1's outcome 0 has purity 1 - 4e-8: pure at tol=1e-6, so the
        # LP must take its candidates from the complete pure-state list too
        phi = (basis_ket(2, 0) + basis_ket(2, 3)) / np.sqrt(2)
        state = EnsembleState(2, (1 - 1e-8, 1e-8), (phi, basis_ket(2, 1)))
        report = certify(state, tensor_protocol("z", "x", n_qubits=2), lp=True, tol=1e-6)
        assert report.verdict == PARADOX
        assert report.lp_verdict == "infeasible"
        assert report.lp_residual == pytest.approx(13 / 112, rel=1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan])
    def test_rejects_non_positive_tolerance(self, tol):
        state, _, protocol = two_qubit_setup(np.pi / 4)
        with pytest.raises(ValidationError, match="tolerance"):
            certify(state, protocol, tol=tol)
        sets = [conditional_states(state, protocol, which) for which in (1, 2)]
        with pytest.raises(ValidationError, match="tolerance"):
            problem_for(*sets, tol)
        with pytest.raises(ValidationError, match="tolerance"):
            problem_for(*sets, tol=tol)

    def test_infinite_tolerance_accepted(self):
        # every pair of counted states coincides, so setting 1 meets setting 2
        state, _, protocol = two_qubit_setup(np.pi / 4)
        report = certify(state, protocol, tol=np.inf)
        assert report.verdict == NO_PARADOX_CROSS_DUPLICATE

    @pytest.mark.parametrize("lp", [False, True])
    def test_one_evidence_pass(self, lp, monkeypatch):
        # the duplicate check and the LP read the principal vectors each set
        # keeps: one phase-fixed pass over the joint record of both settings,
        # of their four counted outcomes
        computed = count_phase_fixes(monkeypatch)
        state, _, protocol = two_qubit_setup(np.pi / 4)
        report = certify(state, protocol, lp=lp)
        assert report.verdict == PARADOX
        assert computed == [4]

    def test_lp_reads_the_verdicts_evidence(self, monkeypatch):
        # certify(lp=True) builds the program from the purity check and the
        # coincidence matrix its verdict read: one call of each in total
        calls = {"purity_requirement": 0, "phase_coincidences": 0}
        for module in (steerlab.steering, steerlab.lhs_lp):
            for name in calls:
                if not hasattr(module, name):
                    continue
                original = getattr(module, name)

                def counting(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
        state, protocol = lc4_mixed(0.6), tensor_protocol("zz", "yx", n_qubits=4)
        report = certify(state, protocol, lp=True)
        assert (report.verdict, report.lp_verdict) == (PARADOX, "infeasible")
        assert calls == {"purity_requirement": 1, "phase_coincidences": 1}

    @pytest.mark.parametrize("tol", [config.REQUIREMENT_TOL, 1e-6])
    @pytest.mark.parametrize("case", ["haar", "product", "partial-duplicate", "rank2"])
    def test_problem_for_is_certifys_program(self, case, tol, monkeypatch):
        # the program certify(lp=True) hands the solver, and the relative flag
        # its LP verdict is labelled with, are problem_for's, bit for bit
        if case == "haar":
            state, protocol = EnsembleState(4, (1.0,), (random_pure(4, 3),)), random_protocol(2, 3)
        elif case == "product":
            state = EnsembleState(2, (1.0,), (basis_ket(2, 0),))
            protocol = tensor_protocol("z", "x", n_qubits=2)
        elif case == "partial-duplicate":
            state, protocol = partial_duplicate_instance(1, 0)
        else:
            state, protocol = random_mixed(4, 2, 3), random_protocol(2, 3)
        solved, labelled = [], []
        solve, label = steerlab.lhs_lp.solve_feasibility, steerlab.lhs_lp.verdict_label
        monkeypatch.setattr(steerlab.lhs_lp, "solve_feasibility",
                            lambda problem: solved.append(problem) or solve(problem))
        monkeypatch.setattr(steerlab.lhs_lp, "verdict_label",
                            lambda result, relative: labelled.append(relative) or label(result, relative))
        certify(state, protocol, lp=True, tol=tol)
        (problem,), (relative,) = solved, labelled
        want, want_relative = problem_for(
            conditional_states(state, protocol, 1), conditional_states(state, protocol, 2), tol
        )
        assert relative is want_relative is (case == "rank2")
        for name in ("a_eq", "b_eq", "candidates"):
            assert getattr(problem, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("dense", [False, True])
    def test_staged_requirements_share_evidence(self, dense, monkeypatch):
        # the public stages, called one after another on one pair of sets,
        # compute each set's principal vectors once, from branches or operators
        state, rho, protocol = two_qubit_setup(np.pi / 4)
        sets = [conditional_states(rho if dense else state, protocol, k) for k in (1, 2)]
        computed = count_phase_fixes(monkeypatch)
        assert purity_requirement(*sets).ok
        assert measurement_requirement(*sets).ok
        _, relative = problem_for(*sets)
        assert not relative
        assert computed == [2, 2]

    def test_near_psd_density_accepted(self):
        # lambda_min(rho) = -5e-10 lies within the PSD_TOL DensityMatrix allows,
        # and each conditional state of a rank-1 outcome is a compression of rho
        rho = DensityMatrix(2, np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]))
        for axes in (("z", "x"), ("x", "y")):
            report = certify(rho, tensor_protocol(*axes, n_qubits=2))
            assert report.verdict == NO_PARADOX_PURITY

    def test_lp_agreement_on_paradox(self):
        state, _, protocol = two_qubit_setup(np.pi / 3)
        report = certify(state, protocol, lp=True)
        assert report.lp_verdict == "infeasible"
        assert report.lp_residual == pytest.approx(0.14955512909979063, rel=1e-9)


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

    def test_warns_when_lp_contradicts_paradox(self):
        state, _, protocol = two_qubit_setup(np.pi / 4)
        report = certify(state, protocol, lp=True)
        warning = (
            "warning: LP oracle found a hidden-state model although the structural "
            "verdict is PARADOX\n"
        )
        assert report.verdict == PARADOX and report.lp_verdict == "infeasible"
        assert warning not in report.to_text()
        clash = replace(report, lp_verdict="feasible")
        assert clash.to_text() == report.to_text().replace(
            "lhs-lp: infeasible", "lhs-lp: feasible"
        ) + warning
        assert json.dumps(clash.to_json_dict(), sort_keys=True) == json.dumps(
            report.to_json_dict(), sort_keys=True
        ).replace('"infeasible"', '"feasible"')
        # a feasible LP beside any other verdict is no contradiction
        for verdict in (NO_PARADOX_PURITY, NO_PARADOX_CROSS_DUPLICATE):
            assert warning not in replace(clash, verdict=verdict).to_text()

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
