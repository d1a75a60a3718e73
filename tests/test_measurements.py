"""Projective settings, Bell-like bases, setting transforms, JSON round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    completeness_gap,
    loop_conditional,
    loop_settings_equal,
    outer,
    overlaps,
    phase_equal,
    principal_vector,
    with_beta,
)
from steerlab import measurements
from steerlab import (
    BellLikeBasis,
    DimensionError,
    MeasurementSetting,
    ParseError,
    SteeringProtocol,
    UnsupportedSettingError,
    ValidationError,
    bell_like_setting,
    computational_family,
    conditional_states,
    density_of,
    load_measurement,
    load_protocol,
    pauli_axis_basis,
    random_mixed,
    random_rank1_setting,
    save_measurement,
    save_protocol,
    settings_equal,
    tensor_protocol,
    tensor_setting,
)
from steerlab import config
from steerlab.linalg import outers


class TestPauliAndTensor:
    def test_pauli_bases_frozen(self):
        zp, zm = pauli_axis_basis("z")
        np.testing.assert_allclose(zp, [1, 0], atol=1e-15)
        np.testing.assert_allclose(zm, [0, 1], atol=1e-15)
        xp, xm = pauli_axis_basis("x")
        np.testing.assert_allclose(xp, np.array([1, 1]) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(xm, np.array([1, -1]) / np.sqrt(2), atol=1e-15)
        yp, ym = pauli_axis_basis("y")
        np.testing.assert_allclose(yp, np.array([1, 1j]) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(ym, np.array([1, -1j]) / np.sqrt(2), atol=1e-15)

    def test_pauli_rejects_unknown_axis(self):
        with pytest.raises(UnsupportedSettingError):
            pauli_axis_basis("w")

    def test_tensor_setting_z(self):
        s = tensor_setting("z")
        assert s.outcomes == ("0", "1")
        np.testing.assert_allclose(s.projectors[0], np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(s.projectors[1], np.diag([0.0, 1.0]), atol=1e-15)

    def test_tensor_setting_yx_outcome_map(self):
        s = tensor_setting("yx")
        assert s.outcomes == ("00", "01", "10", "11")
        yp, ym = pauli_axis_basis("y")
        xp, xm = pauli_axis_basis("x")
        # bit 0 picks qubit 0's eigenvector, bit 1 qubit 1's
        np.testing.assert_allclose(s.projectors[0b10], outer(np.kron(ym, xp)), atol=1e-12)

    def test_completeness(self):
        for axes in ("z", "x", "y", "zz", "yx", "xyz"):
            assert completeness_gap(tensor_setting(axes)) < 1e-12

    def test_rank2_projectors_allowed_but_not_rank1(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        s = MeasurementSetting(
            label="coarse", m_qubits=2, outcomes=("a", "b"),
            projectors=(p, np.eye(4) - p),
        )
        with pytest.raises(UnsupportedSettingError):
            s.rank1_vectors()

    def test_rejects_non_idempotent(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValidationError, match="^projector 0 is not idempotent within 1e-10$"):
            MeasurementSetting(label="bad", m_qubits=1, outcomes=("a", "b"),
                               projectors=(m, np.eye(2) - m))

    def test_rejects_incomplete(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(
            ValidationError, match="^projectors do not sum to the identity within 1e-10$"
        ):
            MeasurementSetting(label="bad", m_qubits=1, outcomes=("a",), projectors=(p,))

    def test_rejects_duplicate_outcome_labels(self):
        s = tensor_setting("z")
        with pytest.raises(ValidationError, match="^outcome labels are not unique$"):
            MeasurementSetting(label="bad", m_qubits=1, outcomes=("0", "0"),
                               projectors=s.projectors)


Z0 = np.diag([1.0, 0.0]).astype(complex)
Z1 = np.diag([0.0, 1.0]).astype(complex)
OBLIQUE = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # idempotent, not Hermitian
E4 = np.eye(4, dtype=complex)
HADAMARD4 = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]]) / 2
LONG_ROW_BASIS = HADAMARD4 * np.sqrt([[1 + 3e-10], [1.0], [1.0], [1.0]])


@pytest.mark.parametrize(
    "m, projectors, vectors, error, message",
    [
        pytest.param(1, (), None, ValidationError, "setting needs at least one projector",
                     id="empty"),
        pytest.param(1, (OBLIQUE, E4[:2, :2] - OBLIQUE), None, ValidationError,
                     "projector 0 is not Hermitian within 1e-10", id="non-hermitian"),
        # a projector failing both checks is named for the Hermitian one
        pytest.param(1, (Z0, np.array([[0.5, 1.0], [0.0, 0.5]])), None, ValidationError,
                     "projector 1 is not Hermitian within 1e-10", id="hermitian-first"),
        # the first failing projector is named, whichever check it fails
        pytest.param(1, (np.diag([0.5, 0.5]), OBLIQUE), None, ValidationError,
                     "projector 0 is not idempotent within 1e-10", id="first-failing"),
        pytest.param(1, (Z0, outer(np.array([1.0, 1.0]) / np.sqrt(2))), None, ValidationError,
                     "projectors 0 and 1 are not orthogonal", id="non-orthogonal"),
        pytest.param(2, (outer(E4[0]), outer(E4[1]), outer((E4[0] + E4[1]) / np.sqrt(2)),
                         outer(E4[3])), None, ValidationError,
                     "projectors 0 and 2 are not orthogonal", id="first-non-orthogonal-pair"),
        pytest.param(1, (Z0, E4), None, DimensionError,
                     "projector 1 has shape (4, 4), expected (2, 2)", id="projector-shape"),
        pytest.param(2, (np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1])), None,
                     ValidationError, "outcome labels and projectors differ in count",
                     id="label-count"),
        pytest.param(1, (Z0, Z1), ([1.0, 0.0],), ValidationError,
                     "vectors and projectors differ in count", id="vector-count"),
        pytest.param(1, (Z0, Z1), ([1.0, 0.0], [0.0, 1.0, 0.0]), DimensionError,
                     "vector 1 has shape (3,), expected (2,)", id="vector-shape"),
        pytest.param(1, (Z0, Z1), ([0.0, 1.0], [1.0, 0.0]), ValidationError,
                     "vector 0 does not generate projector 0", id="vector-mismatch"),
        pytest.param(1, (Z0, Z1), ([1.0, 0.0], [0.0, 1.0j * (1 + 1e-8)]), ValidationError,
                     "vector 1 does not generate projector 1", id="vector-norm"),
        # each vector within 1e-9 of its projector, their outer products off I by 8e-10
        pytest.param(1, (Z0, Z1), ([1.0, 4e-10], [4e-10, 1.0]), ValidationError,
                     "vectors do not resolve the identity within 1e-10", id="vector-sum"),
        # row 0 is 3e-10 too long; the outer products miss I by only 7.5e-11
        pytest.param(2, None, LONG_ROW_BASIS, ValidationError,
                     "vectors are not orthonormal within 1e-10", id="vector-gram"),
    ],
)
def test_setting_rejections(m, projectors, vectors, error, message):
    outcomes = ("0", "1") if m == 1 else ("00", "01", "10", "11")
    with pytest.raises(error) as err:
        MeasurementSetting(label="bad", m_qubits=m, outcomes=outcomes,
                           projectors=projectors, vectors=vectors)
    assert str(err.value) == message


def test_shapes_checked_before_values():
    """Every shape is checked before any projector's values."""
    with pytest.raises(DimensionError, match=r"^projector 1 has shape \(4, 4\), expected \(2, 2\)$"):
        MeasurementSetting(label="bad", m_qubits=1, outcomes=("0", "1"),
                           projectors=(OBLIQUE, E4))


OUTCOMES_4 = ("00", "01", "10", "11")


class TestSettingInput:
    """How a setting reads its caller's vectors and projectors: shapes, values, aliasing."""

    @pytest.mark.parametrize("vectors, message", [
        (([1.0, 0.0], [0.0, 1.0, 0.0]), "vector 1 has shape (3,), expected (2,)"),
        (([1.0, 0.0], [0.0], [0.0, 1.0]), "vector 1 has shape (1,), expected (2,)"),
        (([1.0, 0.0, 0.0], [[0.0, 1.0]]), "vector 0 has shape (3,), expected (2,)"),
    ], ids=["long", "first-of-two", "nested"])
    def test_ragged_vectors_name_the_first(self, vectors, message):
        with pytest.raises(DimensionError) as err:
            MeasurementSetting("bad", 1, ("0", "1"), vectors=vectors)
        assert str(err.value) == message

    def test_ragged_vectors_that_ravel_alike_are_accepted(self):
        # each vector is raveled on its own, so a nested row of the right size counts
        setting = MeasurementSetting("z", 1, ("0", "1"), vectors=([1.0, 0.0], [[0.0, 1.0]]))
        assert setting.vectors.tobytes() == tensor_setting("z").vectors.tobytes()

    @pytest.mark.parametrize("container", [tuple, np.array], ids=["tuple", "array"])
    def test_square_vectors_are_raveled(self, container):
        want = np.array(HADAMARD4, dtype=complex)
        setting = MeasurementSetting(
            "h", 2, OUTCOMES_4, vectors=container([row.reshape(2, 2) for row in want])
        )
        assert setting.vectors.shape == (4, 4)
        assert setting.vectors.tobytes() == want.tobytes()
        assert setting.projectors.tobytes() == outers(want).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("where", ["vectors", "projectors", "bare-projectors"])
    def test_non_finite_entries(self, bad, where):
        vectors = np.array(HADAMARD4, dtype=complex)
        projectors = outers(vectors)
        if where == "vectors":
            vectors[2, 1] = bad
        else:
            projectors[3, 0, 2] = bad
        given = None if where == "bare-projectors" else vectors
        with pytest.raises(ValidationError, match="^array contains non-finite entries$"):
            MeasurementSetting("bad", 2, OUTCOMES_4, projectors, given)

    @pytest.mark.parametrize("vectors", [None, HADAMARD4], ids=["bare", "with-vectors"])
    def test_first_wrong_projector_named(self, vectors):
        p = outers(np.array(HADAMARD4, dtype=complex))
        projectors = (p[0], p[1][:3], p[2][:, :2], p[3])
        with pytest.raises(DimensionError) as err:
            MeasurementSetting("bad", 2, OUTCOMES_4, projectors, vectors)
        assert str(err.value) == "projector 1 has shape (3, 4), expected (4, 4)"

    def test_vector_shapes_checked_before_projectors(self):
        projectors = (E4[:2, :2], E4)
        with pytest.raises(DimensionError) as err:
            MeasurementSetting("bad", 1, ("0", "1"), projectors, ([1.0, 0.0], [0.0, 1.0, 0.0]))
        assert str(err.value) == "vector 1 has shape (3,), expected (2,)"

    @pytest.mark.parametrize("with_vectors", [False, True], ids=["bare", "with-vectors"])
    def test_projector_array_and_tuple_agree(self, with_vectors):
        source = random_rank1_setting(3, np.random.default_rng(5))
        vectors = source.vectors if with_vectors else None
        stack = np.array(source.projectors)
        from_array = MeasurementSetting("s", 3, source.outcomes, stack, vectors)
        from_tuple = MeasurementSetting("s", 3, source.outcomes, tuple(stack), vectors)
        assert from_array.projectors.tobytes() == from_tuple.projectors.tobytes()
        assert from_array.vectors.tobytes() == from_tuple.vectors.tobytes()


@pytest.mark.parametrize(
    "setting",
    [tensor_setting("zz"), random_rank1_setting(3, np.random.default_rng(3))],
    ids=["zz", "random3"],
)
def test_extracted_vectors_bitwise(setting):
    """Vectors taken from bare projectors are those of the one-projector extraction, bit for bit."""
    bare = MeasurementSetting("bare", setting.m_qubits, setting.outcomes, setting.projectors)
    want = [principal_vector(p) for p in setting.projectors]
    assert np.array(bare.vectors).tobytes() == np.array(want).tobytes()


def _basis_settings():
    rng = np.random.default_rng(29)
    yield from (tensor_setting(axes) for axes in ("z", "yx", "xyz"))
    yield from (random_rank1_setting(m, rng) for m in (1, 2, 3, 4) for _ in range(3))
    yield bell_like_setting(BellLikeBasis(0.4, computational_family(3)))


class TestBasisSettings:
    """A setting given by vectors is validated on its basis matrix alone."""

    def test_no_projector_is_checked_on_its_own(self, monkeypatch):
        """The Hermiticity check, first of the bare-projector checks, never runs."""

        def refuse(stack):
            raise AssertionError("bare-projector checks ran for a basis setting")

        monkeypatch.setattr(measurements, "hermiticity_residuals", refuse)
        for s in _basis_settings():
            MeasurementSetting("u", s.m_qubits, s.outcomes, vectors=s.vectors)
            MeasurementSetting("u", s.m_qubits, s.outcomes, s.projectors, s.vectors)

    def test_projectors_are_the_outer_products(self):
        for s in _basis_settings():
            assert s.projectors.tobytes() == outers(s.vectors).tobytes()
            bare = MeasurementSetting("p", s.m_qubits, s.outcomes, s.projectors)
            assert bare.projectors.tobytes() == s.projectors.tobytes()

    def test_accepted_bases_pass_the_projector_checks(self):
        """Perturbed bases the basis check accepts give projectors the bare path accepts."""
        rng = np.random.default_rng(31)
        accepted = rejected = 0
        for s in _basis_settings():
            for _ in range(40):
                delta = 10.0 ** rng.uniform(-12, -9)
                noise = rng.standard_normal((*s.vectors.shape, 2)) @ [1.0, 1.0j]
                vectors = s.vectors + delta * noise / np.max(np.abs(noise))
                try:
                    u = MeasurementSetting("u", s.m_qubits, s.outcomes, vectors=vectors)
                except ValidationError:
                    rejected += 1
                    continue
                accepted += 1
                bare = MeasurementSetting("p", s.m_qubits, s.outcomes, u.projectors)
                assert bare.projectors.tobytes() == u.projectors.tobytes()
        assert accepted > 100 and rejected > 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_caller_projectors_are_replaced(self, seed):
        """Caller projectors within 1e-9 of the vectors give way to the vectors' outer products.

        Density input is contracted with the projectors and ensemble input
        with the vectors, so both measure the same conditional states.
        """
        rng = np.random.default_rng([seed, 37])
        s = random_rank1_setting(2, rng)
        noise = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        noise = noise + noise.conj().transpose(0, 2, 1)
        off = s.projectors + 9e-10 * noise / np.max(np.abs(noise))
        setting = MeasurementSetting("s", 2, s.outcomes, off, s.vectors)
        assert setting.projectors.tobytes() == outers(s.vectors).tobytes()
        protocol = SteeringProtocol(2, setting, tensor_setting("zx"), n_qubits=4)
        state = random_mixed(4, 2, seed)
        ensemble = conditional_states(state, protocol, 1).operators
        density = conditional_states(density_of(state), protocol, 1).operators
        np.testing.assert_allclose(ensemble, density, rtol=0, atol=1e-14)
        rho = np.array(density_of(state).matrix)
        with_caller = loop_conditional(rho, off, 4, 2)
        assert np.max(np.abs(with_caller - ensemble)) > 1e-11


class TestBellLike:
    def test_basis_validation(self):
        fam = ((np.array([1.0, 0.0]), np.array([1.0, 0.0])),)
        with pytest.raises(ValidationError):
            BellLikeBasis(0.3, fam)

    def test_quarter_turn_single_qubit(self):
        s = bell_like_setting(BellLikeBasis(np.pi / 4, computational_family(1)))
        xp, xm = pauli_axis_basis("x")
        np.testing.assert_allclose(s.projectors[0], outer(xp), atol=1e-12)
        np.testing.assert_allclose(s.projectors[1], outer(xm), atol=1e-12)

    def test_rotation_vectors_frozen(self):
        beta = 0.3
        s = bell_like_setting(BellLikeBasis(beta, computational_family(1)))
        v = s.rank1_vectors()
        np.testing.assert_allclose(v[0], [np.cos(beta), np.sin(beta)], atol=1e-12)
        # minus vector sin b |0> - cos b |1>, up to canonical phase
        got = v[1] if v[1][0].real > 0 else -v[1]
        np.testing.assert_allclose(got, [np.sin(beta), -np.cos(beta)], atol=1e-12)

    def test_outcome_order_plus_block_then_minus_block(self):
        fam = computational_family(2)
        s = bell_like_setting(BellLikeBasis(0.0, fam))
        v = s.rank1_vectors()
        # beta=0 reproduces the family itself: plus vectors first in slot
        # order, then the minus vectors in the same slot order
        for i, (plus, minus) in enumerate(fam):
            assert phase_equal(v[i], plus, 1e-12)
            assert phase_equal(v[i + len(fam)], minus, 1e-12)

    @settings(max_examples=30)
    @given(st.floats(0.0, np.pi), st.integers(1, 3))
    def test_completeness_property(self, beta, m):
        s = bell_like_setting(BellLikeBasis(beta, computational_family(m)))
        assert completeness_gap(s) < 1e-12

    def test_with_beta(self):
        b = BellLikeBasis(0.2, computational_family(1), family_label="computational")
        b2 = with_beta(b, 1.0)
        assert b2.beta == 1.0
        assert b2.family_label == "computational"


class TestTransformation:
    def test_identity_on_same_setting(self):
        s = tensor_setting("z")
        np.testing.assert_allclose(overlaps(s, s), np.eye(2), atol=1e-12)

    def test_z_to_x_magnitudes(self):
        v = overlaps(tensor_setting("z"), tensor_setting("x"))
        np.testing.assert_allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_block_pattern_shared_family(self):
        fam = computational_family(2)
        b1, b2 = 0.7, 0.2
        s1 = bell_like_setting(BellLikeBasis(b1, fam))
        s2 = bell_like_setting(BellLikeBasis(b2, fam))
        v = overlaps(s1, s2)
        eye = np.eye(2)
        d = b1 - b2
        want = np.block([[np.cos(d) * eye, np.sin(d) * eye],
                         [-np.sin(d) * eye, np.cos(d) * eye]])
        np.testing.assert_allclose(v, want, atol=1e-12)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-12)


class TestEqualityAndProtocols:
    def test_settings_equal_ignores_outcome_order(self):
        s = tensor_setting("z")
        flipped = MeasurementSetting(
            label="z-flip", m_qubits=1, outcomes=("1", "0"),
            projectors=(s.projectors[1], s.projectors[0]),
        )
        assert settings_equal(s, flipped)

    def test_settings_not_equal(self):
        assert not settings_equal(tensor_setting("z"), tensor_setting("x"))

    @staticmethod
    def base_setting(base, m, rng):
        if base == "computational":
            return tensor_setting("z" * m)
        if base == "product":
            return tensor_setting("".join(rng.choice(list("xyz"), m)))
        return random_rank1_setting(m, rng)

    @staticmethod
    def perturbed(vectors, kind, scale):
        """Rows 0 and 1 of ``vectors`` moved so that their projectors' largest
        entrywise change is ``scale`` SETTING_TOL: row 0 shortened ("shrink"),
        or rows 0 and 1 turned by a small angle in their plane ("rotate")."""
        target = scale * config.SETTING_TOL

        def moved(step):
            v = vectors.copy()
            if kind == "shrink":
                v[0] *= 1.0 - step
            else:
                v[0], v[1] = (np.cos(step) * vectors[0] + np.sin(step) * vectors[1],
                              np.cos(step) * vectors[1] - np.sin(step) * vectors[0])
            return v

        step = target
        for _ in range(4):  # the gap is linear in the step to first order
            gap = np.max(np.abs(outers(moved(step))[:2] - outers(vectors)[:2]))
            step *= target / gap
        return moved(step)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("base, kind, scale", [
        ("computational", "none", 0.0),
        ("computational", "shrink", 0.5),
        ("computational", "rotate", 0.5),
        ("computational", "rotate", 2.0),
        ("product", "none", 0.0),
        ("product", "rotate", 0.5),
        ("product", "rotate", 2.0),
        ("haar", "none", 0.0),
        ("haar", "rotate", 0.5),
        ("haar", "rotate", 2.0),
        ("haar", "unrelated", 0.0),
    ])
    def test_settings_equal_matches_the_matching_loop(self, m, base, kind, scale):
        """``settings_equal`` against the bare entrywise matching, on settings with
        and without vectors: phase flips and outcome permutations keep a setting,
        an entrywise change of 0.5 SETTING_TOL keeps it and one of 2 SETTING_TOL does not."""
        for seed in range(4):
            rng = np.random.default_rng([m, seed, 41])
            a = self.base_setting(base, m, rng)
            if kind == "unrelated":
                b, expected = random_rank1_setting(m, rng), False
            else:
                phases = np.exp(2j * np.pi * rng.integers(0, 8, a.dim) / 8)
                vectors = (a.vectors * phases[:, None])[rng.permutation(a.dim)]
                if kind != "none":
                    vectors = self.perturbed(vectors, kind, scale)
                b = MeasurementSetting("b", m, a.outcomes, vectors=vectors)
                expected = scale < 1.0
            for x, y in ((a, b), (b, a)):
                assert loop_settings_equal(x, y) == expected
                assert settings_equal(x, y) == expected
            # settings without vectors: rank-2 projectors summed in pairs
            coarse = [
                MeasurementSetting("c", m, tuple(a.outcomes[::2]),
                                   projectors=s.projectors.reshape(-1, 2, a.dim, a.dim).sum(1))
                for s in (a, b)
            ]
            assert coarse[0].vectors is None or m == 1
            for x, y in ((coarse[0], coarse[1]), (a, coarse[1]), (coarse[0], b)):
                assert settings_equal(x, y) == loop_settings_equal(x, y)

    def test_protocol_rejects_identical_settings(self):
        with pytest.raises(ValidationError):
            SteeringProtocol(alice_qubits=1, setting_1=tensor_setting("z"),
                             setting_2=tensor_setting("z"))

    def test_protocol_rejects_alice_taking_everything(self):
        with pytest.raises(DimensionError):
            tensor_protocol("z", "x", n_qubits=1)

    def test_random_setting_valid_and_deterministic(self):
        a = random_rank1_setting(2, np.random.default_rng(42))
        b = random_rank1_setting(2, np.random.default_rng(42))
        assert completeness_gap(a) < 1e-10
        for pa, pb in zip(a.projectors, b.projectors):
            np.testing.assert_array_equal(pa, pb)

    @pytest.mark.parametrize("build", [
        lambda: random_rank1_setting(40, np.random.default_rng(0)),
        lambda: computational_family(40),
        lambda: tensor_setting("z" * 40),
    ], ids=["random_rank1_setting", "computational_family", "tensor_setting"])
    def test_constructors_check_the_cap_before_allocating(self, build):
        # 2**40 rows would not fit: the cap is checked before any array exists
        with pytest.raises(DimensionError, match="40 qubits exceed the configured dimension cap"):
            build()


class TestJsonRoundTrip:
    def test_tensor_pauli_round_trip(self):
        s = tensor_setting("yx")
        back = load_measurement(json.dumps(save_measurement(s)))
        assert settings_equal(s, back)

    def test_projectors_round_trip(self):
        s = random_rank1_setting(1, np.random.default_rng(7))
        back = load_measurement(save_measurement(s))
        assert settings_equal(s, back)

    def test_bell_like_computational_round_trip(self):
        s = bell_like_setting(
            BellLikeBasis(0.37, computational_family(2), family_label="computational")
        )
        doc = save_measurement(s)
        assert doc["type"] == "bell_like"
        assert doc["phi_family"] == "computational"
        back = load_measurement(doc)
        assert settings_equal(s, back)
        assert back.bell_like is not None
        assert back.bell_like.beta == pytest.approx(0.37)

    def test_bell_like_explicit_family_round_trip(self):
        e = np.eye(4, dtype=complex)
        fam = ((e[0], e[3]), (e[1], e[2]))
        s = bell_like_setting(BellLikeBasis(0.9, fam))
        back = load_measurement(save_measurement(s))
        assert settings_equal(s, back)

    def test_protocol_round_trip(self):
        p = tensor_protocol("zz", "yx", n_qubits=4)
        back = load_protocol(json.dumps(save_protocol(p)))
        assert back.alice_qubits == 2
        assert settings_equal(p.setting_1, back.setting_1)
        assert settings_equal(p.setting_2, back.setting_2)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ('{"type": "tensor_pauli"}', "axes"),
            ('{"type": "tensor_pauli", "axes": "q"}', "axes"),
            ('{"type": "bell_like"}', "beta"),
            ('{"type": "unknown"}', "type"),
        ],
    )
    def test_measurement_parse_errors(self, doc, fragment):
        with pytest.raises(ParseError) as err:
            load_measurement(doc)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("norm", [1 + 5e-9, 1.1])
    def test_vectors_the_setting_rejects_name_their_path(self, norm):
        """Off-norm vectors, 5e-9 (once past the parser) or 0.1, fail at their JSON path."""
        doc = {"type": "projectors", "vectors": [[[norm, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        with pytest.raises(ParseError, match=r"^setting_1\.vectors: vectors do not resolve"):
            load_measurement(doc, "setting_1")
        with pytest.raises(ParseError, match=r"^vectors: vectors do not resolve"):
            load_measurement(doc)

    def test_protocol_parse_error_path(self):
        doc = {"alice_qubits": 1, "setting_1": {"type": "tensor_pauli", "axes": "z"}}
        with pytest.raises(ParseError) as err:
            load_protocol(doc)
        assert "setting_2" in str(err.value)


@pytest.mark.parametrize(
    "with_projectors, with_vectors",
    [(True, True), (True, False), (False, True)],
    ids=["vectors", "bare", "vectors-only"],
)
def test_setting_keeps_its_own_read_only_arrays(with_projectors, with_vectors):
    """Writing into the caller's arrays does not reach the setting, nor can the setting be written."""
    source = tensor_setting("z")
    projectors = np.array(source.projectors) if with_projectors else None
    vectors = np.array(source.vectors) if with_vectors else None
    setting = MeasurementSetting("z", 1, ("0", "1"), projectors, vectors)
    kept = setting.projectors.tobytes(), setting.vectors.tobytes()
    if with_projectors:
        projectors[0, 0, 0] = 5
    if with_vectors:
        vectors[0, 0] = 5
    assert (setting.projectors.tobytes(), setting.vectors.tobytes()) == kept
    with pytest.raises(ValueError, match="read-only"):
        setting.projectors[0, 0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        setting.vectors[0, 0] = 5
