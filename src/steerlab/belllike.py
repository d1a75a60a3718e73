"""Structural analysis of ensembles against a paired-basis measurement family.

A state family built over a vector pairing admits the certified 2-vs-1 gap
exactly when every ensemble component is a two-term combination

    |psi_alpha> = s+ |pair_q plus>|eta+>  +  s- |pair_q minus>|eta->

with both terms present, distinct Bob collapses within the pair, and no two
components sharing a slot q.  Since the slots of Alice's space number
2**(M-1), the component count (hence the state's rank) is capped by 2**(M-1).
This module extracts that form, builds random ensembles saturating the cap,
and checks that no two components coincide up to phase.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import DimensionError, ValidationError
from .linalg import ComplexArray, as_complex, phase_equal
from .measurements import BellLikeBasis, computational_family
from .states import EnsembleState

MULTI_SLOT = "multi-slot support"
PRODUCT_FORM = "product form"
COINCIDENT_PAIR = "coincident collapse pair"
SHARED_SLOT = "shared slot"

FamilyPairs = tuple[tuple[ComplexArray, ComplexArray], ...]


def _family_pairs(
    family: BellLikeBasis | Sequence[tuple[ComplexArray, ComplexArray]],
) -> FamilyPairs:
    if isinstance(family, BellLikeBasis):
        return family.pairs
    pairs = tuple((as_complex(p).ravel(), as_complex(m).ravel()) for p, m in family)
    if not pairs:
        raise ValidationError("family has no pairs")
    return pairs


@dataclass(frozen=True)
class TwoTermForm:
    """Ensemble rewritten as one two-term component per family slot.

    ``coefficients[alpha]`` holds (s+, s-) with |s+|^2 + |s-|^2 = 1 within
    1e-10; ``bob_pairs[alpha]`` the two unit Bob collapses.  Slot
    distinctness is a property of extraction, not of the container, so the
    standalone checker below stays meaningful for hand-built forms.
    """

    n_qubits: int
    alice_qubits: int
    family: FamilyPairs = field(repr=False)
    weights: tuple[float, ...] = ()
    slots: tuple[int, ...] = ()
    coefficients: tuple[tuple[complex, complex], ...] = ()
    bob_pairs: tuple[tuple[ComplexArray, ComplexArray], ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        n = len(self.weights)
        if n == 0 or {len(self.slots), len(self.coefficients), len(self.bob_pairs)} != {n}:
            raise ValidationError("form needs matching, non-empty component records")
        n_slots = len(self.family)
        for alpha, ((sp, sm), slot) in enumerate(zip(self.coefficients, self.slots)):
            if not 0 <= slot < n_slots:
                raise DimensionError(f"component {alpha} names slot {slot}, family has {n_slots}")
            if abs(abs(sp) ** 2 + abs(sm) ** 2 - 1.0) > config.NORM_TOL:
                raise ValidationError(
                    f"component {alpha} coefficients are not normalized"
                )

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def component_vector(self, alpha: int) -> ComplexArray:
        """Rebuild |psi_alpha> on the full n-qubit space."""
        slot = self.slots[alpha]
        sp, sm = self.coefficients[alpha]
        plus, minus = self.family[slot]
        eta_p, eta_m = self.bob_pairs[alpha]
        return sp * np.kron(plus, eta_p) + sm * np.kron(minus, eta_m)


@dataclass(frozen=True)
class TwoTermExtraction:
    """Result of two_term_extract: a form, or the per-component failures."""

    form: TwoTermForm | None
    violations: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return self.form is not None


def two_term_extract(
    ensemble: EnsembleState,
    family: BellLikeBasis | Sequence[tuple[ComplexArray, ComplexArray]],
    alice_qubits: int,
    support_tol: float = config.SUPPORT_TOL,
) -> TwoTermExtraction:
    """Try to rewrite every component in the one-slot two-term shape.

    Failures are returned as data, one (component, reason) pair each:
    components spread over several slots, components missing one of the two
    terms (product form), pairs whose Bob collapses coincide up to phase, and
    slots claimed by more than one component.
    """
    pairs = _family_pairs(family)
    n = ensemble.n_qubits
    if not 1 <= alice_qubits < n:
        raise DimensionError(f"alice_qubits must lie in [1, {n - 1}], got {alice_qubits}")
    d_a = 2**alice_qubits
    d_b = 2 ** (n - alice_qubits)
    if pairs[0][0].shape[0] != d_a or 2 * len(pairs) != d_a:
        raise DimensionError(
            f"family covers {2 * len(pairs)} vectors of dim {pairs[0][0].shape[0]}, "
            f"expected {d_a} of dim {d_a}"
        )

    violations: list[tuple[int, str]] = []
    slots: list[int] = []
    coeffs: list[tuple[complex, complex]] = []
    bob_pairs: list[tuple[ComplexArray, ComplexArray]] = []
    for alpha, psi in enumerate(ensemble.vectors):
        block = psi.reshape(d_a, d_b)
        projections = [
            (plus.conj() @ block, minus.conj() @ block) for plus, minus in pairs
        ]
        masses = [
            float(np.linalg.norm(p) ** 2 + np.linalg.norm(m) ** 2)
            for p, m in projections
        ]
        support = [i for i, mass in enumerate(masses) if mass > support_tol]
        if len(support) != 1:
            violations.append((alpha, MULTI_SLOT))
            continue
        slot = support[0]
        p_proj, m_proj = projections[slot]
        sp = float(np.linalg.norm(p_proj))
        sm = float(np.linalg.norm(m_proj))
        if sp**2 <= support_tol or sm**2 <= support_tol:
            violations.append((alpha, PRODUCT_FORM))
            continue
        eta_p, eta_m = p_proj / sp, m_proj / sm
        if phase_equal(eta_p, eta_m):
            violations.append((alpha, COINCIDENT_PAIR))
            continue
        slots.append(slot)
        coeffs.append((complex(sp), complex(sm)))
        bob_pairs.append((eta_p, eta_m))

    seen: dict[int, list[int]] = {}
    survivors = [a for a in range(ensemble.n_terms) if a not in {v[0] for v in violations}]
    for idx, alpha in enumerate(survivors):
        seen.setdefault(slots[idx], []).append(alpha)
    for slot, alphas in sorted(seen.items()):
        if len(alphas) > 1:
            violations.extend((alpha, SHARED_SLOT) for alpha in alphas)
    if violations:
        return TwoTermExtraction(form=None, violations=tuple(sorted(violations)))
    form = TwoTermForm(
        n_qubits=n,
        alice_qubits=alice_qubits,
        family=pairs,
        weights=ensemble.weights,
        slots=tuple(slots),
        coefficients=tuple(coeffs),
        bob_pairs=tuple(bob_pairs),
    )
    return TwoTermExtraction(form=form, violations=())


def no_shared_component_check(form: TwoTermForm, tol: float = config.REQUIREMENT_TOL) -> bool:
    """True when no two components of the form coincide up to a global phase.

    Forms produced by two_term_extract pass by construction (their slots are
    distinct, so the components are orthogonal); this is the standalone
    checker for hand-built forms.
    """
    vectors = [form.component_vector(a) for a in range(form.n_components)]
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if phase_equal(vectors[i], vectors[j], tol):
                return False
    return True


def _haar_vector(rng: np.random.Generator, dim: int) -> ComplexArray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _distinct_vector(
    rng: np.random.Generator, dim: int, existing: list[ComplexArray], cap: float = 0.999
) -> ComplexArray:
    while True:
        v = _haar_vector(rng, dim)
        if all(abs(np.vdot(u, v)) <= cap for u in existing):
            return v


def max_rank_family(n_qubits: int, alice_qubits: int, seed: int) -> EnsembleState:
    """Random ensemble saturating the 2**(M-1) rank ceiling over the computational pairing.

    One two-term component per slot: mixing angles drawn away from the
    product-form boundaries, Bob collapse vectors Haar-drawn with every
    pairwise overlap capped at 0.999, Dirichlet weights bounded away from
    zero.  Certifying with two paired-basis settings over the same family
    (angle difference away from multiples of pi/2) yields PARADOX.
    """
    if alice_qubits < 1:
        raise DimensionError(f"alice_qubits must be positive, got {alice_qubits}")
    if n_qubits <= alice_qubits:
        raise DimensionError(
            f"n_qubits={n_qubits} leaves Bob empty for alice_qubits={alice_qubits}"
        )
    config.capped_dim(n_qubits)
    rng = np.random.default_rng(seed)
    pairs = computational_family(alice_qubits)
    d_b = 2 ** (n_qubits - alice_qubits)
    n_slots = len(pairs)
    drawn: list[ComplexArray] = []
    vectors = []
    for slot in range(n_slots):
        tau = rng.uniform(0.2, np.pi / 2 - 0.2)
        eta_p = _distinct_vector(rng, d_b, drawn)
        drawn.append(eta_p)
        eta_m = _distinct_vector(rng, d_b, drawn)
        drawn.append(eta_m)
        plus, minus = pairs[slot]
        psi = np.cos(tau) * np.kron(plus, eta_p) + np.sin(tau) * np.kron(minus, eta_m)
        vectors.append(psi)
    if n_slots == 1:
        return EnsembleState(n_qubits, (1.0,), tuple(vectors))
    weights = rng.dirichlet(np.ones(n_slots))
    while np.min(weights) < 1e-3:
        weights = rng.dirichlet(np.ones(n_slots))
    return EnsembleState(
        n_qubits, tuple(float(w) for w in weights / np.sum(weights)), tuple(vectors)
    )


def add_shared_slot_component(
    ensemble: EnsembleState, alice_qubits: int, seed: int, slot: int = 0
) -> EnsembleState:
    """Append one more two-term component on an already occupied slot.

    The result exceeds the rank ceiling and loses the paradox: the slot's
    conditional states become genuine mixtures.
    """
    # keyed stream: plain default_rng(seed) would replay the exact draws
    # max_rank_family(…, seed) made and append a copy of component 0
    rng = np.random.default_rng([seed, 1])
    pairs = computational_family(alice_qubits)
    if not 0 <= slot < len(pairs):
        raise DimensionError(f"slot {slot} out of range for {alice_qubits} Alice qubits")
    d_b = 2 ** (ensemble.n_qubits - alice_qubits)
    tau = rng.uniform(0.2, np.pi / 2 - 0.2)
    eta_p = _haar_vector(rng, d_b)
    eta_m = _distinct_vector(rng, d_b, [eta_p])
    plus, minus = pairs[slot]
    psi = np.cos(tau) * np.kron(plus, eta_p) + np.sin(tau) * np.kron(minus, eta_m)
    extra = float(rng.uniform(0.2, 0.4))
    weights = tuple(w * (1.0 - extra) for w in ensemble.weights) + (extra,)
    return EnsembleState(ensemble.n_qubits, weights, np.vstack([ensemble.vectors, psi]))


__all__ = [
    "COINCIDENT_PAIR",
    "MULTI_SLOT",
    "PRODUCT_FORM",
    "SHARED_SLOT",
    "TwoTermExtraction",
    "TwoTermForm",
    "add_shared_slot_component",
    "max_rank_family",
    "no_shared_component_check",
    "two_term_extract",
]
