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
from .linalg import ComplexArray, as_complex, phase_coincidences
from .measurements import BellLikeBasis, computational_family
from .states import EnsembleState
from .steering import _branches

MULTI_SLOT = "multi-slot support"
PRODUCT_FORM = "product form"
COINCIDENT_PAIR = "coincident collapse pair"
SHARED_SLOT = "shared slot"

FamilyPairs = tuple[tuple[ComplexArray, ComplexArray], ...]


def _two_term(
    c: complex, s: complex, pair: tuple[ComplexArray, ComplexArray],
    eta_p: ComplexArray, eta_m: ComplexArray,
) -> ComplexArray:
    """c |pair plus>|eta+> + s |pair minus>|eta->, on the full n-qubit space."""
    plus, minus = pair
    return c * np.kron(plus, eta_p) + s * np.kron(minus, eta_m)


def _check_split(n_qubits: int, alice_qubits: int) -> None:
    """DimensionError unless Alice and Bob each hold at least one qubit."""
    if not 1 <= alice_qubits < n_qubits:
        raise DimensionError(f"alice_qubits must lie in [1, {n_qubits - 1}], got {alice_qubits}")


def _family_pairs(
    family: BellLikeBasis | Sequence[tuple[ComplexArray, ComplexArray]],
) -> FamilyPairs:
    if isinstance(family, BellLikeBasis):
        return family.pairs
    pairs = tuple((as_complex(p).ravel(), as_complex(m).ravel()) for p, m in family)
    if not pairs:
        raise ValidationError("family has no pairs")
    return pairs


@dataclass(frozen=True, eq=False)
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
        return _two_term(*self.coefficients[alpha], self.family[self.slots[alpha]],
                         *self.bob_pairs[alpha])


@dataclass(frozen=True, eq=False)
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
) -> TwoTermExtraction:
    """Try to rewrite every component in the one-slot two-term shape.

    Failures are returned as data, one (component, reason) pair each:
    components spread over several slots, components missing one of the two
    terms (product form), pairs whose Bob collapses coincide up to phase, and
    slots claimed by more than one component.  A slot or a term is present
    when its squared mass exceeds ``config.SUPPORT_TOL``.
    """
    pairs = _family_pairs(family)
    n = ensemble.n_qubits
    _check_split(n, alice_qubits)
    d_a = 2**alice_qubits
    d_b = 2 ** (n - alice_qubits)
    if pairs[0][0].shape[0] != d_a or 2 * len(pairs) != d_a:
        raise DimensionError(
            f"family covers {2 * len(pairs)} vectors of dim {pairs[0][0].shape[0]}, "
            f"expected {d_a} of dim {d_a}"
        )

    # projections[q, sign, alpha] = (<pair_q sign| (x) 1)|psi_alpha>, plus first
    terms = ensemble.vectors.reshape(ensemble.n_terms, d_a, d_b)
    projections = _branches(terms, np.reshape(pairs, (d_a, d_a)))
    projections = projections.reshape(len(pairs), 2, ensemble.n_terms, d_b)
    norms = np.linalg.norm(projections, axis=-1)
    support = np.sum(norms**2, axis=1) > config.SUPPORT_TOL
    multi = np.sum(support, axis=0) != 1
    alphas = np.arange(ensemble.n_terms)
    slots = np.argmax(support, axis=0)
    coefficients = norms[slots, :, alphas]
    product = ~multi & np.any(coefficients**2 <= config.SUPPORT_TOL, axis=1)
    two_term = alphas[~multi & ~product]
    bob = projections[slots[two_term], :, two_term] / coefficients[two_term, :, None]
    coincident = np.diagonal(phase_coincidences(bob.reshape(-1, d_b))[::2, 1::2])
    kept = two_term[~coincident]
    shared = np.bincount(slots[kept], minlength=len(pairs))[slots[kept]] > 1
    violations = sorted(
        [(int(a), MULTI_SLOT) for a in alphas[multi]]
        + [(int(a), PRODUCT_FORM) for a in alphas[product]]
        + [(int(a), COINCIDENT_PAIR) for a in two_term[coincident]]
        + [(int(a), SHARED_SLOT) for a in kept[shared]]
    )
    if violations:
        return TwoTermExtraction(form=None, violations=tuple(violations))
    form = TwoTermForm(
        n_qubits=n,
        alice_qubits=alice_qubits,
        family=pairs,
        weights=ensemble.weights,
        slots=tuple(int(q) for q in slots),
        coefficients=tuple((complex(sp), complex(sm)) for sp, sm in coefficients),
        bob_pairs=tuple((eta_p, eta_m) for eta_p, eta_m in bob),
    )
    return TwoTermExtraction(form=form, violations=())


def no_shared_component_check(form: TwoTermForm) -> bool:
    """True when no two components of the form coincide up to a global phase.

    Two coincide when ``phase_coincidences`` says so at
    ``config.REQUIREMENT_TOL``.  Forms produced by two_term_extract pass by
    construction (their slots are distinct, so the components are
    orthogonal); this is the standalone checker for hand-built forms.
    """
    vectors = np.array([form.component_vector(a) for a in range(form.n_components)])
    return not np.triu(phase_coincidences(vectors), 1).any()


def _distinct_vector(
    rng: np.random.Generator, dim: int, existing: list[ComplexArray]
) -> ComplexArray:
    """A Haar-random unit vector with overlap at most 0.999 with each of ``existing``."""
    while True:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = v / np.linalg.norm(v)
        if all(abs(np.vdot(u, v)) <= 0.999 for u in existing):
            return v


def _drawn_component(
    rng: np.random.Generator, pair: tuple[ComplexArray, ComplexArray], d_b: int,
    drawn: list[ComplexArray],
) -> ComplexArray:
    """A two-term component on ``pair`` from a mixing angle and two Bob vectors.

    The angle is drawn away from the product-form boundaries; each Bob
    vector is a ``_distinct_vector`` from ``drawn`` and joins it.
    """
    tau = rng.uniform(0.2, np.pi / 2 - 0.2)
    eta_p = _distinct_vector(rng, d_b, drawn)
    drawn.append(eta_p)
    eta_m = _distinct_vector(rng, d_b, drawn)
    drawn.append(eta_m)
    return _two_term(np.cos(tau), np.sin(tau), pair, eta_p, eta_m)


def max_rank_family(n_qubits: int, alice_qubits: int, seed: int) -> EnsembleState:
    """Random ensemble saturating the 2**(M-1) rank ceiling over the computational pairing.

    One two-term component per slot: mixing angles drawn away from the
    product-form boundaries, Bob collapse vectors Haar-drawn with every
    pairwise overlap capped at 0.999, Dirichlet weights bounded away from
    zero.  Certifying with two paired-basis settings over the same family
    (angle difference away from multiples of pi/2) yields PARADOX.
    """
    _check_split(n_qubits, alice_qubits)
    config.capped_dim(n_qubits)
    rng = np.random.default_rng(seed)
    pairs = computational_family(alice_qubits)
    d_b = 2 ** (n_qubits - alice_qubits)
    n_slots = len(pairs)
    drawn: list[ComplexArray] = []
    vectors = [_drawn_component(rng, pair, d_b, drawn) for pair in pairs]
    if n_slots == 1:
        return EnsembleState(n_qubits, (1.0,), tuple(vectors))
    weights = rng.dirichlet(np.ones(n_slots))
    while np.min(weights) < 1e-3:
        weights = rng.dirichlet(np.ones(n_slots))
    return EnsembleState(
        n_qubits, tuple(float(w) for w in weights / np.sum(weights)), tuple(vectors)
    )


def add_shared_slot_component(
    ensemble: EnsembleState, alice_qubits: int, seed: int
) -> EnsembleState:
    """Append one more two-term component on slot 0, which is already occupied.

    The result exceeds the rank ceiling and loses the paradox: the slot's
    conditional states become genuine mixtures.  Raises DimensionError
    unless Bob keeps at least one qubit.
    """
    _check_split(ensemble.n_qubits, alice_qubits)
    # keyed stream: plain default_rng(seed) would replay the exact draws
    # max_rank_family(…, seed) made and append a copy of component 0
    rng = np.random.default_rng([seed, 1])
    pair = computational_family(alice_qubits)[0]
    psi = _drawn_component(rng, pair, 2 ** (ensemble.n_qubits - alice_qubits), [])
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
