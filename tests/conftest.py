"""Shared fixtures and independent brute-force oracles.

The helpers here recompute quantities along deliberately different code
paths than the library (explicit Kronecker products and block traces instead
of einsum contractions) so the tests cross-check real math, not the
implementation against itself.
"""

import numpy as np
import pytest

from steerlab import (
    SteeringProtocol,
    Tolerances,
    random_rank1_setting,
    settings_equal,
    tensor_protocol,
)
from steerlab.linalg import outer, phase_equal, principal_vector


def brute_conditional(rho, projector, n_qubits, alice_qubits):
    """Bob's unnormalized conditional state via full-matrix products.

    Applies (P ⊗ 1) to rho explicitly and traces Alice out by summing the
    d_B x d_B diagonal blocks.
    """
    d_a = 2**alice_qubits
    d_b = 2 ** (n_qubits - alice_qubits)
    big = np.kron(projector, np.eye(d_b)) @ rho
    out = np.zeros((d_b, d_b), dtype=complex)
    for t in range(d_a):
        out += big[t * d_b : (t + 1) * d_b, t * d_b : (t + 1) * d_b]
    return out


def _counted_vectors(cs, tols):
    return {
        label: principal_vector(op)
        for label, op in zip(cs.outcomes, cs.operators)
        if np.trace(op).real > tols.prob_floor
    }


def pairwise_duplicates(set1, set2, tols=Tolerances()):
    """(cross, within_1, within_2) coincidences by one phase_equal call per pair.

    Reference for the overlap-matrix check; the conditional states must be pure.
    """
    v1, v2 = _counted_vectors(set1, tols), _counted_vectors(set2, tols)

    def within(vecs):
        labels = list(vecs)
        return tuple(
            (a, b)
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
            if phase_equal(vecs[a], vecs[b], tols.phase)
        )

    cross = tuple((a, b) for a in v1 for b in v2 if phase_equal(v1[a], v2[b], tols.phase))
    return cross, within(v1), within(v2)


def pairwise_candidates(set1, set2, tols=Tolerances()):
    """Greedy phase_equal deduplication of the counted principal vectors, setting 1 first."""
    kept = []
    for cs in (set1, set2):
        for v in _counted_vectors(cs, tols).values():
            if not any(phase_equal(u, v, tols.phase) for u in kept):
                kept.append(v)
    return [outer(v) for v in kept]


def random_protocol(m_qubits, seed):
    rng = np.random.default_rng([seed, 17])
    s1 = random_rank1_setting(m_qubits, rng, label="s1")
    s2 = random_rank1_setting(m_qubits, rng, label="s2")
    while settings_equal(s1, s2):
        s2 = random_rank1_setting(m_qubits, rng, label="s2")
    return SteeringProtocol(alice_qubits=m_qubits, setting_1=s1, setting_2=s2)


@pytest.fixture
def zx_protocol():
    return tensor_protocol("z", "x", n_qubits=2)


@pytest.fixture
def zzyx_protocol():
    return tensor_protocol("zz", "yx", n_qubits=4)
