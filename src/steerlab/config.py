"""Numerical tolerances and limits.

Only ``REQUIREMENT_TOL`` is a per-call default; every other threshold is read
from this module where it is used.
"""

from __future__ import annotations

import os

from .errors import DimensionError, ValidationError

# matrix / vector checks
HERMITICITY_TOL = 1e-10
# ensemble weights sum to 1, a density operator has unit trace
WEIGHT_TOL = 1e-10
# state vectors and two-term coefficient pairs have unit norm
NORM_TOL = 1e-10
# a density operator's smallest eigenvalue may dip this far below 0
PSD_TOL = 1e-9
# a trace, a norm or a largest entry below this counts as zero
ZERO_FLOOR = 1e-14
# projective settings: Hermitian, idempotent, orthogonal, complete, unit-trace
# rank-1 projectors, orthonormal basis and family vectors, projector-set equality
SETTING_TOL = 1e-10
# entrywise gap between |v><v| and the projector a stored vector stands for
SETTING_VECTOR_TOL = 1e-9
# a collapsed branch with a smaller norm is empty
COLLAPSE_FLOOR = 1e-13
# a two-term slot with a smaller squared mass is absent
SUPPORT_TOL = 1e-10

# the two requirements: a conditional state is pure when |purity - 1| < this,
# and two are one state when 1 - |<u|v>| < this
REQUIREMENT_TOL = 1e-8
# an outcome with this probability or less is excluded from both requirements
PROB_FLOOR = 1e-10
# conditional states sum to Bob's marginal, and their traces to 1
MARGINAL_TOL = 1e-9
# an eigenvalue above this counts toward the rank
RANK_TOL = 1e-9

# feasibility solver
LP_FEASIBILITY_TOL = 1e-9
# candidate members: Hermitian and unit trace, and the Frobenius distance
# under which two fallback candidates count as one
CANDIDATE_TOL = 1e-8
# a member with a smaller weight takes the uniform response
LP_WEIGHT_FLOOR = 1e-12

DEFAULT_MAX_DIM = 4096


def max_dim() -> int:
    """Dimension cap for tensor products; env var STEERLAB_MAX_DIM overrides."""
    raw = os.environ.get("STEERLAB_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"STEERLAB_MAX_DIM must be an integer, got {raw!r}") from None
    if value < 2:
        raise ValidationError(f"STEERLAB_MAX_DIM must be at least 2, got {value}")
    return value


def capped_dim(n_qubits: int) -> int:
    """2**n_qubits, or DimensionError when that exceeds ``max_dim()``."""
    cap = max_dim()
    dim = 2**n_qubits
    if dim > cap:
        raise DimensionError(f"{n_qubits} qubits exceed the configured dimension cap {cap}")
    return dim
