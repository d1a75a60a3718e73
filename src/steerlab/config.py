"""Default numerical tolerances and limits, overridable per call or via Tolerances."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ValidationError

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

# classification thresholds
PURITY_TOL = 1e-8
PHASE_TOL = 1e-8
PROB_FLOOR = 1e-10
MARGINAL_TOL = 1e-9
RANK_TOL = 1e-9

# feasibility solver
LP_FEASIBILITY_TOL = 1e-9
# candidate members: Hermitian and unit trace, and the Frobenius distance
# under which two fallback candidates count as one
CANDIDATE_TOL = 1e-8
# a member with a smaller weight takes the uniform response
LP_WEIGHT_FLOOR = 1e-12

DEFAULT_MAX_DIM = 4096


@dataclass(frozen=True)
class Tolerances:
    """Bundle of thresholds used by the certifier and the feasibility oracle.

    Every field defaults to the module-level constant of the same role, so a
    plain ``Tolerances()`` reproduces the documented behaviour and individual
    fields can be overridden for looser or tighter runs.
    """

    hermiticity: float = HERMITICITY_TOL
    purity: float = PURITY_TOL
    phase: float = PHASE_TOL
    prob_floor: float = PROB_FLOOR
    marginal: float = MARGINAL_TOL
    lp_feasibility: float = LP_FEASIBILITY_TOL

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not (value > 0.0):
                raise ValidationError(f"tolerance {name!r} must be positive, got {value!r}")


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
