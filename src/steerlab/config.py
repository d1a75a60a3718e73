"""Default numerical tolerances and limits, overridable per call or via Tolerances."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ValidationError

# matrix / vector checks
HERMITICITY_TOL = 1e-10
WEIGHT_TOL = 1e-10

# classification thresholds
PURITY_TOL = 1e-8
PHASE_TOL = 1e-8
PROB_FLOOR = 1e-10
MARGINAL_TOL = 1e-9
RANK_TOL = 1e-9

# feasibility solver
LP_FEASIBILITY_TOL = 1e-9
LP_MAX_ITERATIONS = 10**6

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
    rank: float = RANK_TOL
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
