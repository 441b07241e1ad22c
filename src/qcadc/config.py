"""Central numerical tolerances and dimension caps.

All engine modules read tolerances from a single record so that a run can
tighten or relax them coherently instead of scattering magic numbers.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Engine-wide numerical tolerances.

    channel: residual allowed in the Kraus completeness sum (sum K'K - 1).
    null:    relative threshold below which an eigenvalue counts as zero,
             measured against the max-column-sum norm of the generator.
    physical: diagnostic threshold for trajectory trace/hermiticity/positivity.
    """

    channel: float = 1e-12
    null: float = 1e-10
    physical: float = 1e-8


TOL = Tolerances()

# Dense superoperator matrices (4^N square) are refused above this dimension;
# sparse-only paths must be used instead.
DENSE_SUPEROP_CAP = 65536  # 4^8

# The one step builder of evolve (continuous runs, fixed-point search)
# takes a dense expm of the generator up to this dimension under method
# "auto", and Krylov above.
DENSE_EXPM_CAP = 4096  # 4^6

ENGINE_VERSION = "0.1.0"
