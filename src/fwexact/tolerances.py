"""Tolerance ladder used across the package.

Structural checks (grading, self-adjointness of inputs) sit at 1e-12,
operator-identity checks at 1e-10, generator cross-form agreements at
1e-9.  The spectral-gap cutoff and the arcsine clamp band have their own
knobs.  Every value can be overridden from the command line; library
functions take the relevant value as an explicit argument with these
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

TOL_STRUCT = 1e-12
TOL_IDENTITY = 1e-10
TOL_GENERATOR = 1e-9
GAP_TOL = 1e-8
EPS_CLAMP = 1e-10


@dataclass(frozen=True)
class Tolerances:
    tol_struct: float = TOL_STRUCT
    tol_identity: float = TOL_IDENTITY
    tol_generator: float = TOL_GENERATOR
    gap_tol: float = GAP_TOL
    eps_clamp: float = EPS_CLAMP

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"tolerance {f.name}={value} outside (0, 1)")
