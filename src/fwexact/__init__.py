"""Exact block-diagonalizing (Foldy-Wouthuysen) operators for
finite-dimensional arbitrary-spin Hamiltonians, stationary and Floquet.
"""

from .blockop import (
    BlockOperator,
    Metric,
    SplitHamiltonian,
    adjoint_m,
    even_part,
    odd_part,
    split,
)
from .eriksen import FWResult, eriksen_unitary, transform_stationary
from .errors import (
    DomainError,
    EigendecompositionError,
    FwExactError,
    MetricViolationError,
    SpectralGapError,
    StructureError,
)
from .floquet import (
    ExtendedOperator,
    FloquetReport,
    build_extended,
    central_odd_norm,
    central_window,
    demonstrate_nonevenness,
    lambda_capital,
    lambda_naive,
    transform_nonstationary,
)
from .matfun import SpectralDecomposition, decompose, sign_of
from .models import (
    ModelSpec,
    MODEL_CATALOG,
    TimePeriodicHamiltonian,
    dirac_1d,
    feshbach_villars,
    free_dirac,
    floquet_dirac_scalar,
    floquet_dirac_vector,
    grid_momenta,
    spectral_momentum,
)
from .tolerances import Tolerances
from .verify import (
    GeneratorResult,
    eriksen_unitary_alt,
    generator_from_lambda,
    verify_eriksen_identities,
)

__version__ = "0.1.0"

__all__ = [
    "BlockOperator",
    "DomainError",
    "EigendecompositionError",
    "ExtendedOperator",
    "FWResult",
    "FloquetReport",
    "FwExactError",
    "GeneratorResult",
    "Metric",
    "MetricViolationError",
    "MODEL_CATALOG",
    "ModelSpec",
    "SpectralDecomposition",
    "SpectralGapError",
    "SplitHamiltonian",
    "StructureError",
    "TimePeriodicHamiltonian",
    "Tolerances",
    "adjoint_m",
    "build_extended",
    "central_odd_norm",
    "central_window",
    "decompose",
    "demonstrate_nonevenness",
    "dirac_1d",
    "eriksen_unitary",
    "eriksen_unitary_alt",
    "even_part",
    "feshbach_villars",
    "free_dirac",
    "floquet_dirac_scalar",
    "floquet_dirac_vector",
    "generator_from_lambda",
    "grid_momenta",
    "lambda_capital",
    "lambda_naive",
    "odd_part",
    "sign_of",
    "spectral_momentum",
    "split",
    "transform_nonstationary",
    "transform_stationary",
    "verify_eriksen_identities",
]
