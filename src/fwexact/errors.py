"""Exception hierarchy for structural, metric and spectral failures."""


class FwExactError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(FwExactError):
    """Shape, grading or block-structure violation (e.g. odd internal
    dimension, non-even mass operator, Fourier mode beyond truncation)."""


class MetricViolationError(FwExactError):
    """Operator is not self-adjoint under the requested metric."""


class EigendecompositionError(FwExactError):
    """Eigendecomposition unusable: broken pseudo-Hermiticity (complex
    spectrum where a real one is required) or an ill-conditioned
    eigenbasis."""


class SpectralGapError(FwExactError):
    """Spectrum touches zero, so the sign operator is undefined.  In the
    Floquet extended space this signals a quasienergy resonance.

    ``index`` is the stack position of the first matrix without a gap
    when a stack was checked, None for a single matrix.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class DomainError(FwExactError):
    """Matrix-function argument outside its domain: non-positive operand
    of a square root, arcsine argument beyond [-1, 1], or a degenerate
    denominator in the block-diagonalizing unitary."""
