"""Exception types shared across the toolkit."""


class TomographyError(Exception):
    """Base class for all toolkit errors."""


class CapacityError(TomographyError):
    """Requested dimension exceeds the configured maximum."""


class DimensionError(TomographyError):
    """Mismatched or invalid matrix/vector dimensions."""


class DegenerateParameterError(TomographyError):
    """Parameter vector too close to zero to define a state."""


class BoundaryStateError(TomographyError):
    """State is singular/indefinite; it lies outside the relative interior."""


class IncompleteMeasurementsError(TomographyError):
    """Measurement set is not informationally complete (rank-deficient system)."""


class NumericalError(TomographyError):
    """Non-finite values or a failed matrix factorization/eigensolve."""


class SchemaError(TomographyError):
    """Malformed record or report document."""


class AllRunsFailedError(TomographyError):
    """Every multistart run was discarded by the stationarity screen."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []
