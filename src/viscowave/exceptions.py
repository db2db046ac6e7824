"""Exception types raised across the toolkit."""


class ViscowaveError(Exception):
    """Base class for all toolkit errors."""


class InvalidGridError(ViscowaveError, ValueError):
    """Grid parameters violate the lattice contract (odd n, too small, bad length)."""


class ShapeMismatchError(ViscowaveError, ValueError):
    """Field arrays are not sized to their grid, or grids, state times or profile banks differ."""


class UnsupportedSymbolError(ViscowaveError, ValueError):
    """Unknown inequality or symbol-bound identifier."""


class InvalidExponentError(ViscowaveError, ValueError):
    """Lebesgue exponent outside [1, inf]."""


class UnsupportedOrderError(ViscowaveError, ValueError):
    """Time-derivative order above the implemented range (0..2)."""


class OutOfDomainError(ViscowaveError, ValueError):
    """Evaluation requested outside the formula's validity region."""


class QuadratureAccuracyError(ViscowaveError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class DivergenceError(ViscowaveError, ArithmeticError):
    """Blow-up guard tripped during time marching."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class NoContractionError(ViscowaveError, ArithmeticError):
    """Successive-substitution iteration failed to contract (data too large)."""


class UnsupportedNormError(ViscowaveError, ValueError):
    """Requested (derivative order, time order, exponent) outside the measured set."""


class DegenerateInputError(ViscowaveError, ValueError):
    """Nothing to measure: an inequality's right-hand side vanishes, or a report is empty."""


class FitError(ViscowaveError, ArithmeticError):
    """Series is unsuitable for the requested fit (non-monotone, too short)."""


class WindowError(ViscowaveError, ValueError):
    """Fit window too short or with too few points."""


class ConfigError(ViscowaveError, ValueError):
    """Harness configuration failed to parse or validate."""
