"""Exception hierarchy.

Validation errors (bad inputs, broken preconditions) and numerical errors
(legitimate computations that fail for mathematical reasons, e.g. flowing a
non-analytic curve) are kept in separate branches so the CLI can map them to
distinct exit codes.
"""


class TrgeoError(Exception):
    """Base class for all package errors."""


class ValidationError(TrgeoError):
    """Bad input or violated precondition."""


class NumericalError(TrgeoError):
    """A computation failed for a numerical/mathematical reason."""


class NotFinite(NumericalError):
    """A computed value is NaN, or not finite where it must be."""


class BadArgument(ValidationError):
    """A library argument that does not fit. The message starts with the
    argument's name and index, e.g. coeffs[2][0], so that a caller that read
    the argument from a scenario can name its path there."""


# --- ambient -------------------------------------------------------------

class PointOutsideDomain(ValidationError):
    pass


class MetricNotPositiveDefinite(NumericalError):
    pass


# --- immersion -----------------------------------------------------------

class NotImmersed(NumericalError):
    pass


class NotTotallyReal(NumericalError):
    pass


# --- curve lab -----------------------------------------------------------

class AliasingDetected(NumericalError):
    pass


class OrientationError(ValidationError):
    """Curve is clockwise (mirror) while the lab fixes anticlockwise data."""


class OutsideAnnulus(ValidationError):
    pass


class NotArclength(ValidationError):
    pass


# --- geodesic flow -------------------------------------------------------

class AmplificationExceeded(NumericalError):
    """Requested continuation grows spectral modes past the safety cap."""


class UnsupportedField(ValidationError):
    pass


class BlowUpDetected(NumericalError):
    """Time stepping aborted: spectral tail energy exceeded its budget."""

    def __init__(self, message, t_reached=None):
        super().__init__(message)
        self.t_reached = t_reached


class StepTooLarge(ValidationError):
    pass


class NotNested(ValidationError):
    pass


# --- cli -----------------------------------------------------------------

class ParseError(ValidationError):
    pass


class UnknownOperation(ValidationError):
    pass
