"""Exception types shared across the package."""


class OparmaError(Exception):
    """Base class for all library errors."""


class SpecificationError(OparmaError):
    """An operator / model / noise specification is malformed."""


class DimensionMismatchError(SpecificationError):
    """Shapes of operators, vectors or models do not line up."""


class SingularOperatorError(OparmaError):
    """A linear system was singular or numerically singular.

    Raised e.g. when a resolvent is requested at (or too close to) a
    spectral point.  ``condition`` holds the estimated condition number
    when one is available.
    """

    def __init__(self, msg, condition=None):
        super().__init__(msg)
        self.condition = condition


class HyperbolicityError(OparmaError):
    """The spectrum meets the unit circle (within tolerance)."""


class QuadratureError(OparmaError):
    """A quadrature or iteration failed to converge within its cap."""


class WindowError(OparmaError):
    """A noise / path window is too short for the requested operation."""


class UnknownScenarioError(OparmaError):
    """Scenario name not present in the catalog."""
