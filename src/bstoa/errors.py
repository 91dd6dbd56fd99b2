"""Exception types shared across the package."""


class BstoaError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(BstoaError, ValueError):
    """Input array shapes are inconsistent with the declared topology."""


class ConstraintViolated(BstoaError, ValueError):
    """Delay matrix does not satisfy the topology constraint."""


class WrongTopology(BstoaError, ValueError):
    """Operation called with the other topology kind."""


class ConfigInvalid(BstoaError, ValueError):
    """A sweep configuration or scene record failed validation."""


class UnderDetermined(BstoaError, ValueError):
    """Too few measurements for a 3D position fix."""


class SingularGeometry(BstoaError, ArithmeticError):
    """Anchor placement is degenerate; the fix is not unique."""


class NonFiniteInput(BstoaError, ValueError):
    """Input holds NaN or infinite values, or values that overflow in use."""


class InvalidValue(BstoaError, ValueError):
    """A scalar argument is outside its valid range."""
