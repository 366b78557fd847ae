"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario or numerology parameter is missing, malformed, or out of range."""

    def __init__(self, message, field=None):
        self.reason = message
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class DegenerateConstraintError(ValueError):
    """A constraint has no usable geometry (zero direction or zero bound)."""


class NumericalError(RuntimeError):
    """A numerical routine lost the structure it relies on (singular update, failed line search)."""
