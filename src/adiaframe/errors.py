"""Exception taxonomy shared by all modules."""


class AdiaframeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AdiaframeError, ValueError):
    """Input fails a structural invariant (shape, hermiticity, normalization)."""


class NumericalError(AdiaframeError, ArithmeticError):
    """A numerical routine failed or produced an untrustworthy result."""


class StepSizeError(NumericalError):
    """Integrator step too large for the requested accuracy; retry with smaller dt."""


class DomainError(AdiaframeError, ValueError):
    """Requested evaluation point lies outside the mathematical domain."""


class ConfigError(ValidationError):
    """Scenario configuration is malformed or inconsistent."""

    def __init__(self, message, field=None, line=None, column=None):
        self.field = field
        self.line = line
        self.column = column
        prefix = ""
        if field is not None:
            prefix = f"config field '{field}': "
        elif line is not None:
            prefix = f"config line {line}, column {column}: "
        super().__init__(prefix + message)
