"""Exception taxonomy.

Every error the package raises belongs to exactly one of the categories
below; the CLI maps each category to a documented exit code
(config -> 2, step size / CFL -> 3, linear solver -> 4, iteration -> 5).
A run that finishes without an error but whose summary reports a positivity
violation or an unconverged Picard slab exits with 6.
"""


class RHLabError(Exception):
    """Base class for all package errors."""


class ConfigError(RHLabError):
    """Invalid configuration, parameters, or structurally inconsistent inputs.

    Carries an optional list of ``(line, message)`` violations when raised
    by the config parser.
    """

    exit_code = 2

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


class ParameterError(ConfigError):
    """A scalar parameter is outside its admissible range."""


def raise_first_failure(rows) -> None:
    """Raise ParameterError with the message of the first failing row.

    A row is ``(field, failed, message)``: a constructor states each of its
    constraints once as a row, raises on the first that fails, and
    ``parse_config`` reports every failing row at the line of its field.
    """
    for _field, failed, message in rows:
        if failed:
            raise ParameterError(message)


class DomainError(ConfigError):
    """Field values outside the physical domain of an operation (e.g. rho < 0)."""


class ShapeError(ConfigError):
    """Array shape inconsistent with the grid or quadrature."""


class StepSizeError(RHLabError):
    """A CFL or step-size precondition was violated.  Never silently clamped."""

    exit_code = 3


class SolverError(RHLabError):
    """Linear solver failed to reach the required residual."""

    exit_code = 4

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IterationError(RHLabError):
    """Fixed-point iteration failed to converge after slab halving."""

    exit_code = 5

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
