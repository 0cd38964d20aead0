"""Exception types shared across the toolkit, and the exit codes.

Each concrete error derives from exactly one kind, whose ``prefix`` and
``exit_code`` are how the command line reports it: InvalidConfiguration
(exit 1), NumericalFailure (2) or CheckFailed (3).  ColdwaveError itself
reports ``error`` with exit 2.
"""

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


class ColdwaveError(Exception):
    """Base class for all toolkit errors."""
    prefix, exit_code = "error", EXIT_NUMERICAL


class InvalidConfiguration(ColdwaveError):
    """The input or configuration cannot be used."""
    prefix, exit_code = "invalid configuration", EXIT_INVALID


class NumericalFailure(ColdwaveError):
    """The computation broke down."""
    prefix, exit_code = "numerical failure", EXIT_NUMERICAL


class CheckFailed(ColdwaveError):
    """A condition that the run tests does not hold."""
    prefix, exit_code = "check failed", EXIT_CHECK_FAILED


class CyclotronResonance(NumericalFailure):
    """Requested frequency sits on (or too near) a cyclotron resonance,
    where the cold-plasma response diverges."""


class MissingElectrons(InvalidConfiguration):
    """Operation requires an electron species and none is present."""


class LengthMismatch(InvalidConfiguration):
    """Paired sequences have inconsistent lengths."""


class DegenerateQuartic(NumericalFailure):
    """Both leading dispersion coefficients vanish; no finite root."""


class BracketTooWide(NumericalFailure):
    """A frequency bracket could not be subdivided around its poles."""


class SingularCoefficient(NumericalFailure):
    """Leading ODE coefficient vanishes inside the integration interval."""


class LayeredNotConverged(NumericalFailure):
    """The plane-layered quadrature cannot meet its tolerance within the
    allowed number of cells or above the rounding of its phase."""


class StartNotHyperbolic(NumericalFailure):
    """Characteristic tracing must start strictly inside the hyperbolic
    region."""


class SpecInvalid(InvalidConfiguration):
    """Multiplier specification violates its admissibility constraints."""


class InadmissibleBoundary(CheckFailed):
    """Boundary sign conditions for the mixed problem do not hold."""


class FactorizationFailure(NumericalFailure):
    """A grid solve failed: the matrix, factor or solution is non-finite,
    or the LSMR fallback for a singular factor did not converge."""


class GridTooLarge(NumericalFailure):
    """The fill model puts a grid solve's sparse factor above the memory
    budget; raised before anything is assembled."""


class InsufficientLevels(InvalidConfiguration):
    """Diagnostic needs at least three refinement levels."""
