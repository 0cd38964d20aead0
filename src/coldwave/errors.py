"""Exception types shared across the toolkit."""


class ColdwaveError(Exception):
    """Base class for all toolkit errors."""


class CyclotronResonance(ColdwaveError):
    """Requested frequency sits on (or too near) a cyclotron resonance,
    where the cold-plasma response diverges."""


class MissingElectrons(ColdwaveError):
    """Operation requires an electron species and none is present."""


class LengthMismatch(ColdwaveError):
    """Paired sequences have inconsistent lengths."""


class DegenerateQuartic(ColdwaveError):
    """Both leading dispersion coefficients vanish; no finite root."""


class BracketTooWide(ColdwaveError):
    """A frequency bracket could not be subdivided around its poles."""


class SingularCoefficient(ColdwaveError):
    """Leading ODE coefficient vanishes inside the integration interval."""


class StartNotHyperbolic(ColdwaveError):
    """Characteristic tracing must start strictly inside the hyperbolic
    region."""


class DualNormSingular(ColdwaveError):
    """Dual-weighted norm requested for a field supported on cells that
    straddle the sonic curve."""


class SpecInvalid(ColdwaveError):
    """Multiplier specification violates its admissibility constraints."""


class InadmissibleBoundary(ColdwaveError):
    """Boundary sign conditions for the mixed problem do not hold."""


class FactorizationFailure(ColdwaveError):
    """A grid solve failed: the matrix, factor or solution is non-finite,
    or the LSMR fallback for a singular factor did not converge."""


class GridTooLarge(ColdwaveError):
    """The fill model puts a grid solve's sparse factor above the memory
    budget; raised before anything is assembled."""


class InsufficientLevels(ColdwaveError):
    """Diagnostic needs at least three refinement levels."""
