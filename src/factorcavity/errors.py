"""Exception types shared across the package."""


class FactorCavityError(Exception):
    """Base class for package-specific failures."""


class AttemptsExhausted(FactorCavityError):
    """A rejection sampler hit its attempt cap without an accepted draw."""

    def __init__(self, what, attempts):
        super().__init__(f"{what}: no accepted draw within {attempts} attempts")
        self.attempts = attempts


class CapExceeded(FactorCavityError):
    """An exact enumeration would exceed its configured budget."""

    def __init__(self, what, needed, cap):
        super().__init__(f"{what}: {needed} terms exceed cap {cap}")
        self.needed = needed
        self.cap = cap


class NumericalUnderflow(FactorCavityError):
    """A normaliser underflowed to zero; the weights are pathological."""


class SymViolation(FactorCavityError):
    """A weight family does not have a constant marginal-sum constant."""


class AssumptionViolation(FactorCavityError):
    """A required model hypothesis failed."""

    def __init__(self, report):
        super().__init__(f"assumption {report.name} failed: {report.witness}")
        self.report = report


class ZeroMean(FactorCavityError):
    """A degree distribution with zero mean cannot be size-biased."""


class NoCrossing(FactorCavityError):
    """A threshold scan never found the functional above its comparator."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows or []


class ConfigError(FactorCavityError):
    """An experiment configuration failed validation."""


class GridTooCoarse(UserWarning):
    """Advisory: the simplex grid resolution is low for this alphabet."""
