"""Exception types shared across the package."""


class GatelabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(GatelabError):
    """Run configuration is malformed (bad key, bad value, bad file)."""


class NonConvergence(GatelabError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class InsufficientPoints(GatelabError):
    """Not enough (or invalid) data points for a fit."""


class EigenFailure(GatelabError):
    """Dense symmetric eigensolver failed to converge."""


class UnstableSpectrum(GatelabError):
    """An operation that needs a stable spectrum received an unstable one."""


class NegativeOccupation(GatelabError, ValueError):
    """A thermal occupation is negative, not finite or of the wrong shape."""


class IndefiniteKernel(GatelabError):
    """The entangling-phase quadratic form has no positive direction."""


class CutoffInsufficient(GatelabError):
    """Number-state truncation leaks too much population at the top level."""


class StepFailure(GatelabError):
    """Adaptive integrator drove the step size below the useful floor."""
