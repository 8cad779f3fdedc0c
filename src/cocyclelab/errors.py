"""Exception types shared by all modules."""


class CocycleLabError(Exception):
    """Base class for all library-specific errors."""


class CylinderMismatch(CocycleLabError):
    """Splice of two points that do not share the coordinate-0 symbol."""


class InadmissibleLoop(CocycleLabError):
    """Closing a word whose wrap-around pair violates the transition matrix."""


class ResourceLimit(CocycleLabError):
    """An enumeration or composition exceeded its configured cap."""


class InvalidExponent(CocycleLabError):
    """Regularity exponent outside (0, 1]."""


class NotDominated(CocycleLabError):
    """Operation requires a dominated cocycle but the domination margin is <= 0."""


class NotStablePair(CocycleLabError):
    """The two points do not share a forward tail."""


class NotUnstablePair(CocycleLabError):
    """The two points do not share a backward tail."""


class NoConvergence(CocycleLabError):
    """A limit did not settle within the iteration cap."""


class PeriodicDataMismatch(CocycleLabError):
    """Return compositions over periodic points disagree beyond tolerance."""


class MissingSample(CocycleLabError):
    """A transfer-map value was requested at a point that cannot be resolved."""


class InsufficientScales(CocycleLabError):
    """Regression input does not span enough distinct distance scales."""


class DistortionUnbounded(CocycleLabError):
    """Iterated Lipschitz constants grow through the tested horizon."""


class ConfigError(CocycleLabError):
    """Experiment configuration rejected; message names the offending field."""


class ParamError(CocycleLabError):
    """Fixture generator received unusable parameters."""
