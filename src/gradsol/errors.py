"""Exception taxonomy shared across the engine."""


class GradsolError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(GradsolError):
    """Order/dimension outside the supported range, or malformed arguments."""


class SingularEvaluationError(GradsolError):
    """Division by a jet with zero constant term, or an elementary-function
    domain violation (sqrt/log of a non-positive constant term)."""


class InsufficientOrderError(GradsolError):
    """A derivative was requested beyond the order carried by a jet."""


class ProductOrderError(GradsolError):
    """A jet product was asked for above the order products run at."""


class UnsupportedDimensionError(GradsolError):
    """An operation was invoked below its minimum manifold dimension."""


class TensorShapeError(GradsolError):
    """Slot/valence misuse, e.g. tracing two slots of equal variance."""


class DomainError(GradsolError):
    """Point outside the chart box, or a degenerate metric at the point."""


class CriticalPointError(GradsolError):
    """Level-surface machinery invoked where the potential gradient vanishes."""


class HypothesisViolationError(GradsolError):
    """An operation's geometric hypothesis does not hold for the instance."""


class LevelPointError(GradsolError):
    """Root finding failed to locate enough points on a level surface."""


class ConsistencyError(GradsolError):
    """An internal two-path cross-check disagreed beyond tolerance."""


class ValidationError(GradsolError):
    """A soliton instance failed its certification residuals."""
