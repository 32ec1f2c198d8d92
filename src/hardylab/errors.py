"""Exception taxonomy shared across the package.

Every domain failure derives from :class:`HardyLabError` so the CLI can map it
to exit code 2 with a machine-readable payload; I/O and format problems stay
ordinary ``OSError``/``ValueError`` (exit code 1).
"""


class HardyLabError(Exception):
    """Base class for domain errors."""

    def payload(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class NotAnalytic(HardyLabError):
    """Boundary data carries anti-analytic energy beyond the leak tolerance."""


class PointOnBoundary(HardyLabError):
    """Disc evaluation requested too close to the unit circle."""


class ZeroFunction(HardyLabError):
    """The operation is undefined for (numerically) identically-zero input."""


class UnboundedLogData(HardyLabError):
    """Too many log-modulus samples sit at the clip floor to trust quadrature."""


class SingularPoint(HardyLabError):
    """Evaluation exactly at the singular point of an inner factor."""


class NormExceeded(HardyLabError):
    """Peak construction needs sup-norm at most one."""


class RangeMiss(HardyLabError):
    """No boundary value comes within tolerance of the required peak value."""


class HypothesisFailed(HardyLabError):
    """A conditional check was invoked with its hypotheses violated."""


class NotCertified(HardyLabError):
    """Membership queries need an ideal with a passing certificate."""


class StrategyInapplicable(HardyLabError):
    """The requested certification strategy cannot structurally apply."""


class UnknownExample(HardyLabError):
    """Requested name is not in the reproduction registry."""
