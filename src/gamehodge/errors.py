"""Exception types shared across the package."""


class GameHodgeError(Exception):
    """Base class for all errors raised by this package."""


class GameFormatError(GameHodgeError):
    """Malformed game data: bad JSON schema, length mismatch, non-finite payoffs."""


class ShapeError(GameHodgeError):
    """Operation applied to a game of an unsupported shape."""


class PreconditionError(GameHodgeError):
    """Input violates a documented precondition of the operation."""


class SizeError(GameHodgeError):
    """Requested work exceeds a documented size cap.

    Raised before anything is allocated: a game graph, or the triangle arrays
    of ``curl`` and ``GameGraph.triangles()``, above the edge cap, a
    projector-trace dimension count above its M * n^2 work cap, a Pareto scan
    of three or more players above its n^2 (M - 1) work cap, or a stacked
    correlated system (three or more players) above its cap of 2^24 entries.
    """


class NumericError(GameHodgeError):
    """A numeric result failed its residual check against the requested tolerance, or overflowed."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
