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
    """Requested game graph has more edges than the edge cap allows."""


class NumericError(GameHodgeError):
    """A numeric result failed its residual check against the requested tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
