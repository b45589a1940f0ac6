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

    :func:`_check_size` compares one count, fixed by the strategy counts,
    with its cap before anything the count sizes is allocated, and raises
    ``"{what}: {count} exceed the {name} {cap}"`` above it:

    - ``flows.DEFAULT_EDGE_CAP``, 3x10^7 (``edge cap``): ``edges``
      (``GameGraph``) and ``triangles`` (``curl``, ``GameGraph.triangles()``);
    - ``equilibria.CORRELATED_SYSTEM_CAP``, 2^24 (``system cap``): the
      (sum_m h_m^2 + 1) n ``correlated system entries`` of M >= 3 players
      (``harmonic_correlated_system``, ``AffineSolutionSet.equalities``);
    - ``equilibria.PARETO_WORK_CAP``, 2^36 (``work cap``): the n^2 (M - 1)
      ``Pareto pair tests`` of M >= 3 players (``pareto_optimal``);
    - ``subspaces._TRACE_WORK_CAP``, 2^24 (``work cap``): the M n^2
      ``unit-game entries`` of ``empirical_dims``.
    """


def _check_size(size: int, what: str, cap: int, name: str) -> int:
    """``size``, or :class:`SizeError` when it exceeds ``cap``."""
    if size > cap:
        raise SizeError(f"{what}: {size} exceed the {name} {cap}")
    return size


class NumericError(GameHodgeError):
    """A numeric result failed its residual check against the requested tolerance, or overflowed."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
