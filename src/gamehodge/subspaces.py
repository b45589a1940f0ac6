"""Explicit bases and dimension accounting for the game subspaces.

Closed-form dimension formulas are checked two ways.  The potential,
harmonic and nonstrategic components are complementary orthogonal
projectors on the space of games, and the trace of a projector is its rank,
so :func:`empirical_dims` reads each dimension off the diagonal of the
decomposition kernel applied to the unit games, with no rank threshold.
The zero-sum / identical-interest table ranks two explicit spans, the
potential games and the harmonic games: the nonstrategic subspace and the
two-player harmonic subspace have explicit bases, while the potential span
is generated from seeded random potentials ``phi`` as the potential
components ``(P_1 phi, P_2 phi)`` (which span the subspace almost surely),
with no decomposition and no Laplacian solve; each intersection is a rank
drop under the complementary projection.  Its all-games row is exact by
construction and ranks nothing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .decompose import _decompose_batch
from .errors import NumericError, _check_size
from .game import (
    Game, _check_tol, _checked_counts, _demean, _payoff_scale, game_to_dict, is_normalized,
)

__all__ = [
    "numeric_rank",
    "SubspaceBasis",
    "SubspaceDims",
    "nonstrategic_basis",
    "harmonic_basis_2p",
    "subspace_dims",
    "empirical_dims",
    "zs_ii_intersection_dims",
    "verify_normalized_harmonic",
    "basis_export",
]

# the zero-sum / identical-interest table ranks spans of 2h^2 columns up to
# this; its largest matrix is the potential span, (h^2 + 2h + 5) x 2h^2, and
# that values-only SVD bounds the peak memory.  At h = 45, the largest h under
# the cap, the table took 6.1 s and 345 MB of peak RSS with one BLAS thread
# (2 CPUs, x86), and it runs within 512 MB of address space
RANK_AMBIENT_CAP = 4096
# empirical_dims runs the kernel on all M*n unit games of M*n entries each, so
# its work is capped in M * n^2 (32x32 is 2^21); the unit games go through
# the kernel _TRACE_CHUNK entries of each part array at a time
_TRACE_WORK_CAP = 1 << 24
_TRACE_CHUNK = 1 << 16


def numeric_rank(matrix: np.ndarray, tol: float = 1e-9) -> int:
    """Rank with singular values below ``tol`` times the largest treated as zero."""
    if matrix.size == 0:
        return 0
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > tol * svals[0]))


@dataclass(frozen=True)
class SubspaceBasis:
    """A list of games spanning one subspace of the space of games."""

    games: list[Game]
    tag: str
    strategy_counts: tuple[int, ...]
    element_tags: list[str]

    def matrix(self) -> np.ndarray:
        """Stack the basis games as rows of coordinates in R^(M * |E|)."""
        if not self.games:
            n = math.prod(self.strategy_counts) * len(self.strategy_counts)
            return np.zeros((0, n))
        return np.stack([g.utilities.ravel() for g in self.games])

    def __len__(self) -> int:
        return len(self.games)


def nonstrategic_basis(strategy_counts: Sequence[int]) -> SubspaceBasis:
    """Indicator basis of the games invisible to pairwise comparisons.

    For every player m and opponent profile, the game whose only nonzero
    payoffs give player m the value 1 on that opponent block.
    """
    counts = _checked_counts(strategy_counts)
    n = math.prod(counts)
    tags = [f"N[player={m},block={r}]" for m, h in enumerate(counts) for r in range(n // h)]
    return SubspaceBasis([Game(u, counts) for u in _nonstrategic_rows(counts)], "N", counts, tags)


def _nonstrategic_rows(counts: tuple[int, ...]) -> np.ndarray:
    """The payoffs of :func:`nonstrategic_basis`, in its order, as one (k, M, n) array."""
    n = math.prod(counts)
    rows = np.zeros((sum(n // h for h in counts), len(counts), n))
    start = 0
    for m, h in enumerate(counts):
        rest = n // h
        # block r is 1 on every own strategy at opponent profile r: (r, own, opponents)
        blocks = np.broadcast_to(np.eye(rest)[:, None, :], (rest, h, rest))
        others = tuple(c for k, c in enumerate(counts) if k != m)
        tensors = np.moveaxis(blocks.reshape((rest, h) + others), 1, 1 + m)
        rows[start:start + rest, m] = tensors.reshape(rest, n)
        start += rest
    return rows


def harmonic_basis_2p(h1: int, h2: int) -> SubspaceBasis:
    """Basis of the normalized harmonic two-player games.

    Element (i, j) places the 2x2 checkerboard ``[[1, -1], [-1, 1]]`` at
    position (i, j) of an otherwise zero matrix ``A`` and pays
    ``(h2 * A, -h1 * A)``; there are (h1-1)(h2-1) of them.
    """
    if h1 < 2 or h2 < 2:
        warnings.warn(
            "harmonic subspace is trivial when a player has fewer than 2 strategies",
            stacklevel=2,
        )
        return SubspaceBasis([], "H2p", (h1, h2), [])
    tags = [f"H[i={i},j={j}]" for i in range(h1 - 1) for j in range(h2 - 1)]
    games = [Game(u, (h1, h2)) for u in _harmonic_rows_2p(h1, h2)]
    return SubspaceBasis(games, "H2p", (h1, h2), tags)


def _harmonic_rows_2p(h1: int, h2: int) -> np.ndarray:
    """The payoffs of :func:`harmonic_basis_2p`, in its order, as one (k, 2, h1*h2) array.

    k = 0 when a player has fewer than 2 strategies.
    """
    k = max(h1 - 1, 0) * max(h2 - 1, 0)
    r = np.arange(k)
    i, j = np.divmod(r, max(h2 - 1, 1))
    a = np.zeros((k, h1, h2))
    a[r, i, j] = a[r, i + 1, j + 1] = 1.0
    a[r, i + 1, j] = a[r, i, j + 1] = -1.0
    return np.stack([h2 * a, -h1 * a], axis=1).reshape(k, 2, h1 * h2)


class SubspaceDims(NamedTuple):
    potential: int
    harmonic: int
    nonstrategic: int
    potential_games: int
    harmonic_games: int


def subspace_dims(strategy_counts: Sequence[int]) -> SubspaceDims:
    """Closed-form dimensions of the subspaces and the induced game classes.

    The three component subspaces add up to the full space dimension
    ``M * prod(h)``; the potential/harmonic *game* classes are the direct
    sums of the matching component with the nonstrategic subspace.
    """
    counts = _checked_counts(strategy_counts)
    m_players = len(counts)
    n = math.prod(counts)
    dim_n = sum(n // h for h in counts)
    dim_p = n - 1
    dim_h = (m_players - 1) * n - dim_n + 1
    return SubspaceDims(dim_p, dim_h, dim_n, dim_p + dim_n, dim_h + dim_n)


def empirical_dims(strategy_counts: Sequence[int], seed: int = 0) -> tuple[int, int, int]:
    """Measure (potential, harmonic, nonstrategic) dimensions as projector traces.

    The three parts are complementary orthogonal projectors, and the trace
    of a projector is its rank: ``dim = sum_k part(e_k)[k]`` over the
    ``M * n`` unit games ``e_k``.  The unit games go through the
    decomposition kernel a bounded batch at a time and only the diagonal
    entries are kept, so this reproduces :func:`subspace_dims` with no SVD
    and no rank threshold.  :class:`NumericError` is raised when a trace is
    not an integer to within rounding, when the three traces do not sum to
    ``M * n``, or when the potential part of one seeded random game is not
    left fixed by a second kernel call.  :class:`SizeError` is raised,
    before anything is allocated, above 2^24 unit-game entries, M * n^2.
    """
    counts = _checked_counts(strategy_counts)
    m_players = len(counts)
    n = math.prod(counts)
    ambient = m_players * n
    _check_size(ambient * n, "unit-game entries", _TRACE_WORK_CAP, "work cap")

    probe = np.random.default_rng(seed).uniform(-1.0, 1.0, size=ambient)
    step = max(1, _TRACE_CHUNK // ambient)
    traces = np.zeros(3)
    for start in range(0, ambient, step):
        k = np.arange(start, min(start + step, ambient))
        first = start == 0
        u = np.zeros((len(k) + first, ambient))
        u[k - start, k] = 1.0
        if first:
            u[-1] = probe
        parts = _decompose_batch(counts, u.reshape(-1, m_players, n))[1:4]
        traces += [part.reshape(-1, ambient)[k - start, k].sum() for part in parts]
        if first:
            fixed = parts[0][-1]

    dims = np.rint(traces)
    gap = float(np.abs(traces - dims).max())
    if gap > 64 * np.finfo(float).eps * ambient or dims.sum() != ambient:
        raise NumericError(
            f"projector traces {traces.tolist()} are not integers summing to {ambient}",
            residual=gap,
        )
    drift = float(np.abs(_decompose_batch(counts, fixed[None])[1][0] - fixed).max())
    if drift > 1e-9 * float(np.abs(fixed).max()):
        raise NumericError(
            f"potential part moved by {drift:.3e} under a second projection", residual=drift
        )
    return tuple(int(d) for d in dims)


@dataclass(frozen=True)
class IntersectionTable:
    """Zero-sum / identical-interest intersection dimensions for square bimatrix games."""

    h: int
    closed_form: dict
    computed: dict | None
    agrees: bool | None


def zs_ii_intersection_dims(h: int, seed: int = 0) -> IntersectionTable:
    """Dimensions of the zero-sum / identical-interest subspaces met with each game class.

    Both the closed-form table and the rank-computed one are returned; they
    must agree whenever the ambient dimension permits the rank computation.
    The zero-sum games Z = {(x, -x)} and the identical-interest games
    I = {(x, x)} are orthogonal complements, so for a class span A with rows
    ``(u1 | u2)``: ``dim(A & Z) = rank A - rank(u1 + u2)``,
    ``dim(A & I) = rank A - rank(u1 - u2)`` and ``dim(A & (Z + I)) = rank A``.
    The potential-games and harmonic-games spans and their two projections
    are each ranked once.  The potential games are the nonstrategic games
    plus the potential components ``(P_1 phi, P_2 phi)``, ``P_m`` being
    :func:`gamehodge.game.project_player`; ``seed`` draws ``dim P + 6``
    random potentials ``phi``, which span them almost surely.  The
    all-games row is exact by construction: Z and I each have dimension h^2
    and together fill the space, so nothing is ranked for it.  ``h`` follows the strategy-count rule: a whole number
    >= 1 of any numeric type, else :class:`ShapeError`.
    """
    counts = _checked_counts((h, h))
    h = counts[0]
    closed = {
        "potential_games": {"zero_sum": 2 * h - 1, "identical": h * h, "direct_sum": h * h + 2 * h - 1},
        "harmonic_games": {"zero_sum": h * h - 2 * h + 2, "identical": 1, "direct_sum": h * h + 1},
        "all_games": {"zero_sum": h * h, "identical": h * h, "direct_sum": 2 * h * h},
    }

    n = h * h
    ambient = 2 * n
    if ambient > RANK_AMBIENT_CAP:
        return IntersectionTable(h, closed, None, None)

    non = _nonstrategic_rows(counts)
    samples = subspace_dims(counts).potential + 6
    phi = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, n))
    potential = np.stack([_demean(counts, m, phi) for m in range(2)], axis=1)
    spans = {
        "potential_games": np.concatenate([non, potential]),
        "harmonic_games": np.concatenate([_harmonic_rows_2p(h, h), non]),
    }
    computed = {}
    for row, span in spans.items():
        rank = numeric_rank(span.reshape(-1, ambient))
        u1, u2 = span[:, 0], span[:, 1]
        computed[row] = {
            "zero_sum": rank - numeric_rank(u1 + u2),
            "identical": rank - numeric_rank(u1 - u2),
            "direct_sum": rank,
        }
    computed["all_games"] = {"zero_sum": n, "identical": n, "direct_sum": ambient}
    return IntersectionTable(h, closed, computed, computed == closed)


def verify_normalized_harmonic(game: Game, tol: float = 1e-9) -> bool:
    """Check the two defining identities of a normalized harmonic game.

    The strategy-count-weighted payoffs must cancel pointwise
    (``sum_m h_m u^m = 0``) and every player's payoffs must be blockwise
    mean-free, both to within ``tol * max|u|`` as in
    :func:`gamehodge.game.is_normalized`; ``tol`` must be >= 0.
    """
    _check_tol(tol)
    weighted = np.asarray(game.strategy_counts, dtype=float) @ game.utilities
    if np.abs(weighted).max(initial=0.0) > tol * _payoff_scale(game.utilities):
        return False
    return is_normalized(game, tol)


def basis_export(basis: SubspaceBasis) -> dict:
    """Serialize a basis: the games in the standard format plus a tag manifest."""
    return {
        "subspace": basis.tag,
        "strategy_counts": list(basis.strategy_counts),
        "manifest": list(basis.element_tags),
        "games": [game_to_dict(g) for g in basis.games],
    }
