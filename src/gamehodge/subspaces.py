"""Explicit bases and dimension accounting for the game subspaces.

Closed-form dimension formulas are checked against numeric ranks of spanning
sets: the nonstrategic subspace and the two-player harmonic subspace have
explicit bases, while potential spans are generated from the potential
components of seeded random games (which spans the subspace almost surely).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .decompose import _decompose_batch
from .errors import ShapeError, SizeError
from .game import Game, _checked_counts, game_to_dict, is_normalized

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

RANK_AMBIENT_CAP = 4096


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
    counts = tuple(int(h) for h in strategy_counts)
    m_players = len(counts)
    n = math.prod(counts)
    games, tags = [], []
    for m, h in enumerate(counts):
        rest = n // h
        for r in range(rest):
            block = np.zeros((h, rest))
            block[:, r] = 1.0
            tensor = np.moveaxis(
                block.reshape((h,) + tuple(c for k, c in enumerate(counts) if k != m)),
                0,
                m,
            )
            u = np.zeros((m_players, n))
            u[m] = tensor.ravel()
            games.append(Game(u, counts))
            tags.append(f"N[player={m},block={r}]")
    return SubspaceBasis(games, "N", counts, tags)


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
    games, tags = [], []
    for i in range(h1 - 1):
        for j in range(h2 - 1):
            a = np.zeros((h1, h2))
            a[i, j] = a[i + 1, j + 1] = 1.0
            a[i + 1, j] = a[i, j + 1] = -1.0
            games.append(Game.from_payoff_matrices(h2 * a, -h1 * a))
            tags.append(f"H[i={i},j={j}]")
    return SubspaceBasis(games, "H2p", (h1, h2), tags)


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
    counts = _checked_counts(map(int, strategy_counts))
    m_players = len(counts)
    n = math.prod(counts)
    dim_n = sum(n // h for h in counts)
    dim_p = n - 1
    dim_h = (m_players - 1) * n - dim_n + 1
    return SubspaceDims(dim_p, dim_h, dim_n, dim_p + dim_n, dim_h + dim_n)


def empirical_dims(strategy_counts: Sequence[int], seed: int = 0) -> tuple[int, int, int]:
    """Measure (potential, harmonic, nonstrategic) dimensions by numeric rank.

    Draws ``M * n + 8`` seeded random games as one (samples, M, n) array,
    decomposes them in one batched pass and ranks the stacked component
    coordinates; this reproduces :func:`subspace_dims` almost surely.
    """
    counts = tuple(int(h) for h in strategy_counts)
    m_players = len(counts)
    n = math.prod(counts)
    ambient = m_players * n
    if ambient > RANK_AMBIENT_CAP:
        raise SizeError(f"ambient dimension {ambient} exceeds {RANK_AMBIENT_CAP}")
    samples = ambient + 8

    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, m_players, n))
    _, pot, harm, non = _decompose_batch(counts, u)
    return tuple(
        numeric_rank(part.reshape(samples, ambient)) for part in (pot, harm, non)
    )


@dataclass(frozen=True)
class IntersectionTable:
    """Zero-sum / identical-interest intersection dimensions for square bimatrix games."""

    h: int
    closed_form: dict
    computed: dict | None
    agrees: bool | None


def zs_ii_intersection_dims(h: int, seed: int = 0) -> IntersectionTable:
    """Dimensions of the zero-sum / identical-interest subspaces met with each game class.

    Both the closed-form table and the rank-computed one (via
    ``dim(A & B) = dim A + dim B - dim(A + B)`` on explicit spans) are
    returned; they must agree whenever the ambient dimension permits the
    rank computation.  Each span and each stacked pair is ranked once.
    """
    if h < 1:
        raise ShapeError("h must be >= 1")
    closed = {
        "potential_games": {"zero_sum": 2 * h - 1, "identical": h * h, "direct_sum": h * h + 2 * h - 1},
        "harmonic_games": {"zero_sum": h * h - 2 * h + 2, "identical": 1, "direct_sum": h * h + 1},
        "all_games": {"zero_sum": h * h, "identical": h * h, "direct_sum": 2 * h * h},
    }

    counts = (h, h)
    n = h * h
    ambient = 2 * n
    if ambient > RANK_AMBIENT_CAP:
        return IntersectionTable(h, closed, None, None)

    eye = np.eye(n)
    span_z = np.hstack([eye, -eye])
    span_i = np.hstack([eye, eye])

    non = nonstrategic_basis(counts).matrix()
    harm = np.vstack([harmonic_basis_2p(h, h).matrix(), non]) if h >= 2 else non

    dims = subspace_dims(counts)
    samples = dims.potential + 6
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, 2, n))
    pot = np.vstack([non, _decompose_batch(counts, u)[1].reshape(samples, ambient)])

    rows = {"potential_games": pot, "harmonic_games": harm, "all_games": np.eye(ambient)}
    cols = {"zero_sum": span_z, "identical": span_i, "direct_sum": np.vstack([span_z, span_i])}
    col_ranks = {col: numeric_rank(span) for col, span in cols.items()}
    computed = {}
    for row, span in rows.items():
        rank = numeric_rank(span)
        # dim(A & B) = dim A + dim B - dim(A + B)
        computed[row] = {
            col: rank + col_ranks[col] - numeric_rank(np.vstack([span, other]))
            for col, other in cols.items()
        }
    return IntersectionTable(h, closed, computed, computed == closed)


def verify_normalized_harmonic(game: Game, tol: float = 1e-9) -> bool:
    """Check the two defining identities of a normalized harmonic game.

    The strategy-count-weighted payoffs must cancel pointwise
    (``sum_m h_m u^m = 0``) and every player's payoffs must be blockwise
    mean-free.
    """
    weighted = np.zeros(game.num_profiles)
    for m, h in enumerate(game.strategy_counts):
        weighted += h * game.utilities[m]
    if np.abs(weighted).max(initial=0.0) > tol:
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
