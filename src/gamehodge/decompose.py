"""Canonical decomposition of a game into potential + harmonic + nonstrategic.

Every finite game splits uniquely into three orthogonal pieces:

* a *potential part* whose flow is the gradient of a scalar potential,
* a *harmonic part* whose flow is divergence-free (and automatically
  curl-free, since game flows never circulate around 3-cliques),
* a *nonstrategic part* invisible to pairwise payoff comparisons.

The scalar potential solves ``Laplacian(phi) = sum_m h_m P_m u^m`` where
``P_m`` removes per-block own-strategy means; the parts are then read off as
``u_P^m = P_m phi``, ``u_H^m = P_m u^m - P_m phi`` and
``u_N^m = (I - P_m) u^m``, all in node space, so no game graph and no
edge-space array is ever built.  The maths is written once, in
``_decompose_batch``, over payoffs of shape (K, M, n): K games of one shape
go through one projection, one batched FFT solve and one projection back.
:func:`decompose` is its K = 1 case plus the residuals and the ``Game``
wrapping, and :mod:`gamehodge.subspaces` decomposes its random samples with
it in one call.

The membership tests (:func:`is_potential`, :func:`is_harmonic`,
:func:`potential_function`) measure against the norm of the normalised game
``u_P + u_H``, so they do not change when the payoffs are scaled or a
nonstrategic part is added; a game with no strategic part is both potential
and harmonic.

The residual diagnostics are node-space identities as well:

* ``harmonic_divergence`` is ``max |sum_m h_m u_H^m|``, the divergence of the
  harmonic flow, because ``P_m u_H^m = u_H^m``;
* ``curl`` is the star certificate ``max |X(a, b) - (X(0, b) - X(0, a))|``
  over each player's own-strategy differences ``X(a, b) = u^m(b, .) -
  u^m(a, .)``, which is zero exactly when the curl of the game flow is zero
  and bounds it within a factor of 3;
* ``reconstruction`` is the largest entry of ``u - (u_P + u_H + u_N)``;
* ``solver`` is the residual norm ``||b - Laplacian(phi)||`` of the solve,
  read off the same divergence: ``Laplacian(phi) = sum_m h_m u_P^m``, so
  the residual is ``sum_m h_m u_H^m`` and no second Laplacian is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ShapeError
from .flows import laplacian_pinv_solve, project_player
from .game import Game, game_to_dict

__all__ = [
    "Decomposition",
    "decompose",
    "decompose_bimatrix_normalized",
    "is_potential",
    "is_harmonic",
    "potential_function",
    "closest_potential",
    "closest_harmonic",
    "game_inner",
    "game_norm",
    "game_distance",
    "decomposition_to_dict",
]


@dataclass(frozen=True)
class Decomposition:
    """Result of :func:`decompose`.

    ``potential_part + harmonic_part + nonstrategic_part`` reconstructs the
    input; ``potential_fn`` is the mean-zero scalar potential of the
    potential part; ``residuals`` holds numeric diagnostics (reconstruction
    error, divergence of the harmonic flow, curl of the game flow, and the
    Laplacian solver residual).
    """

    potential_part: Game
    harmonic_part: Game
    nonstrategic_part: Game
    potential_fn: np.ndarray
    residuals: dict


def decompose(game: Game, tol: float = 1e-10) -> Decomposition:
    """Split a game into its potential, harmonic and nonstrategic parts."""
    counts = game.strategy_counts
    phi, u_pot, u_harm, u_non = (
        a[0] for a in _decompose_batch(counts, game.utilities[None], tol)
    )
    div = np.asarray(counts, dtype=float) @ u_harm  # = b - Laplacian(phi)
    residuals = {
        "reconstruction": float(
            np.abs(game.utilities - (u_pot + u_harm + u_non)).max(initial=0.0)
        ),
        "harmonic_divergence": float(np.abs(div).max(initial=0.0)),
        "curl": _star_curl_certificate(game),
        "solver": float(np.linalg.norm(div)),
    }
    return Decomposition(
        game.with_utilities(u_pot),
        game.with_utilities(u_harm),
        game.with_utilities(u_non),
        phi,
        residuals,
    )


def _decompose_batch(counts: tuple[int, ...], u: np.ndarray, tol: float = 1e-10):
    """Decompose K games of one shape at once: the maths of :func:`decompose`.

    ``u`` has shape (K, M, n), one payoff row per player of each game.
    Returns ``(phi, u_P, u_H, u_N)``: the potentials, shape (K, n), and the
    three parts, each (K, M, n).
    """
    h = np.asarray(counts, dtype=float)
    players = range(len(counts))
    proj = np.stack([project_player(counts, m, u[:, m]) for m in players], axis=1)
    u_non = u - proj
    b = h @ proj
    # b is orthogonal to constants by construction; its rounding-level mean
    # is dropped so that the solve's precondition, relative to ||b||, holds
    # even when b is all rounding (a harmonic game).
    b -= b.sum(axis=-1, keepdims=True) / b.shape[-1]
    phi = laplacian_pinv_solve(counts, b, tol=tol)
    u_pot = np.stack([project_player(counts, m, phi) for m in players], axis=1)
    proj -= u_pot
    return phi, u_pot, proj, u_non


def _star_curl_certificate(game: Game) -> float:
    """Largest ``|X(a, b) - (X(0, b) - X(0, a))|`` over every player's clique.

    ``X(a, b)`` is the game flow from own strategy ``a`` to ``b``; the
    quantity is zero exactly when every 3-clique circulation is, and it costs
    one pass over the edges with node-sized temporaries.  Rounded
    subtraction is antisymmetric, so the pairs ``a < b`` give the maximum,
    and the pairs with ``a = 0`` are zero by construction.
    """
    worst = 0.0
    for m in range(game.num_players):
        t = np.moveaxis(game.tensor(m), m, 0)
        star = t - t[0]  # X(0, b) for every b
        for a in range(1, t.shape[0] - 1):
            gap = (t[a + 1:] - t[a]) - (star[a + 1:] - star[a])
            worst = max(worst, float(np.abs(gap).max()))
    return worst


def decompose_bimatrix_normalized(A, B, tol: float = 1e-9):
    """Closed-form decomposition of a normalized square bimatrix game.

    With ``S = (A+B)/2``, ``Dm = (A-B)/2`` and
    ``G = (A 1 1^T - 1 1^T B) / (2h)`` the potential component is
    ``(S+G, S-G)`` and the harmonic component ``(Dm-G, -Dm+G)``.

    Requires both payoff matrices square of the same size ``h`` with
    ``1^T A = 0`` and ``B 1 = 0`` (run :func:`gamehodge.game.normalize`
    first otherwise).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ShapeError("closed form needs square payoff matrices of equal size")
    h = A.shape[0]
    scale = max(1.0, np.abs(A).max(), np.abs(B).max())
    if np.abs(A.sum(axis=0)).max() > tol * scale or np.abs(B.sum(axis=1)).max() > tol * scale:
        raise PreconditionError(
            "payoff matrices are not normalized; normalize the game first"
        )
    S = (A + B) / 2
    Dm = (A - B) / 2
    ones = np.ones((h, 1))
    Gamma = (A @ ones @ ones.T - ones @ ones.T @ B) / (2 * h)
    return S + Gamma, S - Gamma, Dm - Gamma, -Dm + Gamma


# -- inner product, norm and distance on games --------------------------------


def game_inner(game: Game, other: Game) -> float:
    """Inner product weighting each player's payoffs by its strategy count."""
    if game.strategy_counts != other.strategy_counts:
        raise ShapeError("games must share a shape")
    h = np.asarray(game.strategy_counts, dtype=float)
    return float(np.einsum("m,mi,mi->", h, game.utilities, other.utilities))


def game_norm(game: Game) -> float:
    return math.sqrt(max(game_inner(game, game), 0.0))


def game_distance(game: Game, other: Game) -> float:
    if game.strategy_counts != other.strategy_counts:
        raise ShapeError("games must share a shape")
    diff = game.with_utilities(game.utilities - other.utilities)
    return game_norm(diff)


# -- membership tests and projections ------------------------------------------


def _negligible(value: float, game: Game, d: Decomposition, tol: float) -> bool:
    """True iff ``value`` is within ``tol`` of the norm of the normalised game.

    The normalised game is ``u_P + u_H``, whose norm is the hypotenuse of the
    two parts' norms.  Measuring against it makes the membership tests
    independent of the payoff scale and of any nonstrategic part.  A game
    whose strategic part is itself within ``tol`` of its whole norm (so it is
    zero, or rounding left by removing a nonstrategic part) passes every test.
    """
    strategic = math.hypot(game_norm(d.potential_part), game_norm(d.harmonic_part))
    return value <= tol * strategic or strategic <= tol * game_norm(game)


def is_potential(game: Game, tol: float = 1e-9) -> bool:
    """True iff the harmonic part is negligible relative to the normalised game."""
    d = decompose(game)
    return _negligible(game_norm(d.harmonic_part), game, d, tol)


def is_harmonic(game: Game, tol: float = 1e-9) -> bool:
    """True iff the potential part is negligible relative to the normalised game."""
    d = decompose(game)
    return _negligible(game_norm(d.potential_part), game, d, tol)


def potential_function(game: Game, tol: float = 1e-9) -> np.ndarray | None:
    """Mean-zero exact potential of the game, or None if it has none.

    The candidate from :func:`decompose` is re-verified on every comparable
    pair: the potential difference must match the deviating player's payoff
    difference.  The largest mismatch over player ``m``'s pairs is the
    largest spread of ``u^m - phi`` along axis ``m``; it must be within
    ``tol`` times the norm of the normalised game.
    """
    d = decompose(game)
    phi_t = d.potential_fn.reshape(game.strategy_counts)
    mismatch = max(
        float(np.ptp(game.tensor(m) - phi_t, axis=m).max())
        for m in range(game.num_players)
    )
    return d.potential_fn if _negligible(mismatch, game, d, tol) else None


def closest_potential(game: Game) -> Game:
    """Orthogonal projection onto the potential games: drop the harmonic part."""
    d = decompose(game)
    return game.with_utilities(game.utilities - d.harmonic_part.utilities)


def closest_harmonic(game: Game) -> Game:
    """Orthogonal projection onto the harmonic games: drop the potential part."""
    d = decompose(game)
    return game.with_utilities(game.utilities - d.potential_part.utilities)


# -- JSON export ---------------------------------------------------------------


def decomposition_to_dict(d: Decomposition) -> dict:
    return {
        "potential": game_to_dict(d.potential_part),
        "harmonic": game_to_dict(d.harmonic_part),
        "nonstrategic": game_to_dict(d.nonstrategic_part),
        "phi": [float(v) for v in d.potential_fn],
        "residuals": {
            "reconstruction": d.residuals["reconstruction"],
            "harmonic_divergence": d.residuals["harmonic_divergence"],
            "curl": d.residuals["curl"],
        },
    }
