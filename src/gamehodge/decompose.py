"""Canonical decomposition of a game into potential + harmonic + nonstrategic.

Every finite game splits uniquely into three orthogonal pieces:

* a *potential part* whose flow is the gradient of a scalar potential,
* a *harmonic part* whose flow is divergence-free (and automatically
  curl-free, since game flows never circulate around 3-cliques),
* a *nonstrategic part* invisible to pairwise payoff comparisons.

The scalar potential solves ``Laplacian(phi) = sum_m h_m P_m u^m`` where
``P_m`` is :func:`gamehodge.game.project_player`, which removes per-block
own-strategy means; the parts are then read off as
``u_P^m = P_m phi``, ``u_H^m = P_m u^m - P_m phi`` and
``u_N^m = (I - P_m) u^m``, all in node space, so no game graph and no
edge-space array is ever built.  The maths is written once, in
``_decompose_batch``, over payoffs of shape (K, M, n): K games of one shape
go through one projection, one batched FFT solve and one projection back.
Its K = 1 case, ``_parts``, is all that the membership tests and the
projections read; :func:`decompose` adds the residuals and the ``Game``
wrapping, and :mod:`gamehodge.subspaces` calls the kernel directly.

``_parts`` keeps the last game's parts in a one-slot cache keyed by the
identity of the (immutable) ``Game`` alone, so every public call on the same
game object after the first reuses one kernel run.  The slot is the pair
``(weak reference to the game, parts)``, the parts being read-only arrays;
it holds one game at a time and is emptied when that game is collected, so
it never keeps a game or its parts alive.  An equal game in another object
is a miss.

The membership tests (:func:`is_potential`, :func:`is_harmonic`,
:func:`potential_function`) measure against the norm of the normalised game
``u_P + u_H``, so they do not change when the payoffs are scaled or a
nonstrategic part is added; a game with no strategic part is both potential
and harmonic.

The residual diagnostics are node-space identities as well:

* ``harmonic_divergence`` is ``max |sum_m h_m u_H^m|``, the divergence of the
  harmonic flow, because ``P_m u_H^m = u_H^m``;
* ``curl`` is the largest circulation ``|X(0, a) + X(a, b) - X(0, b)|``
  around the triangles through each player's first own strategy, where
  ``X(a, b) = u^m(b, .) - u^m(a, .)``; it is zero exactly when the curl of
  the game flow is zero and bounds it within a factor of 3.  ``gamehodge
  verify`` walks the same triangles from every pivot for the whole curl,
  and reads its other flow identities off payoff spreads (``_spread``), so
  neither builds an array with one value per edge or triangle;
* ``reconstruction`` is the largest entry of ``u - (u_P + u_H + u_N)``;
* ``solver`` is ``||sum_m h_m u_H^m||``, the 2-norm of that divergence.  In
  exact arithmetic it equals the solve's residual ``||b - Laplacian(phi)||``,
  but it also carries the rounding of ``u_H = P_m u^m - u_P`` at the
  payoffs' scale: on the harmonic part of a random 20x20 game it reads
  1.4e-14 where ``||b - Laplacian(phi)||``, the residual that the kernel
  checks, is 3e-29.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ShapeError
from .flows import _SOLVE_TOL, _check_residual, _pinv_transform, _row_norms
from .game import Game, game_to_dict, project_player

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


def decompose(game: Game) -> Decomposition:
    """Split a game into its potential, harmonic and nonstrategic parts."""
    phi, u_pot, u_harm, u_non = _parts(game)
    div = np.asarray(game.strategy_counts, dtype=float) @ u_harm
    residuals = {
        "reconstruction": float(
            np.abs(game.utilities - (u_pot + u_harm + u_non)).max(initial=0.0)
        ),
        "harmonic_divergence": float(np.abs(div).max(initial=0.0)),
        "curl": _max_curl(game.strategy_counts, game.utilities, 1),
        "solver": float(np.linalg.norm(div)),
    }
    return Decomposition(
        game.with_utilities(u_pot),
        game.with_utilities(u_harm),
        game.with_utilities(u_non),
        phi.copy(),
        residuals,
    )


# (weakref to the game, parts) of the last _parts call, or None
_slot = None


def _parts(game: Game):
    """``(phi, u_P, u_H, u_N)`` of one game: the K = 1 call of the kernel.

    A repeat call with the same ``Game`` object returns the stored arrays,
    which are read-only; callers that hand one out copy it.  The slot holds
    one game, through a weak reference whose callback empties it when that
    game is collected.  A kernel call that raises stores nothing.
    """
    global _slot
    slot = _slot
    if slot is not None and slot[0]() is game:
        return slot[1]
    parts = tuple(a[0] for a in _decompose_batch(game.strategy_counts, game.utilities[None]))
    for a in parts:
        a.flags.writeable = False
    _slot = (weakref.ref(game, _release), parts)
    return parts


def _release(ref) -> None:
    """Empty the slot when its game is collected, unless it moved on.

    A store by another thread between the check and the clear is lost; that
    only makes a later call on that game miss.
    """
    global _slot
    slot = _slot
    if slot is not None and slot[0] is ref:
        _slot = None


def _decompose_batch(counts: tuple[int, ...], u: np.ndarray):
    """Decompose K games of one shape at once: the maths of :func:`decompose`.

    ``u`` has shape (K, M, n), one payoff row per player of each game.
    Returns ``(phi, u_P, u_H, u_N)``: the potentials, shape (K, n), and the
    three parts, each (K, M, n).  On a product of cliques ``Laplacian =
    sum_m h_m P_m``, so ``Laplacian(phi) = sum_m h_m u_P^m`` and the solve is
    checked with no second Laplacian: :class:`NumericError` when a game's
    ``||b - Laplacian(phi)||`` exceeds ``_SOLVE_TOL * ||b||``.
    """
    h = np.asarray(counts, dtype=float)
    players = range(len(counts))
    proj = np.stack([project_player(counts, m, u[:, m]) for m in players], axis=1)
    u_non = u - proj
    b = h @ proj
    # b is orthogonal to constants by construction; its rounding-level mean
    # is dropped, as the solve's transform expects
    b -= b.sum(axis=-1, keepdims=True) / b.shape[-1]
    phi = _pinv_transform(counts, b)
    u_pot = np.stack([project_player(counts, m, phi) for m in players], axis=1)
    _check_residual(_row_norms(b - h @ u_pot), _SOLVE_TOL * _row_norms(b))
    proj -= u_pot
    return phi, u_pot, proj, u_non


def _spread(counts: tuple[int, ...], rows) -> float:
    """Largest entry of the comparison flow of ``rows``, one node function per player.

    Row m's flow on player m's edges is ``r(b) - r(a)`` over own strategies
    with the opponents fixed; rounded subtraction is monotone, so its
    largest magnitude is exactly the spread ``max - min`` along axis m.
    """
    return max(
        (float(np.ptp(r.reshape(counts), axis=m).max()) for m, r in enumerate(rows)),
        default=0.0,
    )


def _max_curl(counts: tuple[int, ...], u: np.ndarray, pivots: int) -> float:
    """Largest ``|X(a, b) + X(b, c) - X(a, c)|`` over triangles with pivot ``a < pivots``.

    ``X(a, b) = u^m(b, .) - u^m(a, .)`` is the game flow on player m's
    clique, and the triangles are its own strategies ``a < b < c``.  The
    terms are the float operations of :func:`gamehodge.flows.curl` on
    :func:`gamehodge.flows.pairwise_comparison`, so walking every pivot
    gives that curl's exact maximum; pivot 0 alone gives the star triangles,
    zero exactly when every circulation is, within a factor of 3 of it.
    One (a, b) block of node-sized temporaries is held at a time.
    """
    worst = 0.0
    for m, h in enumerate(counts):
        t = np.moveaxis(u[m].reshape(counts), m, 0)
        for a in range(min(pivots, h - 2)):
            x = t - t[a]  # X(a, .)
            for b in range(a + 1, h - 1):
                curl = x[b] + (t[b + 1:] - t[b]) - x[b + 1:]
                worst = max(worst, float(np.abs(curl).max()))
    return worst


def decompose_bimatrix_normalized(A, B):
    """Closed-form decomposition of a normalized square bimatrix game.

    With ``S = (A+B)/2``, ``Dm = (A-B)/2`` and
    ``G = (A 1 1^T - 1 1^T B) / (2h)`` the potential component is
    ``(S+G, S-G)`` and the harmonic component ``(Dm-G, -Dm+G)``.

    Requires both payoff matrices square of the same size ``h`` with
    ``1^T A = 0`` and ``B 1 = 0`` to within 1e-9 times the largest
    payoff (run :func:`gamehodge.game.normalize` first otherwise).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ShapeError("closed form needs square payoff matrices of equal size")
    h = A.shape[0]
    bound = 1e-9 * max(np.abs(A).max(), np.abs(B).max())
    if np.abs(A.sum(axis=0)).max() > bound or np.abs(B.sum(axis=1)).max() > bound:
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
    return _inner(game.strategy_counts, game.utilities, other.utilities)


def game_norm(game: Game) -> float:
    return _norm(game.strategy_counts, game.utilities)


def game_distance(game: Game, other: Game) -> float:
    if game.strategy_counts != other.strategy_counts:
        raise ShapeError("games must share a shape")
    return _norm(game.strategy_counts, game.utilities - other.utilities)


def _inner(counts: tuple[int, ...], u: np.ndarray, v: np.ndarray) -> float:
    h = np.asarray(counts, dtype=float)
    return float(np.einsum("m,mi,mi->", h, u, v))


def _norm(counts: tuple[int, ...], u: np.ndarray) -> float:
    return math.sqrt(max(_inner(counts, u, u), 0.0))


# -- membership tests and projections ------------------------------------------


def _negligible(value: float, game: Game, u_pot, u_harm, tol: float) -> bool:
    """True iff ``value`` is within ``tol`` of the norm of the normalised game.

    The normalised game is ``u_P + u_H``, whose norm is the hypotenuse of the
    two parts' norms.  Measuring against it makes the membership tests
    independent of the payoff scale and of any nonstrategic part.  A game
    whose strategic part is itself within ``tol`` of its whole norm (so it is
    zero, or rounding left by removing a nonstrategic part) passes every test.
    """
    counts = game.strategy_counts
    strategic = math.hypot(_norm(counts, u_pot), _norm(counts, u_harm))
    return value <= tol * strategic or strategic <= tol * game_norm(game)


def is_potential(game: Game, tol: float = 1e-9) -> bool:
    """True iff the harmonic part is negligible relative to the normalised game."""
    _, u_pot, u_harm, _ = _parts(game)
    return _negligible(_norm(game.strategy_counts, u_harm), game, u_pot, u_harm, tol)


def is_harmonic(game: Game, tol: float = 1e-9) -> bool:
    """True iff the potential part is negligible relative to the normalised game."""
    _, u_pot, u_harm, _ = _parts(game)
    return _negligible(_norm(game.strategy_counts, u_pot), game, u_pot, u_harm, tol)


def potential_function(game: Game, tol: float = 1e-9) -> np.ndarray | None:
    """Mean-zero exact potential of the game, or None if it has none.

    The candidate from the decomposition is re-verified on every comparable
    pair: the potential difference must match the deviating player's payoff
    difference.  The largest mismatch over player ``m``'s pairs is the
    largest spread of ``u^m - phi`` along axis ``m``; it must be within
    ``tol`` times the norm of the normalised game.
    """
    phi, u_pot, u_harm, _ = _parts(game)
    mismatch = _spread(game.strategy_counts, (u - phi for u in game.utilities))
    return phi.copy() if _negligible(mismatch, game, u_pot, u_harm, tol) else None


def closest_potential(game: Game) -> Game:
    """Orthogonal projection onto the potential games: drop the harmonic part."""
    return game.with_utilities(game.utilities - _parts(game)[2])


def closest_harmonic(game: Game) -> Game:
    """Orthogonal projection onto the harmonic games: drop the potential part."""
    return game.with_utilities(game.utilities - _parts(game)[1])


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
