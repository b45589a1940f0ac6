"""Canonical decomposition of a game into potential + harmonic + nonstrategic.

Every finite game splits uniquely into three orthogonal pieces:

* a *potential part* whose flow is the gradient of a scalar potential,
* a *harmonic part* whose flow is divergence-free (and automatically
  curl-free, since game flows never circulate around 3-cliques),
* a *nonstrategic part* invisible to pairwise payoff comparisons.

The scalar potential solves ``Laplacian(phi) = sum_m h_m P_m u^m`` where
``P_m`` is :func:`gamehodge.game.project_player`, which removes per-block
own-strategy means (the kernel and its solve call its unchecked core, on
arrays whose shapes they build, so no projection checks them again); the
parts are then read off as
``u_P^m = P_m phi``, ``u_H^m = P_m u^m - P_m phi`` and
``u_N^m = (I - P_m) u^m``, all in node space, so no game graph and no
edge-space array is ever built.  The maths is written once, in
``_decompose_batch``, over payoffs of shape (K, M, n): K games of one shape
go through one projection, one batched solve by a per-axis transform that
diagonalizes the Laplacian (the checked solve of
:func:`gamehodge.flows.laplacian_pinv_solve`) and one projection back.
Its K = 1 case, ``_parts``, is all that the membership tests and the
projections read; :func:`decompose` hands out the ``Game`` objects and
residuals kept beside them, and :mod:`gamehodge.subspaces` calls the kernel
directly.

Each (immutable) ``Game`` keeps its own kernel run: the first public call
on a game object stores a memo on it (``Game._decomposition``), and every
later call on that object, whatever games were analysed in between, reads
the memo.  The memo is the tuple ``(parts, part games, norms,
divergence)``: the parts are read-only views of read-only arrays; the part
games wrap ``u_P``, ``u_H`` and ``u_N`` without a copy, after one shape and
finiteness check each, and are built by the first :func:`decompose` of the
game, so the membership tests and projections never pay for them; the
norms are those of ``u_P``, ``u_H`` and ``u`` (``NumericError`` if one
overflows), so the membership tests compute no norm; and the divergence is
the largest entry and the 2-norm of the kernel's residual row (below).
Every norm here, and in the solve's check, combines row norms of
``gamehodge.game._root_squares``, which sums a row's squares again scaled
by a power of two when they under- or overflow; a game's norm is the
hypotenuse of its players' row norms, each times ``sqrt(h_m)``
(``_game_norm``).  The answers scale with the payoffs over the whole
exponent range, and a norm overflows only when it exceeds the float
maximum.  So a repeated :func:`decompose` copies ``phi``
and nothing else.  The memo lives exactly as long as its game: a game
keeps about ``3 M n + n`` floats of parts while it lives, and frees them
with itself.  The memo refers to no game but its own part games, which
start with none of their own (``Game._sharing``), so it forms no reference
cycle.  A copy or a pickle of a game carries no memo, and an equal game in
another object is a miss.

The membership tests (:func:`is_potential`, :func:`is_harmonic`,
:func:`potential_function`) measure against the norm of the normalised game
``u_P + u_H``, so they do not change when the payoffs are scaled or a
nonstrategic part is added; a game with no strategic part is both potential
and harmonic.  Each raises ``ValueError`` unless ``tol >= 0``.

The residual diagnostics are read off the row that the solve checks and
returns: ``r = b - Laplacian(phi)`` with the centred right-hand side ``b``,
plus the rounding-level mean that centring dropped.  That row is
``sum_m h_m P_m u^m - sum_m h_m u_P^m``, which in exact arithmetic is
``sum_m h_m u_H^m``, the divergence of the harmonic flow, because
``P_m u_H^m = u_H^m``:

* ``harmonic_divergence`` is the row's largest entry;
* ``solver`` is its 2-norm: the solve's residual ``||b - Laplacian(phi)||``
  for the uncentred ``b``.

The row leaves out the rounding of the last subtraction ``u_H = P u - u_P``
and of summing ``sum_m h_m u_H^m`` again.  On a random game that rounding is
about the row's own size: the row's largest entry is 0.8-1.3 times that of
the direct sum on random games from 3x3 to 2^12.  On a harmonic game it
dominates, because the solve takes b's rounding into ``u_P`` and the row is
b's dropped mean alone: on the harmonic part of a random 20x20 game the row
reads 2e-17 to 3e-16 at its largest, the direct sum about 3e-15, and the
centred residual that the kernel checks about 4e-29.

``u = u_P + u_H + u_N`` holds by construction (``u_N = u - P u`` and
``u_H = P u - u_P``), to the rounding of one subtraction, so it is not
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError, ShapeError
from .flows import _solve
from .game import (
    Game, _check_tol, _demean, _game_document, _root_squares, is_normalized,
)

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
    potential part; ``residuals`` holds two numeric diagnostics read off
    the kernel's residual row: ``harmonic_divergence``, the largest entry of
    the harmonic flow's divergence ``sum_m h_m u_H^m`` but for the rounding
    of forming ``u_H``, and ``solver``, the 2-norm of the Laplacian solve's
    residual (see the module docstring).  The three parts hold the kernel's
    read-only arrays, shared with every later call on the same game object.
    """

    potential_part: Game
    harmonic_part: Game
    nonstrategic_part: Game
    potential_fn: np.ndarray
    residuals: dict


def decompose(game: Game) -> Decomposition:
    """Split a game into its potential, harmonic and nonstrategic parts."""
    (phi, *arrays), wrapped, _, (divergence, solver) = _cached(game)
    if wrapped[0] is None:
        # one assignment: threads that race here store equal games
        wrapped[0] = tuple(game._sharing(a) for a in arrays)
    return Decomposition(
        *wrapped[0], phi.copy(), {"harmonic_divergence": divergence, "solver": solver}
    )


def _parts(game: Game):
    """``(phi, u_P, u_H, u_N)`` of one game: the K = 1 call of the kernel.

    The arrays are read-only views of read-only arrays, so no caller can
    make one writeable; callers that hand out ``phi`` copy it.
    """
    return _cached(game)[0]


def _norms(game: Game) -> tuple[float, float, float]:
    """The game norms of ``u_P``, ``u_H`` and ``u``, kept with the parts."""
    return _cached(game)[2]


def _cached(game: Game):
    """The memo of ``game``: ``(parts, [part games or None], norms, divergence)``.

    The first call on a game runs the kernel and stores the memo on the game
    (``Game._decomposition``), so it lives exactly as long as the game.  A
    kernel call that raises stores nothing.  Threads that race on a game's
    first call each run the kernel and store equal memos.
    """
    memo = game._decomposition
    if memo is not None:
        return memo
    counts = game.strategy_counts
    # an overflow surfaces as the solve's or the norms' NumericError, not as
    # a RuntimeWarning first
    with np.errstate(over="ignore", invalid="ignore"):
        *batch, row = _decompose_batch(counts, game.utilities[None])
        for a in batch:
            a.flags.writeable = False
        parts = tuple(a[0] for a in batch)
        norms = tuple(_game_norm(a, counts) for a in (parts[1], parts[2], game.utilities))
    if not all(map(math.isfinite, norms)):
        raise NumericError("the game norm overflowed: the payoffs are too large to decompose")
    row = row[0]
    divergence = (float(max(row.max(), -row.min())), float(_root_squares(row)))
    memo = game._decomposition = (parts, [None], norms, divergence)
    return memo


def _decompose_batch(counts: tuple[int, ...], u: np.ndarray):
    """Decompose K games of one shape at once: the maths of :func:`decompose`.

    ``u`` has shape (K, M, n), one payoff row per player of each game.
    Returns ``(phi, u_P, u_H, u_N, r)``: the potentials and residual rows,
    shape (K, n), and the three parts, each (K, M, n).  The checked solve
    (:class:`NumericError`) returns ``u_P^m = P_m phi`` with ``r = b -
    Laplacian(phi)``, the divergence of each u_H but for the rounding of
    forming it (module docstring).
    """
    proj = np.empty_like(u)
    for m in range(len(counts)):
        proj[:, m] = _demean(counts, m, u[:, m])
    u_non = u - proj
    phi, u_pot, r = _solve(counts, np.asarray(counts, dtype=float) @ proj)
    proj -= u_pot
    return phi, u_pot, proj, u_non, r


def _spread(counts: tuple[int, ...], rows: np.ndarray) -> float:
    """Largest entry of the comparison flow of ``rows``, one node function per player.

    Row m's flow on player m's edges is ``r(b) - r(a)`` over own strategies
    with the opponents fixed; rounded subtraction is monotone, so its
    largest magnitude is exactly the spread ``max - min`` along axis m.
    """
    spreads = []
    for m, r in enumerate(rows):
        t = r.reshape(counts)
        spreads.append(float((t.max(axis=m) - t.min(axis=m)).max()))
    return max(spreads, default=0.0)


def decompose_bimatrix_normalized(A, B):
    """Closed-form decomposition of a normalized square bimatrix game.

    With ``S = (A+B)/2``, ``Dm = (A-B)/2`` and
    ``G = (A 1 1^T - 1 1^T B) / (2h)`` the potential component is
    ``(S+G, S-G)`` and the harmonic component ``(Dm-G, -Dm+G)``.

    Requires both payoff matrices square of the same size ``h``, finite
    (else ``GameFormatError``) and normalized, ``1^T A = 0`` and ``B 1 = 0``,
    by :func:`gamehodge.game.is_normalized` at ``tol = 1e-9`` (run
    :func:`gamehodge.game.normalize` first otherwise).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ShapeError("closed form needs square payoff matrices of equal size")
    h = A.shape[0]
    if not is_normalized(Game.from_payoff_matrices(A, B), 1e-9):
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
    return float(h @ np.einsum("...i,...i->...", game.utilities, other.utilities))


def game_norm(game: Game) -> float:
    return _game_norm(game.utilities, game.strategy_counts)


def game_distance(game: Game, other: Game) -> float:
    if game.strategy_counts != other.strategy_counts:
        raise ShapeError("games must share a shape")
    return _game_norm(game.utilities - other.utilities, game.strategy_counts)


def _game_norm(u: np.ndarray, counts: tuple[int, ...]) -> float:
    """``sqrt(sum_m h_m ||u^m||^2)``: the hypotenuse of the row norms, each times ``sqrt(h_m)``."""
    return math.hypot(*(math.sqrt(h) * r for h, r in zip(counts, _root_squares(u).tolist())))


# -- membership tests and projections ------------------------------------------


def _strategic_negligible(game: Game, tol: float) -> bool:
    """True iff the game's strategic part ``u_P + u_H`` counts as zero.

    That is when its norm, the hypotenuse of the two parts' norms
    (:func:`_norms`), is within ``tol`` of the game's norm: the game is
    zero, or the part is rounding left by removing a nonstrategic part.
    Such a game passes every membership test, and its correlated system is
    that of the zero game (:mod:`gamehodge.equilibria`).
    """
    pot, harm, whole = _norms(game)
    return math.hypot(pot, harm) <= tol * whole


def _negligible(value: float, game: Game, tol: float) -> bool:
    """True iff ``value`` is within ``tol`` of the norm of the normalised game.

    The normalised game is the strategic part ``u_P + u_H``.  Measuring
    against it makes the membership tests independent of the payoff scale
    and of any nonstrategic part.  A game with a negligible strategic part
    (:func:`_strategic_negligible`) passes every test.
    """
    pot, harm, _ = _norms(game)
    return value <= tol * math.hypot(pot, harm) or _strategic_negligible(game, tol)


def is_potential(game: Game, tol: float = 1e-9) -> bool:
    """True iff the harmonic part is negligible relative to the normalised game."""
    _check_tol(tol)
    return _negligible(_norms(game)[1], game, tol)


def is_harmonic(game: Game, tol: float = 1e-9) -> bool:
    """True iff the potential part is negligible relative to the normalised game."""
    _check_tol(tol)
    return _negligible(_norms(game)[0], game, tol)


def potential_function(game: Game, tol: float = 1e-9) -> np.ndarray | None:
    """Mean-zero exact potential of the game, or None if it has none.

    The candidate from the decomposition is re-verified on every comparable
    pair: the potential difference must match the deviating player's payoff
    difference.  The largest mismatch over player ``m``'s pairs is the
    largest spread of ``u^m - phi`` along axis ``m``; it must be within
    ``tol`` times the norm of the normalised game.
    """
    _check_tol(tol)
    phi = _parts(game)[0]
    mismatch = _spread(game.strategy_counts, game.utilities - phi)
    return phi.copy() if _negligible(mismatch, game, tol) else None


def closest_potential(game: Game) -> Game:
    """Orthogonal projection onto the potential games: drop the harmonic part."""
    return game._sharing(game.utilities - _parts(game)[2])


def closest_harmonic(game: Game) -> Game:
    """Orthogonal projection onto the harmonic games: drop the potential part."""
    return game._sharing(game.utilities - _parts(game)[1])


# -- JSON export ---------------------------------------------------------------


def _decomposition_document(d: Decomposition, rows=np.asarray) -> dict:
    """The JSON document of ``d``, its payoffs and ``phi`` passed through ``rows``."""
    return {
        "potential": _game_document(d.potential_part, rows),
        "harmonic": _game_document(d.harmonic_part, rows),
        "nonstrategic": _game_document(d.nonstrategic_part, rows),
        "phi": rows(d.potential_fn),
        "residuals": {"harmonic_divergence": d.residuals["harmonic_divergence"]},
    }


def decomposition_to_dict(d: Decomposition) -> dict:
    return _decomposition_document(d, np.ndarray.tolist)
