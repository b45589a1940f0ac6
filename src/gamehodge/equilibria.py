"""Equilibrium and efficiency analysis.

Pure and epsilon equilibria are found by exhaustive enumeration; mixed and
correlated equilibrium *candidates* are verified rather than searched for.
For harmonic games (zero potential part) the correlated equilibria form an
affine slice of the probability simplex, which is solved here as a linear
system.  The module also covers Pareto optimality and the nonstrategic
retuning that makes the pure Nash set coincide with the Pareto set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .decompose import closest_potential, game_distance, game_norm, is_harmonic
from .errors import PreconditionError
from .game import Game, is_normalized, normalize
from .subspaces import numeric_rank

__all__ = [
    "pure_nash",
    "epsilon_equilibria",
    "epsilon_transfer_bound",
    "uniformly_mixed",
    "deviation_payoffs",
    "mixed_utility",
    "is_mixed_nash",
    "is_correlated_equilibrium",
    "AffineSolutionSet",
    "harmonic_correlated_system",
    "HarmonicIndifferenceReport",
    "harmonic_indifference_checks",
    "pareto_optimal",
    "pareto_align_transform",
    "equilibrium_report",
]


# -- pure equilibria -----------------------------------------------------------


def _equilibrium_mask(game: Game, eps: float) -> np.ndarray:
    ok = np.ones(game.strategy_counts, dtype=bool)
    for m in range(game.num_players):
        t = game.tensor(m)
        ok &= t >= t.max(axis=m, keepdims=True) - eps
    return ok


def _profiles(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Profiles where ``mask`` holds, in index order, as tuples of Python ints."""
    return list(map(tuple, np.argwhere(mask).tolist()))


def pure_nash(game: Game) -> list[tuple[int, ...]]:
    """All pure Nash equilibria (weak inequalities, ties allowed), in index order."""
    return epsilon_equilibria(game, 0.0)


def epsilon_equilibria(game: Game, eps: float) -> list[tuple[int, ...]]:
    """Profiles from which no unilateral deviation gains more than ``eps``."""
    if not eps >= 0:
        raise ValueError("eps must be >= 0")
    return _profiles(_equilibrium_mask(game, eps))


def epsilon_transfer_bound(game: Game) -> tuple[Game, float]:
    """Closest potential game plus the epsilon at which its equilibria transfer.

    With ``a`` the distance to the closest potential game, every pure Nash
    equilibrium of that game is an ``eps``-equilibrium of the original for
    ``eps = max_m 2 a / sqrt(h_m)``.
    """
    pot = closest_potential(game)
    alpha = game_distance(game, pot)
    bound = max(2.0 * alpha / math.sqrt(h) for h in game.strategy_counts)
    return pot, bound


# -- mixed strategies ----------------------------------------------------------


def _validate_simplex(vec: np.ndarray, size: int, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float).ravel()
    if vec.shape != (size,):
        raise PreconditionError(f"{what} must have {size} entries")
    if vec.min(initial=0.0) < -1e-12 or abs(vec.sum() - 1.0) > 1e-12:
        raise PreconditionError(f"{what} is not a probability distribution")
    return vec


def _validate_mixed(game: Game, x) -> list[np.ndarray]:
    if len(x) != game.num_players:
        raise PreconditionError("one mixed strategy per player required")
    return [
        _validate_simplex(xm, h, f"mixed strategy of player {m}")
        for m, (xm, h) in enumerate(zip(x, game.strategy_counts))
    ]


def uniformly_mixed(game: Game) -> list[np.ndarray]:
    """The profile in which every player randomizes uniformly."""
    return [np.full(h, 1.0 / h) for h in game.strategy_counts]


def deviation_payoffs(game: Game, player: int, x) -> np.ndarray:
    """Payoffs of each pure strategy of ``player`` against the others' mix."""
    t = game.tensor(player)
    for k in range(game.num_players - 1, -1, -1):
        if k == player:
            continue
        t = np.tensordot(t, np.asarray(x[k], dtype=float), axes=([k], [0]))
    return t


def mixed_utility(game: Game, player: int, x) -> float:
    """Expected payoff of ``player`` under a mixed strategy profile."""
    return float(deviation_payoffs(game, player, x) @ np.asarray(x[player], dtype=float))


def is_mixed_nash(game: Game, x, tol: float = 1e-9) -> bool:
    """Check that no player gains more than ``tol`` by a pure deviation."""
    x = _validate_mixed(game, x)
    for m in range(game.num_players):
        payoffs = deviation_payoffs(game, m, x)
        if float(payoffs @ x[m]) < payoffs.max() - tol:
            return False
    return True


def is_correlated_equilibrium(game: Game, x, tol: float = 1e-9) -> bool:
    """Check the correlated-equilibrium inequalities for a joint distribution.

    For every player and every recommended strategy, switching to any other
    strategy must not raise the conditional expected payoff by more than
    ``tol``.
    """
    x = _validate_simplex(np.asarray(x, dtype=float), game.num_profiles, "joint distribution")
    xt = x.reshape(game.strategy_counts)
    for m in range(game.num_players):
        u = np.moveaxis(game.tensor(m), m, 0).reshape(game.strategy_counts[m], -1)
        w = np.moveaxis(xt, m, 0).reshape(game.strategy_counts[m], -1)
        cross = w @ u.T  # cross[a, b] = sum_r x(a, r) u(b, r)
        gain = cross - np.diag(cross)[:, None]
        if gain.max() > tol:
            return False
    return True


# -- correlated equilibria of harmonic games ------------------------------------


@dataclass(frozen=True)
class AffineSolutionSet:
    """Affine subspace ``{x : equalities @ x = rhs}`` met with the simplex.

    ``particular`` is one solution (the uniform joint distribution) and
    ``dimension`` the affine dimension, ranked from singular values alone.
    ``directions``, a dense basis of the homogeneous solutions, costs an
    n x n SVD on first read.
    """

    equalities: np.ndarray
    rhs: np.ndarray
    particular: np.ndarray
    dimension: int

    @cached_property
    def directions(self) -> np.ndarray:
        vt = np.linalg.svd(self.equalities)[2]
        return vt[len(vt) - self.dimension:]

    def residual(self, x) -> float:
        """Largest violation of the defining equalities at ``x``."""
        r = self.equalities @ np.asarray(x, dtype=float).ravel() - self.rhs
        return float(np.abs(r).max(initial=0.0))


def harmonic_correlated_system(game: Game, tol: float = 1e-9) -> AffineSolutionSet:
    """Equality description of the correlated equilibria of a harmonic game.

    For a normalized harmonic game a joint distribution is a correlated
    equilibrium exactly when, for every player m and every own pair (a, b),
    ``sum over opponent profiles of u^m(b, .) x(a, .)`` vanishes.  The system
    returned stacks those equalities, ordered by m, then a, then b, with the
    total-probability row; its solution set always contains the uniform
    distribution.  Each player's h_m² rows are written in one assignment
    through a view of the matrix with that player's axis first, the mode-m
    unfolding; only reading ``directions`` of the result runs an n x n SVD.
    """
    if not is_normalized(game, max(tol, 1e-12) * float(np.abs(game.utilities).max(initial=0.0))):
        raise PreconditionError("game must be normalized; call normalize() first")
    # A game is harmonic iff sum_m h_m P_m u^m = 0 (for a normalized game,
    # sum_m h_m u^m = 0): that sum is L phi for the potential phi, and
    # ||L phi||^2 <= (sum_m h_m) phi'L phi, where phi'L phi is the squared
    # norm of the potential part.  is_harmonic(game, tol) bounds that norm by
    # tol times the norm of the normalised game, here the game itself; so
    # every normalized game that passes it passes this bound, with no
    # decomposition.
    h = np.asarray(game.strategy_counts, dtype=float)
    weighted = float(np.linalg.norm(h @ normalize(game).utilities))
    if weighted > math.sqrt(h.sum()) * tol * game_norm(game):
        raise PreconditionError("game must be harmonic (zero potential part)")

    n = game.num_profiles
    counts = game.strategy_counts
    equalities = np.zeros((sum(h * h for h in counts) + 1, n))
    # Scaling a row leaves the solution set alone.  The total-probability
    # row is ranked at the size of the payoffs, one scale for the whole game,
    # so the rank threshold sees rows of one size whatever the payoff scale;
    # the system returned has its row of ones.
    equalities[-1] = float(np.abs(game.utilities).max(initial=0.0)) or 1.0
    start = 0
    for m, h in enumerate(counts):
        # rows[a, b] is the view of row (m, a, b) with player m's axis first:
        # u^m(b, .) where the own strategy is a, zero elsewhere
        rows = np.moveaxis(equalities[start:start + h * h].reshape((h, h) + counts), 2 + m, 2)
        own = np.arange(h)
        rows[own, :, own] = np.moveaxis(game.tensor(m), m, 0)
        start += h * h
    dimension = n - numeric_rank(equalities, tol)
    equalities[-1] = 1.0
    rhs = np.zeros(len(equalities))
    rhs[-1] = 1.0

    particular = np.full(n, 1.0 / n)
    return AffineSolutionSet(equalities, rhs, particular, dimension)


# -- structural checks for harmonic games ---------------------------------------


@dataclass
class HarmonicIndifferenceReport:
    """Outcome of the harmonic-game indifference identities."""

    flux_max_violation: float
    pure_equilibria: list[tuple[int, ...]]
    ne_indifference_max: float
    tol: float
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def harmonic_indifference_checks(game: Game, tol: float = 1e-9) -> HarmonicIndifferenceReport:
    """Verify the marginal-sum and pure-equilibrium indifference identities.

    In a harmonic game the sum of a player's payoffs over all opponent
    profiles is the same for each of its own strategies, and at any pure Nash
    equilibrium every player is indifferent across *all* own strategies.
    The spread of a player's payoffs along its own axis is read at the Nash
    mask.  Both spreads are compared against ``tol * max|u|``, so the result
    does not change when the payoffs are scaled; ``tol`` is relative, and the
    report carries it as given.  Violations are reported, never raised.
    """
    bound = tol * float(np.abs(game.utilities).max(initial=0.0))
    violations: list[str] = []

    flux = 0.0
    for m in range(game.num_players):
        axes = tuple(k for k in range(game.num_players) if k != m)
        spread = float(np.ptp(game.tensor(m).sum(axis=axes)))
        flux = max(flux, spread)
        if spread > bound:
            violations.append(
                f"player {m}: per-strategy payoff sums differ by {spread:.3e}"
            )

    mask = _equilibrium_mask(game, 0.0)
    equilibria = _profiles(mask)
    spreads = np.stack([
        np.broadcast_to(np.ptp(game.tensor(m), axis=m, keepdims=True), mask.shape)[mask]
        for m in range(game.num_players)
    ], axis=1)  # (equilibrium, player)
    ne_spread = float(spreads.max(initial=0.0))
    for e, m in np.argwhere(spreads > bound).tolist():
        violations.append(
            f"equilibrium {equilibria[e]}: player {m} not indifferent (spread {spreads[e, m]:.3e})"
        )

    return HarmonicIndifferenceReport(flux, equilibria, ne_spread, tol, violations)


# -- Pareto analysis -------------------------------------------------------------


_PARETO_ROWS = 256


def pareto_optimal(game: Game) -> list[tuple[int, ...]]:
    """Profiles not weakly dominated (all players >=, someone >) by any other.

    Blocks of at most ``_PARETO_ROWS`` profiles are scanned against all
    profiles one player at a time, so memory stays O(n * block) for any
    number of players.  The undominated profiles are listed from the mask,
    in index order.
    """
    payoffs = game.utilities  # (M, n)
    n = game.num_profiles
    dominated = np.zeros(n, dtype=bool)
    for start in range(0, n, _PARETO_ROWS):
        block = payoffs[:, start:start + _PARETO_ROWS, None]
        ge = payoffs[0] >= block[0]
        gt = payoffs[0] > block[0]
        for m in range(1, game.num_players):
            ge &= payoffs[m] >= block[m]
            gt |= payoffs[m] > block[m]
        dominated[start:start + _PARETO_ROWS] = (ge & gt).any(axis=1)
    return _profiles(~dominated.reshape(game.strategy_counts))


def pareto_align_transform(game: Game) -> Game:
    """Retune the nonstrategic part so pure equilibria and Pareto optima coincide.

    Two stages, both of which leave every pairwise payoff comparison intact:
    first each player's payoff is shifted blockwise so that all pure Nash
    equilibria pay zero, then a constant larger than any remaining payoff is
    subtracted wherever a profile is neither an equilibrium nor adjacent to
    one.  When the game has at least one pure equilibrium, the output's
    Pareto-optimal set is exactly its Nash set.
    """
    counts = game.strategy_counts
    ne_mask = _equilibrium_mask(game, 0.0)

    u_hat = np.empty_like(game.utilities)
    for m in range(game.num_players):
        t = game.tensor(m)
        line_has_ne = ne_mask.any(axis=m, keepdims=True)
        ne_payoff = np.where(ne_mask, t, -np.inf).max(axis=m, keepdims=True)
        shifted = np.where(line_has_ne, t - ne_payoff, t)
        u_hat[m] = np.where(ne_mask, 0.0, shifted).ravel()

    alpha = 1.0 + float(u_hat.max())
    u_bar = np.empty_like(u_hat)
    for m in range(game.num_players):
        t = u_hat[m].reshape(counts)
        keep = ne_mask | ne_mask.any(axis=m, keepdims=True)
        u_bar[m] = np.where(keep, t, t - alpha).ravel()

    return game.with_utilities(u_bar)


# -- report ----------------------------------------------------------------------


def equilibrium_report(game: Game, eps: float = 0.0, tol: float = 1e-9) -> dict:
    """JSON-ready summary of the game's equilibrium structure."""
    correlated_dim = None
    if is_harmonic(game, tol):
        strategic = normalize(game)
        if game_norm(strategic) <= tol * game_norm(game):
            # no strategic part beyond the rounding of removing the rest:
            # every joint distribution is a correlated equilibrium
            strategic = game.with_utilities(np.zeros_like(game.utilities))
        correlated_dim = harmonic_correlated_system(strategic, tol).dimension
    return {
        "pure_nash": [list(p) for p in pure_nash(game)],
        "epsilon": float(eps),
        "epsilon_equilibria": [list(p) for p in epsilon_equilibria(game, eps)],
        "pareto_optimal": [list(p) for p in pareto_optimal(game)],
        "uniform_mixed_is_ne": is_mixed_nash(game, uniformly_mixed(game), tol),
        "correlated_dim": correlated_dim,
    }
