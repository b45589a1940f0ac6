"""Equilibrium and efficiency analysis.

Pure and epsilon equilibria are found by exhaustive enumeration, one max
per player along its own axis serving every epsilon at once; mixed and
correlated equilibrium *candidates* are verified rather than searched for.
For harmonic games (zero potential part) the correlated equilibria form an
affine slice of the probability simplex, cut out by linear equalities.  With
two players those equalities factor: the slice's directions are a tensor
product of two null spaces, so its dimension takes two h x h ranks and no
system is stacked.  More players rank the stacked system, under a cap on its
entries.  The dimension is computed from the payoff arrays alone, so
``equilibrium_report`` builds no ``Game`` or :class:`AffineSolutionSet` for
it.  The module also covers Pareto optimality and the nonstrategic
retuning that makes the pure Nash set coincide with the Pareto set.  The
Pareto set is read off the payoff vectors sorted lexicographically, an order
made by one argsort of player 0's payoffs with only its tied runs sorted
further.  Then a running maximum serves two players; more take a bitset scan
under a work cap, whose windows of comparators hold only vectors not yet
found dominated (weak dominance is transitive), in O(n (M + window / 8))
bytes; and games of few profiles take one dense broadcast over players, of
M n^2 booleans.
``equilibrium_report`` lists its profiles straight from the masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .decompose import _norms, _parts, _strategic_negligible, closest_potential, is_harmonic
from .errors import PreconditionError, _check_size
from .flows import _reflection_matrix
from .game import Game, _check_index, _check_tol, _payoff_scale, is_normalized
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


def _equilibrium_masks(game: Game, *eps: float) -> list[np.ndarray]:
    """One mask of the ``eps``-equilibria per ``eps``, shaped like the game's tensors.

    Each player's best reply payoffs, one max along its own axis, serve every
    ``eps``; each mask starts as the first player's comparison.
    """
    if not all(e >= 0 for e in eps):
        raise ValueError("eps must be >= 0")
    counts = game.strategy_counts
    masks: list[np.ndarray] = []
    for m, u in enumerate(game.utilities):
        t = u.reshape(counts)
        best = t.max(axis=m, keepdims=True)
        for i, e in enumerate(eps):
            ok = t >= (best - e if e else best)  # best - 0.0 is best
            if m:
                masks[i] &= ok
            else:
                masks.append(ok)
    return masks


def _listed(mask: np.ndarray) -> list[list[int]]:
    """Profiles where ``mask`` holds, in index order, as lists of Python ints."""
    return np.array(mask.nonzero()).T.tolist()  # np.argwhere's rows, without its overhead


def _profiles(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Profiles where ``mask`` holds, in index order, as tuples of Python ints."""
    return list(map(tuple, _listed(mask)))


def pure_nash(game: Game) -> list[tuple[int, ...]]:
    """All pure Nash equilibria (weak inequalities, ties allowed), in index order."""
    return epsilon_equilibria(game, 0.0)


def epsilon_equilibria(game: Game, eps: float) -> list[tuple[int, ...]]:
    """Profiles from which no unilateral deviation gains more than ``eps``."""
    return _profiles(_equilibrium_masks(game, eps)[0])


def epsilon_transfer_bound(game: Game) -> tuple[Game, float]:
    """Closest potential game plus the epsilon at which its equilibria transfer.

    With ``a`` the distance to the closest potential game, the kept norm
    ``||u_H||``, every pure Nash equilibrium of that game is an
    ``eps``-equilibrium of the original for ``eps = max_m 2 a / sqrt(h_m) =
    2 a / sqrt(min_m h_m)``.  A warm call computes no norm.
    """
    return closest_potential(game), 2.0 * _norms(game)[1] / math.sqrt(min(game.strategy_counts))


# -- mixed strategies ----------------------------------------------------------


def _sized(vec, size: int, what: str) -> np.ndarray:
    """``vec`` as a flat float vector; PreconditionError unless it has ``size`` entries."""
    vec = np.asarray(vec, dtype=float).ravel()
    if vec.shape != (size,):
        raise PreconditionError(f"{what} must have {size} entries")
    return vec


def _validate_simplex(vec: np.ndarray, size: int, what: str) -> np.ndarray:
    vec = _sized(vec, size, what)
    # NaN-safe (NaN fails every comparison), and bounded before the sum can overflow
    bounded = vec.min(initial=0.0) >= -1e-12 and vec.max(initial=0.0) <= 1.0 + 1e-12
    if not (bounded and abs(vec.sum() - 1.0) <= 1e-12):
        raise PreconditionError(f"{what} is not a probability distribution")
    return vec


def _mixed_vectors(game: Game, x) -> list[np.ndarray]:
    """One flat float vector per player, of its strategy count; lengths only, no simplex check."""
    if len(x) != game.num_players:
        raise PreconditionError("one mixed strategy per player required")
    return [
        _sized(xm, h, f"mixed strategy of player {m}")
        for m, (xm, h) in enumerate(zip(x, game.strategy_counts))
    ]


def _validate_mixed(game: Game, x) -> list[np.ndarray]:
    return [
        _validate_simplex(xm, xm.size, f"mixed strategy of player {m}")
        for m, xm in enumerate(_mixed_vectors(game, x))
    ]


def uniformly_mixed(game: Game) -> list[np.ndarray]:
    """The profile in which every player randomizes uniformly."""
    return [np.full(h, 1.0 / h) for h in game.strategy_counts]


def deviation_payoffs(game: Game, player: int, x) -> np.ndarray:
    """Payoffs of each pure strategy of ``player`` against the others' mix.

    The player's own axis is moved first; then one matrix-vector product
    per opponent contracts the last axis, the last opponent first.
    PreconditionError unless ``x`` holds one vector of the right length per
    player; the vectors need not be probability distributions.
    """
    _check_index(player, game.num_players, "player index")
    return _deviation(game, player, _mixed_vectors(game, x))


def _deviation(game: Game, player: int, x) -> np.ndarray:
    """:func:`deviation_payoffs` of a valid player against float vectors ``x[k]``."""
    opponents = [k for k in range(game.num_players) if k != player]
    t = game.utilities[player].reshape(game.strategy_counts).transpose(player, *opponents)
    for k in reversed(opponents):
        t = t @ x[k]
    return t


def mixed_utility(game: Game, player: int, x) -> float:
    """Expected payoff of ``player`` under a mixed strategy profile, checked as by
    :func:`deviation_payoffs`."""
    _check_index(player, game.num_players, "player index")
    x = _mixed_vectors(game, x)
    return float(_deviation(game, player, x) @ x[player])


def is_mixed_nash(game: Game, x, tol: float = 1e-9) -> bool:
    """Check that no player gains more than ``tol`` by a pure deviation.

    ``tol`` is an absolute epsilon in payoff units, not relative to the
    payoffs' scale: the profile is an ``tol``-Nash equilibrium.
    """
    _check_tol(tol)
    return _is_mixed_nash(game, _validate_mixed(game, x), tol)


def _is_mixed_nash(game: Game, x: list[np.ndarray], tol: float) -> bool:
    """:func:`is_mixed_nash` of a profile already known to be valid."""
    for m in range(game.num_players):
        payoffs = _deviation(game, m, x)
        if float(payoffs @ x[m]) < payoffs.max() - tol:
            return False
    return True


def is_correlated_equilibrium(game: Game, x, tol: float = 1e-9) -> bool:
    """Check the correlated-equilibrium inequalities for a joint distribution.

    For every player and every recommended strategy, switching to any other
    strategy must not raise the conditional expected payoff by more than
    ``tol``, an absolute epsilon in payoff units, not relative to the
    payoffs' scale.
    """
    _check_tol(tol)
    x = _validate_simplex(np.asarray(x, dtype=float), game.num_profiles, "joint distribution")
    return all((cross - np.diag(cross)[:, None]).max() <= tol for cross in _crosses(game, x))


def _crosses(game: Game, x: np.ndarray):
    """``X_m U_m^T`` for each player m, ``X_m`` and ``U_m`` the mode-m unfoldings of the flat
    joint distribution ``x`` and of u^m: ``cross[a, b] = sum_r x(a, r) u^m(b, r)``, the
    payoff of playing b where a is recommended, weighted by the probability of a."""
    counts = game.strategy_counts
    xt = x.reshape(counts)
    for m, h in enumerate(counts):
        w = np.moveaxis(xt, m, 0).reshape(h, -1)
        u = np.moveaxis(game.tensor(m), m, 0).reshape(h, -1)
        yield w @ u.T


# -- correlated equilibria of harmonic games ------------------------------------


# Entries of the largest stacked correlated system, (sum_m h_m^2 + 1) x n,
# that is built: 2^24 float64 entries, 128 MB.  On 2 CPUs with one BLAS
# thread its values-only SVD takes 2.2 s at 20^3 (1201 x 8000) and 4.3 s at
# 22^3 (1453 x 10648, 15.5 million entries), the largest cube under the cap.
# One- and two-player games never build it to find their dimension.
CORRELATED_SYSTEM_CAP = 1 << 24


@dataclass(frozen=True)
class AffineSolutionSet:
    """Affine subspace ``{x : equalities @ x = rhs}`` met with the simplex.

    ``game`` is the normalized harmonic game whose correlated equilibria
    these are, ``particular`` one solution (the uniform joint distribution)
    and ``dimension`` the affine dimension, ranked from singular values
    alone.  The rest is built on first read.  For one or two players the
    homogeneous solutions are a Kronecker product of two null spaces (see
    :func:`harmonic_correlated_system`), so ``directions`` costs two h x h
    SVDs and nothing needs ``equalities``; for more players ``equalities``
    is built on first read and ``directions`` costs an n x n SVD.
    ``residual`` reads the payoffs, not ``equalities``.  Above
    ``CORRELATED_SYSTEM_CAP`` entries, reading ``equalities`` raises
    :class:`SizeError`, whose docstring lists every cap.
    """

    game: Game
    tol: float
    dimension: int

    @cached_property
    def equalities(self) -> np.ndarray:
        return _stacked_system(self.game.strategy_counts, self.game.utilities, 1.0)

    @cached_property
    def rhs(self) -> np.ndarray:
        rhs = np.zeros(sum(h * h for h in self.game.strategy_counts) + 1)
        rhs[-1] = 1.0
        return rhs

    @cached_property
    def particular(self) -> np.ndarray:
        return np.full(self.game.num_profiles, 1.0 / self.game.num_profiles)

    @cached_property
    def directions(self) -> np.ndarray:
        if self.game.num_players > 2:
            vt = np.linalg.svd(self.equalities)[2]
            return vt[len(vt) - self.dimension:]
        counts, u = self.game.strategy_counts, self.game.utilities
        factors = _factors(counts, u)
        ranks = _factor_ranks(counts, u, factors, self.tol)
        cols, rows = (_null_basis(a, r) for a, r in zip(factors, ranks))
        # every product of a row basis vector and a column basis vector but
        # the first, the uniform distribution
        kron = rows[:, None, :, None] * cols[None, :, None, :]
        return kron.reshape(len(rows) * len(cols), -1)[1:]

    def residual(self, x) -> float:
        """Largest violation of the defining equalities at ``x``.

        Player m's rows are the entries of ``X_m U_m^T`` (:func:`_crosses`,
        as in :func:`is_correlated_equilibrium`), so no row of
        ``equalities`` is built.  PreconditionError unless ``x`` has one
        entry per profile; it need not be a distribution.
        """
        x = _sized(x, self.game.num_profiles, "joint distribution")
        crosses = (float(np.abs(cross).max()) for cross in _crosses(self.game, x))
        return max(abs(float(x.sum()) - 1.0), *crosses)


def harmonic_correlated_system(game: Game, tol: float = 1e-9) -> AffineSolutionSet:
    """Equality description of the correlated equilibria of a harmonic game.

    For a normalized harmonic game a joint distribution is a correlated
    equilibrium exactly when, for every player m and every own pair (a, b),
    ``sum over opponent profiles of u^m(b, .) x(a, .)`` vanishes.  The system
    returned stacks those equalities, ordered by m, then a, then b, with the
    total-probability row; its solution set always contains the uniform
    distribution.

    With two players and X the h1 x h2 joint distribution, player 1's rows
    say ``X U1^T = 0`` and player 2's ``U2^T X = 0``, so the homogeneous
    solutions are ``null(U2^T) (x) null(U1)`` and the dimension is
    ``(h1 - rank U2)(h2 - rank U1) - 1``: two h x h ranks, with no stacked
    system.  One player is the case h2 = 1 with U2 = 0.  More players rank
    the stacked system itself, each player's h_m^2 rows written in one
    assignment through its mode-m unfolding; it is refused with
    :class:`SizeError` above ``CORRELATED_SYSTEM_CAP`` entries, from the shape
    alone before any other work.  Every rank counts the singular values
    above ``tol`` times the stacked system's largest, its
    total-probability row scaled to ``max|u|``, so it does not change when
    the payoffs are scaled.

    A game whose strategic part is within ``tol`` of its own norm (a
    nonstrategic game, or rounding left by removing one) is taken as the
    zero game, as :func:`equilibrium_report` does, since every joint
    distribution is a correlated equilibrium of it.  Any other game must
    pass ``is_normalized`` at ``max(tol, 1e-12)``, then ``is_harmonic`` at
    ``tol``, the test :func:`equilibrium_report` applies, or
    ``PreconditionError`` is raised; ``tol`` must be >= 0, or ``ValueError``
    is.  The dimension comes from the routine that
    :func:`equilibrium_report` calls on the payoffs of the strategic part it
    has already certified.
    """
    _check_tol(tol)
    if game.num_players > 2:
        _stacked_rows(game.strategy_counts)
    if _strategic_negligible(game, tol):
        game = game._sharing(np.zeros_like(game.utilities))
    elif not is_normalized(game, max(tol, 1e-12)):
        raise PreconditionError("game must be normalized; call normalize() first")
    elif not is_harmonic(game, tol):
        raise PreconditionError("game must be harmonic (zero potential part)")
    return AffineSolutionSet(game, tol, _correlated_dimension(game.strategy_counts, game.utilities, tol))


def _correlated_dimension(counts: tuple[int, ...], u: np.ndarray, tol: float) -> int:
    """Dimension of the correlated equilibria of the normalized harmonic payoffs ``u``.

    At most two players take the product form and more the stacked rank,
    under the cap that :func:`_stacked_system` checks before it allocates.
    """
    if len(counts) > 2:
        return math.prod(counts) - numeric_rank(_stacked_system(counts, u, _scale(u)), tol)
    factors = _factors(counts, u)
    nullity = [a.shape[1] - r for a, r in zip(factors, _factor_ranks(counts, u, factors, tol))]
    return math.prod(nullity) - 1


def _scale(u: np.ndarray) -> float:
    """``max|u|``, or 1 for the zero game: the total-probability row's rank weight.

    Scaling a row leaves the solution set alone; at the size of the payoffs
    the rank threshold sees rows of one size whatever the payoff scale.
    """
    return _payoff_scale(u) or 1.0


def _stacked_rows(counts: tuple[int, ...]) -> int:
    """The stacked system's sum_m h_m^2 + 1 rows, or ``SizeError`` above its cap on entries."""
    rows, n = sum(h * h for h in counts) + 1, math.prod(counts)
    _check_size(rows * n, "correlated system entries", CORRELATED_SYSTEM_CAP, "system cap")
    return rows


def _stacked_system(counts: tuple[int, ...], u: np.ndarray, ones: float) -> np.ndarray:
    """The stacked equalities of payoffs ``u``, with ``ones`` in the total-probability row."""
    equalities = np.zeros((_stacked_rows(counts), u.shape[1]))
    equalities[-1] = ones
    start = 0
    for m, h in enumerate(counts):
        order = (m, *(k for k in range(len(counts)) if k != m))  # player m's axis first
        # rows[a, b] is the view of row (m, a, b) in that order: u^m(b, .)
        # where the own strategy is a, zero elsewhere
        block = equalities[start:start + h * h].reshape((h, h) + counts)
        rows = block.transpose(0, 1, *(2 + k for k in order))
        own = np.arange(h)
        rows[own, :, own] = u[m].reshape(counts).transpose(order)
        start += h * h
    return equalities


def _factors(counts: tuple[int, ...], u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(U1, U2^T)`` of payoffs ``u`` of at most two players, each own strategy x opponent's.

    The rows of X lie in the null space of the first, its columns in that of
    the second.  A lone player gets an opponent of one strategy and zero
    payoffs.
    """
    h1, h2 = (counts + (1,))[:2]
    second = u[1].reshape(h1, h2).T if len(counts) == 2 else np.zeros((h2, h1))
    return u[0].reshape(h1, h2), second


def _factor_ranks(counts: tuple[int, ...], u: np.ndarray, factors, tol: float) -> list[int]:
    """Numeric ranks of the two factors, at the stacked system's scale.

    The stacked system's singular values are ``sqrt(s^2 + t^2)`` over
    pairs of the factors' singular values, but ``max|u| sqrt(n)`` for the
    pair of the two ones vectors, which span the total-probability row; the
    largest of them sets the threshold.  A normalized harmonic game has zero
    flux, so the ones vector lies in both null spaces and no rank exceeds
    h - 1.
    """
    svals = [np.linalg.svd(a, compute_uv=False) for a in factors]
    top = max(_scale(u) * math.sqrt(math.prod(counts)), math.hypot(svals[0][0], svals[1][0]))
    return [min(int(np.sum(s > tol * top)), a.shape[1] - 1) for a, s in zip(factors, svals)]


def _null_basis(a: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal rows spanning the null space of ``a``, ``1 / sqrt(h)`` first.

    The rest is the last ``h - 1 - rank`` right singular vectors of ``a`` restricted to rows
    1..h-1 of the reflection :func:`gamehodge.flows._reflection_matrix`, an orthonormal basis
    of the complement of the ones; its row 0 is the unit constant.  The matrix is built
    uncached: the transform's cache holds only the short axes.
    """
    reflection = _reflection_matrix.__wrapped__(a.shape[1])
    vt = np.linalg.svd(a @ reflection[:, 1:])[2]  # H = H^T
    return np.vstack([reflection[:1], vt[rank:] @ reflection[1:]])


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
    _check_tol(tol)
    bound = tol * _payoff_scale(game.utilities)
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

    [mask] = _equilibrium_masks(game, 0.0)
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


# Below this many profiles one dense (M, n, n) broadcast over players is used.
# On 2 CPUs sorting wins from about 70 profiles with two players and from
# about 180 with more; the cut is on n alone.
_PARETO_DENSE = 100
# lex-ordered columns per window of the bitset scan, a multiple of 64
_PARETO_WINDOW = 512
# Budget on n^2 (M - 1), the pair tests of the bitset scan for M >= 3.  At the
# budget a random 17-player game of 2^16 profiles takes about 2.5 s on 2 CPUs,
# and a 3-player game whose 185 000 profiles are all Pareto optimal about 4 s.
PARETO_WORK_CAP = 1 << 36


def pareto_optimal(game: Game) -> list[tuple[int, ...]]:
    """Profiles not weakly dominated (all players >=, someone >) by any other.

    Sort the payoff vectors lexicographically, descending, player 0 first
    (:func:`_lex_descending`).  A weak dominator q of p is lexicographically
    larger, so it lies before the run of vectors equal to p's, and every
    vector there already has u_0(q) >= u_0(p).  So, with the equal vectors
    merged, p is dominated exactly when an earlier vector has u_m >= u_m(p)
    for m = 1..M-1:

    - M <= 2: a running maximum of u_{M-1} reaches u_{M-1}(p) before p (the
      maxima sweep of Kung, Luccio and Preparata), O(n log n); with one
      player that flags every vector but the first;
    - M >= 3: a scan over windows of earlier, not yet dominated vectors with
      bitsets ranked per player (:func:`_dominated_windowed`).  Weak
      dominance is transitive, so a vector found dominated never needs to
      serve as a comparator.  At most O(n^2 (M - 1) / 64) word operations in
      O(n (M + window / 8)) bytes; above ``PARETO_WORK_CAP`` on n^2 (M - 1)
      it raises :class:`SizeError` before allocating anything.

    Below ``_PARETO_DENSE`` profiles one dense (M, n, n) broadcast over
    players, at most M n^2 booleans, is faster and is used instead.  Every
    test is an exact float comparison, so the paths agree.  The undominated
    profiles are listed from the mask, in index order.
    """
    return _profiles(_pareto_mask(game))


def _pareto_mask(game: Game) -> np.ndarray:
    """Mask of the Pareto-optimal profiles, shaped like the game's tensors."""
    payoffs = game.utilities  # (M, n)
    players, n = payoffs.shape
    if players >= 3:
        _check_size(n * n * (players - 1), "Pareto pair tests", PARETO_WORK_CAP, "work cap")
    if n < _PARETO_DENSE:
        dominated = _dominated_dense(payoffs)
    else:
        dominated = _dominated_sorted(payoffs)
    return ~dominated.reshape(game.strategy_counts)


def _dominated_dense(payoffs: np.ndarray) -> np.ndarray:
    """Weak domination by one (M, n, n) broadcast over players.

    Entry ``[m, p, q]`` compares u_m(q) with u_m(p): q dominates p when it
    is ``>=`` for all players and ``>`` for some.  Below ``_PARETO_DENSE``
    profiles the 62-player limit bounds the booleans by 62 * 99^2, since no
    such game has more than six players with two or more strategies.
    """
    rows, comparators = payoffs[:, :, None], payoffs[:, None, :]
    dominates = np.logical_and.reduce(comparators >= rows)
    dominates &= np.logical_or.reduce(comparators > rows)
    return np.logical_or.reduce(dominates, axis=1)


def _new_runs(rows: np.ndarray) -> np.ndarray:
    """Flag the columns of a (K, n) or (n,) array that differ from the column before."""
    rows = np.atleast_2d(rows)
    new = np.empty(rows.shape[1], dtype=bool)
    new[:1] = True
    np.any(rows[:, 1:] != rows[:, :-1], axis=0, out=new[1:])
    return new


def _lex_descending(payoffs: np.ndarray) -> np.ndarray:
    """Column order that sorts the (M, n) payoff vectors lexicographically, descending.

    One argsort of player 0's payoffs orders every column but those in runs
    that tie on player 0.  Only those columns are then ordered, by one
    ``np.lexsort`` of players 1..M-1 with the run as its primary key, so the
    columns stay inside their run.  The sorted vectors are those of
    ``np.lexsort(payoffs[::-1])[::-1]``; only equal vectors (-0.0 and 0.0
    alike) may come in another order.
    """
    order = np.argsort(payoffs[0])[::-1]
    new = _new_runs(payoffs[0, order])
    tied = np.flatnonzero(~(new & np.append(new[1:], True)))  # in a run of two or more
    if len(tied):
        cols = order[tied]
        run = np.cumsum(new)[tied]
        # ascending on (-run, u_1, ..., u_{M-1}), then reversed: runs in
        # place, each run descending
        order[tied] = cols[np.lexsort((*payoffs[:0:-1, cols], -run))[::-1]]
    return order


def _dominated_sorted(payoffs: np.ndarray) -> np.ndarray:
    """Weak domination read off the descending lexicographic order.

    Equal payoff vectors are merged into one column before the scan and
    share its answer.
    """
    order = _lex_descending(payoffs)
    ranked = payoffs[:, order]
    new = _new_runs(ranked)
    vectors = ranked[:, new]  # distinct vectors, descending
    k = vectors.shape[1]
    if len(payoffs) <= 2:
        dominated = np.zeros(k, dtype=bool)
        dominated[1:] = np.maximum.accumulate(vectors[-1, :-1]) >= vectors[-1, 1:]
    else:
        dominated = _dominated_windowed(vectors[1:])
    out = np.empty(len(order), dtype=bool)
    out[order] = dominated[np.cumsum(new) - 1]
    return out


def _dominated_windowed(rows: np.ndarray) -> np.ndarray:
    """Flag column p of ``rows`` when an earlier column is >= it in every row.

    ``rows`` holds players 1..M-1 of the distinct payoff vectors in
    descending lexicographic order.  Each player m is ranked once: place_m(q)
    is q's position in that player's best-first order, and
    c_m(p) = |{q : u_m(q) >= u_m(p)}| is the end of p's run of equal values
    there, so u_m(q) >= u_m(p) exactly when place_m(q) < c_m(p).

    The comparators come in windows of up to ``_PARETO_WINDOW`` columns:
    each window holds the next columns not yet known to be dominated,
    starting after the previous window's last member, and bit j of a row of
    uint64 words stands for its j-th member.  Per window and player,
    ``table[i]`` holds the bits of the members among the first i places, so
    p reads the set {q in window : u_m(q) >= u_m(p)} at the number of
    members placed before c_m(p).  The AND over players is nonzero exactly
    when the window dominates p.  The visitors are the live columns after
    the window's first member; a visitor that is itself a member starts from
    the bits of the members ahead of it.

    Dominated columns can leave the windows because weak dominance between
    distinct vectors is transitive: if r dominates q and q dominates p, r
    dominates p.  Following dominators from p ends at an undominated,
    lexicographically earlier column, and every undominated column becomes
    a member of some window while p is a visitor or a later member.  The
    live arrays are the (visitors, window / 64) words of ``hits`` and two
    length-n index arrays per player, O(n (M + window / 8)) bytes.
    """
    k = rows.shape[1]
    w = min(_PARETO_WINDOW, -(-k // 64) * 64)
    j = np.arange(w)
    bit = np.zeros((w + 1, w // 64), dtype=np.uint64)  # row j + 1: member j alone
    bit[j + 1, j // 64] = np.left_shift(np.uint64(1), (j % 64).astype(np.uint64))
    before = np.bitwise_or.accumulate(bit, axis=0)  # row i: the first i members
    ranked = []
    for row in rows:
        best = np.argsort(row)[::-1]
        new = _new_runs(row[best])
        ends = np.append(np.flatnonzero(new[1:]) + 1, k)
        at_least = np.empty(k, dtype=np.intp)  # c_m
        at_least[best] = ends[np.cumsum(new) - 1]
        place = np.empty(k, dtype=np.intp)
        place[best] = np.arange(k)
        ranked.append((place, at_least))

    dominated = np.zeros(k, dtype=bool)
    start = 0
    while True:
        live = np.flatnonzero(~dominated[start:]) + start
        if len(live) < 2:
            break
        members, visitors = live[:w], live[1:]
        size = len(members)
        hits = before[np.minimum(np.arange(1, len(visitors) + 1), size)]
        for place, at_least in ranked:
            spots = place[members]
            by_place = np.argsort(spots)
            # count[i]: the members among the first i places, i = 0..k
            gaps = np.diff(np.concatenate(([-1], spots[by_place], [k])))
            count = np.repeat(np.arange(size + 1), gaps)
            table = np.bitwise_or.accumulate(bit[np.append(0, by_place + 1)], axis=0)
            hits &= np.take(table, count[at_least[visitors]], axis=0)
        dominated[visitors] = hits.any(axis=1)
        start = members[-1] + 1
    return dominated


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
    [ne_mask] = _equilibrium_masks(game, 0.0)

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

    return game._sharing(u_bar)


# -- report ----------------------------------------------------------------------


def equilibrium_report(game: Game, eps: float = 0.0, tol: float = 1e-9) -> dict:
    """JSON-ready summary of the game's equilibrium structure.

    For a harmonic game the strategic part ``u - u_N`` is read from the
    decomposition that :func:`is_harmonic` ran, or taken as zero when its
    norm is within ``tol`` of the game's.  The kernel made that part
    normalized and :func:`is_harmonic` has just certified it harmonic, so
    its correlated dimension is ranked straight from those payoffs, by the
    routine behind :func:`harmonic_correlated_system`, with no ``Game`` or
    :class:`AffineSolutionSet` built and none of that function's
    preconditions checked again.  One max per player along its own axis
    serves both the pure Nash and the ``eps``-equilibrium masks.  The
    uniformly mixed profile is built here, so :func:`is_mixed_nash` runs
    without validating it.  The three profile lists come straight from their
    masks, as lists of Python ints, in the order of :func:`pure_nash`,
    :func:`epsilon_equilibria` and :func:`pareto_optimal`.
    """
    _check_tol(tol)
    correlated_dim = None
    if is_harmonic(game, tol):
        if _strategic_negligible(game, tol):
            strategic = np.zeros_like(game.utilities)
        else:
            strategic = game.utilities - _parts(game)[3]
        correlated_dim = _correlated_dimension(game.strategy_counts, strategic, tol)
    epsilon = float(eps)
    nash, near = _equilibrium_masks(game, 0.0, eps)
    return {
        "pure_nash": _listed(nash),
        "epsilon": epsilon,
        "epsilon_equilibria": _listed(near),
        "pareto_optimal": _listed(_pareto_mask(game)),
        "uniform_mixed_is_ne": _is_mixed_nash(game, uniformly_mixed(game), tol),
        "correlated_dim": correlated_dim,
    }
