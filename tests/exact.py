"""Exact rational parts of a game, the reference of the distance tests.

Every finite float is a rational, so the parts of a game of float payoffs
are rational too.  The demeanings ``P_m`` act on different axes and commute,
and on each joint eigenspace ``E_S = prod_{m in S} P_m prod_{m not in S}
(I - P_m)`` the game-graph Laplacian ``sum_m h_m P_m`` is the scalar
``h_S = sum_{m in S} h_m``.  So

    phi = sum_{S != {}} E_S(sum_{m in S} h_m u^m) / h_S,

and ``u_P^m = P_m phi``, ``u_H^m = P_m u^m - u_P^m``, ``u_N^m = u^m - P_m u^m``,
all in ``fractions.Fraction`` over numpy object arrays.  It takes 2^M - 1
passes over the profiles, so it suits games of a few hundred profiles.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np


def _mean(t: np.ndarray, m: int) -> np.ndarray:
    """``(I - P_m) t``: the mean of ``t`` along axis ``m``, repeated along it."""
    return np.broadcast_to(t.sum(axis=m, keepdims=True) / t.shape[m], t.shape)


def exact_parts(game):
    """``(phi, u_P, u_H, u_N)`` of ``game`` as object arrays of Fractions, shaped (n,) and (M, n)."""
    counts = game.strategy_counts
    u = [np.array([Fraction(x) for x in row], dtype=object).reshape(counts) for row in game.utilities]
    phi = np.zeros(counts, dtype=object)
    for subset in product((False, True), repeat=len(counts)):
        if any(subset):
            f = sum(h * um for h, um, s in zip(counts, u, subset) if s)
            for m, s in enumerate(subset):
                f = f - _mean(f, m) if s else _mean(f, m)
            phi = phi + f / sum(h for h, s in zip(counts, subset) if s)
    pot = [phi - _mean(phi, m) for m in range(len(counts))]
    proj = [um - _mean(um, m) for m, um in enumerate(u)]
    parts = (pot, [p - q for p, q in zip(proj, pot)], [um - p for um, p in zip(u, proj)])
    return (phi.reshape(-1), *(np.array([a.reshape(-1) for a in part]) for part in parts))


def norm_squared(counts, rows: np.ndarray) -> Fraction:
    """``sum_m h_m ||rows[m]||^2`` exactly: the squared game norm of exact rows."""
    return sum(h * sum(x * x for x in row) for h, row in zip(counts, rows))


def relative_error(x: float, square: Fraction) -> float:
    """``|x - r| / r`` for ``r = sqrt(square) > 0``, to 40 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        root = (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()
        return float(abs(Decimal(x) - root) / root)
