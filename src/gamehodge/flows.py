"""Game graph and combinatorial calculus on it.

Strategy profiles are graph nodes; two profiles are comparable (joined by an
edge) when they differ in the strategy of exactly one player, which makes the
graph a direct product of per-player cliques.  Edge flows carry one value per
comparable pair on the canonical orientation low-index -> high-index and play
the role of discrete vector fields: the operators here are the combinatorial
gradient, curl, their adjoints, per-player restrictions and the graph
Laplacians.

The node-space operators need only the shape, never a graph.  Among them,
the Laplacian pseudoinverse solve is exact: the game-graph Laplacian is a
Kronecker sum of clique Laplacians, so any per-axis map that sends the
constants to row 0 and the mean-zero functions to the other rows
diagonalizes it, and the solve is one forward and one inverse transform,
one axis at a time, with no iterative method, no dense fallback and no
complex array.  Node functions lie on the last axis
of an array; :func:`laplacian_apply`, :func:`laplacian_pinv_solve` and the
demeaning :func:`project_player` (defined in :mod:`gamehodge.game`,
re-exported here) treat any leading axes as a batch, so many
games of one shape go through one vectorised pass.  One checked solve
serves :func:`laplacian_pinv_solve` and the decomposition kernel: it raises
if any row's residual misses its tolerance relative to that row's norm, or
that norm itself overflows.  The spectrum is built once per shape and memoised.

Edge operators read the clique layout, not index arrays: player m's flow is
a (C(h_m, 2), n/h_m) block of own-strategy pairs by opponent profiles, so a
gradient subtracts rows of a node function, a divergence adds them back, the
curl takes row slices and :meth:`GameGraph.clique_index` is arithmetic.

Inner products: plain dot product on node functions; on edge flows the sum
over ordered comparable pairs carries a 1/2 factor, which reduces to the dot
product of the stored per-edge values.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import accumulate, combinations
from typing import Sequence

import numpy as np

from .errors import NumericError, PreconditionError, ShapeError, _check_size
from .game import (
    _CHUNK, Game, _check_player, _check_tol, _checked_counts, _demean, _node_rows,
    _root_squares, profile_index, project_player,
)

__all__ = [
    "GameGraph",
    "EdgeFlow",
    "TriangleFlow",
    "build_graph",
    "pairwise_comparison",
    "gradient",
    "player_gradient",
    "divergence_adjoint",
    "player_divergence",
    "restrict_player",
    "curl",
    "project_player",
    "laplacian_apply",
    "laplacian_player_apply",
    "laplacian_pinv_solve",
    "node_inner",
    "flow_inner",
    "flow_to_dot",
]

# DOT export peaks near 19 bytes per edge (60^3, 19 116 000 edges), verify
# near 10: 3e7 admits 200x200, 2^20 and 60^3 and rejects 1000x1000; it caps triangles too
DEFAULT_EDGE_CAP = 3 * 10**7
_SOLVE_TOL = 1e-10  # residual bound of the Laplacian solve, relative to ||b||
# longest axis by a cached matrix (<= 32 KiB); a round trip by the matrix and
# one by the demeaning break even near h = 64 on (h, h) and near 128 on (h,)
_HELMERT_CUT = 64


class GameGraph:
    """Graph of comparable strategy profiles for a given shape.

    A shape descriptor with no per-edge array.  Edges and triangles
    (3-cliques) are grouped by player, then by own strategies in
    ``combinations`` order, then by opponent profile in C order, and run
    from the lower node id to the higher (``tails < heads``).
    """

    def __init__(self, strategy_counts: Sequence[int]):
        counts = _checked_counts(strategy_counts)
        n = math.prod(counts)
        sizes = [math.comb(h, 2) * (n // h) for h in counts]
        self.num_edges = _check_size(sum(sizes), "edges", DEFAULT_EDGE_CAP, "edge cap")
        self.strategy_counts = counts
        self.num_players = len(counts)
        self.num_nodes = n
        stops = list(accumulate(sizes, initial=0))
        self._player_slices = [slice(a, b) for a, b in zip(stops, stops[1:])]

    # -- structure ---------------------------------------------------------

    def player_slice(self, player: int) -> slice:
        """Range of edge ids belonging to one player's clique edges."""
        _check_player(player, self.num_players)
        return self._player_slices[player]

    @property
    def tails(self) -> np.ndarray:
        """Lower node id of every edge, in edge order; built on each read."""
        return self._cliques(2)[0]

    @property
    def heads(self) -> np.ndarray:
        """Higher node id of every edge, in edge order; built on each read."""
        return self._cliques(2)[1]

    def comparable(self, p: Sequence[int], q: Sequence[int]) -> int | None:
        """Deviating player if ``p`` and ``q`` are comparable, else None."""
        diff = [m for m, (a, b) in enumerate(zip(p, q)) if a != b]
        return diff[0] if len(diff) == 1 else None

    def node_index(self, profile: Sequence[int]) -> int:
        return profile_index(profile, self.strategy_counts)

    def clique_index(self, ids: Sequence[int]) -> int | None:
        """Position of the clique on node ``ids`` among the cliques of its size.

        With ``s = prod(h_{m+1:})``, node ``i`` has own strategy
        ``i // s % h`` and opponent index ``(i // (s*h))*s + i % s``; sorted
        own strategies ``c_0 < ... < c_{k-1}`` have lexicographic rank
        ``comb(h, k) - 1 - sum_x comb(h - 1 - c_x, k - x)``.  None when the
        nodes are not one clique.
        """
        k, n = len(ids), self.num_nodes
        offset, s = 0, n
        for h in self.strategy_counts:
            s //= h
            own = sorted({i // s % h for i in ids})
            opponents = {(i // (s * h)) * s + i % s for i in ids}
            if len(own) == k and len(opponents) == 1:
                rank = math.comb(h, k) - 1 - sum(
                    math.comb(h - 1 - c, k - x) for x, c in enumerate(own)
                )
                return offset + rank * (n // h) + opponents.pop()
            offset += math.comb(h, k) * (n // h)
        return None

    def edge_id(self, i: int, j: int) -> tuple[int, float]:
        """Edge id of the comparable node pair plus the orientation sign of (i, j)."""
        e = self.clique_index((i, j))
        if e is None:
            raise KeyError(f"nodes {i} and {j} are not comparable")
        return e, 1.0 if i < j else -1.0

    @property
    def num_triangles(self) -> int:
        n = self.num_nodes
        return sum(math.comb(h, 3) * (n // h) for h in self.strategy_counts)

    def triangles(self) -> np.ndarray:
        """All 3-cliques as an (T, 3) array of node ids, i < j < k per row, under the edge cap."""
        _check_size(self.num_triangles, "triangles", DEFAULT_EDGE_CAP, "edge cap")
        return self._cliques(3).T

    def _cliques(self, k: int) -> np.ndarray:
        """All k-cliques as a (k, C) array of sorted node ids, in index order."""
        ids = np.arange(self.num_nodes).reshape(self.strategy_counts)
        parts = []
        for m, h in enumerate(self.strategy_counts):
            own = np.array(list(combinations(range(h), k)), dtype=int).reshape(-1, k)
            rows = np.moveaxis(ids, m, 0).reshape(h, -1)
            parts.append(rows[own].transpose(1, 0, 2).reshape(k, -1))
        return np.concatenate(parts, axis=1)

    def __repr__(self) -> str:
        return (
            f"GameGraph(shape={self.strategy_counts}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


def build_graph(strategy_counts: Sequence[int]) -> GameGraph:
    """Construct the graph of comparable strategy profiles for a shape."""
    return GameGraph(strategy_counts)


class EdgeFlow:
    """Antisymmetric function on comparable profile pairs.

    One value is stored per undirected edge on the canonical orientation
    (lower profile index -> higher); evaluating against the orientation
    returns the negation, and non-comparable pairs are not representable.
    """

    def __init__(self, graph: GameGraph, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (graph.num_edges,):
            raise ShapeError(
                f"flow has {values.shape} values, graph has {graph.num_edges} edges"
            )
        self.graph = graph
        self.values = values

    def value(self, p, q) -> float:
        """Flow from ``p`` to ``q`` (node ids or coordinate tuples), by :func:`_alternating`.

        Zero for non-comparable pairs, per the definition of an edge flow.
        """
        return _alternating(self, (p, q))

    def __add__(self, other: "EdgeFlow") -> "EdgeFlow":
        _check_same_graph(self, other)
        return EdgeFlow(self.graph, self.values + other.values)

    def __sub__(self, other: "EdgeFlow") -> "EdgeFlow":
        _check_same_graph(self, other)
        return EdgeFlow(self.graph, self.values - other.values)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max(initial=0.0))

    def __repr__(self) -> str:
        return f"EdgeFlow({self.graph!r}, max|X|={self.max_abs():g})"


class TriangleFlow:
    """Alternating function on the 3-cliques of a game graph.

    One value per 3-clique on its sorted orientation, stored at the position
    :meth:`GameGraph.clique_index` gives it; no triangle list is kept.
    """

    def __init__(self, graph: GameGraph, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (graph.num_triangles,):
            raise ShapeError("one value per triangle required")
        self.graph = graph
        self.values = values

    def value(self, p, q, r) -> float:
        """Circulation around ``(p, q, r)`` by :func:`_alternating`; zero unless a 3-clique."""
        return _alternating(self, (p, q, r))

    def max_abs(self) -> float:
        return float(np.abs(self.values).max(initial=0.0))


def _alternating(flow: EdgeFlow | TriangleFlow, nodes) -> float:
    """``flow`` at ``nodes`` (ids or profiles): the value at the clique's position, stored
    for sorted order, negated per inversion of ``nodes``; zero unless they are one clique."""
    graph = flow.graph
    ids = [int(x) if isinstance(x, (int, np.integer)) else graph.node_index(x) for x in nodes]
    c = graph.clique_index(ids)
    if c is None:
        return 0.0
    return (-1) ** sum(a > b for a, b in combinations(ids, 2)) * float(flow.values[c])


# -- flows from games and node functions ------------------------------------


def _differences(counts: tuple[int, ...], functions) -> np.ndarray:
    """``f(head) - f(tail)`` over player m's edges for each ``(m, f)``, in edge order.

    Each player's block is written into its slice of the one flow array.
    """
    functions = list(functions)
    n = math.prod(counts)
    flow = np.empty(sum(math.comb(counts[m], 2) * (n // counts[m]) for m, _ in functions))
    start = 0
    for m, f in functions:
        rows = np.moveaxis(f.reshape(counts), m, 0).reshape(counts[m], -1)
        a, b = np.nonzero(~np.tri(counts[m], dtype=bool))  # own pairs, ``combinations`` order
        block = flow[start:start + a.size * rows.shape[1]].reshape(a.size, rows.shape[1])
        np.take(rows, b, axis=0, out=block, mode="clip")  # "raise" would buffer ``out``
        block -= rows[a]
        start += block.size
    return flow


def pairwise_comparison(game: Game, graph: GameGraph | None = None) -> EdgeFlow:
    """Flow ``u^m(q) - u^m(p)`` on every m-comparable pair (p, q); NumericError on overflow."""
    if graph is None:
        graph = build_graph(game.strategy_counts)
    elif graph.strategy_counts != game.strategy_counts:
        raise ShapeError("graph shape does not match game shape")
    values = _differences(game.strategy_counts, enumerate(game.utilities))
    if not np.isfinite(values).all():
        raise NumericError("a payoff difference overflowed")
    return EdgeFlow(graph, values)


def gradient(graph: GameGraph, phi) -> EdgeFlow:
    """Combinatorial gradient: ``(grad phi)(p, q) = phi(q) - phi(p)`` on edges."""
    phis = enumerate([_node_rows(graph.strategy_counts, np.ravel(phi))] * graph.num_players)
    return EdgeFlow(graph, _differences(graph.strategy_counts, phis))


def player_gradient(graph: GameGraph, player: int, phi) -> EdgeFlow:
    """Gradient restricted to one player's edges, zero elsewhere."""
    edges = graph.player_slice(player)  # checks the player first
    values = np.zeros(graph.num_edges)
    phi = _node_rows(graph.strategy_counts, np.ravel(phi))
    values[edges] = _differences(graph.strategy_counts, [(player, phi)])
    return EdgeFlow(graph, values)


def divergence_adjoint(flow: EdgeFlow) -> np.ndarray:
    """Adjoint of the gradient: ``(p) -> -sum_q X(p, q)``.

    The negative of this quantity is the net flow leaving each node, i.e.
    the divergence; it is the sum of :func:`player_divergence` over players.
    """
    return sum(player_divergence(flow, m) for m in range(flow.graph.num_players))


def player_divergence(flow: EdgeFlow, player: int) -> np.ndarray:
    """Adjoint of :func:`player_gradient`: the gradient adjoint over one player's edges."""
    graph = flow.graph
    return _divergence(graph.strategy_counts, player, flow.values[graph.player_slice(player)])


def _divergence(counts: tuple[int, ...], player: int, x: np.ndarray) -> np.ndarray:
    """:func:`player_divergence` of player ``player``'s block ``x`` of edge values.

    The pairs (a, a+1..h-1) are contiguous rows of the block: their sum
    leaves row a of the result, and each enters the row of its other end.
    """
    h = counts[player]
    block = x.reshape(-1, math.prod(counts) // h)
    out = np.zeros((h, block.shape[1]))
    for a, rows in enumerate(np.split(block, list(accumulate(range(h - 1, 1, -1))))):
        out[a] -= rows.sum(axis=0)
        out[a + 1:] += rows
    return np.moveaxis(out.reshape((h,) + counts[:player] + counts[player + 1:]), 0, player).ravel()


def restrict_player(flow: EdgeFlow, player: int) -> EdgeFlow:
    """Zero the flow outside one player's edges."""
    values = np.zeros_like(flow.values)
    s = flow.graph.player_slice(player)
    values[s] = flow.values[s]
    return EdgeFlow(flow.graph, values)


def curl(flow: EdgeFlow) -> TriangleFlow:
    """Circulation ``X(p,q) + X(q,r) + X(r,p)`` around every 3-clique (p, q, r).

    Player ``m``'s edges form a (pairs, n/h) array in which the rows (b, c)
    and the rows (a, c) after (a, b), all c > b, are contiguous; so each own
    pair (a, b) gives its triangles (a, b, c) as one row-slice block.
    :class:`SizeError` above ``DEFAULT_EDGE_CAP`` triangles, before any array.
    """
    graph, n = flow.graph, flow.graph.num_nodes
    values = np.empty(_check_size(graph.num_triangles, "triangles", DEFAULT_EDGE_CAP, "edge cap"))
    pos = 0
    for m, h in enumerate(graph.strategy_counts):
        x = flow.values[graph.player_slice(m)].reshape(-1, n // h)
        first = [a * h - a * (a + 1) // 2 for a in range(h + 1)]  # first row of pairs (a, .)
        for ab, (a, b) in enumerate(combinations(range(h), 2)):
            block = x[ab] + x[first[b]:first[b + 1]] - x[ab + 1:first[a + 1]]
            values[pos:pos + block.size] = block.ravel()
            pos += block.size
    return TriangleFlow(graph, values)


# -- node-space operators (shape-only, no graph needed) ----------------------


def laplacian_player_apply(strategy_counts: Sequence[int], player: int, phi) -> np.ndarray:
    """Laplacian of the subgraph of ``player``-comparable profiles.

    Equals ``h_m`` times :func:`project_player`, the per-player clique
    Laplacian acting blockwise.
    """
    projected = project_player(strategy_counts, player, phi)  # checks the counts first
    return strategy_counts[player] * projected


def laplacian_apply(strategy_counts: Sequence[int], phi) -> np.ndarray:
    """Graph Laplacian of the full game graph, applied matrix-free."""
    counts = _checked_counts(strategy_counts)
    return sum(laplacian_player_apply(counts, m, phi) for m in range(len(counts)))


@functools.lru_cache(maxsize=8)
def _spectrum(counts: tuple[int, ...]) -> np.ndarray:
    """Read-only Laplacian eigenvalues on the coefficient grid of :func:`_transform`.

    The zero eigenvalue of the constants is stored as ``inf``, so dividing
    by the spectrum maps them to zero.
    """
    spectrum = sum(
        np.where(np.arange(h) > 0, float(h), 0.0).reshape(
            [h if k == m else 1 for k in range(len(counts))]
        )
        for m, h in enumerate(counts)
    )
    spectrum.flat[0] = np.inf
    spectrum.flags.writeable = False
    return spectrum


def laplacian_pinv_solve(
    strategy_counts: Sequence[int], b, tol: float = _SOLVE_TOL
) -> np.ndarray:
    """Mean-zero solution of ``Laplacian(phi) = b``, solved exactly.

    The game graph is connected, so the Laplacian kernel is exactly the
    constants; ``b`` must therefore be orthogonal to constants.  The
    Laplacian is the Kronecker sum of the clique Laplacians
    ``h_m (I - J/h_m)``.  Any invertible map of each axis that sends the
    constants to coefficient 0 and the mean-zero functions to coefficients
    1..h_m-1 diagonalizes them, orthonormal or not; the solve uses the real
    Helmert matrix (Lancaster 1965, *The Helmert matrices*) on short axes
    and the demeaning itself, with the mean kept in coefficient 0, on long
    ones.  The spectrum is the DFT's: at multi-index ``k`` the eigenvalue is
    the sum of ``h_m`` over the players with ``k_m != 0``.  The solve
    divides the transform of ``b`` by it, with the zero eigenvalue (the
    constants) mapped to zero.

    The last axis of ``b`` holds the ``prod(strategy_counts)`` profiles;
    leading axes are a batch of right-hand sides, solved together by
    transforms over the trailing profile axes.  Both checks below hold row
    by row, and one failing row raises; ``b_c`` is ``b`` with its mean
    dropped, as in the decomposition kernel, whose solve this is.  Their
    norms are the row norms of ``gamehodge.game._root_squares``, which
    neither under- nor overflow unless the norm itself does, so the solve
    of ``2^k b`` is ``2^k`` times that of ``b`` over the whole exponent
    range.  A batch of no rows gives no rows.

    Raises
    ------
    ValueError
        if ``tol`` is negative or NaN.
    PreconditionError
        if a row of ``b`` has a mean component above ``tol * ||b||``.
    NumericError
        if a row's solution misses residual ``tol * ||b_c||``, or that
        norm itself overflows.
    """
    _check_tol(tol)
    counts = _checked_counts(strategy_counts)
    b = _node_rows(counts, b)
    if (np.abs(b.sum(axis=-1)) > tol * _root_squares(b)).any():
        raise PreconditionError(
            "right-hand side is not orthogonal to constants; "
            "it cannot be in the image of the Laplacian"
        )
    return _solve(counts, b, tol)[0]


def _solve(counts: tuple[int, ...], b: np.ndarray, tol: float = _SOLVE_TOL):
    """``(phi, P phi, r)`` for rows ``b``, orthogonal to constants, on the last axis.

    ``P phi`` is the demeaning of ``phi`` by each player, shape ``(..., M,
    n)``, through the unchecked core of :func:`project_player` (``counts``
    and ``b`` are the caller's, already checked), so ``Laplacian(phi) =
    sum_m h_m P_m phi``.  Raises via :func:`_check_residual` unless
    ``||b_c - Laplacian(phi)|| <= tol ||b_c||``, ``b_c`` being ``b`` less its
    rounding-level mean; ``r = b - Laplacian(phi)``.
    """
    mean = b.sum(axis=-1, keepdims=True) / b.shape[-1]
    b = b - mean
    phi = _pinv_transform(counts, b)
    p_phi = np.empty(phi.shape[:-1] + (len(counts), phi.shape[-1]))
    for m in range(len(counts)):
        p_phi[..., m, :] = _demean(counts, m, phi)
    r = b - np.asarray(counts, dtype=float) @ p_phi
    _check_residual(_root_squares(r), tol * _root_squares(b))
    r += mean
    return phi, p_phi, r


def _pinv_transform(counts: tuple[int, ...], b: np.ndarray) -> np.ndarray:
    """Mean-zero ``pinv(Laplacian) b`` by one transform each way, rows along the last axis.

    No check: ``b`` should already be orthogonal to constants.
    """
    x = _transform(counts, b, inverse=False) / _spectrum(counts).ravel()
    x = _transform(counts, x, inverse=True)
    return x - x.sum(axis=-1, keepdims=True) / b.shape[-1]


def _transform(counts: tuple[int, ...], x: np.ndarray, inverse: bool) -> np.ndarray:
    """Coefficients of the node functions on the last axis of ``x``, or their inverse.

    Each axis gets an invertible map that sends the constants to row 0 and
    the functions of mean zero to rows 1..h-1, so it diagonalizes the clique
    Laplacian ``h (I - J/h)`` with eigenvalues ``(0, h, ..., h)``.  Up to
    ``_HELMERT_CUT`` that map is the cached orthonormal Helmert matrix; above
    it, the demeaning itself, with the mean kept in row 0.  Axis m is the
    middle axis of a ``(-1, h_m, rest)`` reshape; axes of size one are the
    identity and are skipped.  A new array unless every axis is.
    """
    shape = x.shape
    pre, post = math.prod(shape[:-1]), shape[-1]
    for h in counts:
        post //= h
        if h > 1:
            fibres = x.reshape(pre, h, post)
            if h <= _HELMERT_CUT:
                matrix = _helmert_matrix(h).T if inverse else _helmert_matrix(h)
                # the last axis as one product of rows, not a stack of products
                x = np.matmul(matrix, fibres) if post > 1 else fibres[..., 0] @ matrix.T
            elif inverse:
                x = fibres + fibres[:, :1]
                x[:, :1] = fibres[:, :1] - fibres[:, 1:].sum(axis=1, keepdims=True)
            else:
                mean = fibres.sum(axis=1, keepdims=True) / h
                x = fibres - mean
                x[:, :1] = mean
        pre *= h
    return x.reshape(shape)


@functools.lru_cache(maxsize=None)
def _helmert_matrix(h: int) -> np.ndarray:
    """Read-only h x h orthonormal Helmert matrix: row 0 constant, row k ``(1^k, -k, 0)``."""
    k = np.arange(1, h)
    matrix = np.tri(h, h, -1)
    matrix[k, k] = -k
    matrix[0] = 1.0
    matrix /= np.sqrt(np.append(h, k * (k + 1.0)))[:, None]
    matrix.flags.writeable = False
    return matrix


def _check_residual(residual: np.ndarray, target: np.ndarray) -> None:
    """Raise :class:`NumericError` on the first row whose residual exceeds its target or
    is NaN, or whose target overflowed (it would pass any residual; the error then has none).

    Both are row norms of :func:`gamehodge.game._root_squares`, one per
    right-hand side, so a tiny row's residual and target do not both
    vanish, and a target is inf only when the norm of its right-hand side
    exceeds the float maximum.
    """
    missed = ~(residual <= target) | np.isinf(target)
    if missed.any():
        k = int(np.argmax(missed))  # the first failing row, in C order
        if math.isfinite(target.flat[k]):
            reason = f"residual {residual.flat[k]:.3e} exceeds {target.flat[k]:.3e}"
            value = float(residual.flat[k])
        else:
            reason, value = "the norm of its right-hand side overflowed", None
        raise NumericError(
            f"Laplacian solve missed its tolerance: {reason}"
            + (f" in row {k}" if residual.ndim > 0 else ""),
            residual=value,
        )


# -- inner products ----------------------------------------------------------


def node_inner(f, g) -> float:
    """Inner product on node functions: plain dot product."""
    return float(np.dot(np.ravel(f), np.ravel(g)))


def flow_inner(x: EdgeFlow, y: EdgeFlow) -> float:
    """Inner product on flows: half the sum over ordered comparable pairs."""
    _check_same_graph(x, y)
    return float(np.dot(x.values, y.values))


def _check_same_graph(x: EdgeFlow, y: EdgeFlow) -> None:
    if x.graph.strategy_counts != y.graph.strategy_counts:
        raise ShapeError("flows live on different graphs")


# -- DOT export ---------------------------------------------------------------


def _arrows(flow: EdgeFlow, zero_tol: float):
    """``(tails, heads, magnitudes)`` of the edges with ``|value| > zero_tol``, along the flow.

    In edge order, ``_CHUNK`` edges at a time.  Player m's edge ``i`` is
    own pair ``(a, b)`` number ``i // (n/h)`` at opponent profile
    ``o = i % (n/h)``; with ``s = prod(h_{m+1:})`` it runs from ``base + a*s``
    to ``base + b*s``, where ``base = (o // s)*s*h + o % s``.
    """
    n = s = flow.graph.num_nodes
    for m, h in enumerate(flow.graph.strategy_counts):
        s //= h
        a, b = np.triu_indices(h, 1)  # the own pairs in combinations order
        span = flow.graph.player_slice(m)
        for start in range(span.start, span.stop, _CHUNK):
            x = flow.values[start:min(start + _CHUNK, span.stop)]
            keep = np.flatnonzero(np.abs(x) > zero_tol)
            x = x[keep]
            pair, o = np.divmod(keep + (start - span.start), n // h)
            base = o // s * (s * h) + o % s
            tail, head = np.where(x < 0, b[pair], a[pair]), np.where(x < 0, a[pair], b[pair])
            yield base + tail * s, base + head * s, np.abs(x)


# a label as a DOT quoted string, as JSON quotes it: ``"`` and ``\`` escaped, a newline as \n
_quoted = json.JSONEncoder(ensure_ascii=False).encode


def _dot_chunks(flow: EdgeFlow, node_labels: Sequence[str], zero_tol: float):
    """The DOT text of :func:`flow_to_dot`: the nodes, then ``_CHUNK`` arrows at a time."""
    yield "digraph flow {\n"
    yield "".join(
        f"  n{i} [label={_quoted(str(label))}];\n" for i, label in enumerate(node_labels)
    )
    for arrows in _arrows(flow, zero_tol):
        rows = zip(*(a.tolist() for a in arrows))
        yield "".join(f'  n{i} -> n{j} [label="{v:.12g}"];\n' for i, j, v in rows)
    yield "}\n"


def flow_to_dot(
    flow: EdgeFlow, node_labels: Sequence[str] | None = None, zero_tol: float = 0.0
) -> str:
    """Render a flow as a DOT digraph.

    Each edge with ``|value| > zero_tol`` becomes, in edge order, one arrow
    along the positive (payoff-improving) flow, labeled with its magnitude.
    ``node_labels`` needs one label per node, or :class:`ShapeError`; each
    is written as a quoted string, its ``"``, ``\\`` and newlines escaped.
    """
    n = flow.graph.num_nodes
    if node_labels is None:
        profiles = np.ndindex(flow.graph.strategy_counts)
        node_labels = ["(" + ",".join(map(str, p)) + ")" for p in profiles]
    elif len(node_labels) != n:
        raise ShapeError(f"{len(node_labels)} node labels given for {n} nodes")
    return "".join(_dot_chunks(flow, node_labels, zero_tol))
