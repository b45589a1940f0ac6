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
Kronecker sum of clique Laplacians, so the multidimensional DFT diagonalizes
it and the solve is one forward and one inverse FFT, with no iterative
method and no dense fallback.  Node functions lie on the last axis of an
array; :func:`project_player`, :func:`laplacian_apply` and
:func:`laplacian_pinv_solve` treat any leading axes as a batch, so many
games of one shape go through one vectorised pass.  The solve checks its
precondition and its residual row by row, each relative to that row's norm,
and raises if any row fails; the Laplacian spectrum is built once per shape
and memoised read-only.

Edges and triangles are positioned by arithmetic on the clique layout
(:meth:`GameGraph.clique_index`); no dict or triangle list is kept, and the
curl is computed a row slice per own-strategy pair.

Inner products: plain dot product on node functions; on edge flows the sum
over ordered comparable pairs carries a 1/2 factor, which reduces to the dot
product of the stored per-edge values.
"""

from __future__ import annotations

import functools
import math
import os
from itertools import accumulate, combinations
from typing import Sequence

import numpy as np

from .errors import NumericError, PreconditionError, ShapeError, SizeError
from .game import Game, profile_index

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

DEFAULT_NODE_CAP = 10**7


class GameGraph:
    """Graph of comparable strategy profiles for a given shape.

    Edges are stored as parallel ``tails``/``heads`` node-index arrays with
    ``tails < heads`` elementwise (the canonical orientation).  Edges and
    triangles (3-cliques) live inside one player's clique and share one
    layout: grouped by player, then by own strategies in ``combinations``
    order, each group raveled over the opponent profiles in C order.  This
    layout lets the operators below run as plain array arithmetic, and
    :meth:`clique_index` computes any position from it, so no lookup table
    over edges or triangles is kept.
    """

    def __init__(self, strategy_counts: Sequence[int], node_cap: int | None = None):
        counts = tuple(int(h) for h in strategy_counts)
        if len(counts) < 1 or any(h < 1 for h in counts):
            raise ShapeError(f"invalid strategy counts {counts}")
        if node_cap is None:
            node_cap = int(os.environ.get("GAMEHODGE_MAX_NODES", DEFAULT_NODE_CAP))
        n = math.prod(counts)
        if n > node_cap:
            raise SizeError(f"{n} profiles exceed the node cap {node_cap}")

        self.strategy_counts = counts
        self.num_players = len(counts)
        self.num_nodes = n

        self._node_ids = np.arange(n).reshape(counts)
        self.tails, self.heads = self._cliques(2)
        self.num_edges = self.tails.size
        sizes = [math.comb(h, 2) * (n // h) for h in counts]
        self._player_slices = [
            slice(stop - size, stop) for size, stop in zip(sizes, accumulate(sizes))
        ]

    # -- structure ---------------------------------------------------------

    def player_slice(self, player: int) -> slice:
        """Range of edge ids belonging to one player's clique edges."""
        return self._player_slices[player]

    def edges_of_player(self, player: int) -> tuple[np.ndarray, np.ndarray]:
        s = self._player_slices[player]
        return self.tails[s], self.heads[s]

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
        """All 3-cliques as an (T, 3) array of node ids, i < j < k per row."""
        return self._cliques(3).T

    def _cliques(self, k: int) -> np.ndarray:
        """All k-cliques as a (k, C) array of sorted node ids, in index order."""
        parts = [np.zeros((k, 0), dtype=int)]
        for m, h in enumerate(self.strategy_counts):
            rows = np.moveaxis(self._node_ids, m, 0).reshape(h, -1)
            own = np.array(list(combinations(range(h), k)), dtype=int).reshape(-1, k)
            parts.append(rows[own].transpose(1, 0, 2).reshape(k, -1))
        return np.concatenate(parts, axis=1)

    def __repr__(self) -> str:
        return (
            f"GameGraph(shape={self.strategy_counts}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


def build_graph(strategy_counts: Sequence[int], node_cap: int | None = None) -> GameGraph:
    """Construct the graph of comparable strategy profiles for a shape."""
    return GameGraph(strategy_counts, node_cap)


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
        """Flow from ``p`` to ``q`` (node ids or coordinate tuples).

        Zero for non-comparable pairs, per the definition of an edge flow.
        """
        i = p if isinstance(p, (int, np.integer)) else self.graph.node_index(p)
        j = q if isinstance(q, (int, np.integer)) else self.graph.node_index(q)
        try:
            e, sign = self.graph.edge_id(int(i), int(j))
        except KeyError:
            return 0.0
        return sign * float(self.values[e])

    def __add__(self, other: "EdgeFlow") -> "EdgeFlow":
        return EdgeFlow(self.graph, self.values + other.values)

    def __sub__(self, other: "EdgeFlow") -> "EdgeFlow":
        return EdgeFlow(self.graph, self.values - other.values)

    def __mul__(self, scalar: float) -> "EdgeFlow":
        return EdgeFlow(self.graph, self.values * scalar)

    __rmul__ = __mul__

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
        """Alternating evaluation; zero when the nodes are not a 3-clique."""
        ids = [
            int(x) if isinstance(x, (int, np.integer)) else self.graph.node_index(x)
            for x in (p, q, r)
        ]
        t = self.graph.clique_index(ids)
        if t is None:
            return 0.0
        # parity of the permutation taking sorted order to the given order
        order = sorted(ids)
        perm = [order.index(x) for x in ids]
        sign = 1.0 if perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1]) else -1.0
        return sign * float(self.values[t])

    def max_abs(self) -> float:
        return float(np.abs(self.values).max(initial=0.0))


# -- flows from games and node functions ------------------------------------


def _as_node_array(graph: GameGraph, phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float).ravel()
    if phi.shape != (graph.num_nodes,):
        raise ShapeError(f"node function must have {graph.num_nodes} entries")
    return phi


def pairwise_comparison(game: Game, graph: GameGraph | None = None) -> EdgeFlow:
    """Flow assigning ``u^m(q) - u^m(p)`` to every m-comparable pair (p, q)."""
    if graph is None:
        graph = build_graph(game.strategy_counts)
    elif graph.strategy_counts != game.strategy_counts:
        raise ShapeError("graph shape does not match game shape")
    blocks = []
    for m in range(game.num_players):
        t = game.tensor(m)
        for a, b in combinations(range(game.strategy_counts[m]), 2):
            blocks.append((t.take(b, axis=m) - t.take(a, axis=m)).ravel())
    values = np.concatenate(blocks) if blocks else np.zeros(0)
    return EdgeFlow(graph, values)


def gradient(graph: GameGraph, phi) -> EdgeFlow:
    """Combinatorial gradient: ``(grad phi)(p, q) = phi(q) - phi(p)`` on edges."""
    phi = _as_node_array(graph, phi)
    return EdgeFlow(graph, phi[graph.heads] - phi[graph.tails])


def player_gradient(graph: GameGraph, player: int, phi) -> EdgeFlow:
    """Gradient restricted to one player's edges, zero elsewhere."""
    phi = _as_node_array(graph, phi)
    values = np.zeros(graph.num_edges)
    s = graph.player_slice(player)
    values[s] = phi[graph.heads[s]] - phi[graph.tails[s]]
    return EdgeFlow(graph, values)


def divergence_adjoint(flow: EdgeFlow) -> np.ndarray:
    """Adjoint of the gradient: ``(p) -> -sum_q X(p, q)``.

    The negative of this quantity is the net flow leaving each node, i.e.
    the divergence.
    """
    graph = flow.graph
    out = np.zeros(graph.num_nodes)
    np.subtract.at(out, graph.tails, flow.values)
    np.add.at(out, graph.heads, flow.values)
    return out


def player_divergence(flow: EdgeFlow, player: int) -> np.ndarray:
    """Adjoint of :func:`player_gradient`: the gradient adjoint over one player's edges."""
    graph = flow.graph
    out = np.zeros(graph.num_nodes)
    s = graph.player_slice(player)
    np.subtract.at(out, graph.tails[s], flow.values[s])
    np.add.at(out, graph.heads[s], flow.values[s])
    return out


def restrict_player(flow: EdgeFlow, player: int) -> EdgeFlow:
    """Zero the flow outside one player's edges."""
    values = np.zeros_like(flow.values)
    s = flow.graph.player_slice(player)
    values[s] = flow.values[s]
    return EdgeFlow(flow.graph, values)


def curl(flow: EdgeFlow) -> TriangleFlow:
    """Circulation ``X(p,q) + X(q,r) + X(r,p)`` around every 3-clique (p, q, r)."""
    values = np.empty(flow.graph.num_triangles)
    pos = 0
    for block in _curl_blocks(flow):
        values[pos:pos + block.size] = block.ravel()
        pos += block.size
    return TriangleFlow(flow.graph, values)


def _curl_blocks(flow: EdgeFlow):
    """Yield the curl one own-strategy pair at a time, in triangle order.

    Player ``m``'s edges form a (pairs, n/h) array in which the rows (b, c)
    and the rows (a, c) after (a, b), all c > b, are contiguous; so each own
    pair (a, b) gives its triangles (a, b, c) as one row-slice block.  A
    caller that needs only a summary of the curl holds one block at a time.
    """
    graph, n = flow.graph, flow.graph.num_nodes
    for m, h in enumerate(graph.strategy_counts):
        x = flow.values[graph.player_slice(m)].reshape(-1, n // h)
        first = [a * h - a * (a + 1) // 2 for a in range(h + 1)]  # first row of pairs (a, .)
        for ab, (a, b) in enumerate(combinations(range(h), 2)):
            yield x[ab] + x[first[b]:first[b + 1]] - x[ab + 1:first[a + 1]]


# -- node-space operators (shape-only, no graph needed) ----------------------


def project_player(strategy_counts: Sequence[int], player: int, u) -> np.ndarray:
    """Remove the per-opponent-block mean over ``player``'s own strategies.

    This is the orthogonal projection onto the complement of the functions
    that ignore the player's own strategy; it is idempotent and self-adjoint,
    and for a one-strategy player it is identically zero.  The last axis of
    ``u`` holds the ``prod(strategy_counts)`` profiles; leading axes are a
    batch, projected row by row.
    """
    counts = tuple(strategy_counts)
    u = np.asarray(u, dtype=float)
    t = u.reshape(u.shape[:-1] + counts)
    # sum / h is the mean, without the Python-level overhead of ndarray.mean
    mean = t.sum(axis=player - len(counts), keepdims=True) / counts[player]
    return (t - mean).reshape(u.shape)


def laplacian_player_apply(strategy_counts: Sequence[int], player: int, phi) -> np.ndarray:
    """Laplacian of the subgraph of ``player``-comparable profiles.

    Equals ``h_m`` times :func:`project_player`, the per-player clique
    Laplacian acting blockwise.
    """
    h = strategy_counts[player]
    return h * project_player(strategy_counts, player, phi)


def laplacian_apply(strategy_counts: Sequence[int], phi) -> np.ndarray:
    """Graph Laplacian of the full game graph, applied matrix-free."""
    return sum(
        laplacian_player_apply(strategy_counts, m, phi) for m in range(len(strategy_counts))
    )


@functools.lru_cache(maxsize=8)
def _spectrum(counts: tuple[int, ...]) -> np.ndarray:
    """Read-only Laplacian eigenvalues on the DFT grid of ``counts``.

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


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row along the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", a, a))


def laplacian_pinv_solve(
    strategy_counts: Sequence[int], b, tol: float = 1e-10
) -> np.ndarray:
    """Mean-zero solution of ``Laplacian(phi) = b``, solved exactly.

    The game graph is connected, so the Laplacian kernel is exactly the
    constants; ``b`` must therefore be orthogonal to constants.  The
    Laplacian is the Kronecker sum of the clique Laplacians
    ``h_m (I - J/h_m)``, which the multidimensional DFT diagonalizes: at
    multi-index ``k`` its eigenvalue is the sum of ``h_m`` over the players
    with ``k_m != 0``.  The solve divides the transform of ``b`` by that
    spectrum, with the zero eigenvalue (the constants) mapped to zero.

    The last axis of ``b`` holds the ``prod(strategy_counts)`` profiles;
    leading axes are a batch of right-hand sides, solved together by
    transforms over the trailing profile axes.  Both checks below hold row
    by row, relative to that row's norm, and one failing row raises.

    Raises
    ------
    PreconditionError
        if a row of ``b`` has a mean component above ``tol * ||b||``.
    NumericError
        if a row's solution misses residual ``tol * ||b||``.
    """
    counts = tuple(strategy_counts)
    n = math.prod(counts)
    b = np.asarray(b, dtype=float)
    if b.shape[-1:] != (n,):
        raise ShapeError(f"right-hand side must have {n} entries on its last axis")
    bnorm = _row_norms(b)
    total = b.sum(axis=-1)
    if (np.abs(total) > tol * bnorm).any():
        raise PreconditionError(
            "right-hand side is not orthogonal to constants; "
            "it cannot be in the image of the Laplacian"
        )
    b = b - (total / n)[..., None]

    # passing the sizes with the axes keeps numpy from rebuilding them per call
    axes = tuple(range(-len(counts), 0))
    x = np.fft.fftn(b.reshape(b.shape[:-1] + counts), s=counts, axes=axes)
    x /= _spectrum(counts)
    x = np.fft.ifftn(x, s=counts, axes=axes).real.reshape(b.shape)

    target = tol * bnorm
    residual = _row_norms(laplacian_apply(counts, x) - b)
    missed = residual > target
    if missed.any():
        k = int(np.argmax(missed))  # the first failing row, in C order
        raise NumericError(
            f"Laplacian solve missed its tolerance: residual {residual.flat[k]:.3e} "
            f"exceeds {target.flat[k]:.3e}" + (f" in row {k}" if b.ndim > 1 else ""),
            residual=float(residual.flat[k]),
        )
    return x - x.sum(axis=-1, keepdims=True) / n


# -- inner products ----------------------------------------------------------


def node_inner(f, g) -> float:
    """Inner product on node functions: plain dot product."""
    return float(np.dot(np.ravel(f), np.ravel(g)))


def flow_inner(x: EdgeFlow, y: EdgeFlow) -> float:
    """Inner product on flows: half the sum over ordered comparable pairs."""
    if x.graph.strategy_counts != y.graph.strategy_counts:
        raise ShapeError("flows live on different graphs")
    return float(np.dot(x.values, y.values))


# -- DOT export ---------------------------------------------------------------


def flow_to_dot(
    flow: EdgeFlow,
    node_labels: Sequence[str] | None = None,
    zero_tol: float = 0.0,
) -> str:
    """Render a flow as a DOT digraph.

    Each edge with a nonzero value becomes one arrow pointing in the
    positive-flow (payoff-improvement) direction, labeled with the magnitude.
    """
    graph = flow.graph
    if node_labels is None:
        node_labels = [
            "(" + ",".join(map(str, p)) + ")"
            for p in np.ndindex(*graph.strategy_counts)
        ]
    lines = ["digraph flow {"]
    for i, label in enumerate(node_labels):
        lines.append(f'  n{i} [label="{label}"];')
    for e in range(graph.num_edges):
        v = flow.values[e]
        if abs(v) <= zero_tol:
            continue
        i, j = int(graph.tails[e]), int(graph.heads[e])
        if v < 0:
            i, j = j, i
        lines.append(f'  n{i} -> n{j} [label="{abs(v):.12g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
