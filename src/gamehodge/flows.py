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
array; :func:`laplacian_apply`, :func:`laplacian_pinv_solve` and the
demeaning :func:`project_player` (defined in :mod:`gamehodge.game`,
re-exported here) treat any leading axes as a batch, so many
games of one shape go through one vectorised pass.  The solve checks its
precondition and its residual row by row, each relative to that row's norm,
and raises if any row fails; the Laplacian spectrum is built once per shape
and memoised read-only.

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
import math
from itertools import accumulate, combinations
from typing import Sequence

import numpy as np

from .errors import NumericError, PreconditionError, ShapeError, SizeError
from .game import Game, profile_index, project_player

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

# DOT export peaks near 62 bytes per edge (60^3, 19 116 000 edges), verify
# near 10: 3e7 admits 200x200, 2^20 and 60^3 and rejects 1000x1000
DEFAULT_EDGE_CAP = 3 * 10**7
_DOT_CHUNK = 1 << 16  # arrows per chunk: bounds the Python strings DOT export holds
_SOLVE_TOL = 1e-10  # residual bound of the Laplacian solve, relative to ||b||


class GameGraph:
    """Graph of comparable strategy profiles for a given shape.

    A shape descriptor with no per-edge array.  Edges and triangles
    (3-cliques) are grouped by player, then by own strategies in
    ``combinations`` order, then by opponent profile in C order, and run
    from the lower node id to the higher (``tails < heads``).
    """

    def __init__(self, strategy_counts: Sequence[int]):
        counts = tuple(int(h) for h in strategy_counts)
        if len(counts) < 1 or any(h < 1 for h in counts):
            raise ShapeError(f"invalid strategy counts {counts}")
        n = math.prod(counts)
        sizes = [math.comb(h, 2) * (n // h) for h in counts]
        if sum(sizes) > DEFAULT_EDGE_CAP:
            raise SizeError(f"{sum(sizes)} edges exceed the edge cap {DEFAULT_EDGE_CAP}")

        self.strategy_counts = counts
        self.num_players = len(counts)
        self.num_nodes = n
        self.num_edges = sum(sizes)
        stops = list(accumulate(sizes, initial=0))
        self._player_slices = [slice(a, b) for a, b in zip(stops, stops[1:])]

    # -- structure ---------------------------------------------------------

    def player_slice(self, player: int) -> slice:
        """Range of edge ids belonging to one player's clique edges."""
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
        """All 3-cliques as an (T, 3) array of node ids, i < j < k per row."""
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


def _differences(counts: tuple[int, ...], functions) -> np.ndarray:
    """``f(head) - f(tail)`` over player m's edges for each ``(m, f)``, in edge order."""
    blocks = []
    for m, f in functions:
        rows = np.moveaxis(f.reshape(counts), m, 0).reshape(counts[m], -1)
        a, b = np.nonzero(~np.tri(counts[m], dtype=bool))  # own pairs, ``combinations`` order
        blocks.append((rows[b] - rows[a]).ravel())
    return np.concatenate(blocks)


def pairwise_comparison(game: Game, graph: GameGraph | None = None) -> EdgeFlow:
    """Flow assigning ``u^m(q) - u^m(p)`` to every m-comparable pair (p, q)."""
    if graph is None:
        graph = build_graph(game.strategy_counts)
    elif graph.strategy_counts != game.strategy_counts:
        raise ShapeError("graph shape does not match game shape")
    return EdgeFlow(graph, _differences(game.strategy_counts, enumerate(game.utilities)))


def gradient(graph: GameGraph, phi) -> EdgeFlow:
    """Combinatorial gradient: ``(grad phi)(p, q) = phi(q) - phi(p)`` on edges."""
    phis = enumerate([_as_node_array(graph, phi)] * graph.num_players)
    return EdgeFlow(graph, _differences(graph.strategy_counts, phis))


def player_gradient(graph: GameGraph, player: int, phi) -> EdgeFlow:
    """Gradient restricted to one player's edges, zero elsewhere."""
    phi = _as_node_array(graph, phi)
    values = np.zeros(graph.num_edges)
    values[graph.player_slice(player)] = _differences(graph.strategy_counts, [(player, phi)])
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
    """
    graph, n = flow.graph, flow.graph.num_nodes
    values = np.empty(graph.num_triangles)
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
    strategy_counts: Sequence[int], b, tol: float = _SOLVE_TOL
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
    ValueError
        if ``tol`` is negative or NaN.
    PreconditionError
        if a row of ``b`` has a mean component above ``tol * ||b||``.
    NumericError
        if a row's solution misses residual ``tol * ||b||``.

    The decomposition kernel runs :func:`_pinv_transform` alone and checks
    the residual with the Laplacian it already holds.
    """
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
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
    x = _pinv_transform(counts, b)
    _check_residual(_row_norms(laplacian_apply(counts, x) - b), tol * bnorm)
    return x


def _pinv_transform(counts: tuple[int, ...], b: np.ndarray) -> np.ndarray:
    """Mean-zero ``pinv(Laplacian) b`` by the DFT, rows along the last axis.

    No check: ``b`` should already be orthogonal to constants.
    """
    # passing the sizes with the axes keeps numpy from rebuilding them per call
    axes = tuple(range(-len(counts), 0))
    x = np.fft.fftn(b.reshape(b.shape[:-1] + counts), s=counts, axes=axes)
    x /= _spectrum(counts)
    x = np.fft.ifftn(x, s=counts, axes=axes).real.reshape(b.shape)
    return x - x.sum(axis=-1, keepdims=True) / b.shape[-1]


def _check_residual(residual: np.ndarray, target: np.ndarray) -> None:
    """Raise :class:`NumericError` on the first row whose residual exceeds its target."""
    missed = residual > target
    if missed.any():
        k = int(np.argmax(missed))  # the first failing row, in C order
        raise NumericError(
            f"Laplacian solve missed its tolerance: residual {residual.flat[k]:.3e} "
            f"exceeds {target.flat[k]:.3e}" + (f" in row {k}" if residual.ndim > 0 else ""),
            residual=float(residual.flat[k]),
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


def _arrows(flow: EdgeFlow, zero_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tails, heads, magnitudes)`` of the edges with ``|value| > zero_tol``, along the flow."""
    keep = np.abs(flow.values) > zero_tol
    values, ends = flow.values[keep], flow.graph._cliques(2)[:, keep]
    back = values < 0
    ends[:, back] = ends[::-1, back]
    return ends[0], ends[1], np.abs(values)


def _dot_chunks(flow: EdgeFlow, node_labels: Sequence[str], zero_tol: float):
    """The DOT text of :func:`flow_to_dot`: the nodes, then ``_DOT_CHUNK`` arrows at a time."""
    yield "digraph flow {\n"
    yield "".join(f'  n{i} [label="{label}"];\n' for i, label in enumerate(node_labels))
    arrows = _arrows(flow, zero_tol)
    for start in range(0, arrows[0].size, _DOT_CHUNK):
        rows = zip(*(a[start:start + _DOT_CHUNK].tolist() for a in arrows))
        yield "".join(f'  n{i} -> n{j} [label="{v:.12g}"];\n' for i, j, v in rows)
    yield "}\n"


def flow_to_dot(
    flow: EdgeFlow, node_labels: Sequence[str] | None = None, zero_tol: float = 0.0
) -> str:
    """Render a flow as a DOT digraph.

    Each edge with ``|value| > zero_tol`` becomes, in edge order, one arrow
    along the positive (payoff-improving) flow, labeled with its magnitude.
    """
    if node_labels is None:
        profiles = np.ndindex(flow.graph.strategy_counts)
        node_labels = ["(" + ",".join(map(str, p)) + ")" for p in profiles]
    return "".join(_dot_chunks(flow, node_labels, zero_tol))
