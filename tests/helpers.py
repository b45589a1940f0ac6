"""Shared helpers and frozen expected values for the test suite."""

import numpy as np

from gamehodge import Game, pairwise_comparison

# -- Expected components of the generalized RPS game, as closed-form matrices --


def rps_nonstrategic(x, y, z):
    col = np.array([x - y, z - x, y - z], dtype=float)
    return np.tile(col, (3, 1)), np.tile(col.reshape(3, 1), (1, 3))


def rps_potential(x, y, z):
    f = np.array([y - x, x - z, z - y], dtype=float)
    return np.tile(f.reshape(3, 1), (1, 3)), np.tile(f, (3, 1))


def rps_harmonic(x, y, z):
    s = x + y + z
    h = s * np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    return h, -h


# -- Directed potential / harmonic flows of the road-sharing game --------------
# Keys are (from_profile, to_profile) in (s, d1, d2) coordinates; values are
# the flow magnitudes in the arrow direction.  Edges absent from both maps
# carry zero flow.

ROAD_POTENTIAL_FLOWS = {
    ((0, 0, 0), (1, 0, 0)): 2.0,
    ((0, 0, 0), (0, 1, 0)): 1.0,
    ((0, 0, 0), (0, 0, 1)): 1.0,
    ((1, 1, 1), (1, 1, 0)): 1.0,
    ((1, 1, 1), (1, 0, 1)): 1.0,
    ((1, 1, 1), (0, 1, 1)): 2.0,
    ((1, 0, 1), (1, 0, 0)): 1.0,
    ((1, 1, 0), (1, 0, 0)): 1.0,
    ((0, 0, 1), (0, 1, 1)): 1.0,
    ((0, 1, 0), (0, 1, 1)): 1.0,
}

ROAD_HARMONIC_FLOWS = {
    ((0, 0, 0), (1, 0, 0)): 2.0,
    ((1, 0, 0), (1, 1, 0)): 2.0,
    ((1, 1, 0), (1, 1, 1)): 2.0,
    ((1, 1, 1), (0, 1, 1)): 2.0,
    ((0, 1, 1), (0, 0, 1)): 2.0,
    ((0, 0, 1), (0, 0, 0)): 2.0,
}


def random_game(rng, counts, scale=1.0):
    m = len(counts)
    n = int(np.prod(counts))
    return Game(rng.uniform(-scale, scale, size=(m, n)), counts)


def nonstrategic_payoffs(rng, counts):
    """Random payoffs that ignore each player's own strategy."""
    rows = []
    for m in range(len(counts)):
        block = rng.uniform(-1.0, 1.0, size=[1 if k == m else h for k, h in enumerate(counts)])
        rows.append(np.broadcast_to(block, counts).ravel())
    return np.stack(rows)


def assert_flow_equals(flow, directed_values, tol=1e-9):
    """Flow must equal the given directed map and vanish on unlisted edges."""
    graph = flow.graph
    seen = set()
    for (p, q), label in directed_values.items():
        assert abs(flow.value(p, q) - label) <= tol, (p, q, flow.value(p, q), label)
        e, _ = graph.edge_id(graph.node_index(p), graph.node_index(q))
        seen.add(e)
    for e in range(graph.num_edges):
        if e not in seen:
            assert abs(flow.values[e]) <= tol, (e, flow.values[e])


def assert_games_close(g1, g2, tol=1e-9):
    assert g1.strategy_counts == g2.strategy_counts
    assert np.abs(g1.utilities - g2.utilities).max(initial=0.0) <= tol


def flow_of(game):
    return pairwise_comparison(game)
