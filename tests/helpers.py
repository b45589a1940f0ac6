"""Shared helpers and frozen expected values for the test suite."""

import re

import numpy as np

from gamehodge import Game, pairwise_comparison, profile_of_index

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


def dominated_by_pairs(u):
    """Weak domination of each column of (M, n) payoffs ``u``, tested against every other."""
    payoffs = u.T
    return np.array(
        [bool(np.any(np.all(payoffs >= p, axis=1) & np.any(payoffs > p, axis=1))) for p in payoffs],
        dtype=bool,
    ).reshape(u.shape[1])


def pareto_by_pairs(g):
    """Pareto-optimal profiles, each payoff vector tested against every other."""
    return [
        profile_of_index(int(i), g.strategy_counts)
        for i in np.flatnonzero(~dominated_by_pairs(g.utilities))
    ]


def overflowing_game(scale=1.7e308):
    """A random 3x3 game with payoffs up to ``scale``.

    At the default, near the float maximum, the kernel's sums overflow and
    so does the norm of its solve's right-hand side.  At smaller scales the
    squares inside the norms may overflow, but the norms do not.
    """
    return Game(np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, 9)) * scale, (3, 3))


def relabelled(game, rng):
    """The same game with each player's strategies in a random order."""
    perms = [rng.permutation(h) for h in game.strategy_counts]
    u = [game.tensor(m)[np.ix_(*perms)].ravel() for m in range(game.num_players)]
    return Game(np.stack(u), game.strategy_counts)


def awkward_game():
    """A 3x4 game whose payoffs and labels exercise the corners of the JSON text:
    floats that print in exponent form or with many digits, -0.0, the
    smallest subnormal, and names that need escapes or non-ASCII letters."""
    u = [
        [1e16, 1e15, 123456789012.0, -0.0, 1e-5, 2.5e-7, 3.0, 5e-324, 0.1, 1 / 3, -2 / 3, 7e-3],
        [-0.0, 5e-324, 3.0, 2.5e-7, -1e-5, 123456789012.0, -1e15, 1e16, 7.0, 0.5, -1 / 7, 0.0],
    ]
    return Game(
        u,
        (3, 4),
        player_names=["Zo\u00eb", 'pi "q" \\'],
        strategy_labels=[["a", "\u00df", "\n"], ["x", "y", "\u2603", ""]],
    )


def slowest_mode_potential(rng, counts, scale=1.0):
    """An exact potential game whose potential varies along the smallest
    player's axis, the Laplacian's slowest mode, plus uniform noise; every
    player's payoff is the potential."""
    axis = np.indices(counts)[int(np.argmin(counts))]
    phi = np.cos(np.pi * axis / axis.max()) + 1e-3 * rng.uniform(-1.0, 1.0, counts)
    return Game(np.tile(scale * phi.ravel(), (len(counts), 1)), counts)


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


def refuse_calls(monkeypatch, modules, *names):
    """Make each of ``names`` in each of ``modules`` fail the test when it is called."""

    def refuse(*args, **kwargs):
        raise AssertionError("refused call")

    for module in modules:
        for name in names:
            monkeypatch.setattr(module, name, refuse, raising=False)


def reconstruction_error(game, d):
    """Largest entry of ``u - (u_P + u_H + u_N)`` over a decomposition's parts."""
    parts = d.potential_part.utilities + d.harmonic_part.utilities + d.nonstrategic_part.utilities
    return float(np.abs(game.utilities - parts).max())


def assert_games_close(g1, g2, tol=1e-9):
    assert g1.strategy_counts == g2.strategy_counts
    assert np.abs(g1.utilities - g2.utilities).max(initial=0.0) <= tol


def flow_of(game):
    return pairwise_comparison(game)


# -- DOT node lines --------------------------------------------------------------

# a node line whose label is a DOT quoted string: no bare `"` or `\`, every
# backslash starting an escape
DOT_NODE_LINE = re.compile(r'^  n([0-9]+) \[label="((?:[^"\\]|\\.)*)"\];$')


def dot_node_labels(dot):
    """``{node: label}`` from a DOT document's node lines, each un-escaped as Graphviz
    reads a label: ``\\n`` is a newline and a backslash before any other character
    stands for that character.  Fails on a node line off the quoted-string grammar."""
    labels = {}
    for line in dot.split("\n"):
        if re.match(r"  n[0-9]+ \[", line):  # a node, not an arrow ``n1 -> n2``
            match = DOT_NODE_LINE.match(line)
            assert match, f"node line off the DOT grammar: {line!r}"
            label = re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], match[2])
            labels[int(match[1])] = label
    return labels
