"""Every size cap, at its count and one below it.

Each cap compares one count, fixed by the strategy counts, with a module
constant.  Set to the exact count, the capped call runs; set one below it,
the call raises ``SizeError`` in the one message form before the module
makes any array (its ``np`` is replaced by a stand-in whose every call fails).
"""

import numpy as np
import pytest

import gamehodge
from gamehodge import (
    AffineSolutionSet,
    EdgeFlow,
    Game,
    SizeError,
    build_graph,
    curl,
    empirical_dims,
    harmonic_correlated_system,
    pareto_optimal,
)
from helpers import random_game


class NoArrays:
    """Stands in for numpy in one module: every call through it fails."""

    def __getattr__(self, name):
        def fail(*args, **kwargs):
            raise AssertionError(f"np.{name} called")

        return fail


def _edges():
    return [lambda: build_graph((3, 3))]


def _triangles():
    graph = build_graph((3, 3))
    flow = EdgeFlow(graph, np.zeros(graph.num_edges))
    return [lambda: curl(flow), graph.triangles]


def _correlated_system():
    # (2^2 * 3 + 1) x 8 entries; the early check of harmonic_correlated_system
    # and the one where the stacked system is allocated
    zero = Game(np.zeros((3, 8)), (2, 2, 2))
    return [
        lambda: harmonic_correlated_system(zero).equalities,
        lambda: AffineSolutionSet(zero, 1e-9, 7).equalities,
    ]


def _pareto():
    game = random_game(np.random.default_rng(5), (2, 2, 2))  # n^2 (M - 1) = 64 * 2
    return [lambda: pareto_optimal(game)]


def _traces():
    return [lambda: empirical_dims((3, 3))]  # M n^2 = 2 * 81


CAPS = {
    "edges": (gamehodge.flows, "DEFAULT_EDGE_CAP", "edges", "edge cap", 18, _edges),
    "triangles": (gamehodge.flows, "DEFAULT_EDGE_CAP", "triangles", "edge cap", 6, _triangles),
    "correlated": (
        gamehodge.equilibria,
        "CORRELATED_SYSTEM_CAP",
        "correlated system entries",
        "system cap",
        104,
        _correlated_system,
    ),
    "pareto": (
        gamehodge.equilibria, "PARETO_WORK_CAP", "Pareto pair tests", "work cap", 128, _pareto
    ),
    "traces": (
        gamehodge.subspaces, "_TRACE_WORK_CAP", "unit-game entries", "work cap", 162, _traces
    ),
}


@pytest.mark.parametrize("cap", CAPS)
def test_runs_at_the_cap_and_raises_one_below(monkeypatch, cap):
    module, constant, what, name, count, calls = CAPS[cap]
    calls = calls()

    monkeypatch.setattr(module, constant, count)
    for call in calls:
        call()

    monkeypatch.setattr(module, constant, count - 1)
    monkeypatch.setattr(module, "np", NoArrays())
    for call in calls:
        with pytest.raises(SizeError) as exc:
            call()
        assert str(exc.value) == f"{what}: {count} exceed the {name} {count - 1}"
