"""Self-test of the span tracer on one traced op of the game-analysis workload.

Run from the repository root: ``python3 -m pytest perfbench/test_tracer.py``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import COUNTS, END, NAME, OP, PARENT, START, Tracer  # noqa: E402


def traced_op(item):
    wl = workloads.GameAnalysis("small-games", 0)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            wl.run(item)
    finally:
        tracer.uninstall()
    return tracer


def harmonic_item():
    u = workloads.generated_game(np.random.default_rng(7), (3, 4), "harmonic")
    return workloads.GameItem("harmonic-3x4", (3, 4), u, u)


def test_spans_nest_and_self_times_sum_to_the_op():
    tracer = traced_op(harmonic_item())
    spans = tracer.spans
    assert spans[0][NAME] == "op" and spans[0][PARENT] == -1
    assert len(spans) > 50
    for i, s in enumerate(spans[1:], start=1):
        parent = spans[s[PARENT]]
        assert 0 <= s[PARENT] < i
        assert parent[START] <= s[START] <= s[END] <= parent[END]
        assert s[OP] == 0
    wall = spans[0][END] - spans[0][START]
    selfs = tracer.self_times()
    assert min(selfs) >= -1e-9
    assert abs(sum(selfs) - wall) <= 1e-6 * max(1.0, wall)
    names = {s[NAME] for s in spans}
    assert {"decompose.decompose", "flows.curl", "flows.laplacian_pinv_solve",
            "equilibria.harmonic_correlated_system", "game.Game.__init__"} <= names


def test_install_covers_imported_names_and_uninstall_restores():
    import importlib

    import gamehodge

    # the package attribute `decompose` is the function; the module is in sys.modules
    decompose_module = importlib.import_module("gamehodge.decompose")
    flows = importlib.import_module("gamehodge.flows")

    before = (gamehodge.decompose, decompose_module.curl, flows.curl, gamehodge.Game.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        during = (gamehodge.decompose, decompose_module.curl, flows.curl, gamehodge.Game.__init__)
        assert all(a is not b for a, b in zip(before, during))
        assert during[1] is during[2]
    finally:
        tracer.uninstall()
    after = (gamehodge.decompose, decompose_module.curl, flows.curl, gamehodge.Game.__init__)
    assert all(a is b for a, b in zip(before, after))


def test_counts_repeat_exactly():
    item = harmonic_item()
    first, second = traced_op(item).per_op(), traced_op(item).per_op()
    for name in COUNTS:
        assert first[name] == second[name], name
    assert first["decompose.calls"] >= 7
    assert first["flows.triangles"] > 0 and first["flows.graph_edges"] > 0
