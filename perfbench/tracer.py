"""In-memory span tracer wrapped around gamehodge from the outside.

``Tracer.install()`` replaces every public function of each gamehodge module
with a timing wrapper, at every module attribute that names it (so
``gamehodge.decompose.curl`` is wrapped as well as ``gamehodge.flows.curl``),
plus a few constructors and methods.  Each call records one span
``[name, start, end, parent, op, work]``: ``parent`` is the index of the
enclosing span (-1 at the top), ``op`` the id of the benchmark op it belongs
to, and ``work`` a size recorded after the call (edges of a new graph,
triangles of a new curl) or None.  The package's source is never touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager

MODULES = ("game", "flows", "decompose", "equilibria", "subspaces", "catalog", "cli")

# (module, class, method) -> work recorded from the instance after the call
METHODS = {
    ("game", "Game", "__init__"): None,
    ("flows", "GameGraph", "__init__"): lambda self: self.num_edges,
    ("flows", "GameGraph", "triangles"): None,
    ("flows", "TriangleFlow", "__init__"): lambda self: int(self.values.size),
}

# per-layer metric -> span names whose self time it sums
TIME_GROUPS = {
    "game.construct_ms": ["game.Game.__init__"],
    "game.json_ms": [
        "game.load_game",
        "game.save_game",
        "game.game_to_dict",
        "game.game_from_dict",
        "decompose.decomposition_to_dict",
    ],
    "flows.curl_ms": ["flows.curl", "flows.TriangleFlow.__init__", "flows.GameGraph.triangles"],
    "flows.graph_ms": ["flows.build_graph", "flows.GameGraph.__init__"],
    "flows.pairwise_ms": ["flows.pairwise_comparison"],
    "flows.divergence_ms": ["flows.divergence_adjoint", "flows.player_divergence"],
    "flows.demean_ms": ["flows.project_player", "flows.laplacian_player_apply"],
    "flows.solve_ms": ["flows.laplacian_pinv_solve", "flows.laplacian_apply"],
    "decompose.self_ms": ["decompose.decompose"],
    "decompose.api_ms": [
        "decompose.closest_potential",
        "decompose.closest_harmonic",
        "decompose.is_potential",
        "decompose.is_harmonic",
        "decompose.potential_function",
        "decompose.game_norm",
        "decompose.game_inner",
        "decompose.game_distance",
    ],
    "equilibria.pareto_ms": ["equilibria.pareto_optimal", "equilibria.pareto_align_transform"],
    "equilibria.correlated_ms": [
        "equilibria.harmonic_correlated_system",
        "equilibria.is_correlated_equilibrium",
    ],
    "equilibria.pure_ms": ["equilibria.pure_nash", "equilibria.epsilon_equilibria"],
    "equilibria.mixed_ms": [
        "equilibria.is_mixed_nash",
        "equilibria.mixed_utility",
        "equilibria.deviation_payoffs",
        "equilibria.uniformly_mixed",
    ],
    "subspaces.rank_ms": ["subspaces.numeric_rank"],
}

# per-layer metric -> span-name prefix; spans of that module not in a group above
PREFIX_GROUPS = {"subspaces.self_ms": "subspaces.", "cli.self_ms": "cli."}

# per-layer count -> (span name, "calls" or "work")
COUNTS = {
    "game.constructs": ("game.Game.__init__", "calls"),
    "decompose.calls": ("decompose.decompose", "calls"),
    "flows.laplacian_applies": ("flows.laplacian_apply", "calls"),
    "flows.triangles": ("flows.TriangleFlow.__init__", "work"),
    "flows.graph_edges": ("flows.GameGraph.__init__", "work"),
}

NAME, START, END, PARENT, OP, WORK = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if work is not None:
                    self.spans[idx][WORK] = work(args[0])
                return out
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span ("op") of one benchmark op; spans opened inside carry its id."""
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("gamehodge")
        modules = {name: importlib.import_module(f"gamehodge.{name}") for name in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[fn] = self._wrap(fn, f"{short}.{attr}")
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        for (short, cls_name, meth), work in METHODS.items():
            cls = getattr(modules[short], cls_name)
            fn = vars(cls)[meth]
            self._set(cls, meth, self._wrap(fn, f"{short}.{cls_name}.{meth}", work))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reading ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def per_op(self) -> dict:
        """Per-layer metrics averaged over the traced ops (ms or counts per op)."""
        ops = {s[OP] for s in self.spans if s[OP] >= 0}
        n_ops = max(len(ops), 1)
        selfs = self.self_times()
        by_name: dict[str, list] = {}
        for s, st in zip(self.spans, selfs):
            entry = by_name.setdefault(s[NAME], [0.0, 0, 0])
            entry[0] += st
            entry[1] += 1
            entry[2] += s[WORK] or 0
        out = {}
        grouped = set()
        for metric, names in TIME_GROUPS.items():
            out[metric] = sum(by_name.get(n, (0.0,))[0] for n in names) * 1e3 / n_ops
            grouped.update(names)
        for metric, prefix in PREFIX_GROUPS.items():
            total = sum(v[0] for n, v in by_name.items() if n.startswith(prefix) and n not in grouped)
            out[metric] = total * 1e3 / n_ops
        for metric, (name, kind) in COUNTS.items():
            calls, work = by_name.get(name, (0.0, 0, 0))[1:]
            out[metric] = (calls if kind == "calls" else work) / n_ops
        return out

    def dump(self, path, **meta) -> None:
        base = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[START] - base, s[END] - base, s[PARENT], s[OP], s[WORK]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op", "work"], "spans": rows}, fh)
