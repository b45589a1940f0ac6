"""The benchmark's workloads: seeded inputs, the op each input goes through,
and the checks of each op's output against ``reference``.

A workload holds a fixed list of items.  A run makes a fixed number of
passes over that list; the op of each item is timed alone, and its output is
checked after the timed passes (the first pass's output in full, later
passes for exact equality with the first).
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import gamehodge as gh
from gamehodge import catalog

import reference as ref


def same(a, b) -> bool:
    """Exact equality of op outputs (arrays, games, dataclasses, containers)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, gh.Game):
        return a.strategy_counts == b.strategy_counts and np.array_equal(a.utilities, b.utilities)
    if dataclasses.is_dataclass(a):
        return same(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


# -- generated games ----------------------------------------------------------------


def _nonstrategic(rng, shape) -> np.ndarray:
    """Payoffs that ignore each player's own strategy."""
    rows = []
    for m in range(len(shape)):
        block = rng.uniform(-1.0, 1.0, size=[1 if k == m else h for k, h in enumerate(shape)])
        rows.append(np.broadcast_to(block, shape).ravel())
    return np.stack(rows)


def generated_game(rng, shape, kind: str) -> np.ndarray:
    """Payoff array of a random, exact-potential or harmonic game."""
    shape = tuple(shape)
    n, m = math.prod(shape), len(shape)
    if kind == "random":
        return rng.uniform(-1.0, 1.0, size=(m, n))
    if kind == "potential":
        return np.tile(rng.uniform(-1.0, 1.0, size=n), (m, 1)) + _nonstrategic(rng, shape)
    if kind == "harmonic":
        _, _, u_h, _ = ref.parts(shape, rng.uniform(-1.0, 1.0, size=(m, n)))
        return u_h + _nonstrategic(rng, shape)
    raise ValueError(kind)


@dataclasses.dataclass
class GameItem:
    label: str
    shape: tuple
    u: np.ndarray
    base: np.ndarray  # the same game at scale 1; its class is the expected one
    known_fault: bool = False

    def __post_init__(self):
        self.game = gh.Game(self.u, self.shape)
        self._ref = None

    @property
    def ref(self):
        """(phi, u_P, u_H, u_N, is potential, is harmonic), computed once."""
        if self._ref is None:
            self._ref = (*ref.parts(self.shape, self.u), *ref.classify(self.shape, self.base))
        return self._ref


def _catalog_items() -> list[GameItem]:
    games = {
        "matching-pennies": catalog.matching_pennies(),
        "battle-of-sexes": catalog.battle_of_sexes(),
        "modified-battle-of-sexes": catalog.modified_battle_of_sexes(),
        "rps": catalog.generalized_rps(1 / 3, 1 / 3, 1 / 3),
        "road-sharing": catalog.road_sharing(),
        "cyclic-three-player": catalog.cyclic_three_player(),
    }
    items = [GameItem(k, g.strategy_counts, g.utilities, g.utilities) for k, g in games.items()]
    # Known fault: absolute floors max(1, norm) in is_potential, is_harmonic,
    # potential_function and the Laplacian solve misjudge tiny games.
    for k in ("matching-pennies", "battle-of-sexes"):
        g = games[k]
        items.append(GameItem(f"{k}-x1e-12", g.strategy_counts, g.utilities * 1e-12, g.utilities, True))
    return items


def _generated_items(rng, plan) -> list[GameItem]:
    items = []
    for shape, kinds in plan:
        for kind in kinds:
            u = generated_game(rng, shape, kind)
            items.append(GameItem(f"{kind}-{'x'.join(map(str, shape))}", tuple(shape), u, u))
    return items


RPH = ("random", "potential", "harmonic")
SMALL_PLAN = [((2, 2), RPH), ((2, 3), RPH), ((3, 3), RPH), ((2, 2, 2), RPH), ((4, 4), RPH),
              ((3, 3, 3), RPH), ((2,) * 5, RPH), ((3,) * 4, RPH)]
MID_PLAN = [((10, 10), RPH), ((15, 15), ("random", "harmonic")), ((20, 20), ("random", "potential")),
            ((8, 8, 8), RPH), ((4,) * 4, RPH), ((2,) * 10, ("random", "potential")),
            ((2,) * 12, ("random", "potential"))]


# -- workloads ------------------------------------------------------------------------


class GameAnalysis:
    """small-games / mid-games: one game through the public analysis API."""

    def __init__(self, name: str, seed: int):
        rng = np.random.default_rng([seed, 1 if name == "small-games" else 2])
        if name == "small-games":
            self.items = _catalog_items() + _generated_items(rng, SMALL_PLAN)
        else:
            self.items = _generated_items(rng, MID_PLAN)

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        for kind in ("random", "harmonic"):
            u = generated_game(rng, (3, 3), kind)
            self.run(GameItem("warm-up", (3, 3), u, u))

    def run(self, item: GameItem):
        g = item.game
        d = gh.decompose(g)
        closest = gh.closest_potential(g)
        pot, eps = gh.epsilon_transfer_bound(g)
        report = gh.equilibrium_report(g, eps=eps)
        return d, closest, pot, eps, report, gh.is_potential(g), gh.is_harmonic(g), gh.potential_function(g)

    def check(self, item: GameItem, out) -> list[str]:
        d, closest, pot, eps, report, is_pot, is_harm, pf = out
        shape, u = item.shape, item.u
        phi_r, p_r, h_r, n_r, want_pot, want_harm = item.ref
        scale = float(np.abs(u).max())
        tol = 1e-8 * scale
        faults = ref.decomposition_faults(
            shape, u, d.potential_fn, d.potential_part.utilities,
            d.harmonic_part.utilities, d.nonstrategic_part.utilities,
        )
        faults += ref.compare_faults("phi", d.potential_fn, phi_r, tol)
        faults += ref.compare_faults("potential part", d.potential_part.utilities, p_r, tol)
        faults += ref.compare_faults("harmonic part", d.harmonic_part.utilities, h_r, tol)
        faults += ref.compare_faults("nonstrategic part", d.nonstrategic_part.utilities, n_r, tol)
        faults += ref.compare_faults("closest_potential", closest.utilities, u - h_r, tol)
        faults += ref.compare_faults("transfer game", pot.utilities, u - h_r, tol)
        want_eps = ref.transfer_epsilon(shape, h_r)
        if not abs(eps - want_eps) <= 1e-8 * max(want_eps, scale):
            faults.append(f"epsilon {eps!r} != {want_eps!r}")
        if is_pot != want_pot or is_harm != want_harm:
            faults.append(f"classified (potential, harmonic) = {(is_pot, is_harm)}, want {(want_pot, want_harm)}")
        if want_pot and (pf is None or ref.compare_faults("potential_function", pf, phi_r, tol)):
            faults.append("potential_function missing or wrong on a potential game")
        if not want_pot and pf is not None:
            faults.append("potential_function returned a potential for a non-potential game")

        nash = ref.epsilon_profiles(shape, u, 0.0)
        faults += _report_faults(report, shape, u, eps, nash, want_harm)
        if want_pot and not nash:
            faults.append("potential game without a pure Nash equilibrium")
        if want_harm and not ref.uniform_is_nash(shape, u, 1e-9 * scale):
            faults.append("uniform profile is not a Nash equilibrium of a harmonic game")
        slack = eps * (1 + 1e-9) + 1e-12 * scale
        loose = set(ref.epsilon_profiles(shape, u, slack))
        stray = [p for p in ref.epsilon_profiles(shape, pot.utilities, 0.0) if p not in loose]
        if stray:
            faults.append(f"Nash equilibria of the closest potential game not eps-equilibria: {stray[:3]}")
        return faults


def _report_faults(report, shape, u, eps, nash, want_harm) -> list[str]:
    """Check an equilibrium_report dict (from the API or the CLI)."""
    faults = []
    as_lists = lambda ps: [list(p) for p in ps]  # noqa: E731
    if report["pure_nash"] != as_lists(nash):
        faults.append("pure_nash differs from brute force")
    if report["epsilon_equilibria"] != as_lists(ref.epsilon_profiles(shape, u, eps)):
        faults.append("epsilon_equilibria differ from brute force")
    if report["pareto_optimal"] != as_lists(ref.pareto_profiles(shape, u)):
        faults.append("pareto_optimal differs from brute force")
    if report["uniform_mixed_is_ne"] != ref.uniform_is_nash(shape, u, 1e-9):
        faults.append("uniform_mixed_is_ne differs from the direct check")
    dim = report["correlated_dim"]
    if (dim is not None) != want_harm:
        faults.append(f"correlated_dim {dim} on a game whose harmonic flag is {want_harm}")
    elif dim is not None and not 0 <= dim < math.prod(shape):
        faults.append(f"correlated_dim {dim} out of range")
    return faults


class SubspaceDims:
    """subspace-dims: rank-measured dimensions against the closed forms."""

    EMPIRICAL = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 4), (4, 4), (2, 2, 3), (5, 5), (3, 3, 3), (6, 6), (8, 8)]
    TABLES = list(range(1, 9))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        seeds = rng.integers(0, 2**31, size=len(self.EMPIRICAL) + len(self.TABLES))
        self.items = [("empirical", s, int(k)) for s, k in zip(self.EMPIRICAL, seeds)]
        self.items += [("table", h, int(k)) for h, k in zip(self.TABLES, seeds[len(self.EMPIRICAL):])]

    def warm_up(self) -> None:
        gh.empirical_dims((2, 2), seed=0)
        gh.zs_ii_intersection_dims(2, seed=0)

    def run(self, item):
        kind, arg, seed = item
        if kind == "empirical":
            return gh.empirical_dims(arg, seed=seed)
        return gh.zs_ii_intersection_dims(arg, seed=seed)

    def check(self, item, out) -> list[str]:
        kind, arg, _ = item
        if kind == "empirical":
            want = ref.subspace_dims(arg)
            return [] if tuple(out) == want else [f"empirical_dims{arg} = {out}, want {want}"]
        want = ref.zs_ii_table(arg)
        if out.closed_form == want and out.computed == want and out.agrees is True:
            return []
        return [f"zs/ii table h={arg}: closed {out.closed_form}, computed {out.computed}"]


CLI_FILES = [("battle-of-sexes", None), ("road-sharing", None), ("potential", (2, 3, 4)),
             ("harmonic", (6, 6)), ("random", (12, 12))]
CLI_COMMANDS = ["decompose", "project", "distance", "equilibria", "pareto", "verify", "export-flow"]
CLI_EPS = 0.25


class Cli:
    """cli: one gamehodge process per op, on game JSON files written at set-up."""

    def __init__(self, seed: int, workdir: str, in_process: bool = False):
        self.in_process = in_process
        self.workdir = workdir
        rng = np.random.default_rng([seed, 4])
        catalog_games = {"battle-of-sexes": catalog.battle_of_sexes(), "road-sharing": catalog.road_sharing()}
        self.items = []
        os.makedirs(workdir, exist_ok=True)
        for i, (label, shape) in enumerate(CLI_FILES):
            if shape is None:
                g = catalog_games[label]
                shape, u = g.strategy_counts, g.utilities
            else:
                u = generated_game(rng, shape, label)
            game = GameItem(label, tuple(shape), u, u)
            path = os.path.join(workdir, f"{label}.json")
            with open(path, "w") as fh:
                json.dump(
                    {"players": [{"name": f"p{m}", "strategies": [str(s) for s in range(h)]} for m, h in enumerate(shape)],
                     "utilities": u.tolist()},
                    fh,
                )
            target = "potential" if i % 2 == 0 else "harmonic"
            for cmd in CLI_COMMANDS:
                argv = [cmd, path]
                argv += {"project": ["--onto", target], "distance": ["--to", target],
                         "equilibria": ["--eps", str(CLI_EPS)], "export-flow": ["--format", "json"]}.get(cmd, [])
                self.items.append((argv, game))
        self.items.append((["dims", "2", "3,3"], None))
        self.items.append((["dims", "3", "2,3,4", "--format", "json"], None))

    def warm_up(self) -> None:
        self.startup()

    def startup(self) -> float:
        """Wall seconds of one `gamehodge --version` process."""
        t = time.perf_counter()
        subprocess.run([sys.executable, "-m", "gamehodge.cli", "--version"],
                       check=True, capture_output=True, timeout=60)
        return time.perf_counter() - t

    def run(self, item):
        argv, _ = item
        if self.in_process:
            cli = importlib.import_module("gamehodge.cli")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "gamehodge.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, item, out) -> list[str]:
        argv, game = item
        rc, text = out
        if rc != 0:
            return [f"{argv[0]} exited {rc}"]
        try:
            return _cli_faults(argv, game, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{argv[0]}: unparseable output ({exc!r})"]


def _cli_faults(argv, item: GameItem | None, text: str) -> list[str]:
    cmd = argv[0]
    if cmd == "dims":
        counts = tuple(int(x) for x in argv[2].split(","))
        p, h, n = ref.subspace_dims(counts)
        if "--format" in argv:
            want = {"potential": p, "harmonic": h, "nonstrategic": n, "potential_games": p + n, "harmonic_games": h + n}
            return [] if json.loads(text) == want else [f"dims json {text.strip()}"]
        return [] if text == f"P={p} H={h} N={n}\n" else [f"dims text {text.strip()}"]

    shape, u = item.shape, item.u
    phi_r, p_r, h_r, n_r, _, want_harm = item.ref
    scale = float(np.abs(u).max())
    tol = 1e-9 * scale  # outputs carry 12 significant digits
    utilities = lambda doc: np.array(doc["utilities"], dtype=float)  # noqa: E731
    if cmd == "decompose":
        doc = json.loads(text)
        parts = [utilities(doc[k]) for k in ("potential", "harmonic", "nonstrategic")]
        phi = np.array(doc["phi"], dtype=float)
        faults = ref.decomposition_faults(shape, u, phi, *parts)
        for name, got, want in zip(("phi", "potential", "harmonic", "nonstrategic"), [phi, *parts], [phi_r, p_r, h_r, n_r]):
            faults += ref.compare_faults(name, got, want, tol)
        return faults
    if cmd == "project":
        drop = h_r if argv[3] == "potential" else p_r
        return ref.compare_faults("projection", utilities(json.loads(text)), u - drop, tol)
    if cmd == "distance":
        want = ref.h_norm(shape, h_r if argv[3] == "potential" else p_r)
        got = float(text)
        return [] if abs(got - want) <= 1e-9 * ref.h_norm(shape, u) else [f"distance {got!r}, want {want!r}"]
    if cmd == "equilibria":
        nash = ref.epsilon_profiles(shape, u, 0.0)
        return _report_faults(json.loads(text), shape, u, CLI_EPS, nash, want_harm)
    if cmd == "pareto":
        doc = json.loads(text)
        want = {"pure_nash": ref.epsilon_profiles(shape, u, 0.0), "pareto_optimal": ref.pareto_profiles(shape, u)}
        return [f"{k} differs from brute force" for k in want if doc[k] != [list(p) for p in want[k]]]
    if cmd == "verify":
        last = text.strip().splitlines()[-1]
        passed, total = last.split()[0].split("/")
        return [] if passed == total else [f"verify: {last}"]
    if cmd == "export-flow":
        got = {(tuple(e["from"]), tuple(e["to"])): e["value"] for e in json.loads(text)["edges"]}
        want = _improvement_edges(shape, u)
        if got.keys() != want.keys():
            return [f"export-flow edges differ: {len(got)} vs {len(want)}"]
        err = max((abs(got[k] - want[k]) for k in want), default=0.0)
        return [] if err <= tol else [f"export-flow values differ by {err:.3e}"]
    raise ValueError(cmd)


def _improvement_edges(shape, u) -> dict:
    """{(from, to): gain} over comparable pairs with a nonzero payoff change."""
    tensors = [u[m].reshape(shape) for m in range(len(shape))]
    edges = {}
    for p in np.ndindex(*shape):
        for m, h in enumerate(shape):
            for b in range(p[m] + 1, h):
                q = p[:m] + (b,) + p[m + 1:]
                v = float(tensors[m][q] - tensors[m][p])
                if v > 0:
                    edges[(p, q)] = v
                elif v < 0:
                    edges[(q, p)] = -v
    return edges

