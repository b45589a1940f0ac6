"""Command-line front end.

Subcommands: decompose, project, equilibria, pareto, distance, dims, verify,
export-flow.  Exit codes: 0 success, 1 verification failure, 2 parse error,
3 numeric error, 4 precondition violation.  All numeric output is printed
with 12 significant digits.  Only ``export-flow`` and ``verify`` build the
game graph, a shape descriptor with no index arrays.  ``verify`` builds no
array over the whole graph: it reads the game's flow identities off payoff
arrays, tests the edge operators one player's block of edges at a time, and
takes the curl's maximum one own-strategy pair at a time, so no array holds
one value per edge or triangle.  ``export-flow`` writes its DOT or JSON text
a fixed number of arrows at a time.  The graph's one size cap, 3x10^7
edges, bounds those two commands alone; above it they exit 4.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Iterable

import numpy as np

from . import __version__
from .decompose import (
    _max_curl,
    _spread,
    closest_harmonic,
    closest_potential,
    decompose,
    decomposition_to_dict,
    game_distance,
    game_norm,
)
from .equilibria import equilibrium_report, pareto_align_transform, pareto_optimal, pure_nash
from .errors import (
    GameFormatError,
    NumericError,
    PreconditionError,
    ShapeError,
    SizeError,
)
from .flows import (
    _DOT_CHUNK,
    _arrows,
    _differences,
    _divergence,
    _dot_chunks,
    build_graph,
    pairwise_comparison,
    project_player,
)
from .game import game_to_dict, is_normalized, load_game, normalize
from .subspaces import subspace_dims, verify_normalized_harmonic

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_PRECONDITION = 4


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round12(v) for v in obj]
    return obj


def _emit_text(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, or each string ``text`` yields, to ``out`` or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit(data, out: str | None) -> None:
    _emit_text(json.dumps(_round12(data), indent=2) + "\n", out)


def _profile_labels(game) -> list[str]:
    return ["(" + ",".join(p) + ")" for p in itertools.product(*game.strategy_labels)]


# -- subcommands -----------------------------------------------------------------


def cmd_decompose(args) -> int:
    game = load_game(args.input)
    d = decompose(game)
    _emit(decomposition_to_dict(d), args.out)
    return EXIT_OK


def cmd_project(args) -> int:
    game = load_game(args.input)
    proj = closest_potential(game) if args.onto == "potential" else closest_harmonic(game)
    _emit(game_to_dict(proj), args.out)
    return EXIT_OK


def cmd_equilibria(args) -> int:
    game = load_game(args.input)
    _emit(equilibrium_report(game, eps=args.eps, tol=args.tol), args.out)
    return EXIT_OK


def cmd_pareto(args) -> int:
    game = load_game(args.input)
    if args.transform:
        transformed = pareto_align_transform(game)
        _emit(game_to_dict(transformed), args.out)
    else:
        _emit(
            {
                "pure_nash": [list(p) for p in pure_nash(game)],
                "pareto_optimal": [list(p) for p in pareto_optimal(game)],
            },
            args.out,
        )
    return EXIT_OK


def cmd_distance(args) -> int:
    game = load_game(args.input)
    target = closest_potential(game) if args.to == "potential" else closest_harmonic(game)
    alpha = game_distance(game, target)
    if args.out:
        _emit({"to": args.to, "distance": alpha}, args.out)
    else:
        print(_fmt(alpha))
    return EXIT_OK


def cmd_dims(args) -> int:
    try:
        counts = tuple(int(tok) for tok in args.strategies.split(","))
    except ValueError:
        raise GameFormatError(f"cannot parse strategy counts {args.strategies!r}")
    if len(counts) != args.players:
        raise GameFormatError(
            f"{args.players} players declared but {len(counts)} strategy counts given"
        )
    dims = subspace_dims(counts)
    if args.format == "json":
        _emit(dims._asdict(), args.out)
    else:
        _emit_text(f"P={dims.potential} H={dims.harmonic} N={dims.nonstrategic}\n", args.out)
    return EXIT_OK


def cmd_export_flow(args) -> int:
    game = load_game(args.input)
    flow = pairwise_comparison(game)
    if args.format == "json":
        _emit_text(_json_chunks(flow), args.out)
    else:
        _emit_text(_dot_chunks(flow, _profile_labels(game), 0.0), args.out)
    return EXIT_OK


def _json_chunks(flow):
    """The ``export-flow`` JSON document, ``{"edges": [...]}``, in chunks.

    Each chunk of ``_DOT_CHUNK`` arrows is dumped alone, its brackets
    stripped and its lines indented one level further, so the text is what
    ``_emit`` writes for the whole list, and no string holds all of it.
    """
    arrows = _arrows(flow, 0.0)
    if arrows[0].size == 0:
        yield '{\n  "edges": []\n}\n'
        return
    yield '{\n  "edges": [\n'
    for start in range(0, arrows[0].size, _DOT_CHUNK):
        tails, heads, values = (a[start:start + _DOT_CHUNK] for a in arrows)
        froms, tos = (
            np.column_stack(np.unravel_index(ends, flow.graph.strategy_counts)).tolist()
            for ends in (tails, heads)
        )
        edges = [{"from": f, "to": t, "value": v} for f, t, v in zip(froms, tos, values.tolist())]
        text = json.dumps(_round12(edges), indent=2)[2:-2]  # without "[\n" and "\n]"
        yield ("  " if start == 0 else ",\n  ") + text.replace("\n", "\n  ")
    yield "\n  ]\n}\n"


def cmd_verify(args) -> int:
    game = load_game(args.input)
    # first, so a game over the edge cap exits at once; the checks read the
    # flow identities off payoff spreads and test the edge operators one
    # player's block of edges at a time, so no array spans the whole graph
    build_graph(game.strategy_counts)
    tol = args.tol
    rng = np.random.default_rng(args.seed)
    counts = game.strategy_counts
    n = game.num_profiles
    u = game.utilities
    scale = float(np.abs(u).max(initial=0.0))
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, violation: float, bound: float) -> None:
        checks.append((name, violation <= bound, f"violation {_fmt(violation)} vs {_fmt(bound)}"))

    # profile indexing round-trips
    index = np.arange(n)
    round_trip = np.ravel_multi_index(np.unravel_index(index, counts), counts)
    bad = int(np.count_nonzero(round_trip != index))
    checks.append(("profile-index-bijection", bad == 0, f"{bad} mismatches"))

    # normalization behavior
    norm_game = normalize(game)
    twice = normalize(norm_game)
    check(
        "normalize-idempotent",
        float(np.abs(twice.utilities - norm_game.utilities).max(initial=0.0)),
        1e-12 * scale,
    )
    check(
        "normalize-preserves-comparisons", _spread(counts, norm_game.utilities - u), 1e-12 * scale
    )
    checks.append(("normalized-output", is_normalized(norm_game, 1e-9 * scale), ""))

    # decomposition structure
    d = decompose(game)
    check("reconstruction", d.residuals["reconstruction"], tol * scale)
    check(
        "potential-flow-is-gradient",
        _spread(counts, d.potential_part.utilities - d.potential_fn),
        tol * scale,
    )
    check("harmonic-flow-divergence-free", d.residuals["harmonic_divergence"], tol * scale)
    check("nonstrategic-flow-zero", _spread(counts, d.nonstrategic_part.utilities), tol * scale)
    checks.append(
        (
            "components-normalized",
            is_normalized(d.potential_part, 1e-9 * scale)
            and is_normalized(d.harmonic_part, 1e-9 * scale),
            "",
        )
    )
    checks.append(
        (
            "harmonic-weighted-zero-sum",
            verify_normalized_harmonic(d.harmonic_part, 1e-9 * scale * max(counts)),
            "",
        )
    )
    total = game_norm(game) ** 2
    parts = sum(
        game_norm(p) ** 2 for p in (d.potential_part, d.harmonic_part, d.nonstrategic_part)
    )
    check("orthogonality-pythagoras", abs(total - parts), 1e-8 * total)

    # operator identities on seeded random data: <grad_m phi, x_m> = <phi,
    # grad_m* x_m> summed over the players, and grad_m* grad_m = h_m P_m
    adj = lap = 0.0
    for _ in range(20):
        phi = rng.uniform(-1.0, 1.0, size=n)
        gap = 0.0
        for m, h in enumerate(counts):
            grad = _differences(counts, [(m, phi)])
            x = rng.uniform(-1.0, 1.0, size=grad.size)
            gap += grad @ x - phi @ _divergence(counts, m, x)
            laplacian = _divergence(counts, m, grad)
            lap = max(lap, float(np.abs(laplacian - h * project_player(counts, m, phi)).max()))
            del grad, x, laplacian  # so two players' edge blocks are never held at once
        adj = max(adj, abs(gap))
    check("gradient-divergence-adjointness", adj, 1e-9 * n)
    check("player-laplacian-projection-identity", lap, 1e-9)
    # every pivot, so this covers decompose's star triangles (pivot 0) too
    check("curl-of-game-flow", _max_curl(counts, u, max(counts)), 1e-10 * scale)

    width = max(len(name) for name, _, _ in checks)
    lines, failed = [], 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name.ljust(width)}"
        if detail and not ok:
            line += f"  ({detail})"
        lines.append(line)
        failed += 0 if ok else 1
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    _emit_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# -- parser ------------------------------------------------------------------------


def _nonnegative(text: str) -> float:
    """argparse type of ``--tol`` and ``--eps``: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of ``--seed``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamehodge",
        description="Decompose finite games into potential, harmonic and "
        "nonstrategic components and analyze their equilibria.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="path to a game JSON file")
        p.add_argument("--out", help="output path (default: stdout)")

    def add_tol(p):
        p.add_argument("--tol", type=_nonnegative, default=1e-9, help="numeric tolerance")

    p = sub.add_parser("decompose", help="write the three-component decomposition")
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("project", help="closest potential or harmonic game")
    add_common(p)
    p.add_argument("--onto", choices=["potential", "harmonic"], required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("equilibria", help="pure/epsilon/mixed/correlated equilibrium report")
    add_common(p)
    add_tol(p)
    p.add_argument("--eps", type=_nonnegative, default=0.0, help="epsilon for approximate equilibria")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("pareto", help="Pareto set, or the Pareto-aligning payoff transform")
    add_common(p)
    p.add_argument(
        "--transform",
        action="store_true",
        help="write the transformed game whose Nash and Pareto sets coincide",
    )
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("distance", help="distance to the closest potential/harmonic game")
    add_common(p)
    p.add_argument("--to", choices=["potential", "harmonic"], required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("dims", help="subspace dimensions for a game shape")
    p.add_argument("players", type=int, help="number of players")
    p.add_argument("strategies", help="comma-separated strategy counts, e.g. 2,3")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="run the invariant suite against a game")
    add_common(p)
    add_tol(p)
    p.add_argument("--seed", type=_seed, default=0, help="seed for randomized checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-flow", help="export the pairwise-comparison flow")
    add_common(p)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=cmd_export_flow)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericError as exc:
        detail = f" (residual {_fmt(exc.residual)})" if exc.residual is not None else ""
        print(f"numeric error: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PreconditionError, ShapeError, SizeError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
