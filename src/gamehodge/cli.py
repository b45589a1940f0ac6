"""Command-line front end.

Subcommands: decompose, project, equilibria, pareto, distance, dims, verify,
export-flow.  Exit codes: 0 success, 1 verification failure, 2 parse error,
3 numeric error, 4 precondition violation.  All numeric output is printed
with 12 significant digits.  Only ``export-flow`` and ``verify`` build the
game graph, and only its edge arrays: ``verify`` checks the curl without
listing triangles and takes its maximum one own-strategy pair at a time, so
no array holds one value per triangle.  ``GAMEHODGE_MAX_NODES`` overrides
the graph's default node cap and bounds those two commands alone.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .decompose import (
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
    EdgeFlow,
    _curl_blocks,
    build_graph,
    divergence_adjoint,
    flow_inner,
    flow_to_dot,
    gradient,
    laplacian_player_apply,
    node_inner,
    pairwise_comparison,
    project_player,
)
from .game import (
    game_to_dict,
    is_normalized,
    load_game,
    normalize,
    profile_index,
    profile_of_index,
)
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


def _emit(data, out: str | None) -> None:
    text = json.dumps(_round12(data), indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _profile_labels(game) -> list[str]:
    labels = []
    for p in game.profiles():
        labels.append("(" + ",".join(game.strategy_labels[m][s] for m, s in enumerate(p)) + ")")
    return labels


# -- subcommands -----------------------------------------------------------------


def cmd_decompose(args) -> int:
    game = load_game(args.input)
    d = decompose(game, tol=args.tol)
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
        _emit(
            {
                "potential": dims.potential,
                "harmonic": dims.harmonic,
                "nonstrategic": dims.nonstrategic,
                "potential_games": dims.potential_games,
                "harmonic_games": dims.harmonic_games,
            },
            args.out,
        )
    else:
        _emit_text(f"P={dims.potential} H={dims.harmonic} N={dims.nonstrategic}\n", args.out)
    return EXIT_OK


def cmd_export_flow(args) -> int:
    game = load_game(args.input)
    flow = pairwise_comparison(game)
    if args.format == "json":
        edges = []
        graph = flow.graph
        for e in range(graph.num_edges):
            v = float(flow.values[e])
            if v == 0.0:
                continue
            i, j = int(graph.tails[e]), int(graph.heads[e])
            if v < 0:
                i, j, v = j, i, -v
            edges.append(
                {
                    "from": list(profile_of_index(i, game.strategy_counts)),
                    "to": list(profile_of_index(j, game.strategy_counts)),
                    "value": v,
                }
            )
        _emit({"edges": edges}, args.out)
    else:
        _emit_text(flow_to_dot(flow, node_labels=_profile_labels(game)), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    game = load_game(args.input)
    tol = args.tol
    rng = np.random.default_rng(args.seed)
    counts = game.strategy_counts
    n = game.num_profiles
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, violation: float, bound: float) -> None:
        checks.append((name, violation <= bound, f"violation {_fmt(violation)} vs {_fmt(bound)}"))

    # profile indexing round-trips
    bad = sum(
        1 for i in range(n) if profile_index(profile_of_index(i, counts), counts) != i
    )
    checks.append(("profile-index-bijection", bad == 0, f"{bad} mismatches"))

    # normalization behavior
    norm_game = normalize(game)
    twice = normalize(norm_game)
    check(
        "normalize-idempotent",
        float(np.abs(twice.utilities - norm_game.utilities).max(initial=0.0)),
        1e-12,
    )
    graph = build_graph(counts)
    flow = pairwise_comparison(game, graph)
    check(
        "normalize-preserves-comparisons",
        (pairwise_comparison(norm_game, graph) - flow).max_abs(),
        1e-12,
    )
    checks.append(("normalized-output", is_normalized(norm_game, 1e-9), ""))

    # decomposition structure
    d = decompose(game, tol=min(tol, 1e-10))
    scale = max(1.0, float(np.abs(game.utilities).max(initial=0.0)))
    check("reconstruction", d.residuals["reconstruction"], tol * scale)
    check(
        "potential-flow-is-gradient",
        (pairwise_comparison(d.potential_part, graph) - gradient(graph, d.potential_fn)).max_abs(),
        tol * scale,
    )
    check("harmonic-flow-divergence-free", d.residuals["harmonic_divergence"], tol * scale)
    check(
        "nonstrategic-flow-zero",
        pairwise_comparison(d.nonstrategic_part, graph).max_abs(),
        tol * scale,
    )
    check("game-flow-curl-free", d.residuals["curl"], 1e-10 * scale)
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
    parts = (
        game_norm(d.potential_part) ** 2
        + game_norm(d.harmonic_part) ** 2
        + game_norm(d.nonstrategic_part) ** 2
    )
    check("orthogonality-pythagoras", abs(total - parts), 1e-8 * max(1.0, total))

    # operator identities on seeded random data
    adj = lap = 0.0
    for _ in range(20):
        phi = rng.uniform(-1.0, 1.0, size=n)
        x = rng.uniform(-1.0, 1.0, size=graph.num_edges)
        xf = EdgeFlow(graph, x)
        adj = max(adj, abs(flow_inner(gradient(graph, phi), xf) - node_inner(phi, divergence_adjoint(xf))))
        for m, h in enumerate(counts):
            lap = max(
                lap,
                float(
                    np.abs(
                        laplacian_player_apply(counts, m, phi)
                        - h * project_player(counts, m, phi)
                    ).max()
                ),
            )
    check("gradient-divergence-adjointness", adj, 1e-9 * n)
    check("player-laplacian-projection-identity", lap, 1e-9)
    # the running maximum over curl blocks; the whole triangle array can
    # exceed memory where one block does not
    worst_curl = max(
        (float(np.abs(block).max(initial=0.0)) for block in _curl_blocks(flow)), default=0.0
    )
    check("curl-of-game-flow", worst_curl, 1e-10 * scale)

    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name.ljust(width)}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamehodge",
        description="Decompose finite games into potential, harmonic and "
        "nonstrategic components and analyze their equilibria.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, game_input=True):
        if game_input:
            p.add_argument("input", help="path to a game JSON file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    p = sub.add_parser("decompose", help="write the three-component decomposition")
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("project", help="closest potential or harmonic game")
    add_common(p)
    p.add_argument("--onto", choices=["potential", "harmonic"], required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("equilibria", help="pure/epsilon/mixed/correlated equilibrium report")
    add_common(p)
    p.add_argument("--eps", type=float, default=0.0, help="epsilon for approximate equilibria")
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
