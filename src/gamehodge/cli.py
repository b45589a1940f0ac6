"""Command-line front end.

Subcommands: decompose, project, equilibria, pareto, distance, dims, verify,
export-flow.  Exit codes: 0 success, 1 verification failure, 2 parse error,
3 numeric error, 4 precondition violation.  Numbers are printed with 12
significant digits, and every JSON document by one writer,
``gamehodge.game._json_pieces``, a row slice of the kernel's arrays at a
time.  ``verify`` (11 checks, each against ``_ROUNDING * ops * size``) and
``export-flow`` hold no array over the whole game graph and exit 4 above
its one size cap, 3x10^7 edges.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import Iterable

import numpy as np

from . import __version__
from .decompose import (
    _decomposition_document,
    _norms,
    _spreads,
    closest_harmonic,
    closest_potential,
    decompose,
    game_norm,
)
from .equilibria import (
    _equilibrium_masks,
    _listed,
    _pareto_mask,
    equilibrium_report,
    pareto_align_transform,
)
from .errors import (
    GameFormatError,
    NumericError,
    PreconditionError,
    ShapeError,
    SizeError,
)
from .flows import (
    _arrows,
    _differences,
    _divergence,
    _dot_chunks,
    build_graph,
    pairwise_comparison,
    project_player,
)
from .game import _game_document, _json_pieces, _payoff_scale, load_game, normalize
from .subspaces import subspace_dims

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_PRECONDITION = 4


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _number(x: float) -> str:
    """JSON text of a float rounded to 12 significant digits."""
    return repr(float(_fmt(x)))


def _emit_text(pieces: Iterable[str], out: str | None) -> None:
    """Write each string of ``pieces`` to ``out`` or stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit(doc, out: str | None) -> None:
    _emit_text(itertools.chain(_json_pieces(doc, _number), ["\n"]), out)


# -- subcommands -----------------------------------------------------------------


def cmd_decompose(args) -> int:
    _emit(_decomposition_document(decompose(load_game(args.input))), args.out)
    return EXIT_OK


def cmd_project(args) -> int:
    project = closest_potential if args.onto == "potential" else closest_harmonic
    _emit(_game_document(project(load_game(args.input))), args.out)
    return EXIT_OK


def cmd_equilibria(args) -> int:
    _emit(equilibrium_report(load_game(args.input), eps=args.eps, tol=args.tol), args.out)
    return EXIT_OK


def cmd_pareto(args) -> int:
    game = load_game(args.input)
    if args.transform:
        _emit(_game_document(pareto_align_transform(game)), args.out)
    else:
        [nash], pareto = _equilibrium_masks(game, 0.0), _pareto_mask(game)
        _emit({"pure_nash": _listed(nash), "pareto_optimal": _listed(pareto)}, args.out)
    return EXIT_OK


def cmd_distance(args) -> int:
    pot, harm, _ = _norms(load_game(args.input))  # the norms of the parts each projection drops
    alpha = harm if args.to == "potential" else pot
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
        _emit_text([f"P={dims.potential} H={dims.harmonic} N={dims.nonstrategic}\n"], args.out)
    return EXIT_OK


def cmd_export_flow(args) -> int:
    game = load_game(args.input)
    flow = pairwise_comparison(game)
    if args.format == "json":
        _emit({"edges": _edges(flow)}, args.out)
    else:
        labels = ["(" + ",".join(p) + ")" for p in itertools.product(*game.strategy_labels)]
        _emit_text(_dot_chunks(flow, labels, 0.0), args.out)
    return EXIT_OK


def _edges(flow):
    """The arrows of ``flow`` as ``export-flow`` JSON objects, one at a time."""
    counts = flow.graph.strategy_counts
    for *ends, values in _arrows(flow, 0.0):
        froms, tos = (np.column_stack(np.unravel_index(e, counts)).tolist() for e in ends)
        for f, t, v in zip(froms, tos, values.tolist()):
            yield {"from": f, "to": t, "value": v}


# ops is the length of the longest float sum behind a checked value and size
# the magnitude of the data in it; such a sum rounds by at most about
# ops * eps * size (Higham 2002, section 3.1), and the factor 128 covers the
# few roundings per term and the Laplacian identity's growth with h
_ROUNDING = 128 * np.finfo(float).eps


def cmd_verify(args) -> int:
    game = load_game(args.input)
    # first, so a game over the edge cap exits at once
    build_graph(game.strategy_counts)
    rng = np.random.default_rng(args.seed)
    counts = game.strategy_counts
    n = game.num_profiles
    u = game.utilities
    scale = _payoff_scale(u)
    players = range(len(counts))
    h_max = max(counts)
    h_sum = sum(h for h in counts if h > 1)  # one-strategy players' terms are zero
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, violation: float, ops: int, size: float) -> None:
        bound = _ROUNDING * ops * size
        checks.append((name, violation <= bound, f"violation {_fmt(violation)} vs {_fmt(bound)}"))

    def block_sums(*games) -> float:  # largest |own-strategy block sum| in ``games``
        return max(float(np.abs(g.tensor(m).sum(axis=m)).max()) for g in games for m in players)

    # normalization behavior
    norm_game = normalize(game)
    drift = np.abs(normalize(norm_game).utilities - norm_game.utilities).max()
    check("normalize-idempotent", float(drift), 1, scale)
    check("normalize-preserves-comparisons", max(_spreads(counts, norm_game.utilities - u)), 1, scale)
    check("normalized-output", block_sums(norm_game), h_max, scale)

    # decomposition structure
    d = decompose(game)
    parts = (d.potential_part, d.harmonic_part, d.nonstrategic_part)
    u_pot, u_harm, u_non = (p.utilities for p in parts)
    check("reconstruction", float(np.abs(u - (u_pot + u_harm + u_non)).max()), 1, scale)
    gradient_gap = max(_spreads(counts, u_pot - d.potential_fn))
    check("potential-flow-is-gradient", gradient_gap, 1, scale)
    check("harmonic-flow-divergence-free", d.residuals["harmonic_divergence"], h_sum, scale)
    check("nonstrategic-flow-zero", max(_spreads(counts, d.nonstrategic_part.utilities)), 1, scale)
    check("components-normalized", block_sums(d.potential_part, d.harmonic_part), h_max, scale)
    # the parts' norms over the game's, whose squares sum to 1: no norm is squared
    whole = game_norm(game)
    pythagoras = abs(1.0 - sum((game_norm(p) / whole) ** 2 for p in parts)) if whole else 0.0
    check("orthogonality-pythagoras", pythagoras, h_sum, 1.0)

    # operator identities on one seeded random draw, since both are linear
    # in (phi, x): <grad_m phi, x_m> = <phi, grad_m* x_m> summed over the
    # players, and grad_m* grad_m = h_m P_m
    phi = rng.uniform(-1.0, 1.0, size=n)
    adj = lap = 0.0
    for m, h in enumerate(counts):
        grad = _differences(counts, [(m, phi)])
        x = rng.uniform(-1.0, 1.0, size=grad.size)
        adj += grad @ x - phi @ _divergence(counts, m, x)
        laplacian = _divergence(counts, m, grad)
        lap = max(lap, float(np.abs(laplacian - h * project_player(counts, m, phi)).max()))
        del grad, x, laplacian  # so two players' edge blocks are never held at once
    check("gradient-divergence-adjointness", abs(adj), h_sum, n)
    check("player-laplacian-projection-identity", lap, h_max, 1.0)

    width = max(len(name) for name, _, _ in checks)
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  ({detail})" for name, ok, detail in checks
    ]
    failed = sum(not ok for _, ok, _ in checks)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    _emit_text([line + "\n" for line in lines], args.out)
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

    p = sub.add_parser("decompose", help="write the three-component decomposition")
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("project", help="closest potential or harmonic game")
    add_common(p)
    p.add_argument("--onto", choices=["potential", "harmonic"], required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("equilibria", help="pure/epsilon/mixed/correlated equilibrium report")
    add_common(p)
    p.add_argument("--tol", type=_nonnegative, default=1e-9, help="numeric tolerance")
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
        with np.errstate(over="ignore", invalid="ignore"):  # overflows end in typed errors
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
