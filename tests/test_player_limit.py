"""Games of up to 62 players, and the ShapeError above that.

NumPy arrays have at most 64 axes, and the stacked correlated system
reshapes rows to ``(h, h) + counts``, so 62 players is the limit; a game of
63 is refused where its strategy counts are checked.  The games here have
two players of two strategies and one-strategy players after them, so
their answers are those of the two-player game.
"""

import json

import numpy as np
import pytest

from gamehodge import (
    Game,
    ShapeError,
    build_graph,
    closest_harmonic,
    decompose,
    empirical_dims,
    equilibrium_report,
    laplacian_pinv_solve,
    normalize,
    pareto_optimal,
    potential_function,
    project_player,
    subspace_dims,
)
from gamehodge.cli import EXIT_OK, EXIT_PRECONDITION, main
from helpers import pareto_by_pairs

# every command that reads a game file, with the options it needs
COMMANDS_ON_FILES = [
    "decompose", "verify", "equilibria", "equilibria --eps 0.25", "pareto", "pareto --transform",
    "export-flow", "export-flow --format json", "project --onto potential",
    "project --onto harmonic", "distance --to potential", "distance --to harmonic",
]


def _payoffs(players, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(players, 4))


def _with_dummies(u, players):
    """The game of payoffs ``u`` for two 2-strategy players and ``players - 2`` one-strategy ones."""
    return Game(u, (2, 2) + (1,) * (players - 2))


@pytest.mark.parametrize("players", [32, 33, 62])
class TestUpToTheLimit:
    def test_decompose(self, players):
        u = _payoffs(players)
        d, two = decompose(_with_dummies(u, players)), decompose(Game(u[:2], (2, 2)))
        np.testing.assert_allclose(d.potential_fn, two.potential_fn, rtol=0, atol=1e-15)
        for part, want in [
            (d.potential_part, two.potential_part), (d.harmonic_part, two.harmonic_part),
        ]:
            np.testing.assert_allclose(part.utilities[:2], want.utilities, rtol=0, atol=1e-15)
            assert not part.utilities[2:].any()  # one strategy: no comparison
        np.testing.assert_array_equal(d.nonstrategic_part.utilities[2:], u[2:])

    def test_equilibrium_report_of_a_harmonic_game(self, players):
        # three players or more rank the stacked system, (h, h) + counts shaped
        u = closest_harmonic(Game(_payoffs(players)[:2], (2, 2))).utilities
        g = _with_dummies(np.vstack([u, np.zeros((players - 2, 4))]), players)
        report, two = equilibrium_report(g), equilibrium_report(Game(u, (2, 2)))
        assert report["correlated_dim"] == two["correlated_dim"] is not None
        assert [p[:2] for p in report["pure_nash"]] == two["pure_nash"]

    def test_potential_function(self, players):
        phi = _payoffs(1)[0]
        g = _with_dummies(np.tile(phi, (players, 1)), players)
        np.testing.assert_allclose(potential_function(g), phi - phi.mean(), rtol=0, atol=1e-15)
        assert potential_function(_with_dummies(_payoffs(players), players)) is None

    def test_pareto_optimal(self, players):
        g = _with_dummies(_payoffs(players), players)
        assert pareto_optimal(g) == pareto_by_pairs(g)

    def test_normalize(self, players):
        u = _payoffs(players)
        got = normalize(_with_dummies(u, players)).utilities
        np.testing.assert_array_equal(got[:2], normalize(Game(u[:2], (2, 2))).utilities)
        assert not got[2:].any()

    def test_empirical_dims(self, players):
        counts = (2, 2) + (1,) * (players - 2)
        assert empirical_dims(counts) == subspace_dims(counts)[:3]

    def test_every_command_succeeds(self, players, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(_document(players)))
        for command in COMMANDS_ON_FILES:
            name, *options = command.split()
            assert main([name, str(path), *options, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().err == ""


def _document(players):
    """A game file of ``players`` players: two of two strategies, the rest of one."""
    return {
        "players": [{"strategies": ["a", "b"] if m < 2 else ["a"]} for m in range(players)],
        "utilities": _payoffs(players).tolist(),
    }


class TestAboveTheLimit:
    COUNTS = (2, 2) + (1,) * 61

    def test_a_game_of_63_players_is_refused(self):
        with pytest.raises(ShapeError, match="63 players exceed the player limit 62"):
            Game(_payoffs(63), self.COUNTS)

    @pytest.mark.parametrize(
        "call",
        [
            build_graph,
            subspace_dims,
            empirical_dims,
            lambda counts: project_player(counts, 0, np.zeros(4)),
            lambda counts: laplacian_pinv_solve(counts, np.zeros(4)),
        ],
        ids=["build_graph", "subspace_dims", "empirical_dims", "project_player", "laplacian_pinv_solve"],
    )
    def test_strategy_counts_of_63_players_are_refused(self, call):
        with pytest.raises(ShapeError, match="player limit 62"):
            call(self.COUNTS)

    @pytest.mark.parametrize("command", COMMANDS_ON_FILES)
    def test_every_command_exits_with_the_precondition_code(self, command, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(_document(63)))
        name, *options = command.split()
        assert main([name, str(path), *options]) == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "precondition error: 63 players exceed the player limit 62\n"

    def test_dims_of_63_players(self, capsys):
        assert main(["dims", "63", ",".join(map(str, self.COUNTS))]) == EXIT_PRECONDITION
        assert "player limit 62" in capsys.readouterr().err
