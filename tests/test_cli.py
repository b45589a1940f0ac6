import dataclasses
import importlib
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gamehodge.cli
import gamehodge.equilibria
import gamehodge.flows
import gamehodge.game
from gamehodge import (
    Game,
    build_graph,
    closest_harmonic,
    closest_potential,
    decompose,
    decomposition_to_dict,
    equilibrium_report,
    flow_to_dot,
    game_from_dict,
    game_norm,
    game_to_dict,
    is_potential,
    load_game,
    pairwise_comparison,
    pareto_align_transform,
    pareto_optimal,
    profile_of_index,
    pure_nash,
    save_game,
    subspace_dims,
)
from gamehodge.catalog import (
    battle_of_sexes,
    cyclic_three_player,
    generalized_rps,
    matching_pennies,
    road_sharing,
)
from gamehodge.cli import _fmt, main
from helpers import (
    awkward_game, dot_node_labels, overflowing_game, random_game, refuse_calls,
    slowest_mode_potential,
)

# the package attribute ``gamehodge.decompose`` is the function
decompose_module = importlib.import_module("gamehodge.decompose")


@pytest.fixture
def game_file(tmp_path):
    def write(game, name):
        path = tmp_path / name
        save_game(game, path)
        return str(path)

    return write


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


# every command that reads a game file, with the options it needs
COMMANDS_ON_FILES = [
    "decompose", "verify", "equilibria", "pareto", "export-flow", "project --onto potential",
    "distance --to harmonic",
]


class TestDecomposeCommand:
    def test_classic_rps_has_zero_potential_block(self, game_file, capsys):
        g = generalized_rps(1 / 3, 1 / 3, 1 / 3)
        path = game_file(g, "rps.json")
        assert main(["decompose", path]) == 0
        doc = read_json(capsys)
        assert np.abs(np.array(doc["potential"]["utilities"])).max() <= 1e-9
        parts = sum(np.array(doc[k]["utilities"]) for k in ("potential", "harmonic", "nonstrategic"))
        assert np.abs(g.utilities - parts).max() <= 1e-9

    def test_battle_of_sexes_is_potential(self, game_file, capsys):
        path = game_file(battle_of_sexes(), "bos.json")
        assert main(["decompose", path]) == 0
        doc = read_json(capsys)
        assert np.abs(np.array(doc["harmonic"]["utilities"])).max() <= 1e-9
        assert max(doc["residuals"].values()) < 1e-9

    def test_components_sum_back_to_input(self, game_file, capsys):
        g = road_sharing()
        path = game_file(g, "road.json")
        assert main(["decompose", path]) == 0
        doc = read_json(capsys)
        total = (
            np.array(doc["potential"]["utilities"])
            + np.array(doc["harmonic"]["utilities"])
            + np.array(doc["nonstrategic"]["utilities"])
        )
        assert np.abs(total - g.utilities).max() <= 1e-9

    def test_out_file(self, game_file, tmp_path):
        path = game_file(matching_pennies(), "mp.json")
        out = tmp_path / "decomp.json"
        assert main(["decompose", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"potential", "harmonic", "nonstrategic", "phi", "residuals"}

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize(
        "content",
        [
            b"{oops",
            b'\xff\xfe{"players": 1}',
            b"[" * 200_000 + b"]" * 200_000,
            b'{"players": [{"strategies": ["a"]}], "utilities": [[' + b"9" * 400 + b"]]}",
            b'{"players": [{"strategies": ["a"]}], "utilities": [[' + b"9" * 5000 + b"]]}",
        ],
        ids=["syntax", "not-utf8", "deep", "400-digits", "5000-digits"],
    )
    def test_malformed_json_exits_2(self, tmp_path, capsys, command, content):
        # undecodable bytes, nesting past the recursion limit and integers
        # beyond the float range or past Python's digit limit are bad game
        # files too, not a traceback that exits 1 like a failed check
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main([command, str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS_ON_FILES)
    @pytest.mark.parametrize(
        "payoff",
        ["9" * 400, "9" * 5000, '"2"', "true"],
        ids=["400-digits", "5000-digits", "string", "bool"],
    )
    def test_malformed_number_exits_2_from_every_command(self, tmp_path, capsys, command, payoff):
        bad = tmp_path / "bad.json"
        bad.write_text('{"players": [{"strategies": ["a", "b"]}], "utilities": [[0, %s]]}'
                       % payoff)
        argv = command.split()
        assert main([argv[0], str(bad), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        if payoff.isdigit():
            # past the float range, and past Python's integer digit limit
            # too, the payoff reads as infinite, not as a parse failure
            assert captured.err == "error: payoffs must be finite\n"

    def test_missing_file_exits_2(self, capsys):
        assert main(["decompose", "/nonexistent/game.json"]) == 2

    def test_overflowing_solve_exits_3(self, game_file, capsys):
        # finite payoffs whose kernel sums overflow: a numeric error, not a
        # parse error, in one line with no numpy warning (pytest would raise
        # one) and no residual, since none was checked against a finite target
        path = game_file(overflowing_game(), "overflow.json")
        assert main(["decompose", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric error: Laplacian solve missed its tolerance: "
            "the norm of its right-hand side overflowed in row 0\n"
        )

    def test_missed_solve_tolerance_exits_3(self, game_file, capsys, monkeypatch):
        # a corrupted transform makes the solve miss its tolerance
        rng = np.random.default_rng(65)
        path = game_file(random_game(rng, (3, 3)), "g.json")
        monkeypatch.setattr(
            gamehodge.flows, "_pinv_transform", lambda counts, a: rng.uniform(-1.0, 1.0, np.shape(a))
        )
        assert main(["decompose", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: Laplacian solve missed its tolerance")
        assert "(residual " in captured.err


def _numbers(doc):
    """The floats of a JSON document, in document order."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _numbers(item)]
    return [doc] if isinstance(doc, float) else []


class TestOverflowingPayoffs:
    # finite payoffs whose derived arrays or norms overflow: a numeric error
    # (exit 3), never exit 0 with a wrong answer or Infinity in the output,
    # nor exit 2, the code for an unreadable file.  Stderr is the one
    # numeric-error line: no numpy warning (pytest would raise it), no
    # residual of an overflowed solve, and no claim that the file's finite
    # payoffs are not finite
    @pytest.mark.parametrize(
        "argv, scale",
        [
            (["verify"], 1.7e308),
            (["pareto", "--transform"], 1.7e308),
            (["export-flow", "--format", "json"], 1.7e308),
            (["equilibria"], 1.7e308),
            (["distance", "--to", "potential"], 1.7e308),
            (["project", "--onto", "harmonic"], 1.7e308),
        ],
        ids=["verify", "pareto-transform", "export-flow-json", "equilibria-1.7e308",
             "distance-1.7e308", "project-1.7e308"],
    )
    def test_exits_3(self, argv, scale, game_file, capsys):
        path = game_file(overflowing_game(scale), "overflow.json")
        assert main([argv[0], path, *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "residual" not in captured.err
        assert "payoffs must be finite" not in captured.err
        assert "Infinity" not in captured.out + captured.err

    # at 1e160 the squares of the payoffs overflow, but no norm does: the
    # norm routine sums them again scaled by a power of two, so every command
    # answers as at scale 1, to the 12 significant digits it prints
    @pytest.mark.parametrize(
        "argv",
        [["equilibria"], ["decompose"], ["distance", "--to", "harmonic"],
         ["project", "--onto", "potential"], ["verify"]],
        ids=["equilibria-1e160", "decompose-1e160", "distance-1e160", "project-1e160",
             "verify-1e160"],
    )
    def test_large_norms_answer_as_at_scale_1(self, argv, game_file, capsys):
        outputs = []
        for scale in (1e160, 1.0):
            path = game_file(overflowing_game(scale), f"scaled-{scale}.json")
            assert main([argv[0], path, *argv[1:]]) == 0
            outputs.append(capsys.readouterr().out)
        big, one = outputs
        if argv[0] == "verify":
            assert big.endswith("11/11 checks passed\n")
        elif argv[0] == "equilibria":
            assert json.loads(big) == json.loads(one)
        else:
            got = np.array(_numbers(json.loads(big)) if big[0] in "[{" else [float(big)])
            want = np.array(_numbers(json.loads(one)) if one[0] in "[{" else [float(one)])
            assert got.shape == want.shape and np.abs(want).max() > 0
            assert np.abs(got / 1e160 - want).max() <= 1e-12 * np.abs(want).max()


class TestProjectCommand:
    def test_potential_game_roundtrip(self, game_file, capsys):
        bos = battle_of_sexes()
        path = game_file(bos, "bos.json")
        assert main(["project", path, "--onto", "potential"]) == 0
        projected = game_from_dict(read_json(capsys))
        assert np.abs(projected.utilities - bos.utilities).max() <= 1e-9

    def test_matching_pennies_onto_harmonic_is_identity(self, game_file, capsys):
        mp = matching_pennies()
        path = game_file(mp, "mp.json")
        assert main(["project", path, "--onto", "harmonic"]) == 0
        projected = game_from_dict(read_json(capsys))
        assert np.abs(projected.utilities - mp.utilities).max() <= 1e-9

    def test_random_projection_is_potential(self, game_file, capsys):
        rng = np.random.default_rng(80)
        path = game_file(random_game(rng, (3, 2), scale=2.0), "g.json")
        assert main(["project", path, "--onto", "potential"]) == 0
        assert is_potential(game_from_dict(read_json(capsys)), tol=1e-7)


class TestEquilibriaCommand:
    def test_matching_pennies_report(self, game_file, capsys):
        path = game_file(matching_pennies(), "mp.json")
        assert main(["equilibria", path, "--eps", "2"]) == 0
        doc = read_json(capsys)
        assert doc["pure_nash"] == []
        assert len(doc["epsilon_equilibria"]) == 4
        assert doc["uniform_mixed_is_ne"] is True
        assert doc["correlated_dim"] == 0

    def test_report_keys(self, game_file, capsys):
        path = game_file(battle_of_sexes(), "bos.json")
        assert main(["equilibria", path]) == 0
        doc = read_json(capsys)
        assert set(doc) == {
            "pure_nash",
            "epsilon",
            "epsilon_equilibria",
            "pareto_optimal",
            "uniform_mixed_is_ne",
            "correlated_dim",
        }

    def test_correlated_system_cap_exits_4(self, game_file, capsys):
        # the zero 24^3 game is harmonic; its stacked system would have
        # 1729 x 13824 entries, above the cap
        path = game_file(Game(np.zeros((3, 24**3)), (24, 24, 24)), "zero24.json")
        assert main(["equilibria", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition error: correlated system")


class TestNumericFlags:
    # a bad --tol or --eps is a usage error (exit 2), not a traceback, a
    # blamed input or an output with NaN in it; decompose and verify read no
    # --tol, so there the flag itself is the usage error
    @pytest.mark.parametrize("value", ["-1", "nan"])
    @pytest.mark.parametrize(
        "command, flag",
        [("decompose", "--tol"), ("equilibria", "--tol"), ("verify", "--tol"), ("equilibria", "--eps")],
    )
    def test_negative_and_nan_exit_2(self, game_file, capsys, command, flag, value):
        path = game_file(matching_pennies(), "mp.json")
        with pytest.raises(SystemExit) as info:
            main([command, path, flag, value])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if command in ("decompose", "verify"):
            assert f"unrecognized arguments: {flag} {value}" in captured.err
        else:
            assert f"argument {flag}: must be a finite number >= 0" in captured.err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--tol", "abc", "invalid number: 'abc'"), ("--seed", "x", "invalid integer: 'x'")],
    )
    def test_unparsable_value_exits_2(self, game_file, capsys, flag, value, message):
        path = game_file(matching_pennies(), "mp.json")
        command = "equilibria" if flag == "--tol" else "verify"
        with pytest.raises(SystemExit) as info:
            main([command, path, flag, value])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: {message}" in captured.err

    def test_zero_is_accepted(self, game_file, capsys):
        path = game_file(matching_pennies(), "mp.json")
        assert main(["equilibria", path, "--tol", "0", "--eps", "0"]) == 0
        assert read_json(capsys)["epsilon"] == 0.0

    def test_negative_seed_exits_2(self, game_file, capsys):
        path = game_file(matching_pennies(), "mp.json")
        with pytest.raises(SystemExit) as info:
            main(["verify", path, "--seed", "-1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be an integer >= 0" in captured.err

    def test_zero_seed_is_accepted(self, game_file, capsys):
        path = game_file(matching_pennies(), "mp.json")
        assert main(["verify", path, "--seed", "0"]) == 0

    # each flag is registered only on the commands that read it
    @pytest.mark.parametrize(
        "argv",
        [
            ["project", "--onto", "potential", "--tol", "1"],
            ["pareto", "--seed", "1"],
            ["distance", "--to", "harmonic", "--seed", "1"],
            ["export-flow", "--tol", "1"],
            ["decompose", "--tol", "1"],
        ],
    )
    def test_unread_flag_exits_2(self, game_file, capsys, argv):
        path = game_file(matching_pennies(), "mp.json")
        with pytest.raises(SystemExit) as info:
            main([argv[0], path, *argv[1:]])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


class TestParetoCommand:
    def test_sets(self, game_file, capsys):
        path = game_file(battle_of_sexes(), "bos.json")
        assert main(["pareto", path]) == 0
        doc = read_json(capsys)
        assert doc["pure_nash"] == [[0, 0], [1, 1]]
        assert doc["pareto_optimal"] == [[0, 0], [1, 1]]

    def test_transform_flag_outputs_aligned_game(self, game_file, capsys):
        from gamehodge import pareto_optimal, pure_nash

        path = game_file(battle_of_sexes(), "bos.json")
        assert main(["pareto", path, "--transform"]) == 0
        transformed = game_from_dict(read_json(capsys))
        assert pure_nash(transformed) == pareto_optimal(transformed)

    @pytest.mark.parametrize("command", ["pareto", "equilibria"])
    def test_work_cap_exits_4(self, game_file, capsys, monkeypatch, command):
        # 2x2x2 has 8 profiles and 3 players: n^2 (M - 1) = 128
        monkeypatch.setattr(gamehodge.equilibria, "PARETO_WORK_CAP", 127)
        path = game_file(random_game(np.random.default_rng(5), (2, 2, 2)), "g222.json")
        assert main([command, path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition error:")
        assert "work cap" in captured.err


class TestDistanceCommand:
    def test_matching_pennies_to_potential(self, game_file, capsys):
        path = game_file(matching_pennies(), "mp.json")
        assert main(["distance", path, "--to", "potential"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_potential_game_distance_zero(self, game_file, capsys):
        path = game_file(battle_of_sexes(), "bos.json")
        assert main(["distance", path, "--to", "potential"]) == 0
        assert float(capsys.readouterr().out) <= 1e-9

    # the distance to a class is the kept norm of the part its projection
    # drops: on a game whose memo is filled, the command computes no norm
    # and builds no projection
    @pytest.mark.parametrize("to", ["potential", "harmonic"])
    def test_prints_the_kept_norm(self, game_file, capsys, monkeypatch, to):
        path = game_file(random_game(np.random.default_rng(53), (3, 4)), "g.json")
        game = load_game(path)
        pot, harm, _ = decompose_module._norms(game)
        monkeypatch.setattr(gamehodge.cli, "load_game", lambda p: game)
        refuse_calls(
            monkeypatch, [gamehodge.cli, decompose_module, gamehodge.flows, gamehodge.game],
            "_root_squares", "game_distance", "closest_potential", "closest_harmonic",
        )
        assert main(["distance", path, "--to", to]) == 0
        assert capsys.readouterr().out == _fmt(harm if to == "potential" else pot) + "\n"


class TestDimsCommand:
    def test_text_line(self, capsys):
        assert main(["dims", "2", "2,3"]) == 0
        assert capsys.readouterr().out == "P=5 H=2 N=5\n"

    def test_json_format(self, capsys):
        assert main(["dims", "3", "2,2,2", "--format", "json"]) == 0
        doc = read_json(capsys)
        assert doc == {
            "potential": 7,
            "harmonic": 5,
            "nonstrategic": 12,
            "potential_games": 19,
            "harmonic_games": 17,
        }

    def test_mismatched_counts_exit_2(self, capsys):
        assert main(["dims", "3", "2,2"]) == 2

    def test_unparsable_counts_exit_2(self, capsys):
        assert main(["dims", "2", "2,x"]) == 2

    @pytest.mark.parametrize("players, counts", [("1", "0"), ("2", "3,-1")])
    def test_counts_below_one_exit_4(self, capsys, players, counts):
        assert main(["dims", players, counts]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid strategy counts" in captured.err


def _verify_games():
    rng = np.random.default_rng(50)
    return {
        "zero": Game(np.zeros((2, 9)), (3, 3)),
        "matching-pennies": matching_pennies(),
        "random-3x3": random_game(rng, (3, 3)),
        "random-2x3x4": random_game(rng, (2, 3, 4)),
        "random-4x1x5": random_game(rng, (4, 1, 5)),
        "road-sharing": road_sharing(),
        "random-3^6": random_game(rng, (3,) * 6),
        "slowest-mode-50x2x50": slowest_mode_potential(np.random.default_rng(46), (50, 2, 50)),
    }


VERIFY_GAMES = _verify_games()


class TestVerifyCommand:
    def test_passes_on_valid_game(self, game_file, capsys):
        path = game_file(road_sharing(), "road.json")
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("name", list(VERIFY_GAMES))
    def test_passes_at_every_scale(self, game_file, capsys, name, scale):
        g = VERIFY_GAMES[name]
        path = game_file(g.with_utilities(scale * g.utilities), "g.json")
        assert main(["verify", path]) == 0, capsys.readouterr().out

    def test_passes_where_clique_sizes_bite(self, game_file, capsys):
        # the bounds that grow with max h or sum h, at a large scale
        path = game_file(random_game(np.random.default_rng(52), (2, 500), 1e12), "g.json")
        assert main(["verify", path]) == 0, capsys.readouterr().out

    def test_every_check_prints_its_violation_and_bound(self, game_file, capsys):
        path = game_file(road_sharing(), "road.json")
        assert main(["verify", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        for line in lines[:-1]:
            assert line.startswith("PASS  ")
            assert re.search(r"  \(violation \S+ vs \S+\)$", line), line
        assert lines[-1] == "11/11 checks passed"

    @pytest.fixture
    def offset_game(self, game_file, monkeypatch):
        # an error of 1e-12 relative to the game, far above its rounding,
        # must fail verify, also when the game's payoffs are far below 1
        scale = 1e-12
        path = game_file(random_game(np.random.default_rng(51), (3, 3), scale), "g.json")
        decompose = gamehodge.cli.decompose

        def offset(game):
            d = decompose(game)
            harmonic = d.harmonic_part.utilities + 1e-12 * scale
            return dataclasses.replace(d, harmonic_part=game.with_utilities(harmonic))

        monkeypatch.setattr(gamehodge.cli, "decompose", offset)
        return path

    def test_bounds_follow_a_small_scale(self, offset_game, capsys):
        assert main(["verify", offset_game]) == 1
        assert "FAIL  components-normalized" in capsys.readouterr().out

    @staticmethod
    def check_out_matches_stdout(path, code, tmp_path, capsys):
        assert main(["verify", path]) == code
        printed = capsys.readouterr().out
        out = tmp_path / "report.txt"
        assert main(["verify", path, "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_out_file(self, game_file, tmp_path, capsys):
        self.check_out_matches_stdout(game_file(road_sharing(), "road.json"), 0, tmp_path, capsys)

    def test_out_file_on_failure(self, offset_game, tmp_path, capsys):
        self.check_out_matches_stdout(offset_game, 1, tmp_path, capsys)

    def test_broken_edge_operator_fails(self, game_file, capsys, monkeypatch):
        # the operator checks test the block divergence that verify calls
        def zero(counts, player, x):
            return np.zeros(math.prod(counts))

        monkeypatch.setattr(gamehodge.cli, "_divergence", zero)
        path = game_file(road_sharing(), "road.json")
        assert main(["verify", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(
            line.startswith("FAIL  player-laplacian-projection-identity  (violation ")
            for line in lines
        )
        assert lines[-1] == "9/11 checks passed"

    def test_slightly_scaled_divergence_fails(self, game_file, capsys, monkeypatch):
        # a relative defect of 1e-10 in one edge operator fails both
        # operator checks
        divergence = gamehodge.cli._divergence
        monkeypatch.setattr(
            gamehodge.cli, "_divergence", lambda *args: divergence(*args) * (1 + 1e-10)
        )
        path = game_file(road_sharing(), "road.json")
        assert main(["verify", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line.split()[1] for line in lines if line.startswith("FAIL")]
        assert failed == ["gradient-divergence-adjointness", "player-laplacian-projection-identity"]


class TestExportFlowCommand:
    def test_battle_of_sexes_dot(self, game_file, capsys):
        path = game_file(battle_of_sexes(), "bos.json")
        assert main(["export-flow", path]) == 0
        dot = capsys.readouterr().out
        assert dot.count("->") == 4
        labels = sorted(
            int(part.split('"')[1])
            for part in dot.splitlines()
            if "label" in part and "->" in part
        )
        assert labels == [2, 2, 3, 3]

    def test_json_format(self, game_file, capsys):
        path = game_file(battle_of_sexes(), "bos.json")
        assert main(["export-flow", path, "--format", "json"]) == 0
        doc = read_json(capsys)
        assert sorted(e["value"] for e in doc["edges"]) == [2, 2, 3, 3]

    def test_matches_per_edge_listing(self, game_file, capsys):
        # a tie-heavy integer game: many zero edges, equal magnitudes, and a
        # one-strategy player with no edges at all
        rng = np.random.default_rng(33)
        counts = (3, 1, 4)
        g = Game(rng.integers(-2, 3, size=(3, 12)).astype(float), counts)
        path = game_file(g, "ties.json")
        graph = build_graph(counts)
        flow = pairwise_comparison(g, graph)
        labels = ["(" + ",".join(map(str, p)) + ")" for p in g.profiles()]
        edges, dot = [], ["digraph flow {"] + [f'  n{i} [label="{s}"];' for i, s in enumerate(labels)]
        for t, h, v in zip(graph.tails.tolist(), graph.heads.tolist(), flow.values.tolist()):
            if v == 0.0:
                continue
            if v < 0:
                t, h, v = h, t, -v
            edges.append(
                {
                    "from": list(profile_of_index(t, counts)),
                    "to": list(profile_of_index(h, counts)),
                    "value": v,
                }
            )
            dot.append(f'  n{t} -> n{h} [label="{v:.12g}"];')
        assert 0 < len(edges) < graph.num_edges
        assert main(["export-flow", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps({"edges": edges}, indent=2) + "\n"
        assert main(["export-flow", path, "--format", "dot"]) == 0
        assert capsys.readouterr().out == "\n".join(dot + ["}"]) + "\n"

    def test_dot_labels_follow_profile_order(self, game_file, capsys):
        counts = (2, 3, 4)
        labels = [["a", "b"], ["x", "y", "z"], ["p", "q", "r", "s"]]
        u = np.random.default_rng(34).integers(-3, 4, size=(3, 24)).astype(float)
        g = Game(u, counts, strategy_labels=labels)
        path = game_file(g, "labelled.json")
        names = [
            "(" + ",".join(labels[m][s] for m, s in enumerate(profile_of_index(i, counts))) + ")"
            for i in range(24)
        ]
        assert main(["export-flow", path]) == 0
        assert capsys.readouterr().out == flow_to_dot(pairwise_comparison(g), node_labels=names)

    def test_dot_labels_with_quotes_backslashes_and_newlines(self, game_file, capsys):
        labels = [['say "hi"', "back\\slash"], ["two\nlines", '\\"\n']]
        g = Game(np.arange(8.0).reshape(2, 4), (2, 2), strategy_labels=labels)
        path = game_file(g, "quoted.json")
        names = ["(" + ",".join(labels[m][s] for m, s in enumerate(p)) + ")" for p in g.profiles()]
        assert main(["export-flow", path]) == 0
        assert dot_node_labels(capsys.readouterr().out) == dict(enumerate(names))

    def test_dot_spanning_many_chunks_matches_per_edge_listing(self, game_file, capsys):
        # 60x60 has 212 400 edges, more than the export writes in one chunk
        counts = (60, 60)
        g = random_game(np.random.default_rng(35), counts)
        path = game_file(g, "g60.json")
        graph = build_graph(counts)
        flow = pairwise_comparison(g, graph)
        labels = ["(" + ",".join(map(str, p)) + ")" for p in g.profiles()]
        dot = ["digraph flow {"] + [f'  n{i} [label="{s}"];' for i, s in enumerate(labels)]
        for t, h, v in zip(graph.tails.tolist(), graph.heads.tolist(), flow.values.tolist()):
            if v < 0:
                t, h, v = h, t, -v
            dot.append(f'  n{t} -> n{h} [label="{v:.12g}"];')
        assert len(dot) == 1 + 3600 + 212_400
        assert main(["export-flow", path]) == 0
        assert capsys.readouterr().out == "\n".join(dot + ["}"]) + "\n"

    def test_json_spanning_many_chunks_matches_per_edge_listing(self, game_file, capsys):
        # 2x257: player 0's 257 edges fit in one partial chunk, player 1's
        # 65 792 fill one chunk of 2^16 and start a partial second one
        counts = (2, 257)
        g = random_game(np.random.default_rng(35), counts)
        path = game_file(g, "g2x257.json")
        graph = build_graph(counts)
        values = pairwise_comparison(g, graph).values
        # each arrow points along its positive flow; a -0.0 value keeps its
        # direction and its sign
        back = values < 0
        tails = np.where(back, graph.heads, graph.tails)
        heads = np.where(back, graph.tails, graph.heads)
        froms = np.column_stack(np.unravel_index(tails, counts)).tolist()
        tos = np.column_stack(np.unravel_index(heads, counts)).tolist()
        edges = [
            {"from": f, "to": t, "value": float(f"{v:.12g}")}
            for f, t, v in zip(froms, tos, np.where(back, -values, values).tolist())
        ]
        assert len(edges) == 66_049
        assert graph.player_slice(1).stop - graph.player_slice(1).start == (1 << 16) + 256
        assert main(["export-flow", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps({"edges": edges}, indent=2) + "\n"

    def test_json_without_arrows(self, game_file, capsys):
        path = game_file(Game(np.zeros((2, 9)), (3, 3)), "zero.json")
        assert main(["export-flow", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == '{\n  "edges": []\n}\n'

    def test_verify_checks_the_edge_cap_before_any_profile_loop(
        self, game_file, capsys, monkeypatch
    ):
        def fail(*args):
            raise AssertionError("a check ran before the edge cap")

        monkeypatch.setattr(gamehodge.flows, "DEFAULT_EDGE_CAP", 3)
        monkeypatch.setattr(gamehodge.cli, "normalize", fail)
        path = game_file(matching_pennies(), "mp.json")
        assert main(["verify", path]) == 4
        assert capsys.readouterr().err.startswith("precondition error:")

    @pytest.mark.parametrize("command", ["verify", "export-flow"])
    def test_edge_cap_exits_4(self, game_file, capsys, monkeypatch, command):
        # matching pennies has 4 edges
        monkeypatch.setattr(gamehodge.flows, "DEFAULT_EDGE_CAP", 3)
        path = game_file(matching_pennies(), "mp.json")
        assert main([command, path]) == 4
        assert capsys.readouterr().err.startswith("precondition error:")


def _rounded(obj):
    """``obj`` with every float rounded to the 12 significant digits the CLI prints."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def _edge_listing(game):
    """``export-flow`` arrows from the graph's edge arrays, one edge at a time."""
    counts = game.strategy_counts
    graph = build_graph(counts)
    edges = []
    for t, h, v in zip(graph.tails.tolist(), graph.heads.tolist(), pairwise_comparison(game).values):
        if v != 0.0:
            t, h = (t, h) if v > 0 else (h, t)
            ends = (list(profile_of_index(e, counts)) for e in (t, h))
            edges.append(dict(zip(("from", "to"), ends), value=abs(float(v))))
    return edges


FORMAT_GAMES = {
    "battle-of-sexes": battle_of_sexes(),
    "matching-pennies": matching_pennies(),
    "rps": generalized_rps(2.0, 1.0, 3.0),
    "road-sharing": road_sharing(),
    "cyclic-three-player": cyclic_three_player(),
    "awkward": awkward_game(),
    "zero": Game(np.zeros((2, 4)), (2, 2)),
    "one-player": Game([[0.5, -2.0, 1e-7]], (3,)),
    "ties-3x1x4": Game(np.random.default_rng(33).integers(-2, 3, size=(3, 12)), (3, 1, 4)),
}

# each command with the document it prints, built through the public API
FORMAT_COMMANDS = {
    "decompose": lambda g: decomposition_to_dict(decompose(g)),
    "project --onto potential": lambda g: game_to_dict(closest_potential(g)),
    "project --onto harmonic": lambda g: game_to_dict(closest_harmonic(g)),
    "equilibria": lambda g: equilibrium_report(g),
    "equilibria --eps 0.5": lambda g: equilibrium_report(g, eps=0.5),
    "pareto": lambda g: {
        "pure_nash": [list(p) for p in pure_nash(g)],
        "pareto_optimal": [list(p) for p in pareto_optimal(g)],
    },
    "pareto --transform": lambda g: game_to_dict(pareto_align_transform(g)),
    "export-flow --format json": lambda g: {"edges": _edge_listing(g)},
}


class TestJsonDocuments:
    """Every JSON document is the text of ``json.dumps(..., indent=2)`` of its
    contents rounded to 12 significant digits, with one trailing newline."""

    @pytest.mark.parametrize("command", list(FORMAT_COMMANDS))
    @pytest.mark.parametrize("name", list(FORMAT_GAMES))
    def test_stdout_is_json_dumps(self, game_file, capsys, name, command):
        g = FORMAT_GAMES[name]
        argv = command.split()
        assert main([argv[0], game_file(g, "g.json"), *argv[1:]]) == 0
        want = _rounded(FORMAT_COMMANDS[command](g))
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize("to", ["potential", "harmonic"])
    @pytest.mark.parametrize("name", list(FORMAT_GAMES))
    def test_distance_out_is_json_dumps(self, game_file, tmp_path, name, to):
        g = FORMAT_GAMES[name]
        out = tmp_path / "distance.json"
        assert main(["distance", game_file(g, "g.json"), "--to", to, "--out", str(out)]) == 0
        # the distance to a class is the norm of the part its projection drops
        d = decompose(g)
        dropped = d.harmonic_part if to == "potential" else d.potential_part
        want = _rounded({"to": to, "distance": game_norm(dropped)})
        assert out.read_text() == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize("counts", [(2, 2), (3,), (2, 3, 4), (1, 5)])
    def test_dims_is_json_dumps(self, capsys, counts):
        argv = ["dims", str(len(counts)), ",".join(map(str, counts)), "--format", "json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(subspace_dims(counts)._asdict(), indent=2) + "\n"

    @pytest.mark.parametrize("command", list(FORMAT_COMMANDS))
    def test_each_float_is_formatted_once(self, game_file, capsys, monkeypatch, command):
        # the writer formats each value once: 81 calls for road sharing's 81
        # decompose floats, where formatting a value's text twice made 82
        calls, number = [], gamehodge.cli._number
        monkeypatch.setattr(gamehodge.cli, "_number", lambda x: calls.append(x) or number(x))
        argv = command.split()
        assert main([argv[0], game_file(road_sharing(), "g.json"), *argv[1:]]) == 0
        assert len(calls) == len(_numbers(json.loads(capsys.readouterr().out)))

    def test_out_file_matches_stdout(self, game_file, tmp_path, capsys):
        path = game_file(awkward_game(), "g.json")
        out = tmp_path / "d.json"
        assert main(["decompose", path]) == 0
        assert main(["decompose", path, "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_decompose_out_peak_memory(self, game_file, tmp_path):
        # the payoffs are formatted one row slice at a time; per-value lists
        # of the three parts plus the whole text would peak near 2.2 MiB here
        path = game_file(random_game(np.random.default_rng(42), (40, 40)), "g40.json")
        tracemalloc.start()
        try:
            assert main(["decompose", path, "--out", str(tmp_path / "d.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20


class TestLargeGame:
    @pytest.mark.parametrize(
        "argv",
        [["decompose"], ["project", "--onto", "potential"], ["distance", "--to", "harmonic"]],
        ids=["decompose", "project", "distance"],
    )
    def test_100x100_commands_succeed(self, game_file, tmp_path, argv):
        path = game_file(random_game(np.random.default_rng(42), (100, 100)), "g100.json")
        out = tmp_path / "out.json"
        assert main([argv[0], path, *argv[1:], "--out", str(out)]) == 0
        assert json.loads(out.read_text())

    def test_100x100_verify_passes(self, game_file, capsys):
        path = game_file(random_game(np.random.default_rng(42), (100, 100)), "g100.json")
        assert main(["verify", path]) == 0
        assert "11/11 checks passed" in capsys.readouterr().out.splitlines()

    def test_100x100_verify_peak_memory(self, game_file):
        # the edge operators are tested one player's block of edges at a
        # time, so no array holds one value per edge of the whole graph
        path = game_file(random_game(np.random.default_rng(42), (100, 100)), "g100.json")
        tracemalloc.start()
        try:
            assert main(["verify", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 2**20


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        mp = tmp_path / "mp.json"
        save_game(matching_pennies(), mp)
        proc = subprocess.run(
            [sys.executable, "-m", "gamehodge.cli", "distance", str(mp), "--to", "potential"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "4"

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gamehodge.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "gamehodge" in proc.stdout
