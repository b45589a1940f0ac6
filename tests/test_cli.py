import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gamehodge.cli
import gamehodge.flows
from gamehodge import (
    Game,
    build_graph,
    flow_to_dot,
    game_from_dict,
    is_potential,
    pairwise_comparison,
    profile_of_index,
    save_game,
)
from gamehodge.catalog import (
    battle_of_sexes,
    generalized_rps,
    matching_pennies,
    road_sharing,
)
from gamehodge.cli import main
from helpers import random_game


@pytest.fixture
def game_file(tmp_path):
    def write(game, name):
        path = tmp_path / name
        save_game(game, path)
        return str(path)

    return write


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestDecomposeCommand:
    def test_classic_rps_has_zero_potential_block(self, game_file, capsys):
        path = game_file(generalized_rps(1 / 3, 1 / 3, 1 / 3), "rps.json")
        assert main(["decompose", path]) == 0
        doc = read_json(capsys)
        assert np.abs(np.array(doc["potential"]["utilities"])).max() <= 1e-9
        assert doc["residuals"]["reconstruction"] <= 1e-9

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

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["decompose", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["decompose", "/nonexistent/game.json"]) == 2

    def test_missed_solve_tolerance_exits_3(self, game_file, capsys, monkeypatch):
        # a corrupted inverse transform makes the solve miss its tolerance
        rng = np.random.default_rng(65)
        path = game_file(random_game(rng, (3, 3)), "g.json")
        monkeypatch.setattr(
            np.fft, "ifftn", lambda a, *args, **kwargs: rng.uniform(-1.0, 1.0, np.shape(a)) + 0j
        )
        assert main(["decompose", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: Laplacian solve missed its tolerance")
        assert "(residual " in captured.err


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


class TestNumericFlags:
    # a bad --tol or --eps is a usage error (exit 2), not a traceback, a
    # verify failure, a blamed input or an output with NaN in it; decompose
    # reads no --tol, so there the flag itself is the usage error
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
        if command == "decompose":
            assert f"unrecognized arguments: {flag} {value}" in captured.err
        else:
            assert f"argument {flag}: must be a finite number >= 0" in captured.err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--tol", "abc", "invalid number: 'abc'"), ("--seed", "x", "invalid integer: 'x'")],
    )
    def test_unparsable_value_exits_2(self, game_file, capsys, flag, value, message):
        path = game_file(matching_pennies(), "mp.json")
        with pytest.raises(SystemExit) as info:
            main(["verify", path, flag, value])
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


class TestDistanceCommand:
    def test_matching_pennies_to_potential(self, game_file, capsys):
        path = game_file(matching_pennies(), "mp.json")
        assert main(["distance", path, "--to", "potential"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_potential_game_distance_zero(self, game_file, capsys):
        path = game_file(battle_of_sexes(), "bos.json")
        assert main(["distance", path, "--to", "potential"]) == 0
        assert float(capsys.readouterr().out) <= 1e-9


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

    @pytest.fixture
    def offset_game(self, game_file, monkeypatch):
        # an error of 1e-6 relative to the game must fail verify, also when
        # the game's payoffs are far below 1
        scale = 1e-12
        path = game_file(random_game(np.random.default_rng(51), (3, 3), scale), "g.json")
        decompose = gamehodge.cli.decompose

        def offset(game):
            d = decompose(game)
            harmonic = d.harmonic_part.utilities + 1e-6 * scale
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
        assert lines[-1] == "12/14 checks passed"


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
        counts = (60, 60)
        g = random_game(np.random.default_rng(35), counts)
        path = game_file(g, "g60.json")
        graph = build_graph(counts)
        flow = pairwise_comparison(g, graph)
        edges = []
        for t, h, v in zip(graph.tails.tolist(), graph.heads.tolist(), flow.values.tolist()):
            if v < 0:
                t, h, v = h, t, -v
            edges.append(
                {
                    "from": list(profile_of_index(t, counts)),
                    "to": list(profile_of_index(h, counts)),
                    "value": float(f"{v:.12g}"),
                }
            )
        assert len(edges) == 212_400
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
        # the curl-of-game-flow check covers all 32 340 000 triangles
        path = game_file(random_game(np.random.default_rng(42), (100, 100)), "g100.json")
        assert main(["verify", path]) == 0
        assert "14/14 checks passed" in capsys.readouterr().out.splitlines()

    def test_100x100_verify_peak_memory(self, game_file):
        # the curl check keeps a running maximum over one own-strategy pair's
        # block at a time; the full triangle array alone is 247 MiB
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
