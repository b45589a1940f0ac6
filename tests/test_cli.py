import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gamehodge import game_from_dict, is_potential, save_game
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


class TestVerifyCommand:
    def test_passes_on_valid_game(self, game_file, capsys):
        path = game_file(road_sharing(), "road.json")
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out


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

    def test_node_cap_exits_4(self, game_file, capsys, monkeypatch):
        monkeypatch.setenv("GAMEHODGE_MAX_NODES", "3")
        path = game_file(matching_pennies(), "mp.json")
        assert main(["export-flow", path]) == 4


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
        assert "15/15 checks passed" in capsys.readouterr().out.splitlines()

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
