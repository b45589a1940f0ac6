import itertools
import json

import numpy as np
import pytest

import gamehodge.game
from gamehodge import (
    EdgeFlow,
    Game,
    GameFormatError,
    NumericError,
    ShapeError,
    TriangleFlow,
    build_graph,
    game_from_dict,
    game_to_dict,
    is_normalized,
    load_game,
    normalize,
    pairwise_comparison,
    pareto_align_transform,
    profile_index,
    profile_of_index,
    save_game,
    zero_sum_identical_split,
)
from gamehodge.catalog import (
    battle_of_sexes,
    generalized_rps,
    matching_pennies,
    modified_battle_of_sexes,
)
from gamehodge.cli import main
from gamehodge.game import _json_pieces
from helpers import (
    assert_games_close,
    awkward_game,
    overflowing_game,
    random_game,
    rps_nonstrategic,
)


class TestProfileIndexing:
    def test_zero_profile(self):
        assert profile_index((0, 0), (2, 2)) == 0

    def test_last_player_fastest(self):
        assert profile_index((1, 0), (2, 2)) == 2

    def test_enumeration_oracle(self):
        # enumerate all profiles with the last coordinate varying fastest and
        # check the closed-form index against the position in that ordering
        counts = (2, 3, 2)
        ordering = list(itertools.product(range(2), range(3), range(2)))
        assert ordering.index((1, 2, 1)) == 11
        assert profile_index((1, 2, 1), counts) == 11
        for pos, profile in enumerate(ordering):
            assert profile_index(profile, counts) == pos
            assert profile_of_index(pos, counts) == profile

    @pytest.mark.parametrize("counts", [(1,), (4,), (2, 2), (3, 2, 4)])
    def test_roundtrip_bijection(self, counts):
        n = int(np.prod(counts))
        seen = set()
        for i in range(n):
            p = profile_of_index(i, counts)
            assert profile_index(p, counts) == i
            seen.add(p)
        assert len(seen) == n

    def test_bounds_errors(self):
        with pytest.raises(IndexError):
            profile_index((2, 0), (2, 2))
        with pytest.raises(IndexError):
            profile_index((0, -1), (2, 2))
        with pytest.raises(IndexError):
            profile_of_index(4, (2, 2))

    # a coordinate is an int or a numpy integer, never a float, 1.0 included;
    # every reader of a profile refuses one with the same IndexError
    @pytest.mark.parametrize("bad", [1.5, 0.5, 1.0, np.float64(1.0)], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda bad: profile_index((bad, 0), (2, 2)),
        lambda bad: build_graph((2, 2)).node_index((0, bad)),
        lambda bad: battle_of_sexes().utility(0, (bad, 0)),
        lambda bad: EdgeFlow(build_graph((2, 2)), np.ones(4)).value((bad, 0), (0, 0)),
        lambda bad: TriangleFlow(build_graph((3,)), np.ones(1)).value((bad,), (1,), (2,)),
    ], ids=["profile_index", "node_index", "utility", "edge-value", "triangle-value"])
    def test_non_integer_coordinates_raise_index_error(self, call, bad):
        with pytest.raises(IndexError, match="is not an integer"):
            call(bad)


class TestUtility:
    def test_battle_of_sexes_payoffs(self):
        bos = battle_of_sexes()
        assert bos.utility(0, (0, 0)) == 3.0  # row player at (O, O)
        assert bos.utility(1, (1, 1)) == 3.0  # column player at (F, F)

    def test_zero_game(self):
        g = Game(np.zeros((2, 4)), (2, 2))
        for p in g.profiles():
            assert g.utility(0, p) == 0.0

    def test_invalid_player(self):
        with pytest.raises(IndexError):
            battle_of_sexes().utility(2, (0, 0))

    def test_tensor_matches_flat(self):
        rng = np.random.default_rng(5)
        g = random_game(rng, (2, 3, 2))
        t = g.tensor(1)
        for i in range(g.num_profiles):
            p = profile_of_index(i, g.strategy_counts)
            assert t[p] == g.utilities[1, i]


class TestNormalize:
    def test_bos_and_modified_bos_agree(self):
        # the two games differ only nonstrategically, so they share the
        # unique normalized representative
        a = normalize(battle_of_sexes())
        b = normalize(modified_battle_of_sexes())
        assert_games_close(a, b, tol=1e-12)

    def test_matching_pennies_unchanged(self):
        mp = matching_pennies()
        assert_games_close(normalize(mp), mp, tol=0.0)

    @pytest.mark.parametrize("xyz", [(1.0, 0.0, 0.0), (2.0, 1.0, 3.0)])
    def test_rps_normalization_strips_opponent_shifts(self, xyz):
        g = generalized_rps(*xyz)
        na, nb = rps_nonstrategic(*xyz)
        expected = Game.from_payoff_matrices(g.tensor(0) - na, g.tensor(1) - nb)
        assert_games_close(normalize(g), expected, tol=1e-12)

    def test_idempotent_and_flow_preserving(self):
        rng = np.random.default_rng(11)
        for counts in [(2, 2), (3, 2), (2, 2, 3)]:
            g = random_game(rng, counts, scale=5.0)
            ng = normalize(g)
            assert_games_close(normalize(ng), ng, tol=1e-12)
            before = pairwise_comparison(g)
            after = pairwise_comparison(ng)
            assert (before - after).max_abs() <= 1e-12

    def test_is_normalized(self):
        assert is_normalized(matching_pennies())
        assert not is_normalized(battle_of_sexes())  # column sums (3, 2) != 0
        rng = np.random.default_rng(3)
        g = random_game(rng, (3, 2, 2), scale=7.0)
        assert is_normalized(normalize(g), tol=1e-12)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            is_normalized(matching_pennies(), tol=-1.0)

    def test_nan_tol_rejected(self):
        # every comparison with NaN is false, so a NaN tol would pass any game
        with pytest.raises(ValueError):
            is_normalized(battle_of_sexes(), tol=float("nan"))


class TestOverflowingDerivedPayoffs:
    # the input payoffs are finite; an overflow in what the library derives
    # from them is a numeric error, not a malformed game
    @pytest.mark.parametrize(
        "derive", [normalize, pareto_align_transform, pairwise_comparison, zero_sum_identical_split]
    )
    def test_raises_numeric_error(self, derive):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError):
                derive(overflowing_game())


class TestZeroSumIdenticalSplit:
    def test_matching_pennies_is_pure_zero_sum(self):
        mp = matching_pennies()
        z, i = zero_sum_identical_split(mp)
        assert_games_close(z, mp, tol=0.0)
        assert np.all(i.utilities == 0.0)

    def test_identical_interest_game(self):
        a = np.array([[1.0, 2.0], [0.0, -1.0]])
        g = Game.from_payoff_matrices(a, a)
        z, i = zero_sum_identical_split(g)
        assert np.all(z.utilities == 0.0)
        assert_games_close(i, g, tol=0.0)

    def test_battle_of_sexes_values(self):
        z, i = zero_sum_identical_split(battle_of_sexes())
        assert z.utility(0, (0, 0)) == 0.5
        assert i.utility(0, (0, 0)) == 2.5

    def test_reconstruction_and_structure(self):
        rng = np.random.default_rng(4)
        g = random_game(rng, (3, 4), scale=2.0)
        z, i = zero_sum_identical_split(g)
        assert_games_close(g.with_utilities(z.utilities + i.utilities), g, tol=0.0)
        assert np.abs(z.utilities[0] + z.utilities[1]).max() == 0.0
        assert np.array_equal(i.utilities[0], i.utilities[1])

    def test_requires_two_players(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeError):
            zero_sum_identical_split(random_game(rng, (2, 2, 2)))


class TestJsonFormat:
    def test_roundtrip(self, tmp_path):
        g = generalized_rps(2.0, 1.0, 3.0)
        path = tmp_path / "rps.json"
        save_game(g, path)
        loaded = load_game(path)
        assert loaded == g
        assert loaded.player_names == g.player_names
        assert loaded.strategy_labels == g.strategy_labels

    @pytest.mark.parametrize(
        "game",
        [
            battle_of_sexes(),
            generalized_rps(2.0, 1.0, 3.0),
            awkward_game(),
            Game([[0.5, -2.0]], (2,)),
        ],
        ids=["battle-of-sexes", "rps", "awkward", "one-player"],
    )
    def test_saved_text_is_json_dumps(self, tmp_path, game):
        path = tmp_path / "g.json"
        save_game(game, path)
        doc = game_to_dict(game)
        assert all(type(v) is float for row in doc["utilities"] for v in row)
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"
        assert load_game(path) == game

    def test_dict_roundtrip(self):
        g = battle_of_sexes()
        assert game_from_dict(game_to_dict(g)) == g

    def test_rejects_length_mismatch(self):
        doc = game_to_dict(matching_pennies())
        doc["utilities"][0] = doc["utilities"][0][:-1]
        with pytest.raises(GameFormatError):
            game_from_dict(doc)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"players": [{"name": "a", "strategies": ["x", "y"]},'
            ' {"name": "b", "strategies": ["x", "y"]}],'
            ' "utilities": [[1, 2, 3, Infinity], [0, 0, 0, 0]]}'
        )
        with pytest.raises(GameFormatError):
            load_game(path)

    def test_integers_past_the_digit_limit_read_as_non_finite(self, tmp_path, monkeypatch):
        # a valid file goes through json's own int parsing, with no Python
        # call per integer token; only a file with an integer past Python's
        # digit limit is read again, such integers as +-inf
        path = tmp_path / "ints.json"
        path.write_text('{"players": [{"strategies": [0, 1]}], "utilities": [[3, -4]]}')
        parse_int = gamehodge.game._parse_int
        monkeypatch.setattr(gamehodge.game, "_parse_int", None)
        game = load_game(path)
        assert game.strategy_labels == (("0", "1"),)
        assert game.utilities.tolist() == [[3.0, -4.0]]
        monkeypatch.setattr(gamehodge.game, "_parse_int", parse_int)
        for sign in ["", "-"]:
            path.write_text('{"players": [{"strategies": ["a", "b"]}], "utilities": [[0, %s]]}'
                            % (sign + "9" * 5000))
            with pytest.raises(GameFormatError, match="^payoffs must be finite$"):
                load_game(path)

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GameFormatError):
            load_game(path)

    def test_rejects_missing_players(self):
        with pytest.raises(GameFormatError):
            game_from_dict({"utilities": [[0.0]]})

    def test_rejects_non_numeric_payoff(self):
        # payoffs are JSON numbers: no string, not even of a number, no bool, no null
        for value in ["three", "3", "nan", True, None]:
            doc = game_to_dict(matching_pennies())
            doc["utilities"][1][2] = value
            with pytest.raises(GameFormatError, match="non-numeric entry"):
                game_from_dict(doc)

    # the documents game_from_dict refuses before it reads a payoff; the CLI
    # reads each from a file and exits 2
    @pytest.mark.parametrize(
        "doc,message",
        [
            ([1, 2], "must be a JSON object"),
            ({"players": [{"strategies": ["a"]}], "utilities": [[0], [0]]},
             "one payoff array per player"),
            ({"players": [{"name": "a"}], "utilities": [[0]]}, "needs a strategies list"),
            ({"players": [{"strategies": []}], "utilities": [[]]}, "at least one strategy"),
        ],
        ids=["not-an-object", "utilities-count", "no-strategies", "empty-strategies"],
    )
    def test_malformed_document(self, tmp_path, capsys, doc, message):
        with pytest.raises(GameFormatError, match=message):
            game_from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestJsonWriter:
    """``_json_pieces`` yields the text of ``json.dumps(..., indent=2)``."""

    ROW = [1e16, 1e15, 123456789012.0, -0.0, 1e-5, 2.5e-7, 3.0, 5e-324, 0.1, 1 / 3]

    @pytest.mark.parametrize(
        "doc",
        [
            {"rows": np.array([ROW, ROW[::-1]]), "phi": np.array(ROW)},
            {"empty": [], "nothing": {}, "none": None, "flags": [True, False], "n": 7},
            {"numpy-scalar": np.float64(0.1), "sum": np.float64(1e16) + 1.0},
            {"non-finite": np.array([np.inf, -np.inf, np.nan, 1.5]), "x": float("nan")},
            {"ints": np.arange(4), "tuples": [(0, 1), (2,), ()], "text": ["Zo\u00eb", "a\nb"]},
            [{"a": [1, [2.5, {}]]}, [], [[]], -0.0],
            np.zeros((0, 3)),
            np.zeros((2, 0)),
            3.25,
        ],
        ids=[
            "arrays", "scalars", "numpy-scalars", "non-finite", "ints-and-tuples", "nested",
            "no-rows", "empty-rows", "scalar",
        ],
    )
    def test_matches_json_dumps(self, doc):
        def plain(x):  # what json.dumps reads for each array
            if isinstance(x, np.ndarray):
                return x.tolist()
            if isinstance(x, dict):
                return {k: plain(v) for k, v in x.items()}
            return [plain(v) for v in x] if isinstance(x, (list, tuple)) else x

        assert "".join(_json_pieces(doc, repr)) == json.dumps(plain(doc), indent=2)

    def test_iterators_are_read_as_lists(self):
        doc = {"edges": ({"from": [i], "value": i / 7} for i in range(3)), "none": iter([])}
        want = {"edges": [{"from": [i], "value": i / 7} for i in range(3)], "none": []}
        assert "".join(_json_pieces(doc, repr)) == json.dumps(want, indent=2)

    def test_long_rows_span_pieces(self, monkeypatch):
        monkeypatch.setattr(gamehodge.game, "_CHUNK", 3)
        row = np.arange(10) / 3
        pieces = list(_json_pieces({"u": [row, row[:3]]}, repr))
        assert "".join(pieces) == json.dumps({"u": [row.tolist(), row[:3].tolist()]}, indent=2)
        assert len(pieces) > 6

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            "".join(_json_pieces({"x": np.int64(3)}, repr))


class TestTypedErrors:
    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: profile_index((0,), (2, 2)), ShapeError, "profile has 1 coordinates"),
            (lambda: Game(np.zeros((2, 4)), (2, 2), player_names=["a"]), GameFormatError,
             "player_names length"),
            (lambda: Game(np.zeros((2, 4)), (2, 2), strategy_labels=[["a", "b"], ["c"]]),
             GameFormatError, "strategy_labels lengths"),
            (lambda: Game.from_payoff_matrices(np.zeros((2, 2)), np.zeros((2, 3))), ShapeError,
             "must share a 2-d shape"),
        ],
        ids=["profile-coordinates", "player-names", "strategy-labels", "unequal-matrices"],
    )
    def test_raises_its_typed_error(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestGameConstruction:
    def test_shape_validation(self):
        with pytest.raises(GameFormatError):
            Game(np.zeros((2, 5)), (2, 2))
        with pytest.raises(ShapeError):
            Game(np.zeros((1, 1)), ())

    @pytest.mark.parametrize("counts", [(2.5, 2), (2, 2.5), (2, float("nan")), ("2", 2)])
    def test_non_whole_counts_raise_shape_error(self, counts):
        with pytest.raises(ShapeError, match="invalid strategy counts"):
            Game(np.zeros((2, 4)), counts)

    @pytest.mark.parametrize("counts", [(2.0, 3.0), (np.int64(2), np.int32(3)), np.array([2, 3])])
    def test_whole_counts_of_any_numeric_type(self, counts):
        g = Game(np.arange(12.0).reshape(2, 6), counts)
        assert g.strategy_counts == (2, 3)
        assert all(type(h) is int for h in g.strategy_counts)

    def test_rejects_non_finite_payoffs(self):
        u = np.zeros((2, 4))
        u[0, 0] = np.nan
        with pytest.raises(GameFormatError):
            Game(u, (2, 2))

    def test_tensor_input_accepted(self):
        u = np.arange(8.0).reshape(2, 2, 2)
        g = Game(u, (2, 2))
        assert g.utility(1, (1, 0)) == u[1, 1, 0]

    def test_utilities_are_immutable(self):
        g = matching_pennies()
        with pytest.raises(ValueError):
            g.utilities[0, 0] = 7.0
