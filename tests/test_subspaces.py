import warnings

import numpy as np
import pytest

from gamehodge import (
    Game,
    NumericError,
    ShapeError,
    SizeError,
    basis_export,
    decompose,
    divergence_adjoint,
    empirical_dims,
    game_norm,
    harmonic_basis_2p,
    is_normalized,
    is_potential,
    nonstrategic_basis,
    normalize,
    pairwise_comparison,
    project_player,
    subspace_dims,
    verify_normalized_harmonic,
    zs_ii_intersection_dims,
)
from gamehodge import subspaces
from gamehodge.catalog import battle_of_sexes, generalized_rps, matching_pennies
from gamehodge.subspaces import numeric_rank
from helpers import random_game, relabelled, rps_harmonic


class TestNonstrategicBasis:
    @pytest.mark.parametrize("counts,count", [((2, 2), 4), ((2, 3), 5), ((2, 2, 2), 12)])
    def test_counts_match_dimension(self, counts, count):
        basis = nonstrategic_basis(counts)
        assert len(basis) == count
        assert count == subspace_dims(counts).nonstrategic

    def test_elements_generate_no_flow(self):
        for b in nonstrategic_basis((2, 3)).games:
            assert pairwise_comparison(b).max_abs() == 0.0

    def test_linear_independence(self):
        basis = nonstrategic_basis((2, 2, 2))
        assert numeric_rank(basis.matrix()) == len(basis)

    def test_manifest(self):
        doc = basis_export(nonstrategic_basis((2, 2)))
        assert doc["subspace"] == "N"
        assert len(doc["manifest"]) == len(doc["games"]) == 4


def _nonstrategic_games(counts):
    """The nonstrategic basis games and tags built one block at a time."""
    n = int(np.prod(counts))
    games, tags = [], []
    for m, h in enumerate(counts):
        rest = n // h
        for r in range(rest):
            block = np.zeros((h, rest))
            block[:, r] = 1.0
            others = tuple(c for k, c in enumerate(counts) if k != m)
            u = np.zeros((len(counts), n))
            u[m] = np.moveaxis(block.reshape((h,) + others), 0, m).ravel()
            games.append(Game(u, counts))
            tags.append(f"N[player={m},block={r}]")
    return games, tags


def _harmonic_games_2p(h1, h2):
    """The two-player harmonic basis games and tags built one checkerboard at a time."""
    games, tags = [], []
    for i in range(h1 - 1):
        for j in range(h2 - 1):
            a = np.zeros((h1, h2))
            a[i, j] = a[i + 1, j + 1] = 1.0
            a[i + 1, j] = a[i, j + 1] = -1.0
            games.append(Game.from_payoff_matrices(h2 * a, -h1 * a))
            tags.append(f"H[i={i},j={j}]")
    return games, tags


def _same_games(got, want):
    return len(got) == len(want) and all(
        g.strategy_counts == w.strategy_counts
        and g.player_names == w.player_names
        and g.strategy_labels == w.strategy_labels
        and g.utilities.tobytes() == w.utilities.tobytes()
        for g, w in zip(got, want)
    )


class TestBasisRows:
    @pytest.mark.parametrize(
        "counts", [(1,), (5,), (1, 1), (2, 2), (2, 3), (3, 1, 4), (2, 2, 2), (4, 3, 2)]
    )
    def test_nonstrategic_games_order_and_tags(self, counts):
        basis = nonstrategic_basis(counts)
        games, tags = _nonstrategic_games(counts)
        assert _same_games(basis.games, games)
        assert basis.element_tags == tags
        assert (basis.tag, basis.strategy_counts) == ("N", counts)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 7)])
    def test_harmonic_games_order_and_tags(self, shape):
        basis = harmonic_basis_2p(*shape)
        games, tags = _harmonic_games_2p(*shape)
        assert _same_games(basis.games, games)
        assert basis.element_tags == tags
        assert (basis.tag, basis.strategy_counts) == ("H2p", shape)

    def test_table_builds_no_game(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a Game was built")

        monkeypatch.setattr(subspaces, "Game", fail)
        assert zs_ii_intersection_dims(4).agrees


class TestHarmonicBasis2p:
    def test_2x3_first_element_matches_table(self):
        basis = harmonic_basis_2p(2, 3)
        first = basis.games[0]
        assert np.allclose(first.tensor(0), 3 * np.array([[1, -1, 0], [-1, 1, 0]]))
        assert np.allclose(first.tensor(1), -2 * np.array([[1, -1, 0], [-1, 1, 0]]))

    def test_2x3_second_element_matches_table(self):
        basis = harmonic_basis_2p(2, 3)
        second = basis.games[1]
        assert np.allclose(second.tensor(0), 3 * np.array([[0, 1, -1], [0, -1, 1]]))
        assert np.allclose(second.tensor(1), -2 * np.array([[0, 1, -1], [0, -1, 1]]))

    def test_2x2_spans_matching_pennies(self):
        basis = harmonic_basis_2p(2, 2)
        assert len(basis) == 1
        # matching pennies is exactly half the single basis game
        mp = matching_pennies()
        assert np.allclose(0.5 * basis.games[0].utilities, mp.utilities)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (4, 3)])
    def test_count_independence_membership(self, shape):
        basis = harmonic_basis_2p(*shape)
        assert len(basis) == (shape[0] - 1) * (shape[1] - 1)
        assert len(basis) == subspace_dims(shape).harmonic
        assert numeric_rank(basis.matrix()) == len(basis)
        for g in basis.games:
            assert verify_normalized_harmonic(g, tol=1e-9)
            flow = pairwise_comparison(g)
            assert np.abs(divergence_adjoint(flow)).max() <= 1e-10

    def test_degenerate_shape_warns_and_is_empty(self):
        with pytest.warns(UserWarning):
            basis = harmonic_basis_2p(1, 4)
        assert len(basis) == 0


class TestRankZero:
    # an empty matrix and a zero one have rank 0, without a division by the
    # largest singular value; an empty basis is a (0, M*n) matrix of rank 0
    @pytest.mark.parametrize(
        "matrix,shape",
        [
            (lambda: np.zeros((0, 4)), (0, 4)),
            (lambda: np.zeros((3, 4)), (3, 4)),
            (lambda: harmonic_basis_2p(1, 3).matrix(), (0, 6)),
        ],
        ids=["empty", "zero", "empty-basis"],
    )
    def test_rank_zero(self, matrix, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the trivial-subspace warning
            a = matrix()
        assert a.shape == shape
        assert numeric_rank(a) == 0


class TestSubspaceDims:
    def test_known_shapes(self):
        assert subspace_dims((2, 2)) == (3, 1, 4, 7, 5)
        assert subspace_dims((2, 3)) == (5, 2, 5, 10, 7)
        # harmonic-games dimension follows the direct sum: H + N = 5 + 12
        assert subspace_dims((2, 2, 2)) == (7, 5, 12, 19, 17)

    @pytest.mark.parametrize("counts", [(2, 2), (4, 3), (2, 2, 2), (3, 2, 4)])
    def test_components_fill_the_space(self, counts):
        dims = subspace_dims(counts)
        total = len(counts) * int(np.prod(counts))
        assert dims.potential + dims.harmonic + dims.nonstrategic == total
        assert dims.potential_games == dims.potential + dims.nonstrategic
        assert dims.harmonic_games == dims.harmonic + dims.nonstrategic

    @pytest.mark.parametrize("counts", [(), (0,), (3, -1), (2, 0, 2), (2.5, 2)])
    def test_invalid_counts_rejected(self, counts):
        with pytest.raises(ShapeError, match="invalid strategy counts"):
            subspace_dims(counts)


class TestEmpiricalDims:
    @pytest.mark.parametrize("counts", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
    def test_measured_ranks_match_closed_forms(self, counts):
        dims = subspace_dims(counts)
        measured = empirical_dims(counts, seed=7)
        assert measured == (dims.potential, dims.harmonic, dims.nonstrategic)

    @pytest.mark.parametrize(
        "counts", [(4, 4, 4, 4), (32, 32), (2,) * 8, (65, 2), (3,), (1, 5), (1, 1)]
    )
    def test_traces_match_closed_forms(self, counts):
        # (3,), (1, 5) and (1, 1) have no harmonic games; (65, 2) has an
        # axis above the transform's matrix cut
        assert empirical_dims(counts) == subspace_dims(counts)[:3]

    @pytest.mark.parametrize("factor", [1.01, 2.0])
    def test_scaled_potential_part_raises(self, monkeypatch, factor):
        # at 1.01 the potential trace is no integer; at 2.0 the three traces
        # are integers that do not sum to M * n
        kernel = subspaces._decompose_batch

        def scaled(counts, u):
            phi, pot, harm, non, r = kernel(counts, u)
            return phi, factor * pot, harm, non, r

        monkeypatch.setattr(subspaces, "_decompose_batch", scaled)
        with pytest.raises(NumericError):
            empirical_dims((2, 3))

    def test_second_projection_that_moves_the_probe_raises(self, monkeypatch):
        kernel = subspaces._decompose_batch

        def moved_on_one_game(counts, u):
            phi, pot, harm, non, r = kernel(counts, u)
            return phi, pot * (1.0 + 1e-6 * (len(u) == 1)), harm, non, r

        monkeypatch.setattr(subspaces, "_decompose_batch", moved_on_one_game)
        with pytest.raises(NumericError, match="second projection"):
            empirical_dims((3, 3))

    def test_ambient_cap(self):
        with pytest.raises(SizeError):
            empirical_dims((40, 40, 3))

    def test_work_cap_before_the_kernel(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the kernel ran before the work cap")

        monkeypatch.setattr(subspaces, "_decompose_batch", fail)
        with pytest.raises(SizeError):
            empirical_dims((40, 40, 3))


@pytest.mark.parametrize(
    "counts", [(), (0,), (-2, 2), (2, 0, 2), (2.5, 2), (2, 3.01), (float("inf"), 2), ("2", 2)]
)
@pytest.mark.parametrize("build", [empirical_dims, nonstrategic_basis])
def test_invalid_counts_raise_shape_error(build, counts):
    with pytest.raises(ShapeError, match="invalid strategy counts"):
        build(counts)


class TestZsIiIntersections:
    def test_closed_form_h2(self):
        table = zs_ii_intersection_dims(2).closed_form
        assert table["potential_games"]["zero_sum"] == 3
        assert table["potential_games"]["identical"] == 4
        assert table["harmonic_games"]["zero_sum"] == 2
        assert table["harmonic_games"]["identical"] == 1

    def test_closed_form_h3(self):
        table = zs_ii_intersection_dims(3).closed_form
        assert table["potential_games"]["zero_sum"] == 5
        assert table["potential_games"]["identical"] == 9
        assert table["harmonic_games"]["zero_sum"] == 5
        assert table["harmonic_games"]["identical"] == 1

    @pytest.mark.parametrize("h", [2, 3])
    def test_rank_computation_agrees(self, h):
        result = zs_ii_intersection_dims(h, seed=11)
        assert result.computed is not None
        assert result.agrees
        assert result.computed == result.closed_form

    @pytest.mark.parametrize("h", [*range(1, 9), 12, 20])
    def test_complement_ranks_match_closed_form(self, h):
        for seed in range(5):
            table = zs_ii_intersection_dims(h, seed=seed)
            assert table.computed == table.closed_form
            assert table.agrees is True

    @pytest.mark.parametrize("h", range(1, 9))
    def test_runs_no_kernel(self, monkeypatch, h):
        # the potential span is drawn as (P_1 phi, P_2 phi): no decomposition
        # and no Laplacian solve
        def fail(*args):
            raise AssertionError("the table ran the decomposition kernel")

        monkeypatch.setattr(subspaces, "_decompose_batch", fail)
        for seed in range(2):
            assert zs_ii_intersection_dims(h, seed=seed).agrees is True

    @pytest.mark.parametrize("h", [2, 3, 5])
    def test_drawn_potential_rows_are_potential_games(self, monkeypatch, h):
        # the first span ranked is the potential games: 2h nonstrategic
        # rows, then one (P_1 phi, P_2 phi) row per seeded random potential
        rank = subspaces.numeric_rank
        spans = []
        monkeypatch.setattr(
            subspaces, "numeric_rank", lambda matrix, *a: spans.append(matrix) or rank(matrix, *a)
        )
        seed, n = 9, h * h
        zs_ii_intersection_dims(h, seed=seed)
        rows = spans[0][2 * h:].reshape(-1, 2, n)
        phi = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n + 5, n))
        assert len(rows) == n + 5
        for m in range(2):
            assert np.array_equal(rows[:, m], project_player((h, h), m, phi))
        for row in rows:
            assert is_potential(Game(row, (h, h)))
            # mean-free along each player's own axis
            assert np.abs(row[0].reshape(h, h).sum(axis=0)).max() <= 1e-12
            assert np.abs(row[1].reshape(h, h).sum(axis=1)).max() <= 1e-12

    @pytest.mark.parametrize("h", range(1, 7))
    def test_each_span_ranked_once(self, monkeypatch, h):
        # the potential and harmonic class spans, each with its projections
        # u1 + u2 and u1 - u2; the all-games row is exact and ranks nothing
        rank = subspaces.numeric_rank
        shapes = []

        def counting(matrix, *args):
            shapes.append(matrix.shape)
            return rank(matrix, *args)

        monkeypatch.setattr(subspaces, "numeric_rank", counting)
        table = zs_ii_intersection_dims(h)
        n = h * h
        assert [cols for _, cols in shapes] == [2 * n, n, n] * 2
        # potential: 2h nonstrategic rows and n + 5 samples; harmonic:
        # (h - 1)^2 basis rows and the same 2h nonstrategic rows
        assert [rows for rows, _ in shapes] == [n + 2 * h + 5] * 3 + [n + 1] * 3
        if h > 1:
            # at h = 1 the harmonic games are the whole 2-dimensional space
            assert (2 * n, 2 * n) not in shapes
        assert table.computed == table.closed_form

    def test_rank_cap_returns_the_closed_form_alone(self, monkeypatch):
        # 2h^2 is 18 at h = 3 and 32 at h = 4
        monkeypatch.setattr(subspaces, "RANK_AMBIENT_CAP", 18)
        assert zs_ii_intersection_dims(3).agrees is True

        def fail(*args):
            raise AssertionError("ranked or decomposed above the cap")

        monkeypatch.setattr(subspaces, "numeric_rank", fail)
        monkeypatch.setattr(subspaces, "_decompose_batch", fail)
        table = zs_ii_intersection_dims(4)
        assert table.computed is None
        assert table.agrees is None
        assert table.closed_form == {
            "potential_games": {"zero_sum": 7, "identical": 16, "direct_sum": 23},
            "harmonic_games": {"zero_sum": 10, "identical": 1, "direct_sum": 17},
            "all_games": {"zero_sum": 16, "identical": 16, "direct_sum": 32},
        }

    @pytest.mark.parametrize("h", [0, -1, 2.5, float("nan"), "3", None])
    def test_invalid_h_raises_shape_error(self, h):
        with pytest.raises(ShapeError, match="invalid strategy counts"):
            zs_ii_intersection_dims(h)

    @pytest.mark.parametrize("h", [3.0, np.int64(3), np.float32(3)])
    def test_whole_h_of_any_type(self, h):
        table = zs_ii_intersection_dims(h)
        assert table.h == 3 and type(table.h) is int
        assert table == zs_ii_intersection_dims(3)

    def test_direct_sum_columns(self):
        table = zs_ii_intersection_dims(3).closed_form
        assert table["all_games"]["direct_sum"] == 18
        assert table["potential_games"]["direct_sum"] == subspace_dims((3, 3)).potential_games
        assert table["harmonic_games"]["direct_sum"] == subspace_dims((3, 3)).harmonic_games


class TestVerifyNormalizedHarmonic:
    def test_matching_pennies(self):
        assert verify_normalized_harmonic(matching_pennies())

    def test_rps_harmonic_component(self):
        ha, hb = rps_harmonic(2.0, 1.0, 3.0)
        assert verify_normalized_harmonic(Game.from_payoff_matrices(ha, hb))

    def test_battle_of_sexes_fails(self):
        assert not verify_normalized_harmonic(battle_of_sexes())

    def test_normalized_potential_game_fails(self):
        assert not verify_normalized_harmonic(normalize(battle_of_sexes()))

    def test_equal_counts_imply_plain_zero_sum(self):
        # with equal strategy counts the weighted cancellation is ordinary
        # zero-sum: payoffs of all players cancel at every profile
        rng = np.random.default_rng(70)
        for _ in range(10):
            u = rng.uniform(-1, 1, size=(3, 8))
            g = decompose(Game(u, (2, 2, 2))).harmonic_part
            total = g.utilities.sum(axis=0)
            assert np.abs(total).max() <= 1e-9


def _harmonic_part(counts):
    """The normalized harmonic part of a seeded random game."""
    return decompose(random_game(np.random.default_rng(71), counts)).harmonic_part


def _random_3x3():
    return random_game(np.random.default_rng(72), (3, 3))


# name -> (game, is_normalized, verify_normalized_harmonic) at payoff scale 1
IDENTITY_CASES = {
    "harmonic-2x2": (lambda: _harmonic_part((2, 2)), True, True),
    "harmonic-3x3": (lambda: _harmonic_part((3, 3)), True, True),
    "harmonic-4x5": (lambda: _harmonic_part((4, 5)), True, True),
    "harmonic-2x3x4": (lambda: _harmonic_part((2, 3, 4)), True, True),
    "matching-pennies": (matching_pennies, True, True),
    "rps": (lambda: generalized_rps(1 / 3, 1 / 3, 1 / 3), True, True),
    "normalized-random-3x3": (lambda: normalize(_random_3x3()), True, False),
    "battle-of-sexes": (battle_of_sexes, False, False),
    "normalized-battle-of-sexes": (lambda: normalize(battle_of_sexes()), True, False),
    "random-3x3": (_random_3x3, False, False),
}


class TestIdentitiesAtEveryScale:
    """Both identity checks are relative to ``max|u|``: scaling or relabelling changes no flag."""

    @pytest.mark.parametrize("relabel", [False, True], ids=["as-is", "relabelled"])
    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("name", list(IDENTITY_CASES))
    def test_flags(self, name, scale, relabel):
        make, normalized, harmonic = IDENTITY_CASES[name]
        base = make()
        g = Game(scale * base.utilities, base.strategy_counts)
        if relabel:
            g = relabelled(g, np.random.default_rng(73))
        assert is_normalized(g) is normalized
        assert verify_normalized_harmonic(g) is harmonic


class TestSpanConsistency:
    def test_basis_elements_decompose_into_their_own_component(self):
        for b in nonstrategic_basis((2, 3)).games:
            d = decompose(b)
            assert game_norm(d.potential_part) <= 1e-9
            assert game_norm(d.harmonic_part) <= 1e-9
        for b in harmonic_basis_2p(3, 3).games:
            d = decompose(b)
            assert game_norm(d.potential_part) <= 1e-9
            assert game_norm(d.nonstrategic_part) <= 1e-9
        rps = generalized_rps(1 / 3, 1 / 3, 1 / 3)
        d = decompose(rps)
        assert game_norm(d.potential_part) <= 1e-9
