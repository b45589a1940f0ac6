import numpy as np
import pytest

from gamehodge import (
    Game,
    ShapeError,
    SizeError,
    basis_export,
    decompose,
    divergence_adjoint,
    empirical_dims,
    game_norm,
    harmonic_basis_2p,
    nonstrategic_basis,
    pairwise_comparison,
    subspace_dims,
    verify_normalized_harmonic,
    zs_ii_intersection_dims,
)
from gamehodge import subspaces
from gamehodge.catalog import battle_of_sexes, generalized_rps, matching_pennies
from gamehodge.subspaces import numeric_rank
from helpers import rps_harmonic


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

    @pytest.mark.parametrize("counts", [(), (0,), (3, -1), (2, 0, 2)])
    def test_invalid_counts_rejected(self, counts):
        with pytest.raises(ShapeError, match="invalid strategy counts"):
            subspace_dims(counts)


class TestEmpiricalDims:
    @pytest.mark.parametrize("counts", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
    def test_measured_ranks_match_closed_forms(self, counts):
        dims = subspace_dims(counts)
        measured = empirical_dims(counts, seed=7)
        assert measured == (dims.potential, dims.harmonic, dims.nonstrategic)

    def test_ambient_cap(self):
        with pytest.raises(SizeError):
            empirical_dims((40, 40, 3))


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

    @pytest.mark.parametrize("h", range(1, 7))
    def test_each_span_ranked_once(self, monkeypatch, h):
        # three class spans, three zero-sum / identical-interest spans and
        # the nine stacked pairs
        rank = subspaces.numeric_rank
        calls = []

        def counting(matrix, *args):
            calls.append(matrix.shape)
            return rank(matrix, *args)

        monkeypatch.setattr(subspaces, "numeric_rank", counting)
        table = zs_ii_intersection_dims(h)
        assert len(calls) == 15
        assert table.computed == table.closed_form

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
        from gamehodge import normalize

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
