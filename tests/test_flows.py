import math
from itertools import combinations

import numpy as np
import pytest

from gamehodge import (
    EdgeFlow,
    Game,
    NumericError,
    PreconditionError,
    ShapeError,
    SizeError,
    TriangleFlow,
    build_graph,
    curl,
    divergence_adjoint,
    flow_inner,
    flow_to_dot,
    gradient,
    laplacian_apply,
    laplacian_pinv_solve,
    laplacian_player_apply,
    node_inner,
    pairwise_comparison,
    player_divergence,
    player_gradient,
    project_player,
    restrict_player,
)
from gamehodge.catalog import battle_of_sexes, matching_pennies, road_sharing
from helpers import random_game, rps_potential


def edge_and_triangle_counts(counts):
    n = int(np.prod(counts))
    edges = n * sum(h - 1 for h in counts) // 2
    triangles = sum(math.comb(h, 3) * (n // h) for h in counts)
    return n, edges, triangles


class TestGameGraph:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ((2, 2), (4, 4, 0)),
            ((3, 3), (9, 18, 6)),
            ((2, 2, 2), (8, 12, 0)),
        ],
    )
    def test_known_sizes(self, counts, expected):
        g = build_graph(counts)
        assert (g.num_nodes, g.num_edges, g.num_triangles) == expected
        assert len(g.triangles()) == expected[2]

    @pytest.mark.parametrize("counts", [(4,), (2, 3), (3, 2, 2), (2, 3, 4)])
    def test_counting_formulas(self, counts):
        g = build_graph(counts)
        n, edges, triangles = edge_and_triangle_counts(counts)
        assert g.num_nodes == n
        assert g.num_edges == edges
        assert g.num_triangles == triangles

    def test_canonical_orientation_and_single_deviation(self):
        g = build_graph((2, 3, 2))
        assert np.all(g.tails < g.heads)
        from gamehodge import profile_of_index

        for t, h in zip(g.tails, g.heads):
            p = profile_of_index(int(t), g.strategy_counts)
            q = profile_of_index(int(h), g.strategy_counts)
            assert g.comparable(p, q) is not None

    def test_player_edges_partition(self):
        g = build_graph((2, 3, 2))
        total = sum(len(g.edges_of_player(m)[0]) for m in range(3))
        assert total == g.num_edges

    def test_triangles_stay_within_one_player(self):
        g = build_graph((3, 3))
        from gamehodge import profile_of_index

        for i, j, k in g.triangles():
            p, q, r = (profile_of_index(int(v), (3, 3)) for v in (i, j, k))
            deviators = {g.comparable(p, q), g.comparable(q, r), g.comparable(p, r)}
            assert len(deviators) == 1

    def test_node_cap(self, monkeypatch):
        with pytest.raises(SizeError):
            build_graph((5000, 4000))
        monkeypatch.setenv("GAMEHODGE_MAX_NODES", "3")
        with pytest.raises(SizeError):
            build_graph((2, 2))


class TestCliqueIndex:
    @pytest.mark.parametrize("counts", [(4,), (1, 5), (2, 3), (3, 2, 2), (2, 3, 4)])
    def test_edge_id_inverts_the_edge_arrays(self, counts):
        g = build_graph(counts)
        position = {(int(t), int(h)): e for e, (t, h) in enumerate(zip(g.tails, g.heads))}
        for i in range(g.num_nodes):
            for j in range(g.num_nodes):
                e = position.get((min(i, j), max(i, j)))
                if e is None:  # not comparable, or i == j
                    with pytest.raises(KeyError):
                        g.edge_id(i, j)
                else:
                    assert g.edge_id(i, j) == (e, 1.0 if i < j else -1.0)

    @pytest.mark.parametrize("counts", [(3, 3), (4, 1, 5), (3, 4, 3)])
    def test_triangle_flow_reads_each_triangle_at_its_row(self, counts):
        g = build_graph(counts)
        rows = g.triangles()
        # values start at 1 so that a triangle never reads like a non-clique
        psi = TriangleFlow(g, np.arange(1.0, len(rows) + 1))
        position = {tuple(int(v) for v in row): t for t, row in enumerate(rows)}
        for i, j, k in combinations(range(g.num_nodes), 3):
            t = position.get((i, j, k))
            if t is None:
                assert psi.value(i, j, k) == 0.0
                continue
            for p, q, r in [(i, j, k), (j, k, i), (k, i, j)]:
                assert psi.value(p, q, r) == t + 1
                assert psi.value(q, p, r) == -(t + 1)

    def test_triangle_flow_shape_check(self):
        g = build_graph((3, 3))
        with pytest.raises(ShapeError):
            TriangleFlow(g, np.zeros(g.num_triangles + 1))


class TestPairwiseComparison:
    def test_battle_of_sexes_matches_flow_diagram(self):
        x = pairwise_comparison(battle_of_sexes())
        assert x.value((1, 0), (0, 0)) == 3.0
        assert x.value((0, 1), (0, 0)) == 2.0
        assert x.value((0, 1), (1, 1)) == 2.0
        assert x.value((1, 0), (1, 1)) == 3.0

    def test_road_sharing_edge(self):
        x = pairwise_comparison(road_sharing())
        assert x.value((0, 0, 0), (1, 0, 0)) == 4.0

    def test_zero_game(self):
        g = Game(np.zeros((2, 6)), (2, 3))
        assert pairwise_comparison(g).max_abs() == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        g = random_game(rng, (2, 3))
        x = pairwise_comparison(g)
        for t, h in zip(x.graph.tails, x.graph.heads):
            assert x.value(int(t), int(h)) == -x.value(int(h), int(t))

    def test_non_comparable_pair_carries_zero(self):
        x = pairwise_comparison(matching_pennies())
        assert x.value((0, 0), (1, 1)) == 0.0
        assert x.value((0, 0), (0, 0)) == 0.0

    def test_equals_sum_of_player_gradients_of_utilities(self):
        rng = np.random.default_rng(7)
        g = random_game(rng, (2, 3))
        graph = build_graph((2, 3))
        total = EdgeFlow(graph, np.zeros(graph.num_edges))
        for m in range(2):
            total = total + player_gradient(graph, m, g.utilities[m])
        assert (pairwise_comparison(g, graph) - total).max_abs() <= 1e-12


class TestGradientDivergence:
    def test_constant_gives_zero(self):
        graph = build_graph((3, 2))
        assert gradient(graph, np.ones(6)).max_abs() == 0.0

    def test_explicit_values_on_square(self):
        graph = build_graph((2, 2))
        phi = np.array([0.0, 1.0, 2.0, 3.0])
        flow = gradient(graph, phi)
        assert flow.value(0, 1) == 1.0
        assert flow.value(0, 2) == 2.0
        assert flow.value(1, 3) == 2.0
        assert flow.value(2, 3) == 1.0

    def test_rps_potential_reproduces_component_flows(self):
        # gradient of phi(i, j) = f(i) + f(j) must equal the flow of the
        # game whose payoffs are the potential-component matrices
        x, y, z = 2.0, 1.0, 3.0
        f = np.array([y - x, x - z, z - y])
        phi = (f.reshape(3, 1) + f.reshape(1, 3)).ravel()
        graph = build_graph((3, 3))
        pa, pb = rps_potential(x, y, z)
        component = Game.from_payoff_matrices(pa, pb)
        diff = gradient(graph, phi) - pairwise_comparison(component, graph)
        assert diff.max_abs() <= 1e-12

    def test_divergence_of_zero_flow(self):
        graph = build_graph((2, 2))
        assert np.all(divergence_adjoint(EdgeFlow(graph, np.zeros(4))) == 0.0)

    def test_divergence_of_gradient_equals_laplacian(self):
        graph = build_graph((2, 2))
        phi = np.array([0.0, 1.0, 2.0, 3.0])
        lhs = divergence_adjoint(gradient(graph, phi))
        assert np.abs(lhs - laplacian_apply((2, 2), phi)).max() <= 1e-12

    def test_matching_pennies_flow_is_divergence_free(self):
        # independent oracle: sum the flow leaving each of the 4 nodes
        mp = matching_pennies()
        x = pairwise_comparison(mp)
        for node in range(4):
            outgoing = 0.0
            for t, h, v in zip(x.graph.tails, x.graph.heads, x.values):
                if t == node:
                    outgoing += v
                elif h == node:
                    outgoing -= v
            assert outgoing == 0.0
        assert np.abs(divergence_adjoint(x)).max() == 0.0


class TestCurl:
    @pytest.mark.parametrize("counts", [(2, 2), (3, 3), (2, 3, 2)])
    def test_gradients_are_curl_free(self, counts):
        rng = np.random.default_rng(42)
        graph = build_graph(counts)
        for _ in range(100):
            phi = rng.uniform(-1.0, 1.0, size=graph.num_nodes)
            assert curl(gradient(graph, phi)).max_abs() <= 1e-10

    @pytest.mark.parametrize("counts", [(3, 3), (4, 2), (2, 3, 3)])
    def test_game_flows_are_curl_free(self, counts):
        rng = np.random.default_rng(43)
        for _ in range(100):
            g = random_game(rng, counts)
            assert curl(pairwise_comparison(g)).max_abs() <= 1e-10

    def test_single_player_three_cycle(self):
        graph = build_graph((3, 1))
        flow = EdgeFlow(graph, np.zeros(3))
        values = np.zeros(3)
        # edges in pair order: (0,1), (0,2), (1,2)
        values[0] = 1.0   # 0 -> 1
        values[2] = 1.0   # 1 -> 2
        values[1] = -1.0  # 2 -> 0
        flow = EdgeFlow(graph, values)
        psi = curl(flow)
        assert psi.values.shape == (1,)
        assert psi.value((0, 0), (1, 0), (2, 0)) == 3.0
        # alternating sign under odd permutations
        assert psi.value((1, 0), (0, 0), (2, 0)) == -3.0
        assert psi.value((2, 0), (0, 0), (1, 0)) == 3.0

    @pytest.mark.parametrize("counts", [(5,), (3, 4, 3), (4, 1, 5)])
    def test_matches_definition_on_random_flow(self, counts):
        rng = np.random.default_rng(46)
        graph = build_graph(counts)
        x = EdgeFlow(graph, rng.uniform(-1.0, 1.0, size=graph.num_edges))
        psi = curl(x)
        for t, (p, q, r) in enumerate(graph.triangles()):
            assert psi.values[t] == x.value(p, q) + x.value(q, r) + x.value(r, p)


class TestPlayerOperators:
    def test_constant_gives_zero(self):
        graph = build_graph((2, 3))
        assert player_gradient(graph, 1, np.ones(6)).max_abs() == 0.0

    def test_player_gradients_sum_to_gradient(self):
        rng = np.random.default_rng(8)
        graph = build_graph((2, 3))
        phi = rng.uniform(-1.0, 1.0, size=6)
        total = player_gradient(graph, 0, phi) + player_gradient(graph, 1, phi)
        assert (total - gradient(graph, phi)).max_abs() <= 1e-12

    def test_cross_player_divergence_vanishes(self):
        rng = np.random.default_rng(9)
        graph = build_graph((2, 3))
        phi = rng.uniform(-1.0, 1.0, size=6)
        assert np.abs(player_divergence(player_gradient(graph, 0, phi), 1)).max() == 0.0
        assert np.abs(player_divergence(player_gradient(graph, 1, phi), 0)).max() == 0.0

    def test_restriction_partitions_flows(self):
        rng = np.random.default_rng(10)
        graph = build_graph((2, 2, 3))
        x = EdgeFlow(graph, rng.uniform(-1.0, 1.0, size=graph.num_edges))
        total = np.zeros(graph.num_edges)
        for m in range(3):
            lm = restrict_player(x, m)
            total += lm.values
            for k in range(3):
                if k != m:
                    assert restrict_player(lm, k).max_abs() == 0.0
        assert np.abs(total - x.values).max() == 0.0

    def test_projection_pseudoinverse_identity(self):
        # blockwise mean removal equals (1/h_m) D_m* D_m
        rng = np.random.default_rng(12)
        counts = (2, 3)
        graph = build_graph(counts)
        for m, h in enumerate(counts):
            u = rng.uniform(-1.0, 1.0, size=6)
            via_ops = player_divergence(player_gradient(graph, m, u), m) / h
            assert np.abs(via_ops - project_player(counts, m, u)).max() <= 1e-12


class TestProjectPlayer:
    def test_battle_of_sexes_row_projection(self):
        bos = battle_of_sexes()
        projected = project_player((2, 2), 0, bos.utilities[0]).reshape(2, 2)
        assert np.allclose(projected, [[1.5, -1.0], [-1.5, 1.0]], atol=1e-12)

    def test_block_constant_functions_are_killed(self):
        # functions that ignore the player's own strategy span the kernel
        counts = (2, 3)
        for m in range(2):
            for r in range(6 // counts[m]):
                block = np.zeros((counts[m], 6 // counts[m]))
                block[:, r] = 1.0
                other = tuple(c for k, c in enumerate(counts) if k != m)
                nu = np.moveaxis(block.reshape((counts[m],) + other), 0, m).ravel()
                assert np.abs(project_player(counts, m, nu)).max() == 0.0

    def test_idempotent_both_players(self):
        rng = np.random.default_rng(13)
        for m in range(2):
            u = rng.uniform(-1.0, 1.0, size=6)
            once = project_player((3, 2), m, u)
            assert np.abs(project_player((3, 2), m, once) - once).max() <= 1e-15

    def test_self_adjoint(self):
        rng = np.random.default_rng(14)
        u = rng.uniform(-1.0, 1.0, size=12)
        v = rng.uniform(-1.0, 1.0, size=12)
        counts = (2, 3, 2)
        for m in range(3):
            lhs = node_inner(project_player(counts, m, u), v)
            rhs = node_inner(u, project_player(counts, m, v))
            assert abs(lhs - rhs) <= 1e-12

    def test_single_strategy_player_projects_to_zero(self):
        rng = np.random.default_rng(15)
        u = rng.uniform(-1.0, 1.0, size=3)
        assert np.abs(project_player((3, 1), 1, u)).max() == 0.0


class TestLaplacian:
    def test_constant_in_kernel(self):
        assert np.abs(laplacian_apply((3, 2), np.ones(6))).max() == 0.0

    def test_diagonal_degree_on_square(self):
        # every node of the 2x2 game graph has degree 2
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1.0
            assert laplacian_apply((2, 2), e)[i] == 2.0

    def test_player_laplacian_is_scaled_projection(self):
        rng = np.random.default_rng(16)
        counts = (2, 3)
        phi = rng.uniform(-1.0, 1.0, size=6)
        for m, h in enumerate(counts):
            lhs = laplacian_player_apply(counts, m, phi)
            assert np.abs(lhs - h * project_player(counts, m, phi)).max() <= 1e-12

    def test_sum_of_player_laplacians(self):
        rng = np.random.default_rng(17)
        counts = (2, 2, 3)
        phi = rng.uniform(-1.0, 1.0, size=12)
        total = sum(laplacian_player_apply(counts, m, phi) for m in range(3))
        assert np.abs(total - laplacian_apply(counts, phi)).max() <= 1e-12


class TestLaplacianSolve:
    def test_zero_rhs(self):
        assert np.all(laplacian_pinv_solve((2, 2), np.zeros(4)) == 0.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(18)
        psi = rng.uniform(-1.0, 1.0, size=9)
        psi -= psi.mean()
        b = laplacian_apply((3, 3), psi)
        sol = laplacian_pinv_solve((3, 3), b)
        assert np.abs(sol - psi).max() <= 1e-8

    def test_rps_rhs_gives_expected_potential(self):
        # right-hand side assembled from the (1, 0, 0) stakes; the solution
        # was derived by integrating the potential-component flows by hand
        from gamehodge.catalog import generalized_rps

        g = generalized_rps(1.0, 0.0, 0.0)
        b = sum(laplacian_player_apply((3, 3), m, g.utilities[m]) for m in range(2))
        phi = laplacian_pinv_solve((3, 3), b)
        f = np.array([-1.0, 1.0, 0.0])
        expected = (f.reshape(3, 1) + f.reshape(1, 3)).ravel()
        assert np.abs(phi - expected).max() <= 1e-9

    def test_mean_zero_output(self):
        rng = np.random.default_rng(19)
        psi = rng.uniform(-1.0, 1.0, size=12)
        psi -= psi.mean()
        b = laplacian_apply((2, 3, 2), psi)
        assert abs(laplacian_pinv_solve((2, 3, 2), b).sum()) <= 1e-10

    def test_rejects_non_orthogonal_rhs(self):
        with pytest.raises(PreconditionError):
            laplacian_pinv_solve((2, 2), np.ones(4))

    def test_single_node_graph(self):
        assert laplacian_pinv_solve((1, 1), np.zeros(1)) == 0.0

    @pytest.mark.parametrize("counts", [(1,), (1, 4), (2, 3, 4), (2,) * 6, (5, 5)])
    def test_matches_dense_least_squares(self, counts):
        # Laplacian from the definition: degree minus adjacency, where two
        # profiles are adjacent when exactly one player's strategy differs
        profiles = list(np.ndindex(*counts))
        n = len(profiles)
        lap = np.zeros((n, n))
        for i, p in enumerate(profiles):
            for j, q in enumerate(profiles):
                if sum(a != b for a, b in zip(p, q)) == 1:
                    lap[i, j] = -1.0
                    lap[i, i] += 1.0
        rng = np.random.default_rng(22)
        for _ in range(3):
            b = rng.uniform(-1.0, 1.0, size=n)
            b -= b.mean()
            expected, *_ = np.linalg.lstsq(lap, b, rcond=None)
            assert np.abs(laplacian_pinv_solve(counts, b) - expected).max() <= 1e-10

    def test_residual_check_raises_numeric_error(self, monkeypatch):
        rng = np.random.default_rng(23)
        psi = rng.uniform(-1.0, 1.0, size=9)
        b = laplacian_apply((3, 3), psi - psi.mean())
        monkeypatch.setattr(
            np.fft, "ifftn", lambda a, *args, **kwargs: rng.uniform(-1.0, 1.0, np.shape(a)) + 0j
        )
        with pytest.raises(NumericError) as info:
            laplacian_pinv_solve((3, 3), b)
        assert info.value.residual > 1e-10 * max(1.0, np.linalg.norm(b))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_rejects_a_mean_component_at_every_scale(self, scale):
        with pytest.raises(PreconditionError):
            laplacian_pinv_solve((2, 2), scale * np.array([1.0, 0.0, 0.0, 0.0]))

    def test_batch_rows_solve_like_single_rows(self):
        # two leading batch axes; the transforms run over the profile axes
        rng = np.random.default_rng(24)
        counts = (2, 3, 4)
        b = laplacian_apply(counts, rng.uniform(-1.0, 1.0, size=(2, 3, 24)))
        sol = laplacian_pinv_solve(counts, b)
        assert sol.shape == b.shape
        for k in np.ndindex(2, 3):
            assert np.abs(sol[k] - laplacian_pinv_solve(counts, b[k])).max() <= 1e-14

    def test_batch_precondition_checks_every_row(self):
        rng = np.random.default_rng(25)
        b = laplacian_apply((3, 3), rng.uniform(-1.0, 1.0, size=(4, 9)))
        laplacian_pinv_solve((3, 3), b)
        b[2, 0] += 1e-3
        with pytest.raises(PreconditionError):
            laplacian_pinv_solve((3, 3), b)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_batch_residual_check_raises_on_one_corrupted_row(self, monkeypatch, scale):
        rng = np.random.default_rng(26)
        b = scale * laplacian_apply((3, 3), rng.uniform(-1.0, 1.0, size=(4, 9)))
        ifftn = np.fft.ifftn

        def corrupt_row_1(a, *args, **kwargs):
            out = ifftn(a, *args, **kwargs)
            out[1] += scale * rng.uniform(-1.0, 1.0, out[1].shape)
            return out

        monkeypatch.setattr(np.fft, "ifftn", corrupt_row_1)
        with pytest.raises(NumericError) as info:
            laplacian_pinv_solve((3, 3), b)
        assert info.value.residual > 1e-10 * np.linalg.norm(b[1])


class TestInnerProducts:
    def test_adjointness(self):
        rng = np.random.default_rng(20)
        for counts in [(2, 2), (3, 3), (2, 3, 2)]:
            graph = build_graph(counts)
            for _ in range(30):
                phi = rng.uniform(-1.0, 1.0, size=graph.num_nodes)
                x = EdgeFlow(graph, rng.uniform(-1.0, 1.0, size=graph.num_edges))
                lhs = flow_inner(gradient(graph, phi), x)
                rhs = node_inner(phi, divergence_adjoint(x))
                assert abs(lhs - rhs) <= 1e-9

    def test_flow_inner_halves_ordered_sum(self):
        # summing over both orientations of every edge doubles the stored sum
        rng = np.random.default_rng(21)
        graph = build_graph((2, 3))
        x = EdgeFlow(graph, rng.uniform(-1.0, 1.0, size=graph.num_edges))
        y = EdgeFlow(graph, rng.uniform(-1.0, 1.0, size=graph.num_edges))
        ordered = 0.0
        for t, h in zip(graph.tails, graph.heads):
            ordered += x.value(int(t), int(h)) * y.value(int(t), int(h))
            ordered += x.value(int(h), int(t)) * y.value(int(h), int(t))
        assert abs(flow_inner(x, y) - 0.5 * ordered) <= 1e-12


class TestFluxLemma:
    def test_subset_flux_identity(self):
        rng = np.random.default_rng(22)
        for counts in [(2, 2), (3, 3), (2, 2, 2)]:
            graph = build_graph(counts)
            for _ in range(30):
                x = EdgeFlow(graph, rng.uniform(-1.0, 1.0, size=graph.num_edges))
                inside = rng.uniform(size=graph.num_nodes) < 0.5
                lhs = divergence_adjoint(x)[inside].sum()
                boundary = 0.0
                for t, h, v in zip(graph.tails, graph.heads, x.values):
                    if inside[t] and not inside[h]:
                        boundary += v
                    elif inside[h] and not inside[t]:
                        boundary -= v
                assert abs(lhs + boundary) <= 1e-9


class TestDotExport:
    def test_positive_orientation_and_labels(self):
        dot = flow_to_dot(pairwise_comparison(battle_of_sexes()))
        assert dot.count("->") == 4
        assert 'label="3"' in dot and 'label="2"' in dot
        # improvement arrows point toward the equilibria (O,O) and (F,F)
        assert "n2 -> n0" in dot and "n1 -> n0" in dot
        assert "n1 -> n3" in dot and "n2 -> n3" in dot

    def test_zero_edges_omitted(self):
        g = Game(np.zeros((2, 4)), (2, 2))
        dot = flow_to_dot(pairwise_comparison(g))
        assert "->" not in dot
