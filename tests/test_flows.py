import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

import gamehodge.flows
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
from helpers import dot_node_labels, random_game, rps_potential


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

    @pytest.mark.parametrize("counts", [(), (0, 3), (2.7, 3), (3, 2.5), (float("inf"), 2)])
    def test_invalid_counts_raise_shape_error(self, counts):
        with pytest.raises(ShapeError, match="invalid strategy counts"):
            build_graph(counts)

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
        slices = [g.player_slice(m) for m in range(3)]
        assert sum(s.stop - s.start for s in slices) == g.num_edges
        assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]

    def test_triangles_stay_within_one_player(self):
        g = build_graph((3, 3))
        from gamehodge import profile_of_index

        for i, j, k in g.triangles():
            p, q, r = (profile_of_index(int(v), (3, 3)) for v in (i, j, k))
            deviators = {g.comparable(p, q), g.comparable(q, r), g.comparable(p, r)}
            assert len(deviators) == 1

    def test_node_cap(self):
        # 2*10^7 profiles: the edge cap rejects them, there is no node cap
        with pytest.raises(SizeError, match="edge cap"):
            build_graph((5000, 4000))

    def test_construction_allocates_no_edge_array(self):
        # 200x200 has 7 960 000 edges; one int64 array of them is 64 MB
        tracemalloc.start()
        try:
            graph = build_graph((200, 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.num_edges == 7_960_000
        assert peak < 1_000_000

    def test_edge_cap(self, monkeypatch):
        # (3, 3) has 18 edges: it builds at the cap, and one edge over it
        # raises before any edge array is allocated
        monkeypatch.setattr(gamehodge.flows, "DEFAULT_EDGE_CAP", 18)
        assert build_graph((3, 3)).num_edges == 18

        def fail(self, k):
            raise AssertionError("edge arrays allocated")

        monkeypatch.setattr(gamehodge.flows, "DEFAULT_EDGE_CAP", 17)
        monkeypatch.setattr(gamehodge.flows.GameGraph, "_cliques", fail)
        with pytest.raises(SizeError, match="edge cap"):
            build_graph((3, 3))

    def test_triangle_cap(self, monkeypatch):
        # (3, 3) has 6 triangles: curl and triangles() run at the cap, and
        # one triangle over it they raise before any triangle array is
        # allocated; the count and TriangleFlow's shape check never raise
        graph = build_graph((3, 3))
        flow = EdgeFlow(graph, np.zeros(graph.num_edges))
        monkeypatch.setattr(gamehodge.flows, "DEFAULT_EDGE_CAP", 6)
        assert curl(flow).values.shape == (6,)
        assert graph.triangles().shape == (6, 3)

        class NoArrays:  # every numpy call in gamehodge.flows fails
            def __getattr__(self, name):
                def fail(*args, **kwargs):
                    raise AssertionError(f"np.{name} called")
                return fail

        monkeypatch.setattr(gamehodge.flows, "DEFAULT_EDGE_CAP", 5)
        assert graph.num_triangles == 6
        assert TriangleFlow(graph, np.zeros(6)).max_abs() == 0.0
        monkeypatch.setattr(gamehodge.flows, "np", NoArrays())
        with pytest.raises(SizeError, match="triangles: 6 exceed the edge cap 5"):
            curl(flow)
        with pytest.raises(SizeError, match="triangles: 6 exceed the edge cap 5"):
            graph.triangles()


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

    def test_holds_the_flow_once(self):
        # each player's differences are written into the flow's own slice,
        # so the peak is the flow and one player's temporary, not two flows
        g = random_game(np.random.default_rng(8), (20, 20, 20))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            flow = pairwise_comparison(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 1.5 * flow.values.nbytes


EDGE_LOOP_SHAPES = [(3,), (2, 2), (4, 1, 5), (2, 3, 4), (2,) * 5, (6, 6)]


def deviator(graph, t, h):
    """The one player whose strategy differs between nodes t and h."""
    p = np.unravel_index(t, graph.strategy_counts)
    q = np.unravel_index(h, graph.strategy_counts)
    return graph.comparable(p, q)


class TestEdgeOperatorsMatchPerEdgeLoop:
    """Every edge operator equals a Python loop over ``zip(tails, heads)``."""

    @pytest.mark.parametrize("counts", EDGE_LOOP_SHAPES)
    def test_gathers(self, counts):
        rng = np.random.default_rng(30)
        g = random_game(rng, counts)
        graph = build_graph(counts)
        phi = rng.uniform(-1.0, 1.0, size=graph.num_nodes)
        pairs = list(zip(graph.tails.tolist(), graph.heads.tolist()))
        players = [deviator(graph, t, h) for t, h in pairs]
        want = [g.utilities[m, h] - g.utilities[m, t] for (t, h), m in zip(pairs, players)]
        assert np.array_equal(pairwise_comparison(g, graph).values, np.array(want))
        assert np.array_equal(gradient(graph, phi).values, np.array([phi[h] - phi[t] for t, h in pairs]))
        for player in range(len(counts)):
            want = [phi[h] - phi[t] if m == player else 0.0 for (t, h), m in zip(pairs, players)]
            assert np.array_equal(player_gradient(graph, player, phi).values, np.array(want))

    @pytest.mark.parametrize("counts", EDGE_LOOP_SHAPES)
    def test_scatters(self, counts):
        rng = np.random.default_rng(31)
        graph = build_graph(counts)
        x = EdgeFlow(graph, rng.uniform(-1.0, 1.0, size=graph.num_edges))
        want = np.zeros(graph.num_nodes)
        per_player = np.zeros((len(counts), graph.num_nodes))
        for t, h, v in zip(graph.tails, graph.heads, x.values):
            want[t] -= v
            want[h] += v
            per_player[deviator(graph, t, h), t] -= v
            per_player[deviator(graph, t, h), h] += v
        assert np.abs(divergence_adjoint(x) - want).max(initial=0.0) <= 1e-12
        for player in range(len(counts)):
            got = player_divergence(x, player)
            assert np.abs(got - per_player[player]).max(initial=0.0) <= 1e-12


class TestEdgeFlowArithmetic:
    def test_sum_and_difference_reject_flows_on_other_graphs(self):
        # both graphs have 9 edges, so only the shapes tell them apart
        x = EdgeFlow(build_graph((2, 3)), np.arange(9.0))
        y = EdgeFlow(build_graph((3, 2)), np.ones(9))
        for op in (EdgeFlow.__add__, EdgeFlow.__sub__):
            with pytest.raises(ShapeError, match="different graphs"):
                op(x, y)


def comparable_by_definition(p, q):
    """True iff profiles ``p`` and ``q`` differ in exactly one player's strategy."""
    return sum(a != b for a, b in zip(p, q)) == 1


class TestAlternatingValues:
    """``value`` on every ordered node pair and triple against the definition."""

    SHAPES = [(2, 3), (2, 2, 2), (1, 3), (3, 3)]

    @pytest.mark.parametrize("counts", SHAPES, ids=str)
    def test_edge_flow_on_every_ordered_pair(self, counts):
        graph = build_graph(counts)
        x = EdgeFlow(graph, np.random.default_rng(36).standard_normal(graph.num_edges))
        edge = {pair: e for e, pair in enumerate(zip(graph.tails.tolist(), graph.heads.tolist()))}
        profiles = list(np.ndindex(counts))
        for (i, p), (j, q) in product(enumerate(profiles), repeat=2):
            if not comparable_by_definition(p, q):
                want = 0.0
            elif i < j:
                want = x.values[edge[i, j]]
            else:
                want = -x.values[edge[j, i]]
            for a, b in [(i, j), (p, q), (np.int64(i), q)]:
                got = x.value(a, b)
                assert type(got) is float and got == want

    @pytest.mark.parametrize("counts", SHAPES, ids=str)
    def test_triangle_flow_on_every_ordered_triple(self, counts):
        graph = build_graph(counts)
        psi = TriangleFlow(graph, np.random.default_rng(37).standard_normal(graph.num_triangles))
        position = {tuple(t): k for k, t in enumerate(graph.triangles().tolist())}
        profiles = list(np.ndindex(counts))
        clique_found = 0
        for ids in product(range(len(profiles)), repeat=3):
            nodes = [profiles[i] for i in ids]
            if all(comparable_by_definition(a, b) for a, b in combinations(nodes, 2)):
                a, b, c = sorted(ids)
                # the cyclic rotations of the sorted order keep its orientation
                sign = 1.0 if ids in [(a, b, c), (b, c, a), (c, a, b)] else -1.0
                want = sign * psi.values[position[a, b, c]]
                clique_found += 1
            else:
                want = 0.0
            for args in [ids, nodes]:
                got = psi.value(*args)
                assert type(got) is float and got == want
        assert clique_found == 6 * graph.num_triangles


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


class TestPlayerIndex:
    # one rule for every per-player call: a player index outside [0, M) is an
    # IndexError, and -1 is not the last player
    CALLS = {
        "player_gradient": lambda m: player_gradient(build_graph((2, 3)), m, np.arange(6.0)),
        "restrict_player": lambda m: restrict_player(EdgeFlow(build_graph((2, 3)), np.ones(9)), m),
        "player_divergence": lambda m: player_divergence(EdgeFlow(build_graph((2, 3)), np.ones(9)), m),
        "project_player": lambda m: project_player((2, 3), m, np.arange(6.0)),
        "laplacian_player_apply": lambda m: laplacian_player_apply((2, 3), m, np.arange(6.0)),
        "player_slice": lambda m: build_graph((2, 3)).player_slice(m),
    }

    @pytest.mark.parametrize("player", [-1, 2])
    @pytest.mark.parametrize("name", CALLS)
    def test_out_of_range_player_raises_index_error(self, name, player):
        with pytest.raises(IndexError, match=rf"player index {player} out of range \[0, 2\)"):
            self.CALLS[name](player)


class TestTypedErrors:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: EdgeFlow(build_graph((2, 2)), np.zeros(5)), "graph has 4 edges"),
            (lambda: gradient(build_graph((2, 2)), np.zeros(5)), "must have 4 entries"),
            (lambda: pairwise_comparison(battle_of_sexes(), build_graph((2, 3))),
             "graph shape does not match"),
        ],
        ids=["edge-flow-values", "node-function-size", "graph-of-another-shape"],
    )
    def test_raises_shape_error(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call()


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


class TestNodeOperatorShapes:
    ENTRY_POINTS = {
        "project_player": lambda counts, phi: project_player(counts, 0, phi),
        "laplacian_player_apply": lambda counts, phi: laplacian_player_apply(counts, 0, phi),
        "laplacian_apply": laplacian_apply,
        "laplacian_pinv_solve": laplacian_pinv_solve,
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("counts", [(), (0,), (2, 0), (-2, 2), (2.5, 2)])
    def test_invalid_strategy_counts_raise_shape_error(self, name, counts):
        with pytest.raises(ShapeError, match="invalid strategy counts"):
            self.ENTRY_POINTS[name](counts, np.zeros(1))

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_wrong_last_axis_raises_shape_error(self, name):
        with pytest.raises(ShapeError, match="4 entries on their last axis"):
            self.ENTRY_POINTS[name]((2, 2), np.zeros(5))

    # a batch of no rows gives no rows back
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_empty_batch_gives_an_empty_array(self, name):
        got = self.ENTRY_POINTS[name]((3, 3), np.zeros((0, 9)))
        assert got.shape == (0, 9)


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

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_rejects_negative_and_nan_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            laplacian_pinv_solve((2, 2), np.zeros(4), tol=tol)

    def test_zero_tol_is_accepted(self):
        assert np.all(laplacian_pinv_solve((2, 2), np.zeros(4), tol=0.0) == 0.0)

    # scaling by 2^k is exact, and no norm of the solve's two checks under-
    # or overflows: over the whole exponent range the solve of 2^k b is 2^k
    # times that of b, bit for bit
    @pytest.mark.parametrize("k", [-1000, -600, -540, 0, 511, 600, 1000])
    @pytest.mark.parametrize("counts", [(3, 3), (2, 3, 4), (20, 20)])
    def test_solves_at_every_scale(self, counts, k):
        phi = np.random.default_rng(23).uniform(-1.0, 1.0, size=(4, math.prod(counts)))
        b = laplacian_apply(counts, phi)
        got = laplacian_pinv_solve(counts, np.ldexp(b, k))
        assert np.array_equal(got, np.ldexp(laplacian_pinv_solve(counts, b), k))

    # the last two put axes above the matrix cut, solved by the demeaning
    # form, one beside a size-1 axis
    @pytest.mark.parametrize("counts", [(1,), (1, 4), (2, 3, 4), (2,) * 6, (5, 5), (65, 2), (1, 70)])
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
            gamehodge.flows,
            "_pinv_transform",
            lambda counts, a: rng.uniform(-1.0, 1.0, np.shape(a)),
        )
        with pytest.raises(NumericError) as info:
            laplacian_pinv_solve((3, 3), b)
        assert info.value.residual > 1e-10 * max(1.0, np.linalg.norm(b))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_rejects_a_mean_component_at_every_scale(self, scale):
        with pytest.raises(PreconditionError):
            laplacian_pinv_solve((2, 2), scale * np.array([1.0, 0.0, 0.0, 0.0]))

    def test_batch_rows_solve_like_single_rows(self):
        # two leading batch axes; the transforms run over the profile axes,
        # by the Helmert matrices and, for the axis of 70, the demeaning form
        rng = np.random.default_rng(24)
        for counts in [(2, 3, 4), (70, 3)]:
            n = math.prod(counts)
            b = laplacian_apply(counts, rng.uniform(-1.0, 1.0, size=(2, 3, n)))
            sol = laplacian_pinv_solve(counts, b)
            assert sol.shape == b.shape
            for k in np.ndindex(2, 3):
                assert np.abs(sol[k] - laplacian_pinv_solve(counts, b[k])).max() <= 1e-14

    # both axes above the matrix cut, and one beside an axis below it
    @pytest.mark.parametrize("counts", [(300, 300), (2, 5000)])
    def test_long_axes_hold_few_temporaries(self, counts):
        # the solve holds about three node-sized arrays at once; the first
        # call builds the cached spectrum, which is not counted
        rng = np.random.default_rng(27)
        b = rng.uniform(-1.0, 1.0, size=math.prod(counts))
        b -= b.mean()
        gamehodge.flows._pinv_transform(counts, b)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            gamehodge.flows._pinv_transform(counts, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 3.5 * b.nbytes

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
        transform = gamehodge.flows._pinv_transform

        def corrupt_row_1(counts, a):
            out = transform(counts, a)
            out[1] += scale * rng.uniform(-1.0, 1.0, out[1].shape)
            return out

        monkeypatch.setattr(gamehodge.flows, "_pinv_transform", corrupt_row_1)
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

    def test_labels_are_dot_quoted_strings(self):
        # a quote, a backslash and a newline: raw, each would end or break the quoted label
        labels = ['say "hi"', "back\\slash", "two\nlines", '\\"\n\\n']
        dot = flow_to_dot(pairwise_comparison(matching_pennies()), node_labels=labels)
        assert dot_node_labels(dot) == dict(enumerate(labels))

    def test_zero_edges_omitted(self):
        g = Game(np.zeros((2, 4)), (2, 2))
        dot = flow_to_dot(pairwise_comparison(g))
        assert "->" not in dot

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c", "d", "e"]], ids=["one", "five"])
    def test_one_label_per_node(self, labels):
        # matching pennies has four nodes: one label declares too few, five a node that is not
        with pytest.raises(ShapeError, match=f"{len(labels)} node labels given for 4 nodes"):
            flow_to_dot(pairwise_comparison(matching_pennies()), node_labels=labels)

    @pytest.mark.parametrize("zero_tol", [0.0, 0.5, 1.5])
    def test_matches_per_edge_listing(self, zero_tol):
        # a tie-heavy integer game: many zero edges, equal magnitudes, and a
        # one-strategy player with no edges at all
        rng = np.random.default_rng(32)
        g = Game(rng.integers(-2, 3, size=(3, 12)).astype(float), (3, 1, 4))
        flow = pairwise_comparison(g)
        graph = flow.graph
        labels = [f"v{i}" for i in range(graph.num_nodes)]
        lines = ["digraph flow {"] + [f'  n{i} [label="{s}"];' for i, s in enumerate(labels)]
        for t, h, v in zip(graph.tails.tolist(), graph.heads.tolist(), flow.values.tolist()):
            if abs(v) <= zero_tol:
                continue
            if v < 0:
                t, h = h, t
            lines.append(f'  n{t} -> n{h} [label="{abs(v):.12g}"];')
        want = "\n".join(lines + ["}"]) + "\n"
        assert 0 < want.count("->") < graph.num_edges
        assert flow_to_dot(flow, node_labels=labels, zero_tol=zero_tol) == want
