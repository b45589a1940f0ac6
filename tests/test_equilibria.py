import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gamehodge import (
    Game,
    PreconditionError,
    SizeError,
    closest_harmonic,
    closest_potential,
    decompose,
    epsilon_equilibria,
    epsilon_transfer_bound,
    equilibrium_report,
    game_norm,
    harmonic_correlated_system,
    harmonic_indifference_checks,
    is_correlated_equilibrium,
    is_harmonic,
    is_mixed_nash,
    mixed_utility,
    normalize,
    pairwise_comparison,
    pareto_align_transform,
    pareto_optimal,
    potential_function,
    profile_index,
    profile_of_index,
    pure_nash,
    uniformly_mixed,
    verify_normalized_harmonic,
)
from gamehodge.catalog import (
    battle_of_sexes,
    cyclic_three_player,
    generalized_rps,
    matching_pennies,
    modified_battle_of_sexes,
    road_sharing,
)
from gamehodge.equilibria import deviation_payoffs
from gamehodge.subspaces import harmonic_basis_2p, nonstrategic_basis, numeric_rank
from helpers import dominated_by_pairs, nonstrategic_payoffs, pareto_by_pairs, random_game, relabelled

equilibria_module = importlib.import_module("gamehodge.equilibria")


def random_harmonic_2p(rng, h1, h2, scale=1.0):
    basis = harmonic_basis_2p(h1, h2)
    coeffs = rng.uniform(-scale, scale, size=len(basis))
    u = sum(c * g.utilities for c, g in zip(coeffs, basis.games))
    return Game(u, (h1, h2))


DIRECTION_GAMES = [
    "2x2", "3x3", "2x3", "4x5", "6x6", "2x3x4", "3x3x3", "2x2x2x2x2", "zero-3x3", "matching-pennies",
]


def direction_game(name):
    """Seeded harmonic game by shape ("2x3"), the zero 3x3 game or matching pennies."""
    if name == "zero-3x3":
        return Game(np.zeros((2, 9)), (3, 3))
    if name == "matching-pennies":
        return matching_pennies()
    counts = tuple(int(h) for h in name.split("x"))
    rng = np.random.default_rng(54)
    if len(counts) == 2:
        return random_harmonic_2p(rng, *counts)
    return decompose(random_game(rng, counts)).harmonic_part


class TestPureNash:
    def test_battle_of_sexes(self):
        assert pure_nash(battle_of_sexes()) == [(0, 0), (1, 1)]

    def test_matching_pennies_has_none(self):
        assert pure_nash(matching_pennies()) == []

    def test_cyclic_three_player_has_none(self):
        assert pure_nash(cyclic_three_player()) == []

    def test_weak_inequality_keeps_ties(self):
        g = Game(np.zeros((2, 4)), (2, 2))
        assert len(pure_nash(g)) == 4


class TestEpsilonEquilibria:
    def test_zero_eps_reduces_to_nash(self):
        assert epsilon_equilibria(battle_of_sexes(), 0.0) == pure_nash(battle_of_sexes())

    def test_battle_of_sexes_saturates_at_three(self):
        # the largest unilateral gain is 3 (at (F,O)); the gains at (O,F)
        # are only 2 for either player
        bos = battle_of_sexes()
        assert len(epsilon_equilibria(bos, 3.0)) == 4
        assert len(epsilon_equilibria(bos, 2.9)) == 3
        assert len(epsilon_equilibria(bos, 1.9)) == 2

    def test_matching_pennies_at_two(self):
        # every profitable deviation gains exactly 2
        mp = matching_pennies()
        assert len(epsilon_equilibria(mp, 2.0)) == 4
        assert len(epsilon_equilibria(mp, 1.9)) == 0

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            g = random_game(rng, (2, 3), scale=2.0)
            e1, e2 = sorted(rng.uniform(0.0, 2.0, size=2))
            assert set(epsilon_equilibria(g, e1)) <= set(epsilon_equilibria(g, e2))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            epsilon_equilibria(matching_pennies(), -0.1)

    def test_nan_eps_rejected(self):
        # every comparison with NaN is false, so a NaN eps would list nothing
        with pytest.raises(ValueError):
            epsilon_equilibria(battle_of_sexes(), float("nan"))


class TestEpsilonTransfer:
    def test_potential_game_transfers_exactly(self):
        bos = battle_of_sexes()
        pot, bound = epsilon_transfer_bound(bos)
        assert bound <= 1e-8
        assert pure_nash(pot) == pure_nash(bos)

    def test_classic_rps_bound(self):
        g = generalized_rps(1 / 3, 1 / 3, 1 / 3)
        pot, bound = epsilon_transfer_bound(g)
        assert game_norm(pot) <= 1e-9  # closest potential is the zero game
        assert abs(bound - 2.0 * game_norm(g) / np.sqrt(3.0)) <= 1e-9
        assert len(pure_nash(pot)) == 9
        assert set(pure_nash(pot)) <= set(epsilon_equilibria(g, bound))

    @pytest.mark.parametrize("counts", [(2, 2), (2, 3)])
    def test_containment_on_random_games(self, counts):
        rng = np.random.default_rng(51)
        for _ in range(100):
            g = random_game(rng, counts, scale=3.0)
            pot, bound = epsilon_transfer_bound(g)
            approx = set(epsilon_equilibria(g, bound))
            for p in pure_nash(pot):
                assert p in approx


class TestMixedNash:
    def test_battle_of_sexes_interior_equilibrium(self):
        bos = battle_of_sexes()
        x = [np.array([0.6, 0.4]), np.array([0.4, 0.6])]
        # indifference oracle: both pure strategies of each player tie
        row = deviation_payoffs(bos, 0, x)
        col = deviation_payoffs(bos, 1, x)
        assert abs(row[0] - row[1]) <= 1e-12
        assert abs(col[0] - col[1]) <= 1e-12
        assert is_mixed_nash(bos, x)

    def test_matching_pennies_uniform(self):
        assert is_mixed_nash(matching_pennies(), uniformly_mixed(matching_pennies()))

    def test_battle_of_sexes_uniform_is_not(self):
        bos = battle_of_sexes()
        x = uniformly_mixed(bos)
        assert deviation_payoffs(bos, 0, x)[0] == 1.5  # row strictly prefers O
        assert deviation_payoffs(bos, 0, x)[1] == 1.0
        assert not is_mixed_nash(bos, x)

    def test_pure_equilibrium_as_mixed(self):
        bos = battle_of_sexes()
        x = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        assert is_mixed_nash(bos, x)
        assert mixed_utility(bos, 0, x) == 3.0

    def test_invalid_simplex_rejected(self):
        with pytest.raises(PreconditionError):
            is_mixed_nash(matching_pennies(), [np.array([0.7, 0.7]), np.array([0.5, 0.5])])
        with pytest.raises(PreconditionError):
            is_mixed_nash(matching_pennies(), [np.array([1.5, -0.5]), np.array([0.5, 0.5])])

    @pytest.mark.parametrize(
        "entries", [[np.nan, np.nan], [np.inf, -np.inf], [1e308, 1e308]], ids=["nan", "inf", "huge"]
    )
    def test_non_finite_strategy_rejected(self, entries):
        # every comparison with NaN is False, so the simplex check must fail on it
        with pytest.raises(PreconditionError, match="not a probability distribution"):
            is_mixed_nash(battle_of_sexes(), [np.array(entries), np.array(entries)])


class TestProfileSizes:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: is_mixed_nash(matching_pennies(), [np.array([1.0, 0.0])]),
             "one mixed strategy per player"),
            (lambda: is_mixed_nash(matching_pennies(), [np.array([1.0]), np.array([0.5, 0.5])]),
             "mixed strategy of player 0 must have 2 entries"),
            (lambda: is_correlated_equilibrium(matching_pennies(), np.full(3, 1 / 3)),
             "joint distribution must have 4 entries"),
            # reads that accept any vector of the right length, not only distributions
            (lambda: deviation_payoffs(matching_pennies(), 0, [np.array([0.5, 0.5])]),
             "one mixed strategy per player"),
            (lambda: mixed_utility(matching_pennies(), 1, [np.full(2, 0.5), np.array([1.0])]),
             "mixed strategy of player 1 must have 2 entries"),
            (lambda: harmonic_correlated_system(matching_pennies()).residual(np.full(3, 1 / 3)),
             "joint distribution must have 4 entries"),
        ],
        ids=["strategy-count", "strategy-size", "joint-size", "deviation-payoffs", "mixed-utility",
             "residual"],
    )
    def test_wrong_size_raises_precondition_error(self, call, message):
        with pytest.raises(PreconditionError, match=message):
            call()


class TestUniformlyMixed:
    def test_halves_and_thirds(self):
        assert np.allclose(uniformly_mixed(matching_pennies())[0], [0.5, 0.5])
        g = generalized_rps(1.0, 2.0, 3.0)
        assert np.allclose(uniformly_mixed(g)[1], [1 / 3, 1 / 3, 1 / 3])

    def test_always_nash_in_harmonic_games(self):
        rng = np.random.default_rng(52)
        for counts in [(2, 2), (2, 3), (3, 3), (2, 2, 2)]:
            for _ in range(10):
                g = closest_harmonic(random_game(rng, counts, scale=2.0))
                assert is_mixed_nash(g, uniformly_mixed(g), tol=1e-8)

    def test_mixed_indifference_across_all_strategies(self):
        # at a mixed equilibrium of a harmonic game every own strategy ties
        rng = np.random.default_rng(53)
        for _ in range(20):
            g = closest_harmonic(random_game(rng, (3, 3), scale=2.0))
            x = uniformly_mixed(g)
            for m in range(2):
                payoffs = deviation_payoffs(g, m, x)
                assert payoffs.max() - payoffs.min() <= 1e-9


class TestMixedContraction:
    def test_deviation_payoffs_against_brute_force(self):
        from gamehodge import profile_of_index

        rng = np.random.default_rng(99)
        counts = (2, 3, 2)
        g = random_game(rng, counts)
        x = []
        for h in counts:
            v = rng.uniform(0.1, 1.0, size=h)
            x.append(v / v.sum())
        for m in range(3):
            brute = np.zeros(counts[m])
            for i in range(g.num_profiles):
                p = profile_of_index(i, counts)
                w = np.prod([x[k][p[k]] for k in range(3) if k != m])
                brute[p[m]] += w * g.utilities[m, i]
            assert np.abs(brute - deviation_payoffs(g, m, x)).max() <= 1e-12
            total = float(brute @ x[m])
            assert abs(total - mixed_utility(g, m, x)) <= 1e-12

    @pytest.mark.parametrize("counts", [(3,), (4, 1, 5), (2, 3, 4), (2,) * 5], ids=str)
    def test_deviation_payoffs_match_the_definition(self, counts):
        rng = np.random.default_rng(100)
        g = random_game(rng, counts)
        for _ in range(3):
            x = [rng.dirichlet(np.ones(h)) for h in counts]
            for m, h in enumerate(counts):
                want = np.zeros(h)
                for p in itertools.product(*map(range, counts)):
                    weight = math.prod(x[k][p[k]] for k in range(len(counts)) if k != m)
                    want[p[m]] += weight * g.tensor(m)[p]
                got = deviation_payoffs(g, m, x)
                assert got.shape == (h,)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(g.utilities).max()


class TestCorrelatedEquilibrium:
    def test_inequalities_against_loop_oracle(self):
        from gamehodge import profile_of_index

        rng = np.random.default_rng(98)
        counts = (2, 3)
        for _ in range(20):
            g = random_game(rng, counts)
            w = rng.uniform(0.0, 1.0, size=6)
            joint = w / w.sum()
            # loop oracle over all (player, recommended, deviation) triples
            ok = True
            for m in range(2):
                for a in range(counts[m]):
                    for b in range(counts[m]):
                        gain = 0.0
                        for i in range(6):
                            p = profile_of_index(i, counts)
                            if p[m] != a:
                                continue
                            q = list(p)
                            q[m] = b
                            gain += joint[i] * (
                                g.utility(m, q) - g.utility(m, p)
                            )
                        if gain > 1e-9:
                            ok = False
            assert is_correlated_equilibrium(g, joint, tol=1e-9) == ok

    def test_product_of_mixed_nash(self):
        bos = battle_of_sexes()
        x = [np.array([0.6, 0.4]), np.array([0.4, 0.6])]
        joint = np.outer(x[0], x[1]).ravel()
        assert is_correlated_equilibrium(bos, joint)

    def test_uniform_joint_on_matching_pennies(self):
        assert is_correlated_equilibrium(matching_pennies(), np.full(4, 0.25))

    def test_point_mass_off_equilibrium_fails(self):
        bos = battle_of_sexes()
        joint = np.zeros(4)
        joint[1] = 1.0  # (O, F): the row player gains 2 by switching to F
        assert not is_correlated_equilibrium(bos, joint)

    def test_point_mass_on_equilibrium_passes(self):
        bos = battle_of_sexes()
        joint = np.zeros(4)
        joint[0] = 1.0
        assert is_correlated_equilibrium(bos, joint)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(PreconditionError):
            is_correlated_equilibrium(matching_pennies(), np.full(4, 0.3))

    @pytest.mark.parametrize(
        "entries",
        [[np.nan] * 4, [np.inf, -np.inf, 0.0, 0.0], [1e308, 1e308, 0.0, 0.0]],
        ids=["nan", "inf", "huge"],
    )
    def test_non_finite_distribution_rejected(self, entries):
        with pytest.raises(PreconditionError, match="not a probability distribution"):
            is_correlated_equilibrium(battle_of_sexes(), entries)


class TestHarmonicCorrelatedSystem:
    def test_matching_pennies_unique_uniform(self):
        system = harmonic_correlated_system(matching_pennies())
        assert system.dimension == 0
        assert np.allclose(system.particular, 0.25)
        assert system.residual(system.particular) <= 1e-9

    def test_two_by_three_continuum(self):
        # alpha = beta = 1 combination of the two harmonic basis games
        basis = harmonic_basis_2p(2, 3)
        g = Game(basis.games[0].utilities + basis.games[1].utilities, (2, 3))
        system = harmonic_correlated_system(g)
        assert system.dimension == 1
        # every solution splits as (1/2, 1/2) x (t1, t2, t3) with
        # 6 t1 - 6 t3 = 0; spot-check one such point against the inequalities
        joint = np.outer([0.5, 0.5], [0.25, 0.5, 0.25]).ravel()
        assert system.residual(joint) <= 1e-9
        assert is_correlated_equilibrium(g, joint)

    def test_basis_game_2x2(self):
        # payoffs (2 A, -2 A) with the checkerboard A force row-wise and
        # column-wise equal joint probabilities, hence the uniform
        g = harmonic_basis_2p(2, 2).games[0]
        system = harmonic_correlated_system(g)
        assert system.dimension == 0
        assert np.allclose(system.particular, 0.25)

    @pytest.mark.parametrize("name", DIRECTION_GAMES)
    def test_direction_generators_satisfy_equalities(self, name):
        system = harmonic_correlated_system(direction_game(name))
        assert system.residual(system.particular) <= 1e-9
        # the dimension ranked from singular values alone matches the count
        # of the full SVD's singular values above the threshold
        n = system.equalities.shape[1]
        s = np.linalg.svd(system.equalities)[1]
        assert system.dimension == n - int(np.sum(s > 1e-9 * s[0]))
        directions = system.directions
        assert directions.shape == (system.dimension, n)
        assert np.allclose(directions @ directions.T, np.eye(system.dimension), atol=1e-9)
        hom = system.equalities @ directions.T
        # directions are homogeneous: zero out every equality row except the
        # total-probability one, which they must also annihilate
        assert np.abs(hom).max(initial=0.0) <= 1e-9
        assert system.directions is directions
        if system.game.num_players <= 2:
            # the same space as the QR basis of the mean-zero functions gives
            assert np.abs(directions.T @ directions - qr_projector(system)).max() <= 1e-12

    def test_long_axis_directions_leave_the_helmert_cache_alone(self):
        # the transform caches the reflection matrices of short axes only; the
        # null bases of a 100x100 game build theirs uncached
        from gamehodge.flows import _reflection_matrix

        _reflection_matrix.cache_clear()  # so an earlier test's entry cannot hide a new one
        g = decompose(random_game(np.random.default_rng(65), (100, 100))).harmonic_part
        system = harmonic_correlated_system(g)
        before = _reflection_matrix.cache_info().currsize
        assert system.directions.shape[1] == g.num_profiles
        assert _reflection_matrix.cache_info().currsize == before

    def test_rejects_non_harmonic(self):
        with pytest.raises(PreconditionError):
            harmonic_correlated_system(battle_of_sexes())

    def test_rejects_normalized_non_harmonic(self):
        # normalized, so it is the harmonic check that rejects it
        with pytest.raises(PreconditionError, match="must be harmonic"):
            harmonic_correlated_system(normalize(battle_of_sexes()))

    def test_accepts_every_game_is_harmonic_certifies(self):
        # matching pennies plus 5e-10 times the normalized coordination game:
        # its potential part is within tol of the game's norm, but the
        # pointwise sum h @ u is 4 * 5e-10, twice tol * max|u|
        d = 5e-10
        coordination = np.array([1.0, -1.0, -1.0, 1.0])
        g = Game(np.stack([(1 + d) * coordination, (d - 1) * coordination]), (2, 2))
        assert is_harmonic(g, 1e-9)
        dim = harmonic_correlated_system(g, 1e-9).dimension
        assert equilibrium_report(g, tol=1e-9)["correlated_dim"] == dim == 0

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_rejections_read_the_same_at_every_scale(self, scale):
        bos = battle_of_sexes()
        rejected = {
            "game must be normalized; call normalize() first": bos,
            "game must be harmonic (zero potential part)": normalize(bos),
        }
        for message, g in rejected.items():
            with pytest.raises(PreconditionError) as info:
                harmonic_correlated_system(g.with_utilities(scale * g.utilities))
            assert str(info.value) == message

    # correlated dimension of each game at payoff scale 1; scaling the
    # payoffs must not change it
    SCALE_FREE_DIMS = {
        "rps": 0, "matching-pennies": 0, "2x2": 0, "3x3": 0, "4x5": 1, "2x3x4": 4, "3x3x3": 9,
    }

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("name", list(SCALE_FREE_DIMS))
    def test_dimension_is_scale_free(self, name, scale):
        g = generalized_rps(1, 1, 1) if name == "rps" else direction_game(name)
        g = g.with_utilities(scale * g.utilities)
        dim = self.SCALE_FREE_DIMS[name]
        assert harmonic_correlated_system(g).dimension == dim
        assert equilibrium_report(g)["correlated_dim"] == dim

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("counts", [(3,), (7,)], ids=str)
    def test_one_player_harmonic_game_at_every_scale(self, counts, scale):
        # one player has no harmonic flow: the game's harmonic game is its
        # nonstrategic part plus rounding, where every distribution is correlated
        g = random_game(np.random.default_rng(68), counts, scale=scale)
        harmonic = closest_harmonic(g)
        assert harmonic_correlated_system(harmonic).dimension == g.num_profiles - 1
        assert equilibrium_report(harmonic)["correlated_dim"] == g.num_profiles - 1

    def test_rejects_unnormalized(self):
        rng = np.random.default_rng(55)
        g = random_harmonic_2p(rng, 2, 2)
        shifted = g.with_utilities(g.utilities + 1.0)
        with pytest.raises(PreconditionError):
            harmonic_correlated_system(shifted)

    def test_three_player_dimension_bounds(self):
        # with three players of three strategies the correlated set must be
        # strictly larger than any mixed set: lower bound 27-1-18 = 8 exceeds
        # the mixed-profile dimension bound 6
        rng = np.random.default_rng(56)
        g = decompose(random_game(rng, (3, 3, 3), scale=2.0)).harmonic_part
        system = harmonic_correlated_system(g, tol=1e-8)
        lower = 27 - 1 - 3 * 3 * 2
        upper_mixed = 3 * 2
        assert lower > upper_mixed
        assert system.dimension >= lower

    def test_three_player_equalities_built_on_first_read(self):
        # the dimension ranks a stacked system that is not kept; the
        # equalities and their null space are built when first read, equal
        # to the system written out by definition
        g = decompose(random_game(np.random.default_rng(58), (8, 8, 8))).harmonic_part
        system = harmonic_correlated_system(g)
        assert system.dimension >= 0
        assert "equalities" not in vars(system)
        counts = g.strategy_counts
        rows = []
        for m, h in enumerate(counts):
            own = np.arange(h).reshape([h if k == m else 1 for k in range(3)])
            for a in range(h):
                for b in range(h):
                    deviated = np.take(g.tensor(m), [b], axis=m)  # u^m(b, p_-m)
                    rows.append(np.where(own == a, deviated, 0.0).ravel())
        rows.append(np.ones(g.num_profiles))
        expected = np.array(rows)
        assert np.array_equal(system.equalities, expected)
        vt = np.linalg.svd(expected)[2]
        assert np.array_equal(system.directions, vt[len(vt) - system.dimension:])

    def test_equality_form_matches_inequality_form(self):
        # correlated points of a (possibly unnormalized) harmonic game satisfy
        # the pairwise-difference equalities, not just the inequalities
        rng = np.random.default_rng(57)
        for _ in range(10):
            g = closest_harmonic(random_game(rng, (2, 3), scale=2.0))
            system = harmonic_correlated_system(normalize(g))
            points = [system.particular]
            for d in system.directions:
                step = 0.2 / max(np.abs(d).max(), 1e-9)
                cand = system.particular + step * d
                if cand.min() >= 0:
                    points.append(cand / cand.sum())
            for x in points:
                assert is_correlated_equilibrium(g, x, tol=1e-9)
                xt = x.reshape(g.strategy_counts)
                for m in range(2):
                    u = np.moveaxis(g.tensor(m), m, 0).reshape(g.strategy_counts[m], -1)
                    w = np.moveaxis(xt, m, 0).reshape(g.strategy_counts[m], -1)
                    cross = w @ u.T
                    diffs = np.diag(cross)[:, None] - cross
                    assert np.abs(diffs).max() <= 1e-9


def rank_one_harmonic_2p(rng, h1, h2):
    # u^1 = a b^T with a and b mean-zero, u^2 = -(h1 / h2) u^1: harmonic and
    # normalized, with both payoff matrices of rank one
    a = rng.uniform(-1, 1, h1)
    b = rng.uniform(-1, 1, h2)
    u1 = np.outer(a - a.mean(), b - b.mean()).ravel()
    return Game(np.stack([u1, -(h1 / h2) * u1]), (h1, h2))


PRODUCT_SHAPES = [(h, h) for h in range(2, 9)] + [(1, 5), (3, 7), (10, 10)]


def scaled_equalities(system):
    """The stacked system with its ones row scaled to max|u|, as it is ranked."""
    equalities = system.equalities.copy()
    equalities[-1] = float(np.abs(system.game.utilities).max(initial=0.0)) or 1.0
    return equalities


def stacked_dimension(system):
    return system.game.num_profiles - numeric_rank(scaled_equalities(system))


def qr_projector(system):
    """``d.T @ d`` of a one- or two-player system's directions, built independently.

    The mean-zero functions get the orthonormal basis that QR makes from
    ``[1, e_1, ..., e_{h-1}]``; the null spaces and their Kronecker product
    follow :attr:`AffineSolutionSet.directions`.
    """
    counts, u = system.game.strategy_counts, system.game.utilities
    factors = equilibria_module._factors(counts, u)
    ranks = equilibria_module._factor_ranks(counts, u, factors, system.tol)
    bases = []
    for a, rank in zip(factors, ranks):
        h = a.shape[1]
        ones = np.full(h, 1.0 / math.sqrt(h))
        rest = np.linalg.qr(np.column_stack([ones, np.eye(h)[:, 1:]]))[0][:, 1:]
        bases.append(np.vstack([ones, np.linalg.svd(a @ rest)[2][rank:] @ rest.T]))
    cols, rows = bases
    d = np.kron(rows, cols)[1:]  # every product but the uniform distribution's
    return d.T @ d


class TestProductForm:
    """Two-player correlated systems from the two payoff matrices alone."""

    @pytest.fixture(params=[(shape, kind) for shape in PRODUCT_SHAPES for kind in ("random", "rank-1")],
                    ids=lambda param: f"{'x'.join(map(str, param[0]))}-{param[1]}")
    def harmonic(self, request):
        (h1, h2), kind = request.param
        rng = np.random.default_rng(h1 * 100 + h2)
        if kind == "rank-1":
            return rank_one_harmonic_2p(rng, h1, h2)
        if h1 == 1:  # one strategy against five: no harmonic game but zero
            return Game(np.zeros((2, h1 * h2)), (h1, h2))
        return random_harmonic_2p(rng, h1, h2)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_dimension_is_the_stacked_rank(self, harmonic, scale):
        g = harmonic.with_utilities(scale * harmonic.utilities)
        system = harmonic_correlated_system(g)
        assert system.dimension == stacked_dimension(system)
        assert system.dimension == harmonic_correlated_system(harmonic).dimension

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_dimension_ignores_labels_and_nonstrategic_parts(self, harmonic, scale):
        rng = np.random.default_rng(69)
        g = harmonic.with_utilities(scale * harmonic.utilities)
        dim = harmonic_correlated_system(g).dimension
        assert harmonic_correlated_system(relabelled(g, rng)).dimension == dim
        shifted = g.with_utilities(g.utilities + scale * nonstrategic_payoffs(rng, g.strategy_counts))
        assert equilibrium_report(shifted)["correlated_dim"] == dim
        assert equilibrium_report(relabelled(shifted, rng))["correlated_dim"] == dim

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_directions_span_the_homogeneous_solutions(self, harmonic, scale):
        g = harmonic.with_utilities(scale * harmonic.utilities)
        system = harmonic_correlated_system(g)
        directions = system.directions
        n = g.num_profiles
        assert directions.shape == (system.dimension, n)
        assert np.allclose(directions @ directions.T, np.eye(system.dimension), atol=1e-12)
        hom = system.equalities @ directions.T
        # payoff rows at the payoffs' scale, the total-probability row at 1
        assert np.abs(hom[:-1]).max(initial=0.0) <= 1e-12 * scale
        assert np.abs(hom[-1]).max(initial=0.0) <= 1e-12
        # the same subspace as the stacked system's null space
        vt = np.linalg.svd(scaled_equalities(system))[2]
        null = vt[len(vt) - system.dimension:]
        assert np.allclose(directions.T @ directions, null.T @ null, atol=1e-9)
        assert np.abs(directions.T @ directions - qr_projector(system)).max() <= 1e-12

    def test_residual_matches_the_equalities(self, harmonic):
        system = harmonic_correlated_system(harmonic)
        rng = np.random.default_rng(70)
        n = harmonic.num_profiles
        for x in [system.particular, rng.dirichlet(np.ones(n)), rng.uniform(0, 1, n)]:
            full = float(np.abs(system.equalities @ x - system.rhs).max())
            assert system.residual(x) == pytest.approx(full, rel=1e-12, abs=1e-15)

    def test_ranks_at_the_stacked_threshold(self):
        # u^1 = a b^T + eps c d^T with spiky a and b, so that max|u| sqrt(n),
        # the total-probability row's singular value, is about 5 times the
        # largest payoff singular value; the second term's singular value lies
        # between tol times each, so only the stacked system's threshold
        # drops it
        h = 8
        spike = np.full(h, -1.0)
        spike[0] = h - 1
        rng = np.random.default_rng(73)
        c, d = (v - v.mean() for v in rng.uniform(-1, 1, (2, h)))
        top = math.hypot(*[np.linalg.norm(spike) ** 2] * 2)
        eps = 2.2e-9 * top / (np.linalg.norm(c) * np.linalg.norm(d))
        u1 = (np.outer(spike, spike) + eps * np.outer(c, d)).ravel()
        g = Game(np.stack([u1, -u1]), (h, h))
        system = harmonic_correlated_system(g)
        assert system.dimension == stacked_dimension(system) == (h - 1) ** 2 - 1

    @pytest.mark.parametrize(
        "game",
        [matching_pennies(), generalized_rps(1, 1, 1), Game(np.zeros((2, 6)), (2, 3)),
         *harmonic_basis_2p(2, 3).games],
        ids=["matching-pennies", "rps", "zero-2x3", "basis-2x3-0", "basis-2x3-1"],
    )
    def test_exact_games_at_zero_tol(self, game):
        # with tol = 0 every rounding-level singular value counts; the ones
        # vector still lies in both null spaces, as in the stacked system
        system = harmonic_correlated_system(game, tol=0.0)
        assert system.dimension == game.num_profiles - numeric_rank(scaled_equalities(system), 0.0)
        assert system.directions.shape == (system.dimension, game.num_profiles)

    def test_dimension_builds_no_stacked_system(self):
        g = normalize(closest_harmonic(random_game(np.random.default_rng(71), (100, 100))))
        system = harmonic_correlated_system(g)
        assert system.dimension == 0
        assert system.directions.shape == (0, g.num_profiles)
        assert system.residual(system.particular) <= 1e-12
        assert "equalities" not in vars(system)

    def test_one_player_builds_no_stacked_system(self):
        # the stacked system of 3000 strategies would have 9 million rows
        g = random_game(np.random.default_rng(72), (3000,))
        harmonic = closest_harmonic(g)
        system = harmonic_correlated_system(harmonic)
        assert system.dimension == 2999
        assert equilibrium_report(harmonic)["correlated_dim"] == 2999
        assert "equalities" not in vars(system)

    def test_cap_raises_before_allocating(self):
        from gamehodge.equilibria import CORRELATED_SYSTEM_CAP

        counts = (24, 24, 24)
        g = Game(np.zeros((3, 24**3)), counts)
        assert (3 * 24 * 24 + 1) * g.num_profiles > CORRELATED_SYSTEM_CAP
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="correlated system"):
                harmonic_correlated_system(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestHarmonicIndifference:
    def test_matching_pennies_flux(self):
        report = harmonic_indifference_checks(matching_pennies())
        assert report.passed
        assert report.flux_max_violation == 0.0
        assert report.pure_equilibria == []

    def test_random_harmonic_basis_span(self):
        rng = np.random.default_rng(58)
        for _ in range(20):
            g = random_harmonic_2p(rng, 3, 4, scale=2.0)
            report = harmonic_indifference_checks(g, tol=1e-9)
            assert report.passed

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("counts", [(3, 3), (2, 3, 4)], ids=["3x3", "2x3x4"])
    def test_harmonic_parts_pass_at_every_scale(self, counts, scale):
        # the per-strategy sums spread by rounding at the payoffs' scale
        g = decompose(random_game(np.random.default_rng(59), counts)).harmonic_part
        report = harmonic_indifference_checks(g.with_utilities(scale * g.utilities))
        assert report.passed, report.violations

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_violations_at_every_scale(self, scale):
        g = battle_of_sexes()
        report = harmonic_indifference_checks(g.with_utilities(scale * g.utilities))
        assert len(report.violations) == len(harmonic_indifference_checks(g).violations) > 0

    def test_zero_game_full_indifference(self):
        g = Game(np.zeros((2, 6)), (2, 3))
        report = harmonic_indifference_checks(g)
        assert report.passed
        assert len(report.pure_equilibria) == 6
        assert report.ne_indifference_max == 0.0

    def test_violations_are_reported_not_raised(self):
        report = harmonic_indifference_checks(battle_of_sexes())
        assert not report.passed
        assert report.violations


def _lex_order_inputs():
    """(M, n) payoff arrays with and without ties, for the lexicographic order."""
    rng = np.random.default_rng(64)
    signed = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(6, 300))
    tied_first = rng.uniform(-1.0, 1.0, size=(4, 200))
    tied_first[0] = np.round(tied_first[0], 1)
    constant_first = rng.uniform(-1.0, 1.0, size=(3, 200))
    constant_first[0] = 0.25
    return {
        "1-untied": rng.uniform(-1.0, 1.0, size=(1, 150)),
        "1-tied": np.round(rng.uniform(-1.0, 1.0, size=(1, 150)), 1),
        "2-untied": rng.uniform(-1.0, 1.0, size=(2, 150)),
        "2-tied": np.round(rng.uniform(-1.0, 1.0, size=(2, 150)), 1),
        "3-tied": np.round(rng.uniform(-1.0, 1.0, size=(3, 700)), 1),
        "4-tied-on-player-0": tied_first,
        "3-player-0-constant": constant_first,
        "3-all-equal": np.full((3, 120), 0.5),
        "6-signed-zeros": signed,
        "3-one-column": rng.uniform(-1.0, 1.0, size=(3, 1)),
        "3-two-equal-columns": np.full((3, 2), -0.75),
    }


LEX_ORDER_INPUTS = _lex_order_inputs()


class TestPareto:
    def test_battle_of_sexes(self):
        assert pareto_optimal(battle_of_sexes()) == [(0, 0), (1, 1)]

    def test_identical_interest_argmax(self):
        rng = np.random.default_rng(59)
        u = rng.uniform(-1.0, 1.0, size=(3, 3))
        g = Game.from_payoff_matrices(u, u)
        best = np.flatnonzero(u.ravel() == u.max())
        from gamehodge import profile_of_index

        assert pareto_optimal(g) == [profile_of_index(int(i), (3, 3)) for i in best]

    def test_zero_game_everything_optimal(self):
        g = Game(np.zeros((2, 4)), (2, 2))
        assert len(pareto_optimal(g)) == 4

    def test_matches_brute_force_with_ties_across_blocks(self):
        from gamehodge.equilibria import _PARETO_DENSE, _PARETO_WINDOW

        def brute_force(g):
            payoffs = g.utilities.T
            return [
                profile_of_index(i, g.strategy_counts)
                for i in range(g.num_profiles)
                if not np.any(
                    np.all(payoffs >= payoffs[i], axis=1) & np.any(payoffs > payoffs[i], axis=1)
                )
            ]

        rng = np.random.default_rng(60)
        games = []
        # payoffs rounded to one decimal, so ties and repeated profiles abound
        for counts in [(17, 31), (5, 7, 9), (3, 3, 3, 3, 3, 3)]:
            u = np.round(rng.uniform(-1.0, 1.0, size=(len(counts), math.prod(counts))), 1)
            games.append(Game(u, counts))
        # distinct vectors on both sides of the dense/sorted crossover and of
        # the 64-bit word and window boundaries, with 1, 2, 3 and 6 players
        w = _PARETO_WINDOW
        sizes = [_PARETO_DENSE - 1, _PARETO_DENSE, 127, 128, 129, w - 1, w, w + 1, 2 * w + 1]
        for players in (1, 2, 3, 6):
            for n in sizes:
                counts = (n,) + (1,) * (players - 1)
                games.append(Game(rng.uniform(-1.0, 1.0, size=(players, n)), counts))
        # -0.0 against 0.0: equal, so neither dominates the other
        for players in (2, 3):
            u = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(players, 150))
            games.append(Game(u, (150,) + (1,) * (players - 1)))
        # all payoff vectors equal: nothing is dominated
        games.append(Game(np.full((3, 600), 0.5), (600, 1, 1)))
        # 300 distinct vectors repeated at index positions windows apart
        base = rng.uniform(-1.0, 1.0, size=(3, 300))
        games.append(Game(base[:, rng.integers(0, 300, size=4 * w)], (4 * w, 1, 1)))
        for g in games:
            assert pareto_optimal(g) == brute_force(g)

    @pytest.mark.parametrize("players", [3, 6])
    def test_windows_of_live_columns_span_several_ranges(self, players):
        # a term shared by all players makes the lexicographically first
        # window dominate most columns, so the next window's members are
        # the few live columns spread over the ranges of w columns after it
        # (11 over three ranges with 3 players, 117 with 6)
        from gamehodge.equilibria import _PARETO_WINDOW

        w = _PARETO_WINDOW
        rng = np.random.default_rng(61)
        n = 4 * w
        u = rng.uniform(-1.0, 1.0, size=n) + 2.0 * rng.uniform(-1.0, 1.0, size=(players, n))
        g = Game(u, (n,) + (1,) * (players - 1))
        ranked = u[:, np.lexsort(u[::-1])[::-1]]
        first, rest = ranked[:, :w, None], ranked[:, None, w:]
        beaten = (np.all(first >= rest, axis=0) & np.any(first > rest, axis=0)).any(axis=0)
        live = w + np.flatnonzero(~beaten)
        assert len(np.unique(live[:w] // w)) >= 2
        expected = pareto_by_pairs(g)
        assert len(expected) < w
        assert pareto_optimal(g) == expected

    def test_dominance_chain_across_windows(self):
        # an antichain on the plane u_0 + u_1 + u_2 = 0 fills three windows;
        # a chain runs through them in lexicographic order, each link weakly
        # dominated by the one before and equal to it in two players.  Links
        # found dominated leave the windows, and the chain's top, live in
        # the first window, still catches every later link
        from gamehodge.equilibria import _PARETO_WINDOW

        rng = np.random.default_rng(62)
        a = rng.uniform(-1.0, 1.0, size=(2, 3 * _PARETO_WINDOW))
        antichain = np.vstack([a, -(a[0] + a[1])])
        i = np.arange(80)
        chain = np.vstack([0.9 - 0.045 * (i // 2), 5.0 - 0.01 * ((i + 1) // 2), np.full(80, -5.0)])
        u = np.hstack([antichain, chain])[:, rng.permutation(antichain.shape[1] + 80)]
        g = Game(u, (u.shape[1], 1, 1))
        expected = pareto_by_pairs(g)
        optimal = {tuple(u[:, p[0]]) for p in expected}
        assert (0.9, 5.0, -5.0) in optimal
        assert not optimal & {tuple(c) for c in chain.T[1:]}
        assert pareto_optimal(g) == expected

    @pytest.mark.parametrize("players", [3, 6])
    @pytest.mark.parametrize("first", ["some-ties", "all-tied", "signed-zeros"])
    def test_ties_on_player_0(self, players, first):
        from gamehodge.equilibria import _PARETO_DENSE, _PARETO_WINDOW

        rng = np.random.default_rng(63)
        n = 2 * _PARETO_WINDOW + 3
        u = np.round(rng.uniform(-1.0, 1.0, size=(players, n)), 2)
        if first == "some-ties":
            u[0] = rng.integers(0, n // 4, size=n) / 7.0
        elif first == "all-tied":
            u[0] = -0.5
        else:
            u[0] = rng.choice([-0.0, 0.0, 0.5], size=n)
        assert n >= _PARETO_DENSE
        g = Game(u, (n,) + (1,) * (players - 1))
        assert pareto_optimal(g) == pareto_by_pairs(g)

    @pytest.mark.parametrize("n", [150, 400])
    @pytest.mark.parametrize("kind", ["distinct", "ties", "signed-zeros"])
    def test_one_player_sweep(self, n, kind):
        # one player goes through the two-player sweep on its only row
        from gamehodge.equilibria import _PARETO_DENSE, _dominated_dense, _dominated_sorted

        rng = np.random.default_rng(66)
        if kind == "distinct":
            u = rng.uniform(-1.0, 1.0, size=(1, n))
        elif kind == "ties":
            u = np.round(rng.uniform(-1.0, 1.0, size=(1, n)), 1)
        else:
            u = rng.choice([-0.5, -0.0, 0.0], size=(1, n))
        assert n >= _PARETO_DENSE
        np.testing.assert_array_equal(_dominated_sorted(u), _dominated_dense(u))
        g = Game(u, (n,))
        assert pareto_optimal(g) == pareto_by_pairs(g)

    @pytest.mark.parametrize("name", list(LEX_ORDER_INPUTS))
    def test_lex_order_sorts_as_lexsort(self, name):
        from gamehodge.equilibria import _lex_descending

        payoffs = LEX_ORDER_INPUTS[name]
        order = _lex_descending(payoffs)
        assert sorted(order.tolist()) == list(range(payoffs.shape[1]))
        np.testing.assert_array_equal(
            payoffs[:, order], payoffs[:, np.lexsort(payoffs[::-1])[::-1]]
        )

    def test_work_cap_raises_before_allocating(self):
        from gamehodge.equilibria import PARETO_WORK_CAP

        g = Game(np.zeros((3, 2**18)), (64, 64, 64))
        assert g.num_profiles**2 * 2 > PARETO_WORK_CAP
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="work cap"):
                pareto_optimal(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_two_players_have_no_cap(self):
        # n^2 > 2^36 with two players: the running-maximum sweep takes it
        from gamehodge.equilibria import PARETO_WORK_CAP

        g = Game(np.stack([np.arange(513 * 513.0), -np.arange(513 * 513.0)]), (513, 513))
        assert g.num_profiles**2 > PARETO_WORK_CAP
        assert len(pareto_optimal(g)) == g.num_profiles


class TestParetoAlignTransform:
    def test_battle_of_sexes(self):
        bos = battle_of_sexes()
        out = pareto_align_transform(bos)
        for p in [(0, 0), (1, 1)]:
            assert out.utility(0, p) == 0.0
            assert out.utility(1, p) == 0.0
        assert pure_nash(out) == [(0, 0), (1, 1)]
        assert pareto_optimal(out) == [(0, 0), (1, 1)]
        diff = pairwise_comparison(out) - pairwise_comparison(bos)
        assert diff.max_abs() <= 1e-9

    def test_zero_game_unchanged_strategically(self):
        g = Game(np.zeros((2, 4)), (2, 2))
        out = pareto_align_transform(g)
        assert pairwise_comparison(out).max_abs() <= 1e-9
        assert len(pure_nash(out)) == 4
        assert len(pareto_optimal(out)) == 4

    @pytest.mark.parametrize("counts", [(2, 2), (2, 3), (2, 2, 2)])
    def test_random_games_with_equilibria(self, counts):
        # the alignment guarantee applies to games that have a pure Nash
        # equilibrium, so sample until 50 such games are seen
        rng = np.random.default_rng(60)
        done = 0
        while done < 50:
            g = random_game(rng, counts, scale=3.0)
            if not pure_nash(g):
                continue
            done += 1
            out = pareto_align_transform(g)
            assert pure_nash(out) == pure_nash(g)
            assert pure_nash(out) == pareto_optimal(out)
            assert (pairwise_comparison(out) - pairwise_comparison(g)).max_abs() <= 1e-9

    def test_comparisons_preserved_even_without_equilibria(self):
        mp = matching_pennies()
        out = pareto_align_transform(mp)
        assert (pairwise_comparison(out) - pairwise_comparison(mp)).max_abs() <= 1e-9
        assert pure_nash(out) == []


class TestStrategicInvariance:
    def test_equilibrium_concepts_ignore_nonstrategic_shifts(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            g = random_game(rng, (2, 3), scale=2.0)
            basis = nonstrategic_basis((2, 3))
            shift = sum(
                rng.uniform(-3.0, 3.0) * b.utilities for b in basis.games
            )
            shifted = g.with_utilities(g.utilities + shift)
            assert pure_nash(shifted) == pure_nash(g)
            x = uniformly_mixed(g)
            assert is_mixed_nash(shifted, x, 1e-9) == is_mixed_nash(g, x, 1e-9)
            joint = np.full(6, 1 / 6)
            assert is_correlated_equilibrium(
                shifted, joint, 1e-9
            ) == is_correlated_equilibrium(g, joint, 1e-9)


class TestPotentialAndHarmonicFacts:
    def test_potential_games_have_pure_nash_at_argmax(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            counts = [(2, 2), (2, 3), (3, 3)][rng.integers(3)]
            g = closest_potential(random_game(rng, counts, scale=2.0))
            equilibria = pure_nash(g)
            assert equilibria
            phi = potential_function(g, tol=1e-7)
            assert phi is not None
            from gamehodge import profile_of_index

            top = profile_of_index(int(np.argmax(phi)), counts)
            assert top in equilibria

    def test_harmonic_games_generically_lack_pure_nash(self):
        # positive-measure failure would require an exact tie; a run of 100
        # seeded continuous samples should never produce one
        rng = np.random.default_rng(63)
        for _ in range(100):
            counts = [(2, 2), (2, 3), (3, 3), (2, 2, 2)][rng.integers(4)]
            g = closest_harmonic(random_game(rng, counts, scale=2.0))
            assert pure_nash(g) == []


class TestReport:
    def test_matching_pennies_report(self):
        report = equilibrium_report(matching_pennies(), eps=2.0)
        assert report["pure_nash"] == []
        assert len(report["epsilon_equilibria"]) == 4
        assert report["uniform_mixed_is_ne"] is True
        assert report["correlated_dim"] == 0
        assert len(report["pareto_optimal"]) == 4

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_nonstrategic_game_report(self, scale):
        # normalizing leaves only rounding of the payoffs: the game counts as
        # harmonic, and every joint distribution is a correlated equilibrium
        u = nonstrategic_payoffs(np.random.default_rng(58), (3, 3))
        report = equilibrium_report(Game(scale * u, (3, 3)))
        assert report["correlated_dim"] == 8
        assert len(report["pure_nash"]) == 9

    def test_battle_of_sexes_report(self):
        report = equilibrium_report(battle_of_sexes())
        assert report["pure_nash"] == [[0, 0], [1, 1]]
        assert report["correlated_dim"] is None
        assert report["uniform_mixed_is_ne"] is False

    @pytest.mark.parametrize(
        "make",
        [
            matching_pennies,
            lambda: generalized_rps(1 / 3, 1 / 3, 1 / 3),
            lambda: decompose(random_game(np.random.default_rng(59), (4, 4))).harmonic_part,
            lambda: decompose(random_game(np.random.default_rng(59), (8, 8, 8))).harmonic_part,
            lambda: decompose(random_game(np.random.default_rng(59), (4,) * 4)).harmonic_part,
        ],
        ids=["matching-pennies", "rps", "4x4", "8x8x8", "4^4"],
    )
    def test_correlated_dim_needs_no_singular_vectors(self, monkeypatch, make):
        game = make()
        svd = np.linalg.svd
        compute_uv = []

        def recording(a, *args, **kwargs):
            compute_uv.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        assert equilibrium_report(game)["correlated_dim"] is not None
        assert compute_uv and not any(compute_uv)


def _seeded_harmonic(counts):
    """The harmonic part of a seeded random game, plus a nonstrategic part."""
    rng = np.random.default_rng(sum(counts) * 10 + len(counts))
    harmonic = decompose(random_game(rng, counts)).harmonic_part
    return harmonic.with_utilities(harmonic.utilities + nonstrategic_payoffs(rng, counts))


CERTIFIED_GAMES = {
    "matching-pennies": matching_pennies,
    "rps": lambda: generalized_rps(1 / 3, 1 / 3, 1 / 3),
    "cyclic-three-player": cyclic_three_player,
    **{"x".join(map(str, c)): lambda c=c: _seeded_harmonic(c)
       for c in [(2, 3), (3, 3), (2, 2, 2), (3, 3, 3), (2,) * 5,
                 (5, 5), (4, 2), (3, 6), (2, 3, 4), (2, 2, 3, 2, 2)]},
}


class TestReportTrustsTheKernel:
    @pytest.mark.parametrize("name", list(CERTIFIED_GAMES))
    def test_report_reruns_no_certified_check(self, name, monkeypatch):
        # the values of the public, validated functions, then the report with
        # every check that the kernel or is_harmonic already settled refused
        g, eps, tol = CERTIFIED_GAMES[name](), 0.25, 1e-9
        correlated_dim = None
        if is_harmonic(g, tol):
            strategic = g.with_utilities(g.utilities - decompose(g).nonstrategic_part.utilities)
            correlated_dim = harmonic_correlated_system(strategic, tol).dimension
        want = {
            "pure_nash": [list(p) for p in pure_nash(g)],
            "epsilon": eps,
            "epsilon_equilibria": [list(p) for p in epsilon_equilibria(g, eps)],
            "pareto_optimal": [list(p) for p in pareto_optimal(g)],
            "uniform_mixed_is_ne": is_mixed_nash(g, uniformly_mixed(g), tol),
            "correlated_dim": correlated_dim,
        }

        def refuse(*args, **kwargs):
            raise AssertionError("the report re-checked what the kernel certified")

        for checked in ("harmonic_correlated_system", "is_normalized", "_validate_mixed"):
            monkeypatch.setattr(equilibria_module, checked, refuse)
        assert equilibrium_report(g, eps=eps, tol=tol) == want
        assert equilibrium_report(g.with_utilities(g.utilities), eps=eps, tol=tol) == want
        assert (correlated_dim is None) == (name == "cyclic-three-player")


BOS_PURE = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
TOL_CHECKS = {
    "is_mixed_nash": lambda tol: is_mixed_nash(battle_of_sexes(), BOS_PURE, tol),
    "is_correlated_equilibrium": lambda tol: is_correlated_equilibrium(
        battle_of_sexes(), np.array([0.0, 1.0, 0.0, 0.0]), tol
    ),
    "harmonic_indifference_checks": lambda tol: harmonic_indifference_checks(battle_of_sexes(), tol),
    "equilibrium_report": lambda tol: equilibrium_report(battle_of_sexes(), tol=tol),
    "harmonic_correlated_system": lambda tol: harmonic_correlated_system(matching_pennies(), tol),
    "verify_normalized_harmonic": lambda tol: verify_normalized_harmonic(matching_pennies(), tol),
}


@pytest.mark.parametrize("tol", [math.nan, -1.0])
@pytest.mark.parametrize("name", list(TOL_CHECKS))
def test_tol_must_be_a_number_at_least_zero(name, tol):
    with pytest.raises(ValueError, match="tol"):
        TOL_CHECKS[name](tol)


REPORT_GAMES = {
    "matching-pennies": matching_pennies,
    "battle-of-sexes": battle_of_sexes,
    "modified-battle-of-sexes": modified_battle_of_sexes,
    "rps": lambda: generalized_rps(1 / 3, 1 / 3, 1 / 3),
    "road-sharing": road_sharing,
    "cyclic-three-player": cyclic_three_player,
    "3x3x3": lambda: random_game(np.random.default_rng(65), (3, 3, 3)),
    "8x8": lambda: random_game(np.random.default_rng(66), (8, 8)),
    "2^10": lambda: random_game(np.random.default_rng(67), (2,) * 10),
}


class TestReportLists:
    """The report's profile lists against the public enumerations."""

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("name", list(REPORT_GAMES))
    def test_lists_match_the_public_functions(self, name, scale):
        base = REPORT_GAMES[name]()
        g = Game(scale * base.utilities, base.strategy_counts)
        eps = 0.25 * scale
        report = equilibrium_report(g, eps=eps)
        assert report["pure_nash"] == [list(p) for p in pure_nash(g)]
        assert report["epsilon_equilibria"] == [list(p) for p in epsilon_equilibria(g, eps)]
        assert report["pareto_optimal"] == [list(p) for p in pareto_optimal(g)]
        for key in ("pure_nash", "epsilon_equilibria", "pareto_optimal"):
            assert all(type(p) is list and all(type(c) is int for c in p) for p in report[key])

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            equilibrium_report(battle_of_sexes(), eps=-1.0)


TIE_HEAVY_SHAPES = [(3,), (2, 2), (3, 1, 2), (2, 3, 4), (2,) * 5]


def tie_heavy_game(shape, seed):
    # payoffs in {-1, 0, 1}: ties in every line, and every sum is exact
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    return Game(rng.integers(-1, 2, size=(len(shape), n)).astype(float), shape)


def all_profiles(game):
    return [profile_of_index(i, game.strategy_counts) for i in range(game.num_profiles)]


def deviations(game, m, p):
    return [p[:m] + (b,) + p[m + 1:] for b in range(game.strategy_counts[m])]


def equilibria_by_definition(game, eps):
    return [
        p for p in all_profiles(game)
        if all(
            game.utility(m, q) <= game.utility(m, p) + eps
            for m in range(game.num_players) for q in deviations(game, m, p)
        )
    ]


class TestEnumerationByDefinition:
    """Enumerations and the correlated system against per-profile definitions."""

    @pytest.fixture(params=[(shape, seed) for shape in TIE_HEAVY_SHAPES for seed in (70, 71, 72)],
                    ids=lambda param: f"{'x'.join(map(str, param[0]))}-{param[1]}")
    def game(self, request):
        return tie_heavy_game(*request.param)

    @staticmethod
    def assert_int_profiles(profiles):
        # numpy integers would break json.dumps in the CLI
        assert all(type(p) is tuple and all(type(c) is int for c in p) for p in profiles)

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_equilibria(self, game, eps):
        expected = equilibria_by_definition(game, eps)
        found = epsilon_equilibria(game, eps)
        assert found == expected
        self.assert_int_profiles(found)
        if eps == 0.0:
            assert pure_nash(game) == expected
            self.assert_int_profiles(pure_nash(game))

    def test_pareto(self, game):
        profiles = all_profiles(game)
        payoff = {p: [game.utility(m, p) for m in range(game.num_players)] for p in profiles}
        expected = [
            p for p in profiles
            if not any(
                all(x >= y for x, y in zip(payoff[q], payoff[p]))
                and any(x > y for x, y in zip(payoff[q], payoff[p]))
                for q in profiles
            )
        ]
        found = pareto_optimal(game)
        assert found == expected
        self.assert_int_profiles(found)

    def test_correlated_equalities_layout(self, game):
        # row (m, a, b) at profile p is u^m(b, p_-m) if p_m == a, else 0;
        # rows ordered by m, then a, then b, then the total-probability row
        h = decompose(game).harmonic_part
        if game_norm(h) <= 1e-9 * game_norm(game):
            # only rounding left (one player): the zero game, as in equilibrium_report
            h = h.with_utilities(np.zeros_like(h.utilities))
        profiles = all_profiles(h)
        expected = [
            [h.utility(m, deviations(h, m, p)[b]) if p[m] == a else 0.0 for p in profiles]
            for m, hm in enumerate(h.strategy_counts)
            for a in range(hm)
            for b in range(hm)
        ]
        expected.append([1.0] * len(profiles))
        system = harmonic_correlated_system(h)
        assert np.array_equal(system.equalities, np.array(expected))
        assert np.array_equal(system.rhs, np.eye(len(expected))[-1])

    @pytest.mark.parametrize("tol", [1e-9, 1.0])
    def test_indifference_checks(self, game, tol):
        bound = tol * max(abs(game.utility(m, p)) for m in range(game.num_players) for p in all_profiles(game))
        violations = []
        flux = 0.0
        for m, hm in enumerate(game.strategy_counts):
            sums = [sum(game.utility(m, p) for p in all_profiles(game) if p[m] == a) for a in range(hm)]
            spread = max(sums) - min(sums)
            flux = max(flux, spread)
            if spread > bound:
                violations.append(f"player {m}: per-strategy payoff sums differ by {spread:.3e}")
        equilibria = equilibria_by_definition(game, 0.0)
        ne_spread = 0.0
        for p in equilibria:
            for m in range(game.num_players):
                line = [game.utility(m, q) for q in deviations(game, m, p)]
                spread = max(line) - min(line)
                ne_spread = max(ne_spread, spread)
                if spread > bound:
                    violations.append(f"equilibrium {p}: player {m} not indifferent (spread {spread:.3e})")
        report = harmonic_indifference_checks(game, tol)
        assert report.flux_max_violation == flux and type(report.flux_max_violation) is float
        assert report.pure_equilibria == equilibria
        self.assert_int_profiles(report.pure_equilibria)
        assert report.ne_indifference_max == ne_spread and type(report.ne_indifference_max) is float
        assert report.tol == tol
        assert report.violations == violations


def signed_tie_game(shape, seed):
    # payoffs in {-1, -0.0, 0.0, 1}: ties in every line, signed zeros among them
    rng = np.random.default_rng(seed)
    return Game(rng.choice([-1.0, -0.0, 0.0, 1.0], size=(len(shape), math.prod(shape))), shape)


class TestReportMasks:
    """Both report lists come from one max per player; each must be the list alone."""

    GAMES = {
        **{f"ties-{'x'.join(map(str, s))}": lambda s=s: tie_heavy_game(s, 90) for s in TIE_HEAVY_SHAPES},
        **{f"signed-zeros-{'x'.join(map(str, s))}": lambda s=s: signed_tie_game(s, 91)
           for s in [(2, 2), (3, 4), (2, 3, 2), (2,) * 4]},
        # a gap of one payoff unit is at the float resolution of 1e-300
        "ties-2x3x4-x1e-300": lambda: Game(1e-300 * tie_heavy_game((2, 3, 4), 90).utilities, (2, 3, 4)),
        "zero-3x3": lambda: Game(np.zeros((2, 9)), (3, 3)),
        "negative-zero-2x2": lambda: Game(np.full((2, 4), -0.0), (2, 2)),
        "road-sharing": road_sharing,
    }

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name", list(GAMES))
    def test_lists_match_the_enumerations_and_the_definition(self, name, eps):
        g = self.GAMES[name]()
        eps *= 1e-300 if name.endswith("x1e-300") else 1.0
        report = equilibrium_report(g, eps=eps)
        nash = equilibria_by_definition(g, 0.0)
        near = equilibria_by_definition(g, eps)
        assert report["pure_nash"] == [list(p) for p in pure_nash(g)] == [list(p) for p in nash]
        assert report["epsilon_equilibria"] == [list(p) for p in epsilon_equilibria(g, eps)]
        assert report["epsilon_equilibria"] == [list(p) for p in near]
        if eps == 0.0:
            assert report["epsilon_equilibria"] == report["pure_nash"]


def _pareto_payoffs(kind, k, players, seed):
    """(M, n) payoffs holding exactly ``k`` distinct vectors, of one kind."""
    rng = np.random.default_rng([seed, k, players])
    u = rng.uniform(-1.0, 1.0, size=(players, k))
    u[-1] = rng.permutation(k) / k  # distinct last entries: the k vectors are distinct
    if kind == "ties-in-one-player":
        u[1] = rng.integers(0, 4, size=k)
    elif kind == "signed-zeros":
        zero = rng.random((players - 1, k)) < 0.4
        u[:-1][zero] = rng.choice([-0.0, 0.0], size=zero.sum())
    elif kind == "duplicated-vectors":
        u = u[:, rng.permutation(np.append(np.arange(k), rng.integers(0, k, size=k // 3)))]
    elif kind == "trade-off":
        # on a plane of constant sum, so most vectors are undominated
        u[0] = -u[1:].sum(axis=0)
    return u


class TestParetoWindows:
    """The sorted Pareto mask against the dense comparison around one window.

    At most ``_PARETO_WINDOW`` (512) distinct vectors fit in one window; 513
    take two.
    """

    @pytest.mark.parametrize("players", [3, 4])
    @pytest.mark.parametrize("k", [63, 64, 512, 513])
    @pytest.mark.parametrize(
        "kind", ["all-distinct", "ties-in-one-player", "signed-zeros", "duplicated-vectors", "trade-off"]
    )
    def test_sorted_mask_matches_dense(self, kind, k, players):
        assert equilibria_module._PARETO_WINDOW == 512
        u = _pareto_payoffs(kind, k, players, 17)
        n = u.shape[1]
        g = Game(u, (n,) + (1,) * (players - 1))
        want = ~equilibria_module._dominated_dense(u)
        assert np.array_equal(~equilibria_module._dominated_sorted(u), want)
        if n >= equilibria_module._PARETO_DENSE:
            assert np.array_equal(equilibria_module._pareto_mask(g).ravel(), want)


def _dense_payoffs(kind, players, n, seed):
    """(M, n) payoffs with n below the dense cut, of one kind."""
    rng = np.random.default_rng([seed, players, n])
    if kind == "distinct":
        return rng.uniform(-1.0, 1.0, size=(players, n))
    if kind == "ties":
        return rng.integers(-2, 3, size=(players, n)).astype(float)
    if kind == "signed-zeros":
        return rng.choice([-0.0, 0.0, 1.0], size=(players, n))
    # equal payoff vectors: every column repeats one of a few
    return rng.integers(-1, 2, size=(players, 3)).astype(float)[:, rng.integers(0, 3, size=n)]


class TestParetoDenseBroadcast:
    """The (M, n, n) broadcast below ``_PARETO_DENSE`` against the sorted scan and pair tests."""

    @pytest.mark.parametrize("players", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 99])
    @pytest.mark.parametrize("kind", ["distinct", "ties", "signed-zeros", "equal-vectors"])
    def test_matches_sorted_and_pairs(self, kind, n, players):
        assert n < equilibria_module._PARETO_DENSE
        u = _dense_payoffs(kind, players, n, 81)
        want = dominated_by_pairs(u)
        np.testing.assert_array_equal(equilibria_module._dominated_dense(u), want)
        np.testing.assert_array_equal(equilibria_module._dominated_sorted(u), want)

    @pytest.mark.parametrize("kind", ["distinct", "ties", "signed-zeros", "equal-vectors"])
    def test_62_one_strategy_players_the_largest_broadcast(self, kind):
        u = _dense_payoffs(kind, 62, 99, 82)
        want = dominated_by_pairs(u)
        np.testing.assert_array_equal(equilibria_module._dominated_dense(u), want)
        np.testing.assert_array_equal(equilibria_module._dominated_sorted(u), want)
        g = Game(u, (99,) + (1,) * 61)
        assert pareto_optimal(g) == pareto_by_pairs(g)

    def test_signed_zeros_are_equal(self):
        # -0.0 and 0.0 compare equal: neither vector dominates the other, and
        # (0, 1) dominates both
        u = np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, 1.0]])
        np.testing.assert_array_equal(equilibria_module._dominated_dense(u), [True, True, False])
        np.testing.assert_array_equal(equilibria_module._dominated_dense(u[:, :2]), [False, False])

    def test_equal_vectors_do_not_dominate_each_other(self):
        u = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
        np.testing.assert_array_equal(equilibria_module._dominated_dense(u), [False, False, False])
        u[2, 2] = 0.25  # the third is now below on player 2 and still above on player 1
        np.testing.assert_array_equal(equilibria_module._dominated_dense(u), [False, False, False])
        u[1, 2] = 2.0  # now the first two dominate the third
        np.testing.assert_array_equal(equilibria_module._dominated_dense(u), [False, False, True])


def stacked_by_loops(counts, u):
    """The stacked correlated equalities written one entry at a time."""
    n = math.prod(counts)
    rows = []
    for m, h in enumerate(counts):
        for a in range(h):
            for b in range(h):
                row = np.zeros(n)
                for i in range(n):
                    p = profile_of_index(i, counts)
                    if p[m] == a:
                        row[i] = u[m, profile_index(p[:m] + (b,) + p[m + 1:], counts)]
                rows.append(row)
    rows.append(np.ones(n))
    return np.array(rows)


class TestCorrelatedArrays:
    """The correlated dimension and system read from payoff arrays, no ``Game`` built."""

    @pytest.mark.parametrize("counts", [(2, 3, 4), (3, 3, 3)])
    def test_equalities_entry_by_entry(self, counts):
        g = random_game(np.random.default_rng(23), counts)
        equalities = equilibria_module.AffineSolutionSet(g, 1e-9, 0).equalities
        assert np.array_equal(equalities, stacked_by_loops(counts, g.utilities))

    @pytest.mark.parametrize("counts", [(2, 2), (4, 4), (7, 7), (2, 5), (6, 3), (2, 2, 2), (2, 3, 4),
                                        (3, 2, 2, 2, 2)])
    def test_dimension_matches_the_validated_system(self, counts):
        strategic = _seeded_harmonic(counts)
        strategic = strategic.with_utilities(strategic.utilities - decompose(strategic).nonstrategic_part.utilities)
        want = harmonic_correlated_system(strategic).dimension
        got = equilibria_module._correlated_dimension(counts, strategic.utilities, 1e-9)
        assert got == want and type(got) is int
