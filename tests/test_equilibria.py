import numpy as np
import pytest

from gamehodge import (
    Game,
    PreconditionError,
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
    is_mixed_nash,
    mixed_utility,
    normalize,
    pairwise_comparison,
    pareto_align_transform,
    pareto_optimal,
    potential_function,
    pure_nash,
    uniformly_mixed,
)
from gamehodge.catalog import (
    battle_of_sexes,
    cyclic_three_player,
    generalized_rps,
    matching_pennies,
)
from gamehodge.equilibria import deviation_payoffs
from gamehodge.subspaces import harmonic_basis_2p, nonstrategic_basis
from helpers import nonstrategic_payoffs, random_game


def random_harmonic_2p(rng, h1, h2, scale=1.0):
    basis = harmonic_basis_2p(h1, h2)
    coeffs = rng.uniform(-scale, scale, size=len(basis))
    u = sum(c * g.utilities for c, g in zip(coeffs, basis.games))
    return Game(u, (h1, h2))


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

    def test_direction_generators_satisfy_equalities(self):
        rng = np.random.default_rng(54)
        g = random_harmonic_2p(rng, 3, 3)
        system = harmonic_correlated_system(g)
        assert system.residual(system.particular) <= 1e-9
        hom = system.equalities @ system.directions.T
        # directions are homogeneous: zero out every equality row except the
        # total-probability one, which they must also annihilate
        assert np.abs(hom).max(initial=0.0) <= 1e-9

    def test_rejects_non_harmonic(self):
        with pytest.raises(PreconditionError):
            harmonic_correlated_system(battle_of_sexes())

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
        from gamehodge import profile_of_index
        from gamehodge.equilibria import _PARETO_ROWS

        rng = np.random.default_rng(60)
        for counts in [(17, 31), (5, 7, 9), (3, 3, 3, 3, 3, 3)]:
            n = int(np.prod(counts))
            assert n > _PARETO_ROWS and n % _PARETO_ROWS != 0
            # payoffs rounded to one decimal, so ties and repeated profiles abound
            g = Game(np.round(rng.uniform(-1.0, 1.0, size=(len(counts), n)), 1), counts)
            payoffs = g.utilities.T
            expected = [
                profile_of_index(i, counts)
                for i in range(n)
                if not np.any(
                    np.all(payoffs >= payoffs[i], axis=1) & np.any(payoffs > payoffs[i], axis=1)
                )
            ]
            assert pareto_optimal(g) == expected


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
