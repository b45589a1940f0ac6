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
    profile_of_index,
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

    def test_rejects_non_harmonic(self):
        with pytest.raises(PreconditionError):
            harmonic_correlated_system(battle_of_sexes())

    def test_rejects_normalized_non_harmonic(self):
        # normalized, so it is the harmonic check that rejects it
        with pytest.raises(PreconditionError, match="must be harmonic"):
            harmonic_correlated_system(normalize(battle_of_sexes()))

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
