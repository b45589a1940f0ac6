import copy
import functools
import gc
import importlib
import math
import pickle
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest

import gamehodge.flows as flows
from gamehodge import (
    Decomposition,
    Game,
    GameFormatError,
    NumericError,
    PreconditionError,
    ShapeError,
    build_graph,
    closest_harmonic,
    closest_potential,
    decompose,
    decompose_bimatrix_normalized,
    decomposition_to_dict,
    divergence_adjoint,
    epsilon_transfer_bound,
    equilibrium_report,
    game_distance,
    game_inner,
    game_norm,
    gradient,
    is_harmonic,
    is_normalized,
    is_potential,
    laplacian_apply,
    laplacian_player_apply,
    normalize,
    pairwise_comparison,
    potential_function,
    save_game,
)
from gamehodge.catalog import (
    battle_of_sexes,
    cyclic_three_player,
    generalized_rps,
    matching_pennies,
    modified_battle_of_sexes,
    road_sharing,
)
from gamehodge.cli import _ROUNDING, main
from exact import exact_parts, norm_squared, relative_error
from helpers import (
    ROAD_HARMONIC_FLOWS,
    ROAD_POTENTIAL_FLOWS,
    assert_flow_equals,
    assert_games_close,
    nonstrategic_payoffs,
    overflowing_game,
    random_game,
    reconstruction_error,
    refuse_calls,
    relabelled,
    rps_harmonic,
    rps_nonstrategic,
    rps_potential,
    slowest_mode_potential,
)

# the package attribute ``gamehodge.decompose`` is the function
decompose_module = importlib.import_module("gamehodge.decompose")
equilibria_module = importlib.import_module("gamehodge.equilibria")
game_module = importlib.import_module("gamehodge.game")

RPS_PARAMS = [(1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (2.0, 1.0, 3.0)]


class TestGeneralizedRps:
    @pytest.mark.parametrize("xyz", RPS_PARAMS)
    def test_components_match_closed_forms(self, xyz):
        d = decompose(generalized_rps(*xyz))
        na, nb = rps_nonstrategic(*xyz)
        pa, pb = rps_potential(*xyz)
        ha, hb = rps_harmonic(*xyz)
        assert_games_close(d.nonstrategic_part, Game.from_payoff_matrices(na, nb), 1e-9)
        assert_games_close(d.potential_part, Game.from_payoff_matrices(pa, pb), 1e-9)
        assert_games_close(d.harmonic_part, Game.from_payoff_matrices(ha, hb), 1e-9)

    def test_classic_rps_is_purely_harmonic(self):
        g = generalized_rps(1 / 3, 1 / 3, 1 / 3)
        d = decompose(g)
        assert game_norm(d.potential_part) <= 1e-12
        assert game_norm(d.nonstrategic_part) <= 1e-12
        assert_games_close(d.harmonic_part, g, 1e-12)

    def test_residuals_are_tiny(self):
        g = generalized_rps(2.0, 1.0, 3.0)
        d = decompose(g)
        assert reconstruction_error(g, d) <= 1e-12
        assert d.residuals["harmonic_divergence"] <= 1e-9
        assert d.residuals["solver"] <= 1e-9


class TestRoadSharing:
    def test_potential_flows_match_diagram(self):
        d = decompose(road_sharing())
        graph = build_graph((2, 2, 2))
        assert_flow_equals(gradient(graph, d.potential_fn), ROAD_POTENTIAL_FLOWS, 1e-9)
        assert_flow_equals(
            pairwise_comparison(d.potential_part, graph), ROAD_POTENTIAL_FLOWS, 1e-9
        )

    def test_harmonic_flows_circulate_on_six_cycle(self):
        d = decompose(road_sharing())
        flow = pairwise_comparison(d.harmonic_part)
        assert_flow_equals(flow, ROAD_HARMONIC_FLOWS, 1e-9)
        assert np.abs(divergence_adjoint(flow)).max() <= 1e-9

    def test_potential_function_values(self):
        # integrate the diagram flows: phi = (-1, 0, 0, 1, 1, 0, 0, -1)
        d = decompose(road_sharing())
        expected = np.array([-1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, -1.0])
        assert np.abs(d.potential_fn - expected).max() <= 1e-9


BIMATRIX_SCALES = [1e-12, 1.0, 1e12]


class TestBimatrixClosedForm:
    def test_matching_pennies_entirely_harmonic(self):
        mp = matching_pennies()
        ap, bp, ah, bh = decompose_bimatrix_normalized(mp.tensor(0), mp.tensor(1))
        assert np.abs(ap).max() == 0.0 and np.abs(bp).max() == 0.0
        assert np.allclose(ah, mp.tensor(0), atol=0.0)
        assert np.allclose(bh, mp.tensor(1), atol=0.0)

    def test_classic_rps_entirely_harmonic(self):
        g = generalized_rps(1 / 3, 1 / 3, 1 / 3)
        ap, bp, ah, bh = decompose_bimatrix_normalized(g.tensor(0), g.tensor(1))
        assert np.abs(ap).max() <= 1e-12
        assert np.allclose(ah, g.tensor(0), atol=1e-12)

    def test_identical_normalized_matrices_are_potential(self):
        a = np.array([[1.0, -2.0, 1.0], [0.0, 1.0, -1.0], [-1.0, 1.0, 0.0]])
        a = a - a.mean(axis=0, keepdims=True)
        a = a - a.mean(axis=1, keepdims=True)  # now 1^T A = 0 and A 1 = 0
        ap, bp, ah, bh = decompose_bimatrix_normalized(a, a)
        assert np.allclose(ap, a, atol=1e-12) and np.allclose(bp, a, atol=1e-12)
        assert np.abs(ah).max() <= 1e-12 and np.abs(bh).max() <= 1e-12

    def test_agrees_with_operator_decomposition(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            base = random_game(rng, (4, 4), scale=3.0)
            for c in BIMATRIX_SCALES:
                g = normalize(base.with_utilities(c * base.utilities))
                ap, bp, ah, bh = decompose_bimatrix_normalized(g.tensor(0), g.tensor(1))
                d = decompose(g)
                pot, harm = Game.from_payoff_matrices(ap, bp), Game.from_payoff_matrices(ah, bh)
                assert_games_close(d.potential_part, pot, 1e-9 * c)
                assert_games_close(d.harmonic_part, harm, 1e-9 * c)

    def test_rejects_unnormalized(self):
        one = np.array([[1.0, 0.0], [0.0, 0.0]])
        bos = battle_of_sexes()
        for c in BIMATRIX_SCALES:
            for a, b in [(one, one), (bos.tensor(0), bos.tensor(1))]:
                with pytest.raises(PreconditionError):
                    decompose_bimatrix_normalized(c * a, c * b)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            decompose_bimatrix_normalized(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        nan = np.full((2, 2), np.nan)
        with pytest.raises(GameFormatError, match="finite"):
            decompose_bimatrix_normalized(nan, np.zeros((2, 2)))


def _scaled(name, scale):
    game = overflowing_game(1.0) if name == "random-3x3" else matching_pennies()
    return game.with_utilities(game.utilities * scale)


def _outcomes(game):
    d = decompose(game)
    parts = [p.utilities for p in (d.potential_part, d.harmonic_part, d.nonstrategic_part)]
    return parts, is_potential(game), is_harmonic(game), equilibrium_report(game)


class TestOverflowingNorms:
    # from about 1e154 the squares inside the norms overflow, and the norm
    # routine sums them again over the payoffs scaled by a power of two: the
    # solve's target and the game norm stay finite, and every answer is the
    # one at scale 1
    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    @pytest.mark.parametrize("name", ["random-3x3", "matching-pennies"])
    def test_answers_as_at_scale_1(self, name, scale):
        parts, *flags = _outcomes(_scaled(name, scale))
        want_parts, *want_flags = _outcomes(_scaled(name, 1.0))
        assert flags == want_flags
        for got, want in zip(parts, want_parts):
            assert np.abs(got / scale - want).max() <= 1e-12

    # one-strategy players: every payoff is nonstrategic, so the kernel's sums
    # stay finite and only the game norm overflows; the CLI exits 3
    @pytest.mark.parametrize("counts", [(1, 1), (1, 1, 1)])
    def test_overflowing_game_norm_is_a_numeric_error(self, tmp_path, capsys, counts):
        g = Game(np.full((len(counts), 1), 1.7e308), counts)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="the game norm overflowed"):
                decompose(g)
        path = tmp_path / "g.json"
        save_game(g, path)
        assert main(["decompose", str(path)]) == 3
        assert "the game norm overflowed" in capsys.readouterr().err

    # with warnings raised as errors (pyproject.toml) and no np.errstate here,
    # the first overflow of the kernel or of the norms must surface as the
    # typed error, not as numpy's RuntimeWarning
    @pytest.mark.parametrize("counts, message", [
        ((1, 2), "Laplacian solve missed its tolerance: the norm of its right-hand side overflowed in row 0"),
        ((1, 1), "the game norm overflowed: the payoffs are too large to decompose"),
    ], ids=["solve", "norm"])
    def test_overflow_is_a_numeric_error_not_a_warning(self, counts, message):
        g = Game(np.full((2, math.prod(counts)), 1.7e308), counts)
        with pytest.raises(NumericError) as exc:
            decompose(g)
        assert str(exc.value) == message

    # a norm past the float maximum is inf, and the rescue that finds it
    # warns of nothing (warnings are errors here, pyproject.toml)
    def test_norm_past_the_float_maximum_is_inf(self):
        g = Game(np.full((2, 4), 1e308), (2, 2))
        assert game_norm(g) == math.inf
        assert game_distance(g, g.with_utilities(np.zeros((2, 4)))) == math.inf
        # the difference itself overflows, and still warns of nothing
        assert game_distance(g, g.with_utilities(-g.utilities)) == math.inf

    # the control: where the squares do not overflow every answer is the one
    # at scale 1 too
    @pytest.mark.parametrize("name", ["random-3x3", "matching-pennies"])
    def test_largest_finite_norms_answer_as_at_scale_1(self, name):
        parts, *flags = _outcomes(_scaled(name, 1e150))
        want_parts, *want_flags = _outcomes(_scaled(name, 1.0))
        assert flags == want_flags
        for got, want in zip(parts, want_parts):
            assert np.abs(got / 1e150 - want).max() <= 1e-12


class TestMembership:
    def test_overflowing_kernel_raises_numeric_error(self):
        # the solve's residual is NaN, which must miss its target, not pass it
        g = overflowing_game()
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="Laplacian solve missed"):
                decompose(g)
            with pytest.raises(NumericError, match="Laplacian solve missed"):
                is_potential(g)

    def test_battle_of_sexes_is_potential(self):
        bos = battle_of_sexes()
        assert is_potential(bos)
        # brute-force oracle: the recovered potential explains every deviation
        phi = potential_function(bos)
        t = phi.reshape(2, 2)
        a, b = bos.tensor(0), bos.tensor(1)
        for j in range(2):  # row deviations
            assert abs((t[0, j] - t[1, j]) - (a[0, j] - a[1, j])) <= 1e-9
        for i in range(2):  # column deviations
            assert abs((t[i, 0] - t[i, 1]) - (b[i, 0] - b[i, 1])) <= 1e-9

    def test_matching_pennies_is_harmonic(self):
        assert is_harmonic(matching_pennies())
        assert not is_potential(matching_pennies())

    def test_zero_sum_potential_game(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        g = Game.from_payoff_matrices(a, -a)
        assert is_potential(g)
        phi = potential_function(g)
        assert np.allclose(phi, [1.0, 0.0, 0.0, -1.0], atol=1e-9)

    def test_zero_game_is_both(self):
        g = Game(np.zeros((2, 4)), (2, 2))
        assert is_potential(g) and is_harmonic(g)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    @pytest.mark.parametrize("check", [is_potential, is_harmonic, potential_function])
    def test_tol_must_be_a_number_at_least_zero(self, check, tol):
        with pytest.raises(ValueError, match="tol"):
            check(battle_of_sexes(), tol)


def _scale_games():
    rng = np.random.default_rng(47)
    phi = rng.uniform(-1.0, 1.0, size=(3, 4))
    return {
        # name: (game, (is_potential, is_harmonic, has a potential function))
        "matching-pennies": (matching_pennies(), (False, True, False)),
        "battle-of-sexes": (battle_of_sexes(), (True, False, True)),
        "rps": (generalized_rps(2.0, 1.0, 3.0), (False, False, False)),
        "road-sharing": (road_sharing(), (False, False, False)),
        "identical-interest": (Game.from_payoff_matrices(phi, phi), (True, False, True)),
        "harmonic": (decompose(random_game(rng, (3, 3, 2))).harmonic_part, (False, True, False)),
        "random": (random_game(rng, (3, 4)), (False, False, False)),
        "nonstrategic": (Game(nonstrategic_payoffs(rng, (3, 5)), (3, 5)), (True, True, True)),
    }


SCALE_GAMES = _scale_games()
SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e12]


class TestScaleFree:
    @pytest.mark.parametrize("name", list(SCALE_GAMES))
    def test_parts_scale_linearly(self, name):
        g, _ = SCALE_GAMES[name]
        base = decompose(g)
        size = np.abs(g.utilities).max()
        for c in SCALES:
            d = decompose(g.with_utilities(c * g.utilities))
            assert np.abs(d.potential_fn - c * base.potential_fn).max() <= 1e-12 * c * size
            for part in ("potential_part", "harmonic_part", "nonstrategic_part"):
                got = getattr(d, part).utilities
                want = c * getattr(base, part).utilities
                assert np.abs(got - want).max() <= 1e-12 * c * size, (part, c)

    @pytest.mark.parametrize("name", list(SCALE_GAMES))
    def test_predicates_ignore_scale_and_nonstrategic_parts(self, name):
        g, want = SCALE_GAMES[name]
        rng = np.random.default_rng(48)
        for c in SCALES:
            for extra in (0.0, 1.0):
                u = c * (g.utilities + extra * nonstrategic_payoffs(rng, g.strategy_counts))
                h = g.with_utilities(u)
                got = (is_potential(h), is_harmonic(h), potential_function(h) is not None)
                assert got == want, (c, extra)


# the shapes of test_harmonic_divergence_reads_the_divergence, and powers of
# two from near the bottom of the normal range to near the top
WIDE_SHAPES = [(3, 3), (20, 20), (2, 3, 4), (200, 200), (8, 8, 8), (2,) * 12]
WIDE_EXPONENTS = [-1000, -600, -540, 0, 511, 600, 1000]


def _shape_id(counts):
    return "x".join(map(str, counts))


def _answers(game):
    """Parts and phi, the game norm, the three membership answers and the report.

    The report is left out above 2^12 profiles, and its ``uniform_mixed_is_ne``
    always: that test still reads an absolute tolerance.
    """
    d = decompose(game)
    parts = [p.utilities for p in (d.potential_part, d.harmonic_part, d.nonstrategic_part)]
    flags = (is_potential(game), is_harmonic(game), potential_function(game) is None)
    report = None
    if game.num_profiles <= 2**12:
        report = equilibrium_report(game)
        del report["uniform_mixed_is_ne"]
    return parts + [d.potential_fn], game_norm(game), flags, report


@functools.lru_cache(maxsize=None)
def _wide_game(counts, kind):
    """A seeded random game of shape ``counts``, or its potential or harmonic part, and
    its answers."""
    game = random_game(np.random.default_rng(0), counts)
    if kind != "random":
        game = getattr(decompose(game), kind + "_part")
    return game, _answers(game)


class TestWholeExponentRange:
    # scaling by 2^k is exact and the decomposition is linear, so from 2^-1000
    # to 2^1000 every answer at 2^k u is its value at u, times 2^k for the
    # parts, phi and the norm, bit for bit: no norm under- or overflows
    @pytest.mark.parametrize("k", WIDE_EXPONENTS)
    @pytest.mark.parametrize("kind", ["random", "potential", "harmonic"])
    @pytest.mark.parametrize("counts", WIDE_SHAPES, ids=_shape_id)
    def test_answers_scale_with_the_payoffs(self, counts, kind, k):
        base, (parts, norm, flags, report) = _wide_game(counts, kind)
        game = Game(np.ldexp(base.utilities, k), counts)
        if kind == "harmonic" and k == -1000:
            # the harmonic part's right-hand side is rounding, here below
            # 2^-1022: the solve may refuse it, but never answer otherwise
            try:
                got = _answers(game)
            except NumericError:
                return
        else:
            got = _answers(game)
        for a, b in zip(got[0], parts):
            assert np.array_equal(a, np.ldexp(b, k))
        assert got[1] == np.ldexp(norm, k)
        assert got[2:] == (flags, report)

    # a solve scaled wrong by 1.5 misses its tolerance at every scale: the
    # residual's norm and the target's never both vanish
    @pytest.mark.parametrize("k", WIDE_EXPONENTS)
    @pytest.mark.parametrize("kind", ["random", "potential", "harmonic"])
    @pytest.mark.parametrize("counts", WIDE_SHAPES, ids=_shape_id)
    def test_corrupted_solve_raises(self, counts, kind, k, monkeypatch):
        base, _ = _wide_game(counts, kind)
        solve = flows._pinv_transform
        monkeypatch.setattr(flows, "_pinv_transform", lambda c, b: 1.5 * solve(c, b))
        with pytest.raises(NumericError, match="Laplacian solve missed"):
            decompose(Game(np.ldexp(base.utilities, k), counts))


BATCH_SHAPES = [(1,), (1, 1), (1, 4), (2, 3), (2, 3, 4), (2,) * 6, (5, 5)]


class TestBatchKernel:
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("counts", BATCH_SHAPES, ids=str)
    def test_rows_match_decompose(self, counts, k):
        rng = np.random.default_rng(49)
        u = rng.uniform(-1.0, 1.0, size=(k, len(counts), int(np.prod(counts))))
        u[4:] = 0.0  # with k = 5, the last row is all zero
        phi, pot, harm, non, _ = decompose_module._decompose_batch(counts, u)
        for row in range(k):
            d = decompose(Game(u[row], counts))
            size = np.abs(u[row]).max()
            pairs = [
                (phi[row], d.potential_fn),
                (pot[row], d.potential_part.utilities),
                (harm[row], d.harmonic_part.utilities),
                (non[row], d.nonstrategic_part.utilities),
            ]
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * size


class TestPotentialFunction:
    def test_matching_pennies_has_none(self):
        assert potential_function(matching_pennies()) is None

    def test_identical_interest_game(self):
        rng = np.random.default_rng(31)
        u = rng.uniform(-1.0, 1.0, size=(3, 2))
        g = Game.from_payoff_matrices(u, u)
        phi = potential_function(g)
        assert np.allclose(phi, (u - u.mean()).ravel(), atol=1e-9)

    def test_mean_zero(self):
        phi = potential_function(battle_of_sexes())
        assert abs(phi.sum()) <= 1e-9


class TestClosestGames:
    def test_potential_game_is_its_own_projection(self):
        bos = battle_of_sexes()
        assert_games_close(closest_potential(bos), bos, 1e-9)

    def test_classic_rps_projects_to_zero(self):
        g = generalized_rps(1 / 3, 1 / 3, 1 / 3)
        assert game_norm(closest_potential(g)) <= 1e-9

    def test_generalized_rps_projection(self):
        g = generalized_rps(2.0, 1.0, 3.0)
        ha, hb = rps_harmonic(2.0, 1.0, 3.0)
        expected = Game.from_payoff_matrices(g.tensor(0) - ha, g.tensor(1) - hb)
        assert_games_close(closest_potential(g), expected, 1e-9)

    def test_projections_land_in_their_classes(self):
        rng = np.random.default_rng(32)
        for counts in [(2, 2), (3, 2), (2, 2, 2)]:
            g = random_game(rng, counts, scale=4.0)
            assert is_potential(closest_potential(g), tol=1e-8)
            assert is_harmonic(closest_harmonic(g), tol=1e-8)

    def test_matching_pennies_projects_onto_itself_harmonically(self):
        mp = matching_pennies()
        assert_games_close(closest_harmonic(mp), mp, 1e-12)


def _kernel_games():
    rng = np.random.default_rng(52)
    return {
        "matching-pennies": matching_pennies(),
        "battle-of-sexes": battle_of_sexes(),
        "modified-battle-of-sexes": modified_battle_of_sexes(),
        "rps": generalized_rps(2.0, 1.0, 3.0),
        "road-sharing": road_sharing(),
        "cyclic-three-player": cyclic_three_player(),
        **{str(c): random_game(rng, c) for c in [(3, 3), (2, 3, 4), (4, 1, 5)]},
    }


KERNEL_GAMES = _kernel_games()


def _full_spread_rule(game, tol):
    """``potential_function``'s decision by the full-spread rule, and each player's spread.

    Every player's spread of ``u^m - phi`` along its own axis is formed, and
    their maximum is held to ``tol`` times the norm of the normalised game;
    a game whose strategic part is negligible has a potential.
    """
    d = decompose(game)
    phi = d.potential_fn.reshape(game.strategy_counts)
    spreads = [float(np.ptp(game.tensor(m) - phi, axis=m).max()) for m in range(game.num_players)]
    strategic = math.hypot(game_norm(d.potential_part), game_norm(d.harmonic_part))
    has = max(spreads) <= tol * strategic or strategic <= tol * game_norm(game)
    return has, spreads, strategic


def _potential_plus_nonstrategic(rng, counts, scale=1.0):
    """A random potential shared by every player plus a random nonstrategic part."""
    phi = rng.uniform(-1.0, 1.0, math.prod(counts))
    return Game(scale * (phi + nonstrategic_payoffs(rng, counts)), counts)


def _last_player_games():
    """Potential games plus a small strategic change of the last player's payoffs alone,
    on shapes where the last player's spread is then the largest."""
    rng = np.random.default_rng(73)
    games = {}
    for counts in [(5, 2), (3, 2, 2), (4, 1, 3), (4, 4, 2), (2, 2, 2, 2), (2,) * 5]:
        u = _potential_plus_nonstrategic(rng, counts).utilities.copy()
        u[-1] += 1e-6 * rng.uniform(-1.0, 1.0, u.shape[1])
        games[str(counts)] = Game(u, counts)
    return games


LAST_PLAYER_GAMES = _last_player_games()


def _nearly_nonstrategic():
    """A nonstrategic game plus a strategic part of 1e-14: negligible at tol 1e-9 and 1e-7."""
    rng = np.random.default_rng(76)
    return Game(nonstrategic_payoffs(rng, (3, 2, 2)) + 1e-14 * rng.uniform(-1.0, 1.0, (3, 12)), (3, 2, 2))


EARLY_EXIT_GAMES = {**KERNEL_GAMES, **LAST_PLAYER_GAMES, "nearly-nonstrategic": _nearly_nonstrategic()}


class _CountingPhi(np.ndarray):
    """A potential that records each row subtracted from it: ``u^m - phi`` is formed once per player."""

    formed: list

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.subtract and inputs[1] is self:
            self.formed.append(np.array(inputs[0]))
        inputs = tuple(np.asarray(x) if x is self else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def _counting_rows(monkeypatch):
    """The rows ``u^m - phi`` that ``potential_function`` forms, in the order it forms them."""
    formed = []
    parts = decompose_module._parts

    def counting(game):
        phi, *rest = parts(game)
        phi = phi.view(_CountingPhi)
        phi.formed = formed
        return (phi, *rest)

    monkeypatch.setattr(decompose_module, "_parts", counting)
    return formed


class TestPotentialEarlyExit:
    """``potential_function`` checks the players in turn and stops at the first failing one,
    deciding exactly as the rule that forms every player's spread."""

    @pytest.mark.parametrize("name", list(LAST_PLAYER_GAMES))
    def test_fails_only_at_the_last_player(self, name, monkeypatch):
        g = LAST_PLAYER_GAMES[name]
        _, spreads, strategic = _full_spread_rule(g, 0.0)
        assert spreads[-1] > max(spreads[:-1])
        formed = _counting_rows(monkeypatch)
        # between the other players' spreads and the last one's: only the last fails
        tol = (max(spreads[:-1]) + spreads[-1]) / 2 / strategic
        assert _full_spread_rule(g, tol)[0] is False
        assert potential_function(_fresh(g), tol) is None
        assert len(formed) == g.num_players
        # at each player's spread and either side of it
        for spread in spreads:
            for t in (spread / strategic, np.nextafter(spread / strategic, 0), np.nextafter(spread / strategic, 1)):
                want = _full_spread_rule(g, t)[0]
                got = potential_function(g, t)
                assert (got is not None) == want, (t, spreads)
                assert got is None or np.array_equal(got, decompose(g).potential_fn)

    @pytest.mark.parametrize("exponent", [-600, 0, 600])
    @pytest.mark.parametrize("counts", [(2, 2), (3, 4), (2, 3, 2), (1, 3, 2), (2, 2, 2, 2)])
    def test_potential_plus_nonstrategic_at_every_scale(self, counts, exponent):
        rng = np.random.default_rng(74)
        g = _potential_plus_nonstrategic(rng, counts, 2.0**exponent)
        for tol in (0.0, 1e-12, 1e-9):
            want = _full_spread_rule(g, tol)[0]
            got = potential_function(g, tol)
            assert (got is not None) == want
            assert got is None or np.array_equal(got, decompose(g).potential_fn)
        assert potential_function(g) is not None

    @pytest.mark.parametrize("counts", [(5, 2), (3, 2, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("kind", ["potential", "random", "last-player"])
    def test_relabelled_strategies(self, counts, kind):
        rng = np.random.default_rng(75)
        if kind == "potential":
            g = _potential_plus_nonstrategic(rng, counts)
        elif kind == "random":
            g = random_game(rng, counts)
        else:
            g = LAST_PLAYER_GAMES[str(counts)]
        for _ in range(3):
            h = relabelled(g, rng)
            for tol in (1e-9, 1e-3):
                want = _full_spread_rule(h, tol)[0]
                assert (potential_function(h, tol) is not None) == want
                assert want == _full_spread_rule(g, tol)[0]

    @pytest.mark.parametrize("name", list(EARLY_EXIT_GAMES))
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-7])
    def test_no_row_after_the_first_failing_player(self, name, tol, monkeypatch):
        g = EARLY_EXIT_GAMES[name]
        has, spreads, strategic = _full_spread_rule(g, tol)
        # a game with a negligible strategic part passes every player
        negligible = strategic <= tol * game_norm(g)
        failing = [m for m, s in enumerate(spreads) if not (s <= tol * strategic or negligible)]
        formed = _counting_rows(monkeypatch)
        got = potential_function(g, tol)
        assert (got is not None) == has
        assert [row.tolist() for row in formed] == g.utilities[: len(formed)].tolist()
        assert len(formed) == (failing[0] + 1 if failing else g.num_players)


class TestPredicatesReadTheKernel:
    @pytest.mark.parametrize("name", list(KERNEL_GAMES))
    def test_no_decomposition_and_same_values(self, name, monkeypatch):
        g, tol = KERNEL_GAMES[name], 1e-9
        # the values read off one decomposition, as the definitions state them
        d = decompose(g)
        potential = g.with_utilities(g.utilities - d.harmonic_part.utilities)
        harmonic = g.with_utilities(g.utilities - d.potential_part.utilities)
        strategic = math.hypot(game_norm(d.potential_part), game_norm(d.harmonic_part))
        trivial = strategic <= tol * game_norm(g)
        phi_t = d.potential_fn.reshape(g.strategy_counts)
        mismatch = max(
            np.ptp(g.tensor(m) - phi_t, axis=m).max() for m in range(g.num_players)
        )
        want_pot = game_norm(d.harmonic_part) <= tol * strategic or trivial
        want_harm = game_norm(d.potential_part) <= tol * strategic or trivial
        want_phi = d.potential_fn if mismatch <= tol * strategic or trivial else None
        alpha = game_norm(d.harmonic_part)  # the norm of the part closest_potential drops
        want_eps = max(2.0 * alpha / math.sqrt(h) for h in g.strategy_counts)

        def refuse(*args, **kwargs):
            raise AssertionError("decompose called")

        monkeypatch.setattr(decompose_module, "decompose", refuse)
        assert is_potential(g, tol) == want_pot
        assert is_harmonic(g, tol) == want_harm
        phi = potential_function(g, tol)
        assert (phi is None) == (want_phi is None)
        assert phi is None or np.array_equal(phi, want_phi)
        assert np.array_equal(closest_potential(g).utilities, potential.utilities)
        assert np.array_equal(closest_harmonic(g).utilities, harmonic.utilities)
        pot, eps = epsilon_transfer_bound(g)
        assert np.array_equal(pot.utilities, potential.utilities) and eps == want_eps
        report = equilibrium_report(g, tol=tol)
        assert (report["correlated_dim"] is not None) == want_harm
        monkeypatch.setattr(equilibria_module, "is_harmonic", lambda game, tol: want_harm)
        assert report == equilibrium_report(g, tol=tol)


class TestTransferEpsilonReadsTheKeptNorm:
    """``epsilon_transfer_bound`` reads ``a = ||u_H||`` off the game's memo."""

    @pytest.mark.parametrize("name", list(KERNEL_GAMES))
    def test_a_warm_call_computes_no_norm(self, name, monkeypatch):
        g = _fresh(KERNEL_GAMES[name])
        harmonic = decompose(g).harmonic_part
        want_pot = g.utilities - harmonic.utilities
        want_eps = max(2.0 * game_norm(harmonic) / math.sqrt(h) for h in g.strategy_counts)
        refuse_calls(
            monkeypatch, [decompose_module, equilibria_module, flows, game_module],
            "_root_squares", "game_distance",
        )
        pot, eps = epsilon_transfer_bound(g)
        assert np.array_equal(pot.utilities, want_pot)
        assert eps == want_eps
        assert eps == 2 * decompose_module._norms(g)[1] / math.sqrt(min(g.strategy_counts))


def _integer_game(rng, counts):
    """Integer payoffs in [-10^6, 10^6)."""
    return Game(rng.integers(-(10**6), 10**6, (len(counts), math.prod(counts))).astype(float), counts)


def _near_potential_game(rng, counts):
    """An integer potential game, ``phi`` plus a nonstrategic part, plus integer noise in [-3, 3]."""
    phi = rng.integers(-(10**6), 10**6, counts)
    rows = []
    for m in range(len(counts)):
        others = rng.integers(-(10**6), 10**6, counts[:m] + (1,) + counts[m + 1:])
        rows.append((phi + others + rng.integers(-3, 4, counts)).ravel())
    return Game(np.array(rows, dtype=float), counts)


def _distance_errors(make, shapes):
    """Worst relative errors, in units of eps, of ``(||u_P||, ||u_H||)`` as kept and as
    ``game_distance(g, closest_*(g))``, against exact parts, at scales 1, 2^-600 and 2^600."""
    kept, path = [0.0, 0.0], [0.0, 0.0]
    for counts in shapes:
        for seed in range(5):
            g = make(np.random.default_rng([seed, *counts]), counts)
            _, u_pot, u_harm, _ = exact_parts(g)
            exact = (norm_squared(counts, u_pot), norm_squared(counts, u_harm))
            for k in (0, -600, 600):
                gk = g.with_utilities(np.ldexp(g.utilities, k))
                projected = (game_distance(gk, closest_harmonic(gk)), game_distance(gk, closest_potential(gk)))
                for i in range(2):
                    # scaling by 2^-k is exact: every distance here is a normal float
                    err = relative_error(math.ldexp(decompose_module._norms(gk)[i], -k), exact[i])
                    kept[i] = max(kept[i], err / np.finfo(float).eps)
                    err = relative_error(math.ldexp(projected[i], -k), exact[i])
                    path[i] = max(path[i], err / np.finfo(float).eps)
    return kept, path


class TestDistancesAgainstExactParts:
    """The kept norms against the exact rational parts of ``tests/exact.py``."""

    def test_the_oracle_splits_exactly(self):
        counts = (2, 3, 4)
        g = _integer_game(np.random.default_rng(90), counts)
        phi, u_pot, u_harm, u_non = exact_parts(g)
        assert all(x == Fraction(y) for x, y in zip((u_pot + u_harm + u_non).ravel(), g.utilities.ravel()))
        # the harmonic flow is divergence-free: sum_m h_m u_H^m = 0
        assert not any(sum(h * row for h, row in zip(counts, u_harm)))
        assert np.abs(phi.astype(float) - decompose(g).potential_fn).max() <= 1e-9 * 10**6

    # measured worst: 1.6 eps for both ways
    def test_random_games_within_4_eps(self):
        kept, _ = _distance_errors(_integer_game, [(3, 3), (4, 5), (2, 3, 4), (3, 3, 3)])
        assert max(kept) <= 4, kept

    # axes above the transform's matrix cut, against exact parts: the worst
    # part error over seeds 0-4 measured 5.0 and 5.4 eps max|u|, where a
    # per-axis map whose rounding grows like h^2 read 17.3 and 16.9
    @pytest.mark.parametrize("counts", [(100, 2), (70, 3, 2)], ids=str)
    def test_long_axis_parts_within_8_eps(self, counts):
        worst = 0.0
        for seed in range(5):
            g = _integer_game(np.random.default_rng([seed, *counts]), counts)
            d = decompose(g)
            for part, exact in zip((d.potential_part, d.harmonic_part, d.nonstrategic_part), exact_parts(g)[1:]):
                err = max(abs(Fraction(x) - y) for x, y in zip(part.utilities.ravel().tolist(), exact.ravel()))
                worst = max(worst, float(err) / np.abs(g.utilities).max())
        assert worst <= 8 * np.finfo(float).eps, worst / np.finfo(float).eps

    # ||u_H|| is small beside ||u||, so its relative error is large; measured
    # worst: 4.0e4 eps kept against 8.4e4 eps through game_distance
    def test_near_potential_games_no_worse_than_the_projection_distance(self):
        kept, path = _distance_errors(_near_potential_game, [(3, 3), (4, 5), (2, 3, 4)])
        assert kept[1] <= path[1], (kept, path)


def _fresh(g):
    """An equal game in a new object, so a call on it starts with no memo."""
    return g.with_utilities(g.utilities)


def _analyse(g):
    """Every public call of one small-games benchmark op, on the same game."""
    d = decompose(g)
    closest = closest_potential(g)
    pot, eps = epsilon_transfer_bound(g)
    report = equilibrium_report(g, eps=eps)
    return d, closest, pot, eps, report, is_potential(g), is_harmonic(g), potential_function(g)


def _analyse_cold(g):
    """The calls of :func:`_analyse`, each on its own fresh copy of the game."""
    d = decompose(_fresh(g))
    closest = closest_potential(_fresh(g))
    pot, eps = epsilon_transfer_bound(_fresh(g))
    report = equilibrium_report(_fresh(g), eps=eps)
    return (
        d, closest, pot, eps, report,
        is_potential(_fresh(g)), is_harmonic(_fresh(g)), potential_function(_fresh(g)),
    )


def _identical(a, b) -> bool:
    """Bitwise equality of results: arrays by ``np.array_equal``, the rest by ``==``."""
    if isinstance(a, Decomposition):
        return isinstance(b, Decomposition) and _identical(vars(a), vars(b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_identical(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes of the games passed to the decomposition kernel, one per run."""
    calls = []
    kernel = decompose_module._decompose_batch
    monkeypatch.setattr(
        decompose_module, "_decompose_batch", lambda counts, *a: calls.append(counts) or kernel(counts, *a)
    )
    return calls


class TestOneKernelRunPerGame:
    @pytest.mark.parametrize("name", list(KERNEL_GAMES))
    def test_op_runs_the_kernel_once(self, name, kernel_calls):
        g = _fresh(KERNEL_GAMES[name])
        warm = _analyse(g)
        assert len(kernel_calls) == 1
        cold = _analyse_cold(g)
        assert len(kernel_calls) == 8  # every fresh copy is a miss
        assert _identical(warm, cold)


class TestKernelCache:
    def test_released_with_its_game(self):
        g = random_game(np.random.default_rng(60), (3, 3))
        game_ref = weakref.ref(g)
        array_refs = [weakref.ref(a) for a in decompose_module._parts(g)]
        assert all(r() is not None for r in array_refs)
        del g
        gc.collect()
        assert game_ref() is None
        assert all(r() is None for r in array_refs)

    def test_alternating_games_get_their_own_parts(self):
        rng = np.random.default_rng(61)
        g1 = random_game(rng, (3, 3))
        games = [g1, random_game(rng, (2, 3, 4)), g1.with_utilities(-g1.utilities), _fresh(g1)]
        cold = [_analyse_cold(g) for g in games]
        for _ in range(3):
            for g, want in zip(games, cold):
                assert _identical(_analyse(g), want)
        # an equal game in another object is a miss
        parts = decompose_module._parts(g1)
        assert decompose_module._parts(games[-1]) is not parts

    def test_warm_decompose_runs_no_kernel_and_no_norm(self, monkeypatch):
        g = random_game(np.random.default_rng(68), (2, 3, 4))
        cold = decompose(g)

        def refuse(*args):
            raise AssertionError("a warm decompose ran the kernel or a norm")

        monkeypatch.setattr(decompose_module, "_decompose_batch", refuse)
        monkeypatch.setattr(decompose_module, "_root_squares", refuse)
        warm = decompose(g)
        assert _identical(warm, cold)
        assert warm.potential_fn is not cold.potential_fn

    def test_alternating_games_run_the_kernel_once_each(self, kernel_calls):
        rng = np.random.default_rng(62)
        games = [random_game(rng, counts) for counts in [(3, 3), (2, 3, 4), (3, 3), (2, 2)]]
        first = [_analyse(g) for g in games]
        for _ in range(2):
            for g, want in zip(games, first):
                assert _identical(_analyse(g), want)
        assert len(kernel_calls) == len(games)

    def test_del_frees_every_kernel_array_without_the_collector(self):
        g = random_game(np.random.default_rng(63), (3, 4))
        d = decompose(g)
        # the part game gets its own memo, which must not refer back to g's
        _analyse(d.harmonic_part)
        arrays = decompose_module._parts(g) + decompose_module._parts(d.harmonic_part)
        refs = [weakref.ref(g)] + [weakref.ref(a) for a in arrays]
        del d, arrays
        gc.disable()
        try:
            del g
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_failed_kernel_run_stores_nothing(self, kernel_calls, monkeypatch):
        # a corrupted transform makes the kernel's solve check raise
        rng = np.random.default_rng(65)
        g = random_game(rng, (3, 3))
        with monkeypatch.context() as patch:
            patch.setattr(
                flows, "_pinv_transform", lambda counts, a: rng.uniform(-1.0, 1.0, np.shape(a))
            )
            for _ in range(2):
                with pytest.raises(NumericError):
                    decompose(g)
                assert "_decomposition" not in vars(g)
        assert len(kernel_calls) == 2
        assert _identical(decompose(g), decompose(_fresh(g)))

    def test_parts_share_the_read_only_kernel_arrays(self):
        g = random_game(np.random.default_rng(67), (3, 4))
        d = decompose(g)
        for part in (d.potential_part, d.harmonic_part, d.nonstrategic_part):
            with pytest.raises(ValueError):
                part.utilities.flags.writeable = True
        again = decompose(g)
        assert _identical(again, d)
        assert again.potential_part.utilities is d.potential_part.utilities

    def test_cached_arrays_are_read_only(self):
        g = battle_of_sexes()
        assert not any(a.flags.writeable for a in decompose_module._parts(g))
        want = potential_function(_fresh(g))
        assert want is not None
        d = decompose(g)
        d.potential_fn[:] = 99.0
        phi = potential_function(g)
        phi[:] = -99.0
        assert np.array_equal(potential_function(g), want)
        assert np.array_equal(decompose(g).potential_fn, want)

    @pytest.mark.parametrize("copy_game", [
        lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copies_have_read_only_payoffs_and_no_memo(self, copy_game):
        g = matching_pennies()
        want = _analyse_cold(g)
        assert is_harmonic(g)  # g holds its memo when copied
        h = copy_game(g)
        assert "_decomposition" not in vars(h)
        with pytest.raises(ValueError):
            h.utilities[:] = [[1, 0, 0, 1], [1, 0, 0, 1]]
        assert _identical(_analyse(h), want)

    def test_threads_alternating_over_two_games_match_serial(self):
        # more threads than cores, each alternating over the two games from
        # its own starting point, with a short switch interval
        rng = np.random.default_rng(66)
        games = [random_game(rng, (3, 3)), random_game(rng, (2, 3, 4))]

        def calls(g):
            return decompose(g), closest_potential(g), potential_function(g), is_harmonic(g)

        serial = [calls(_fresh(g)) for g in games]
        results = [[] for _ in range(4)]

        def run(k):
            for i in range(200):
                results[k].append(calls(games[(i + k) % 2]))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, rows in enumerate(results):
            assert len(rows) == 200
            assert all(_identical(r, serial[(i + k) % 2]) for i, r in enumerate(rows))


def _relabel(u, counts, perms, order):
    """Node functions (last axis) under strategy permutations, then a player order.

    Player ``m``'s strategy ``perms[m][a]`` becomes its strategy ``a``, and the
    new player ``k`` is the old player ``order[k]``.
    """
    t = np.asarray(u).reshape(u.shape[:-1] + counts)
    lead = t.ndim - len(counts)
    for m, perm in enumerate(perms):
        t = np.take(t, perm, axis=lead + m)
    t = np.transpose(t, list(range(lead)) + [lead + o for o in order])
    return t.reshape(u.shape)


class TestPermutationInvariance:
    @pytest.mark.parametrize("counts", [(3, 3), (2, 3, 4), (4, 1, 5), (2, 2, 2, 2)], ids=str)
    def test_parts_follow_relabelling(self, counts):
        rng = np.random.default_rng(53)
        g = random_game(rng, counts)
        base = decompose(g)
        for _ in range(3):
            perms = [rng.permutation(h) for h in counts]
            order = list(rng.permutation(len(counts)))
            new_counts = tuple(counts[o] for o in order)

            def move(game):
                u = _relabel(game.utilities, counts, perms, order)[order]
                return Game(u, new_counts)

            d = decompose(move(g))
            size = np.abs(g.utilities).max()
            want_phi = _relabel(base.potential_fn, counts, perms, order)
            assert np.abs(d.potential_fn - want_phi).max() <= 1e-12 * size
            for part in ("potential_part", "harmonic_part", "nonstrategic_part"):
                want = move(getattr(base, part)).utilities
                assert np.abs(getattr(d, part).utilities - want).max() <= 1e-12 * size, part
            for h in (g, base.potential_part, base.harmonic_part):
                assert is_potential(move(h)) == is_potential(h)
                assert is_harmonic(move(h)) == is_harmonic(h)


class TestMetric:
    def test_distance_to_self(self):
        g = battle_of_sexes()
        assert game_distance(g, g) == 0.0

    def test_matching_pennies_norm(self):
        # direct summation oracle: sum_m h_m sum_p u^m(p)^2 = 2*4 + 2*4 = 16
        mp = matching_pennies()
        direct = sum(
            h * float(np.sum(mp.utilities[m] ** 2))
            for m, h in enumerate(mp.strategy_counts)
        )
        assert direct == 16.0
        assert game_norm(mp) == 4.0

    def test_orthogonality_pythagoras(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            counts = [(2, 2), (2, 3), (3, 3), (2, 2, 2)][rng.integers(4)]
            g = random_game(rng, counts, scale=2.0)
            d = decompose(g)
            total = game_norm(g) ** 2
            parts = (
                game_norm(d.potential_part) ** 2
                + game_norm(d.harmonic_part) ** 2
                + game_norm(d.nonstrategic_part) ** 2
            )
            assert abs(total - parts) <= 1e-8 * max(1.0, total)

    def test_inner_product(self):
        rng = np.random.default_rng(34)
        for counts in [(2, 2), (2, 3), (3, 1, 4), (2, 2, 2)]:
            g, other = random_game(rng, counts), random_game(rng, counts)
            assert game_inner(g, other) == pytest.approx(game_inner(other, g), rel=1e-14)
            assert game_inner(g, g) == pytest.approx(game_norm(g) ** 2, rel=1e-14)
            d = decompose(g)
            parts = [d.potential_part, d.harmonic_part, d.nonstrategic_part]
            for i, j in [(0, 1), (0, 2), (1, 2)]:
                assert abs(game_inner(parts[i], parts[j])) <= 1e-12 * game_norm(g) ** 2
        with pytest.raises(ShapeError):
            game_inner(matching_pennies(), road_sharing())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            game_distance(matching_pennies(), road_sharing())

    # against sum_m h_m ||u^m||^2 in rationals: the norm's relative error is
    # |r - 1| / (1 + sqrt(r)) for r = norm^2 / exact.  At 2^-600 and 2^600
    # every square under- or overflows and the rows are summed again
    # scaled; the inner product is then outside the float range, so it is
    # checked at scale 1
    @pytest.mark.parametrize("counts", [(2,) * 10, (64, 64)], ids=_shape_id)
    def test_norm_and_inner_match_the_exact_value(self, counts):
        u = random_game(np.random.default_rng(0), counts).utilities
        exact = sum(h * sum(Fraction(x) ** 2 for x in row.tolist()) for h, row in zip(counts, u))
        bound = 6 * np.finfo(float).eps
        for k in (0, -600, 600):
            r = (Fraction(game_norm(Game(np.ldexp(u, k), counts))) / 2**k) ** 2 / exact
            assert abs(float(r - 1)) / (1 + math.sqrt(r)) <= bound, k
        g = Game(u, counts)
        assert abs(float(Fraction(game_inner(g, g)) / exact - 1)) <= bound


class TestDecompositionStructure:
    def test_components_are_normalized_games(self):
        rng = np.random.default_rng(34)
        g = random_game(rng, (3, 2, 2), scale=5.0)
        d = decompose(g)
        assert is_normalized(d.potential_part, tol=1e-9)
        assert is_normalized(d.harmonic_part, tol=1e-9)

    def test_idempotence_on_components(self):
        rng = np.random.default_rng(35)
        for counts in [(2, 2), (2, 3), (2, 2, 2)]:
            g = random_game(rng, counts, scale=3.0)
            d = decompose(g)
            dp = decompose(d.potential_part)
            assert_games_close(dp.potential_part, d.potential_part, 1e-8)
            assert game_norm(dp.harmonic_part) <= 1e-8
            assert game_norm(dp.nonstrategic_part) <= 1e-8
            dh = decompose(d.harmonic_part)
            assert_games_close(dh.harmonic_part, d.harmonic_part, 1e-8)
            assert game_norm(dh.potential_part) <= 1e-8
            assert game_norm(dh.nonstrategic_part) <= 1e-8
            dn = decompose(d.nonstrategic_part)
            assert_games_close(dn.nonstrategic_part, d.nonstrategic_part, 1e-8)
            assert game_norm(dn.potential_part) <= 1e-8
            assert game_norm(dn.harmonic_part) <= 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            g = random_game(rng, (2, 3), scale=2.0)
            h = random_game(rng, (2, 3), scale=2.0)
            a, b = rng.uniform(-2.0, 2.0, size=2)
            combo = g.with_utilities(a * g.utilities + b * h.utilities)
            dc = decompose(combo)
            dg, dh = decompose(g), decompose(h)
            assert (
                np.abs(
                    dc.potential_part.utilities
                    - (a * dg.potential_part.utilities + b * dh.potential_part.utilities)
                ).max()
                <= 1e-8
            )
            assert (
                np.abs(
                    dc.harmonic_part.utilities
                    - (a * dg.harmonic_part.utilities + b * dh.harmonic_part.utilities)
                ).max()
                <= 1e-8
            )

    def test_strategic_equivalence_shares_components(self):
        rng = np.random.default_rng(37)
        g = random_game(rng, (3, 3), scale=2.0)
        d = decompose(g)
        dn = decompose(normalize(g))
        assert_games_close(d.potential_part, dn.potential_part, 1e-9)
        assert_games_close(d.harmonic_part, dn.harmonic_part, 1e-9)

    def test_harmonic_part_weighted_zero_sum(self):
        rng = np.random.default_rng(38)
        for counts in [(2, 2), (2, 3), (2, 2, 2)]:
            g = random_game(rng, counts, scale=2.0)
            uh = decompose(g).harmonic_part.utilities
            weighted = sum(h * uh[m] for m, h in enumerate(counts))
            assert np.abs(weighted).max() <= 1e-9

    def test_flow_splits_into_gradient_plus_harmonic(self):
        rng = np.random.default_rng(39)
        g = random_game(rng, (3, 2), scale=2.0)
        d = decompose(g)
        graph = build_graph((3, 2))
        lhs = gradient(graph, d.potential_fn) + pairwise_comparison(d.harmonic_part, graph)
        assert (lhs - pairwise_comparison(g, graph)).max_abs() <= 1e-9

    def test_degenerate_single_strategy_player(self):
        rng = np.random.default_rng(40)
        g = random_game(rng, (3, 1), scale=2.0)
        d = decompose(g)
        # the one-strategy player's payoffs are entirely nonstrategic
        assert np.abs(d.potential_part.utilities[1]).max() <= 1e-12
        assert np.abs(d.harmonic_part.utilities[1]).max() <= 1e-12
        assert reconstruction_error(g, d) <= 1e-12

    def test_solver_residual_is_the_laplacian_residual(self, monkeypatch):
        # a perturbed transform makes the residual large enough to compare;
        # the kernel's own check of it is switched off
        rng = np.random.default_rng(44)
        transform = flows._pinv_transform
        noise = lambda counts, b: transform(counts, b) + rng.uniform(-0.1, 0.1, b.shape)
        monkeypatch.setattr(flows, "_pinv_transform", noise)
        monkeypatch.setattr(flows, "_check_residual", lambda residual, target: None)
        for counts in [(3, 3), (4, 3, 2), (1, 5)]:
            g = random_game(rng, counts, scale=2.0)
            d = decompose(g)
            b = sum(laplacian_player_apply(counts, m, g.utilities[m]) for m in range(len(counts)))
            direct = np.linalg.norm(laplacian_apply(counts, d.potential_fn) - b)
            assert direct > 0.01
            assert abs(d.residuals["solver"] - direct) <= 1e-12 * direct

    def test_applies_the_laplacian_once(self, monkeypatch):
        # the kernel projects u and phi once per player and reads
        # Laplacian(phi) = sum_m h_m P_m phi off the potential part, so it
        # calls no laplacian_apply; the solver residual is the norm the
        # solve checked; both projections go through the unchecked
        # demeaning core, not the validated project_player
        applies, projections = [], []
        apply = flows.laplacian_apply
        monkeypatch.setattr(flows, "laplacian_apply", lambda *a: applies.append(a) or apply(*a))
        demean = flows._demean
        counted = lambda *a: projections.append(a) or demean(*a)
        for module in (flows, decompose_module):
            monkeypatch.setattr(module, "_demean", counted)
        rng = np.random.default_rng(45)
        for counts in [(3, 3), (2, 3, 4), (5,), (2, 2, 2, 2, 2)]:
            applies.clear()
            projections.clear()
            decompose(random_game(rng, counts))
            assert len(applies) == 0
            assert len(projections) == 2 * len(counts)

    def test_residual_keys(self):
        assert set(decompose(random_game(np.random.default_rng(47), (2, 3))).residuals) == {
            "harmonic_divergence",
            "solver",
        }

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("counts", [(3, 3), (20, 20), (2, 3, 4), (200, 200), (8, 8, 8), (2,) * 12])
    def test_harmonic_divergence_reads_the_divergence(self, counts, scale):
        # the divergence summed from the returned harmonic part, as verify
        # sums it, on uniform random payoffs
        g = random_game(np.random.default_rng(0), counts, scale)
        d = decompose(g)
        direct = float(np.abs(np.asarray(counts, dtype=float) @ d.harmonic_part.utilities).max())
        assert d.residuals["harmonic_divergence"] == direct

    def test_solver_is_the_checked_residual(self, monkeypatch):
        # the solver residual is the norm that the solve's check was given,
        # the centred one, on random games and on harmonic parts
        checked = []
        check = flows._check_residual
        monkeypatch.setattr(
            flows, "_check_residual", lambda residual, target: checked.append(residual) or check(residual, target)
        )
        rng = np.random.default_rng(49)
        for counts in [(3, 3), (2, 3, 4), (20, 20), (5,)]:
            g = random_game(rng, counts)
            for game in (g, decompose(g).harmonic_part):
                checked.clear()
                d = decompose(game.with_utilities(game.utilities))
                assert len(checked) == 1 and checked[0].shape == (1,)
                assert d.residuals["solver"] == float(checked[0][0])

    def test_json_export_shape(self):
        d = decompose(matching_pennies())
        doc = decomposition_to_dict(d)
        assert set(doc) == {"potential", "harmonic", "nonstrategic", "phi", "residuals"}
        assert set(doc["residuals"]) == {"harmonic_divergence"}
        assert len(doc["phi"]) == 4
        floats = doc["phi"] + [v for k in ("potential", "harmonic", "nonstrategic")
                               for row in doc[k]["utilities"] for v in row]
        assert all(type(v) is float for v in floats)


class TestLargeGames:
    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("counts", [(2, 5000), (50, 2, 50), (200, 200)])
    def test_slowest_mode_potential_solves_at_every_scale(self, counts, scale):
        g = slowest_mode_potential(np.random.default_rng(46), counts, scale)
        phi = g.utilities[0]
        d = decompose(g)
        assert is_potential(g)
        assert np.abs(d.potential_fn - (phi - phi.mean())).max() <= 1e-12 * scale

    def test_long_axis_divergence_within_the_verify_rule(self):
        # the bound of verify's harmonic-flow-divergence-free check, 128 eps
        # sum_{h>1} h max|u|, allows 640 256 eps here; measured 31 365 eps.
        # A per-axis map whose rounding grows like h^2 read 1.23 million
        g = random_game(np.random.default_rng(0), (2, 5000))
        bound = _ROUNDING * 5002 * np.abs(g.utilities).max()
        assert decompose(g).residuals["harmonic_divergence"] <= bound

    def test_random_100x100_residuals_are_tiny(self):
        # the same bounds as TestGeneralizedRps.test_residuals_are_tiny
        g = random_game(np.random.default_rng(41), (100, 100))
        d = decompose(g)
        assert reconstruction_error(g, d) <= 1e-12
        assert d.residuals["harmonic_divergence"] <= 1e-9
        assert d.residuals["solver"] <= 1e-9
