"""Tests for game representation, utilities, regrets, and normalization."""

import math
import re

import numpy as np
import pytest

from helpers import (
    enumerated_expected_utility,
    game_from_matrices,
    identity_edge_game,
    path_edges,
    random_small_game,
    reference_normalization,
    star_edges,
    zero_game,
)
from treenash.errors import (
    InvalidGame,
    InvalidPlayerId,
    MissingNeighborStrategy,
    NotATree,
)
from treenash.game import (
    Edge,
    EquilibriumCertificate,
    TreePolymatrixGame,
    check_normalized,
    check_profile,
    check_strategy,
    deviation_payoff,
    entry_bound,
    expected_utility,
    is_epsilon_best_response,
    regret,
    regrets,
    validate_and_root,
)
from treenash.generator import random_normalized_game, random_tree

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
UNIFORM = np.array([0.5, 0.5])


class TestGameConstruction:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidGame):
            game_from_matrices(2, 2, [(0, 1, [[-0.1, 0], [0, 0]], np.zeros((2, 2)))])

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidGame):
            game_from_matrices(2, 2, [(0, 1, np.zeros((2, 3)), np.zeros((2, 2)))])

    def test_rejects_self_loop_and_duplicates(self):
        zero = np.zeros((2, 2))
        with pytest.raises(InvalidGame):
            game_from_matrices(2, 2, [(0, 0, zero, zero)])
        with pytest.raises(InvalidGame):
            game_from_matrices(2, 2, [(0, 1, zero, zero), (1, 0, zero, zero)])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidGame):
            game_from_matrices(2, 2, [(0, 1, [[np.inf, 0], [0, 0]], np.zeros((2, 2)))])

    def test_matrices_read_only(self):
        game = identity_edge_game()
        with pytest.raises(ValueError):
            game.matrix(0, 1)[0, 0] = 2.0

    @pytest.mark.parametrize("edge, side, value, message", [
        (2, 0, np.zeros((2, 3)), "payoff matrix for (2, 3) has shape (2, 3)"),
        (2, 1, [[0.0, np.nan], [0.0, 0.0]], "payoff matrix for (3, 2) has non-finite entries"),
        (3, 0, [[0.0, 0.0], [-0.1, 0.0]], "payoff matrix for (1, 4) has negative entries"),
    ])
    def test_bad_matrix_on_a_later_edge_names_its_pair(self, edge, side, value, message):
        zero = np.zeros((2, 2))
        edges = [[0, 1, zero, zero], [1, 2, zero, zero], [2, 3, zero, zero], [1, 4, zero, zero]]
        edges[edge][2 + side] = value
        with pytest.raises(InvalidGame, match=re.escape(message)):
            game_from_matrices(5, 2, edges)

    @pytest.mark.parametrize(
        "matrix",
        [[["1.5"]], [[True]], [[b"1"]], [[np.True_]], np.array([[True]]), np.array([["1.5"]])],
        ids=["str", "bool", "bytes", "numpy-bool", "bool-array", "str-array"],
    )
    def test_rejects_an_entry_that_is_not_a_number(self, matrix):
        # np.array reads each of these as a number, and the file loader
        # refuses each; ints, numpy scalars and float arrays are numbers
        with pytest.raises(InvalidGame) as excinfo:
            TreePolymatrixGame(2, 1, [Edge(0, 1, matrix, [[1.0]])])
        assert str(excinfo.value) == "payoff matrix for (0, 1) has an entry that is not a number"
        edges = [Edge(0, 1, [[1]], np.array([[0.5]])), Edge(2, 1, [[np.int64(2)]], matrix)]
        with pytest.raises(InvalidGame) as excinfo:
            TreePolymatrixGame(3, 1, edges)
        assert str(excinfo.value) == "payoff matrix for (1, 2) has an entry that is not a number"
        edges[1] = Edge(2, 1, [[np.int64(2)]], [[np.float32(0.25)]])
        game = TreePolymatrixGame(3, 1, edges)
        assert game.payoffs.tolist() == [[[1.0]], [[0.5]], [[0.25]], [[2.0]]]

    def test_payoffs_are_one_owner_grouped_read_only_array(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            given = random_normalized_game(n, m, 0.5, rng_seed=trial)
            inputs = [(e.u, e.v, e.payoff_u_v.copy(), e.payoff_v_u.copy()) for e in given.edges]
            game = game_from_matrices(n, m, inputs)
            assert game.payoffs.shape == (2 * (n - 1), m, m)
            assert not game.payoffs.flags.writeable
            assert game.offsets.tolist() == [
                sum(game.degree(q) for q in range(p)) for p in range(n + 1)
            ]
            for p in range(n):
                block = slice(game.offsets[p], game.offsets[p + 1])
                assert game.owners[block].tolist() == [p] * game.degree(p)
                assert game.neighbor_ids[block].tolist() == game.neighbors(p)
                assert game.neighbors(p) == sorted(game.neighbors(p))
                for i, q in enumerate(game.neighbors(p)):
                    assert game.position(p, q) == i
                    assert np.shares_memory(game.matrix(p, q), game.payoffs)
            for s in range(len(game.payoffs)):
                matrix = game.matrix(int(game.owners[s]), int(game.neighbor_ids[s]))
                assert matrix.ctypes.data == game.payoffs[s].ctypes.data
            for edge, (u, v, a_uv, a_vu) in zip(game.edges, inputs):
                assert (edge.u, edge.v) == (u, v)
                assert np.array_equal(edge.payoff_u_v, a_uv) and np.array_equal(edge.payoff_v_u, a_vu)
                assert np.array_equal(edge.payoff_u_v, game.matrix(u, v))
                assert np.array_equal(edge.payoff_v_u, game.matrix(v, u))
                assert np.shares_memory(edge.payoff_u_v, game.payoffs)
                assert np.shares_memory(edge.payoff_v_u, game.payoffs)
                with pytest.raises(ValueError):
                    edge.payoff_v_u[0, 0] = 1.0
                a_uv[0, 0] = 7.0  # the game keeps its own copy
                assert game.matrix(u, v)[0, 0] != 7.0

    def test_matrix_of_a_non_neighbour_raises(self):
        game = zero_game(4, path_edges(4))
        with pytest.raises(KeyError):
            game.matrix(0, 2)
        with pytest.raises(KeyError):
            game.matrix(3, 4)
        with pytest.raises(KeyError):
            game.position(1, 3)

    def test_edge_list_may_come_in_any_order(self):
        zero = np.zeros((2, 2))
        edges = [Edge(3, 1, zero, zero + 0.25), Edge(0, 1, zero + 0.5, zero), Edge(2, 1, zero, zero)]
        game = TreePolymatrixGame(4, 2, edges)
        assert game.neighbors(1) == [0, 2, 3]
        assert game.matrix(1, 3)[0, 0] == 0.25 and game.matrix(0, 1)[0, 0] == 0.5
        assert [(e.u, e.v) for e in game.edges] == [(3, 1), (0, 1), (2, 1)]


class TestValidateAndRoot:
    def test_single_edge_default_root(self):
        rooted = validate_and_root(identity_edge_game())
        assert rooted.root == 0
        assert rooted.children[0] == [1]
        assert rooted.parent == [None, 0]

    def test_path_rooted_at_middle(self):
        game = zero_game(3, path_edges(3))
        rooted = validate_and_root(game, root=1)
        assert rooted.children[1] == [0, 2]
        assert rooted.parent == [1, None, 1]

    def test_cycle_rejected_by_edge_count(self):
        game = zero_game(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotATree):
            validate_and_root(game)

    def test_too_few_edges_rejected(self):
        game = zero_game(3, [(0, 1)])
        with pytest.raises(NotATree):
            validate_and_root(game)

    def test_cycle_with_correct_edge_count_rejected(self):
        # 4 players, 3 edges (= n-1) forming a triangle plus an isolated player
        game = zero_game(4, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotATree):
            validate_and_root(game)

    def test_invalid_root(self):
        with pytest.raises(InvalidPlayerId):
            validate_and_root(identity_edge_game(), root=5)

    def test_single_player(self):
        rooted = validate_and_root(zero_game(1, []))
        assert rooted.parent == [None]
        assert rooted.children[0] == []


class TestExpectedUtility:
    def test_pure_match_on_identity(self):
        game = identity_edge_game()
        assert expected_utility(game, 0, [E1, E1]) == pytest.approx(1.0)

    def test_both_uniform(self):
        game = identity_edge_game()
        assert expected_utility(game, 0, [UNIFORM, UNIFORM]) == pytest.approx(0.5)

    def test_zero_game_path(self):
        game = zero_game(3, path_edges(3))
        profile = [E1, UNIFORM, E2]
        for p in range(3):
            assert expected_utility(game, p, profile) == 0.0

    def test_linearity_against_full_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            game = random_small_game(rng)
            strategies = []
            for _ in range(game.num_players):
                raw = rng.random(game.num_actions) + 1e-3
                strategies.append(raw / raw.sum())
            for p in range(game.num_players):
                direct = expected_utility(game, p, strategies)
                enumerated = enumerated_expected_utility(game, p, strategies)
                assert direct == pytest.approx(enumerated, abs=1e-9)


class TestDeviationPayoff:
    def test_pure_opponent(self):
        game = identity_edge_game()
        assert deviation_payoff(game, 0, 1, {1: E2}) == pytest.approx(1.0)

    def test_uniform_opponent(self):
        game = identity_edge_game()
        for action in (0, 1):
            assert deviation_payoff(game, 0, action, {1: UNIFORM}) == pytest.approx(0.5)

    def test_star_center_constant_matrices(self):
        third = np.full((2, 2), 1.0 / 3.0)
        game = game_from_matrices(
            4, 2, [(0, i, third.copy(), np.zeros((2, 2))) for i in range(1, 4)]
        )
        strategies = {1: E1, 2: UNIFORM, 3: E2}
        for action in (0, 1):
            value = deviation_payoff(game, 0, action, strategies)
            direct = sum(
                float(game.matrix(0, q)[action, :] @ strategies[q]) for q in (1, 2, 3)
            )
            assert value == pytest.approx(1.0)
            assert value == pytest.approx(direct)

    def test_missing_neighbor_rejected(self):
        game = zero_game(3, path_edges(3))
        with pytest.raises(MissingNeighborStrategy):
            deviation_payoff(game, 1, 0, {0: E1})  # neighbor 2 missing
        with pytest.raises(MissingNeighborStrategy):
            deviation_payoff(game, 0, 0, {1: E1, 2: E1})  # 2 is not a neighbor of 0

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError):
            deviation_payoff(identity_edge_game(), 0, 5, {1: E1})


class TestRegret:
    def test_mismatched_pure_profile(self):
        game = identity_edge_game()
        assert regret(game, 0, [E1, E2]) == pytest.approx(1.0)

    def test_uniform_opponent_gives_zero(self):
        game = identity_edge_game()
        assert regret(game, 0, [E1, UNIFORM]) == pytest.approx(0.0)

    def test_path_middle_player_scaled_identity(self):
        half = np.eye(2) * 0.5
        eye = np.eye(2)
        game = game_from_matrices(
            3, 2, [(0, 1, eye.copy(), half.copy()), (1, 2, half.copy(), eye.copy())]
        )
        profile = [E1, E1, E1]
        # middle player: action 0 pays 0.5 + 0.5 = 1.0, action 1 pays 0.0
        assert deviation_payoff(game, 1, 0, {0: E1, 2: E1}) == pytest.approx(1.0)
        assert deviation_payoff(game, 1, 1, {0: E1, 2: E1}) == pytest.approx(0.0)
        assert regret(game, 1, profile) == 0.0

    def test_nonnegative_on_random_profiles(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            game = random_small_game(rng)
            strategies = []
            for _ in range(game.num_players):
                raw = rng.random(game.num_actions)
                strategies.append(raw / raw.sum())
            for p in range(game.num_players):
                assert regret(game, p, strategies) >= 0.0

    def test_zero_game_regret_zero(self):
        game = zero_game(4, path_edges(4))
        profile = [E1, E2, UNIFORM, E1]
        for p in range(4):
            assert regret(game, p, profile) == 0.0

    @pytest.mark.parametrize("topology", ["random", "star", "path", "single"])
    def test_regrets_equal_per_player_regret_bit_for_bit(self, topology):
        rng = np.random.default_rng(len(topology))
        for trial in range(12):
            n = 1 if topology == "single" else int(rng.integers(2, 40))
            m = int(rng.integers(1, 10)) if trial else 9
            edges = {
                "random": random_tree(n, int(rng.integers(1000))),
                "star": star_edges(n),
                "path": path_edges(n),
                "single": [],
            }[topology]
            game = random_normalized_game(n, m, 0.5, topology=edges, rng_seed=trial)
            raw = rng.random((n, m)) ** 3
            pure = list(np.eye(m)[rng.integers(m, size=n)])
            for profile in ([row / row.sum() for row in raw], pure):
                expected = np.array([regret(game, p, profile) for p in range(n)])
                assert np.array_equal(regrets(game, profile), expected)


class TestBestResponse:
    def test_zero_payoffs_always_accepts(self):
        game = zero_game(2, [(0, 1)])
        for y in (E1, E2, UNIFORM):
            assert is_epsilon_best_response(game, 0, y, {1: E2}, 0.01)

    def test_mismatch_rejected_at_half(self):
        game = identity_edge_game()
        assert not is_epsilon_best_response(game, 0, E1, {1: E2}, 0.5)

    def test_uniform_opponent_accepts_mixture(self):
        game = identity_edge_game()
        assert is_epsilon_best_response(game, 0, np.array([0.6, 0.4]), {1: UNIFORM}, 0.01)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            game = random_small_game(rng, n=2)
            y = rng.random(game.num_actions)
            y /= y.sum()
            x = rng.random(game.num_actions)
            x /= x.sum()
            eps_values = sorted(rng.random(4))
            accepted = [
                is_epsilon_best_response(game, 0, y, {1: x}, eps) for eps in eps_values
            ]
            # once accepted at some epsilon, accepted at every larger epsilon
            for earlier, later in zip(accepted, accepted[1:]):
                assert later or not earlier


class TestEntryBound:
    def test_degree_one_dominated_by_inverse_degree(self):
        assert entry_bound(1, 2, 0.5) == 1.0
        # the other branch evaluates to about 0.1226 here
        assert 0.5 / (2 * math.sqrt(6 * math.log(2))) == pytest.approx(0.1226, abs=1e-3)

    def test_degree_four_branch_values(self):
        bound = entry_bound(4, 2, 0.5)
        assert bound == pytest.approx(0.25)
        assert 0.5 / (2 * math.sqrt(24 * math.log(2))) == pytest.approx(0.0613, abs=1e-3)

    def test_single_action_collapses_to_inverse_degree(self):
        assert entry_bound(3, 1, 0.5) == pytest.approx(1.0 / 3.0)


class TestCheckNormalized:
    def test_single_edge_in_unit_box_passes(self):
        game = game_from_matrices(
            2, 2, [(0, 1, [[1.0, 0.3], [0.0, 0.7]], [[0.2, 0.9], [1.0, 0.0]])]
        )
        report = check_normalized(game, 0.5)
        assert report.ok
        assert "ok" in report.summary()

    def test_entry_above_unit_box_fails(self):
        game = game_from_matrices(2, 2, [(0, 1, [[1.2, 0], [0, 0]], np.zeros((2, 2)))])
        report = check_normalized(game, 0.5)
        assert not report.ok
        assert any(v.value == pytest.approx(1.2) for v in report.entry_violations)

    def test_degree_four_constant_entries_fail_entry_condition(self):
        mat = np.full((2, 2), 0.3)
        game = game_from_matrices(
            5, 2, [(0, i, mat.copy(), np.zeros((2, 2))) for i in range(1, 5)]
        )
        report = check_normalized(game, 0.5)
        violations = [v for v in report.entry_violations if v.player == 0]
        assert violations
        assert violations[0].bound == pytest.approx(0.25)

    def test_utility_range_violation_detected(self):
        # degree 17 at epsilon 1: per-entry cap is about 0.0595 (> 1/17), so a
        # constant 0.0594 passes the entry condition while pure utilities reach
        # 17 * 0.0594 > 1
        center = np.full((2, 2), 0.0594)
        game = game_from_matrices(
            18, 2, [(0, i, center.copy(), np.zeros((2, 2))) for i in range(1, 18)]
        )
        report = check_normalized(game, 1.0)
        assert not report.entry_violations
        assert any(v.player == 0 and v.kind == "max" for v in report.utility_violations)

    def test_single_player_game_passes(self):
        assert check_normalized(zero_game(1, []), 0.5).ok

    def test_single_action_game(self):
        game = game_from_matrices(2, 1, [(0, 1, [[0.5]], [[1.0]])])
        assert check_normalized(game, 0.5).ok

    def test_matches_the_per_neighbour_reference(self):
        # Games with and without entry and utility violations: normalized
        # games, stars scaled past their caps, and uniform [0, scale) entries.
        rng = np.random.default_rng(11)
        seen = {"ok": 0, "entry": 0, "max": 0}
        for trial in range(60):
            n, m = int(rng.integers(1, 25)), int(rng.integers(1, 5))
            epsilon = float(rng.choice([0.2, 0.5, 1.0]))
            kind = trial % 3
            if kind == 0:
                game = random_normalized_game(n, m, epsilon, rng_seed=trial)
            elif kind == 1:
                base = random_normalized_game(n, m, epsilon, topology=star_edges(n), rng_seed=trial)
                scale = float(rng.choice([1.0, 1.5, 4.0]))
                game = game_from_matrices(n, m, [
                    (e.u, e.v, e.payoff_u_v * scale, e.payoff_v_u) for e in base.edges
                ])
            else:
                game = random_small_game(rng, n=max(n, 2), m=m)
            for atol in (1e-12, 0.3):
                report = check_normalized(game, epsilon, atol=atol)
                expected = reference_normalization(game, epsilon, atol=atol)
                assert (report.entry_violations, report.utility_violations) == expected
                seen["ok"] += report.ok
                seen["entry"] += bool(report.entry_violations)
                for violation in report.utility_violations:
                    seen[violation.kind] += 1
        assert all(count > 0 for count in seen.values()), seen

    @pytest.mark.parametrize("atol", [-0.3, -1e-12, math.nan])
    def test_negative_atol_raises(self, atol):
        # construction rejects negative entries, so no pure utility is below
        # 0 unless a negative atol moves the lower bound above it
        game = game_from_matrices(2, 2, [(0, 1, [[1.0, 0.3], [0.0, 0.7]], np.zeros((2, 2)))])
        with pytest.raises(ValueError, match="atol"):
            check_normalized(game, 0.5, atol=atol)


class TestStrategyValidation:
    def test_check_strategy_accepts_simplex_point(self):
        out = check_strategy([0.25, 0.75], 2)
        assert out.tolist() == [0.25, 0.75]

    def test_check_strategy_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            check_strategy([0.5, 0.4], 2)

    def test_check_strategy_rejects_negative(self):
        with pytest.raises(ValueError):
            check_strategy([-0.1, 1.1], 2)

    def test_check_profile_counts_players(self):
        game = identity_edge_game()
        with pytest.raises(ValueError):
            check_profile(game, [E1])

    def test_check_profile_returns_each_checked_strategy(self):
        game = zero_game(3, path_edges(3))
        profile = [E1, [0.25, 0.75], (0.5, 0.5)]
        out = check_profile(game, profile)
        assert len(out) == 3 and out[0] is E1
        for got, strategy in zip(out, profile):
            assert got.dtype == np.float64
            assert np.array_equal(got, check_strategy(strategy, 2))

    @pytest.mark.parametrize("bad", [
        [1.0, 0.0, 0.0], [[0.5, 0.5]], [math.nan, 1.0], [math.inf, 0.0], [-0.1, 1.1],
        [0.5, 0.4], [0.5, 0.5 + 2e-9],
    ])
    def test_check_profile_raises_the_first_bad_strategy_error(self, bad):
        game = zero_game(4, path_edges(4))
        with pytest.raises(ValueError) as expected:
            check_strategy(bad, 2)
        # the first bad strategy decides the message, whatever follows it
        for position in range(4):
            later = [[1.0], [0.7, 0.7], [-1.0, 2.0]][position % 3]
            profile = [E1] * position + [bad] + [later] * (3 - position)
            with pytest.raises(ValueError) as raised:
                check_profile(game, profile)
            assert str(raised.value) == str(expected.value)

    def test_check_profile_accepts_sums_within_tolerance(self):
        game = zero_game(2, [(0, 1)])
        near = [0.5, 0.5 + 0.9e-9]
        assert np.array_equal(check_profile(game, [near, E2])[0], near)


class TestCertificate:
    def test_accepts_valid(self):
        cert = EquilibriumCertificate([E1, E1], 0.5, np.array([0.0, 0.3]))
        assert cert.max_regret == pytest.approx(0.3)

    def test_rejects_excess_regret(self):
        with pytest.raises(ValueError):
            EquilibriumCertificate([E1, E1], 0.5, np.array([0.0, 0.6]))

    def test_rejects_negative_regret(self):
        with pytest.raises(ValueError):
            EquilibriumCertificate([E1, E1], 0.5, np.array([-0.1, 0.0]))


class TestDegenerateSingleAction:
    def test_all_operations(self):
        game = game_from_matrices(2, 1, [(0, 1, [[0.5]], [[0.25]])])
        one = np.array([1.0])
        assert expected_utility(game, 0, [one, one]) == pytest.approx(0.5)
        assert deviation_payoff(game, 0, 0, {1: one}) == pytest.approx(0.5)
        assert regret(game, 0, [one, one]) == 0.0
        assert is_epsilon_best_response(game, 0, one, {1: one}, 0.5)
