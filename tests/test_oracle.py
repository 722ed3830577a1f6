"""Tests for the brute-force profile search and verification."""

import numpy as np
import pytest

from helpers import identity_edge_game, matching_pennies_game, zero_game
from treenash.errors import CapExceeded
from treenash.oracle import all_equilibria, exhaustive_search, iter_equilibria, verify_profile
from treenash.uniform import enumerate_uniform

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestAllEquilibria:
    def test_zero_game_accepts_every_profile(self):
        uset = enumerate_uniform(2, 1)
        found = all_equilibria(zero_game(2, [(0, 1)]), 0.1, uset)
        assert found == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_identity_edge_pure_matches_only(self):
        uset = enumerate_uniform(2, 1)
        found = all_equilibria(identity_edge_game(), 0.1, uset)
        assert found == [(0, 0), (1, 1)]

    def test_matching_pennies_empty_at_b1(self):
        uset = enumerate_uniform(2, 1)
        assert all_equilibria(matching_pennies_game(), 0.4, uset) == []

    def test_matching_pennies_mixed_found_at_b2(self):
        # the uniform pair is an exact equilibrium and lies on the b=2 grid
        uset = enumerate_uniform(2, 2)
        found = all_equilibria(matching_pennies_game(), 0.4, uset)
        assert (1, 1) in found


class TestExhaustiveSearch:
    def test_returns_minimum_index_element(self):
        uset = enumerate_uniform(2, 1)
        game = identity_edge_game()
        first = exhaustive_search(game, 0.1, uset)
        everything = all_equilibria(game, 0.1, uset)
        assert first is not None
        assert tuple(uset.index_of(s) for s in first) == everything[0]

    def test_present_iff_any(self):
        uset = enumerate_uniform(2, 1)
        assert exhaustive_search(matching_pennies_game(), 0.4, uset) is None
        assert exhaustive_search(zero_game(2, [(0, 1)]), 0.4, uset) is not None

    def test_result_verifies(self):
        uset = enumerate_uniform(2, 2)
        game = identity_edge_game()
        profile = exhaustive_search(game, 0.3, uset)
        assert verify_profile(game, profile, 0.3).accepted

    def test_cap_exceeded(self):
        uset = enumerate_uniform(2, 2)  # 3 strategies, 9 profiles
        with pytest.raises(CapExceeded):
            exhaustive_search(zero_game(2, [(0, 1)]), 0.5, uset, cap=5)


class TestVerifyProfile:
    def test_zero_game_accepts_anything(self):
        result = verify_profile(zero_game(2, [(0, 1)]), [E1, E2], 0.01)
        assert result.accepted
        assert result.regrets.tolist() == [0.0, 0.0]
        assert result.certificate is not None

    def test_mismatch_rejected_with_unit_regrets(self):
        result = verify_profile(identity_edge_game(), [E1, E2], 0.5)
        assert not result.accepted
        assert result.regrets.tolist() == [1.0, 1.0]
        assert result.certificate is None

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            verify_profile(identity_edge_game(), [E1, np.array([0.5, 0.4])], 0.5)

    def test_tolerance_bias_toward_acceptance(self):
        result = verify_profile(identity_edge_game(), [E1, E1], 0.0)
        assert result.accepted  # exact equilibrium passes at epsilon 0

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, -1e-12])
    def test_non_finite_or_negative_epsilon_raises(self, epsilon):
        # inf would accept every profile and NaN reject every one
        with pytest.raises(ValueError, match="epsilon"):
            verify_profile(identity_edge_game(), [E1, E1], epsilon)
        uset = enumerate_uniform(2, 1)
        with pytest.raises(ValueError, match="epsilon"):
            next(iter_equilibria(zero_game(2, [(0, 1)]), epsilon, uset))
