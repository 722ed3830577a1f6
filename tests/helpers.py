"""Shared game builders and independent brute-force utilities for the tests."""

from __future__ import annotations

import itertools
import math

import numpy as np

from treenash.game import (
    Edge,
    EntryViolation,
    TreePolymatrixGame,
    UtilityRangeViolation,
    entry_bound,
)


def game_from_matrices(n, m, edge_matrices):
    """Build a game from (u, v, payoff_u_v, payoff_v_u) tuples."""
    edges = [Edge(u, v, np.asarray(a, dtype=float), np.asarray(b, dtype=float))
             for u, v, a, b in edge_matrices]
    return TreePolymatrixGame(num_players=n, num_actions=m, edges=edges)


def identity_edge_game(m=2, scale=1.0):
    """Single-edge coordination game: both payoff matrices scale * I."""
    eye = np.eye(m) * scale
    return game_from_matrices(2, m, [(0, 1, eye, eye.copy())])


def matching_pennies_game():
    """Single edge where player 0 wants to match and player 1 to mismatch."""
    eye = np.eye(2)
    return game_from_matrices(2, 2, [(0, 1, eye, np.ones((2, 2)) - eye)])


def zero_game(n, edges, m=2):
    zero = np.zeros((m, m))
    return game_from_matrices(n, m, [(u, v, zero, zero) for u, v in edges])


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def star_edges(n):
    return [(0, i) for i in range(1, n)]


def pure_utility(game, p, actions):
    """Utility of p under a pure action profile, summed directly over edges."""
    total = 0.0
    for q in game.neighbors(p):
        total += float(game.matrix(p, q)[actions[p], actions[q]])
    return total


def enumerated_expected_utility(game, p, strategies):
    """Expected utility by full enumeration of pure profiles (linearity oracle)."""
    total = 0.0
    for actions in itertools.product(range(game.num_actions), repeat=game.num_players):
        weight = 1.0
        for q in range(game.num_players):
            weight *= float(strategies[q][actions[q]])
        if weight:
            total += weight * pure_utility(game, p, actions)
    return total


def random_small_game(rng, n=None, m=None):
    """Random tree game with uniform [0, 1) entries (not necessarily normalized)."""
    n = n if n is not None else int(rng.integers(2, 4))
    m = m if m is not None else int(rng.integers(2, 4))
    edges = []
    for child in range(1, n):
        parent = int(rng.integers(0, child))
        edges.append((parent, child, rng.random((m, m)), rng.random((m, m))))
    return game_from_matrices(n, m, edges)


def reference_normalization(game, epsilon, log_base=math.e, atol=1e-12):
    """(entry violations, utility violations) of check_normalized, found by a
    plain loop over players and their neighbours in ascending order."""
    entry_violations, utility_violations = [], []
    for p in range(game.num_players):
        if game.degree(p) == 0:
            continue
        bound = entry_bound(game.degree(p), game.num_actions, epsilon, log_base)
        total_max = np.zeros(game.num_actions)
        total_min = np.zeros(game.num_actions)
        for q in game.neighbors(p):
            a = game.matrix(p, q)
            for row in range(game.num_actions):
                for col in range(game.num_actions):
                    value = float(a[row, col])
                    if value > bound + atol or value < -atol:
                        entry_violations.append(EntryViolation(p, q, row, col, value, bound))
            total_max += a.max(axis=1)
            total_min += a.min(axis=1)
        if float(total_max.max()) > 1.0 + atol:
            utility_violations.append(UtilityRangeViolation(p, "max", float(total_max.max())))
        if float(total_min.min()) < -atol:
            utility_violations.append(UtilityRangeViolation(p, "min", float(total_min.min())))
    return entry_violations, utility_violations
