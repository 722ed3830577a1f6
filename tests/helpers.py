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
    is_epsilon_best_response,
    validate_and_root,
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


def reference_profile(game, epsilon, uset, root=0):
    """The solver's canonical profile, found from the plain definition: the
    strategy indices of every player, or None when no root strategy extends.

    A cell (q, z, y) holds the first tuple of q's children's candidates, in
    C order (last child fastest), against which y is an epsilon-best response
    of q when its parent plays z, or None. Child c's candidates under y are
    the x whose cell (c, y, x) holds a tuple, in ascending order, found only
    as far as a walk reads them. The root tries y = 0, 1, ... and takes its
    first cell with a tuple. Every check is one is_epsilon_best_response call.
    """
    rooted = validate_and_root(game, root)
    probs, size = uset.probs, len(uset)
    cells, lists = {}, {}

    def candidate(child, y, position):
        """The candidate at ``position`` of ``child`` under ``y``, or None."""
        known, tried = lists.setdefault((child, y), ([], [0]))
        while len(known) <= position and tried[0] < size:
            x = tried[0]
            tried[0] += 1
            if cell(child, y, x) is not None:
                known.append(x)
        return known[position] if position < len(known) else None

    def cell(q, z, y):
        if (q, z, y) not in cells:
            cells[(q, z, y)] = first_tuple(q, z, y)
        return cells[(q, z, y)]

    def first_tuple(q, z, y):
        children, parent = rooted.children[q], rooted.parent[q]
        positions = [0] * len(children)
        if any(candidate(c, y, 0) is None for c in children):
            return None
        while True:
            chosen = tuple(candidate(c, y, p) for c, p in zip(children, positions))
            neighbors = {} if parent is None else {parent: probs[z]}
            neighbors.update({c: probs[x] for c, x in zip(children, chosen)})
            if is_epsilon_best_response(game, q, probs[y], neighbors, epsilon):
                return chosen
            i = len(children) - 1
            while i >= 0:  # the next tuple: carry from the last child
                positions[i] += 1
                if candidate(children[i], y, positions[i]) is not None:
                    break
                positions[i] = 0
                i -= 1
            if i < 0:
                return None

    for y in range(size):
        if cell(rooted.root, None, y) is None:
            continue
        profile = [None] * game.num_players
        profile[rooted.root] = y
        stack = [rooted.root]
        while stack:
            q = stack.pop()
            z = None if q == rooted.root else profile[rooted.parent[q]]
            for c, x in zip(rooted.children[q], cells[(q, z, profile[q])]):
                profile[c] = x
                stack.append(c)
        return profile
    return None
