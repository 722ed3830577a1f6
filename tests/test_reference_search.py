"""The solver's profile against the top-down reference search of helpers.py.

The reference decides each cell from the plain definition, one
is_epsilon_best_response call per tuple in canonical order, so it reaches
theoretical grids whose full tables the brute-force oracle cannot enumerate.
"""

import math

import pytest

from helpers import path_edges, reference_profile
from treenash.generator import random_normalized_game, random_tree
from treenash.solver import SolverConfig, solve
from treenash.uniform import enumerate_uniform, support_size

# (players, actions, epsilon the game is normalized for, solve epsilon, b,
# topology, payoff seed)
CASES = {
    "theory-path": (3, 2, 0.8, 0.8, 240, path_edges(3), 1),
    "path-4-b710": (4, 2, 0.5, 0.5, 710, path_edges(4), 1),
    "path-8-b799": (8, 2, 0.5, 0.5, 799, path_edges(8), 1),
    "random-tree-8-b799": (8, 2, 0.5, 0.5, 799, random_tree(8, 1), 1),
    **{
        f"exhaustive-random-{seed}": (32, 3, 0.5, 0.5, 4, random_tree(32, seed), seed)
        for seed in (1, 2, 3, 4)
    },
    # a small epsilon for the normalization: sparse candidate sets
    "sparse-eps0.1": (32, 3, 0.5, 0.1, 4, None, 1),
}
THEORETICAL = ["theory-path", "path-4-b710", "path-8-b799", "random-tree-8-b799"]


@pytest.mark.parametrize("case", THEORETICAL)
def test_theoretical_cases_use_the_default_support_size(case):
    n, m, _, epsilon, b, _, _ = CASES[case]
    assert support_size(m, n, epsilon) == b


@pytest.mark.parametrize("case", list(CASES))
def test_solve_returns_the_reference_profile_bit_for_bit(case):
    n, m, normalized_for, epsilon, b, topology, seed = CASES[case]
    game = random_normalized_game(n, m, normalized_for, topology=topology, rng_seed=seed)
    uset = enumerate_uniform(m, b)
    expected = reference_profile(game, epsilon, uset)
    assert expected is not None
    config = SolverConfig(epsilon=epsilon, b_override=b, lp_threshold=math.inf, rng_seed=seed)
    profile = solve(game, config).profile
    assert len(profile) == n
    for strategy, index in zip(profile, expected):
        assert strategy.tobytes() == uset.probs[index].tobytes()
