"""Seeded generation of random trees and normalized random games."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .game import Edge, TreePolymatrixGame, entry_bound, rooted_tree_from_edges
from .uniform import validate_epsilon


def prufer_to_edges(sequence: Sequence[int]) -> list[tuple[int, int]]:
    """Decode a length-(n-2) vertex sequence into the edges of a labeled tree on n vertices."""
    n = len(sequence) + 2
    degree = [1] * n
    for v in sequence:
        if not (0 <= v < n):
            raise ValueError(f"sequence value {v} outside [0, {n})")
        degree[v] += 1
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for v in sequence:
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def random_tree(n: int, rng_seed: int = 0) -> list[tuple[int, int]]:
    """Uniformly random labeled tree on n vertices, deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    rng = np.random.default_rng(rng_seed)
    sequence = [int(v) for v in rng.integers(0, n, size=n - 2)]
    return sorted(prufer_to_edges(sequence))


def random_normalized_game(
    n: int,
    m: int,
    epsilon: float,
    topology: Sequence[tuple[int, int]] | None = None,
    rng_seed: int = 0,
) -> TreePolymatrixGame:
    """Random tree game whose payoffs satisfy the degree-based normalization.

    Entries of each matrix paying player p are drawn iid uniform in
    [0, entry_bound(degree(p), m, epsilon)], where degrees are taken in the
    final tree. If some player's maximum pure utility then exceeds 1 (possible
    only when the epsilon branch of the bound exceeds 1/degree), all of that
    player's matrices are rescaled by its reciprocal; rescaling only shrinks
    entries, so the per-entry cap still holds.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    validate_epsilon(epsilon)
    if topology is None:
        edges = random_tree(n, rng_seed)
    else:
        edges = [(int(u), int(v)) for u, v in topology]
    rooted_tree_from_edges(n, edges, root=0)  # raises unless the topology is a tree

    ends = np.array(edges, dtype=np.intp).reshape(-1)  # owner of each matrix, in draw order
    degree = np.bincount(ends, minlength=n)
    bounds = np.array([entry_bound(int(d), m, epsilon) if d > 0 else 0.0 for d in degree])

    # Matrices come from a stream separate from the tree's so that the tree
    # matches random_tree(n, rng_seed) exactly.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(1,)))
    drawn = rng.uniform(0.0, bounds[ends][:, None, None], size=(len(ends), m, m))
    max_pure = np.zeros((n, m))
    np.add.at(max_pure, ends, drawn.max(axis=2))
    drawn *= (1.0 / np.maximum(max_pure.max(axis=1), 1.0))[ends][:, None, None]

    game_edges = [Edge(u, v, drawn[2 * i], drawn[2 * i + 1]) for i, (u, v) in enumerate(edges)]
    return TreePolymatrixGame(num_players=n, num_actions=m, edges=game_edges)
