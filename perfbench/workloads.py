"""The benchmark's named workloads.

Each workload fixes the tree shapes, the grid size ``b`` and the membership
route; the run's ``--seed`` draws the payoffs and the solver's sampling seed.
Tree shapes are fixed because they set how many membership tests a solve runs
(every mask the workloads produce is dense), so fixing them keeps the work per
run the same across seeds while the payoffs still change the witnesses, the LP
data and the fallbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_actions: int
    epsilon: float
    # One entry per game of a pass: ("random", n, tree_seed), ("path", n) or ("star", n).
    shapes: tuple[tuple, ...]
    b: int | None  # None: the theoretical support size
    lp_threshold: int | float | None  # None: the solver's child-count default


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exhaustive-random",
            why="random trees n=32 m=3 b=4 with the LP route off: the multi-child "
            "exhaustive product scan and its best-response checks",
            num_actions=3,
            epsilon=0.5,
            shapes=tuple(("random", 32, tree_seed) for tree_seed in (1, 2, 3, 4)),
            b=4,
            lp_threshold=math.inf,
        ),
        Workload(
            name="lp-random",
            why="a random tree n=32 m=3 b=4 (the first exhaustive-random tree) with "
            "lp_threshold=2: about 1800 small LPs per solve, LP per-call overhead, "
            "rounding and fallbacks",
            num_actions=3,
            epsilon=0.5,
            shapes=(("random", 32, 1),),
            b=4,
            lp_threshold=2,
        ),
        Workload(
            name="theory-path",
            why="path n=3 m=2 eps=0.8 at the theoretical b=240 (K=241): 58k tests with "
            "early exit at the first hit, 58k stored witnesses, large-grid enumeration",
            num_actions=2,
            epsilon=0.8,
            shapes=(("path", 3),),
            b=None,
            lp_threshold=None,
        ),
        Workload(
            name="star-wide",
            why="stars n=301 m=3 b=3, default LP threshold: one 300-child LP at the root, "
            "300 leaf masks, a 301-player verify and the largest memory",
            num_actions=3,
            epsilon=0.5,
            shapes=(("star", 301),) * 8,
            b=3,
            lp_threshold=None,
        ),
    )
}


def shape_edges(shape: tuple) -> tuple[int, list[tuple[int, int]]]:
    """Player count and edge list of one tree shape."""
    from treenash.generator import random_tree

    kind, n = shape[0], shape[1]
    if kind == "random":
        return n, random_tree(n, shape[2])
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "star":
        return n, [(0, i) for i in range(1, n)]
    raise ValueError(f"unknown tree shape {shape!r}")
