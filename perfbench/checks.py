"""Correctness gate for every profile the benchmark gets back.

Written apart from the package on purpose: regrets are recomputed with numpy
over the game's edge list, and grid membership is read off the probabilities,
so a defect in the solver's own regret or grid code cannot pass itself.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Largest allowed |solver regret - independent regret| and distance from the 1/b grid.
REGRET_TOL = 1e-9
GRID_TOL = 1e-9
# Acceptance slack on max regret, equal to the package's documented VERIFY_TOL.
VERIFY_SLACK = 1e-9


def independent_regrets(game, profile) -> np.ndarray:
    """Each player's best pure payoff minus its mixed payoff, summed over the edge list."""
    x = np.asarray(profile, dtype=np.float64)
    payoffs = np.zeros_like(x)
    for edge in game.edges:
        payoffs[edge.u] += edge.payoff_u_v @ x[edge.v]
        payoffs[edge.v] += edge.payoff_v_u @ x[edge.u]
    return payoffs.max(axis=1) - (x * payoffs).sum(axis=1)


def grid_counts(profile, b: int) -> np.ndarray | None:
    """The b * x count vectors of a profile on the 1/b grid, or None when off it."""
    scaled = np.asarray(profile, dtype=np.float64) * b
    counts = np.rint(scaled)
    if (
        np.abs(scaled - counts).max() > GRID_TOL * b
        or (counts < 0).any()
        or (counts.sum(axis=1) != b).any()
    ):
        return None
    return counts.astype(np.int64)


def digest(counts: np.ndarray, b: int) -> str:
    """Short hash of a profile's grid points; equal profiles give equal digests."""
    h = hashlib.sha256(np.int64(b).tobytes())
    h.update(np.ascontiguousarray(counts, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def gate(game, profile, regrets, verification, epsilon: float, b: int) -> tuple[str | None, list[str]]:
    """Check one returned profile; return its digest (None when off the grid)
    and the list of problems found (empty when it passes)."""
    problems = []
    if not verification.accepted:
        problems.append(f"verify_profile rejected it (max regret {verification.max_regret!r})")
    counts = grid_counts(profile, b)
    if counts is None:
        problems.append(f"an entry is off the 1/{b} grid")
    reference = independent_regrets(game, profile)
    for label, values in (("solve", regrets), ("verify_profile", verification.regrets)):
        gap = float(np.abs(np.asarray(values, dtype=np.float64) - reference).max())
        if gap > REGRET_TOL:
            problems.append(f"{label} regrets differ from the independent ones by {gap!r}")
    if float(reference.max()) > epsilon + VERIFY_SLACK:
        problems.append(f"independent max regret {float(reference.max())!r} > epsilon {epsilon!r}")
    return (None if counts is None else digest(counts, b)), problems
