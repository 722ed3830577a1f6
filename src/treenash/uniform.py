"""Enumeration, counting, and canonical indexing of b-uniform mixed strategies.

A strategy is b-uniform when it is a uniform distribution over a size-b
multiset of actions, i.e. every probability is an integer multiple of 1/b.
The full set of such strategies is the search grid for the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEpsilon, SetTooLarge

DEFAULT_ENUMERATION_CAP = 10_000_000


def validate_epsilon(epsilon: float) -> float:
    if not (0.0 < epsilon <= 1.0):
        raise InvalidEpsilon(f"epsilon must be in (0, 1], got {epsilon!r}")
    return float(epsilon)


def support_size(m: int, n: int, epsilon: float, *, halve: bool = True) -> int:
    """Multiset size b that makes the b-uniform grid rich enough for the solver.

    Evaluates ceil(8 (ln m + ln n - ln e + ln 8) / e^2). By default e =
    epsilon/2, so the grid is guaranteed to contain an (epsilon/2)-approximate
    equilibrium, which is what the dynamic program's completeness argument
    needs; ``halve=False`` evaluates the bound at epsilon itself.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    validate_epsilon(epsilon)
    eff = epsilon / 2.0 if halve else epsilon
    raw = 8.0 * (math.log(m) + math.log(n) - math.log(eff) + math.log(8.0)) / (eff * eff)
    return max(1, math.ceil(raw))


def count_uniform(m: int, b: int) -> int:
    """Number of b-uniform strategies over m actions: C(m + b - 1, m - 1).

    Exact integer arithmetic; Python integers cannot overflow or wrap.
    """
    if m < 1 or b < 1:
        raise ValueError("m and b must be >= 1")
    return math.comb(m + b - 1, m - 1)


def _colex_counts(m: int, b: int) -> np.ndarray:
    """Every count vector over m actions summing to b, one per row, in
    strictly increasing colexicographic order (the last count is the most
    significant), built in whole-array passes.

    The last count is the outermost loop, 0..b. Going down one count, each
    row with ``rest`` units left to place expands to rest + 1 consecutive
    rows that put 0..rest on that count; the first count takes what is left.
    """
    if m == 1:
        return np.full((1, 1), b, dtype=np.int64)
    last = np.arange(b + 1, dtype=np.int64)
    columns, rest = [last], b - last  # columns from the last count down
    for _ in range(m - 2):
        sizes = rest + 1
        parent = np.arange(rest.size).repeat(sizes)
        value = np.arange(parent.size) - (sizes.cumsum() - sizes)[parent]
        columns = [c[parent] for c in columns] + [value]
        rest = rest[parent] - value
    counts = np.empty((rest.size, m), dtype=np.int64)
    counts[:, 0] = rest
    for j, column in enumerate(columns, 1):
        counts[:, -j] = column
    return counts


def _colex_rank(counts) -> int:
    # Rank of a count vector within the colex enumeration, via stars-and-bars
    # prefix counts; inverse of the order produced by _colex_counts.
    rank = 0
    remaining = int(sum(counts))
    for pos in range(len(counts) - 1, 0, -1):
        k = int(counts[pos])
        for t in range(k):
            rank += math.comb(pos + (remaining - t) - 1, pos - 1)
        remaining -= k
    return rank


@dataclass(eq=False)
class UniformStrategySet:
    """All b-uniform strategies over m actions in canonical (colex) order.

    ``counts[i]`` is the i-th multiset count vector and ``probs[i] = counts[i]/b``
    the corresponding strategy. The index <-> strategy bijection is stable
    across runs.
    """

    m: int
    b: int
    counts: np.ndarray
    probs: np.ndarray

    def __len__(self) -> int:
        return self.probs.shape[0]

    def __getitem__(self, index: int) -> np.ndarray:
        return self.probs[index]

    def strategy_at(self, index: int) -> np.ndarray:
        return self.probs[index]

    def index_of(self, strategy) -> int:
        """Canonical index of a strategy whose probabilities are multiples of 1/b."""
        arr = np.asarray(strategy, dtype=np.float64)
        if arr.shape != (self.m,):
            raise ValueError(f"strategy has shape {arr.shape}, expected ({self.m},)")
        if not np.all(np.isfinite(arr) & (arr >= 0.0)):
            raise ValueError("strategy has negative or non-finite entries")
        counts = np.rint(arr * self.b).astype(np.int64)
        if int(counts.sum()) != self.b or np.any(np.abs(counts / self.b - arr) > 1e-9):
            raise ValueError("strategy is not on the 1/b probability grid")
        rank = _colex_rank(counts)
        if not (0 <= rank < len(self)):
            raise ValueError("strategy rank outside the enumerated set")
        return rank


def enumerate_uniform(m: int, b: int, cap: int = DEFAULT_ENUMERATION_CAP) -> UniformStrategySet:
    """Materialize the full b-uniform strategy set in canonical order."""
    total = count_uniform(m, b)
    if total > cap:
        raise SetTooLarge(
            f"uniform strategy set has {total} elements, exceeding the cap of {cap}"
        )
    counts = _colex_counts(m, b)
    probs = counts / float(b)
    counts.setflags(write=False)
    probs.setflags(write=False)
    return UniformStrategySet(m=m, b=b, counts=counts, probs=probs)
