"""Enumeration, counting, and canonical indexing of b-uniform mixed strategies.

A strategy is b-uniform when it is a uniform distribution over a size-b
multiset of actions, i.e. every probability is an integer multiple of 1/b.
The full set of such strategies is the search grid for the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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


def _compositions(m: int, b: int) -> Iterator[tuple[int, ...]]:
    # Yields count vectors summing to b in strictly increasing colexicographic
    # order (last coordinate slowest-changing comparison key).
    if m == 1:
        yield (b,)
        return
    for last in range(b + 1):
        for prefix in _compositions(m - 1, b - last):
            yield prefix + (last,)


def _colex_rank(counts) -> int:
    # Rank of a count vector within the colex enumeration, via stars-and-bars
    # prefix counts; inverse of the order produced by _compositions.
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
    counts = np.fromiter(
        (k for vec in _compositions(m, b) for k in vec),
        dtype=np.int64,
        count=total * m,
    ).reshape(total, m)
    probs = counts / float(b)
    counts.setflags(write=False)
    probs.setflags(write=False)
    return UniformStrategySet(m=m, b=b, counts=counts, probs=probs)
