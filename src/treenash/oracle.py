"""Brute-force search over full strategy-grid profiles, and profile verification.

Independent of the dynamic program: it shares only the regret computation, so
it serves as ground truth for the solver's outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded
from .game import (
    VERIFY_TOL,
    EquilibriumCertificate,
    TreePolymatrixGame,
    check_profile,
    regret,
    regrets,
)
from .uniform import UniformStrategySet

DEFAULT_PROFILE_CAP = 100_000_000


def _check_epsilon(epsilon: float) -> None:
    # 0 is an exact-equilibrium check; NaN and inf would accept or reject
    # every profile
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")


def iter_equilibria(
    game: TreePolymatrixGame,
    epsilon: float,
    uset: UniformStrategySet,
    cap: int = DEFAULT_PROFILE_CAP,
) -> Iterator[tuple[int, ...]]:
    """Yield index tuples of grid profiles whose max regret is within epsilon,
    in canonical order (last player's index varies fastest)."""
    _check_epsilon(epsilon)
    total = len(uset) ** game.num_players
    if total > cap:
        raise CapExceeded(f"{total} profile checks exceed the cap of {cap}")
    players = range(game.num_players)
    for indices in itertools.product(range(len(uset)), repeat=game.num_players):
        strategies = [uset.probs[i] for i in indices]
        if all(regret(game, p, strategies) <= epsilon + VERIFY_TOL for p in players):
            yield indices


def exhaustive_search(
    game: TreePolymatrixGame,
    epsilon: float,
    uset: UniformStrategySet,
    cap: int = DEFAULT_PROFILE_CAP,
) -> list[np.ndarray] | None:
    """First grid profile (canonical order) with max regret within epsilon, or None."""
    for indices in iter_equilibria(game, epsilon, uset, cap):
        return [uset.probs[i].copy() for i in indices]
    return None


def all_equilibria(
    game: TreePolymatrixGame,
    epsilon: float,
    uset: UniformStrategySet,
    cap: int = DEFAULT_PROFILE_CAP,
) -> list[tuple[int, ...]]:
    """Index tuples of every grid profile with max regret within epsilon."""
    return list(iter_equilibria(game, epsilon, uset, cap))


@dataclass(eq=False)
class VerificationResult:
    accepted: bool
    epsilon: float
    regrets: np.ndarray
    profile: list[np.ndarray]

    @property
    def max_regret(self) -> float:
        return float(self.regrets.max()) if self.regrets.size else 0.0

    @property
    def certificate(self) -> EquilibriumCertificate | None:
        if not self.accepted:
            return None
        return EquilibriumCertificate(
            profile=self.profile, epsilon=self.epsilon, regrets=self.regrets
        )


def verify_profile(
    game: TreePolymatrixGame, profile: Sequence, epsilon: float
) -> VerificationResult:
    """Compute every player's regret; accept iff the maximum is within epsilon
    (plus verification tolerance)."""
    _check_epsilon(epsilon)
    strategies = check_profile(game, profile)
    gaps = regrets(game, strategies)
    accepted = bool(gaps.size == 0 or float(gaps.max()) <= epsilon + VERIFY_TOL)
    return VerificationResult(accepted=accepted, epsilon=epsilon, regrets=gaps, profile=strategies)
