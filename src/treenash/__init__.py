"""Approximate Nash equilibrium computation for polymatrix games on trees.

The solver roots the game tree and searches it top-down: the root tries
its strategies (on a grid of uniform mixed strategies) in order, and each
cell, whether a player's strategy extends into a partial equilibrium of its
subtree under a parent strategy, is decided only when that search reads it.
A cell is decided either by an exhaustive scan of its children's candidate
strategies or through an LP relaxation with randomized rounding; every
output is re-verified, so results are always correct and randomness affects
running time only.
"""

from .errors import (
    CapExceeded,
    InternalSoundnessViolation,
    InvalidEpsilon,
    InvalidGame,
    InvalidPlayerId,
    MissingNeighborStrategy,
    NoEquilibriumFound,
    NotATree,
    SchemaError,
    SetTooLarge,
    TreenashError,
)
from .game import (
    Edge,
    EquilibriumCertificate,
    NormalizationReport,
    RootedTree,
    TreePolymatrixGame,
    action_payoffs,
    check_normalized,
    check_profile,
    check_strategy,
    deviation_payoff,
    entry_bound,
    expected_utility,
    is_epsilon_best_response,
    regret,
    regrets,
    validate_and_root,
)
from .generator import prufer_to_edges, random_normalized_game, random_tree
from .lp import (
    Extension,
    FractionalExtension,
    LpInstance,
    build_lp,
    check_concentration_event,
    max_residual,
    round_extension,
    solve_feasibility,
)
from .oracle import VerificationResult, all_equilibria, exhaustive_search, verify_profile
from .solver import (
    CandidateTables,
    SolveStats,
    SolverConfig,
    backtrack,
    build_tables,
    default_lp_threshold,
    exhaustive_membership,
    membership_test,
    process_root,
    solve,
)
from .uniform import UniformStrategySet, count_uniform, enumerate_uniform, support_size

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CandidateTables",
    "Edge",
    "EquilibriumCertificate",
    "Extension",
    "FractionalExtension",
    "InternalSoundnessViolation",
    "InvalidEpsilon",
    "InvalidGame",
    "InvalidPlayerId",
    "LpInstance",
    "MissingNeighborStrategy",
    "NoEquilibriumFound",
    "NormalizationReport",
    "NotATree",
    "RootedTree",
    "SchemaError",
    "SetTooLarge",
    "SolveStats",
    "SolverConfig",
    "TreePolymatrixGame",
    "TreenashError",
    "UniformStrategySet",
    "VerificationResult",
    "action_payoffs",
    "all_equilibria",
    "backtrack",
    "build_lp",
    "build_tables",
    "check_concentration_event",
    "check_normalized",
    "check_profile",
    "check_strategy",
    "count_uniform",
    "default_lp_threshold",
    "deviation_payoff",
    "entry_bound",
    "enumerate_uniform",
    "exhaustive_membership",
    "exhaustive_search",
    "expected_utility",
    "is_epsilon_best_response",
    "max_residual",
    "membership_test",
    "process_root",
    "prufer_to_edges",
    "random_normalized_game",
    "random_tree",
    "regret",
    "regrets",
    "round_extension",
    "solve",
    "solve_feasibility",
    "support_size",
    "validate_and_root",
    "verify_profile",
]
