"""Linear feasibility test for extending a strategy across a player's children,
plus randomized rounding of the fractional solution into concrete choices.

The program LP(player, parent, z, y) has one block of mixture weights alpha_c
per child c, over that child's candidate strategies X_c (one candidate per row).
Its rows are one simplex equality per child (the weights sum to one) and one
inequality per action j requiring y to be an (epsilon/2)-best response to the
parent strategy z and the aggregates sigma_c = X_c^T alpha_c. The aggregates are
substituted into the rows, so the weights are the only variables, and the
objective is zero: the backend decides feasibility directly. Wide programs
pass their simplex rows to the backend in sparse form. Every solution is then
re-checked against the instance arrays within the tolerance.

The work around the backend runs in array passes over all children at once,
each with the bits of the per-child formula it replaces, so the programs, the
draws and the witnesses are those of a loop over the children.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import getitem
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from .game import RootedTree, TreePolymatrixGame, is_epsilon_best_response, mixed_payoff
from .uniform import UniformStrategySet

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SolveStats

logger = logging.getLogger(__name__)

DEFAULT_LP_TOLERANCE = 1e-7

# Size d * n (children times variables) above which ``build_lp`` leaves the
# dense simplex rows out (``a_eq`` is None) and the backend receives them in
# sparse form, one 1 per column. The backend holds its model sparse either
# way, so the model and the solutions are the same; what differs is the
# conversion work before the solve. Measured per call on a 2-vCPU host: the
# sparse form costs about 0.5 ms more on lp-random's programs (d * n <= 240)
# and saves about 8 ms on star-wide's 300-child root programs (d * n about
# 7.9e5); on star programs of 10-300 children the two forms cost the same
# between d * n = 3e4 and 9e4.
_SPARSE_SIMPLEX_MIN_SIZE = 60_000


@dataclass(eq=False)
class LpInstance:
    """One feasibility program; trivially infeasible when a candidate set is empty.

    The variables are the children's alpha blocks, concatenated in child order
    (``alpha_slices``), each bounded below by zero. ``a_eq`` holds one simplex
    row per child (``b_eq`` its right-hand sides, all ones), and is None when
    the program is wide, d * n above a size, where the rows are built sparse
    from ``alpha_slices`` at solve time. ``a_ub`` holds one best-response row
    per action.
    """

    player: int
    parent: int | None
    child_ids: tuple[int, ...]
    candidate_indices: tuple[np.ndarray, ...]
    candidate_probs: tuple[np.ndarray, ...]
    strategy: np.ndarray  # y, the strategy being extended
    base_payoffs: np.ndarray  # A[player, parent] @ z, or zeros at the root
    epsilon: float
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    alpha_slices: tuple[slice, ...] = ()
    num_variables: int = 0
    empty_children: tuple[int, ...] = ()

    @property
    def trivially_infeasible(self) -> bool:
        return bool(self.empty_children)


@dataclass(eq=False)
class FractionalExtension:
    """A feasible fractional solution: per-child candidate mixtures and their
    aggregates, ``sigmas[i] = alphas[i] @ candidate_probs[i]``."""

    child_ids: tuple[int, ...]
    candidate_indices: tuple[np.ndarray, ...]
    candidate_probs: tuple[np.ndarray, ...]
    alphas: tuple[np.ndarray, ...]
    sigmas: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Extension:
    """Concrete per-child strategy choices, referenced by canonical set index."""

    child_ids: tuple[int, ...]
    strategy_indices: tuple[int, ...]


def _payoff_slots(game: TreePolymatrixGame, player: int, neighbors) -> np.ndarray:
    """The slots of ``game.payoffs`` that hold ``A[player, q]``, one per given
    neighbour q, in the given order; KeyError if one is not a neighbour."""
    lo = game.offsets[player]
    own = game.neighbor_ids[lo:game.offsets[player + 1]]
    neighbors = np.asarray(neighbors, dtype=own.dtype)
    at = own.searchsorted(neighbors)
    if len(at) and (not len(own) or (own.take(at, mode="clip") != neighbors).any()):
        raise KeyError((player, tuple(neighbors)))
    return lo + at


def _padded_rows(rows: Sequence[np.ndarray], fill) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D ``rows`` as the rows of one 2-D array, in order, each padded
    with ``fill`` to the longest; and the rows' lengths."""
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    flat = np.concatenate(rows) if len(rows) else np.empty(0)
    padded = np.full((len(rows), sizes.max(initial=0)), fill, dtype=flat.dtype)
    padded[np.arange(padded.shape[1]) < sizes[:, None]] = flat
    return padded, sizes


def build_lp(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    player: int,
    parent: int | None,
    z: np.ndarray | None,
    y: np.ndarray,
    candidate_sets: Mapping[int, np.ndarray],
    uset: UniformStrategySet,
    epsilon: float,
) -> LpInstance:
    """Assemble LP(player, parent, z, y) for the given per-child candidate sets.

    ``candidate_sets`` maps each child to the canonical indices of its
    candidates; when the player is the root, ``parent`` and ``z`` are omitted
    and the parent terms vanish. Child c's block of best-response rows is
    ``(A[player, c] - y @ A[player, c]) @ X_c^T`` bit for bit, taken from one
    stacked product over all children and grid strategies; the candidates'
    strategies (``candidate_probs``) are views of one gathered array.
    """
    children = rooted.children[player]
    if set(candidate_sets) != set(children):
        raise ValueError(f"candidate sets must be keyed by the children of {player}")
    if (parent is None) != (z is None):
        raise ValueError("parent and z must be supplied together")
    m = game.num_actions
    y = np.asarray(y, dtype=np.float64)
    if parent is None:
        base = np.zeros(m)
    else:
        base = game.matrix(player, parent) @ np.asarray(z, dtype=np.float64)

    cand_idx = tuple(np.asarray(candidate_sets[c], dtype=np.int64) for c in children)
    sizes = [len(idx) for idx in cand_idx]
    bounds = list(accumulate(sizes, initial=0))
    alpha_slices = tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    flat = np.concatenate([np.empty(0, dtype=np.int64), *cand_idx])
    probs = uset.probs[flat]  # every child's candidates, in child order
    common = dict(
        player=player,
        parent=parent,
        child_ids=tuple(children),
        candidate_indices=cand_idx,
        candidate_probs=tuple(probs[sl] for sl in alpha_slices),
        strategy=y,
        base_payoffs=base,
        epsilon=epsilon,
    )
    empty = tuple(c for c, size in zip(children, sizes) if size == 0)
    if empty:
        return LpInstance(**common, empty_children=empty)

    num_vars = bounds[-1]
    owners = np.repeat(np.arange(len(children)), sizes)  # each variable's child
    a_eq = None
    if len(children) * num_vars <= _SPARSE_SIMPLEX_MIN_SIZE:
        # each child's mixture weights sum to one
        a_eq = np.zeros((len(children), num_vars))
        a_eq[owners, np.arange(num_vars)] = 1.0

    # Best-response rows, rearranged to <= form with sigma_c = X_c^T alpha_c:
    #   sum_c (e_j - y)^T A[player,c] X_c^T alpha_c <= (y - e_j)^T base + epsilon/2
    # One stacked product over the children's payoff slots gives every child's
    # (A_c - y @ A_c) @ x for every grid strategy x, with the bits of the
    # per-child product (A_c - y @ A_c) @ X_c^T, and each child's candidate
    # columns are gathered from it. Its d * m * K float64 values take fewer
    # bytes than the d * K * K mask cells the candidate sets come from once
    # K > 8m.
    mats = game.payoffs[_payoff_slots(game, player, children)]
    diffs = mats - (y @ mats)[:, None, :]
    # Kept row-major: ``_residual`` reads it with a gemv, which sums the rows
    # of a column-major array in another order.
    a_ub = np.ascontiguousarray((diffs @ uset.probs.T).transpose(1, 0, 2)[:, owners, flat])
    # numpy multiplies by a single column with gemv, which rounds differently
    # from gemm: a one-candidate child's column is its own stacked gemv
    single = [i for i, size in enumerate(sizes) if size == 1]
    if single:
        columns = [bounds[i] for i in single]
        a_ub[:, columns] = (diffs[single] @ probs[columns, :, None])[..., 0].T
    b_ub = mixed_payoff(y, base) - base + epsilon / 2.0

    return LpInstance(
        **common,
        a_eq=a_eq,
        b_eq=np.ones(len(children)),
        a_ub=a_ub,
        b_ub=b_ub,
        alpha_slices=alpha_slices,
        num_variables=num_vars,
    )


def _block_starts(instance: LpInstance) -> np.ndarray:
    """First variable of each child's block, in child order."""
    slices = instance.alpha_slices
    return np.fromiter((sl.start for sl in slices), dtype=np.intp, count=len(slices))


def _simplex_rows(instance: LpInstance, starts: np.ndarray) -> csc_array:
    """The simplex rows in sparse form: column j holds a 1 in its child's row."""
    n = instance.num_variables
    rows = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
    return csc_array((np.ones(n), rows, np.arange(n + 1)), shape=(len(starts), n))


def _residual(instance: LpInstance, x: np.ndarray, starts: np.ndarray) -> float:
    worst = max(0.0, -float(x.min(initial=0.0)))
    if instance.b_eq is not None:
        # one block sum per simplex row, whether or not ``a_eq`` is built
        sums = np.add.reduceat(x, starts)
        worst = max(worst, float(np.abs(sums - instance.b_eq).max(initial=0.0)))
    if instance.a_ub is not None:
        worst = max(worst, float(np.maximum(instance.a_ub @ x - instance.b_ub, 0.0).max()))
    return worst


def max_residual(instance: LpInstance, frac: FractionalExtension) -> float:
    """Largest constraint violation of a fractional solution, recomputed directly
    from the instance (independent of whatever solver produced it): negative
    weights, simplex rows as block sums over ``alpha_slices``, and the
    best-response rows ``a_ub``."""
    x = np.concatenate([np.zeros(0), *frac.alphas])
    return _residual(instance, x, _block_starts(instance))


def solve_feasibility(
    instance: LpInstance,
    tolerance: float = DEFAULT_LP_TOLERANCE,
    stats: "SolveStats | None" = None,
) -> FractionalExtension | None:
    """Return a fractional extension if the program is feasible, else None.

    A returned solution has its weights clamped to zero and renormalized per
    child, and its largest constraint violation, recomputed from the instance
    arrays, is within ``tolerance`` (finite and positive, else ValueError).
    Numerical failures of the backend are logged and treated as infeasible, so
    callers can always fall back to exhaustive search. Identical instances
    yield identical solutions (the backend is deterministic). A childless
    program has no variables and is decided without the backend: feasible,
    with an empty extension, exactly when y is an (epsilon/2)-best response to
    the parent term. When ``stats`` is given, the residual of a returned
    solution is folded into ``stats.max_lp_residual``.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError("tolerance must be finite and positive")
    if instance.trivially_infeasible:
        return None
    if instance.num_variables == 0:  # childless: y against the parent term alone
        empty = FractionalExtension((), (), (), (), ())
        return empty if max_residual(instance, empty) <= tolerance else None
    starts = _block_starts(instance)
    result = linprog(
        np.zeros(instance.num_variables),
        A_ub=instance.a_ub,
        b_ub=instance.b_ub,
        A_eq=instance.a_eq if instance.a_eq is not None else _simplex_rows(instance, starts),
        b_eq=instance.b_eq,
        bounds=(0.0, None),
        method="highs",
    )
    if result.status != 0:
        if result.status == 2:
            return None
        logger.warning(
            "numerical failure in feasibility solve for player %d (status %d: %s); "
            "treating as infeasible",
            instance.player,
            result.status,
            result.message,
        )
        return None

    x = np.clip(result.x, 0.0, None)  # degenerate tiny negatives are clamped
    totals = np.add.reduceat(x, starts)
    if (totals <= 0.0).any():
        logger.warning(
            "degenerate mixture block for player %d; treating as infeasible",
            instance.player,
        )
        return None
    x /= np.repeat(totals, np.diff(starts, append=instance.num_variables))
    residual = _residual(instance, x, starts)
    if residual > tolerance:
        logger.warning(
            "post-clamp residual exceeds tolerance for player %d; treating as infeasible",
            instance.player,
        )
        return None
    if stats is not None:
        stats.max_lp_residual = max(stats.max_lp_residual, residual)
    alphas = tuple(x[sl] for sl in instance.alpha_slices)
    return FractionalExtension(
        child_ids=instance.child_ids,
        candidate_indices=instance.candidate_indices,
        candidate_probs=instance.candidate_probs,
        alphas=alphas,
        sigmas=tuple(a @ p for a, p in zip(alphas, instance.candidate_probs)),
    )


def round_extension(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    player: int,
    z: np.ndarray | None,
    y: np.ndarray,
    frac: FractionalExtension,
    epsilon: float,
    rng_seed,
    max_tries: int = 64,
    stats: "SolveStats | None" = None,
) -> Extension | None:
    """Sample per-child candidates from the fractional mixtures until the drawn
    tuple makes y an epsilon-best response (checked directly), or give up.

    Sampling is reproducible from ``rng_seed``; the generator is owned by this
    call and never shared. Each sample draws ``rng.random(d)``, one number
    per child, and takes in each child the candidate at which the running sum
    of its weights first exceeds its draw, or its last candidate when the
    draw reaches the total: the clamped ``searchsorted(cumsum, draw,
    side="right")``, found for all children by one count over padded rows.
    Returns None after ``max_tries`` failures (one for a program without
    children, whose empty tuple is the only draw), which signals the caller
    to fall back to exhaustive search.
    """
    parent = rooted.parent[player]
    if parent is not None and z is None:
        raise ValueError(f"player {player} has a parent; z is required")
    rng = np.random.default_rng(rng_seed)
    d = len(frac.child_ids)
    # a padded entry repeats its row's total: a draw counts it only when it
    # counts the last candidate too, and the clamp takes that candidate
    weights, sizes = _padded_rows(frac.alphas, 0.0)
    cums, last = np.cumsum(weights, axis=1), sizes - 1
    fixed = {parent: np.asarray(z, dtype=np.float64)} if parent is not None else {}
    if stats is not None:
        stats.rounding_calls += 1
    # a childless program draws nothing, so its one check is deterministic
    for _ in range(max_tries if d else 1):
        draws = rng.random(d)
        positions = np.minimum((cums <= draws[:, None]).sum(axis=1), last).tolist()
        chosen = map(getitem, frac.candidate_probs, positions)
        neighbor_strategies = dict(fixed)
        neighbor_strategies.update(zip(frac.child_ids, chosen))
        if stats is not None:
            stats.rounding_samples += 1
        if is_epsilon_best_response(game, player, y, neighbor_strategies, epsilon):
            if stats is not None:
                stats.rounding_accepts += 1
            return Extension(
                child_ids=frac.child_ids,
                strategy_indices=tuple(map(int, map(getitem, frac.candidate_indices, positions))),
            )
    return None


def check_concentration_event(
    game: TreePolymatrixGame,
    player: int,
    sampled: Extension,
    frac: FractionalExtension,
    epsilon: float,
) -> bool:
    """True iff every action's sampled aggregate payoff stays within epsilon/4
    of its fractional expectation.

    Diagnostic only: the accept/reject path uses the direct best-response
    check, which this event implies. Both sides are computed for all children
    in one pass, with the bits of a per-child loop that adds each child's
    ``A[player, c] @ x`` to zeros in child order.
    """
    m = game.num_actions
    # each sampled index's first place among its child's candidates
    sampled_at = np.reshape(sampled.strategy_indices, (-1, 1))
    candidates, sizes = _padded_rows(frac.candidate_indices, -1)
    hits = candidates == sampled_at
    found = hits.any(axis=1)
    if not found.all():
        child = sampled.child_ids[int(np.argmin(found))]
        raise ValueError(f"sampled strategy for child {child} is not a candidate")
    # without children hits is (0, 0), and argmax has no column to scan
    first = hits.argmax(axis=1) if hits.shape[1] else sizes
    probs = np.concatenate([np.empty((0, m)), *frac.candidate_probs])
    mats = game.payoffs[_payoff_slots(game, player, sampled.child_ids)]
    sampled_payoffs = _summed_payoffs(mats, probs[np.cumsum(sizes) - sizes + first])
    expected_payoffs = _summed_payoffs(mats, np.reshape(frac.sigmas, (-1, m)))
    return bool(np.all(np.abs(sampled_payoffs - expected_payoffs) <= epsilon / 4.0 + 1e-12))


def _summed_payoffs(mats: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``sum_c mats[c] @ vectors[c]``: one gemv per child, added to zeros in
    child order, as ``action_payoffs`` adds its terms."""
    terms = (mats @ vectors[:, :, None])[:, :, 0]
    return np.cumsum(np.concatenate([np.zeros((1, vectors.shape[1])), terms]), axis=0)[-1]
