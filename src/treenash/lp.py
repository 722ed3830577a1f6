"""Linear feasibility test for extending a strategy across a player's children,
plus randomized rounding of the fractional solution into concrete choices.

The program LP(player, parent, z, y) has one block of mixture weights alpha_c
per child c, over that child's candidate strategies X_c (one candidate per row).
Its rows are one simplex equality per child (the weights sum to one) and one
inequality per action j requiring y to be an (epsilon/2)-best response to the
parent strategy z and the aggregates sigma_c = X_c^T alpha_c. The aggregates are
substituted into the rows, so the weights are the only variables, and the
objective is zero: the backend decides feasibility directly. The backend is
HiGHS, called through scipy's bindings with the model and the options that
``scipy.optimize.linprog(method="highs")`` passes it, so its solutions are
``linprog``'s bit for bit. The simplex rows are never stored: the constraint
matrix is built from the best-response rows and the children's block starts,
in CSC form in one array pass, and only the status and the primal solution
are read back. Every solution is then re-checked against the instance arrays
within the tolerance.

The bindings are scipy's compiled extension ``scipy.optimize._highspy._core``,
loaded straight from its file under scipy's package directory and registered
under that name (``_load_highs_bindings``). Importing it the usual way runs
``scipy/optimize/__init__.py``, which loads about 320 scipy modules (linalg,
sparse, fft, ...) that nothing here uses: in a fresh interpreter it raised
the peak RSS of ``import treenash`` from 34 to 79 MB and its time from 0.17
to 0.73 s (Python 3.11, scipy 1.17.1, 2-vCPU host). Because the module is
registered under its own name, a later ``import scipy.optimize`` reuses it,
and one imported before is used as it is, so ``linprog`` and this solver
share one HiGHS module in either import order.

The work around the backend runs in array passes over all children at once,
each with the bits of the per-child formula it replaces, so the programs, the
draws and the witnesses are those of a loop over the children.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass
from itertools import accumulate
from operator import getitem
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .game import (
    RootedTree, TreePolymatrixGame, is_epsilon_best_response, mixed_payoff, padded_rows,
    payoff_rows,
)
from .uniform import UniformStrategySet

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SolveStats

logger = logging.getLogger(__name__)

DEFAULT_LP_TOLERANCE = 1e-7

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs_bindings():
    """scipy's HiGHS extension module, loaded from its file without running
    ``scipy/optimize/__init__.py``; the module already in ``sys.modules``
    under its name if there is one. ImportError if scipy or the file is
    missing."""
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("the LP route needs scipy's HiGHS bindings, and scipy is not installed",
                          name="scipy")
    directory = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    files = (os.path.join(directory, "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next(filter(os.path.isfile, files), None)
    if path is None:
        raise ImportError(f"no HiGHS extension module _core in {directory}",
                          name=_HIGHS_MODULE, path=directory)
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    # registered first, as the import system does, so that a later
    # ``import scipy.optimize`` finds this module instead of loading a second
    sys.modules[_HIGHS_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return module


highspy = _load_highs_bindings()


@dataclass(eq=False)
class LpInstance:
    """One feasibility program: exactly what HiGHS receives, and the
    candidates the solution's mixtures range over.

    The variables are the children's alpha blocks, concatenated in child
    order, child i's block starting at ``block_starts[i]``, each weight
    bounded below by zero. ``a_ub`` holds one best-response row per action,
    bounded above by ``b_ub``. The simplex rows, one per child, are implicit:
    a 1 in each column of the child's block, equal to ``b_eq`` (all ones).
    A program with no variables is exactly a childless one. ``a_eq`` is
    always None, as no dense simplex rows are built; the benchmark's tracer
    reads it by name.
    """

    player: int
    child_ids: tuple[int, ...]
    candidate_indices: tuple[np.ndarray, ...]
    candidate_probs: tuple[np.ndarray, ...]
    a_ub: np.ndarray
    b_ub: np.ndarray
    b_eq: np.ndarray
    block_starts: np.ndarray
    num_variables: int
    a_eq: None = None


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
    candidates, at least one each (else ValueError, naming the child); when
    the player is the root, ``parent`` and ``z`` are omitted and the parent
    terms vanish. Child c's block of best-response rows is
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
    if 0 in sizes:
        raise ValueError(f"child {children[sizes.index(0)]} of player {player} has no candidates")
    bounds = list(accumulate(sizes, initial=0))
    flat = np.concatenate([np.empty(0, dtype=np.int64), *cand_idx])
    probs = uset.probs[flat]  # every child's candidates, in child order
    owners = np.repeat(np.arange(len(children)), sizes)  # each variable's child

    # Best-response rows, rearranged to <= form with sigma_c = X_c^T alpha_c:
    #   sum_c (e_j - y)^T A[player,c] X_c^T alpha_c <= (y - e_j)^T base + epsilon/2
    # One stacked product over the children's payoff slots gives every child's
    # (A_c - y @ A_c) @ x for every grid strategy x, with the bits of the
    # per-child product (A_c - y @ A_c) @ X_c^T, and each child's candidate
    # columns are gathered from it. Its d * m * K float64 values take fewer
    # bytes than the d * K * K mask cells the candidate sets come from once
    # K > 8m.
    lo = int(game.offsets[player])
    mats = game.payoffs[[lo + game.position(player, c) for c in children]]
    diffs = mats - (y @ mats)[:, None, :]
    # Kept row-major: ``_residual`` reads it with a gemv, which sums the rows
    # of a column-major array in another order.
    a_ub = np.ascontiguousarray((diffs @ uset.probs.T).transpose(1, 0, 2)[:, owners, flat])
    # numpy multiplies by a single column with gemv, which rounds differently
    # from gemm: a one-candidate child's column is its own stacked gemv
    single = [i for i, size in enumerate(sizes) if size == 1]
    if single:
        columns = [bounds[i] for i in single]
        a_ub[:, columns] = payoff_rows(diffs[single], probs[columns]).T

    return LpInstance(
        player=player,
        child_ids=tuple(children),
        candidate_indices=cand_idx,
        candidate_probs=tuple(probs[lo:hi] for lo, hi in zip(bounds, bounds[1:])),
        a_ub=a_ub,
        b_ub=mixed_payoff(y, base) - base + epsilon / 2.0,
        b_eq=np.ones(len(children)),
        block_starts=np.array(bounds[:-1], dtype=np.intp),
        num_variables=bounds[-1],
    )


def _constraint_matrix(instance: LpInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSC arrays (column starts, row indices, values) of ``a_ub`` stacked
    over the simplex rows: column j holds the nonzeros of ``a_ub``'s column j
    in row order, then a 1 in the row of its child, after the ``a_ub`` rows.
    Explicit zeros are left out, as ``scipy.sparse.csc_array`` leaves them."""
    (m, n), starts = instance.a_ub.shape, instance.block_starts
    owners = np.repeat(np.arange(len(starts), dtype=np.int32), np.diff(starts, append=n))
    values = np.hstack((instance.a_ub.T, np.ones((n, 1))))
    rows = np.hstack((np.broadcast_to(np.arange(m, dtype=np.int32), (n, m)), m + owners[:, None]))
    kept = values != 0.0
    column_starts = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(kept.sum(axis=1), out=column_starts[1:])
    return column_starts, rows[kept], values[kept]


# The options ``scipy.optimize.linprog(method="highs")`` sets, and no others:
# presolve on, the dual simplex, no debugging checks and no output. These and
# the statuses below are plain names and numbers, not the bindings' enums, and
# the options are set by name on each HiGHS object: reading the enums or
# building a ``HighsOptions`` at import raised the peak memory of solves that
# run no LP by 0.2-0.3 MB. The import itself cost far more: loading the
# bindings through ``scipy.optimize`` raised the peak RSS of every benchmark
# workload by about 39 MB (star-wide 87.9 against 49.4 MB) and the CLI's
# start-up by about 0.55 s, which ``_load_highs_bindings`` avoids.
_HIGHS_OPTIONS = {
    "presolve": "on",
    "simplex_strategy": 1,  # SimplexStrategy.kSimplexStrategyDual
    "highs_debug_level": 0,  # HighsDebugLevel.kHighsDebugLevelNone
    "output_flag": False,
    "log_to_console": False,
}

# HiGHS model statuses in ``linprog``'s numbering: 0 solved, 1 a limit reached,
# 2 infeasible, 3 unbounded; every other status is 4, a failure of the solver.
_LINPROG_STATUS = {
    "kOptimal": 0,
    "kTimeLimit": 1,
    "kIterationLimit": 1,
    "kInfeasible": 2,
    "kModelError": 2,
    "kUnbounded": 3,
}


def _highs_solve(instance: LpInstance) -> tuple[int, np.ndarray | None]:
    """Solve the program with HiGHS as ``linprog(method="highs")`` does, and
    return ``(status, x)``: ``linprog``'s status, and the primal solution when
    the status is 0, else None.

    The model is the one ``linprog`` passes (zero costs, bounds [0, inf), the
    ``a_ub`` rows below ``b_ub`` and the simplex rows equal to ``b_eq``), with
    the same options, so HiGHS returns the same bits. A model HiGHS refuses to
    load is a fault in these arrays, not an infeasible program: status 4.
    """
    (m, n), d = instance.a_ub.shape, len(instance.b_eq)
    column_starts, row_indices, values = _constraint_matrix(instance)
    highs = highspy._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        # a scipy whose HiGHS renamed or retyped an option must not solve
        # silently with its default
        if highs.setOptionValue(name, value) == highspy.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the option {name} = {value!r}")
    loaded = highs.passModel(
        n, m + d, len(values),
        highspy.MatrixFormat.kColwise, highspy.ObjSense.kMinimize, 0.0,
        np.zeros(n), np.zeros(n), np.full(n, np.inf),
        np.concatenate((np.full(m, -np.inf), instance.b_eq)),
        np.concatenate((instance.b_ub, instance.b_eq)),
        column_starts, row_indices, values,
        np.zeros(n, dtype=np.int32),  # every column continuous; an empty array is refused
    )
    if loaded == highspy.HighsStatus.kError:
        return 4, None
    highs.run()
    status = _LINPROG_STATUS.get(highs.getModelStatus().name, 4)
    return status, np.array(highs.getSolution().col_value) if status == 0 else None


def _residual(instance: LpInstance, x: np.ndarray) -> float:
    if not np.isfinite(x).all():
        return math.inf  # NaN compares false, so no maximum below would show it
    sums = np.add.reduceat(x, instance.block_starts)  # one per simplex row
    return max(
        0.0,
        -float(x.min(initial=0.0)),
        float(np.abs(sums - instance.b_eq).max(initial=0.0)),
        float(np.maximum(instance.a_ub @ x - instance.b_ub, 0.0).max()),
    )


def max_residual(instance: LpInstance, frac: FractionalExtension) -> float:
    """Largest constraint violation of a fractional solution, recomputed directly
    from the instance (independent of whatever solver produced it): negative
    weights, simplex rows as block sums from ``block_starts``, and the
    best-response rows ``a_ub``; infinite when a weight is NaN or infinite."""
    return _residual(instance, np.concatenate([np.zeros(0), *frac.alphas]))


def solve_feasibility(
    instance: LpInstance,
    tolerance: float = DEFAULT_LP_TOLERANCE,
    stats: "SolveStats | None" = None,
) -> FractionalExtension | None:
    """Return a fractional extension if the program is feasible, else None.

    A returned solution has its weights clamped to zero and renormalized per
    child, and its largest constraint violation, recomputed from the instance
    arrays, is within ``tolerance`` (finite and positive, else ValueError).
    The backend is one direct HiGHS call (``_highs_solve``) with
    ``linprog(method="highs")``'s model and options. Its failures, and a
    solution holding a NaN or an infinity, are logged and treated as
    infeasible, so callers can always fall back to exhaustive search.
    Identical instances yield identical solutions (the backend is
    deterministic). A childless program has no variables and is decided
    without the backend: feasible, with an empty extension, exactly when y is
    an (epsilon/2)-best response to the parent term. When ``stats`` is given,
    the residual of a returned solution is folded into
    ``stats.max_lp_residual``.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError("tolerance must be finite and positive")
    if instance.num_variables == 0:  # childless: y against the parent term alone
        empty = FractionalExtension((), (), (), (), ())
        return empty if max_residual(instance, empty) <= tolerance else None
    status, x = _highs_solve(instance)
    if status != 0:
        if status == 2:
            return None
        logger.warning(
            "numerical failure in feasibility solve for player %d (status %d); "
            "treating as infeasible",
            instance.player,
            status,
        )
        return None
    if not np.isfinite(x).all():
        logger.warning(
            "non-finite solution for player %d; treating as infeasible", instance.player
        )
        return None

    x = np.clip(x, 0.0, None)  # degenerate tiny negatives are clamped
    starts = instance.block_starts
    totals = np.add.reduceat(x, starts)
    if (totals <= 0.0).any():
        logger.warning(
            "degenerate mixture block for player %d; treating as infeasible",
            instance.player,
        )
        return None
    x /= np.repeat(totals, np.diff(starts, append=instance.num_variables))
    residual = _residual(instance, x)
    if residual > tolerance:
        logger.warning(
            "post-clamp residual exceeds tolerance for player %d; treating as infeasible",
            instance.player,
        )
        return None
    if stats is not None:
        stats.max_lp_residual = max(stats.max_lp_residual, residual)
    # sliced: np.split takes two to four times as long on a 300-child program
    bounds = [*starts.tolist(), instance.num_variables]
    alphas = tuple(x[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
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
    weights, sizes = padded_rows(frac.alphas, 0.0)
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
    candidates, sizes = padded_rows(frac.candidate_indices, -1)
    hits = candidates == sampled_at
    found = hits.any(axis=1)
    if not found.all():
        child = sampled.child_ids[int(np.argmin(found))]
        raise ValueError(f"sampled strategy for child {child} is not a candidate")
    # without children hits is (0, 0), and argmax has no column to scan
    first = hits.argmax(axis=1) if hits.shape[1] else sizes
    probs = np.concatenate([np.empty((0, m)), *frac.candidate_probs])
    lo = int(game.offsets[player])
    mats = game.payoffs[[lo + game.position(player, c) for c in sampled.child_ids]]
    sampled_payoffs = _summed_payoffs(mats, probs[np.cumsum(sizes) - sizes + first])
    expected_payoffs = _summed_payoffs(mats, np.reshape(frac.sigmas, (-1, m)))
    return bool(np.all(np.abs(sampled_payoffs - expected_payoffs) <= epsilon / 4.0 + 1e-12))


def _summed_payoffs(mats: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``sum_c mats[c] @ vectors[c]``: one gemv per child, added to zeros in
    child order, as ``action_payoffs`` adds its terms."""
    terms = payoff_rows(mats, vectors)
    return np.cumsum(np.concatenate([np.zeros((1, vectors.shape[1])), terms]), axis=0)[-1]
