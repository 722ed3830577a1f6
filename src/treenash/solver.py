"""Bottom-up dynamic program over candidate tables.

For every parent-child edge and every parent strategy z on the uniform grid,
the masks record which child strategies y extend into a partial equilibrium
of the child's subtree; backtracking recovers the witness of each (z, y) it
visits. Every player, the root included, decides its strategies y in
ascending groups, each y against all its parent strategies at once, with one
routine; the root's parent has a single, payoff-free strategy, and the root
takes one y at a time to stop at its first hit. Candidate sets depend on y
alone, and z enters only through the payoff row A[player, parent] @ z.

Below the LP threshold, one exhaustive scan decides every (z, y) pair of a
group: it walks each y's candidate product in canonical order, all in the
same blocks that double in size, and each pair leaves at its first hit,
computed with ``action_payoffs``' own arithmetic. Players with many children
take the LP route (LP, randomized rounding, exhaustive fallback) one y at a
time, for the lowest pending row only; each witness it finds, and the
player's witness carried from the previous y, is tried on every pending row
by the same scan over that one tuple. Every returned profile is re-verified,
so randomness can only affect running time, never correctness.

Every payoff row A[player, neighbour] @ x of a solve comes from one table,
built by one stacked matmul in ``build_tables``; leaf masks, scans, the root
and backtrack all read it.
"""

from __future__ import annotations

import logging
import math
import numbers
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InternalSoundnessViolation, NoEquilibriumFound
from .game import (
    BR_TOL,
    VERIFY_TOL,
    EquilibriumCertificate,
    RootedTree,
    TreePolymatrixGame,
    check_normalized,
    is_epsilon_best_response,
    regrets,
    validate_and_root,
)
from .lp import (
    DEFAULT_LP_TOLERANCE,
    Extension,
    build_lp,
    round_extension,
    solve_feasibility,
)
from .uniform import (
    DEFAULT_ENUMERATION_CAP,
    UniformStrategySet,
    enumerate_uniform,
    support_size,
    validate_epsilon,
)

logger = logging.getLogger(__name__)

DEFAULT_MAX_TRIES = 64
DEFAULT_EXHAUSTIVE_CAP = 1_000_000


def default_lp_threshold(m: int, epsilon: float) -> int:
    """Child count at which the LP route is tried first: ceil(24 ln m / eps^2).

    Below it the per-entry payoff cap of a normalized game is 1/degree rather
    than the concentration-friendly branch, so sampling has no success
    guarantee and exhaustive search is used directly. Always at least 2.
    """
    if m < 2:
        return 2
    return max(2, math.ceil(24.0 * math.log(m) / (epsilon * epsilon)))


@dataclass(eq=False)
class SolverConfig:
    """Knobs for one solver run.

    ``b_override`` replaces the theoretical support size; any returned
    certificate is verified regardless, only the success guarantee needs the
    default. ``lp_threshold=None`` means the child-count default; ``math.inf``
    disables the LP route entirely. ``thread_count`` is validated but unused:
    membership tests run serially, since each holds the GIL and a thread pool
    was slower than one thread.
    """

    epsilon: float
    b_override: int | None = None
    lp_threshold: int | float | None = None
    max_tries: int = DEFAULT_MAX_TRIES
    lp_tolerance: float = DEFAULT_LP_TOLERANCE
    rng_seed: int = 0
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    thread_count: int = 1
    root: int = 0
    size_for_half_epsilon: bool = True

    def __post_init__(self) -> None:
        validate_epsilon(self.epsilon)
        # NaN passes every comparison, and a float count would reach range()
        # or switch a scan cap off
        counts = dict(
            max_tries=1, exhaustive_cap=1, enumeration_cap=1, thread_count=1, rng_seed=0, root=0
        )
        if self.b_override is not None:
            counts["b_override"] = 1
        for name, least in counts.items():
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        if self.lp_threshold is not None and not self.lp_threshold >= 2:
            raise ValueError("lp_threshold must be >= 2")
        if not (math.isfinite(self.lp_tolerance) and self.lp_tolerance > 0.0):
            raise ValueError("lp_tolerance must be finite and positive")

    def effective_lp_threshold(self, m: int) -> int | float:
        if self.lp_threshold is not None:
            return self.lp_threshold
        return default_lp_threshold(m, self.epsilon)


@dataclass
class SolveStats:
    """Counters from one run.

    ``membership_tests`` counts every decided (z, y) pair, root included,
    whose candidate product is not empty; ``lp_calls`` the LPs actually
    solved; ``reused_witnesses`` the LP-route pairs settled without an LP, by
    a witness found for a lower z of the same y or for an earlier y. So
    ``lp_calls + reused_witnesses`` is the number of LP-route pairs.
    """

    support_size: int | None = None
    num_strategies: int | None = None
    membership_tests: int = 0
    lp_calls: int = 0
    lp_infeasible: int = 0
    rounding_calls: int = 0
    rounding_samples: int = 0
    rounding_accepts: int = 0
    fallbacks: int = 0
    exhaustive_calls: int = 0
    reused_witnesses: int = 0
    max_lp_residual: float = 0.0


@dataclass(eq=False)
class CandidateTables:
    """DP state: per non-root player a boolean table over (parent strategy,
    own strategy) index pairs, the LP route's tried witnesses, and the
    solve's payoff rows.

    ``masks[q][z, y]`` says whether strategy y of q extends under parent
    strategy z. ``extensions[(q, y)]`` lists, in order, the witnesses the LP
    route tried for strategy y of q, as canonical indices aligned with q's
    children list. ``rows`` is the ``payoff_table``: every scan, leaf mask
    and recovery reads its payoff rows there. Strategies are referenced by
    index only.
    """

    game: TreePolymatrixGame
    epsilon: float
    num_strategies: int
    masks: dict[int, np.ndarray]
    extensions: dict[tuple[int, int], list[tuple[int, ...]]]
    rows: np.ndarray

    def candidate_set(self, child: int, parent_strategy_index: int) -> np.ndarray:
        """Ascending candidate indices for ``child`` when its parent plays the
        strategy with the given index."""
        return np.flatnonzero(self.masks[child][parent_strategy_index])

    def candidate_rows(
        self, children: Sequence[int], parent_strategy_indices: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """``candidate_set`` of every child for every given parent strategy
        at once: per child an array with one row per strategy, whose first
        ``sizes[child position, row]`` entries are that set (the rest of the
        row holds other indices), and ``sizes``."""
        rows = [self.masks[c].take(parent_strategy_indices, axis=0) for c in children]
        masks = np.array(rows, dtype=bool)
        masks = masks.reshape(len(children), len(parent_strategy_indices), self.num_strategies)
        sizes = masks.sum(axis=2)
        # a stable sort puts each row's candidates first, in ascending order
        order = np.argsort(~masks, axis=2, kind="stable")
        return [lists[:, :width] for lists, width in zip(order, sizes.max(axis=1).tolist())], sizes

    def rows_of(self, player: int, parent: int | None) -> tuple[list[np.ndarray], np.ndarray]:
        """``player``'s payoff rows under ``parent``: one array per child,
        ascending, with the rows ``A[player, child] @ x`` of every grid
        strategy x; and the parent rows ``A[player, parent] @ z`` of every z,
        or one zero row at the root. All but the zero row are views of
        ``rows``, whose slots ``offsets[player]:offsets[player + 1]`` hold the
        player's neighbours in ascending order."""
        offsets = self.game.offsets
        own = list(self.rows[offsets[player]:offsets[player + 1]])
        if parent is None:
            return own, np.zeros((1, self.game.num_actions))
        base = own.pop(bisect_left(self.game.neighbors(player), parent))
        return own, base


def _derived_seed(config: SolverConfig, player: int, z_index: int | None, y_index: int):
    # Stable per-(player, z, y) stream, independent of the order tests run in.
    z_code = 0 if z_index is None else z_index + 1
    return np.random.SeedSequence([config.rng_seed, player, z_code, y_index])


def payoff_table(game: TreePolymatrixGame, uset: UniformStrategySet) -> np.ndarray:
    """Every payoff row of a solve, shape (2|E|, K, m): ``table[s, x]`` is
    ``A[owners[s], neighbor_ids[s]] @ x`` for payoff slot s and grid strategy
    index x. One stacked matmul against columns runs one gemv per row, the
    gemv ``action_payoffs`` runs for that neighbour."""
    return np.matmul(game.payoffs[:, None], uset.probs[None, :, :, None])[..., 0]


def _leaf_masks(payoffs: np.ndarray, uset: UniformStrategySet, epsilon: float) -> np.ndarray:
    """Boolean tables [leaf, z, y]: is y an epsilon-best response of each leaf
    to parent strategy z? ``payoffs[leaf, z]`` is the leaf's one payoff row
    ``A[leaf, parent] @ z``, read from the payoff table.

    Entries match is_epsilon_best_response bit-for-bit: same payoff vector,
    same multiply-sum utility (``_utilities``), same comparison. Evaluated in
    blocks of rows.
    """
    leaves, size, m = payoffs.shape
    payoffs = payoffs.reshape(-1, m)
    thresholds = payoffs.max(axis=1) - epsilon - BR_TOL
    masks = np.empty((len(payoffs), size), dtype=bool)
    rows = max(1, _VECTORIZE_ELEMENT_LIMIT // (size * m))
    for start in range(0, len(payoffs), rows):
        block = slice(start, start + rows)
        utilities = _utilities(payoffs[block, None, :], uset.probs)
        masks[block] = utilities >= thresholds[block, None]
    return masks.reshape(leaves, size, size)


def _utilities(values: np.ndarray, strategies: np.ndarray) -> np.ndarray:
    """``(values * strategies).sum(axis=-1)`` with the same bits, the
    utility ``mixed_payoff`` computes, for broadcast arrays of payoffs and
    strategies over m actions.

    numpy adds fewer than 8 terms left to right, so below 8 actions a chain
    over the action columns gives its sum without a reduction over a short
    last axis, once there are ``_CHAIN_MIN_UTILITIES`` utilities per action.
    From 8 terms on numpy adds pairwise, and a left chain differs from its
    sum in the last bit on many rows, so its own sum is kept: backtrack
    rechecks the LP route's scan hits with the scalar check, and raises
    InternalSoundnessViolation where the two differ.
    """
    m = values.shape[-1]
    if m >= 8 or np.broadcast(values, strategies).size < _CHAIN_MIN_UTILITIES * m * m:
        return (values * strategies).sum(axis=-1)
    total = values[..., 0] * strategies[..., 0]
    for action in range(1, m):
        total += values[..., action] * strategies[..., action]
    return total


# _utilities chains the action columns once a call has this many utilities
# per action. The chain makes 2m - 1 numpy calls where the sum makes two, and
# a sum over a length-m last axis costs several times as much per utility.
# The sum path serves the LP route's one-tuple scans: the benchmark's
# lp-random tree (n=32, m=3, b=4, lp_threshold=2) makes 132 of a solve's 155
# calls with fewer than 16 utilities per action, and the rest with fewer than
# 256. Measured on a 2-vCPU host, in process, over that workload's games at
# three seeds in 8 alternating 15 s runs, chaining every call (a limit of 0)
# took 69.66 ms per pass, slower in 7 of 8 runs than the 68.81 ms with this
# limit and the 68.78 ms with no chain at all. The theory-path and star-wide
# workloads make all but one call with more than 256 utilities per action,
# and neither moved by more than 0.2% between limits 0 and 64 (306 to 1850
# alternating passes each).
_CHAIN_MIN_UTILITIES = 64

# One block of a scan holds at most this many values: the float64 payoffs of
# every pending (z, y) pair for the block's tuples, the gathered child rows and
# the index arrays, or of a block of leaf mask rows against every y. It bounds
# memory, not the scan size.
_VECTORIZE_ELEMENT_LIMIT = 8_000_000

# build_tables decides a player's strategies y in groups whose first scan
# block (one tuple for each (z, y) pair) holds at most about this many values,
# counted as in first_witnesses' block sizing. Measured on a 2-vCPU host with
# one solve per process: at the theoretical-grid path n=3, m=2, eps=0.8
# (K=241) ru_maxrss rose 2.0 MB with groups of one y and of up to 2^16
# values, 3.4 MB at 2^17 and 9.4 MB with all 241 y's in one group; a path n=4
# at K=711 rose 12.1 MB at 2^16 and 77 MB in one group. Of 2^14 to 2^17, 2^16
# solved the first fastest (7.5 ms, against 25 ms with one y per group).
_GROUP_ELEMENT_LIMIT = 2**16


def first_witnesses(
    game: TreePolymatrixGame,
    player: int,
    parent: int | None,
    bases: np.ndarray,
    y_indices: Sequence[int],
    children: list[int],
    candidates: list[np.ndarray],
    sizes: np.ndarray,
    rows: Sequence[np.ndarray],
    uset: UniformStrategySet,
    epsilon: float,
    cap: int | float,
    stats: SolveStats | None = None,
) -> np.ndarray:
    """For every parent payoff row ``bases[r]`` (``A[player, parent] @ z``)
    and every strategy ``y_indices[g]``, the flat C-order index into y's
    candidate product of its first tuple against which (with z) y is an
    epsilon-best response, or -1: an array of shape (rows, strategies).
    Child i's candidates for ``y_indices[g]`` are the first ``sizes[i, g]``
    entries of ``candidates[i][g]``, in scan order; the rest of that row is
    ignored. ``CandidateTables.candidate_rows`` builds both. ``children``
    must be ascending, as in RootedTree; ``rows[i]`` holds the payoff rows
    ``A[player, children[i]] @ x`` by strategy index x, as
    ``CandidateTables.rows_of`` reads them from the payoff table.
    Deterministic.

    Every y's product is walked in the same flat-index blocks, which start
    at one tuple and double in size, end where the shortest product still
    pending does, and are capped by ``_VECTORIZE_ELEMENT_LIMIT`` values.
    Each block is evaluated for every (z, y) pair still pending, and a pair
    leaves at its first hit; a player without children scans the single
    empty tuple. Each column sums ``action_payoffs``' gemv terms in its order
    (ascending neighbour id, the parent's base at its sorted place), so a
    hit is exactly an ``is_epsilon_best_response`` acceptance. Raises
    CapExceeded, naming the lowest such y, if a product set is larger than
    ``cap``.
    """
    num_rows, group = len(bases), len(y_indices)
    if stats is not None:
        stats.exhaustive_calls += num_rows * group
    # float64 products are exact up to 2^53, far beyond any scan that ends
    products = sizes.prod(axis=0, dtype=np.float64)
    if products.max(initial=0) > cap:
        g = int(np.argmax(products > cap))
        raise CapExceeded(
            f"player {player}, strategy index {y_indices[g]}: candidate product of size "
            f"{math.prod(sizes[:, g].tolist())} exceeds the exhaustive cap of {cap}"
        )

    m = game.num_actions
    # (take gathers rows far faster than indexing with a 2-D index array)
    ys = uset.probs.take(y_indices, axis=0)
    gathered = [child_rows.take(lists, axis=0) for child_rows, lists in zip(rows, candidates)]
    parent_at = 0 if parent is None else bisect_left(children, parent)
    found = np.full(group * num_rows, -1, dtype=np.int64)
    pending = np.arange(group * num_rows)  # y-major: pair g * num_rows + r
    ends = sorted({int(size) for size in products.tolist()})  # where pairs run out of tuples
    start, block = 0, 1
    while pending.size:
        if start == ends[0]:
            # the shortest products still pending are walked
            ends.pop(0)
            pending = pending[products[pending // num_rows] > start]
            continue
        pair_y, pair_r = np.divmod(pending, num_rows)
        runs = np.bincount(pair_y)
        active = np.flatnonzero(runs)  # the strategies with pending pairs
        # per tuple and pending pair: m payoffs and a hit, and per child a
        # gathered row of m and a position; and the flat index
        fits = _VECTORIZE_ELEMENT_LIMIT // (pending.size * (len(sizes) + 1) * (m + 1) + 1)
        count = min(block, ends[0] - start, max(1, fits))
        # Each child's position in a flat C-order index, by mixed-radix
        # arithmetic from the last child, which varies fastest, per active
        # strategy (np.unravel_index stops at 64 dimensions, one per child)
        terms, rest = [], np.arange(start, start + count)
        for child_rows, radix in zip(gathered[::-1], sizes[::-1]):
            rest, position = np.divmod(rest, radix[active, None])
            terms.insert(0, child_rows[active[:, None], position])
        if len(active) > 1:
            # pairs are y-major: repeat each strategy's terms for its pairs
            terms = [np.repeat(term, runs[active], axis=0) for term in terms]
        terms.insert(parent_at, bases.take(pair_r, axis=0)[:, None, :])
        totals = terms[0]
        for term in terms[1:]:
            totals = totals + term
        best = totals[..., 0]
        for action in range(1, m):
            best = np.maximum(best, totals[..., action])
        utilities = _utilities(totals, ys.take(pair_y, axis=0)[:, None, :])
        hits = utilities >= best - epsilon - BR_TOL
        # Columns follow the canonical (C-order) tuple order, so a pair's
        # first hit is its canonical witness.
        settled = hits.any(axis=1)
        found[pending] = np.where(settled, start + hits.argmax(axis=1), -1)
        pending = pending[~settled]
        start += count
        block *= 2
    return found.reshape(group, num_rows).T


def exhaustive_membership(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    player: int,
    parent: int | None,
    z_index: int | None,
    y_index: int,
    tables: CandidateTables,
    uset: UniformStrategySet,
    epsilon: float,
    cap: int | float,
    stats: SolveStats | None = None,
    candidate_lists: list[np.ndarray] | None = None,
) -> Extension | None:
    """``first_witnesses`` for the single pair (z, y): the first tuple of the
    children's candidate product, in canonical index order, against which
    (with z) y is an epsilon-best response, or None. ``candidate_lists``, one
    per child, default to the masks' candidate sets for y. The payoff rows are
    read from ``tables.rows``.
    """
    children = rooted.children[player]
    if candidate_lists is None:
        candidate_lists = [tables.candidate_set(c, y_index) for c in children]
    rows, bases = tables.rows_of(player, parent)
    if parent is not None:
        bases = bases[[z_index]]
    sizes = np.array([[len(c)] for c in candidate_lists], dtype=np.int64).reshape(-1, 1)
    [[flat]] = first_witnesses(
        game, player, parent, bases, [y_index], children, [c[None] for c in candidate_lists],
        sizes, rows, uset, epsilon, cap, stats,
    ).tolist()
    if flat < 0:
        return None
    indices = []
    for candidates in reversed(candidate_lists):  # in C order the last child varies fastest
        flat, position = divmod(flat, len(candidates))
        indices.insert(0, int(candidates[position]))
    return Extension(tuple(children), tuple(indices))


def membership_test(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    player: int,
    parent: int | None,
    z_index: int | None,
    y_index: int,
    tables: CandidateTables,
    uset: UniformStrategySet,
    config: SolverConfig,
    stats: SolveStats,
    candidate_lists: list[np.ndarray],
) -> Extension | None:
    """The LP route for one pair (z, y), given the children's non-empty
    ``candidate_lists``: solve the LP and round its solution; when the LP is
    infeasible or rounding gives up, fall back to the exhaustive scan. So the
    result is never weaker than the direct search, and any witness is an
    epsilon-best-response extension.
    """
    children = rooted.children[player]
    z = uset.probs[z_index] if z_index is not None else None
    y = uset.probs[y_index]
    stats.lp_calls += 1
    candidate_sets = dict(zip(children, candidate_lists))
    instance = build_lp(game, rooted, player, parent, z, y, candidate_sets, uset, config.epsilon)
    frac = solve_feasibility(instance, config.lp_tolerance, stats)
    if frac is None:
        stats.lp_infeasible += 1
    else:
        seed = _derived_seed(config, player, z_index, y_index)
        extension = round_extension(
            game, rooted, player, z, y, frac, config.epsilon, seed, config.max_tries, stats
        )
        if extension is not None:
            return extension
    stats.fallbacks += 1
    return exhaustive_membership(
        game, rooted, player, parent, z_index, y_index, tables, uset,
        config.epsilon, config.exhaustive_cap, stats, candidate_lists,
    )


def _decide_strategy(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    player: int,
    parent: int | None,
    bases: np.ndarray,
    y_indices: np.ndarray,
    tables: CandidateTables,
    uset: UniformStrategySet,
    config: SolverConfig,
    stats: SolveStats,
    rows: list[np.ndarray],
    latest: tuple[int, ...] | None,
) -> tuple[np.ndarray, list[list[tuple[int, ...]]]]:
    """Decide the ascending strategies ``y_indices`` of ``player`` under
    every parent payoff row ``bases[z]``, given the children's payoff
    ``rows`` (both as ``CandidateTables.rows_of`` returns them); return the
    hits, one row per z and one column per y, and per y the witnesses the LP
    route tried, in order.

    A y with an empty candidate product is decided without a count. Below
    ``lp_threshold`` one ``first_witnesses`` call decides every (z, y) pair
    of the group. On the LP route the y's are decided in order: the latest
    witness (``latest`` from before the group, then each y's) is tried first
    when it lies in y's candidate product, then ``membership_test`` runs for
    the lowest pending row; each witness is tried on every pending row by one
    ``first_witnesses`` call over that one tuple and settles the rows it
    hits. A tried tuple lies in the candidate product, so the masks are those
    of the full scan.
    """
    children = rooted.children[player]
    candidates, sizes = tables.candidate_rows(children, y_indices)
    hits = np.zeros((len(bases), len(y_indices)), dtype=bool)
    tried: list[list[tuple[int, ...]]] = [[] for _ in y_indices]
    decided = sizes.all(axis=0)
    stats.membership_tests += len(bases) * int(decided.sum())
    if len(children) < config.effective_lp_threshold(game.num_actions):
        if decided.any():
            found = first_witnesses(
                game, player, parent, bases, y_indices[decided], children,
                [lists[decided] for lists in candidates], sizes[:, decided], rows, uset,
                config.epsilon, config.exhaustive_cap, stats,
            )
            hits[:, decided] = found >= 0
        return hits, tried

    for g in np.flatnonzero(decided).tolist():
        y_index = int(y_indices[g])
        candidate_lists = [
            lists[g, :size] for lists, size in zip(candidates, sizes[:, g].tolist())
        ]
        pending = np.arange(len(bases))
        witness = latest
        if witness is not None and not all(
            tables.masks[c][y_index, index] for c, index in zip(children, witness)
        ):
            witness = None
        while pending.size:
            if witness is None:
                r, pending = int(pending[0]), pending[1:]
                extension = membership_test(
                    game, rooted, player, parent, None if parent is None else r, y_index,
                    tables, uset, config, stats, candidate_lists,
                )
                if extension is None:
                    continue
                witness = extension.strategy_indices
                hits[r, g] = True
            tried[g].append(witness)
            latest = witness
            if not pending.size:
                break
            single = np.array(witness).reshape(-1, 1, 1)
            reused = first_witnesses(
                game, player, parent, bases[pending], [y_index], children, list(single),
                np.ones((len(children), 1), dtype=np.int64), rows, uset, config.epsilon, 1,
            )[:, 0] >= 0
            hits[pending[reused], g] = True
            stats.reused_witnesses += int(reused.sum())
            pending = pending[~reused]
            witness = None
    return hits, tried


def build_tables(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    uset: UniformStrategySet,
    config: SolverConfig,
    stats: SolveStats | None = None,
) -> CandidateTables:
    """Populate candidate tables bottom-up for every parent-child edge.

    First builds the solve's ``payoff_table``, which every later step reads.
    Leaves get the direct best-response table, all leaves of one parent in
    one batch (``_leaf_masks``). An internal player decides its strategies y
    in ascending groups, each y under every parent strategy at once
    (``_decide_strategy``), carrying its latest LP-route witness from y to y.
    A group holds as many y's as keep its first scan block within
    ``_GROUP_ELEMENT_LIMIT`` values.
    """
    stats = stats if stats is not None else SolveStats()
    report = check_normalized(game, config.epsilon)
    if not report.ok:
        logger.warning("game is not normalized for the requested epsilon; proceeding\n%s",
                       report.summary())

    size = len(uset)
    tables = CandidateTables(
        game, config.epsilon, size, masks={}, extensions={}, rows=payoff_table(game, uset)
    )
    for parent in rooted.order:
        leaves = [q for q in rooted.children[parent] if not rooted.children[q]]
        if leaves:
            # a leaf's only payoff slot, offsets[leaf], pays it against its parent
            masks = _leaf_masks(tables.rows[game.offsets[leaves]], uset, config.epsilon)
            tables.masks.update(zip(leaves, masks))
        for q in rooted.children[parent]:
            if not rooted.children[q]:
                continue
            rows, bases = tables.rows_of(q, parent)
            # the first scan block of a group holds (children + 1) * (m + 1)
            # values per (z, y) pair (see first_witnesses)
            pair_values = size * (len(rows) + 1) * (game.num_actions + 1)
            group = max(1, _GROUP_ELEMENT_LIMIT // pair_values)
            latest = None  # the LP route's most recent witness for q
            mask = np.zeros((size, size), dtype=bool)
            for start in range(0, size, group):
                y_indices = np.arange(start, min(start + group, size))
                mask[:, y_indices], tried = _decide_strategy(
                    game, rooted, q, parent, bases, y_indices, tables, uset, config, stats, rows,
                    latest,
                )
                for y_index, witnesses in zip(y_indices.tolist(), tried):
                    if witnesses:
                        tables.extensions[(q, y_index)] = witnesses
                        latest = witnesses[-1]
            tables.masks[q] = mask
    return tables


def _recover_witness(
    rooted: RootedTree,
    tables: CandidateTables,
    uset: UniformStrategySet,
    player: int,
    z_index: int | None,
    y_index: int,
    tried: list[tuple[int, ...]],
) -> tuple[int, ...]:
    """The witness the build chose for the true cell (z, y) of ``player``
    (z None at the root), given the witnesses its LP route tried for y.

    On the LP route this is the first tried tuple that passes at z: each
    earlier one was tried on that row and failed. Otherwise it is the
    canonical scan's first hit for the one row: the scan's first tuple, each
    child's lowest candidate, is checked directly, since the scan's hits are
    exactly the direct check's acceptances, and only when it fails is the
    scan rerun, without a cap or counts. Solves no LP.
    """
    game, parent = tables.game, rooted.parent[player]
    children = rooted.children[player]
    y = uset.probs[y_index]

    def passes(witness: tuple[int, ...]) -> bool:
        neighbors = {} if parent is None else {parent: uset.probs[z_index]}
        neighbors.update({c: uset.probs[x] for c, x in zip(children, witness)})
        return is_epsilon_best_response(game, player, y, neighbors, tables.epsilon)

    for witness in tried:
        if passes(witness):
            return witness
    if not tried:
        candidate_lists = [tables.candidate_set(c, y_index) for c in children]
        first = tuple(int(candidates[0]) for candidates in candidate_lists if len(candidates))
        if len(first) == len(children) and passes(first):
            return first
        extension = exhaustive_membership(
            game, rooted, player, parent, z_index, y_index, tables, uset, tables.epsilon,
            math.inf, candidate_lists=candidate_lists,
        )
        if extension is not None:
            return extension.strategy_indices
    raise InternalSoundnessViolation(
        f"no witness recovered for player {player}, strategy indices ({z_index}, {y_index})"
    )


def process_root(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    uset: UniformStrategySet,
    tables: CandidateTables,
    config: SolverConfig,
    stats: SolveStats | None = None,
) -> tuple[int, Extension]:
    """Decide root strategies in canonical order with ``_decide_strategy``
    over one zero parent row, and return the first that extends across the
    root's children, with its recovered witness. The root's payoff rows are
    read from the tables' payoff table.

    Raises NoEquilibriumFound when the scan is exhausted, which can only
    happen when the support size or the scan caps are below the defaults.
    """
    stats = stats if stats is not None else SolveStats()
    root = rooted.root
    rows, bases = tables.rows_of(root, None)
    for y_index in range(len(uset)):
        # one y at a time, to stop at the first hit; no earlier y has a
        # witness, so there is none to carry
        [[hit]], [tried] = _decide_strategy(
            game, rooted, root, None, bases, np.array([y_index]), tables, uset, config, stats,
            rows, None,
        )
        if hit:
            indices = _recover_witness(rooted, tables, uset, root, None, y_index, tried)
            return y_index, Extension(tuple(rooted.children[root]), indices)
    raise NoEquilibriumFound(
        f"no strategy on the uniform grid (b={uset.b}, {len(uset)} strategies) extends "
        f"to an equilibrium at epsilon={config.epsilon:g}; success is only guaranteed "
        f"with the default support size and unlimited scan caps"
    )


def backtrack(
    rooted: RootedTree,
    tables: CandidateTables,
    root_strategy_index: int,
    root_extension: Extension,
    uset: UniformStrategySet,
) -> list[np.ndarray]:
    """Assemble the full profile top-down, recovering each internal player's
    witness for the (z, y) cell the profile uses."""
    assignment: list[int | None] = [None] * len(rooted.parent)
    assignment[rooted.root] = root_strategy_index
    stack: list[tuple[int, Extension]] = [(rooted.root, root_extension)]
    while stack:
        player, extension = stack.pop()
        for child, strategy_index in zip(extension.child_ids, extension.strategy_indices):
            assignment[child] = strategy_index
            if not rooted.children[child]:
                continue
            tried = tables.extensions.get((child, strategy_index), [])
            indices = _recover_witness(
                rooted, tables, uset, child, assignment[player], strategy_index, tried
            )
            stack.append((child, Extension(tuple(rooted.children[child]), indices)))
    if any(index is None for index in assignment):
        raise InternalSoundnessViolation("backtracking left some players unassigned")
    return [uset.probs[index].copy() for index in assignment]


def solve(
    game: TreePolymatrixGame,
    config: SolverConfig,
    stats: SolveStats | None = None,
) -> EquilibriumCertificate:
    """End-to-end solve: root the tree, enumerate the strategy grid, build the
    tables, extract a root strategy, backtrack, and verify.

    The returned certificate's regrets are recomputed independently of the
    search path; a verification failure raises InternalSoundnessViolation and
    indicates a bug, never an unlucky random draw. Pass a SolveStats to collect
    counters (LP calls, samples, fallbacks).
    """
    stats = stats if stats is not None else SolveStats()
    rooted = validate_and_root(game, config.root)
    b = config.b_override
    if b is None:
        b = support_size(game.num_actions, game.num_players, config.epsilon,
                         halve=config.size_for_half_epsilon)
    uset = enumerate_uniform(game.num_actions, b, cap=config.enumeration_cap)
    stats.support_size = b
    stats.num_strategies = len(uset)

    tables = build_tables(game, rooted, uset, config, stats)
    root_index, root_extension = process_root(game, rooted, uset, tables, config, stats)
    profile = backtrack(rooted, tables, root_index, root_extension, uset)

    gaps = regrets(game, profile)
    if gaps.size and float(gaps.max()) > config.epsilon + VERIFY_TOL:
        raise InternalSoundnessViolation(
            f"assembled profile has max regret {float(gaps.max())!r} > "
            f"epsilon {config.epsilon!r}"
        )
    return EquilibriumCertificate(profile=profile, epsilon=config.epsilon, regrets=gaps)
