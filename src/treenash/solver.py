"""Top-down dynamic program over candidate tables, decided on demand.

A cell (q, z, y) says whether strategy y of player q, with its parent
playing z, extends to a partial equilibrium of q's subtree, and by which
tuple of its children's strategies, the witness: the first tuple of the
children's candidate product, in canonical (C) order, against which y is an
epsilon-best response. Child c's candidates under y are the x whose cell
(c, y, x) is true, ascending. The root, whose parent has a single,
payoff-free strategy, tries y = 0, 1, ... and stops at its first true cell.
A cell is decided only when a walk reads it, or shares a scan call with one
that is, and is kept with its witness, so backtracking reads every witness
from the tables. Candidate sets depend on y alone, and z enters only through
the payoff row A[q, parent] @ z.

A row (q, z) is decided in ascending y, in chunks, each chunk one call of
the scan kernel ``first_witnesses`` over several rows and strategies. Below
the LP threshold a chunk first checks every cell's first tuple, each child's
lowest candidate, for which each child's row is decided only until it holds
a true cell; the cells that fail it walk on through prefixes of their
products as their children's rows are decided further (``_Search._evaluate``).
A leaf's cells are the direct check of y against z, one broadcast per chunk
of rows. Requests for rows go on an explicit stack of generators, so the
tree's depth never becomes Python recursion.

Players with many children take the LP route (LP, randomized rounding,
exhaustive fallback): when one of their cells is first read they decide
whole columns, every z at once for a group of y's, in ascending y, once
their children's rows under those y's are complete, with ``_decide_strategy``;
it carries the player's latest witness from y to y and tries each witness on
every pending row by the scan over that one tuple. Every returned profile is
re-verified, so randomness can only affect running time, never correctness.

Every payoff row A[player, neighbour] @ x of a solve comes from one table,
built by one stacked matmul in ``build_tables``; every scan reads it.
"""

from __future__ import annotations

import logging
import math
import numbers
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, InternalSoundnessViolation, NoEquilibriumFound
from .game import (
    BR_TOL,
    VERIFY_TOL,
    EquilibriumCertificate,
    RootedTree,
    TreePolymatrixGame,
    check_normalized,
    is_epsilon_best_response,  # not called here; perfbench's tracer wraps it by this name
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
            # bool is an Integral: True would pass as 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
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

    ``membership_tests`` counts every decided cell (z, y) of a player with
    children, root included, whose candidate product is not empty; cells are
    decided on demand, so these are the cells the search reads and the rest
    of their chunks. ``exhaustive_calls`` counts the cells the scan decides
    and the LP route's fallback scans; ``lp_calls`` the LPs actually solved;
    ``reused_witnesses`` the LP-route cells settled without an LP, by a
    witness found for a lower z of the same y or for an earlier y. So
    ``lp_calls + reused_witnesses`` is the number of LP-route cells.
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
    """DP state, filled on demand: the decided cells of every row (player,
    parent strategy), the LP route's tried witnesses, and the solve's payoff
    rows.

    ``cells[(q, z)]`` holds, for q's strategies y = 0, 1, ... under parent
    strategy z (z is 0 at the root, whose parent has one payoff-free
    strategy) as far as they are decided, -1 for a false cell and otherwise
    the cell's witness: on the scan route the flat C-order index of the
    witness in the product of the children's candidate lists, and on the LP
    route its position in ``extensions[(q, y)]``, the witnesses the LP route
    tried for y, in order, as canonical indices aligned with q's children
    list. ``firsts[(q, z)]`` is the row's lowest true cell, once it has one.
    ``rows`` is the ``payoff_table``: every scan and leaf cell reads its
    payoff rows there. Strategies are referenced by index only.
    """

    game: TreePolymatrixGame
    epsilon: float
    num_strategies: int
    cells: dict[tuple[int, int], np.ndarray]
    extensions: dict[tuple[int, int], list[tuple[int, ...]]]
    rows: np.ndarray
    firsts: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def masks(self) -> dict[tuple[int, int], np.ndarray]:
        """Whether each decided cell is true, per row (q, z)."""
        return {key: codes >= 0 for key, codes in self.cells.items()}

    def candidate_set(self, child: int, parent_strategy_index: int) -> np.ndarray:
        """Ascending candidate indices for ``child`` when its parent plays the
        strategy with the given index, as far as its row is decided."""
        return np.flatnonzero(self.cells[(child, parent_strategy_index)] >= 0)

    def candidate_rows(
        self, children: Sequence[int], parent_strategy_indices: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """``candidate_set`` of every child for every given parent strategy
        at once: per child an array with one row per strategy, whose first
        ``sizes[child position, row]`` entries are that set (the rest of the
        row holds other indices), and ``sizes``."""
        zs = parent_strategy_indices.tolist()
        rows = [self.cells[(c, z)] for c in children for z in zs]
        width = max(map(len, rows), default=0)
        if all(len(row) == width for row in rows):
            masks = np.array(rows, dtype=np.int64).reshape(len(rows), width) >= 0
        else:  # rows decided only in part count their undecided cells out
            masks = np.zeros((len(rows), width), dtype=bool)
            for mask, row in zip(masks, rows):
                mask[:len(row)] = row >= 0
        masks = masks.reshape(len(children), len(zs), width)
        sizes = masks.sum(axis=2)
        # a stable sort puts each row's candidates first, in ascending order
        order = np.argsort(~masks, axis=2, kind="stable")
        return [lists[:, :width] for lists, width in zip(order, sizes.max(axis=1).tolist())], sizes

    def witness(self, rooted: RootedTree, player: int, z_index: int, y_index: int) -> tuple[int, ...]:
        """The witness of the true cell (z, y) of ``player``, read from its
        code: a tried LP-route witness, or the scan's flat index decoded over
        the children's candidate lists as far as they are decided. A walk
        covers a prefix of the canonical order, so the lists of the children
        after the one its hit moved last are complete, and the earlier ones
        sit at their lowest candidate. Runs no check."""
        code = int(self.cells[(player, z_index)][y_index])
        if code < 0:
            raise InternalSoundnessViolation(
                f"no witness for player {player}, strategy indices ({z_index}, {y_index})"
            )
        tried = self.extensions.get((player, y_index))
        if tried is not None:
            return tried[code]
        indices = []
        for child in reversed(rooted.children[player]):  # the last child varies fastest
            candidates = self.candidate_set(child, y_index)
            code, position = divmod(code, len(candidates))
            indices.insert(0, int(candidates[position]))
        return tuple(indices)

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


def _hits(terms: list[np.ndarray], ys: np.ndarray, epsilon: float) -> np.ndarray:
    """Whether each of ``ys`` is an ``is_epsilon_best_response`` to the sum
    of ``terms``, added in list order as ``action_payoffs`` adds its terms."""
    totals = sum(terms[1:], terms[0])
    best = totals[..., 0]
    for action in range(1, totals.shape[-1]):
        best = np.maximum(best, totals[..., action])
    return _utilities(totals, ys) >= best - epsilon - BR_TOL


# _utilities chains the action columns once a call has this many utilities
# per action. The chain makes 2m - 1 numpy calls where the sum makes two, and
# a sum over a length-m last axis costs several times as much per utility.
# The sum path serves the LP route's one-tuple reuse checks, each now only a
# first tuple's broadcast: the benchmark's lp-random tree (n=32, m=3, b=4,
# lp_threshold=2) at perfbench seed 1 makes 127 of a solve's 152 calls with
# fewer than 16 utilities per action (120 of its kernel calls are those
# checks), and all but one of the rest with fewer than 256; the counts are
# the same with leaf tables built apart from the kernel. Measured on a 2-vCPU
# host, in process, over that workload's games at three seeds in 8
# alternating 15 s runs, before leaves joined the kernel, chaining every call
# (a limit of 0) took 69.66 ms per pass, slower in 7 of 8 runs than the 68.81
# ms with this limit and the 68.78 ms with no chain at all. The theory-path
# and star-wide workloads make all but one call with at least 256 utilities
# per action (9 of 10 and 2 of 2 at seed 1), and neither moved by more than
# 0.2% between limits 0 and 64 (306 to 1850 alternating passes each).
_CHAIN_MIN_UTILITIES = 64

# One block of a scan after its first tuple holds at most this many values:
# the float64 payoffs of every pending (z, y) pair for the block's tuples, the
# gathered child rows and the index arrays. The first tuple's broadcast, and
# with it every leaf chunk, is bounded by _GROUP_ELEMENT_LIMIT instead. It
# bounds memory, not the scan size.
_VECTORIZE_ELEMENT_LIMIT = 8_000_000

# One scan call decides as many strategies y for its rows (and a leaf chunk
# for its stacked rows, and an LP-route player's column group for its parent
# rows) as keep one tuple for every (z, y) cell within about this many
# values, counted as in first_witnesses' block sizing ((children + 1) * (m +
# 1) per cell). A player whose whole table fits one call (_Search._small)
# decides every row at once when a request needs rows complete, and a walk
# completes such a child's rows at once instead of in doubling chunks.
# The limit was set for the bottom-up build, which decided every player's
# strategies in such groups. Measured then on a 2-vCPU host with one solve
# per process: at the theoretical-grid path n=3, m=2, eps=0.8 (K=241),
# ru_maxrss rose 1.6 MB with one y per group, 1.9 MB at 2^16 and 6.3 MB with
# all 241 y's in one group; in 10 alternating 35 s perfbench pairs, 2^15
# against 2^16 read lp-random solve_s 27.3 against 26.5 ms (higher in 9 of
# 10) and star-wide 103 against 105 ms, so the limit stayed at 2^16.
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

    The first tuple, each child's lowest candidate, is one broadcast of each
    y's tuple against every row; a childless player, such as a parent's
    stacked leaves, ends there. The pairs left walk their products in shared
    flat-index blocks from tuple 1, which double in size, end where the
    shortest product still pending does, and are capped by
    ``_VECTORIZE_ELEMENT_LIMIT`` values; a pair leaves at its first hit.
    Each column sums ``action_payoffs``' gemv terms in its order
    (ascending neighbour id, the parent's base at its sorted place), so a
    hit is exactly an ``is_epsilon_best_response`` acceptance. A pair walks
    at most ``cap`` tuples: CapExceeded, naming the lowest y with such a
    pair, is raised when a pair has no hit among its first ``cap`` tuples
    and its product holds more.
    """
    num_rows, group = len(bases), len(y_indices)
    if stats is not None:
        stats.exhaustive_calls += num_rows * group
    # float64 products are exact up to 2^53, far beyond any scan that ends
    products = sizes.prod(axis=0, dtype=np.float64)
    m = game.num_actions
    # (take gathers rows far faster than indexing with a 2-D index array)
    ys = uset.probs.take(y_indices, axis=0)
    parent_at = 0 if parent is None else bisect_left(children, parent)
    found = np.full((group, num_rows), -1, dtype=np.int64)
    gathered = [child_rows.take(lists, axis=0) for child_rows, lists in zip(rows, candidates)]
    live = np.flatnonzero(products)  # the strategies with a non-empty product
    if live.size:
        # Every pair is pending at the first tuple, each child's lowest
        # candidate: one broadcast of each y's tuple against every parent row
        terms = [child_rows[live, :1] for child_rows in gathered]
        terms.insert(parent_at, bases[None])
        found[live] = np.where(_hits(terms, ys[live, None], epsilon), 0, -1)
    # y-major pairs g * num_rows + r that go on past the first tuple
    pending = np.flatnonzero((found < 0) & (products[:, None] > 1))
    ends = sorted({int(size) for size in products.tolist() if size > 1})
    start, block = 1, 2
    while pending.size:
        if start == ends[0]:
            # the shortest products still pending are walked
            ends.pop(0)
            pending = pending[products[pending // num_rows] > start]
            continue
        if start >= cap:
            g = int(pending[0] // num_rows)
            raise CapExceeded(
                f"player {player}, strategy index {y_indices[g]}: no hit among the first "
                f"{cap} tuples of a candidate product of size "
                f"{math.prod(sizes[:, g].tolist())} (the exhaustive cap)"
            )
        pair_y, pair_r = np.divmod(pending, num_rows)
        runs = np.bincount(pair_y)
        active = np.flatnonzero(runs)  # the strategies with pending pairs
        # per tuple and pending pair: m payoffs and a hit, and per child a
        # gathered row of m and a position; and the flat index
        fits = _VECTORIZE_ELEMENT_LIMIT // (pending.size * (len(sizes) + 1) * (m + 1) + 1)
        count = min(block, ends[0] - start, max(1, fits), cap - start)
        # Each child's position in a flat C-order index, by mixed-radix
        # arithmetic from the last child, which varies fastest, per active
        # strategy (np.unravel_index stops at 64 dimensions, one per child);
        # pairs are y-major, so each strategy's terms repeat for its pairs
        terms, rest = [], np.arange(start, start + count)
        for child_rows, radix in zip(gathered[::-1], sizes[::-1]):
            rest, position = np.divmod(rest, radix[active, None])
            terms.insert(0, child_rows[active[:, None], position])
        # The children before the parent's place are summed once per
        # strategy, as the left fold of _hits would sum them; then each
        # term is repeated for the strategy's pairs
        if parent_at:
            terms[:parent_at] = [sum(terms[1:parent_at], terms[0])]
        if pending.size > active.size:
            terms = [np.repeat(term, runs[active], axis=0) for term in terms]
        terms.insert(min(parent_at, 1), bases.take(pair_r, axis=0)[:, None, :])
        hits = _hits(terms, ys.take(pair_y, axis=0)[:, None, :], epsilon)
        # Columns follow the canonical (C-order) tuple order, so a pair's
        # first hit is its canonical witness.
        settled = hits.any(axis=1)
        found.flat[pending] = np.where(settled, start + hits.argmax(axis=1), -1)
        pending = pending[~settled]
        start += count
        block *= 2
    return found.T


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
    """The LP route: decide the ascending strategies ``y_indices`` of
    ``player`` under every parent payoff row ``bases[z]``, given the
    children's payoff ``rows`` (both as ``CandidateTables.rows_of`` returns
    them) and their complete rows under each y; return the cells' codes, one
    row per z and one column per y, and per y the witnesses tried, in order.

    A y with an empty candidate product is decided false without a count.
    The y's are decided in order: the latest witness (``latest`` from before
    the group, then each y's) is tried first when it lies in y's candidate
    product, then ``membership_test`` runs for the lowest pending row; each
    witness is tried on every pending row by one ``first_witnesses`` call
    over that one tuple and settles the rows it hits, whose code is its
    position among the tried witnesses. A tried tuple lies in the candidate
    product, so the cells are those of the full scan.
    """
    children = rooted.children[player]
    candidates, sizes = tables.candidate_rows(children, y_indices)
    codes = np.full((len(bases), len(y_indices)), -1, dtype=np.int64)
    tried: list[list[tuple[int, ...]]] = [[] for _ in y_indices]
    decided = sizes.all(axis=0)
    stats.membership_tests += len(bases) * int(decided.sum())
    for g in np.flatnonzero(decided).tolist():
        y_index = int(y_indices[g])
        candidate_lists = [
            lists[g, :size] for lists, size in zip(candidates, sizes[:, g].tolist())
        ]
        pending = np.arange(len(bases))
        witness = latest
        if witness is not None and not all(
            tables.cells[(c, y_index)][index] >= 0 for c, index in zip(children, witness)
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
                codes[r, g] = len(tried[g])
            tried[g].append(witness)
            latest = witness
            if not pending.size:
                break
            single = np.array(witness).reshape(-1, 1, 1)
            reused = first_witnesses(
                game, player, parent, bases[pending], [y_index], children, list(single),
                np.ones((len(children), 1), dtype=np.int64), rows, uset, config.epsilon, 1,
            )[:, 0] >= 0
            codes[pending[reused], g] = len(tried[g]) - 1
            stats.reused_witnesses += int(reused.sum())
            pending = pending[~reused]
            witness = None
    return codes, tried


def _group_size(num_rows: int, num_children: int, m: int) -> int:
    """Strategies y per scan call that keep one tuple for each of the
    ``num_rows`` parent rows within about ``_GROUP_ELEMENT_LIMIT`` values."""
    return max(1, _GROUP_ELEMENT_LIMIT // (num_rows * (num_children + 1) * (m + 1)))


class _Search:
    """Decides candidate-table cells on demand.

    A request ``(players, z_indices, need)`` asks for each player's rows
    under ``z_indices`` to hold a true cell (``need`` None) or at least
    ``need`` decided cells, unless they are complete first; a leaf's rows
    are always completed. Each request is a generator that yields the
    requests its cells depend on, its children's rows, and resumes once they
    are met; ``run`` keeps the open requests on an explicit stack, so a deep
    tree needs no deep Python recursion.
    """

    def __init__(
        self,
        game: TreePolymatrixGame,
        rooted: RootedTree,
        uset: UniformStrategySet,
        tables: CandidateTables,
        config: SolverConfig,
        stats: SolveStats,
    ) -> None:
        self.game, self.rooted, self.uset = game, rooted, uset
        self.tables, self.config, self.stats = tables, config, stats
        self.threshold = config.effective_lp_threshold(game.num_actions)

    def run(self, players: Sequence[int], z_indices: Sequence[int], need: int | None) -> None:
        stack = [self._extend(players, z_indices, need)]
        while stack:
            try:
                request = next(stack[-1])
            except StopIteration:
                stack.pop()
            else:
                stack.append(self._extend(*request))

    def _decided(self, key: tuple[int, int]) -> int:
        return len(self.tables.cells.get(key, ()))

    def _small(self, player: int) -> bool:
        """Whether ``player``'s whole table, every row under every parent
        strategy, fits one scan call; a leaf's always counts, since its rows
        are always decided whole."""
        children = self.rooted.children[player]
        size = self.tables.num_strategies
        return not children or _group_size(size, len(children), self.game.num_actions) >= size

    def _append(self, keys: Sequence[tuple[int, int]], start: int, codes: np.ndarray) -> None:
        """Append the codes of strategies ``start, start + 1, ...`` to the
        rows ``keys``, one row of ``codes`` each."""
        cells, firsts = self.tables.cells, self.tables.firsts
        if start == 0:
            cells.update(zip(keys, codes))
        else:
            for key, row in zip(keys, codes):
                cells[key] = np.concatenate([cells[key], row])
        hits = codes >= 0
        lowest = (start + hits.argmax(axis=1)).tolist()
        for i in np.flatnonzero(hits.any(axis=1)).tolist():
            firsts.setdefault(keys[i], lowest[i])

    def _extend(self, players: Sequence[int], z_indices: Sequence[int], need: int | None):
        rooted = self.rooted
        leaves = [q for q in players if not rooted.children[q] and rooted.parent[q] is not None]
        if leaves:
            self._complete_leaves(leaves, z_indices)
        for q in players:
            if rooted.children[q] or rooted.parent[q] is None:
                yield from self._extend_player(q, z_indices, need)

    def _complete_leaves(self, leaves: list[int], z_indices: Sequence[int]) -> None:
        """Complete the leaves' rows under ``z_indices``. A leaf's cell is the
        direct check of y against z; stacked, the rows are one childless
        player's, whose parent rows are the (leaf, z) rows of the payoff
        table, so one broadcast decides a chunk of y's for all of them."""
        tables, size, m = self.tables, self.tables.num_strategies, self.game.num_actions
        offsets, cells = self.game.offsets, tables.cells
        pending = [(q, z) for q in leaves for z in z_indices if len(cells.get((q, z), ())) < size]
        while pending:
            start = len(cells.get(pending[0], ()))
            batch = [key for key in pending if len(cells.get(key, ())) == start]
            slots, zs = zip(*((offsets[q], z) for q, z in batch))
            bases = tables.rows[list(slots), list(zs)]
            ys = np.arange(start, min(size, start + _group_size(len(batch), 0, m)))
            codes = first_witnesses(
                self.game, batch[0][0], self.rooted.parent[batch[0][0]], bases, ys, [], [],
                np.empty((0, len(ys)), dtype=np.int64), [], self.uset, tables.epsilon, 1,
            )
            self._append(batch, start, codes)
            pending = [key for key in pending if len(cells.get(key, ())) < size]

    def _extend_player(self, player: int, z_indices: Sequence[int], need: int | None):
        tables, size, m = self.tables, self.tables.num_strategies, self.game.num_actions
        children = self.rooted.children[player]
        if need is not None and need >= size and self.rooted.parent[player] is not None and (
            self._small(player)
        ):
            # decide every row, so that the rows later requests ask for
            # share this call's blocks
            z_indices = range(size)
        cells, firsts = tables.cells, tables.firsts
        target = size if need is None else min(need, size)
        while True:
            decided = {z: len(cells.get((player, z), ())) for z in z_indices}
            short = [
                z for z, length in decided.items()
                if length < target and (need is not None or (player, z) not in firsts)
            ]
            if not short:
                return
            if len(children) >= self.threshold:
                yield from self._decide_columns(player)
                continue
            start = decided[short[0]]
            batch = [z for z in short if decided[z] == start]
            width = min(size - start, _group_size(len(batch), len(children), m))
            # a row searched for its first true cell grows in chunks that
            # double, so it is decided about as far as it is read
            width = min(width, max(1, start) if need is None else need - start)
            yield from self._evaluate(player, batch, np.arange(start, start + width))

    def _evaluate(self, player: int, z_indices: list[int], y_indices: np.ndarray):
        """Decide the cells (z, y) of a scan-route player (the root, or a
        player with children) and append them to its rows.

        A cell's walk reads its candidate product in canonical order, and
        every walk so far covers a prefix of it: with the first ``level``
        children at their lowest candidate, the next child's candidates as
        far as its row is decided, and the later children's complete lists.
        So one call first checks every cell's first tuple (``level`` is the
        child count), for which each child's row needs one true cell. Cells
        that fail it walk on in one call once their children's rows are
        complete, when each child's whole table fits one call; otherwise the
        rows are completed from the last child on, each extended in doubling
        chunks, with a call over the prefix known after every extension. The
        later cells of a row are decided as they are read, and a cell's
        first hit is the same on every prefix that holds it.
        """
        game, tables, config = self.game, self.tables, self.config
        size = tables.num_strategies
        parent, children = self.rooted.parent[player], self.rooted.children[player]
        rows, bases = tables.rows_of(player, parent)
        bases = bases[z_indices]
        ys = y_indices.tolist()
        if children:
            yield children, ys, None
        keys = [(c, y) for c in children for y in ys]
        firsts = np.array([tables.firsts.get(key, -1) for key in keys], dtype=np.int64)
        firsts = firsts.reshape(len(children), len(ys))
        live = (firsts >= 0).all(axis=0)  # the strategies with a non-empty product
        decided = len(z_indices) * int(live.sum())
        self.stats.membership_tests += decided
        self.stats.exhaustive_calls += decided
        codes = np.full((len(z_indices), len(ys)), -1, dtype=np.int64)
        walking, level = live, len(children)
        if all(len(tables.cells[key]) == size for key in keys):
            level = 0  # every list is known: walk whole products at once
        while walking.any():
            walk = y_indices[walking]
            if level == len(children):  # each child's lowest candidate
                candidates = list(firsts[:, walking, None])
                sizes = np.ones((len(children), len(walk)), dtype=np.int64)
            else:
                candidates, sizes = tables.candidate_rows(children, walk)
                sizes[:level] = np.minimum(sizes[:level], 1)
            codes[:, walking] = first_witnesses(
                game, player, parent, bases, walk, children, candidates, sizes, rows, self.uset,
                config.epsilon, config.exhaustive_cap,
            )
            walking &= (codes < 0).any(axis=0)
            walk = y_indices[walking].tolist()
            if not walk:
                break
            if level and all(self._small(c) for c in children[:level + 1]):
                level = 0
                yield children, walk, size
                continue
            active = children[level] if level < len(children) else None
            shortest = size if active is None else min(self._decided((active, y)) for y in walk)
            if shortest < size:
                yield [active], walk, 2 * shortest
            elif level:
                level -= 1
            else:
                break
        self._append([(player, z) for z in z_indices], int(y_indices[0]), codes)

    def _decide_columns(self, player: int):
        """Decide the LP-route player's next group of strategies y under
        every parent strategy at once, in ascending order, carrying its
        latest witness from the last decided y (the root takes one y at a
        time and carries none)."""
        tables, size = self.tables, self.tables.num_strategies
        parent, children = self.rooted.parent[player], self.rooted.children[player]
        rows, bases = tables.rows_of(player, parent)
        start = self._decided((player, 0))
        latest = None
        if parent is None:
            width = 1
        else:
            width = _group_size(len(bases), len(children), self.game.num_actions)
            latest = next(
                (tables.extensions[(player, y)][-1] for y in range(start - 1, -1, -1)
                 if (player, y) in tables.extensions),
                None,
            )
        y_indices = np.arange(start, min(size, start + width))
        yield children, y_indices.tolist(), size
        codes, tried = _decide_strategy(
            self.game, self.rooted, player, parent, bases, y_indices, tables, self.uset,
            self.config, self.stats, rows, latest,
        )
        for y_index, witnesses in zip(y_indices.tolist(), tried):
            if witnesses:
                tables.extensions[(player, y_index)] = witnesses
        self._append([(player, z) for z in range(len(bases))], start, codes)


def evaluate_rows(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    uset: UniformStrategySet,
    tables: CandidateTables,
    config: SolverConfig,
    stats: SolveStats,
    players: Sequence[int],
    z_indices: Sequence[int],
    complete: bool = True,
) -> None:
    """Decide the cells of each player's rows under ``z_indices`` (0 alone
    at the root): all of them when ``complete``, or else until each row
    holds a true cell. Rows only grow, in ascending y, so a later call
    continues where an earlier one stopped, with the same cells."""
    need = tables.num_strategies if complete else None
    _Search(game, rooted, uset, tables, config, stats).run(players, z_indices, need)


def build_tables(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    uset: UniformStrategySet,
    config: SolverConfig,
    stats: SolveStats | None = None,
) -> CandidateTables:
    """Start a solve's candidate tables: warn when the game is not normalized
    for epsilon, and build the solve's ``payoff_table``, which every later
    step reads. No cell is decided here; ``process_root`` decides the cells
    its search reads. ``stats`` is accepted for symmetry with the other
    phases and is left unchanged.
    """
    report = check_normalized(game, config.epsilon)
    if not report.ok:
        logger.warning("game is not normalized for the requested epsilon; proceeding\n%s",
                       report.summary())
    return CandidateTables(
        game, config.epsilon, len(uset), cells={}, extensions={}, rows=payoff_table(game, uset)
    )


def process_root(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    uset: UniformStrategySet,
    tables: CandidateTables,
    config: SolverConfig,
    stats: SolveStats | None = None,
) -> tuple[int, Extension]:
    """Decide root strategies in canonical order, each cell's children's
    cells on demand, and return the first that extends across the root's
    children, with its witness.

    Raises NoEquilibriumFound when the scan is exhausted, which can only
    happen when the support size or the scan caps are below the defaults.
    """
    stats = stats if stats is not None else SolveStats()
    root = rooted.root
    evaluate_rows(game, rooted, uset, tables, config, stats, [root], [0], complete=False)
    y_index = tables.firsts.get((root, 0))
    if y_index is None:
        raise NoEquilibriumFound(
            f"no strategy on the uniform grid (b={uset.b}, {len(uset)} strategies) extends "
            f"to an equilibrium at epsilon={config.epsilon:g}; success is only guaranteed "
            f"with the default support size and unlimited scan caps"
        )
    indices = tables.witness(rooted, root, 0, y_index)
    return y_index, Extension(tuple(rooted.children[root]), indices)


def backtrack(
    rooted: RootedTree,
    tables: CandidateTables,
    root_strategy_index: int,
    root_extension: Extension,
    uset: UniformStrategySet,
) -> list[np.ndarray]:
    """Assemble the full profile top-down, reading each internal player's
    witness for the (z, y) cell the profile uses from the tables."""
    assignment: list[int | None] = [None] * len(rooted.parent)
    assignment[rooted.root] = root_strategy_index
    stack: list[tuple[int, Extension]] = [(rooted.root, root_extension)]
    while stack:
        player, extension = stack.pop()
        for child, strategy_index in zip(extension.child_ids, extension.strategy_indices):
            assignment[child] = strategy_index
            if not rooted.children[child]:
                continue
            indices = tables.witness(rooted, child, assignment[player], strategy_index)
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
