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
A leaf's rows are decided whole, their parent payoff rows computed once per
request and each chunk of y's one broadcast over them. Requests for rows go
on an explicit stack of generators, so the tree's depth never becomes Python
recursion.

Players with many children take the LP route (LP, randomized rounding,
exhaustive fallback, ``_Search._decide_columns``): when one of their cells is
first read they decide whole columns, every z at once for a group of y's, in
ascending y, once their children's rows under those y's are complete. The
player's latest witness is carried from y to y, and each witness is tried on
every pending row by one broadcast of its tuple. Every returned profile is
re-verified, so randomness can only affect running time, never correctness.

Each payoff row A[player, neighbour] @ x is computed where it is read, for
the strategies read, by one stacked matmul (``payoff_rows``); none is cached.
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
    padded_rows,
    payoff_rows,
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
    parent strategy) and the LP route's tried witnesses.

    ``cells[(q, z)]`` holds, for q's strategies y = 0, 1, ... under parent
    strategy z (z is 0 at the root, whose parent has one payoff-free
    strategy) as far as they are decided, -1 for a false cell and otherwise
    the cell's witness: on the scan route the flat C-order index of the
    witness in the product of the children's candidate lists, and on the LP
    route its position in ``extensions[(q, y)]``, the witnesses the LP route
    tried for y, in order, as canonical indices aligned with q's children
    list. ``firsts[(q, z)]`` is the row's lowest true cell, once it has one.
    Strategies are referenced by index only.
    """

    epsilon: float
    num_strategies: int
    cells: dict[tuple[int, int], np.ndarray]
    extensions: dict[tuple[int, int], list[tuple[int, ...]]]
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
        # a row decided only in part is padded as false past its end
        codes, _ = padded_rows([self.cells[(c, z)] for c in children for z in zs], -1)
        masks = codes.reshape(len(children), len(zs), codes.shape[1]) >= 0
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
        return _unflatten(code, [self.candidate_set(c, y_index) for c in rooted.children[player]])


def _unflatten(flat: int, lists: Sequence[np.ndarray]) -> tuple[int, ...]:
    """The tuple at C-order index ``flat`` of the product of ``lists``."""
    indices = []
    for candidates in reversed(lists):  # the last list varies fastest
        flat, position = divmod(flat, len(candidates))
        indices.insert(0, int(candidates[position]))
    return tuple(indices)


def _derived_seed(config: SolverConfig, player: int, z_index: int | None, y_index: int):
    # Stable per-(player, z, y) stream, independent of the order tests run in.
    z_code = 0 if z_index is None else z_index + 1
    return np.random.SeedSequence([config.rng_seed, player, z_code, y_index])


def _payoff_terms(
    game: TreePolymatrixGame, uset: UniformStrategySet, player: int, parent: int | None,
    z_indices: Sequence[int] | slice,
) -> tuple[list[np.ndarray], np.ndarray]:
    """``player``'s payoff matrices ``A[player, c]``, one per child c in
    ascending order, and its parent rows ``A[player, parent] @ z`` for the
    grid strategies ``z_indices``, or one zero row at the root."""
    own = list(game._incident[player])
    if parent is None:
        return own, np.zeros((1, game.num_actions))
    parent_matrix = own.pop(game.position(player, parent))
    return own, payoff_rows(parent_matrix, uset.probs[z_indices])


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
# Most calls of the gated workloads are small and take the sum: at perfbench
# seed 1, lp-random (n=32, m=3, b=4, lp_threshold=2) makes 139 of a solve's
# 159 calls below the limit, 120 of them the LP route's reuse checks of one
# witness; theory-path makes 2 of 3, and star-wide none of its one leaf call
# per game. Measured on a 2-vCPU host with the on-demand search, summing
# every call read solve_s -0.1% to +1.6% against this limit on those three
# workloads (4 alternating 8 s perfbench pairs each). The chain pays on
# sparse walks, where a call holds many cells: in process, games normalized
# for eps 0.5 and lp_threshold=inf, 7-run medians over 4 alternating runs,
# random n=32, m=3, b=4 at eps 0.05 took 37.3-37.7 ms with the chain against
# 45.8-46.8 ms without, and random n=16, m=3, b=6 at eps 0.05 took 24.0-24.2
# ms against 30.1-30.8 ms.
_CHAIN_MIN_UTILITIES = 64

# One block of a scan after its first tuple holds at most this many values:
# the float64 payoffs of every pending (z, y) pair for the block's tuples, the
# gathered child rows and the index arrays. The first tuple's broadcast, like
# every leaf chunk, is bounded by _GROUP_ELEMENT_LIMIT instead. It bounds
# memory, not the scan size.
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
    matrices: Sequence[np.ndarray],
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
    must be ascending, as in RootedTree; ``matrices[i]`` is
    ``A[player, children[i]]``, and the payoff rows of child i's candidates
    are computed from it by ``payoff_rows``. Deterministic.

    The first tuple, each child's lowest candidate, is one broadcast of each
    y's tuple against every row; a childless root ends there. The pairs
    left walk their products in shared flat-index blocks from tuple 1, which
    double in size, end where the shortest product still pending does, and
    are capped by ``_VECTORIZE_ELEMENT_LIMIT`` values; a pair leaves at its
    first hit.
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
    with np.errstate(over="ignore"):  # and one beyond float64's range is inf
        products = sizes.prod(axis=0, dtype=np.float64)
    m = game.num_actions
    # (take gathers rows far faster than indexing with a 2-D index array)
    ys = uset.probs.take(y_indices, axis=0)
    parent_at = 0 if parent is None else bisect_left(children, parent)
    found = np.full((group, num_rows), -1, dtype=np.int64)
    gathered = [payoff_rows(matrix, uset.probs.take(lists, axis=0))
                for matrix, lists in zip(matrices, candidates)]
    live = np.flatnonzero(products)  # the strategies with a non-empty product
    if live.size:
        # Every pair is pending at the first tuple, each child's lowest
        # candidate: one broadcast of each y's tuple against every parent row
        terms = [child_rows[live, :1] for child_rows in gathered]
        terms.insert(parent_at, bases[None])
        found[live] = np.where(_hits(terms, ys[live, None], epsilon), 0, -1)
    # y-major pairs g * num_rows + r that go on past the first tuple
    pending = np.flatnonzero((found < 0) & (products[:, None] > 1))
    # an infinite product ends no walk: its pairs stop at a hit or the cap
    ends = [*sorted({int(size) for size in products.tolist() if 1 < size < math.inf}), math.inf]
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
    candidate_lists: list[np.ndarray],
    uset: UniformStrategySet,
    epsilon: float,
    cap: int | float,
    stats: SolveStats | None = None,
) -> Extension | None:
    """``first_witnesses`` for the single pair (z, y): the first tuple of the
    product of ``candidate_lists``, one ascending list per child, in canonical
    index order, against which (with z) y is an epsilon-best response, or
    None. The payoff rows are computed for z and the candidates alone.
    """
    children = rooted.children[player]
    matrices, bases = _payoff_terms(game, uset, player, parent, [z_index])
    sizes = np.array([[len(c)] for c in candidate_lists], dtype=np.int64).reshape(-1, 1)
    [[flat]] = first_witnesses(
        game, player, parent, bases, [y_index], children, [c[None] for c in candidate_lists],
        sizes, matrices, uset, epsilon, cap, stats,
    ).tolist()
    if flat < 0:
        return None
    return Extension(tuple(children), _unflatten(flat, candidate_lists))


def membership_test(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    player: int,
    parent: int | None,
    z_index: int | None,
    y_index: int,
    candidate_lists: list[np.ndarray],
    uset: UniformStrategySet,
    config: SolverConfig,
    stats: SolveStats,
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
        game, rooted, player, parent, z_index, y_index, candidate_lists, uset,
        config.epsilon, config.exhaustive_cap, stats,
    )


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
    tree needs no deep Python recursion. Rows only grow, in ascending y, so a
    later request continues where an earlier one stopped, with the same cells.
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
        self._complete_leaves(leaves, z_indices)
        for q in players:
            if rooted.children[q] or rooted.parent[q] is None:
                yield from self._extend_player(q, z_indices, need)

    def _complete_leaves(self, leaves: list[int], z_indices: Sequence[int]) -> None:
        """Decide the leaves' missing rows under ``z_indices`` whole; only
        this method writes a leaf's rows, so each is absent or complete. A
        leaf's cell is the direct check of y against z, whose payoff row
        ``A[leaf, parent] @ z`` is computed once, and one broadcast decides a
        chunk of y's for all the rows."""
        game, tables, size = self.game, self.tables, self.tables.num_strategies
        keys = [(q, z) for q in leaves for z in z_indices if (q, z) not in tables.cells]
        if not keys:
            return
        # a leaf's one slot holds its parent
        slots, zs = zip(*((game.offsets[q], z) for q, z in keys))
        bases = payoff_rows(game.payoffs[list(slots)], self.uset.probs[list(zs)])
        codes = np.empty((len(keys), size), dtype=np.int64)
        width = _group_size(len(keys), 0, game.num_actions)
        for start in range(0, size, width):
            hits = _hits([bases], self.uset.probs[start:start + width, None], tables.epsilon)
            codes[:, start:start + width] = np.where(hits.T, 0, -1)
        self._append(keys, 0, codes)

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
        matrices, bases = _payoff_terms(game, self.uset, player, parent, z_indices)
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
                game, player, parent, bases, walk, children, candidates, sizes, matrices,
                self.uset, config.epsilon, config.exhaustive_cap,
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
        """The LP route: decide the player's next group of strategies y under
        every parent strategy at once, in ascending order, once its
        children's rows under them are complete (the root takes one y at a
        time).

        A y with an empty candidate product is decided false without a
        count. The latest witness, carried from the last decided y, is tried
        first when it lies in y's candidate product; then ``membership_test``
        runs for the lowest pending row. Each witness is tried on every
        pending row by one broadcast of its tuple and settles the rows it
        hits, whose code is its position in ``tables.extensions[(player,
        y)]``. A tried tuple lies in the candidate product, so the cells are
        those of the full scan.
        """
        game, tables, config, stats = self.game, self.tables, self.config, self.stats
        size = tables.num_strategies
        parent, children = self.rooted.parent[player], self.rooted.children[player]
        matrices, bases = _payoff_terms(game, self.uset, player, parent, slice(None))
        # each witness's rows come from one stack of the children's matrices
        stacked = np.stack(matrices)
        parent_at = 0 if parent is None else bisect_left(children, parent)
        start = self._decided((player, 0))
        width = 1 if parent is None else _group_size(len(bases), len(children), game.num_actions)
        # the root's one row stops at its first true cell, so for the root
        # this finds no earlier witness
        latest = next(
            (tables.extensions[(player, y)][-1] for y in range(start - 1, -1, -1)
             if (player, y) in tables.extensions),
            None,
        )
        y_indices = np.arange(start, min(size, start + width))
        yield children, y_indices.tolist(), size
        candidates, sizes = tables.candidate_rows(children, y_indices)
        codes = np.full((len(bases), len(y_indices)), -1, dtype=np.int64)
        decided = sizes.all(axis=0)
        stats.membership_tests += len(bases) * int(decided.sum())
        for g in np.flatnonzero(decided).tolist():
            y_index = int(y_indices[g])
            candidate_lists = [
                lists[g, :count] for lists, count in zip(candidates, sizes[:, g].tolist())
            ]
            tried: list[tuple[int, ...]] = []
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
                        game, self.rooted, player, parent, None if parent is None else r,
                        y_index, candidate_lists, self.uset, config, stats,
                    )
                    if extension is None:
                        continue
                    witness = extension.strategy_indices
                    codes[r, g] = len(tried)
                tried.append(witness)
                latest = witness
                if not pending.size:
                    break
                terms = list(payoff_rows(stacked, self.uset.probs.take(witness, axis=0)))
                terms.insert(parent_at, bases[pending])
                reused = _hits(terms, self.uset.probs[y_index], config.epsilon)
                codes[pending[reused], g] = len(tried) - 1
                stats.reused_witnesses += int(reused.sum())
                pending = pending[~reused]
                witness = None
            if tried:
                tables.extensions[(player, y_index)] = tried
        self._append([(player, z) for z in range(len(bases))], start, codes)


def build_tables(
    game: TreePolymatrixGame,
    rooted: RootedTree,
    uset: UniformStrategySet,
    config: SolverConfig,
    stats: SolveStats | None = None,
) -> CandidateTables:
    """Start a solve's empty candidate tables, and warn when the game is not
    normalized for epsilon. No cell and no payoff row is computed here;
    ``process_root`` decides the cells its search reads. ``rooted`` and
    ``stats`` are accepted for symmetry with the other phases, and ``stats``
    is left unchanged.
    """
    report = check_normalized(game, config.epsilon)
    if not report.ok:
        logger.warning("game is not normalized for the requested epsilon; proceeding\n%s",
                       report.summary())
    return CandidateTables(config.epsilon, len(uset), cells={}, extensions={})


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
    _Search(game, rooted, uset, tables, config, stats).run([root], [0], None)
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
