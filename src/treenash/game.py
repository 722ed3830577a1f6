"""Tree polymatrix games: payoff storage, utilities, regrets, normalization checks.

A game lives on an undirected graph; every edge (u, v) carries two payoff
matrices, one per endpoint, kept in one read-only array grouped by the player
they pay; a player's utility is the sum of bilinear payoffs over incident
edges. All functions here are pure reads and safe to call concurrently.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidGame,
    InvalidPlayerId,
    MissingNeighborStrategy,
    NotATree,
)

# |sum(probs) - 1| allowed on any mixed strategy.
SIMPLEX_TOL = 1e-9
# Best-response comparisons are biased toward acceptance by this much.
BR_TOL = 1e-9
# A certificate is accepted when max regret <= epsilon + VERIFY_TOL.
VERIFY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Edge:
    """One undirected edge; ``payoff_u_v[a_u, a_v]`` pays u, ``payoff_v_u[a_v, a_u]`` pays v."""

    u: int
    v: int
    payoff_u_v: np.ndarray
    payoff_v_u: np.ndarray


class _LoadedEdges(NamedTuple):
    """A file's edges as the file loader checked them, passed as a game's
    ``edges`` so that each ``Edge`` is built once, by the constructor: the
    ``int`` ids u0, v0, u1, v1, ... and the float64 matrices A[u0, v0],
    A[v0, u0], ... as one (2 * edges, m, m) array."""

    ends: list[int]
    matrices: np.ndarray


@dataclass(eq=False)
class TreePolymatrixGame:
    """Polymatrix game whose interaction graph is expected to be a tree.

    Every directed payoff matrix is stored once, in the read-only float64 array
    ``payoffs`` of shape (2 * len(edges), m, m), grouped by the player it pays
    and then by neighbour, both ascending: slots ``offsets[p]:offsets[p + 1]``
    pay p, and slot s holds ``A[owners[s], neighbor_ids[s]]``. ``matrix(p, q)``
    and every edge's ``payoff_u_v`` / ``payoff_v_u`` are views into it.
    Construction stacks every matrix once, with one ``np.array`` call, into a
    float64 (2 * len(edges), m, m) array and checks in whole passes its shape,
    that every matrix is a float ndarray, that every id is an ``int`` in
    range, that no (owner, neighbour) pair sits on two slots (a self-loop or a
    duplicate edge), then finiteness and signs. When one of the first four
    fails, the per-edge loop ``_check_edges`` raises the first error in edge
    order, or passes ids of other types and numeric entries that it allows.
    The file loader passes its ids and its stacked float64 matrices as a
    ``_LoadedEdges`` instead of a list of edges: the stacking and the matrix
    type checks are skipped, and each ``Edge`` is built once, here. Tree-ness
    of the edge set is checked separately by :func:`validate_and_root`.
    """

    num_players: int
    num_actions: int
    edges: list[Edge]
    payoffs: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    owners: np.ndarray = field(init=False, repr=False)
    neighbor_ids: np.ndarray = field(init=False, repr=False)
    _neighbors: list[list[int]] = field(init=False, repr=False)
    _incident: list[list[np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, m = self.num_players, self.num_actions
        if n < 1:
            raise InvalidGame("num_players must be >= 1")
        if m < 1:
            raise InvalidGame("num_actions must be >= 1")
        if isinstance(self.edges, _LoadedEdges):
            ends, matrices = self.edges
            stacked, plain = matrices, True
        else:
            ends = list(chain.from_iterable(map(attrgetter("u", "v"), self.edges)))
            matrices = [
                *chain.from_iterable(map(attrgetter("payoff_u_v", "payoff_v_u"), self.edges))
            ]
            try:
                stacked = np.array(matrices, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):  # ragged, or entries that are not floats
                stacked = None
            # np.array reads True, "1.5" and b"1" as numbers: other inputs
            # than float arrays are checked
            plain = (
                stacked is not None
                and set(map(type, matrices)) <= {np.ndarray}
                and {dtype.kind for dtype in set(map(attrgetter("dtype"), matrices))} <= {"f"}
            )
        # slot 2i is A[u, v] of edge i and slot 2i + 1 is A[v, u]
        if not (
            plain
            and stacked.shape == (len(ends), m, m)
            and set(map(type, ends)) <= {int}
            and min(ends, default=0) >= 0
            and max(ends, default=0) < n
        ):
            stacked = self._check_edges(ends, matrices)
        across = ends.copy()
        across[0::2], across[1::2] = ends[1::2], ends[0::2]
        if len(set(zip(ends, across))) < len(ends):  # a self-loop or a duplicate edge
            self._check_edges(ends, matrices)  # raises for the first one
        pairs = np.array([ends, across], dtype=np.intp)  # owner and neighbour per slot
        slots = np.lexsort(pairs[::-1])  # by owner, then neighbour
        self.owners, self.neighbor_ids = owners, neighbor_ids = pairs[:, slots]
        self.payoffs = payoffs = stacked[slots]
        for bad, problem in ((~np.isfinite(payoffs), "non-finite"), (payoffs < 0.0, "negative")):
            if bad.any():
                s = int(slots[np.argwhere(bad)[0, 0]])
                raise InvalidGame(f"payoff matrix for {(ends[s], across[s])} has {problem} entries")
        payoffs.setflags(write=False)
        self.offsets = np.searchsorted(owners, np.arange(n + 1))
        # one prebuilt view per slot, shared by edges, matrix() and hot action_payoffs
        views, ids, starts = list(payoffs), neighbor_ids.tolist(), self.offsets.tolist()
        self._neighbors = [ids[lo:hi] for lo, hi in zip(starts, starts[1:])]
        self._incident = [views[lo:hi] for lo, hi in zip(starts, starts[1:])]
        placed = list(map(views.__getitem__, np.argsort(slots).tolist()))  # in edge order
        self.edges = list(map(Edge, ends[0::2], ends[1::2], placed[0::2], placed[1::2]))

    def _check_edges(self, ends: Sequence, matrices: Sequence) -> np.ndarray:
        """The per-edge checks in edge order, over the ids u0, v0, u1, ...
        and the matrices A[u0, v0], A[v0, u0], ...: raise InvalidGame for the
        first unknown player, self-loop, duplicate edge, misshapen matrix,
        entry that is not a number or integer entry too large for a float64,
        else return every matrix stacked as (2 * len(edges), m, m)."""
        n, m = self.num_players, self.num_actions
        seen: set[tuple[int, int]] = set()
        stacked = []
        edges = zip(ends[0::2], ends[1::2], matrices[0::2], matrices[1::2])
        for u, v, payoff_u_v, payoff_v_u in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGame(f"edge ({u}, {v}) references an unknown player")
            if u == v:
                raise InvalidGame(f"self-loop at player {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidGame(f"duplicate edge ({u}, {v})")
            seen.add(key)
            for pair, values in (((u, v), payoff_u_v), ((v, u), payoff_v_u)):
                entries = np.asarray(values, dtype=object)  # rows of unequal length stay lists
                if entries.shape != (m, m):
                    raise InvalidGame(
                        f"payoff matrix for {pair} has shape {entries.shape}, expected ({m}, {m})"
                    )
                try:
                    arr = entries.astype(np.float64)
                except OverflowError:
                    raise InvalidGame(
                        f"payoff matrix for {pair} has an entry too large for a float64"
                    ) from None
                except (TypeError, ValueError):
                    arr = None
                # float() reads True, "1.5" and b"1" as numbers as well
                if arr is None or any(
                    isinstance(x, (str, bytes, bool, np.bool_)) for x in entries.flat
                ):
                    raise InvalidGame(f"payoff matrix for {pair} has an entry that is not a number")
                stacked.append(arr)
        return np.array(stacked, dtype=np.float64).reshape(-1, m, m)

    def neighbors(self, p: int) -> list[int]:
        """Neighbors of p in ascending order."""
        return self._neighbors[p]

    def degree(self, p: int) -> int:
        return len(self._neighbors[p])

    def position(self, p: int, q: int) -> int:
        """The place of q among p's neighbours, ascending, and so of the slot
        ``offsets[p] + position`` that holds ``A[p, q]``; KeyError if q is
        not a neighbour of p."""
        i = bisect_left(self._neighbors[p], q)
        if self._neighbors[p][i:i + 1] != [q]:
            raise KeyError((p, q))
        return i

    def matrix(self, p: int, q: int) -> np.ndarray:
        """Payoff matrix to p on edge (p, q), indexed ``[a_p, a_q]``."""
        return self._incident[p][self.position(p, q)]


@dataclass(eq=False)
class RootedTree:
    """A rooting of the game tree: each player's parent (None at the root) and
    its children in ascending order."""

    root: int
    parent: list[int | None]
    children: list[list[int]]


def rooted_tree_from_edges(
    num_players: int, edge_pairs: Sequence[tuple[int, int]], root: int = 0
) -> RootedTree:
    """Root an edge list, verifying that it forms a tree on all players."""
    n = num_players
    if not (0 <= root < n):
        raise InvalidPlayerId(f"root {root} outside [0, {n})")
    if len(edge_pairs) != n - 1:
        raise NotATree(f"a tree on {n} players needs {n - 1} edges, got {len(edge_pairs)}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidPlayerId(f"edge ({u}, {v}) references an unknown player")
        adjacency[u].append(v)
        adjacency[v].append(u)

    parent: list[int | None] = [None] * n
    visited = [False] * n
    visited[root] = True
    bfs = [root]
    head = 0
    while head < len(bfs):
        node = bfs[head]
        head += 1
        for nb in sorted(adjacency[node]):
            if not visited[nb]:
                visited[nb] = True
                parent[nb] = node
                bfs.append(nb)
    if not all(visited):
        raise NotATree("edge set is disconnected or contains a cycle")

    children: list[list[int]] = [[] for _ in range(n)]
    for p in bfs[1:]:
        children[parent[p]].append(p)  # BFS visits neighbors sorted, so lists are sorted
    return RootedTree(root=root, parent=parent, children=children)


def validate_and_root(game: TreePolymatrixGame, root: int | None = None) -> RootedTree:
    """Check that the game's edges form a tree and root it (player 0 by default)."""
    return rooted_tree_from_edges(
        game.num_players, [(e.u, e.v) for e in game.edges], root if root is not None else 0
    )


def check_strategy(probs, num_actions: int) -> np.ndarray:
    """Validate a mixed strategy: length, nonnegativity, simplex sum within tolerance."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.shape != (num_actions,):
        raise ValueError(f"strategy has shape {arr.shape}, expected ({num_actions},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("strategy has non-finite entries")
    if np.any(arr < 0.0):
        raise ValueError("strategy has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"strategy sums to {total!r}, outside 1 +/- {SIMPLEX_TOL}")
    return arr


def check_profile(game: TreePolymatrixGame, strategies: Sequence) -> list[np.ndarray]:
    """Validate one strategy per player, all in one array pass; on a bad
    profile, raise ``check_strategy``'s error for its first bad strategy."""
    if len(strategies) != game.num_players:
        raise ValueError(
            f"profile has {len(strategies)} strategies, expected {game.num_players}"
        )
    arrays = [np.asarray(s, dtype=np.float64) for s in strategies]
    try:
        stacked = np.stack(arrays)
    except ValueError:  # ragged
        stacked = None
    if not (
        stacked is not None
        and stacked.shape == (game.num_players, game.num_actions)
        and np.isfinite(stacked).all()
        and not (stacked < 0.0).any()
        and (np.abs(stacked.sum(axis=1) - 1.0) <= SIMPLEX_TOL).all()
    ):
        for s in arrays:
            check_strategy(s, game.num_actions)
    return arrays


def action_payoffs(
    game: TreePolymatrixGame, p: int, neighbor_strategies: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Pure-action payoff vector for p: entry j is sum_q A[p,q][j, :] . x_q.

    The map must cover exactly the neighbors of p.
    """
    expected = game.neighbors(p)
    provided = set(neighbor_strategies)
    if provided != set(expected):
        missing = sorted(set(expected) - provided)
        extra = sorted(provided - set(expected))
        raise MissingNeighborStrategy(
            f"player {p}: missing strategies for {missing}, unexpected for {extra}"
        )
    v = np.zeros(game.num_actions)
    for q, matrix in zip(expected, game._incident[p]):
        v += matrix @ np.asarray(neighbor_strategies[q], dtype=np.float64)
    return v


def payoff_rows(matrices: np.ndarray, strategies: np.ndarray) -> np.ndarray:
    """``matrices @ x`` for every strategy x of ``strategies`` (..., m),
    broadcast against the (..., m, m) ``matrices`` over their leading axes.
    One stacked matmul against columns runs one gemv per row, the gemv
    ``action_payoffs`` runs for one neighbour, so every row has its bits."""
    return np.matmul(matrices, strategies[..., None])[..., 0]


def padded_rows(rows: Sequence[np.ndarray], fill) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D ``rows`` as the rows of one 2-D array, in order, each padded
    with ``fill`` to the longest; and the rows' lengths."""
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    flat = np.concatenate(rows) if len(rows) else np.empty(0)
    padded = np.full((len(rows), sizes.max(initial=0)), fill, dtype=flat.dtype)
    padded[np.arange(padded.shape[1]) < sizes[:, None]] = flat
    return padded, sizes


def mixed_payoff(strategy: np.ndarray, payoffs: np.ndarray) -> float:
    # Computed as (y * v).sum() so that batched evaluations (Y * v).sum(axis=1)
    # agree with the scalar path bit-for-bit.
    return float((np.asarray(strategy, dtype=np.float64) * payoffs).sum())


def expected_utility(game: TreePolymatrixGame, p: int, profile: Sequence[np.ndarray]) -> float:
    """Expected utility of p: sum over incident edges of x_p^T A x_q."""
    v = action_payoffs(game, p, {q: profile[q] for q in game.neighbors(p)})
    return mixed_payoff(profile[p], v)


def deviation_payoff(
    game: TreePolymatrixGame,
    p: int,
    action: int,
    neighbor_strategies: Mapping[int, np.ndarray],
) -> float:
    """Expected payoff to p for the pure action against fixed neighbor strategies."""
    if not (0 <= action < game.num_actions):
        raise ValueError(f"action {action} outside [0, {game.num_actions})")
    v = action_payoffs(game, p, neighbor_strategies)
    return float(v[action])


def regret(game: TreePolymatrixGame, p: int, profile: Sequence[np.ndarray]) -> float:
    """Best pure deviation payoff minus current expected utility, >= 0."""
    v = action_payoffs(game, p, {q: profile[q] for q in game.neighbors(p)})
    gap = float(v.max()) - mixed_payoff(profile[p], v)
    if -1e-12 <= gap < 0.0:
        return 0.0  # floating noise only; larger negatives would be a real bug
    return gap


def regrets(game: TreePolymatrixGame, profile: Sequence[np.ndarray]) -> np.ndarray:
    """Every player's ``regret`` at once, bit for bit: one gemv per payoff
    slot from one stacked matmul, summed per owner from zeros in ascending
    neighbour order as ``action_payoffs`` sums them, with the same clamp."""
    x = np.asarray(profile, dtype=np.float64)
    terms = payoff_rows(game.payoffs, x[game.neighbor_ids])
    v = np.zeros((game.num_players, game.num_actions))
    np.add.at(v, game.owners, terms)  # slots are sorted by owner, then neighbour
    gaps = v.max(axis=1) - (x * v).sum(axis=1)
    gaps[(-1e-12 <= gaps) & (gaps < 0.0)] = 0.0
    return gaps


def is_epsilon_best_response(
    game: TreePolymatrixGame,
    p: int,
    strategy: np.ndarray,
    neighbor_strategies: Mapping[int, np.ndarray],
    epsilon: float,
) -> bool:
    """True iff the strategy's payoff is within epsilon of the best pure action."""
    v = action_payoffs(game, p, neighbor_strategies)
    return mixed_payoff(strategy, v) >= float(v.max()) - epsilon - BR_TOL


def entry_bound(degree: int, num_actions: int, epsilon: float, log_base: float = math.e) -> float:
    """Per-entry payoff cap for a player of the given degree.

    max(1/degree, epsilon / (2 sqrt(6 degree log(num_actions)))). Logarithms are
    natural by default (``log_base``). For single-action games the log term
    vanishes and the cap is 1/degree.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    first = 1.0 / degree
    if num_actions < 2:
        return first
    log_m = math.log(num_actions, log_base)
    return max(first, epsilon / (2.0 * math.sqrt(6.0 * degree * log_m)))


@dataclass(frozen=True)
class EntryViolation:
    player: int
    neighbor: int
    row: int
    col: int
    value: float
    bound: float


@dataclass(frozen=True)
class UtilityRangeViolation:
    player: int
    kind: str  # "max": a pure utility exceeds 1 (the only kind check_normalized reports)
    value: float


@dataclass
class NormalizationReport:
    epsilon: float
    entry_violations: list[EntryViolation]
    utility_violations: list[UtilityRangeViolation]

    @property
    def ok(self) -> bool:
        return not self.entry_violations and not self.utility_violations

    def summary(self) -> str:
        if self.ok:
            return f"normalized for epsilon={self.epsilon:g}: ok"
        parts = [
            f"normalized for epsilon={self.epsilon:g}: "
            f"{len(self.entry_violations)} entry / {len(self.utility_violations)} utility violations"
        ]
        for ev in self.entry_violations[:3]:
            parts.append(
                f"  entry A[{ev.player},{ev.neighbor}][{ev.row},{ev.col}] = {ev.value:g} "
                f"outside [0, {ev.bound:g}]"
            )
        for uv in self.utility_violations[:3]:
            parts.append(f"  pure utility of player {uv.player} ({uv.kind}) = {uv.value:g}")
        return "\n".join(parts)


def check_normalized(
    game: TreePolymatrixGame,
    epsilon: float,
    log_base: float = math.e,
    atol: float = 1e-12,
) -> NormalizationReport:
    """Check the per-entry caps and the [0, 1] pure-utility range for every player.

    The utility range is checked exactly through per-edge row maxima, summed
    per player over its neighbours in ascending order, which is valid because
    utilities are separable across edges. Construction rejects negative
    entries, so no entry and no pure utility can fall below 0, and only the
    upper ends are checked. Violations are reported, never raised, in player
    order. Raises ValueError for a negative ``atol``.
    """
    if not atol >= 0.0:
        raise ValueError(f"atol must be >= 0, got {atol!r}")
    m, owners, payoffs = game.num_actions, game.owners, game.payoffs
    degrees, per_slot = np.unique(np.diff(game.offsets)[owners], return_inverse=True)
    bounds = np.array([entry_bound(int(d), m, epsilon, log_base) for d in degrees])[per_slot]
    outside = payoffs > (bounds + atol)[:, None, None]
    entry_violations = [
        EntryViolation(int(owners[s]), int(game.neighbor_ids[s]), row, col,
                       float(payoffs[s, row, col]), float(bounds[s]))
        for s, row, col in np.argwhere(outside).tolist()
    ]
    totals = np.zeros((game.num_players, m))
    np.add.at(totals, owners, payoffs.max(axis=2))
    worst = totals.max(axis=1)
    # an isolated player's utility is 0
    flagged = (worst > 1.0 + atol) & (np.diff(game.offsets) > 0)
    utility_violations = [
        UtilityRangeViolation(p, "max", float(worst[p])) for p in np.flatnonzero(flagged).tolist()
    ]
    return NormalizationReport(epsilon, entry_violations, utility_violations)


@dataclass(eq=False)
class EquilibriumCertificate:
    """A verified profile: every player's regret is within epsilon (+ tolerance)."""

    profile: list[np.ndarray]
    epsilon: float
    regrets: np.ndarray

    def __post_init__(self) -> None:
        self.regrets = np.asarray(self.regrets, dtype=np.float64)
        if self.regrets.size and float(self.regrets.max()) > self.epsilon + VERIFY_TOL:
            raise ValueError(
                f"regret {float(self.regrets.max())!r} exceeds epsilon {self.epsilon!r}"
            )
        if self.regrets.size and float(self.regrets.min()) < -1e-12:
            raise ValueError("negative regret in certificate")

    @property
    def max_regret(self) -> float:
        return float(self.regrets.max()) if self.regrets.size else 0.0
