"""Tests for the dynamic program: tables, membership, root processing, solve."""

import dataclasses
import functools
import hashlib
import importlib.util
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    game_from_matrices,
    identity_edge_game,
    matching_pennies_game,
    path_edges,
    star_edges,
    zero_game,
)
from treenash.errors import CapExceeded, InvalidPlayerId, NoEquilibriumFound, SetTooLarge
from treenash.game import (
    Edge,
    TreePolymatrixGame,
    action_payoffs,
    is_epsilon_best_response,
    mixed_payoff,
    payoff_rows,
    validate_and_root,
)
from treenash.generator import random_normalized_game
from treenash.oracle import all_equilibria, verify_profile
from treenash import solver as solver_module
from treenash.solver import (
    CandidateTables,
    SolveStats,
    SolverConfig,
    _Search,
    backtrack,
    build_tables,
    default_lp_threshold,
    exhaustive_membership,
    first_witnesses,
    process_root,
    solve,
)
from treenash.uniform import enumerate_uniform, support_size


def tables_for(game, epsilon, b, **config_kwargs):
    """Tables with every cell of every non-root player decided, as a full
    table holds them; the root's row is left to process_root."""
    config = SolverConfig(epsilon=epsilon, b_override=b, **config_kwargs)
    rooted = validate_and_root(game, config.root)
    uset = enumerate_uniform(game.num_actions, b)
    stats = SolveStats()
    tables = build_tables(game, rooted, uset, config, stats)
    players = [q for q in range(game.num_players) if q != rooted.root]
    _Search(game, rooted, uset, tables, config, stats).run(players, range(len(uset)), len(uset))
    return rooted, uset, tables, config, stats


def full_masks(rooted, tables):
    """Per non-root player q, the (parent strategy, own strategy) table of
    its decided cells."""
    size = tables.num_strategies
    return {
        q: np.array([tables.cells[(q, z)] >= 0 for z in range(size)]).reshape(size, size)
        for q in range(len(rooted.parent))
        if q != rooted.root
    }


def tables_from_masks(epsilon, uset, masks):
    """Tables whose rows are complete and given by per-player (z, y) masks,
    each true cell coded as its product's first tuple."""
    cells = {
        (q, z): np.where(row, 0, -1) for q, mask in masks.items() for z, row in enumerate(mask)
    }
    return CandidateTables(epsilon, len(uset), cells=cells, extensions={})


def scaled_payoffs(game, players, factor):
    """``game`` with every payoff matrix paid to one of ``players``
    multiplied by ``factor``; beyond the normalized scale, first tuples miss
    more often."""
    edges = [
        Edge(e.u, e.v, e.payoff_u_v * (factor if e.u in players else 1.0),
             e.payoff_v_u * (factor if e.v in players else 1.0))
        for e in game.edges
    ]
    return TreePolymatrixGame(game.num_players, game.num_actions, edges)


# A hub-leaf edge at m=3 on which the hub's first tuples miss: with b=1 (the
# pure strategies), a leaf's best responses are actions 1 and 2 when the hub
# plays action 0, and 0 and 2 otherwise, so its lowest candidate is 1 or 0;
# the hub's payoff favours a leaf's action 0 or 1, which makes each hub
# strategy a strict non-best response against the leaf's lowest candidate,
# and is zero against action 2, the witness for every hub strategy.
DECOY_HUB = np.diag([1.0, 1.0, 0.0])  # [hub action, leaf action]
DECOY_LEAF = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])  # [leaf, hub]


def decoy_star(n, hub, decoys):
    """A star on ``n`` players at m=3 around ``hub``, whose edges to
    ``decoys`` carry DECOY_HUB and DECOY_LEAF and whose other edges pay 0."""
    zero = np.zeros((3, 3))
    return game_from_matrices(n, 3, [
        (hub, v, DECOY_HUB, DECOY_LEAF) if v in decoys else (hub, v, zero, zero)
        for v in range(n) if v != hub
    ])


def recovered_witnesses(rooted, uset, tables):
    """The (q, z, y) -> witness map of every true cell of an internal
    non-root player, each read as backtrack reads it."""
    witnesses = {}
    for q, mask in full_masks(rooted, tables).items():
        if not rooted.children[q]:
            continue
        for z_idx, y_idx in zip(*map(np.ndarray.tolist, np.nonzero(mask))):
            witnesses[(q, z_idx, y_idx)] = tables.witness(rooted, q, z_idx, y_idx)
    return witnesses


class TestConfig:
    def test_default_threshold(self):
        assert default_lp_threshold(2, 0.5) == 67
        assert default_lp_threshold(1, 0.5) == 2  # log term vanishes, floor applies
        assert math.ceil(24 * math.log(2) / 0.16) == default_lp_threshold(2, 0.4)

    def test_validation(self):
        with pytest.raises(Exception):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.5, lp_threshold=1)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.5, max_tries=0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.5, thread_count=0)
        # NaN and inf would switch off the LP residual re-check
        for tolerance in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="lp_tolerance"):
                SolverConfig(epsilon=0.5, lp_tolerance=tolerance)
        assert SolverConfig(epsilon=0.5, lp_threshold=math.inf).lp_threshold == math.inf
        # NaN passes every comparison: a NaN threshold turned the LP route
        # off, a NaN scan cap switched the cap off, and a float support size
        # raised TypeError from the grid enumeration
        for name in ("b_override", "max_tries", "exhaustive_cap", "enumeration_cap"):
            for value in (math.nan, 2.5):
                with pytest.raises(ValueError, match=name):
                    SolverConfig(epsilon=0.5, **{name: value})
        with pytest.raises(ValueError, match="lp_threshold"):
            SolverConfig(epsilon=0.5, lp_threshold=math.nan)
        # a float root reached list indexing in the rooting as a bare TypeError
        for value in (math.nan, 1.5, -1):
            with pytest.raises(ValueError, match="root"):
                SolverConfig(epsilon=0.5, root=value)
        # a root past the last player is refused when the tree is rooted
        with pytest.raises(InvalidPlayerId):
            solve(identity_edge_game(), SolverConfig(epsilon=0.5, b_override=1, root=2))

    @pytest.mark.parametrize(
        "name",
        ["b_override", "max_tries", "exhaustive_cap", "enumeration_cap", "thread_count",
         "rng_seed", "root"],
    )
    def test_integer_fields_reject_bools(self, name):
        # bool is a numbers.Integral: b_override=True solved with b=1, and
        # root=True rooted the tree at player 1
        for value in (True, False):
            with pytest.raises(ValueError, match=name):
                SolverConfig(epsilon=0.5, **{name: value})


class TestBuildTables:
    def test_single_edge_identity_b1(self):
        game = identity_edge_game()
        rooted, _, tables, _, _ = tables_for(game, 0.5, 1)
        assert full_masks(rooted, tables)[1].tolist() == [[True, False], [False, True]]

    def test_zero_tree_everything_extends(self):
        game = zero_game(4, path_edges(4))
        rooted, uset, tables, _, _ = tables_for(game, 0.3, 2)
        masks = full_masks(rooted, tables)
        for q in (1, 2, 3):
            assert masks[q].all()

    def test_path3_identity_middle_sets_match_hand_enumeration(self):
        eye = np.eye(2)
        game = game_from_matrices(
            3, 2, [(0, 1, eye.copy(), eye.copy()), (1, 2, eye.copy(), eye.copy())]
        )
        rooted, uset, tables, _, _ = tables_for(game, 0.1, 1)
        masks = full_masks(rooted, tables)
        # leaf 2 best-responds to matching strategies only
        assert masks[2].tolist() == [[True, False], [False, True]]
        # middle player: for any z, both y work because the child matches y
        # (y = e_k earns 1 from the child and z contributes symmetrically)
        assert masks[1].all()
        assert recovered_witnesses(rooted, uset, tables) == {
            (1, 0, 0): (0,), (1, 0, 1): (1,), (1, 1, 0): (0,), (1, 1, 1): (1,)
        }

    def test_leaf_tables_agree_exactly_with_scalar_check(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            game = random_normalized_game(4, 3, 0.5, rng_seed=int(rng.integers(1000)))
            rooted, uset, tables, config, _ = tables_for(game, 0.5, 2)
            masks = full_masks(rooted, tables)
            for q in range(4):
                if rooted.children[q] or q == rooted.root:
                    continue
                parent = rooted.parent[q]
                for z_idx in range(len(uset)):
                    for y_idx in range(len(uset)):
                        expected = is_epsilon_best_response(
                            game, q, uset.probs[y_idx],
                            {parent: uset.probs[z_idx]}, 0.5,
                        )
                        assert bool(masks[q][z_idx, y_idx]) == expected

    @pytest.mark.parametrize("m, b", [(2, 4), (3, 3), (5, 2)])
    @pytest.mark.parametrize("topology", ["random-12", "star-70"])
    def test_payoff_rows_equal_per_row_gemv(self, topology, m, b):
        # one stacked matmul against columns gives each row the bits of
        # that row's own gemv, which is what action_payoffs runs, in every
        # shape the search stacks: all slots against the whole grid, one
        # matrix against a (strategies, candidates) gather of the grid as a
        # scan takes it, one matrix per row as a leaf chunk takes them, and
        # a player's children's stacked matrices against one witness each.
        # The star's hub has 69 neighbour slots, more than 64
        kind, n = topology.split("-")
        n = int(n)
        edges = star_edges(n) if kind == "star" else None
        game = random_normalized_game(n, m, 0.5, topology=edges, rng_seed=m)
        uset = enumerate_uniform(m, b)
        size = len(uset)
        table = payoff_rows(game.payoffs[:, None], uset.probs)
        assert table.shape == (2 * (n - 1), size, m)
        rng = np.random.default_rng(m)
        lists = rng.integers(size, size=(3, size))
        slots = np.arange(len(game.payoffs)).repeat(size)
        leaf_rows = payoff_rows(game.payoffs[slots], np.tile(uset.probs, (len(game.payoffs), 1)))
        assert np.array_equal(leaf_rows, table.reshape(-1, m))
        for p in range(n):
            for slot, c in enumerate(game.neighbors(p), start=game.offsets[p]):
                matrix = game.matrix(p, c)
                expected = np.array([matrix @ uset.probs[i] for i in range(size)])
                assert np.array_equal(table[slot], expected), (p, c)
                gathered = payoff_rows(matrix, uset.probs.take(lists, axis=0))
                assert np.array_equal(gathered, expected[lists]), (p, c)
            witness = rng.integers(size, size=game.degree(p))
            stacked = np.stack(game._incident[p])
            rows = payoff_rows(stacked, uset.probs.take(witness, axis=0))
            own = table[game.offsets[p]:game.offsets[p + 1]]
            assert np.array_equal(rows, own[np.arange(game.degree(p)), witness]), p

    @pytest.mark.parametrize(
        "topology, m, b",
        [
            *[(topology, m, b) for topology in ("star-70", "path-5")
              for m, b in ((2, 4), (3, 3), (5, 2))],
            ("path-5", 8, 3),
            ("path-5", 9, 3),
        ],
    )
    def test_leaf_masks_agree_exactly_with_scalar_check(self, topology, m, b, monkeypatch):
        # The leaves of one request are decided as the search decides them:
        # their payoff rows under every z stacked, as one childless player,
        # in chunks of y's. A star's 69 leaves (more than 64) share one
        # stack. The group limit runs at its default, at two y's per chunk
        # and at one; at the first epsilon the search itself decides the
        # leaves' rows too, at each limit. The second
        # epsilon puts one cell on the acceptance boundary: it is that cell's
        # scalar gap less BR_TOL. At m = 8 and 9 numpy sums a utility
        # pairwise, and b = 3 gives strategies with three or more weights,
        # whose sums show the order in their bits.
        kind, n = topology.split("-")
        n = int(n)
        edges = star_edges(n) if kind == "star" else path_edges(n)
        uset = enumerate_uniform(m, b)
        size = len(uset)
        default = solver_module._GROUP_ELEMENT_LIMIT
        densities, group_counts = [], set()
        for seed in range(2):
            game = random_normalized_game(n, m, 0.5, topology=edges, rng_seed=seed)
            rooted = validate_and_root(game, 0)
            parent = 0 if kind == "star" else n - 2
            leaves = [q for q in rooted.children[parent] if not rooted.children[q]]
            assert len(leaves) == (n - 1 if kind == "star" else 1)
            v = action_payoffs(game, leaves[-1], {parent: uset.probs[seed + 1]})
            epsilon = float(v.max()) - mixed_payoff(uset.probs[0], v) - solver_module.BR_TOL
            # each leaf's one slot holds its parent
            slots = np.repeat(game.offsets[leaves], size)
            bases = payoff_rows(game.payoffs[slots], np.tile(uset.probs, (len(leaves), 1)))
            for eps in (0.05, epsilon):
                expected = np.array([
                    [
                        [
                            is_epsilon_best_response(
                                game, q, uset.probs[y_idx], {parent: uset.probs[z_idx]}, eps
                            )
                            for y_idx in range(size)
                        ]
                        for z_idx in range(size)
                    ]
                    for q in leaves
                ])
                densities.append(expected.mean())
                for limit in (default, 2 * len(bases) * (m + 1), 1):
                    monkeypatch.setattr(solver_module, "_GROUP_ELEMENT_LIMIT", limit)
                    group = solver_module._group_size(len(bases), 0, m)
                    groups = [np.arange(y, min(y + group, size)) for y in range(0, size, group)]
                    group_counts.add(len(groups))
                    found = np.concatenate([
                        first_witnesses(
                            game, leaves[0], parent, bases, y_indices, [], [],
                            np.empty((0, len(y_indices)), dtype=np.int64), [], uset, eps, 1,
                        )
                        for y_indices in groups
                    ], axis=1)
                    assert set(np.unique(found).tolist()) <= {-1, 0}
                    masks = (found >= 0).reshape(len(leaves), size, size)
                    assert np.array_equal(masks, expected), (seed, eps, limit)
                    if eps == 0.05:
                        config = SolverConfig(epsilon=eps, b_override=b)
                        tables = build_tables(game, rooted, uset, config)
                        _Search(game, rooted, uset, tables, config, SolveStats()).run(
                            leaves, range(size), size
                        )
                        searched = [[tables.cells[(q, z)] for z in range(size)] for q in leaves]
                        assert np.array_equal(np.array(searched) >= 0, expected), (seed, limit)
        assert 0.0 < min(densities) < 1.0
        # groups of two y's and of one
        assert {-(-size // 2), size} <= group_counts

    def test_stored_extensions_reference_candidates_and_best_responses(self):
        # the exhaustive route, then the LP route with infeasible LPs,
        # fallbacks and witnesses reused across parent strategies
        inputs = [(8, 2, 0.5, 2, 12, None)] + [
            (10 + seed % 5, 3 + seed % 2, 0.1, 2, seed, 2) for seed in range(4)
        ]
        lp_stats = SolveStats()
        for n, m, eps, b, seed, threshold in inputs:
            game = random_normalized_game(n, m, eps, rng_seed=seed)
            rooted, uset, tables, config, stats = tables_for(
                game, eps, b, lp_threshold=threshold, rng_seed=seed
            )
            if threshold is not None:
                lp_stats.lp_infeasible += stats.lp_infeasible
                lp_stats.fallbacks += stats.fallbacks
                lp_stats.reused_witnesses += stats.reused_witnesses
            masks = full_masks(rooted, tables)
            for (q, z_idx, y_idx), indices in recovered_witnesses(rooted, uset, tables).items():
                children = rooted.children[q]
                assert len(indices) == len(children)
                neighbors = {rooted.parent[q]: uset.probs[z_idx]}
                for c, x_idx in zip(children, indices):
                    assert masks[c][y_idx, x_idx]  # witness drawn from the child's set
                    neighbors[c] = uset.probs[x_idx]
                assert is_epsilon_best_response(game, q, uset.probs[y_idx], neighbors, eps)
        assert lp_stats.lp_infeasible > 0
        assert lp_stats.fallbacks > 0
        assert lp_stats.reused_witnesses > 0

    def test_lp_route_codes_follow_the_scalar_check_with_the_parent_at_every_sorted_place(self):
        # An LP-route column tries its witnesses in order on every row still
        # pending, and a row's LP runs only when every earlier witness missed
        # it, so each cell's code is the first tried witness that the scalar
        # check accepts there, or -1. The reuse broadcast adds the parent's
        # row at its sorted place among the children; roots away from 0 put
        # the parent's id below, between and above its children's ids.
        places = set()
        for seed in range(4):
            n, m, eps = 10 + seed % 5, 3 + seed % 2, 0.1
            game = random_normalized_game(n, m, eps, rng_seed=seed)
            for root in (n - 1, n // 2):
                rooted, uset, tables, _, _ = tables_for(
                    game, eps, 2, lp_threshold=2, rng_seed=seed, root=root
                )
                for (q, y_idx), tried in tables.extensions.items():
                    parent, children = rooted.parent[q], rooted.children[q]
                    codes = [int(tables.cells[(q, z_idx)][y_idx]) for z_idx in range(len(uset))]
                    expected = []
                    for z_idx in range(len(uset)):
                        hits = [
                            is_epsilon_best_response(
                                game, q, uset.probs[y_idx],
                                {parent: uset.probs[z_idx],
                                 **{c: uset.probs[x] for c, x in zip(children, witness)}},
                                eps,
                            )
                            for witness in tried
                        ]
                        expected.append(hits.index(True) if True in hits else -1)
                    assert codes == expected, (seed, root, q, y_idx)
                    if sum(code >= 0 for code in codes) > len(tried):  # a witness was reused
                        places.add(
                            "below" if parent < children[0]
                            else "above" if parent > children[-1] else "between"
                        )
        assert places == {"below", "between", "above"}

    @staticmethod
    def lp_route_boundaries(carried):
        """Decide column y of player 2 on the LP route at epsilon at the
        scalar boundary of a drawn tuple and at the float just below, and
        check that each cell's code follows the scalar check. Player 2's
        children are leaves whose rows under every other y are complete and
        all true. With ``carried`` the tuple is carried into y from column
        y - 1, and under y each child's candidates are its entry of the
        tuple and a lower entry of a first tuple that the scalar check
        rejects under every parent strategy at both epsilons; else the tuple
        is y's first tuple, each child's lowest candidate. Epsilon is the
        smallest float at which the scalar check accepts the tuple under
        one parent strategy. Rooted at 0, 3 and 4, player 2's parent id
        falls below, between and above its children's. Return the count of
        boundary epsilons per root."""
        edges = [(3, 2), (2, 1), (2, 4), (2, 0)]
        rng = np.random.default_rng(5)
        boundaries = dict.fromkeys((0, 3, 4), 0)  # per root, over both m
        for m in (2, 3):
            game = random_normalized_game(5, m, 0.5, topology=edges, rng_seed=m)
            uset = enumerate_uniform(m, 3)
            size = len(uset)
            for root in (0, 3, 4):
                rooted = validate_and_root(game, root)
                parent, children = rooted.parent[2], rooted.children[2]
                for _ in range(24):
                    y_idx = int(rng.integers(1, size))
                    witness = tuple(rng.integers(1, size, size=len(children)).tolist())
                    z_idx = int(rng.integers(size))

                    def accepts(eps, z_idx, indices=witness, y_idx=y_idx):
                        neighbors = {parent: uset.probs[z_idx]}
                        neighbors.update({c: uset.probs[x] for c, x in zip(children, indices)})
                        return is_epsilon_best_response(game, 2, uset.probs[y_idx], neighbors, eps)

                    low, high = -1.0, 2.0  # payoffs lie in [0, 1]
                    while (mid := (low + high) / 2) not in (low, high):
                        low, high = (low, mid) if accepts(mid, z_idx) else (mid, high)
                    if not 0.0 < low < high <= 1.0:
                        continue  # a best response, whose boundary is not a valid epsilon
                    first = witness
                    if carried:
                        # a lower tuple that misses every row, tried first
                        draws = (tuple(int(rng.integers(x + 1)) for x in witness) for _ in range(40))
                        first = next(
                            (t for t in draws if t != witness
                             and not any(accepts(high, z, t) for z in range(size))),
                            None,
                        )
                        if first is None:
                            continue
                    for eps in (high, low):
                        config = SolverConfig(epsilon=eps, b_override=3, lp_threshold=2, root=root)
                        tables = build_tables(game, rooted, uset, config)
                        for c, x, f in zip(children, witness, first):
                            for y in range(size):
                                tables.cells[(c, y)] = np.zeros(size, dtype=np.int64)
                            tables.cells[(c, y_idx)][:] = -1
                            tables.cells[(c, y_idx)][[f, x]] = 0
                        for z in range(size):
                            tables.cells[(2, z)] = np.zeros(y_idx, dtype=np.int64)
                        if carried:
                            tables.extensions[(2, y_idx - 1)] = [witness]
                        stats = SolveStats()
                        _Search(game, rooted, uset, tables, config, stats).run(
                            [2], range(size), size
                        )
                        hits = [accepts(eps, z) for z in range(size)]
                        tried = tables.extensions.get((2, y_idx), [])
                        # a first tuple that hits no row is not stored
                        assert (tried[:1] == [witness]) == (carried or any(hits))
                        for z in range(size):
                            code = tables.cells[(2, z)][y_idx]
                            assert (code == 0) == hits[z], (m, root, eps, z)
                        if carried:
                            assert tried[0] != first  # the first tuple missed every row
                        else:
                            # counted once for each row that a first tuple
                            # settles; the later columns' first tuple is 0, ...
                            later = sum(
                                accepts(eps, z, (0,) * len(children), y)
                                for y in range(y_idx + 1, size) for z in range(size)
                            )
                            assert stats.first_tuple_hits == sum(hits) + later
                        boundaries[root] += eps == high
        return boundaries

    def test_carried_witness_reused_exactly_at_the_scalar_boundary(self):
        # The reuse broadcast has no scalar confirm, so its payoff sums must
        # round like action_payoffs'
        assert min(self.lp_route_boundaries(carried=True).values()) >= 10

    def test_first_tuple_settles_exactly_at_the_scalar_boundary(self):
        # An LP-route column tries each y's first tuple before its carried
        # witness and its LP, by the same broadcast, which must accept
        # exactly where is_epsilon_best_response does
        assert min(self.lp_route_boundaries(carried=False).values()) >= 10


    def test_masks_identical_with_and_without_the_lp_route(self):
        # the LP route only decides which witness is stored; misses fall back
        # to the complete scan, so every mask matches the exhaustive one. A
        # witness carried over from an earlier y settles some strategies y
        # without an LP, so there are fewer LPs than LP-route (player, y)
        # pairs with non-empty candidate lists.
        lp_calls = lp_pairs = 0
        for seed in range(20):
            n, m, b = 6 + seed % 11, 2 + seed % 2, 1 + seed % 3
            game = random_normalized_game(n, m, 0.5, rng_seed=seed)
            rooted, _, exact, _, _ = tables_for(game, 0.5, b, lp_threshold=math.inf)
            rooted, _, mixed, _, stats = tables_for(
                game, 0.5, b, lp_threshold=2, rng_seed=seed
            )
            exact, mixed = full_masks(rooted, exact), full_masks(rooted, mixed)
            lp_calls += stats.lp_calls
            lp_pairs += sum(
                all(mixed[c][y_idx].any() for c in rooted.children[q])
                for q in mixed
                if len(rooted.children[q]) >= 2
                for y_idx in range(len(mixed[q]))
            )
            assert set(exact) == set(mixed)
            for q, mask in exact.items():
                assert np.array_equal(mask, mixed[q]), (seed, q)
        assert 0 < lp_calls < lp_pairs

    def test_masks_identical_across_routes_at_the_theoretical_grid(self):
        # a star rooted at leaf 1: hub 0 decides each of its K=255 strategies
        # against 255 parent strategies over two leaves' candidate lists, a
        # grid no oracle can enumerate. At this epsilon every mask is full.
        # The hub's payoffs are doubled, so that its first tuples miss some
        # pairs, and the LP route settles those by LPs and witness reuse.
        b = support_size(2, 4, 0.8)
        assert b == 254
        for seed in (2, 7):
            game = random_normalized_game(4, 2, 0.8, topology=star_edges(4), rng_seed=seed)
            game = scaled_payoffs(game, {0}, 2.0)
            runs = []
            for threshold in (math.inf, 2):
                rooted, uset, tables, config, stats = tables_for(
                    game, 0.8, b, lp_threshold=threshold, root=1, rng_seed=seed
                )
                y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
                profile = backtrack(rooted, tables, y_idx, ext, uset)
                assert verify_profile(game, profile, 0.8).accepted, (seed, threshold)
                runs.append((full_masks(rooted, tables), stats))
            (exact, _), (mixed, stats) = runs
            assert stats.lp_calls > 0 and stats.reused_witnesses > 0
            # the first tuples settle most pairs and miss the rest
            assert 0 < stats.first_tuple_hits < stats.membership_tests
            assert set(exact) == set(mixed)
            for q, mask in exact.items():
                assert np.array_equal(mask, mixed[q]), (seed, q)

    def test_tables_identical_for_every_scan_block_size(self, monkeypatch):
        # the block size only cuts the canonical scan order into vectorized
        # pieces, so masks and first witnesses cannot depend on it
        default = solver_module._VECTORIZE_ELEMENT_LIMIT
        split_scans = 0
        for seed in range(12):
            n, m, b = 8 + seed, 2 + seed % 2, 1 + seed % 3
            game = random_normalized_game(n, m, 0.5, rng_seed=seed)
            runs = []
            for limit in (default, 60, 1):
                monkeypatch.setattr(solver_module, "_VECTORIZE_ELEMENT_LIMIT", limit)
                rooted, uset, tables, _, _ = tables_for(game, 0.5, b, lp_threshold=math.inf)
                runs.append((full_masks(rooted, tables), recovered_witnesses(rooted, uset, tables)))
            for masks, witnesses in runs[1:]:
                assert set(masks) == set(runs[0][0])
                for q, mask in runs[0][0].items():
                    assert np.array_equal(mask, masks[q]), (seed, q)
                assert witnesses == runs[0][1], seed
            # count scans whose product is larger than the block the limit of
            # 60 allows with every parent row of one y pending, so that the
            # limit is known to cut some scans into several capped blocks
            for q in runs[0][0]:
                children = rooted.children[q]
                block = max(1, 60 // (len(uset) * (len(children) + 1) * (m + 1) + 1))
                for y_idx in range(tables.num_strategies):
                    sizes = [len(tables.candidate_set(c, y_idx)) for c in children]
                    if children and math.prod(sizes) > block:
                        split_scans += 1
        assert split_scans > 0

    def test_tables_identical_for_every_group_size(self, monkeypatch):
        # a group only decides several strategies y in one scan; each (z, y)
        # pair keeps its own candidate product and canonical first hit, and
        # the LP route walks a group's y's in order. So masks, witnesses,
        # profiles and counters cannot depend on the group size. A limit of 1
        # gives one y per group; 2 and 3 times the values one y of the player
        # with the most children needs give that player 2 and 3 y's a group.
        default = solver_module._GROUP_ELEMENT_LIMIT
        cases = [
            (8 + seed, 2 + seed % 2, 0.5, 1 + seed % 3, None, dict(lp_threshold=math.inf))
            for seed in range(4)
        ] + [
            (6, 2, 0.5, 6, path_edges(6), dict(lp_threshold=math.inf, root=2)),
            (5, 3, 0.5, 3, path_edges(5), dict(lp_threshold=math.inf)),
            (12, 3, 0.1, 2, None, dict(lp_threshold=2, rng_seed=1)),
            (11, 4, 0.1, 2, None, dict(lp_threshold=2, rng_seed=2)),
            (14, 3, 0.5, 2, None, dict(lp_threshold=3, rng_seed=3)),
        ]
        groups = set()
        original = solver_module.first_witnesses

        def spy(game, player, parent, bases, y_indices, children, *args):
            groups.add((len(y_indices), len(children)))
            return original(game, player, parent, bases, y_indices, children, *args)

        monkeypatch.setattr(solver_module, "first_witnesses", spy)
        lp_stats = SolveStats()
        for seed, (n, m, eps, b, topology, options) in enumerate(cases):
            game = random_normalized_game(n, m, eps, topology=topology, rng_seed=seed)
            rooted = validate_and_root(game, options.get("root", 0))
            size = len(enumerate_uniform(m, b))
            widest = max(len(children) for children in rooted.children)
            pair_values = size * (widest + 1) * (m + 1)
            runs = []
            for limit in (1, 2 * pair_values, 3 * pair_values, default):
                monkeypatch.setattr(solver_module, "_GROUP_ELEMENT_LIMIT", limit)
                rooted, uset, tables, config, stats = tables_for(game, eps, b, **options)
                counts = dataclasses.replace(stats)
                y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
                profile = backtrack(rooted, tables, y_idx, ext, uset)
                runs.append((
                    {q: mask.tobytes() for q, mask in full_masks(rooted, tables).items()},
                    recovered_witnesses(rooted, uset, tables),
                    [uset.index_of(strategy) for strategy in profile],
                    counts,
                ))
            for run in runs[1:]:
                assert run == runs[0], (seed, n, m, b)
            if options["lp_threshold"] != math.inf:
                lp_stats.fallbacks += stats.fallbacks
                lp_stats.reused_witnesses += stats.reused_witnesses
        assert lp_stats.fallbacks > 0 and lp_stats.reused_witnesses > 0
        # one-y, two-y and three-y groups, and groups over several children
        assert {1, 2, 3} <= {size for size, _ in groups}
        assert any(size > 1 and children > 1 for size, children in groups)

    def test_a_leaf_request_computes_its_parent_rows_once_and_appends_once(self, monkeypatch):
        # at two y's a chunk a request for every leaf row spans 8 chunks; it
        # still computes the leaves' parent rows in one stacked matmul and
        # writes its rows whole in one append, so in a solve every leaf row
        # is absent or complete
        game = random_normalized_game(9, 3, 0.5, rng_seed=1)
        config = SolverConfig(epsilon=0.5, b_override=4, lp_threshold=math.inf)
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(3, 4)
        size = len(uset)
        leaves = [q for q in range(game.num_players) if not rooted.children[q]]
        rows = len(leaves) * size
        monkeypatch.setattr(solver_module, "_GROUP_ELEMENT_LIMIT", 2 * rows * 4)
        assert -(-size // solver_module._group_size(rows, 0, 3)) == 8
        appends, products = [], []
        append, product = _Search._append, solver_module.payoff_rows

        def spied_append(search, keys, start, codes):
            appends.append((list(keys), start, codes.shape))
            return append(search, keys, start, codes)

        def spied_product(*args):
            products.append(args)
            return product(*args)

        monkeypatch.setattr(_Search, "_append", spied_append)
        monkeypatch.setattr(solver_module, "payoff_rows", spied_product)
        tables = build_tables(game, rooted, uset, config)
        _Search(game, rooted, uset, tables, config, SolveStats()).run(leaves, range(size), size)
        keys = [(q, z) for q in leaves for z in range(size)]
        assert appends == [(keys, 0, (rows, size))] and len(products) == 1
        appends.clear()
        tables = build_tables(game, rooted, uset, config)
        stats = SolveStats()
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        backtrack(rooted, tables, y_idx, ext, uset)
        leaf_appends = [
            (start, shape) for keys, start, shape in appends if not rooted.children[keys[0][0]]
        ]
        assert leaf_appends and all(
            start == 0 and shape[1] == size for start, shape in leaf_appends
        )
        leaf_rows = [row for (q, _), row in tables.cells.items() if not rooted.children[q]]
        assert leaf_rows and all(len(row) == size for row in leaf_rows)

    def test_cap_exceeded_names_the_same_strategy_for_every_group_size(self, monkeypatch):
        # the cap bounds the tuples one cell walks: player 6's strategy 4 has
        # a candidate product of 12 tuples and no hit among its first 4, and
        # the same cell raises whether one y or many share a scan
        game = random_normalized_game(13, 3, 0.5, rng_seed=1)
        config = SolverConfig(epsilon=0.1, b_override=2, lp_threshold=math.inf, exhaustive_cap=4)
        for limit in (1, solver_module._GROUP_ELEMENT_LIMIT):
            monkeypatch.setattr(solver_module, "_GROUP_ELEMENT_LIMIT", limit)
            with pytest.raises(CapExceeded) as raised:
                solve(game, config)
            assert str(raised.value) == (
                "player 6, strategy index 4: no hit among the first 4 tuples of a candidate "
                "product of size 12 (the exhaustive cap)"
            )

    # sha256 prefixes of the masks, the sorted map of every true internal
    # cell's recovered witness and the profile's grid indices of seeded
    # solves; only discrete outputs are pinned, since float bits may vary
    # with the BLAS. LP-route witnesses follow the LP solution HiGHS returns.
    @pytest.mark.parametrize(
        "n, m, eps, b, seed, topology, options, expected",
        [
            (10, 2, 0.5, 2, 1, None, dict(lp_threshold=math.inf, root=0),
             ("541339fe9d0048c2", "085281be4f8bbc6b", "d264c8025b306984")),
            (12, 3, 0.5, 2, 2, None, dict(lp_threshold=math.inf, root=7),
             ("41843682dbdc50af", "b46fa872ec07ec8e", "9619dc4c7d486310")),
            (16, 4, 0.3, 1, 3, None, dict(lp_threshold=math.inf, root=15),
             ("310a4419e154b2aa", "e2f481e19c51a7b9", "a813119983eddfc3")),
            (20, 3, 0.5, 3, 7, None, dict(lp_threshold=math.inf, root=10),
             ("089110946d5720f5", "e338fe3130d3eee0", "298b7784d13a28bc")),
            (9, 2, 0.5, 2, 4, None, dict(lp_threshold=2, root=4, rng_seed=4),
             ("c86c63419480c26e", "97ae4cb08e8dc8b8", "aff24e1891407fc1")),
            (13, 3, 0.1, 2, 5, None, dict(lp_threshold=2, root=12, rng_seed=5),
             ("513e1739fe2bd178", "a39a455a3eff5ff0", "6dc343d99ba13091")),
            (3, 2, 0.8, 120, 6, path_edges(3), dict(lp_threshold=math.inf, root=2),
             ("c376660c09363f33", "3d9051f7813d4632", "ef07a1fd1a788f2e")),
        ],
        ids=["n10", "n12-root7", "n16-m4-root15", "n20-b3-root10", "lp-n9-root4",
             "lp-n13-eps0.1-root12", "path-b120-root2"],
    )
    def test_discrete_outputs_match_recorded_digests(
        self, n, m, eps, b, seed, topology, options, expected
    ):
        game = random_normalized_game(n, m, eps, topology=topology, rng_seed=seed)
        rooted, uset, tables, config, stats = tables_for(game, eps, b, **options)
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        profile = backtrack(rooted, tables, y_idx, ext, uset)
        masks = hashlib.sha256()
        for q, mask in sorted(full_masks(rooted, tables).items()):
            masks.update(repr((q, mask.shape)).encode())
            masks.update(mask.tobytes())
        recovered = recovered_witnesses(rooted, uset, tables)
        witnesses = hashlib.sha256(repr(sorted(recovered.items())).encode())
        indices = hashlib.sha256(repr([uset.index_of(s) for s in profile]).encode())
        found = tuple(h.hexdigest()[:16] for h in (masks, witnesses, indices))
        assert found == expected
        if options["lp_threshold"] == 2:
            # (lp_calls, fallbacks, reused_witnesses, first_tuple_hits): at
            # eps 0.5 the first tuple settles all ten LP-route cells of
            # lp-n9; at eps 0.1 lp-n13 also solves LPs, falls back and
            # reuses witnesses
            counters = {9: (0, 0, 0, 10), 13: (43, 33, 58, 80)}[n]
            found = (stats.lp_calls, stats.fallbacks, stats.reused_witnesses,
                     stats.first_tuple_hits)
            assert found == counters


class TestExhaustiveMembership:
    def test_empty_candidate_sets_give_none(self):
        eye = np.eye(2)
        game = game_from_matrices(
            3, 2, [(0, 1, eye.copy(), eye.copy()), (1, 2, eye.copy(), eye * 0.5)]
        )
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 1)
        tables = tables_from_masks(0.1, uset, {2: np.zeros((2, 2), dtype=bool)})
        assert (
            exhaustive_membership(
                game, rooted, 1, 0, 0, 0, [tables.candidate_set(2, 0)], uset, 0.1, 100
            )
            is None
        )

    def test_zero_game_returns_first_tuple(self):
        game = zero_game(4, star_edges(4))
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 1)
        tables = tables_from_masks(
            0.5, uset, {q: np.ones((2, 2), dtype=bool) for q in (1, 2, 3)}
        )
        lists = [tables.candidate_set(c, 0) for c in rooted.children[0]]
        ext = exhaustive_membership(game, rooted, 0, None, None, 0, lists, uset, 0.5, 100)
        assert ext.child_ids == (1, 2, 3)
        assert ext.strategy_indices == (0, 0, 0)

    @pytest.mark.parametrize(
        "limit", [solver_module._VECTORIZE_ELEMENT_LIMIT, 1], ids=["default", "1"]
    )
    def test_matches_brute_force_over_product(self, limit, monkeypatch):
        # a limit of 1 vectorizes nothing, so every tuple is its own prefix
        monkeypatch.setattr(solver_module, "_VECTORIZE_ELEMENT_LIMIT", limit)
        rng = np.random.default_rng(9)
        for _ in range(20):
            game = random_normalized_game(
                4, 2, 0.5, topology=[(0, 1), (1, 2), (1, 3)],
                rng_seed=int(rng.integers(10_000)),
            )
            rooted, uset, tables, config, stats = tables_for(game, 0.5, 1)
            masks = full_masks(rooted, tables)
            epsilon = 0.5
            for z_idx in range(2):
                for y_idx in range(2):
                    candidates = [
                        np.flatnonzero(masks[c][y_idx]) for c in (2, 3)
                    ]
                    ext = exhaustive_membership(
                        game, rooted, 1, 0, z_idx, y_idx, candidates, uset, epsilon, 1000
                    )
                    expected = None
                    for i, j in itertools.product(*candidates):
                        neighbors = {
                            0: uset.probs[z_idx],
                            2: uset.probs[i],
                            3: uset.probs[j],
                        }
                        if is_epsilon_best_response(
                            game, 1, uset.probs[y_idx], neighbors, epsilon
                        ):
                            expected = (int(i), int(j))
                            break
                    if expected is None:
                        assert ext is None
                    else:
                        assert ext is not None and ext.strategy_indices == expected

    def test_cap_exceeded(self):
        # a product of 8 tuples: with a negative epsilon no tuple hits, so
        # the walk passes a cap of 7 and stops at one of 8; with a positive
        # one the first tuple hits under any cap
        game = zero_game(4, star_edges(4))
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 1)
        tables = tables_from_masks(
            0.5, uset, {q: np.ones((2, 2), dtype=bool) for q in (1, 2, 3)}
        )
        lists = [tables.candidate_set(c, 0) for c in rooted.children[0]]
        with pytest.raises(CapExceeded) as raised:
            exhaustive_membership(game, rooted, 0, None, None, 0, lists, uset, -1.0, 7)
        assert str(raised.value) == (
            "player 0, strategy index 0: no hit among the first 7 tuples of a candidate "
            "product of size 8 (the exhaustive cap)"
        )
        assert exhaustive_membership(game, rooted, 0, None, None, 0, lists, uset, -1.0, 8) is None
        ext = exhaustive_membership(game, rooted, 0, None, None, 0, lists, uset, 0.5, 1)
        assert ext.strategy_indices == (0, 0, 0)


def first_hit_by_brute_force(game, player, parent, children, z_idx, y_idx, candidate_lists, uset,
                             epsilon):
    """Reference scan: itertools.product in canonical order, scalar check
    only. Returns the first hit's flat index and tuple, or (-1, None)."""
    for flat, chosen in enumerate(itertools.product(*candidate_lists)):
        neighbors = {} if parent is None else {parent: uset.probs[z_idx]}
        neighbors.update({c: uset.probs[i] for c, i in zip(children, chosen)})
        if is_epsilon_best_response(game, player, uset.probs[y_idx], neighbors, epsilon):
            return flat, tuple(int(i) for i in chosen)
    return -1, None


def one_strategy(lists):
    """``first_witnesses``' candidates and sizes for one strategy y whose
    children's candidate lists are ``lists``."""
    return [c[None] for c in lists], np.array([len(c) for c in lists]).reshape(-1, 1)


class TestUtilities:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_equal_to_the_multiply_sum_bit_for_bit(self, m, monkeypatch):
        # every call shape, small and large: a scan block's (pairs, tuples,
        # m) or a first tuple's (strategies, rows, m) against one strategy
        # per leading index, rows against every strategy, and a childless
        # player's (1, rows, m) against (strategies, 1, m); the summands span
        # six orders of magnitude, so their order shows in the bits
        rng = np.random.default_rng(m)
        strategies = rng.dirichlet(np.ones(m), size=50)
        shapes = [((3, 2, m), (3, 1, m)), ((40, 30, m), (40, 1, m)),
                  ((2, 1, m), (50, m)), ((60, 1, m), (50, m)),
                  ((1, 2, m), (3, 1, m)), ((1, 60, m), (50, 1, m))]
        for limit in (0, solver_module._CHAIN_MIN_UTILITIES, 10**9):
            monkeypatch.setattr(solver_module, "_CHAIN_MIN_UTILITIES", limit)
            for value_shape, strategy_shape in shapes:
                values = rng.random(value_shape) * 10.0 ** rng.integers(-3, 3, value_shape)
                ys = strategies[rng.integers(50, size=strategy_shape[:-1])]
                utilities = solver_module._utilities(values, ys)
                assert np.array_equal(utilities, (values * ys).sum(axis=-1)), limit
                flat_values, flat_ys = np.broadcast_arrays(values, ys)
                for index in itertools.islice(np.ndindex(utilities.shape), 0, None, 7):
                    assert utilities[index] == mixed_payoff(flat_ys[index], flat_values[index])


class TestFirstWitnesses:
    LIMITS = [solver_module._VECTORIZE_ELEMENT_LIMIT, 60, 1]

    def scans(self, seeds):
        """Every (game, player, parent, y, candidate lists) of small seeded
        games with the LP route off, each rooted at player 0 and at a non-zero
        player so that parent ids fall below, between and above the
        children's: childless players and, at the small epsilon, empty
        candidate sets included."""
        for seed in seeds:
            n, m, b = 4 + seed % 5, 2 + seed % 2, 1 + seed % 2
            epsilon = (0.5, 0.05)[seed % 2]
            game = random_normalized_game(n, m, 0.5, rng_seed=seed)
            for root in (0, 1 + seed % (n - 1)):
                rooted, uset, tables, _, _ = tables_for(
                    game, epsilon, b, lp_threshold=math.inf, root=root
                )
                for q in range(n):
                    parent = rooted.parent[q]
                    for y_idx in range(len(uset)):
                        lists = [tables.candidate_set(c, y_idx) for c in rooted.children[q]]
                        yield game, rooted, tables, uset, epsilon, q, parent, y_idx, lists

    @pytest.mark.parametrize("limit", LIMITS, ids=["default", "60", "1"])
    def test_every_row_matches_one_row_call_and_brute_force(self, limit, monkeypatch):
        monkeypatch.setattr(solver_module, "_VECTORIZE_ELEMENT_LIMIT", limit)
        childless = empty = 0
        for game, rooted, tables, uset, epsilon, q, parent, y_idx, lists in self.scans(range(12)):
            z_indices = [None] if parent is None else range(len(uset))
            # the matrices and parent rows the search passes
            matrices, bases = solver_module._payoff_terms(game, uset, q, parent, slice(None))
            children = rooted.children[q]
            stats = SolveStats()
            rows = first_witnesses(
                game, q, parent, bases, [y_idx], children, *one_strategy(lists), matrices, uset,
                epsilon, 10**6, stats,
            )[:, 0]
            assert stats.exhaustive_calls == len(z_indices)
            childless += not children
            empty += any(len(c) == 0 for c in lists)
            for z_idx, row in zip(z_indices, rows):
                single = exhaustive_membership(
                    game, rooted, q, parent, z_idx, y_idx, lists, uset, epsilon, 10**6
                )
                flat, expected = first_hit_by_brute_force(
                    game, q, parent, children, z_idx, y_idx, lists, uset, epsilon
                )
                assert row == flat
                if expected is None:
                    assert single is None
                else:
                    assert single.strategy_indices == expected
                    assert single.child_ids == tuple(children)
        assert childless > 0 and empty > 0

    @pytest.mark.parametrize("limit", LIMITS, ids=["default", "60", "1"])
    def test_a_group_matches_its_strategies_one_by_one(self, limit, monkeypatch):
        # every strategy of a player in one call, empty products and products
        # of different sizes included, against one call per strategy
        monkeypatch.setattr(solver_module, "_VECTORIZE_ELEMENT_LIMIT", limit)
        mixed = 0
        for seed in range(12):
            n, m, b = 4 + seed % 5, 2 + seed % 2, 1 + seed % 2
            epsilon = (0.5, 0.05)[seed % 2]
            game = random_normalized_game(n, m, 0.5, rng_seed=seed)
            rooted, uset, tables, _, _ = tables_for(game, epsilon, b, lp_threshold=math.inf)
            y_indices = np.arange(len(uset))
            for q in range(n):
                parent, children = rooted.parent[q], rooted.children[q]
                matrices, bases = solver_module._payoff_terms(game, uset, q, parent, slice(None))
                candidates, sizes = tables.candidate_rows(children, y_indices)
                stats = SolveStats()
                found = first_witnesses(
                    game, q, parent, bases, y_indices, children, candidates, sizes, matrices,
                    uset, epsilon, 10**6, stats,
                )
                assert found.shape == (len(bases), len(uset))
                assert stats.exhaustive_calls == found.size
                for y_idx in y_indices:
                    lists = [tables.candidate_set(c, y_idx) for c in children]
                    single = first_witnesses(
                        game, q, parent, bases, [y_idx], children, *one_strategy(lists),
                        matrices, uset, epsilon, 10**6,
                    )
                    assert np.array_equal(found[:, [y_idx]], single), (seed, q, y_idx)
                products = set(sizes.prod(axis=0).tolist())
                mixed += 0 in products and len(products) > 2
        assert mixed > 0

    def test_cap_exceeded_names_the_lowest_strategy_over_the_cap(self):
        # products 4, 6 and 9 against a cap of 5: with a negative epsilon no
        # tuple hits, so strategies 1 and 2 walk past the cap; at a cap of 6
        # only strategy 2 does, at a cap of 9 every product is walked, and a
        # hit at the first tuple ends a walk under any cap
        game = zero_game(3, star_edges(3))
        uset = enumerate_uniform(2, 2)
        lists = [np.tile(np.arange(3), (3, 1))] * 2
        sizes = np.array([[2, 2, 3], [2, 3, 3]])

        def scan(epsilon, cap):
            return first_witnesses(
                game, 0, None, np.zeros((1, 2)), [0, 1, 2], [1, 2], lists, sizes,
                list(game.payoffs[game.offsets[0]:game.offsets[1]]), uset, epsilon, cap,
            )

        with pytest.raises(CapExceeded) as raised:
            scan(-1.0, 5)
        assert str(raised.value) == (
            "player 0, strategy index 1: no hit among the first 5 tuples of a candidate "
            "product of size 6 (the exhaustive cap)"
        )
        with pytest.raises(CapExceeded, match="strategy index 2: no hit among the first 6 "):
            scan(-1.0, 6)
        assert scan(-1.0, 9).tolist() == [[-1, -1, -1]]
        assert scan(0.5, 1).tolist() == [[0, 0, 0]]

    def test_a_product_beyond_float64_ends_in_a_hit_or_the_cap(self):
        # 150 children of 200 candidates each: a product of 200**150
        # tuples, beyond float64's range, whose float64 size is inf. Every
        # tuple of the zero game hits at a positive epsilon, so the walk ends
        # at its first tuple under any cap; at a negative one no tuple hits,
        # and the walk stops at the cap
        n, k = 151, 200
        game = zero_game(n, star_edges(n))
        uset = enumerate_uniform(2, k - 1)
        children = list(range(1, n))
        lists = [np.arange(k)[None]] * len(children)
        sizes = np.full((len(children), 1), k)
        assert k ** len(children) > sys.float_info.max

        def scan(epsilon, cap):
            return first_witnesses(
                game, 0, None, np.zeros((1, 2)), [0], children, lists, sizes,
                list(game.payoffs[game.offsets[0]:game.offsets[1]]), uset, epsilon, cap,
            )

        for cap in (1, 10, 10**6, math.inf):
            assert scan(0.5, cap).tolist() == [[0]], cap
        with pytest.raises(CapExceeded) as raised:
            scan(-1.0, 10)
        assert str(raised.value) == (
            "player 0, strategy index 0: no hit among the first 10 tuples of a candidate "
            f"product of size {k ** len(children)} (the exhaustive cap)"
        )

    @staticmethod
    def boundary_hits(actions):
        """Compare scans with the scalar check at the boundary of its
        acceptance for games with each number of actions; return the scans
        compared and those whose hit lies past the first tuple."""
        # The scan has no scalar confirm, so its payoff sums must round like
        # action_payoffs'. Rooted at 0, 3 and 4, player 2's parent id falls
        # below, between and above its children's ids. Epsilon is set to the
        # smallest float at which the scalar check accepts the first tuple of
        # the candidate product, and to the float just below it. Each list
        # has a second candidate, so per-child rows come from several
        # candidates at once, as in a real scan.
        edges = [(3, 2), (2, 1), (2, 4), (2, 0)]
        rng = np.random.default_rng(11)
        checked = later = 0
        for m in actions:
            game = random_normalized_game(5, m, 0.5, topology=edges, rng_seed=m)
            uset = enumerate_uniform(m, 3)
            size = len(uset)
            for root in (0, 3, 4):
                rooted = validate_and_root(game, root)
                for q in range(5):
                    parent, children = rooted.parent[q], rooted.children[q]
                    # the matrices and parent rows the search passes
                    matrices, parent_rows = solver_module._payoff_terms(
                        game, uset, q, parent, slice(None)
                    )
                    for _ in range(40):
                        z_idx = None if parent is None else int(rng.integers(size))
                        y_idx = int(rng.integers(size))
                        first = rng.integers(size, size=len(children))
                        second = (first + rng.integers(1, size, size=len(children))) % size
                        lists = [np.array(pair) for pair in zip(first, second)]
                        neighbors = {} if parent is None else {parent: uset.probs[z_idx]}
                        neighbors.update({c: uset.probs[i] for c, i in zip(children, first)})

                        def accepts(eps):
                            y = uset.probs[y_idx]
                            return is_epsilon_best_response(game, q, y, neighbors, eps)

                        low, high = -1.0, 2.0  # payoffs lie in [0, 1]
                        while (mid := (low + high) / 2) not in (low, high):
                            low, high = (low, mid) if accepts(mid) else (mid, high)
                        assert accepts(high) and not accepts(low)
                        bases = parent_rows if parent is None else parent_rows[[z_idx]]
                        for eps in (high, low):
                            [[row]] = first_witnesses(
                                game, q, parent, bases, [y_idx], children,
                                *one_strategy(lists), matrices, uset, eps, 10**6,
                            )
                            flat, _ = first_hit_by_brute_force(
                                game, q, parent, children, z_idx, y_idx, lists, uset, eps
                            )
                            assert row == flat, (m, root, q, eps)
                            checked += 1
                            later += eps == low and flat >= 0
        return checked, later

    def test_hit_exactly_when_the_scalar_check_accepts_at_its_boundary(self):
        checked, later = self.boundary_hits((2, 3, 4))
        assert checked == 2 * 3 * 3 * 5 * 40 and later > 0

    @pytest.mark.parametrize("actions", [(2, 3, 4), (8,), (9,)], ids=["m2-4", "m8", "m9"])
    def test_hit_exactly_at_the_boundary_with_every_block_chained(self, actions, monkeypatch):
        # The same scans with the utility chained by action column in every
        # block where m allows it (at 8 or more actions numpy sums pairwise,
        # and the kernel keeps that sum)
        monkeypatch.setattr(solver_module, "_CHAIN_MIN_UTILITIES", 0)
        checked, later = self.boundary_hits(actions)
        assert checked == 2 * len(actions) * 3 * 5 * 40 and later > 0

    def test_counters_keep_their_per_pair_meaning(self):
        # every decided cell is counted once, whether the search decides
        # only the cells it reads or the full tables are decided first:
        # membership_tests counts the cells of players with children, root
        # included, whose candidate product is not empty; on the scan route
        # exhaustive_calls counts the same cells, and on the LP route
        # lp_calls + reused_witnesses + first_tuple_hits do, while fallback
        # scans add to exhaustive_calls. At epsilon 0.1 first tuples miss
        # some LP-route cells, which take an LP or a reused witness.
        game = random_normalized_game(10, 2, 0.1, rng_seed=5)
        scanned = 0
        for threshold in (math.inf, 2):
            for full in (True, False):
                config = SolverConfig(epsilon=0.1, b_override=2, lp_threshold=threshold)
                if full:
                    rooted, uset, tables, config, stats = tables_for(
                        game, 0.1, 2, lp_threshold=threshold
                    )
                else:
                    rooted = validate_and_root(game, 0)
                    uset, stats = enumerate_uniform(2, 2), SolveStats()
                    tables = build_tables(game, rooted, uset, config, stats)
                process_root(game, rooted, uset, tables, config, stats)

                def counted(players):
                    return sum(
                        all((c, y_idx) in tables.firsts for c in rooted.children[q])
                        for (q, _), row in tables.cells.items()
                        if q in players
                        for y_idx in range(len(row))
                    )

                internal = [q for q in range(10) if rooted.children[q]]
                lp_players = [q for q in internal if len(rooted.children[q]) >= threshold]
                batched = counted([q for q in internal if q not in lp_players])
                assert stats.membership_tests == counted(internal)
                assert stats.lp_calls + stats.reused_witnesses + stats.first_tuple_hits == (
                    counted(lp_players)
                )
                assert stats.exhaustive_calls == batched + stats.fallbacks
                # once for each LP-route cell whose witness is its first tuple
                first_tuples = 0
                for (q, z), row in tables.cells.items():
                    for y_idx in np.flatnonzero(row >= 0).tolist() if q in lp_players else ():
                        first = tuple(
                            int(tables.candidate_set(c, y_idx)[0]) for c in rooted.children[q]
                        )
                        first_tuples += tables.witness(rooted, q, z, y_idx) == first
                assert stats.first_tuple_hits == first_tuples
                scanned += batched
        assert stats.lp_calls > 0 and scanned > 0
        assert stats.first_tuple_hits > 0 and stats.reused_witnesses > 0

    @pytest.mark.parametrize(
        "num_rows, strategies", [(1, 1), (3, 3)], ids=["one-row", "every-row"]
    )
    def test_blocks_hold_at_most_the_limit_of_values(self, num_rows, strategies, monkeypatch):
        # The first tuple is one broadcast of each strategy's first
        # candidates against every row. A later block holds, per tuple and
        # pending (z, y) pair, m payoffs and a hit, and one gathered row of m
        # and one position per child; and the flat index. The reads of the
        # gathered child rows and of the pending bases are recorded, so every
        # block's real shapes are counted. A negative epsilon hits nothing,
        # so every product is walked, and the strategies' products differ, so
        # some pairs run out before others.
        limit = 2000
        monkeypatch.setattr(solver_module, "_VECTORIZE_ELEMENT_LIMIT", limit)
        reads = []

        class BlockRows(np.ndarray):
            def __getitem__(self, key):
                out = np.asarray(self).__getitem__(key)
                reads.append(("child", out.shape))
                return out

        class Bases(np.ndarray):
            def take(self, *args, **kwargs):
                out = np.asarray(self).take(*args, **kwargs)
                reads.append(("bases", out.shape))
                return out

        n, m = 9, 3
        game = random_normalized_game(n, m, 0.5, topology=star_edges(n), rng_seed=5)
        uset = enumerate_uniform(m, 1)
        # the candidates' payoff rows, computed once per child and call
        monkeypatch.setattr(
            solver_module, "payoff_rows", lambda *args: payoff_rows(*args).view(BlockRows)
        )
        children = list(range(1, n))
        d = len(children)
        lists = [np.tile(np.arange(len(uset)), (strategies, 1))] * d
        sizes = np.full((d, strategies), len(uset))
        sizes[-1] -= np.arange(strategies)  # the last child loses a candidate per strategy
        bases = np.zeros((num_rows, m)).view(Bases)
        # the hub's slots hold its neighbours, the children, in ascending order
        found = first_witnesses(
            game, 0, None, bases, list(range(strategies)), children, lists, sizes,
            list(game.payoffs[game.offsets[0]:game.offsets[1]]), uset, -1.0, 10**6,
        )
        assert found.shape == (num_rows, strategies) and (found == -1).all()
        # the broadcast reads each child's first candidates, and no base row
        assert reads[:d] == [("child", (strategies, 1, m))] * d
        walked = strategies * num_rows
        blocks = [reads[i:i + d + 1] for i in range(d, len(reads), d + 1)]
        for block in blocks:
            assert [kind for kind, _ in block] == ["child"] * d + ["bases"]
            # child rows are gathered once per strategy with pending pairs
            active, count = block[0][1][:2]
            pending = block[-1][1][0]
            assert all(shape == (active, count, m) for _, shape in block[:d])
            assert 1 <= active <= min(pending, strategies)
            assert block[-1][1] == (pending, m)
            walked += pending * count
            values = pending * count * (m + 1) + d * pending * count * (m + 1) + count
            assert values <= limit, (count, pending)
        # every pair walks its whole product, and no tuple past it
        assert walked == num_rows * sizes.prod(axis=0).sum()
        assert max(block[0][1][1] for block in blocks) > 1

    def test_cap_exceeded_on_a_batched_player(self, monkeypatch):
        # hub 1 under root 0 with three leaves: a product of 8 tuples per y.
        # The hub's edge to the root pays its second action 0.5 more, so its
        # first strategy is never a 0.4-best response: that cell walks past
        # a cap of 7 and is the first cell with children the search decides
        # (the leaves' childless calls are left out). At a cap of 8 the walk
        # ends, and the hub's second strategy hits at its first tuple.
        zero = np.zeros((2, 2))
        game = game_from_matrices(
            5, 2,
            [(0, 1, zero, [[0.0, 0.0], [0.5, 0.5]]), (1, 2, zero, zero), (1, 3, zero, zero),
             (1, 4, zero, zero)],
        )
        calls = []
        original = solver_module.first_witnesses

        def spy(*args, **kwargs):
            if args[5]:  # the player's children
                calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_module, "first_witnesses", spy)
        with pytest.raises(CapExceeded, match="player 1, strategy index 0: no hit among the first 7 "):
            solve(game, SolverConfig(epsilon=0.4, b_override=1, exhaustive_cap=7))
        assert set(calls) == {1}
        assert solve(game, SolverConfig(epsilon=0.4, b_override=1, exhaustive_cap=8)).max_regret == 0.0


class TestMembershipTest:
    def test_lp_route_used_above_threshold_and_verified(self):
        # broom: root 0 - hub 1 - thirty leaves; hub membership goes through
        # the LP route, and at epsilon 0.1 the first tuple misses a cell, for
        # which an LP runs
        n = 32
        topology = [(0, 1)] + [(1, i) for i in range(2, n)]
        game = random_normalized_game(n, 2, 0.1, topology=topology, rng_seed=21)
        rooted, uset, tables, config, stats = tables_for(
            game, 0.1, 1, lp_threshold=2, rng_seed=21
        )
        assert stats.lp_calls > 0
        assert stats.first_tuple_hits < stats.membership_tests
        hub_entries = {
            key: indices for key, indices in recovered_witnesses(rooted, uset, tables).items()
            if key[0] == 1
        }
        assert hub_entries
        for (q, z_idx, y_idx), indices in hub_entries.items():
            neighbors = {0: uset.probs[z_idx]}
            neighbors.update(
                {c: uset.probs[i] for c, i in zip(rooted.children[1], indices)}
            )
            assert is_epsilon_best_response(game, 1, uset.probs[y_idx], neighbors, 0.1)

    def test_falls_back_when_lp_is_infeasible(self):
        # leaves coordinate with the hub, so candidate sets are singletons; the
        # hub matches child 2 and mismatches child 3, making some (z, y) pairs
        # LP-infeasible so the exhaustive fallback must decide them
        eye = np.eye(2)
        anti = (np.ones((2, 2)) - np.eye(2)) * 0.5
        game = game_from_matrices(
            4, 2,
            [(0, 1, eye * 0.5, eye * 0.5),
             (1, 2, eye * 0.5, eye.copy()),
             (1, 3, anti, eye.copy())],
        )
        rooted, uset, tables, config, stats = tables_for(
            game, 0.2, 1, lp_threshold=2, rng_seed=0
        )
        assert stats.lp_infeasible > 0
        assert stats.fallbacks > 0
        assert not full_masks(rooted, tables)[1].all()
        # soundness: every recovered witness is valid
        witnesses = recovered_witnesses(rooted, uset, tables)
        assert any(key[0] == 1 for key in witnesses)
        for (q, z_idx, y_idx), indices in witnesses.items():
            neighbors = {rooted.parent[q]: uset.probs[z_idx]}
            neighbors.update({c: uset.probs[i] for c, i in zip(rooted.children[q], indices)})
            assert is_epsilon_best_response(game, q, uset.probs[y_idx], neighbors, 0.2)

    def test_zero_game_one_lp_per_lp_route_player(self):
        # every tuple works for every (z, y) in a zero game, so the first
        # tuple settles every cell of the LP-route player 1, once each
        game = zero_game(5, [(0, 1), (1, 2), (1, 3), (1, 4)])
        rooted, uset, tables, config, stats = tables_for(game, 0.5, 2, lp_threshold=2)
        size = len(uset)
        assert full_masks(rooted, tables)[1].all()
        assert (stats.lp_calls, stats.reused_witnesses) == (0, 0)
        assert stats.first_tuple_hits == stats.membership_tests == size * size
        assert len(set(recovered_witnesses(rooted, uset, tables).values())) == 1
        # With decoy leaves the first tuple misses every cell, and all
        # leaves playing action 2 work for every (z, y): the first LP's
        # witness settles every other parent strategy of its y and is then
        # carried over to every later y
        game = decoy_star(5, 1, {2, 3, 4})
        rooted, uset, tables, config, stats = tables_for(game, 0.5, 1, lp_threshold=2)
        size = len(uset)
        assert full_masks(rooted, tables)[1].all()
        assert stats.first_tuple_hits == 0
        assert stats.lp_calls == 1
        assert stats.reused_witnesses == size * size - 1
        assert stats.membership_tests == size * size
        assert set(recovered_witnesses(rooted, uset, tables).values()) == {(2, 2, 2)}


class TestInvariants:
    """Seeded loops over small random trees (n 5-6, m 2-3, b 1-2) at an
    epsilon small enough that some games have no grid equilibrium."""

    EPSILON = 0.05

    def games(self):
        for i in range(24):
            n, m = 5 + i % 2, 2 + i // 2 % 2
            b = 1 + i // 4 % 2 if m == 2 else 1
            yield random_normalized_game(n, m, 0.5, rng_seed=700 + i), b

    def solved(self, game, b, **options):
        config = SolverConfig(epsilon=self.EPSILON, b_override=b, **options)
        stats = SolveStats()
        try:
            return solve(game, config, stats), stats
        except NoEquilibriumFound:
            return None, stats

    def test_success_exactly_when_the_oracle_finds_a_profile(self):
        # the LP route falls back to the complete scan, so with the root and
        # every hub on it (threshold 2) the search stays complete
        outcomes, lp_roots, lp_calls = [], 0, 0
        for game, b in self.games():
            uset = enumerate_uniform(game.num_actions, b)
            expected = set(all_equilibria(game, self.EPSILON, uset))
            for threshold in (math.inf, 2):
                for root in (0, game.num_players - 1):
                    cert, stats = self.solved(game, b, lp_threshold=threshold, root=root)
                    assert (cert is not None) == bool(expected), (threshold, root)
                    if cert is not None:
                        assert tuple(uset.index_of(s) for s in cert.profile) in expected
                    outcomes.append(cert is not None)
                    lp_calls += stats.lp_calls
                    lp_roots += threshold == 2 and len(
                        validate_and_root(game, root).children[root]) >= 2
        assert True in outcomes and False in outcomes
        assert lp_calls > 0 and lp_roots > 0

    def test_relabelling_players_and_permuting_actions_keep_the_outcome(self):
        rng = np.random.default_rng(5)
        outcomes = []
        for game, b in self.games():
            n, m = game.num_players, game.num_actions
            players = rng.permutation(n)
            actions = [rng.permutation(m) for _ in range(n)]
            edges = []
            for edge in game.edges:
                u, v = edge.u, edge.v
                payoff_u_v, payoff_v_u = np.empty((m, m)), np.empty((m, m))
                payoff_u_v[np.ix_(actions[u], actions[v])] = edge.payoff_u_v
                payoff_v_u[np.ix_(actions[v], actions[u])] = edge.payoff_v_u
                edges.append((int(players[u]), int(players[v]), payoff_u_v, payoff_v_u))
            relabelled = game_from_matrices(n, m, edges)
            for threshold in (math.inf, 2):
                cert, _ = self.solved(game, b, lp_threshold=threshold)
                for root in (int(players[0]), int(players[n - 1])):
                    other, _ = self.solved(relabelled, b, lp_threshold=threshold, root=root)
                    assert (other is None) == (cert is None), (threshold, root)
                    if other is not None:  # mapped back, an equilibrium of the original
                        back = [other.profile[players[p]][actions[p]] for p in range(n)]
                        assert verify_profile(game, back, self.EPSILON).accepted
                outcomes.append(cert is not None)
        assert True in outcomes and False in outcomes


class TestProcessRoot:
    def test_zero_game_first_strategy(self):
        game = zero_game(3, star_edges(3))
        rooted, uset, tables, config, stats = tables_for(game, 0.5, 1)
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        assert y_idx == 0
        assert ext.strategy_indices == (0, 0)

    def test_identity_edge_picks_matching_pair(self):
        game = identity_edge_game()
        rooted, uset, tables, config, stats = tables_for(game, 0.5, 1)
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        assert y_idx == 0
        assert ext.strategy_indices == (0,)

    def test_matching_pennies_b1_has_no_equilibrium(self):
        game = matching_pennies_game()
        rooted, uset, tables, config, stats = tables_for(game, 0.4, 1)
        with pytest.raises(NoEquilibriumFound):
            process_root(game, rooted, uset, tables, config, stats)
        assert all_equilibria(game, 0.4, uset) == []

    def test_root_scans_each_strategy_once_and_an_lp_root_runs_no_scan(self):
        # matching pennies at b=1 has no equilibrium, so both root
        # strategies are scanned, each once
        game = matching_pennies_game()
        rooted, uset, tables, config, stats = tables_for(game, 0.4, 1, lp_threshold=math.inf)
        with pytest.raises(NoEquilibriumFound):
            process_root(game, rooted, uset, tables, config, stats)
        assert stats.exhaustive_calls == 2
        # an LP-route root whose first tuple hits runs neither an LP nor a
        # scan
        game = zero_game(5, star_edges(5))
        rooted, uset, tables, config, stats = tables_for(game, 0.5, 1, lp_threshold=2)
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        assert (y_idx, ext.child_ids, stats.lp_calls, stats.first_tuple_hits) == (
            0, (1, 2, 3, 4), 0, 1
        )
        assert stats.exhaustive_calls == 0
        # one whose first tuple misses and whose first LP rounds to a
        # witness runs no scan
        game = decoy_star(5, 0, {1, 2, 3, 4})
        rooted, uset, tables, config, stats = tables_for(game, 0.5, 1, lp_threshold=2)
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        assert (y_idx, ext.child_ids, stats.lp_calls, stats.fallbacks) == (0, (1, 2, 3, 4), 1, 0)
        assert (stats.first_tuple_hits, stats.exhaustive_calls) == (0, 0)


class TestBacktrack:
    def test_solves_no_lp(self, monkeypatch):
        # the lp-n13 digest game: infeasible LPs, fallbacks and reused
        # witnesses; backtrack recovers each witness from the tried lists
        game = random_normalized_game(13, 3, 0.1, rng_seed=5)
        options = dict(lp_threshold=2, root=12, rng_seed=5)
        expected = solve(game, SolverConfig(epsilon=0.1, b_override=2, **options)).profile
        rooted, uset, tables, config, stats = tables_for(game, 0.1, 2, **options)
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        assert stats.lp_infeasible > 0 and stats.fallbacks > 0 and stats.reused_witnesses > 0
        counts = dataclasses.asdict(stats)

        def no_lp(*args):
            raise AssertionError("backtrack solved an LP")

        monkeypatch.setattr(solver_module, "solve_feasibility", no_lp)
        profile = backtrack(rooted, tables, y_idx, ext, uset)
        assert all(np.array_equal(a, b) for a, b in zip(profile, expected))
        assert dataclasses.asdict(stats) == counts

    def test_exhaustive_witnesses_are_read_without_a_scan(self, monkeypatch):
        # An exhaustive-route cell's witness is the scan's first hit, kept as
        # its flat index: reading it runs neither a scan nor a check. At the
        # small epsilon some witnesses lie past the first tuple.
        checked = later = 0
        for seed, epsilon in ((1, 0.5), (2, 0.05), (3, 0.05)):
            game = random_normalized_game(9, 3, 0.5, rng_seed=seed)
            rooted, uset, tables, _, _ = tables_for(game, epsilon, 2, lp_threshold=math.inf)
            expected = {}
            for q, mask in full_masks(rooted, tables).items():
                children = rooted.children[q]
                if not children:
                    continue
                for z_idx, y_idx in zip(*map(np.ndarray.tolist, np.nonzero(mask))):
                    lists = [tables.candidate_set(c, y_idx) for c in children]
                    expected[(q, z_idx, y_idx)] = exhaustive_membership(
                        game, rooted, q, rooted.parent[q], z_idx, y_idx, lists, uset,
                        epsilon, math.inf,
                    ).strategy_indices
                    first = tuple(int(tables.candidate_set(c, y_idx)[0]) for c in children)
                    later += expected[(q, z_idx, y_idx)] != first
            with monkeypatch.context() as patch:
                for name in ("first_witnesses", "is_epsilon_best_response"):
                    patch.setattr(solver_module, name, None)
                assert recovered_witnesses(rooted, uset, tables) == expected
            checked += len(expected)
        assert checked > later > 0

    def test_single_edge(self):
        game = identity_edge_game()
        rooted, uset, tables, config, stats = tables_for(game, 0.5, 1)
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        profile = backtrack(rooted, tables, y_idx, ext, uset)
        assert [s.tolist() for s in profile] == [[1.0, 0.0], [1.0, 0.0]]

    def test_path3_assignments_chain_through_tables(self):
        eye = np.eye(2)
        game = game_from_matrices(
            3, 2, [(0, 1, eye.copy(), eye.copy()), (1, 2, eye.copy(), eye.copy())]
        )
        rooted, uset, tables, config, stats = tables_for(game, 0.1, 1)
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        profile = backtrack(rooted, tables, y_idx, ext, uset)
        # the root picks e1 first; the chain must follow the matching witnesses
        assert [s.tolist() for s in profile] == [[1.0, 0.0]] * 3

    def test_star_of_four_leaves(self):
        game = zero_game(5, star_edges(5))
        rooted, uset, tables, config, stats = tables_for(game, 0.5, 1)
        y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
        profile = backtrack(rooted, tables, y_idx, ext, uset)
        assert len(profile) == 5
        assert all(s.tolist() == [1.0, 0.0] for s in profile)


class TestSolve:
    def test_star_with_more_than_64_leaves(self, monkeypatch):
        # a hub's candidate product has one dimension per child, beyond
        # numpy's 64-dimension limit for unravel_index
        n = 71
        eye = np.eye(2)
        game = game_from_matrices(n, 2, [(0, i, eye, eye.copy()) for i in range(1, n)])
        for threshold in (None, math.inf):
            cert = solve(game, SolverConfig(epsilon=0.1, b_override=1, lp_threshold=threshold))
            assert cert.max_regret == 0.0
        # rooted at a leaf, the hub takes the LP route under a parent, and
        # with a decoy last leaf its first tuples miss; the LP reads
        # infeasible, so the exhaustive fallback decides the first y, and its
        # witness is reused for the other parent strategies and carried to
        # the later y's
        game = decoy_star(n, 0, {n - 1})
        monkeypatch.setattr(solver_module, "solve_feasibility", lambda *args: None)
        stats = SolveStats()
        config = SolverConfig(epsilon=0.1, b_override=1, lp_threshold=2, root=1)
        cert = solve(game, config, stats)
        assert cert.max_regret == 0.0
        assert stats.first_tuple_hits == 0
        assert stats.fallbacks == stats.lp_calls == 1
        assert stats.reused_witnesses == 3 * 3 - 1

    def test_zero_tree_all_regrets_zero(self):
        game = zero_game(5, path_edges(5))
        cert = solve(game, SolverConfig(epsilon=0.3, b_override=2))
        assert cert.regrets.tolist() == [0.0] * 5

    def test_identity_edge_matched_pure_profile(self):
        game = identity_edge_game()
        cert = solve(game, SolverConfig(epsilon=0.5, b_override=1))
        assert [s.tolist() for s in cert.profile] == [[1.0, 0.0], [1.0, 0.0]]
        assert cert.max_regret == 0.0

    def test_random_tree_verified_independently(self):
        game = random_normalized_game(8, 2, 0.5, rng_seed=2024)
        cert = solve(game, SolverConfig(epsilon=0.5, b_override=3, rng_seed=2024))
        result = verify_profile(game, cert.profile, 0.5)
        assert result.accepted
        assert np.allclose(result.regrets, cert.regrets)

    def test_profiles_are_on_the_uniform_grid(self):
        for seed in (1, 2, 3):
            game = random_normalized_game(6, 2, 0.5, rng_seed=seed)
            config = SolverConfig(epsilon=0.5, b_override=3, rng_seed=seed)
            try:
                cert = solve(game, config)
            except NoEquilibriumFound:
                continue
            for strategy in cert.profile:
                counts = strategy * config.b_override
                assert np.allclose(counts, np.rint(counts), atol=1e-12)

    def test_exactness_against_oracle_below_threshold(self):
        rng = np.random.default_rng(77)
        agreements = 0
        for _ in range(15):
            n = int(rng.integers(2, 5))
            b = int(rng.integers(1, 4))
            epsilon = float(rng.choice([0.1, 0.5]))
            game = random_normalized_game(n, 2, epsilon, rng_seed=int(rng.integers(10_000)))
            uset = enumerate_uniform(2, b)
            expected = all_equilibria(game, epsilon, uset)
            config = SolverConfig(
                epsilon=epsilon, b_override=b, lp_threshold=math.inf,
                exhaustive_cap=10**7,
            )
            try:
                cert = solve(game, config)
                found = tuple(uset.index_of(s) for s in cert.profile)
                assert expected, "solver found a profile the oracle says cannot exist"
                assert found in set(expected)
            except NoEquilibriumFound:
                assert expected == []
            agreements += 1
        assert agreements == 15

    def test_exactness_against_oracle_at_three_actions(self):
        # five players and three actions, beyond acceptance criterion 2's
        # n <= 4, m = 2; each random tree is rooted at both ends of its ids
        outcomes = []
        for i in range(16):
            b, epsilon = 1 + i % 2, (0.1, 0.5)[i // 2 % 2]
            game = random_normalized_game(5, 3, epsilon, rng_seed=330 + i)
            uset = enumerate_uniform(3, b)
            expected = set(all_equilibria(game, epsilon, uset))
            for root in (0, 4):
                config = SolverConfig(
                    epsilon=epsilon, b_override=b, lp_threshold=math.inf, root=root
                )
                try:
                    cert = solve(game, config)
                except NoEquilibriumFound:
                    assert not expected, (i, root)
                    outcomes.append(False)
                    continue
                assert tuple(uset.index_of(s) for s in cert.profile) in expected, (i, root)
                outcomes.append(True)
        assert len(outcomes) == 32 and True in outcomes and False in outcomes

    def test_deterministic_with_fixed_seed(self):
        game = random_normalized_game(9, 2, 0.5, rng_seed=55)
        config = dict(epsilon=0.5, b_override=2, lp_threshold=2, rng_seed=55)
        first = solve(game, SolverConfig(**config))
        second = solve(game, SolverConfig(**config))
        for a, b in zip(first.profile, second.profile):
            assert np.array_equal(a, b)
        assert np.array_equal(first.regrets, second.regrets)

    def test_parallel_matches_serial(self):
        game = random_normalized_game(9, 2, 0.5, rng_seed=56)
        base = dict(epsilon=0.5, b_override=2, lp_threshold=2, rng_seed=56)
        serial = solve(game, SolverConfig(**base, thread_count=1))
        parallel = solve(game, SolverConfig(**base, thread_count=4))
        for a, b in zip(serial.profile, parallel.profile):
            assert np.array_equal(a, b)
        assert serial.max_regret == parallel.max_regret

    def test_cap_exceeded_propagates(self):
        # the root's edge to leaf 1 pays its second action 0.5 more, so its
        # first strategy walks all 8 tuples without a hit, past a cap of 3
        zero = np.zeros((2, 2))
        game = game_from_matrices(
            4, 2, [(0, 1, [[0.0, 0.0], [0.5, 0.5]], zero), (0, 2, zero, zero), (0, 3, zero, zero)]
        )
        config = SolverConfig(
            epsilon=0.3, b_override=1, lp_threshold=math.inf, exhaustive_cap=3
        )
        with pytest.raises(CapExceeded, match="player 0, strategy index 0"):
            solve(game, config)

    def test_a_product_over_the_cap_whose_first_tuple_hits_solves(self):
        # the cap bounds the tuples a cell walks, not its product: every
        # tuple of the zero game hits, so the root's product of 8 tuples
        # ends at its first under a cap of 3
        game = zero_game(4, star_edges(4))
        config = SolverConfig(
            epsilon=0.5, b_override=1, lp_threshold=math.inf, exhaustive_cap=3
        )
        assert solve(game, config).max_regret == 0.0

    def test_enumeration_cap_raises_set_too_large(self):
        game = identity_edge_game()
        with pytest.raises(SetTooLarge):
            solve(game, SolverConfig(epsilon=0.5, b_override=2, enumeration_cap=2))

    def test_default_support_size_single_edge_completeness(self):
        # bimatrix case at full theory scale: success is guaranteed
        for seed in (0, 1):
            game = random_normalized_game(2, 2, 0.5, rng_seed=seed)
            cert = solve(game, SolverConfig(epsilon=0.5, rng_seed=seed))
            assert cert.max_regret <= 0.5 + 1e-9

    def test_single_player_and_single_action(self):
        cert1 = solve(zero_game(1, []), SolverConfig(epsilon=0.5, b_override=2))
        assert len(cert1.profile) == 1
        gm1 = game_from_matrices(2, 1, [(0, 1, [[0.5]], [[0.25]])])
        cert2 = solve(gm1, SolverConfig(epsilon=0.5))
        assert [s.tolist() for s in cert2.profile] == [[1.0], [1.0]]

    def test_a_path_of_1500_players_solves_under_the_default_recursion_limit(self):
        # requests for rows go on an explicit stack: the search's depth
        # follows the tree's, and no Python recursion does
        edges = path_edges(1500)
        game = random_normalized_game(1500, 2, 0.5, topology=edges, rng_seed=1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            cert = solve(game, SolverConfig(epsilon=0.5, b_override=2))
        finally:
            sys.setrecursionlimit(limit)
        assert verify_profile(game, cert.profile, 0.5).accepted

    def test_root_choice_configurable(self):
        game = zero_game(3, path_edges(3))
        cert = solve(game, SolverConfig(epsilon=0.5, b_override=1, root=1))
        assert len(cert.profile) == 3

    def test_a_theoretical_grid_solves_in_less_memory_than_its_payoff_rows(self):
        # random n=16, m=3 at eps 0.5 has the theoretical b=940 (K=443,211),
        # and every payoff row of the grid, 2|E| * K * m float64 values,
        # would take 304 MiB; the search computes the rows it reads, and the
        # solve peaked at 64 MiB of traced memory (358 MiB with the rows of
        # the whole grid built first)
        game = random_normalized_game(16, 3, 0.5, rng_seed=1)
        stats = SolveStats()
        tracemalloc.start()
        try:
            cert = solve(game, SolverConfig(epsilon=0.5), stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows_bytes = 2 * (game.num_players - 1) * stats.num_strategies * game.num_actions * 8
        assert stats.num_strategies == 443_211
        assert peak < rows_bytes, (peak, rows_bytes)
        assert cert.max_regret <= 0.5 + 1e-9


@functools.cache
def perfbench_workloads():
    """The benchmark's workload definitions, perfbench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def workload_games(name, seed):
    """Each game of a benchmark workload at a run seed, with its solver
    config, each game's seed drawn as the benchmark draws it."""
    workloads = perfbench_workloads()
    workload = workloads.WORKLOADS[name]
    seeds = np.random.SeedSequence(seed).generate_state(len(workload.shapes)).tolist()
    for shape, game_seed in zip(workload.shapes, seeds):
        n, edges = workloads.shape_edges(shape)
        game = random_normalized_game(
            n, workload.num_actions, workload.epsilon, topology=edges, rng_seed=game_seed
        )
        yield game, SolverConfig(
            epsilon=workload.epsilon, b_override=workload.b,
            lp_threshold=workload.lp_threshold, rng_seed=game_seed,
        )


class TestPhaseApi:
    """The phase functions the benchmark's traced pass calls one by one."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize(
        "name", ["exhaustive-random", "lp-random", "theory-path", "star-wide"]
    )
    def test_phases_in_order_give_solves_profile(self, name, seed):
        # build_tables, process_root and backtrack, run in that order, give
        # solve's profile bit for bit on every game of each workload; every
        # mask value is an array of the decided cells
        for game, config in workload_games(name, seed):
            expected = solve(game, config).profile
            rooted = validate_and_root(game, config.root)
            m = game.num_actions
            b = config.b_override or support_size(m, game.num_players, config.epsilon)
            uset = enumerate_uniform(m, b)
            stats = SolveStats()
            tables = build_tables(game, rooted, uset, config, stats)
            y_idx, ext = process_root(game, rooted, uset, tables, config, stats)
            profile = backtrack(rooted, tables, y_idx, ext, uset)
            assert [s.tobytes() for s in profile] == [s.tobytes() for s in expected]
            masks = tables.masks
            assert masks and all(isinstance(mask, np.ndarray) for mask in masks.values())
            assert 0 < sum(int(mask.sum()) for mask in masks.values()) <= sum(
                mask.size for mask in masks.values()
            )
            assert isinstance(tables.extensions, dict)
        for attr in ("membership_test", "exhaustive_membership", "is_epsilon_best_response"):
            assert callable(getattr(solver_module, attr))


class TestRoutes:
    @pytest.mark.parametrize(
        "name, seed", [("star-wide", 1), ("star-wide", 7), ("lp-random", 7)]
    )
    def test_benchmark_shapes_give_the_scan_routes_profile(self, name, seed):
        # An LP-route cell first tries its first tuple, by the sums the scan
        # adds for it. On these games it settles every LP-route cell the
        # search reads, so the LP route stores the scan route's witnesses and
        # returns its profile bit for bit
        for game, config in workload_games(name, seed):
            stats = SolveStats()
            profile = solve(game, config, stats).profile
            scanned = solve(game, dataclasses.replace(config, lp_threshold=math.inf)).profile
            assert [s.tobytes() for s in profile] == [s.tobytes() for s in scanned]
            assert (stats.lp_calls, stats.reused_witnesses) == (0, 0)
            assert stats.first_tuple_hits > 0


class TestLpPrograms:
    """A strategy y whose children's candidate product is empty is decided
    false before any LP, so every program the search builds has a candidate
    for each child and ``build_lp`` never refuses one."""

    @staticmethod
    def recording(monkeypatch):
        """Wrap ``solver.build_lp``: check the candidate sets of every program
        it receives, and count the programs."""
        built, build_lp = [], solver_module.build_lp

        def checked_build_lp(game, rooted, player, parent, z, y, candidate_sets, *rest):
            for child in rooted.children[player]:
                assert len(candidate_sets[child]) > 0, (player, child)
            built.append(player)
            return build_lp(game, rooted, player, parent, z, y, candidate_sets, *rest)

        monkeypatch.setattr(solver_module, "build_lp", checked_build_lp)
        return built

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name", ["lp-random", "star-wide"])
    def test_benchmark_shapes_build_no_program_with_an_empty_candidate_set(
        self, name, seed, monkeypatch
    ):
        # each game as the benchmark solves it, and with the payoffs of its
        # LP-route players 30 times their normalized scale, so that their
        # first tuples miss (the star's hub rarely misses otherwise) and
        # LPs are built
        built = self.recording(monkeypatch)
        for game, config in workload_games(name, seed):
            solve(game, config)
            rooted = validate_and_root(game, config.root)
            threshold = config.effective_lp_threshold(game.num_actions)
            lp_players = {q for q, kids in enumerate(rooted.children) if len(kids) >= threshold}
            solve(scaled_payoffs(game, lp_players, 30.0), config)
        assert built

    def test_random_trees_build_no_program_with_an_empty_candidate_set(self, monkeypatch):
        # at epsilon 0.05 many cells are false and some games have no grid
        # equilibrium, so some strategies y of players on the LP route (every
        # player with two children or more) have an empty candidate product
        built, empty = self.recording(monkeypatch), []
        candidate_rows = CandidateTables.candidate_rows

        def counted_candidate_rows(tables, children, y_indices):
            candidates, sizes = candidate_rows(tables, children, y_indices)
            if len(children) >= 2:
                empty.append(int((~sizes.all(axis=0)).sum()))
            return candidates, sizes

        monkeypatch.setattr(CandidateTables, "candidate_rows", counted_candidate_rows)
        for seed in range(24):
            n, m, b = 5 + seed % 8, 2 + seed % 2, 1 + seed % 3
            game = random_normalized_game(n, m, 0.5, rng_seed=900 + seed)
            for epsilon, root in itertools.product((0.5, 0.05), (0, n - 1)):
                config = SolverConfig(
                    epsilon=epsilon, b_override=b, lp_threshold=2, root=root, rng_seed=seed
                )
                try:
                    solve(game, config)
                except NoEquilibriumFound:
                    pass
        assert len(built) > 24 and sum(empty) > 0
