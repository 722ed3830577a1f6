"""Tests for random tree and normalized game generation."""

import hashlib

import networkx as nx
import numpy as np
import pytest

from helpers import star_edges
from treenash.errors import NotATree
from treenash.game import check_normalized, entry_bound, rooted_tree_from_edges
from treenash.generator import prufer_to_edges, random_normalized_game, random_tree


class TestPruferDecoding:
    def test_matches_networkx_decoder(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(3, 30))
            sequence = [int(v) for v in rng.integers(0, n, size=n - 2)]
            ours = {tuple(sorted(e)) for e in prufer_to_edges(sequence)}
            reference = {
                tuple(sorted(e)) for e in nx.from_prufer_sequence(sequence).edges()
            }
            assert ours == reference

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            prufer_to_edges([5])  # n = 3, valid labels are 0..2


class TestRandomTree:
    def test_tiny_sizes(self):
        assert random_tree(1, 0) == []
        assert random_tree(2, 123) == [(0, 1)]

    def test_three_vertices_is_a_path(self):
        for seed in range(10):
            edges = random_tree(3, seed)
            degree = [0, 0, 0]
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            assert sorted(degree) == [1, 1, 2]

    def test_always_a_tree(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            edges = random_tree(n, int(rng.integers(0, 10_000)))
            rooted_tree_from_edges(n, edges, 0)  # raises if not a tree

    def test_deterministic_per_seed(self):
        assert random_tree(12, 99) == random_tree(12, 99)
        assert random_tree(12, 99) != random_tree(12, 100)


class TestRandomNormalizedGame:
    def test_degree_one_entries_within_unit_box(self):
        game = random_normalized_game(2, 2, 0.5, rng_seed=3)
        for p, q in [(0, 1), (1, 0)]:
            a = game.matrix(p, q)
            assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_star_center_bound_uses_final_degree(self):
        # degree-10 center at eps 0.5: bound is max(0.1, 0.0388) = 0.1
        game = random_normalized_game(11, 2, 0.5, topology=star_edges(11), rng_seed=5)
        assert entry_bound(10, 2, 0.5) == pytest.approx(0.1)
        for q in range(1, 11):
            assert float(game.matrix(0, q).max()) <= 0.1 + 1e-12

    def test_every_output_passes_check_normalized(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, 4))
            epsilon = float(rng.uniform(0.1, 1.0))
            game = random_normalized_game(n, m, epsilon, rng_seed=int(rng.integers(0, 10_000)))
            report = check_normalized(game, epsilon)
            assert report.ok, report.summary()

    def test_rescaling_branch_still_normalized(self):
        # degree 60 at eps 1.0 puts the entry cap above 1/degree, so raw draws
        # can push pure utilities past 1 and the generator must rescale
        n = 61
        game = random_normalized_game(n, 2, 1.0, topology=star_edges(n), rng_seed=8)
        report = check_normalized(game, 1.0)
        assert report.ok, report.summary()
        total = sum(game.matrix(0, q).max(axis=1) for q in range(1, n))
        assert float(total.max()) <= 1.0 + 1e-12
        # scaling lands the maximum pure utility on 1 exactly (up to rounding)
        assert float(total.max()) == pytest.approx(1.0, abs=1e-9)

    def test_reproducible(self):
        a = random_normalized_game(6, 3, 0.5, rng_seed=17)
        b = random_normalized_game(6, 3, 0.5, rng_seed=17)
        assert [(e.u, e.v) for e in a.edges] == [(e.u, e.v) for e in b.edges]
        for ea, eb in zip(a.edges, b.edges):
            assert np.array_equal(ea.payoff_u_v, eb.payoff_u_v)
            assert np.array_equal(ea.payoff_v_u, eb.payoff_v_u)

    def test_random_topology_matches_random_tree(self):
        game = random_normalized_game(6, 2, 0.5, rng_seed=11)
        assert sorted((e.u, e.v) for e in game.edges) == random_tree(6, 11)

    def test_given_topology_respected_and_validated(self):
        game = random_normalized_game(4, 2, 0.5, topology=[(0, 1), (1, 2), (1, 3)], rng_seed=0)
        assert [(e.u, e.v) for e in game.edges] == [(0, 1), (1, 2), (1, 3)]
        with pytest.raises(NotATree):
            random_normalized_game(4, 2, 0.5, topology=[(0, 1), (1, 2)], rng_seed=0)

    def test_single_player(self):
        game = random_normalized_game(1, 3, 0.5, rng_seed=0)
        assert game.edges == []

    # sha256 over every edge's payoff_u_v then payoff_v_u bytes, in edge order,
    # as the generator produced them when it kept one dict entry per matrix and
    # rescaled player by player. The 61-star at epsilon 1 takes the rescaling
    # branch.
    @pytest.mark.parametrize("n, m, epsilon, topology, seed, digest", [
        (1, 2, 0.5, None, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (8, 3, 0.5, None, 0, "f456be8354846030df01fcdc46b62a3f657d543a75ae339a77c1d0933db92504"),
        (12, 2, 1.0, None, 7, "36b970e6c06472c88f85b0bc5f5aed2934505d4d1ec6017cf2b22d39c1ce0104"),
        (5, 4, 0.3, [(0, 1), (1, 2), (2, 3), (3, 4)], 11,
         "a2c6eaf82712fc0c436682ac8897295cbc99d692cced978c7e2b07eef3879b16"),
        (61, 2, 1.0, star_edges(61), 3,
         "91e9bf941bf41bb234eb44656423a51117852d0dcc5bef99f81515a5954ba19d"),
        (41, 3, 1.0, star_edges(41), 5,
         "caf353e8dc6f2fa53d30143fecb8485eca7a0a218d7084aa613af83a93e46252"),
    ])
    def test_seeded_payoff_bytes_are_pinned(self, n, m, epsilon, topology, seed, digest):
        game = random_normalized_game(n, m, epsilon, topology=topology, rng_seed=seed)
        h = hashlib.sha256()
        for edge in game.edges:
            h.update(edge.payoff_u_v.tobytes())
            h.update(edge.payoff_v_u.tobytes())
        assert h.hexdigest() == digest
