"""Tests for the feasibility program and the Las Vegas rounding step."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array, vstack

import treenash.lp as lp_module
from helpers import game_from_matrices, star_edges, zero_game
from treenash.game import is_epsilon_best_response, validate_and_root
from treenash.generator import random_normalized_game
from treenash.lp import (
    Extension,
    FractionalExtension,
    build_lp,
    check_concentration_event,
    max_residual,
    round_extension,
    solve_feasibility,
)
from treenash.solver import SolveStats
from treenash.uniform import enumerate_uniform


def root_with_children(child_matrices, m=2):
    """Game with player 0 as root connected to children 1..d; children earn zero."""
    zero = np.zeros((m, m))
    edges = [(0, i + 1, np.asarray(a, dtype=float), zero.copy())
             for i, a in enumerate(child_matrices)]
    game = game_from_matrices(len(child_matrices) + 1, m, edges)
    return game, validate_and_root(game, 0)


def instance_for(game, rooted, candidate_sets, y, epsilon, uset):
    return build_lp(game, rooted, rooted.root, None, None, y, candidate_sets, uset, epsilon)


def lattice_feasible(child_matrices, candidate_probs, y, epsilon, steps=101):
    """Grid-search oracle for the mixture feasibility question (root case).

    Returns the largest slack min_j(lhs - rhs) over all lattice mixtures of the
    candidates; feasible means slack >= 0.
    """
    m = len(y)
    grids = []
    for probs in candidate_probs:
        k = len(probs)
        if k == 1:
            grids.append([probs[0]])
        else:
            # mixtures of the first two candidates on a uniform lattice
            grids.append(
                [t * probs[0] + (1 - t) * probs[1] for t in np.linspace(0.0, 1.0, steps)]
            )
    best = -np.inf
    import itertools

    for sigmas in itertools.product(*grids):
        v = np.zeros(m)
        for a, sigma in zip(child_matrices, sigmas):
            v += np.asarray(a) @ sigma
        slack = float((y * v).sum() - v.max() + epsilon / 2.0)
        best = max(best, slack)
    return best


E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
UNIFORM = np.array([0.5, 0.5])


class TestBuildLp:
    def test_zero_matrices_rows_read_zero_vs_minus_half_eps(self):
        game, rooted = root_with_children([np.zeros((2, 2)), np.zeros((2, 2))])
        uset = enumerate_uniform(2, 1)
        inst = instance_for(game, rooted, {1: [0, 1], 2: [0, 1]}, UNIFORM, 0.4, uset)
        assert np.allclose(inst.b_ub, 0.2)  # 0 >= 0 - eps/2 rearranged
        assert np.allclose(inst.a_ub, 0.0)
        assert solve_feasibility(inst) is not None

    def test_an_empty_candidate_set_is_refused_naming_its_child(self):
        game, rooted = root_with_children([np.eye(2), np.eye(2), np.eye(2)])
        uset = enumerate_uniform(2, 1)
        with pytest.raises(ValueError, match=r"^child 2 of player 0 has no candidates$"):
            instance_for(game, rooted, {1: [0], 2: [], 3: []}, E1, 0.5, uset)

    def test_requires_candidate_sets_for_all_children(self):
        game, rooted = root_with_children([np.eye(2), np.eye(2)])
        uset = enumerate_uniform(2, 1)
        with pytest.raises(ValueError):
            instance_for(game, rooted, {1: [0]}, E1, 0.5, uset)

    def test_parent_and_z_must_come_together(self):
        game = game_from_matrices(
            3, 2, [(0, 1, np.eye(2), np.eye(2)), (1, 2, np.eye(2), np.eye(2))]
        )
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 1)
        with pytest.raises(ValueError):
            build_lp(game, rooted, 1, 0, None, E1, {2: [0, 1]}, uset, 0.5)

    def test_variables_are_the_mixture_weights_only(self):
        matrices = [np.eye(3), np.eye(3) * 0.5, np.ones((3, 3)) * 0.2]
        game, rooted = root_with_children(matrices, m=3)
        uset = enumerate_uniform(3, 2)
        cand = {1: [0, 2, 5], 2: [1], 3: list(range(6))}
        inst = instance_for(game, rooted, cand, uset.probs[3], 0.4, uset)
        assert inst.num_variables == sum(len(v) for v in cand.values())
        assert inst.a_eq is None
        assert inst.a_ub.shape == (3, inst.num_variables)
        assert np.array_equal(inst.b_eq, np.ones(3))
        # each child's block starts where the one before it ends
        assert inst.block_starts.tolist() == [0, 3, 4]

    def test_parent_terms_enter_the_rows(self):
        # path 0-1-2, membership of player 1 given parent strategy z
        eye = np.eye(2)
        game = game_from_matrices(
            3, 2, [(0, 1, eye.copy(), eye.copy()), (1, 2, eye.copy(), eye.copy())]
        )
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 1)
        inst = build_lp(game, rooted, 1, 0, E1, E1, {2: [0, 1]}, uset, 0.4)
        # base payoffs A[1,0] @ e1 = e1; rows j: (y - e_j) . base + eps/2
        assert inst.b_ub[0] == pytest.approx(0.2)  # j = 0: 0 + eps/2
        assert inst.b_ub[1] == pytest.approx(1.2)  # j = 1: 1 + eps/2

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_best_response_rows_equal_the_per_child_products(self, m):
        # The stacked product and its gathered columns must hold, bit for
        # bit, the per-child (A_c - y @ A_c) @ X_c^T: a one-candidate child's
        # column included, which numpy multiplies by gemv, not gemm. Player 1
        # is the root when rooted at 1, and has parent 0 when rooted at 0;
        # b = 3 gives three-term sums, whose order shows in the bits.
        edges = [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]
        game = random_normalized_game(7, m, 0.5, topology=edges, rng_seed=m)
        uset = enumerate_uniform(m, 3)
        size = len(uset)
        rng = np.random.default_rng(m)
        for root in (0, 1):
            rooted = validate_and_root(game, root)
            parent = rooted.parent[1]
            children = rooted.children[1]
            for pattern in ("one", "full", "mixed"):
                for _ in range(5):
                    sizes = {"one": [1] * len(children), "full": [size] * len(children)}.get(
                        pattern, [int(k) for k in rng.integers(1, size + 1, len(children))]
                    )
                    cand = {
                        c: np.sort(rng.choice(size, k, replace=False))
                        for c, k in zip(children, sizes)
                    }
                    y = uset.probs[int(rng.integers(size))]
                    z = None if parent is None else uset.probs[int(rng.integers(size))]
                    inst = build_lp(game, rooted, 1, parent, z, y, cand, uset, 0.5)
                    expected = np.hstack([
                        (game.matrix(1, c) - y @ game.matrix(1, c)) @ uset.probs[cand[c]].T
                        for c in children
                    ])
                    assert np.array_equal(inst.a_ub, expected), (root, pattern)
                    # _residual reads it with a gemv, whose sums follow the layout
                    assert inst.a_ub.flags.c_contiguous
                    assert inst.a_eq is None
                    for c, idx, probs in zip(
                        children, inst.candidate_indices, inst.candidate_probs
                    ):
                        assert np.array_equal(idx, cand[c])
                        assert np.array_equal(probs, uset.probs[cand[c]])


class TestSolveFeasibility:
    def test_point_mass_forced_feasible_and_infeasible(self):
        game, rooted = root_with_children([np.eye(2)])
        uset = enumerate_uniform(2, 1)
        # single candidate e2 forces sigma = e2
        inst_bad = instance_for(game, rooted, {1: [1]}, E1, 0.5, uset)
        assert solve_feasibility(inst_bad) is None  # 0 >= 1 - 0.25 fails
        inst_good = instance_for(game, rooted, {1: [1]}, E2, 0.5, uset)
        frac = solve_feasibility(inst_good)
        assert frac is not None
        assert frac.alphas[0].tolist() == [1.0]
        assert np.allclose(frac.sigmas[0], E2, atol=1e-7)

    def test_lattice_oracle_agreement_fixed_cases(self):
        uset = enumerate_uniform(2, 1)
        eye = np.eye(2)
        cases = [
            # (child matrices, candidate sets, y, eps, expected feasible)
            ([eye], {1: [0, 1]}, UNIFORM, 0.2, True),  # needs the strict mixture
            ([eye], {1: [0, 1]}, E1, 0.2, True),
            ([eye], {1: [1]}, E1, 0.5, False),
            ([eye * 0.5, eye * 0.5], {1: [1], 2: [1]}, E1, 0.5, False),
            ([eye * 0.5, eye * 0.5], {1: [0, 1], 2: [0, 1]}, E1, 0.3, True),
        ]
        for matrices, cand, y, eps, expected in cases:
            game, rooted = root_with_children(matrices)
            inst = instance_for(game, rooted, cand, y, eps, uset)
            frac = solve_feasibility(inst)
            cand_probs = [uset.probs[np.asarray(cand[c])] for c in sorted(cand)]
            slack = lattice_feasible(matrices, cand_probs, y, eps)
            assert (frac is not None) == expected
            assert (slack >= 0.0) == expected

    def test_lattice_oracle_agreement_random_instances(self):
        rng = np.random.default_rng(23)
        uset = enumerate_uniform(2, 1)
        checked = 0
        for _ in range(40):
            d = int(rng.integers(1, 3))
            matrices = [rng.random((2, 2)) * 0.5 for _ in range(d)]
            y = rng.random(2)
            y /= y.sum()
            eps = float(rng.uniform(0.1, 0.6))
            game, rooted = root_with_children(matrices)
            cand = {c + 1: [0, 1] for c in range(d)}
            inst = instance_for(game, rooted, cand, y, eps, uset)
            frac = solve_feasibility(inst)
            slack = lattice_feasible(matrices, [uset.probs] * d, y, eps)
            if slack >= 0.01:
                assert frac is not None
                checked += 1
            elif slack <= -0.01:
                assert frac is None
                checked += 1
            # near-boundary instances are skipped: the lattice cannot decide them
        assert checked >= 20

    def test_returned_solutions_satisfy_residual_bound(self):
        rng = np.random.default_rng(5)
        uset = enumerate_uniform(2, 2)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            matrices = [rng.random((2, 2)) * 0.3 for _ in range(d)]
            game, rooted = root_with_children(matrices)
            cand = {c + 1: list(range(3)) for c in range(d)}
            y = uset.probs[int(rng.integers(0, 3))]
            inst = instance_for(game, rooted, cand, y, float(rng.uniform(0.2, 0.8)), uset)
            frac = solve_feasibility(inst, 1e-7)
            if frac is not None:
                assert max_residual(inst, frac) <= 1e-7
                for alpha in frac.alphas:
                    assert np.all(alpha >= 0.0)
                    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sigmas_are_images_of_the_alphas(self):
        rng = np.random.default_rng(11)
        uset = enumerate_uniform(3, 2)
        solved = 0
        for _ in range(20):
            d = int(rng.integers(1, 4))
            matrices = [rng.random((3, 3)) / d for _ in range(d)]
            game, rooted = root_with_children(matrices, m=3)
            cand = {
                c + 1: np.sort(rng.choice(len(uset), size=int(rng.integers(1, 5)), replace=False))
                for c in range(d)
            }
            y = uset.probs[int(rng.integers(0, len(uset)))]
            frac = solve_feasibility(instance_for(game, rooted, cand, y, 0.8, uset))
            if frac is None:
                continue
            solved += 1
            for alpha, probs, sigma in zip(frac.alphas, frac.candidate_probs, frac.sigmas):
                assert np.array_equal(sigma, alpha @ probs)
        assert solved >= 5

    def test_deterministic_solutions(self):
        game, rooted = root_with_children([np.eye(2), np.eye(2) * 0.5])
        uset = enumerate_uniform(2, 2)
        cand = {1: [0, 1, 2], 2: [0, 2]}
        first = solve_feasibility(instance_for(game, rooted, cand, UNIFORM, 0.3, uset))
        second = solve_feasibility(instance_for(game, rooted, cand, UNIFORM, 0.3, uset))
        assert first is not None and second is not None
        for a, b in zip(first.alphas, second.alphas):
            assert np.array_equal(a, b)
        for a, b in zip(first.sigmas, second.sigmas):
            assert np.array_equal(a, b)


    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-7, 0.0])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tolerance):
        # a NaN would accept any backend solution (residual > nan is False)
        game, rooted = root_with_children([np.eye(2)])
        uset = enumerate_uniform(2, 1)
        inst = instance_for(game, rooted, {1: [0, 1]}, E1, 0.5, uset)
        with pytest.raises(ValueError, match="tolerance"):
            solve_feasibility(inst, tolerance)


def path_with_leaf(matrix):
    """Path 0-1 rooted at 0; the leaf 1 earns ``matrix`` against its parent."""
    game = game_from_matrices(2, 2, [(0, 1, np.zeros((2, 2)), np.asarray(matrix, dtype=float))])
    return game, validate_and_root(game, 0)


class TestChildlessProgram:
    """A leaf's program has no variables: it is decided without the backend."""

    def test_feasible_exactly_when_y_is_a_half_epsilon_best_response(self):
        game, rooted = path_with_leaf(np.eye(2))
        uset = enumerate_uniform(2, 2)
        epsilon = 0.6  # regrets here are 0, 0.5 or 1: 0.5 is an eps- but not an eps/2-best response
        outcomes = set()
        for z in uset.probs:
            for y in uset.probs:
                inst = build_lp(game, rooted, 1, 0, z, y, {}, uset, epsilon)
                assert inst.num_variables == 0
                frac = solve_feasibility(inst)
                expected = is_epsilon_best_response(game, 1, y, {0: z}, epsilon / 2.0)
                assert (frac is not None) == expected
                if frac is not None:
                    assert frac.child_ids == () and frac.alphas == () and frac.sigmas == ()
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_no_variables_means_no_blocks_and_no_simplex_rows(self):
        # build_lp refuses a child without candidates, so a program without
        # variables is exactly a childless player's: m best-response rows alone
        game, rooted = path_with_leaf(np.eye(2))
        uset = enumerate_uniform(2, 2)
        inst = build_lp(game, rooted, 1, 0, E1, E1, {}, uset, 0.6)
        assert inst.num_variables == 0 and inst.child_ids == ()
        assert inst.block_starts.size == 0 and inst.b_eq.size == 0 and inst.a_eq is None
        assert inst.a_ub.shape == (2, 0) and inst.b_ub.shape == (2,)

    def test_rounding_returns_the_empty_extension_exactly_when_y_is_an_epsilon_best_response(
        self,
    ):
        game, rooted = path_with_leaf(np.eye(2))
        uset = enumerate_uniform(2, 2)
        epsilon = 0.6
        empty = FractionalExtension((), (), (), (), ())
        outcomes = set()
        for z in uset.probs:
            for y in uset.probs:
                ext = round_extension(game, rooted, 1, z, y, empty, epsilon, 5, 4)
                expected = is_epsilon_best_response(game, 1, y, {0: z}, epsilon)
                assert ext == (Extension((), ()) if expected else None)
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_rounding_decides_with_one_sample(self):
        # the empty tuple is the only draw, so a rejected y is not drawn again
        game, rooted = path_with_leaf(np.eye(2))
        uset = enumerate_uniform(2, 2)
        z = uset.probs[0]
        empty = FractionalExtension((), (), (), (), ())
        outcomes = set()
        for y in uset.probs:
            stats = SolveStats()
            ext = round_extension(game, rooted, 1, z, y, empty, 0.6, 5, 4, stats)
            expected = is_epsilon_best_response(game, 1, y, {0: z}, 0.6)
            assert ext == (Extension((), ()) if expected else None)
            assert (stats.rounding_calls, stats.rounding_samples) == (1, 1)
            assert stats.rounding_accepts == int(expected)
            outcomes.add(expected)
        assert outcomes == {True, False}


def fake_backend(monkeypatch, status=0, x=None):
    """Make the backend return a chosen ``(status, x)``."""
    result = status, None if x is None else np.array(x, dtype=float)
    monkeypatch.setattr(lp_module, "_highs_solve", lambda instance: result)


def recorded_models(monkeypatch):
    """Record the arguments of every model HiGHS receives, and solve it as usual."""
    models = []

    class Recording(lp_module.highspy._Highs):
        def passModel(self, *args):
            models.append(args)
            return super().passModel(*args)

    monkeypatch.setattr(lp_module.highspy, "_Highs", Recording)
    return models


def simplex_rows(inst):
    """The simplex rows as ``csc_array``: one 1 per column in its child's row,
    built from ``block_starts``."""
    n, d = inst.num_variables, len(inst.block_starts)
    owners = np.searchsorted(inst.block_starts, np.arange(n), side="right") - 1
    return csc_array((np.ones(n), owners, np.arange(n + 1)), shape=(d, n))


def assert_backend_matrix(args, inst):
    """The CSC HiGHS received equals ``a_ub`` stacked over the simplex rows, as
    ``scipy.sparse`` builds it: the same column starts, row indices and values."""
    expected = vstack((csc_array(inst.a_ub), simplex_rows(inst))).tocsc()
    num_cols, num_rows, num_nz = args[:3]
    assert (num_rows, num_cols) == expected.shape and num_nz == expected.nnz
    for received, wanted in zip(args[11:14], (expected.indptr, expected.indices, expected.data)):
        assert np.array_equal(received, wanted)


class TestPostSolve:
    """The checks after the backend."""

    @staticmethod
    def instance():
        # zero payoffs: every best-response row reads 0 <= eps/2
        game = zero_game(3, [(0, 1), (0, 2)])
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 2)
        return instance_for(game, rooted, {1: [0, 1, 2], 2: [0, 2]}, UNIFORM, 0.4, uset)

    def test_programs_reach_the_backend_as_csc(self, monkeypatch):
        # the zero game's a_ub has no nonzeros, so only the simplex rows' 1s
        # remain
        models = recorded_models(monkeypatch)
        game, rooted = root_with_children([[[1.0, 0.0], [0.5, 2.0]], [[0.0, 3.0], [1.0, 0.0]]])
        uset = enumerate_uniform(2, 2)
        other = instance_for(game, rooted, {1: [0, 1, 2], 2: [1]}, E1, 0.4, uset)
        for inst in (self.instance(), other):
            assert inst.a_eq is None
            assert solve_feasibility(inst) is not None
            assert_backend_matrix(models[-1], inst)
        assert len(models) == 2
        assert models[0][13].tolist() == [1.0] * 5 and models[0][12].tolist() == [2, 2, 2, 3, 3]
        assert 0.0 not in models[1][13] and len(models[1][13]) > other.num_variables

    def test_a_non_finite_solution_is_infeasible_with_a_warning(self, monkeypatch, caplog):
        for bad in (np.nan, np.inf):
            caplog.clear()
            fake_backend(monkeypatch, x=[0.2, bad, 0.5, 1.0, 0.0])
            with caplog.at_level("WARNING", logger="treenash.lp"):
                assert solve_feasibility(self.instance()) is None
            assert "non-finite solution" in caplog.text

    def test_tiny_negatives_are_clamped_and_blocks_renormalised(self, monkeypatch):
        x = np.array([-1e-12, 0.4, 0.6 + 1e-9, 1.0 + 2e-9, -3e-13])
        fake_backend(monkeypatch, x=x)
        frac = solve_feasibility(self.instance())
        assert frac is not None
        for alpha, block in zip(frac.alphas, (x[0:3], x[3:5])):
            clamped = np.clip(block, 0.0, None)
            assert np.array_equal(alpha, clamped / clamped.sum())
        assert frac.alphas[0][0] == 0.0 and frac.alphas[1].tolist() == [1.0, 0.0]
        for alpha, probs, sigma in zip(frac.alphas, frac.candidate_probs, frac.sigmas):
            assert np.array_equal(sigma, alpha @ probs)

    def test_long_blocks_match_the_per_block_loop(self, monkeypatch):
        # block totals are summed in another order than a per-block .sum() once
        # a block has 8 or more weights, so the loop agrees within a few ulps
        game = zero_game(3, [(0, 1), (0, 2)])
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 39)
        inst = instance_for(game, rooted, {1: range(40), 2: range(3, 28)}, UNIFORM, 0.4, uset)
        x = np.random.default_rng(2).random(inst.num_variables) - 0.01
        fake_backend(monkeypatch, x=x)
        frac = solve_feasibility(inst)
        assert frac is not None
        ends = [*inst.block_starts[1:], inst.num_variables]
        for alpha, lo, hi in zip(frac.alphas, inst.block_starts, ends):
            block = np.clip(x[lo:hi], 0.0, None)
            np.testing.assert_allclose(alpha, block / block.sum(), rtol=8 * np.finfo(float).eps)

    @pytest.mark.parametrize("block", [[0.0, 0.0], [-1e-12, 0.0]])
    def test_a_block_summing_to_at_most_zero_is_infeasible(self, monkeypatch, caplog, block):
        fake_backend(monkeypatch, x=[0.2, 0.3, 0.5, *block])
        with caplog.at_level("WARNING", logger="treenash.lp"):
            assert solve_feasibility(self.instance()) is None
        assert "degenerate mixture block" in caplog.text

    @pytest.mark.parametrize("status", [1, 3, 4])
    def test_a_backend_failure_is_infeasible_with_a_warning(self, monkeypatch, caplog, status):
        fake_backend(monkeypatch, status=status)
        with caplog.at_level("WARNING", logger="treenash.lp"):
            assert solve_feasibility(self.instance()) is None
        assert "numerical failure" in caplog.text

    def test_status_two_is_infeasible_without_a_warning(self, monkeypatch, caplog):
        fake_backend(monkeypatch, status=2)
        with caplog.at_level("WARNING", logger="treenash.lp"):
            assert solve_feasibility(self.instance()) is None
        assert caplog.text == ""

    def test_max_residual_reports_an_unnormalised_block(self):
        inst = self.instance()
        frac = FractionalExtension(
            child_ids=inst.child_ids,
            candidate_indices=inst.candidate_indices,
            candidate_probs=inst.candidate_probs,
            alphas=(np.array([0.2, 0.3, 0.5]), np.array([0.25, 0.25])),
            sigmas=(UNIFORM, UNIFORM),
        )
        assert max_residual(inst, frac) == 0.5
        frac.alphas = (np.array([0.2, 0.3, 0.5]), np.array([1.0, 0.0]))
        assert max_residual(inst, frac) == 0.0

    def test_max_residual_reports_a_non_finite_weight_as_infinite(self):
        # a NaN compares false with every maximum: it must not read 0.0, nor
        # hide the other block's violation of 0.5
        inst = self.instance()
        frac = FractionalExtension(
            child_ids=inst.child_ids,
            candidate_indices=inst.candidate_indices,
            candidate_probs=inst.candidate_probs,
            alphas=(np.array([np.nan, 0.3, 0.5]), np.array([1.0, 0.0])),
            sigmas=(UNIFORM, UNIFORM),
        )
        assert max_residual(inst, frac) == math.inf
        frac.alphas = (np.array([np.nan, 0.3, 0.5]), np.array([0.25, 0.25]))
        assert max_residual(inst, frac) == math.inf
        frac.alphas = (np.array([0.2, 0.3, 0.5]), np.array([np.inf, 0.0]))
        assert max_residual(inst, frac) == math.inf


class TestWideProgram:
    """A 300-leaf star root program."""

    @staticmethod
    def instance():
        m, d = 3, 300
        game = random_normalized_game(d + 1, m, 0.5, topology=star_edges(d + 1), rng_seed=4)
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(m, 3)
        rng = np.random.default_rng(4)
        cand = {
            c: np.sort(rng.choice(len(uset), size=int(rng.integers(5, 10)), replace=False))
            for c in range(1, d + 1)
        }
        # y best-responds to the candidates' average mixtures, so the program is feasible
        v = sum(game.matrix(0, c) @ uset.probs[cand[c]].mean(axis=0) for c in cand)
        y = np.eye(m)[int(np.argmax(v))]
        return instance_for(game, rooted, cand, y, 0.5, uset)

    def test_simplex_rows_cover_each_childs_block(self, monkeypatch):
        inst = self.instance()
        models = recorded_models(monkeypatch)
        frac = solve_feasibility(inst)
        assert frac is not None and len(frac.alphas) == 300
        assert len(models) == 1
        assert_backend_matrix(models[0], inst)
        m, n = inst.a_ub.shape
        column_starts, row_indices, values = models[0][11:14]
        # each column ends with its simplex 1, in the row after the a_ub rows
        # that belongs to its child
        last = column_starts[1:] - 1
        assert np.array_equal(values[last], np.ones(n))
        owners = np.searchsorted(inst.block_starts, np.arange(n), side="right") - 1
        assert np.array_equal(row_indices[last], m + owners)
        assert (row_indices[np.setdiff1d(np.arange(len(values)), last)] < m).all()


class TestHighsSeam:
    """The direct HiGHS call against ``scipy.optimize.linprog(method="highs")``,
    which passes HiGHS the same model with the same options."""

    @staticmethod
    def programs(d, rng):
        """A feasible-or-not star root program with d children, some of them
        with a single candidate, and the same program with ``b_ub`` shifted
        down so far that it is infeasible."""
        m = 3
        game = random_normalized_game(
            d + 1, m, 0.5, topology=star_edges(d + 1), rng_seed=int(rng.integers(1 << 30))
        )
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(m, 3)
        cand = {
            c: np.sort(rng.choice(len(uset), size=int(rng.integers(1, 8)), replace=False))
            for c in range(1, d + 1)
        }
        cand[1] = cand[1][:1]
        v = sum(game.matrix(0, c) @ uset.probs[cand[c]].mean(axis=0) for c in cand)
        y = np.eye(m)[int(np.argmax(v))] if rng.random() < 0.7 else uset.probs[rng.integers(len(uset))]
        inst = instance_for(game, rooted, cand, y, 0.5, uset)
        shifted = instance_for(game, rooted, cand, y, 0.5, uset)
        shifted.b_ub = shifted.b_ub - 10.0
        return inst, shifted

    def test_solution_and_status_equal_linprogs_bit_for_bit(self):
        rng = np.random.default_rng(20)
        statuses = set()
        for d in (1, 2, 3, 7, 20, 64, 150, 300):
            for inst in self.programs(d, rng):
                status, x = lp_module._highs_solve(inst)
                expected = linprog(
                    np.zeros(inst.num_variables),
                    A_ub=inst.a_ub,
                    b_ub=inst.b_ub,
                    A_eq=simplex_rows(inst),
                    b_eq=inst.b_eq,
                    bounds=(0.0, None),
                    method="highs",
                )
                assert status == expected.status
                if expected.x is None:
                    assert x is None
                else:
                    assert x.tobytes() == expected.x.tobytes()
                statuses.add(status)
        assert statuses == {0, 2}

    def test_highs_runs_with_linprogs_options(self, monkeypatch, tmp_path):
        solvers = []

        class Recording(lp_module.highspy._Highs):
            def run(self):
                solvers.append(self)
                return super().run()

        # linprog makes its HiGHS object from the same module
        monkeypatch.setattr(lp_module.highspy, "_Highs", Recording)
        inst = TestPostSolve.instance()
        lp_module._highs_solve(inst)
        linprog(np.zeros(inst.num_variables), A_ub=inst.a_ub, b_ub=inst.b_ub,
                A_eq=simplex_rows(inst), b_eq=inst.b_eq, bounds=(0.0, None), method="highs")
        assert len(solvers) == 2
        written = []
        for i, highs in enumerate(solvers):
            highs.writeOptions(str(tmp_path / f"{i}.txt"))
            written.append((tmp_path / f"{i}.txt").read_text())
        assert written[0] == written[1]
        for line in ("presolve = on", "simplex_strategy = 1", "output_flag = false"):
            assert line in written[0].splitlines()

    @pytest.mark.parametrize("option", [("presolve", "yes"), ("simplex_strateg", 1)])
    def test_a_rejected_option_raises(self, monkeypatch, option):
        monkeypatch.setattr(lp_module, "_HIGHS_OPTIONS", dict([option]))
        inst = TestPostSolve.instance()
        with pytest.raises(RuntimeError, match="rejected the option"):
            lp_module._highs_solve(inst)


class TestRoundExtension:
    def test_point_mass_mixtures_accept_first_try(self):
        game, rooted = root_with_children([np.eye(2), np.eye(2)])
        uset = enumerate_uniform(2, 1)
        frac = FractionalExtension(
            child_ids=(1, 2),
            candidate_indices=(np.array([0]), np.array([0])),
            candidate_probs=(uset.probs[[0]], uset.probs[[0]]),
            alphas=(np.array([1.0]), np.array([1.0])),
            sigmas=(E1.copy(), E1.copy()),
        )
        stats = SolveStats()
        ext = round_extension(game, rooted, 0, None, E1, frac, 0.5, 7, 64, stats)
        assert ext == Extension(child_ids=(1, 2), strategy_indices=(0, 0))
        assert stats.rounding_samples == 1
        assert stats.rounding_accepts == 1

    def test_zero_game_accepts_any_tuple_first_try(self):
        game = zero_game(3, [(0, 1), (0, 2)])
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 2)
        alphas = (np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.4]))
        frac = FractionalExtension(
            child_ids=(1, 2),
            candidate_indices=(np.arange(3), np.array([0, 2])),
            candidate_probs=(uset.probs[:3], uset.probs[[0, 2]]),
            alphas=alphas,
            sigmas=(alphas[0] @ uset.probs[:3], alphas[1] @ uset.probs[[0, 2]]),
        )
        stats = SolveStats()
        ext = round_extension(game, rooted, 0, None, UNIFORM, frac, 0.1, 3, 64, stats)
        assert ext is not None
        assert stats.rounding_samples == 1

    def test_exhaustion_returns_none(self):
        # LP-feasible through the strict mixture, but every pure sample fails
        # the full-epsilon check, so rounding must give up
        game, rooted = root_with_children([np.eye(2)])
        uset = enumerate_uniform(2, 1)
        inst = instance_for(game, rooted, {1: [0, 1]}, UNIFORM, 0.2, uset)
        frac = solve_feasibility(inst)
        assert frac is not None
        stats = SolveStats()
        ext = round_extension(game, rooted, 0, None, UNIFORM, frac, 0.2, 11, 8, stats)
        assert ext is None
        assert stats.rounding_samples == 8
        assert stats.rounding_accepts == 0

    def test_reproducible_from_seed(self):
        game = zero_game(3, [(0, 1), (0, 2)])
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 3)
        rng = np.random.default_rng(99)
        alphas = tuple(rng.dirichlet(np.ones(4)) for _ in range(2))
        frac = FractionalExtension(
            child_ids=(1, 2),
            candidate_indices=(np.arange(4), np.arange(4)),
            candidate_probs=(uset.probs, uset.probs),
            alphas=alphas,
            sigmas=tuple(a @ uset.probs for a in alphas),
        )
        first = round_extension(game, rooted, 0, None, UNIFORM, frac, 0.5, 123, 64)
        second = round_extension(game, rooted, 0, None, UNIFORM, frac, 0.5, 123, 64)
        assert first == second

    def test_soundness_every_return_is_best_response(self):
        rng = np.random.default_rng(31)
        uset = enumerate_uniform(2, 2)
        for trial in range(50):
            d = int(rng.integers(1, 4))
            matrices = [rng.random((2, 2)) * 0.4 for _ in range(d)]
            game, rooted = root_with_children(matrices)
            alphas = tuple(rng.dirichlet(np.ones(3)) for _ in range(d))
            frac = FractionalExtension(
                child_ids=tuple(range(1, d + 1)),
                candidate_indices=tuple(np.arange(3) for _ in range(d)),
                candidate_probs=tuple(uset.probs for _ in range(d)),
                alphas=alphas,
                sigmas=tuple(a @ uset.probs for a in alphas),
            )
            y = rng.random(2)
            y /= y.sum()
            epsilon = float(rng.uniform(0.05, 0.5))
            ext = round_extension(game, rooted, 0, None, y, frac, epsilon, trial, 16)
            if ext is not None:
                neighbors = {
                    c: uset.probs[i] for c, i in zip(ext.child_ids, ext.strategy_indices)
                }
                assert is_epsilon_best_response(game, 0, y, neighbors, epsilon)

    def test_missing_z_for_non_root_rejected(self):
        eye = np.eye(2)
        game = game_from_matrices(
            3, 2, [(0, 1, eye.copy(), eye.copy()), (1, 2, eye.copy(), eye.copy())]
        )
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 1)
        frac = FractionalExtension(
            child_ids=(2,),
            candidate_indices=(np.array([0]),),
            candidate_probs=(uset.probs[[0]],),
            alphas=(np.array([1.0]),),
            sigmas=(E1.copy(),),
        )
        with pytest.raises(ValueError):
            round_extension(game, rooted, 1, None, E1, frac, 0.5, 0, 4)


class FixedDraws(np.random.Generator):
    """A generator whose ``random`` returns the given draws, so that a test
    chooses the numbers ``round_extension`` draws (it takes a generator as
    its own seed)."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, size=None):
        assert size == len(self.draws)
        return self.draws.copy()


class TestRoundingPositions:
    def test_positions_equal_the_per_child_clamped_searchsorted(self):
        # Every tuple is accepted in a zero game, so the first sample's
        # positions show in the returned indices. The weights include zeros
        # and blocks of different lengths, one of them summing to less than
        # one; the draws hit cumulative values exactly, zero, the totals and
        # values above them, and random points.
        alphas = (
            np.array([0.0, 0.5, 0.0, 0.5]),
            np.array([1.0]),
            np.array([0.25, 0.25, 0.5, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            np.array([0.3, 0.3, 0.3]),
            np.array([0.1, 0.0, 0.2, 0.0, 0.3, 0.4, 0.0]),
        )
        d = len(alphas)
        game = zero_game(d + 1, star_edges(d + 1))
        rooted = validate_and_root(game, 0)
        uset = enumerate_uniform(2, 6)
        candidates = tuple(np.arange(len(a)) * 2 % len(uset) for a in alphas)
        frac = FractionalExtension(
            child_ids=tuple(range(1, d + 1)),
            candidate_indices=candidates,
            candidate_probs=tuple(uset.probs[idx] for idx in candidates),
            alphas=alphas,
            sigmas=tuple(a @ uset.probs[idx] for a, idx in zip(alphas, candidates)),
        )
        cums = [np.cumsum(a) for a in alphas]
        rng = np.random.default_rng(5)
        draw_sets = [np.zeros(d), np.array([c[-1] for c in cums]), np.full(d, 1.0)]
        draw_sets += [np.array([np.nextafter(c[-1], 2.0) for c in cums]), np.full(d, 1.5)]
        draw_sets += [np.array([c[j % len(c)] for c in cums]) for j in range(7)]
        draw_sets += [rng.random(d) for _ in range(50)]
        for draws in draw_sets:
            expected = tuple(
                int(idx[min(int(np.searchsorted(c, u, side="right")), len(c) - 1)])
                for idx, c, u in zip(candidates, cums, draws)
            )
            stats = SolveStats()
            ext = round_extension(
                game, rooted, 0, None, UNIFORM, frac, 0.5, FixedDraws(draws), 4, stats
            )
            assert ext == Extension(frac.child_ids, expected), draws
            assert stats.rounding_samples == 1


def concentration_by_loop(game, player, sampled, frac, epsilon):
    """The per-child definition: each child's sampled and expected payoff
    vectors, added to zeros in child order."""
    m = game.num_actions
    sampled_payoffs, expected_payoffs = np.zeros(m), np.zeros(m)
    for i, c in enumerate(sampled.child_ids):
        matrix = game.matrix(player, c)
        hit = int(np.flatnonzero(frac.candidate_indices[i] == sampled.strategy_indices[i])[0])
        sampled_payoffs += matrix @ frac.candidate_probs[i][hit]
        expected_payoffs += matrix @ frac.sigmas[i]
    deviation = np.abs(sampled_payoffs - expected_payoffs)
    return bool(np.all(deviation <= epsilon / 4.0 + 1e-12)), float(deviation.max())


class TestConcentrationEvent:
    def test_point_masses_have_zero_deviation(self):
        game, rooted = root_with_children([np.eye(2), np.eye(2)])
        uset = enumerate_uniform(2, 1)
        frac = FractionalExtension(
            child_ids=(1, 2),
            candidate_indices=(np.array([1]), np.array([0])),
            candidate_probs=(uset.probs[[1]], uset.probs[[0]]),
            alphas=(np.array([1.0]), np.array([1.0])),
            sigmas=(E2.copy(), E1.copy()),
        )
        ext = Extension(child_ids=(1, 2), strategy_indices=(1, 0))
        assert check_concentration_event(game, 0, ext, frac, 0.01)

    def test_zero_matrices_always_within_band(self):
        game = zero_game(3, [(0, 1), (0, 2)])
        uset = enumerate_uniform(2, 2)
        frac = FractionalExtension(
            child_ids=(1, 2),
            candidate_indices=(np.arange(3), np.arange(3)),
            candidate_probs=(uset.probs, uset.probs),
            alphas=(np.array([0.1, 0.2, 0.7]), np.array([1 / 3] * 3)),
            sigmas=(np.array([0.2, 0.8]), np.array([0.5, 0.5])),
        )
        for i in range(3):
            for j in range(3):
                ext = Extension(child_ids=(1, 2), strategy_indices=(i, j))
                assert check_concentration_event(game, 0, ext, frac, 0.001)

    def test_matches_hand_enumeration_on_two_children(self):
        rng = np.random.default_rng(3)
        matrices = [rng.random((2, 2)), rng.random((2, 2))]
        game, rooted = root_with_children(matrices)
        uset = enumerate_uniform(2, 2)
        cand = (np.array([0, 2]), np.array([0, 1, 2]))
        alphas = (np.array([0.3, 0.7]), np.array([0.2, 0.5, 0.3]))
        sigmas = tuple(
            a @ uset.probs[idx] for a, idx in zip(alphas, cand)
        )
        frac = FractionalExtension(
            child_ids=(1, 2),
            candidate_indices=cand,
            candidate_probs=tuple(uset.probs[idx] for idx in cand),
            alphas=alphas,
            sigmas=sigmas,
        )
        epsilon = 0.25
        expected_payoffs = matrices[0] @ sigmas[0] + matrices[1] @ sigmas[1]
        for i in cand[0]:
            for j in cand[1]:
                sampled_payoffs = (
                    matrices[0] @ uset.probs[i] + matrices[1] @ uset.probs[j]
                )
                deviation = float(np.abs(sampled_payoffs - expected_payoffs).max())
                ext = Extension(child_ids=(1, 2), strategy_indices=(int(i), int(j)))
                assert check_concentration_event(game, 0, ext, frac, epsilon) == (
                    deviation <= epsilon / 4.0 + 1e-12
                )

    def test_event_implies_direct_acceptance(self):
        # whenever a tuple satisfies the deviation band and the fractional
        # solution satisfies the half-epsilon rows, the direct check passes
        rng = np.random.default_rng(17)
        for trial in range(60):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            uset = enumerate_uniform(m, 2)
            matrices = [rng.random((m, m)) * float(rng.uniform(0.05, 0.5)) for _ in range(d)]
            game, rooted = root_with_children(matrices, m=m)
            k = len(uset)
            alphas = tuple(rng.dirichlet(np.ones(k)) for _ in range(d))
            sigmas = tuple(a @ uset.probs for a in alphas)
            frac = FractionalExtension(
                child_ids=tuple(range(1, d + 1)),
                candidate_indices=tuple(np.arange(k) for _ in range(d)),
                candidate_probs=tuple(uset.probs for _ in range(d)),
                alphas=alphas,
                sigmas=sigmas,
            )
            v = np.zeros(m)
            for a, sigma in zip(matrices, sigmas):
                v += np.asarray(a) @ sigma
            y = np.zeros(m)
            y[int(np.argmax(v))] = 1.0  # exact best response: rows hold with slack
            epsilon = float(rng.uniform(0.1, 0.8))
            for _ in range(10):
                indices = tuple(int(rng.choice(k, p=a)) for a in alphas)
                ext = Extension(child_ids=frac.child_ids, strategy_indices=indices)
                if check_concentration_event(game, 0, ext, frac, epsilon):
                    neighbors = {
                        c: uset.probs[i] for c, i in zip(ext.child_ids, indices)
                    }
                    assert is_epsilon_best_response(game, 0, y, neighbors, epsilon)

    def test_matches_the_per_child_loop(self):
        # Random stars of 2-40 children with m = 2-5, candidate lists that
        # repeat an index (the first place counts) and b = 3, so that sums of
        # three or more terms round by their order. Beside a random epsilon,
        # epsilon is set on the boundary of the loop's own deviation, and one
        # float to either side of it.
        rng = np.random.default_rng(23)
        outcomes = set()
        for trial in range(60):
            d, m = int(rng.integers(2, 41)), int(rng.integers(2, 6))
            uset = enumerate_uniform(m, 3)
            size = len(uset)
            game, rooted = root_with_children([rng.random((m, m)) for _ in range(d)], m=m)
            cand = tuple(rng.integers(size, size=int(rng.integers(1, 6))) for _ in range(d))
            alphas = tuple(rng.dirichlet(np.ones(len(idx))) for idx in cand)
            frac = FractionalExtension(
                child_ids=tuple(range(1, d + 1)),
                candidate_indices=cand,
                candidate_probs=tuple(uset.probs[idx] for idx in cand),
                alphas=alphas,
                sigmas=tuple(a @ uset.probs[idx] for a, idx in zip(alphas, cand)),
            )
            ext = Extension(frac.child_ids, tuple(int(rng.choice(idx)) for idx in cand))
            _, deviation = concentration_by_loop(game, 0, ext, frac, 0.0)
            boundary = 4.0 * (deviation - 1e-12)
            epsilons = [float(rng.uniform(0.0, 2.0)), boundary]
            epsilons += [np.nextafter(boundary, -1.0), np.nextafter(boundary, 9.0)]
            for epsilon in epsilons:
                expected, _ = concentration_by_loop(game, 0, ext, frac, epsilon)
                assert check_concentration_event(game, 0, ext, frac, epsilon) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_childless_extension_matches_the_per_child_loop(self):
        # solve_feasibility's extension of a player without children, and
        # round_extension's empty sample: zeros against zeros on both sides
        game = zero_game(3, [(0, 1), (0, 2)])
        frac = FractionalExtension((), (), (), (), ())
        ext = Extension((), ())
        for epsilon in (0.0, 0.5, -4e-12, -4.0):
            expected, _ = concentration_by_loop(game, 1, ext, frac, epsilon)
            assert check_concentration_event(game, 1, ext, frac, epsilon) == expected

    def test_rejects_non_candidate_sample(self):
        game, rooted = root_with_children([np.eye(2)])
        uset = enumerate_uniform(2, 1)
        frac = FractionalExtension(
            child_ids=(1,),
            candidate_indices=(np.array([0]),),
            candidate_probs=(uset.probs[[0]],),
            alphas=(np.array([1.0]),),
            sigmas=(E1.copy(),),
        )
        ext = Extension(child_ids=(1,), strategy_indices=(1,))
        with pytest.raises(ValueError):
            check_concentration_event(game, 0, ext, frac, 0.5)


class TestMeanSampleCount:
    def test_bounded_entries_round_quickly(self):
        # entries capped at eps / (2 sqrt(6 d ln m)) concentrate aggregates, so
        # acceptance should take about one draw on average
        rng = np.random.default_rng(41)
        d, m, epsilon = 64, 4, 0.5
        bound = epsilon / (2.0 * np.sqrt(6.0 * d * np.log(m)))
        uset = enumerate_uniform(m, 2)
        total_samples = 0
        calls = 200
        for trial in range(calls):
            matrices = [rng.uniform(0.0, bound, size=(m, m)) for _ in range(d)]
            game, rooted = root_with_children(matrices, m=m)
            k = 8
            chosen = tuple(
                np.sort(rng.choice(len(uset), size=k, replace=False)) for _ in range(d)
            )
            alphas = tuple(rng.dirichlet(np.ones(k)) for _ in range(d))
            sigmas = tuple(a @ uset.probs[idx] for a, idx in zip(alphas, chosen))
            frac = FractionalExtension(
                child_ids=tuple(range(1, d + 1)),
                candidate_indices=chosen,
                candidate_probs=tuple(uset.probs[idx] for idx in chosen),
                alphas=alphas,
                sigmas=sigmas,
            )
            v = np.zeros(m)
            for a, sigma in zip(matrices, sigmas):
                v += a @ sigma
            y = np.zeros(m)
            y[int(np.argmax(v))] = 1.0
            stats = SolveStats()
            ext = round_extension(game, rooted, 0, None, y, frac, epsilon, trial, 64, stats)
            assert ext is not None
            total_samples += stats.rounding_samples
        assert total_samples / calls <= 2.1
