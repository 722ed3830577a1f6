"""Tests for the feasibility program and the Las Vegas rounding step."""

import numpy as np
import pytest

from helpers import game_from_matrices, zero_game
from treenash.game import is_epsilon_best_response, validate_and_root
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
        assert not inst.trivially_infeasible
        assert np.allclose(inst.b_ub, 0.2)  # 0 >= 0 - eps/2 rearranged
        assert np.allclose(inst.a_ub, 0.0)
        assert solve_feasibility(inst) is not None

    def test_empty_candidate_set_marks_trivially_infeasible(self):
        game, rooted = root_with_children([np.eye(2)])
        uset = enumerate_uniform(2, 1)
        inst = instance_for(game, rooted, {1: []}, E1, 0.5, uset)
        assert inst.trivially_infeasible
        assert inst.empty_children == (1,)
        assert solve_feasibility(inst) is None

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
        assert inst.a_eq.shape == (3, inst.num_variables)
        assert inst.a_ub.shape == (3, inst.num_variables)
        assert np.array_equal(inst.b_eq, np.ones(3))
        # each simplex row covers exactly its child's block
        for i, sl in enumerate(inst.alpha_slices):
            assert np.array_equal(np.flatnonzero(inst.a_eq[i]), np.arange(sl.start, sl.stop))

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
        assert np.allclose(inst.base_payoffs, E1)
        assert inst.b_ub[0] == pytest.approx(0.2)  # j = 0: 0 + eps/2
        assert inst.b_ub[1] == pytest.approx(1.2)  # j = 1: 1 + eps/2


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
