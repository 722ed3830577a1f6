"""Tests for uniform-strategy enumeration, counting, and indexing."""

import itertools
import math

import numpy as np
import pytest

from helpers import reference_compositions
from treenash.errors import InvalidEpsilon, SetTooLarge
from treenash.uniform import count_uniform, enumerate_uniform, support_size


class TestSupportSize:
    def test_formula_m2_n5_eps1(self):
        # 32 (ln 2 + ln 5 + ln 2 + ln 8) = 162.41
        assert support_size(2, 5, 1.0) == 163

    def test_formula_m2_n2_eps04(self):
        # 200 (ln 2 + ln 2 + ln 5 + ln 8) = 1015.03
        assert support_size(2, 2, 0.4) == 1016

    def test_single_action_uses_formula_value(self):
        eff = 0.25
        expected = math.ceil(
            8 * (math.log(3) - math.log(eff) + math.log(8)) / eff**2
        )
        assert support_size(1, 3, 0.5) == expected

    def test_unhalved_variant(self):
        raw = 8 * (math.log(2) + math.log(2) - math.log(0.4) + math.log(8)) / 0.4**2
        assert support_size(2, 2, 0.4, halve=False) == math.ceil(raw)

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, 1.0001, 2.0])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(InvalidEpsilon):
            support_size(2, 2, epsilon)

    def test_rejects_bad_m_n(self):
        with pytest.raises(ValueError):
            support_size(0, 2, 0.5)
        with pytest.raises(ValueError):
            support_size(2, 0, 0.5)

    def test_monotone(self):
        eps_grid = [0.1, 0.2, 0.4, 0.8, 1.0]
        for m, n in [(2, 2), (3, 5), (4, 10)]:
            values = [support_size(m, n, e) for e in eps_grid]
            assert values == sorted(values, reverse=True)
        for m, n in [(2, 2), (3, 4)]:
            assert support_size(m, n + 1, 0.5) >= support_size(m, n, 0.5)
            assert support_size(m + 1, n, 0.5) >= support_size(m, n, 0.5)


class TestCountUniform:
    def test_examples(self):
        assert count_uniform(2, 3) == 4
        assert count_uniform(3, 2) == 6
        assert count_uniform(1, 99) == 1

    def test_matches_enumeration_exhaustively(self):
        for m in range(1, 6):
            for b in range(1, 13):
                assert len(enumerate_uniform(m, b)) == count_uniform(m, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_uniform(0, 3)
        with pytest.raises(ValueError):
            count_uniform(2, 0)


class TestEnumerateUniform:
    def test_m2_b2_canonical_order(self):
        uset = enumerate_uniform(2, 2)
        assert uset.probs.tolist() == [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]

    def test_b1_gives_point_masses(self):
        assert enumerate_uniform(2, 1).probs.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert enumerate_uniform(3, 1).probs.tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]

    def test_counts_sum_exactly_to_b(self):
        for m, b in [(2, 7), (3, 5), (4, 4), (5, 3)]:
            uset = enumerate_uniform(m, b)
            assert np.all(uset.counts.sum(axis=1) == b)
            assert np.all(uset.counts >= 0)

    def test_strictly_increasing_colex_order(self):
        for m, b in [(2, 5), (3, 4), (4, 3)]:
            uset = enumerate_uniform(m, b)
            reversed_rows = [tuple(reversed(row)) for row in uset.counts.tolist()]
            assert reversed_rows == sorted(reversed_rows)
            assert len(set(reversed_rows)) == len(reversed_rows)

    def test_round_trip_indexing(self):
        for m, b in [(1, 5), (2, 6), (3, 4), (4, 5)]:
            uset = enumerate_uniform(m, b)
            for i in range(len(uset)):
                assert uset.index_of(uset.strategy_at(i)) == i

    def test_index_of_rejects_off_grid(self):
        uset = enumerate_uniform(2, 2)
        with pytest.raises(ValueError):
            uset.index_of([0.3, 0.7])
        with pytest.raises(ValueError):
            uset.index_of([0.5, 0.5, 0.0])

    @pytest.mark.parametrize("m, b, strategy", [
        (2, 2, [1.5, -0.5]),  # counts (3, -1) sum to b
        (3, 2, [1.0, 0.5, -0.5]),  # would rank as (0.5, 0.5, 0)
        (2, 2, [np.nan, 1.0]),
        (2, 2, [np.inf, 0.0]),
        (2, 2, [-np.inf, 1.0]),
    ])
    def test_index_of_rejects_points_off_the_simplex(self, m, b, strategy):
        with pytest.raises(ValueError, match="negative or non-finite"):
            enumerate_uniform(m, b).index_of(strategy)

    def test_cap_exceeded_reports_exact_count(self):
        with pytest.raises(SetTooLarge) as excinfo:
            enumerate_uniform(3, 10, cap=5)
        assert str(count_uniform(3, 10)) in str(excinfo.value)

    def test_default_cap_applies(self):
        with pytest.raises(SetTooLarge):
            enumerate_uniform(2, 10_000_000)  # 10_000_001 strategies

    def test_strategies_are_valid_distributions(self):
        uset = enumerate_uniform(4, 6)
        assert np.all(uset.probs >= 0.0)
        assert np.allclose(uset.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_compositions_cover_all_multisets(self):
        # every multiset of size b over m actions appears exactly once
        uset = enumerate_uniform(3, 3)
        expected = set()
        for combo in itertools.combinations_with_replacement(range(3), 3):
            counts = [combo.count(a) for a in range(3)]
            expected.add(tuple(counts))
        assert expected == {tuple(row) for row in uset.counts.tolist()}


def assert_equals_the_recursion(m, b):
    uset = enumerate_uniform(m, b)
    expected = np.array(list(reference_compositions(m, b)), dtype=np.int64)
    assert uset.counts.dtype == np.int64 and uset.counts.shape == expected.shape
    assert np.array_equal(uset.counts, expected)
    assert uset.probs.tobytes() == (expected / float(b)).tobytes()
    assert not uset.counts.flags.writeable and not uset.probs.flags.writeable


class TestAgainstTheRecursiveReference:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_every_small_grid(self, m):
        for b in range(1, 31):
            assert_equals_the_recursion(m, b)

    @pytest.mark.parametrize("m, b", [(2, 240), (3, 762)])
    def test_theoretical_grids(self, m, b):
        assert_equals_the_recursion(m, b)

    @pytest.mark.parametrize("m, b", [(1, 30), (2, 240), (3, 762), (5, 30)])
    def test_index_of_round_trips(self, m, b):
        uset = enumerate_uniform(m, b)
        size = len(uset)
        picks = {0, size - 1, size // 2} | set(
            np.random.default_rng(m * 1000 + b).integers(0, size, 200).tolist()
        )
        for i in sorted(picks):
            assert uset.index_of(uset.strategy_at(i)) == i
