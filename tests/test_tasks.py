"""Tests for the task hierarchy dataclasses (Table III)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.tasks import T1Task, T3Task, T4Task, UtilHistogram

from tests.stepped_models import StepHistogram


class TestT1Task:
    def test_from_bitmaps_roundtrip(self, rng):
        a = rng.random((16, 16)) < 0.3
        b = rng.random((16, 16)) < 0.3
        task = T1Task.from_bitmaps(a, b)
        assert np.array_equal(task.a_bitmap(), a)
        assert np.array_equal(task.b_bitmap(), b)

    def test_vector_operand(self, rng):
        b = rng.random((16, 1)) < 0.5
        task = T1Task.from_bitmaps(np.ones((16, 16), bool), b)
        assert task.n == 1
        assert np.array_equal(task.b_bitmap(), b)

    def test_rejects_bad_a_shape(self):
        with pytest.raises(ValueError):
            T1Task.from_bitmaps(np.ones((8, 16), bool), np.ones((16, 16), bool))

    def test_rejects_bad_b_width(self):
        with pytest.raises(ValueError):
            T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 4), bool))

    def test_intermediate_products_dense(self):
        task = T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))
        assert task.intermediate_products() == 4096  # Table VII maximum

    def test_intermediate_products_empty(self):
        task = T1Task.from_bitmaps(np.zeros((16, 16), bool), np.ones((16, 16), bool))
        assert task.intermediate_products() == 0

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_intermediate_products_formula(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.random((16, 16)) < 0.3
        b = gen.random((16, 16)) < 0.3
        expected = int((a.sum(axis=0) * b.sum(axis=1)).sum())
        assert T1Task.from_bitmaps(a, b).intermediate_products() == expected

    def test_cache_key_depends_on_bitmaps_only(self, rng):
        a = rng.random((16, 16)) < 0.3
        b = rng.random((16, 16)) < 0.3
        t1 = T1Task.from_bitmaps(a, b, weight=1)
        t2 = T1Task.from_bitmaps(a, b, weight=7)
        assert t1.cache_key() == t2.cache_key()

    def test_weight_default(self):
        task = T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))
        assert task.weight == 1


class TestT3Task:
    def test_output_tile(self):
        task = T3Task(i=2, j=3, k=1, products=10)
        assert task.output_tile == (2, 3)

    def test_frozen(self):
        task = T3Task(i=0, j=0, k=0, products=1)
        with pytest.raises(AttributeError):
            task.products = 2


class TestT4Task:
    def test_code_packing(self):
        """The paper's Fig. 9 example: code '49' = target 4, pattern 0x9."""
        task = T4Task(target=4, pattern=0x9)
        assert task.code == 0x49
        assert task.length == 2

    def test_length_counts_pattern_bits(self):
        assert T4Task(target=0, pattern=0xF).length == 4
        assert T4Task(target=0, pattern=0x1).length == 1

    def test_rejects_wide_target(self):
        with pytest.raises(ValueError):
            T4Task(target=16, pattern=0x1)

    def test_rejects_wide_pattern(self):
        with pytest.raises(ValueError):
            T4Task(target=0, pattern=0x10)


class TestUtilHistogram:
    def test_bins_are_quartiles(self):
        hist = StepHistogram()
        hist.record(0.1)   # (0, 25]
        hist.record(0.3)   # (25, 50]
        hist.record(0.6)   # (50, 75]
        hist.record(0.9)   # (75, 100]
        assert hist.bins.tolist() == [1, 1, 1, 1]

    def test_zero_goes_to_lowest_bin(self):
        hist = StepHistogram()
        hist.record(0.0)
        assert hist.bins.tolist() == [1, 0, 0, 0]

    def test_boundaries(self):
        hist = StepHistogram()
        hist.record(0.25)
        hist.record(0.5)
        hist.record(0.75)
        hist.record(1.0)
        assert hist.bins.tolist() == [1, 1, 1, 1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            StepHistogram().record(1.5)

    def test_weighted_record(self):
        hist = StepHistogram()
        hist.record(0.9, weight=5)
        assert hist.cycles == 5

    def test_fractions_sum_to_one(self):
        hist = StepHistogram()
        for u in (0.1, 0.4, 0.9, 0.95):
            hist.record(u)
        assert abs(hist.fractions().sum() - 1.0) < 1e-12

    def test_fractions_empty(self):
        assert UtilHistogram().fractions().tolist() == [0.0] * 4

    def test_low_util_fraction(self):
        hist = StepHistogram()
        hist.record(0.2)
        hist.record(0.45)
        hist.record(0.9)
        assert abs(hist.low_util_fraction() - 2 / 3) < 1e-12
