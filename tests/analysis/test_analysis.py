"""Analysis helper tests: CDFs and heavy-tail metrics."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    EmpiricalCDF,
    coverage_curve,
    head_coverage,
    is_heavy_tailed,
    uniqueness_fraction,
)


class TestEmpiricalCDF:
    def test_at(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(0.5) == 0.0
        assert cdf.at(2.0) == 0.5
        assert cdf.at(10.0) == 1.0

    def test_median(self):
        assert EmpiricalCDF([1, 2, 3, 4, 100]).median == 3

    def test_quantile_at_a_whole_rank(self):
        cdf = EmpiricalCDF([1, 2, 3, 4])
        assert cdf.at(2) == 0.5
        assert cdf.quantile(0.5) == 2
        assert EmpiricalCDF([1, 2]).median == 1
        twenty = EmpiricalCDF(list(range(1, 21)))
        assert (twenty.median, twenty.quantile(0.9)) == (10, 18)

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50),
        st.floats(0, 1),
    )
    def test_quantile_inverts_at_property(self, samples, q):
        cdf = EmpiricalCDF(samples)
        x = cdf.quantile(q)
        assert x in samples
        assert cdf.at(x) >= q
        assert all(cdf.at(y) < q for y in samples if y < x)

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF([5.0])
        assert cdf.quantile(0.0) == 5.0
        assert cdf.quantile(1.0) == 5.0
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_curve_monotone(self):
        cdf = EmpiricalCDF([1.0, 1.5, 2.0, 8.0])
        ys = [y for _x, y in cdf.curve(points=20)]
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_dominance(self):
        fast = EmpiricalCDF([1.0, 1.1, 1.2])
        slow = EmpiricalCDF([5.0, 6.0, 7.0])
        assert fast.stochastically_dominates(slow)
        assert not slow.stochastically_dominates(fast)

    def test_dominance_self(self):
        cdf = EmpiricalCDF([1.0, 2.0])
        assert cdf.stochastically_dominates(cdf)

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50))
    def test_at_is_monotone_property(self, samples):
        cdf = EmpiricalCDF(samples)
        xs = sorted({min(samples), max(samples), 50.0})
        values = [cdf.at(x) for x in xs]
        assert values == sorted(values)


class TestTailMetrics:
    def test_uniqueness_fraction(self):
        counts = Counter({"a": 5, "b": 1, "c": 1})
        # 2 singleton preferences out of 7 expressed.
        assert uniqueness_fraction(counts) == pytest.approx(2 / 7)

    def test_uniqueness_empty(self):
        assert uniqueness_fraction(Counter()) == 0.0

    def test_head_coverage(self):
        counts = Counter({"a": 6, "b": 3, "c": 1})
        assert head_coverage(counts, 1) == 0.6
        assert head_coverage(counts, 2) == 0.9
        assert head_coverage(counts, 0) == 0.0

    def test_coverage_curve(self):
        counts = Counter({"a": 2, "b": 1, "c": 1})
        curve = coverage_curve(counts)
        assert curve[0] == (1, 0.5)
        assert curve[-1] == (3, 1.0)

    def test_coverage_curve_empty(self):
        assert coverage_curve(Counter()) == []

    def test_heavy_tail_positive(self):
        counts = Counter({f"tail{i}": 1 for i in range(60)})
        counts["head"] = 40
        assert is_heavy_tailed(counts)

    def test_concentrated_not_heavy_tailed(self):
        counts = Counter({"a": 90, "b": 10})
        assert not is_heavy_tailed(counts)
