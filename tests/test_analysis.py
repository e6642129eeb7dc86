"""Tests for latency statistics, CDFs and result tables."""

import numpy as np
import pytest

from repro.analysis import (
    EmpiricalCDF,
    LatencySummary,
    ResultTable,
    comparison_table,
    summarize,
)
from repro.exceptions import ConfigurationError


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_percentiles_ordering(self, rng):
        summary = summarize(rng.exponential(1.0, 10_000))
        assert summary.p50 <= summary.p90 <= summary.p95 <= summary.p99 <= summary.p999

    def test_as_row_keys(self):
        row = summarize([1.0, 2.0]).as_row()
        assert {"count", "mean", "p50", "p99", "p99.9", "max"} <= set(row)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([1.0, -0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([1.0, float("inf")])


class TestEmpiricalCDF:
    def test_cdf_and_ccdf_are_complements(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.cdf(2.0) + cdf.ccdf(2.0) == pytest.approx(1.0)
        assert cdf.cdf(2.0) == pytest.approx(0.5)

    def test_quantile(self):
        cdf = EmpiricalCDF(list(range(101)))
        assert cdf.quantile(0.5) == pytest.approx(50.0)

    def test_ccdf_points(self):
        cdf = EmpiricalCDF([1.0, 10.0, 100.0])
        xs, fractions = cdf.ccdf_points([0.5, 5.0, 50.0, 500.0])
        assert list(fractions) == pytest.approx([1.0, 2 / 3, 1 / 3, 0.0])

    def test_ccdf_points_matches_scalar_ccdf(self, rng):
        # The vectorised implementation must agree exactly with evaluating
        # ccdf() one threshold at a time (including at exact sample values,
        # where the side="right" convention matters).
        samples = rng.exponential(1.0, 1_000)
        cdf = EmpiricalCDF(samples)
        thresholds = np.concatenate([
            np.linspace(0.0, float(samples.max()) * 1.1, 57),
            samples[:25],          # exact sample values
            [-1.0, 0.0],
        ])
        xs, fractions = cdf.ccdf_points(thresholds)
        assert np.array_equal(xs, thresholds)
        assert np.array_equal(fractions, np.array([cdf.ccdf(x) for x in thresholds]))

    def test_ccdf_points_empty_thresholds(self):
        xs, fractions = EmpiricalCDF([1.0, 2.0]).ccdf_points([])
        assert xs.size == 0 and fractions.size == 0

    def test_curve_monotone(self, rng):
        xs, fractions = EmpiricalCDF(rng.exponential(1.0, 100)).curve()
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(fractions) > 0)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            EmpiricalCDF([])
        with pytest.raises(ConfigurationError):
            EmpiricalCDF([1.0]).quantile(2.0)


class TestResultTable:
    def test_add_row_and_render(self):
        table = ResultTable(["load", "mean"], title="demo")
        table.add_row(load=0.1, mean=1.23456)
        text = table.to_text()
        assert "demo" in text and "load" in text and "1.235" in text

    def test_unknown_column_rejected(self):
        table = ResultTable(["a"])
        with pytest.raises(ConfigurationError):
            table.add_row(b=1)

    def test_column_extraction_with_missing(self):
        table = ResultTable(["a", "b"])
        table.add_row(a=1)
        table.add_row(a=2, b=3)
        assert table.column("b") == [None, 3]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultTable(["x", "x"])

    def test_comparison_table_shape(self):
        table = comparison_table(
            "t", "load", [0.1, 0.2], {"one copy": [1.0, 2.0], "two copies": [0.5, 1.5]}
        )
        assert table.columns == ["load", "one copy", "two copies"]
        assert len(table.rows) == 2

    def test_comparison_table_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            comparison_table("t", "x", [1], {"s": [1, 2]})
