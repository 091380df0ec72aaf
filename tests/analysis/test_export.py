"""Figure-data exporter tests."""

import csv
import io
import json
from collections import Counter

import pytest

from repro.analysis import EmpiricalCDF
from repro.analysis.export import (
    cdf_to_csv,
    counts_to_csv,
    figure_bundle_to_json,
    series_to_csv,
)


class TestCdfCsv:
    def test_shared_grid(self):
        cdfs = {
            "boosted": EmpiricalCDF([0.4, 0.5, 0.6]),
            "throttled": EmpiricalCDF([5.0, 9.0, 12.0]),
        }
        rows = list(csv.DictReader(io.StringIO(cdf_to_csv(cdfs, points=10))))
        assert len(rows) == 10
        assert set(rows[0]) == {"x", "F_boosted", "F_throttled"}
        # At the grid's top both CDFs have reached 1.
        assert float(rows[-1]["F_boosted"]) == 1.0
        assert float(rows[-1]["F_throttled"]) == 1.0
        # Boosted completes before throttled starts.
        mid = rows[len(rows) // 2]
        assert float(mid["F_boosted"]) >= float(mid["F_throttled"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_to_csv({})


class TestCountsCsv:
    def test_ordering_and_extras(self):
        counts = Counter({"netflix.com": 10, "skai.gr": 1})
        text = counts_to_csv(
            counts,
            item_column="site",
            count_column="homes",
            extra={"netflix.com": {"rank": 28}, "skai.gr": {"rank": 6800}},
        )
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["site"] == "netflix.com"
        assert rows[0]["rank"] == "28"
        assert rows[1]["homes"] == "1"

    def test_missing_extra_blank(self):
        text = counts_to_csv(Counter({"a": 1}), extra={"b": {"rank": 2}})
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["rank"] == ""


class TestSeriesCsv:
    def test_rows(self):
        rows_in = [
            {"packet_size": 64, "gbps": 0.19},
            {"packet_size": 1500, "gbps": 4.85},
        ]
        rows = list(csv.DictReader(io.StringIO(series_to_csv(rows_in))))
        assert rows[1]["packet_size"] == "1500"

    def test_column_selection(self):
        text = series_to_csv([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            series_to_csv([])


class TestJsonBundle:
    def test_encodes_counters_and_cdfs(self):
        bundle = figure_bundle_to_json(
            {
                "fig1": {"counts": Counter({"a": 2, "b": 1})},
                "fig5b": {"boosted": EmpiricalCDF([1.0, 2.0])},
                "meta": ["x", 1],
            }
        )
        data = json.loads(bundle)
        assert data["fig1"]["counts"] == {"a": 2, "b": 1}
        assert data["fig5b"]["boosted"][-1][1] == 1.0
        assert data["meta"] == ["x", 1]

    def test_real_figure_data_bundles(self):
        from repro.study import BoostStudy

        result = BoostStudy(seed=1).run()
        bundle = figure_bundle_to_json({"fig1": {"counts": result.site_counts}})
        assert json.loads(bundle)["fig1"]["counts"]


class TestTelemetryExport:
    def _snapshot(self):
        from repro.telemetry import Histogram, TelemetrySnapshot

        histogram = Histogram("flow_packets", buckets=(1, 4, 16))
        for value in (1, 3, 20):
            histogram.observe(value)
        return TelemetrySnapshot(
            counters={"middlebox.cookie_hits": 5},
            gauges={"middlebox.tracked_flows": 2},
            histograms={"flow_packets": histogram.snapshot()},
        )

    def test_bundle_encodes_snapshot(self):
        import json

        from repro.analysis.export import figure_bundle_to_json

        bundle = json.loads(
            figure_bundle_to_json({"telemetry": self._snapshot()})
        )
        assert bundle["telemetry"]["counters"]["middlebox.cookie_hits"] == 5
        assert bundle["telemetry"]["histograms"]["flow_packets"]["count"] == 3
