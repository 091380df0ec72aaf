"""Telemetry layer: instruments, snapshots, merging, export."""

import pytest

from repro.telemetry import (
    Histogram,
    HistogramData,
    MetricsRegistry,
    TelemetrySnapshot,
)


class TestInstruments:
    def test_histogram_buckets_and_sum(self):
        histogram = Histogram("h", buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 5000):
            histogram.observe(value)
        data = histogram.snapshot()
        assert data.count == 4
        assert data.sum == 5055.5
        assert data.counts == [1, 1, 1, 1]  # inf bucket appended

    def test_histogram_quantile(self):
        histogram = Histogram("h", buckets=(1, 2, 4, 8))
        for _ in range(99):
            histogram.observe(1)
        histogram.observe(8)
        data = histogram.snapshot()
        assert data.quantile(0.5) == 1
        assert data.quantile(1.0) == 8

    def test_histogram_merge_mismatched_buckets_raises(self):
        a = Histogram("h", buckets=(1, 2)).snapshot()
        b = Histogram("h", buckets=(1, 3)).snapshot()
        with pytest.raises(ValueError):
            a.merge(b)


class TestSnapshotMerge:
    def test_counters_and_gauges_sum(self):
        a = TelemetrySnapshot(counters={"c": 2}, gauges={"g": 10})
        b = TelemetrySnapshot(counters={"c": 3, "d": 1}, gauges={"g": 5})
        merged = a.merge(b)
        assert merged.counters == {"c": 5, "d": 1}
        assert merged.gauges == {"g": 15}

    def test_histograms_merge_bucketwise(self):
        h1 = Histogram("h", buckets=(1, 10))
        h2 = Histogram("h", buckets=(1, 10))
        h1.observe(0.5)
        h2.observe(5)
        merged = TelemetrySnapshot(histograms={"h": h1.snapshot()}).merge(
            TelemetrySnapshot(histograms={"h": h2.snapshot()})
        )
        assert merged.histograms["h"].count == 2
        assert merged.histograms["h"].counts[:2] == [1, 1]

    def test_merged_classmethod_over_shards(self):
        shards = [
            TelemetrySnapshot(counters={"middlebox.packets": 100})
            for _ in range(4)
        ]
        assert TelemetrySnapshot.merged(shards).counters[
            "middlebox.packets"
        ] == 400

    def test_merge_does_not_mutate_inputs(self):
        a = TelemetrySnapshot(counters={"c": 1})
        b = TelemetrySnapshot(counters={"c": 2})
        a.merge(b)
        assert a.counters == {"c": 1} and b.counters == {"c": 2}


class TestSnapshotExport:
    def test_json_round_trip(self):
        histogram = Histogram("h", buckets=(1, 2))
        histogram.observe(1.5)
        original = TelemetrySnapshot(
            counters={"c": 7},
            gauges={"g": 3.5},
            histograms={"h": histogram.snapshot()},
        )
        restored = TelemetrySnapshot.from_json(original.to_json())
        assert restored.counters == original.counters
        assert restored.gauges == original.gauges
        assert restored.histograms["h"].counts == original.histograms["h"].counts
        assert restored.histograms["h"].buckets[-1] == float("inf")

    def test_format_text_sections(self):
        text = TelemetrySnapshot(
            counters={"a.hits": 3}, gauges={"a.level": 2}
        ).format_text()
        assert "counters:" in text and "gauges:" in text
        assert "a.hits" in text

    def test_empty_snapshot(self):
        assert "no telemetry" in TelemetrySnapshot().format_text()


class Component:
    """A bare component: its attributes are its metrics."""

    def __init__(self, **values):
        vars(self).update(values)
class TestRegistry:
    def test_instruments_idempotent(self):
        registry = MetricsRegistry()
        assert registry.histogram("h") is registry.histogram("h")
        with pytest.raises(ValueError):
            registry.histogram("")

    def test_polled_gauge_reads_at_snapshot_time(self):
        """A component is read by ``snapshot()``, not at registration:
        the level is always current."""
        registry = MetricsRegistry()
        table = {}
        registry.register(table, "table", read=lambda: ({}, {"flows": len(table)}))
        table["a"] = 1
        table["b"] = 2
        assert registry.snapshot().gauges["table.flows"] == 2

    def test_collector_merged_into_snapshot(self):
        registry = MetricsRegistry()
        registry.histogram("own", buckets=(1, 2)).observe(1)
        registry.register(Component(hits=9), "component", counters=("hits",))
        snapshot = registry.snapshot()
        assert snapshot.counters == {"component.hits": 9}
        assert snapshot.histograms["own"].count == 1

    def test_collector_replacement_is_idempotent(self):
        registry = MetricsRegistry()
        component = Component(n=1)
        registry.register(component, "c", counters=("n",))
        component.n = 2
        registry.register(component, "c", counters=("n",))
        assert registry.snapshot().counters == {"c.n": 2}

    def test_duplicate_names_across_collectors_sum(self):
        """Three shards under one prefix → fleet totals."""
        registry = MetricsRegistry()
        for _shard in range(3):
            registry.register(Component(packets=10), "mb", counters=("packets",))
        assert registry.snapshot().counters["mb.packets"] == 30
