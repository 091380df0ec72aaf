"""Telemetry instruments and the snapshot model.

One small vocabulary for every data-path component in the repository:

counters
    Monotonically increasing counts (packets processed, cookies
    accepted, flows evicted).  Merging snapshots *sums* counters, which
    is what makes per-shard middlebox telemetry aggregate correctly.
gauges
    Point-in-time levels (tracked flows, replay-cache size).  Merging
    sums gauges too — the merged view of N shards' flow tables is their
    total state footprint.
histograms
    Bucketed distributions (flow lengths, per-flow bytes) with an exact
    sum and count; merging adds bucket-wise.  :class:`Histogram` is the
    one live instrument: a distribution cannot be read off a plain int.

Snapshots — not live instruments — are the unit of exchange: a component
is *read* into a :class:`TelemetrySnapshot`, snapshots merge into one
view, and that view exports to JSON or aligned text.
The live hot-path counters stay plain Python ints inside each component;
telemetry never adds per-packet overhead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "Histogram",
    "HistogramData",
    "TelemetrySnapshot",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds: roughly log-spaced, wide enough
#: for packet counts and small enough for latencies in seconds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
    float("inf"),
)


@dataclass
class HistogramData:
    """The snapshot form of a histogram: bucket counts + exact sum/count.

    ``buckets`` are inclusive upper bounds; the last bound is typically
    ``inf``.  ``counts[i]`` is the number of observations with
    ``value <= buckets[i]`` and greater than the previous bound
    (non-cumulative, unlike Prometheus wire format — easier to merge and
    to read in a test).
    """

    buckets: tuple[float, ...]
    counts: list[int]
    sum: float = 0.0
    count: int = 0

    def merge(self, other: "HistogramData") -> "HistogramData":
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        return HistogramData(
            buckets=self.buckets,
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            seen += bucket_count
            if seen >= rank:
                return bound
        return self.buckets[-1]

    def as_dict(self) -> dict[str, Any]:
        return {
            "buckets": [b if b != float("inf") else "inf" for b in self.buckets],
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HistogramData":
        buckets = tuple(
            float("inf") if b == "inf" else float(b) for b in data["buckets"]
        )
        return cls(
            buckets=buckets,
            counts=[int(c) for c in data["counts"]],
            sum=float(data.get("sum", 0.0)),
            count=int(data.get("count", 0)),
        )


class Histogram:
    """A live bucketed distribution; snapshots to :class:`HistogramData`."""

    __slots__ = ("name", "help", "_data")

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.name = name
        self.help = help
        self._data = HistogramData(buckets=bounds, counts=[0] * len(bounds))

    def observe(self, value: float) -> None:
        data = self._data
        data.sum += value
        data.count += 1
        for i, bound in enumerate(data.buckets):
            if value <= bound:
                data.counts[i] += 1
                return

    def snapshot(self) -> HistogramData:
        data = self._data
        return HistogramData(
            buckets=data.buckets,
            counts=list(data.counts),
            sum=data.sum,
            count=data.count,
        )


@dataclass
class TelemetrySnapshot:
    """One queryable view of counters, gauges, and histograms.

    This is the exchange format of the telemetry layer: every component
    produces one, :meth:`merge` folds many into one (summing counters and
    gauges, adding histograms bucket-wise), and the result exports as
    JSON (:meth:`to_json`) or an aligned human listing
    (:meth:`format_text`).
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramData] = field(default_factory=dict)

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        merged = TelemetrySnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms=dict(self.histograms),
        )
        for name, value in other.counters.items():
            merged.counters[name] = merged.counters.get(name, 0.0) + value
        for name, value in other.gauges.items():
            merged.gauges[name] = merged.gauges.get(name, 0.0) + value
        for name, data in other.histograms.items():
            existing = merged.histograms.get(name)
            merged.histograms[name] = (
                existing.merge(data) if existing is not None else data
            )
        return merged

    @classmethod
    def merged(cls, snapshots: Iterable["TelemetrySnapshot"]) -> "TelemetrySnapshot":
        result = cls()
        for snapshot in snapshots:
            result = result.merge(snapshot)
        return result

    def as_dict(self) -> dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: data.as_dict()
                for name, data in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TelemetrySnapshot":
        return cls(
            counters={k: float(v) for k, v in data.get("counters", {}).items()},
            gauges={k: float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                k: HistogramData.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TelemetrySnapshot":
        return cls.from_dict(json.loads(text))

    def format_text(self) -> str:
        """An aligned, sectioned listing for humans (the CLI's output)."""
        lines: list[str] = []

        def fmt(value: float) -> str:
            if value == int(value):
                return str(int(value))
            return f"{value:.4g}"

        for title, section in (("counters:", self.counters), ("gauges:", self.gauges)):
            if section:
                lines.append(title)
                width = max(len(n) for n in section)
                for name, value in sorted(section.items()):
                    lines.append(f"  {name:<{width}}  {fmt(value):>12}")
        if self.histograms:
            lines.append("histograms:")
            for name, data in sorted(self.histograms.items()):
                lines.append(
                    f"  {name}  count={data.count} sum={fmt(data.sum)} "
                    f"mean={data.mean:.2f} p50={fmt(data.quantile(0.5))} "
                    f"p99={fmt(data.quantile(0.99))}"
                )
        return "\n".join(lines) if lines else "(no telemetry registered)"
