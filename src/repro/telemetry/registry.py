"""The metrics registry: one queryable view over every component.

Counters and gauges reach a registry through **collectors**:
``registry.register_collector(name, fn)`` registers a zero-argument
callable returning a :class:`TelemetrySnapshot` that is polled at
snapshot time.  Every component
(:class:`~repro.core.matcher.CookieMatcher`,
:class:`~repro.core.switch.CookieSwitch`,
:class:`~repro.services.zerorate.ZeroRatingMiddlebox`, ...) keeps plain
ints on its hot path: the data path pays nothing, and the registry reads
the current values only when asked.  A distribution has no plain-int
form, so ``registry.histogram(...)`` creates (or returns the existing)
live :class:`Histogram` that code ``observe``s into directly.

``snapshot()`` returns everything merged into one
:class:`TelemetrySnapshot`; duplicate metric names across collectors sum,
which is exactly what a sharded deployment wants (N middlebox shards
registering under the same prefix yield fleet totals).
"""

from __future__ import annotations

from typing import Callable, Iterable

from .metrics import DEFAULT_BUCKETS, Histogram, TelemetrySnapshot

__all__ = ["MetricsRegistry"]

CollectorFn = Callable[[], TelemetrySnapshot]


class MetricsRegistry:
    """Owns histograms, polls collectors, produces merged snapshots."""

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, CollectorFn] = {}

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Create or fetch the histogram ``name`` (idempotent)."""
        if not name:
            raise ValueError("metric name must be non-empty")
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, buckets=buckets, help=help
            )
        return instrument

    # ------------------------------------------------------------------
    # Collectors
    # ------------------------------------------------------------------
    def register_collector(self, name: str, fn: CollectorFn) -> None:
        """Register (or replace) the named collector.

        Replacement by name keeps component re-registration idempotent: a
        component registered twice under one name reports once.
        """
        if not name:
            raise ValueError("collector name must be non-empty")
        self._collectors[name] = fn

    def unregister_collector(self, name: str) -> bool:
        """Remove a collector; True if it existed."""
        return self._collectors.pop(name, None) is not None

    @property
    def collector_names(self) -> list[str]:
        return sorted(self._collectors)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Everything — owned histograms plus all collectors — merged."""
        own = TelemetrySnapshot(
            histograms={n: h.snapshot() for n, h in self._histograms.items()},
        )
        return TelemetrySnapshot.merged(
            [own] + [fn() for _name, fn in sorted(self._collectors.items())]
        )
