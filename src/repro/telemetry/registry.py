"""The metrics registry: one queryable view over every component.

A component exports metrics by **declaring** them: its
``register_telemetry(registry, prefix)`` is one call to
:meth:`MetricsRegistry.register` naming which of its attributes are
counters and which are gauges.  The registry alone joins prefix and name
and builds the :class:`TelemetrySnapshot`, reading the attributes with
``getattr`` only when a snapshot is asked for — components keep plain
ints on their hot path and the data path pays nothing.  A distribution
has no plain-int form, so ``registry.histogram(...)`` creates (or returns
the existing) live :class:`Histogram` that code ``observe``s into.

``snapshot()`` merges everything into one :class:`TelemetrySnapshot`.
Registration is keyed on *(prefix, the component object)*: the same
component registered twice reports once, two components under one prefix
**sum** (N middlebox shards yield fleet totals), and no registered
component ever vanishes from a snapshot.
"""

from __future__ import annotations

from dataclasses import is_dataclass
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping

from .metrics import DEFAULT_BUCKETS, Histogram, TelemetrySnapshot

__all__ = ["MetricsRegistry"]

CollectorFn = Callable[[], TelemetrySnapshot]


def _read_declared(component: Any, names: Iterable[str]) -> dict[str, Any]:
    """Current values of the declared attributes.  A name is a (dotted)
    attribute path and also the metric's name; a path that lands on a
    stats dataclass contributes that dataclass's fields instead."""
    values: dict[str, Any] = {}
    for name in names:
        value = attrgetter(name)(component)
        if is_dataclass(value):
            as_dict = getattr(value, "as_dict", None)
            values.update(as_dict() if as_dict else vars(value))
        else:
            values[name] = value
    return values


class MetricsRegistry:
    """Owns histograms, polls components, produces merged snapshots."""

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._components: dict[tuple[str, int], CollectorFn] = {}

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
    # Components
    # ------------------------------------------------------------------
    def register(
        self,
        component: Any,
        prefix: str,
        counters: Iterable[str] = (),
        gauges: Iterable[str] = (),
        read: Callable[[], Iterable[Mapping[str, Any]]] | None = None,
        nested: Iterable[tuple[str, Any]] = (),
    ) -> None:
        """Export ``component`` under ``prefix``: the one way a component
        becomes a collector.

        ``counters`` (monotonic counts) and ``gauges`` (levels) name the
        attributes to read at snapshot time.  ``read`` is for what a name
        cannot say (a ``len()``, a per-shard row, a polled worker): it
        returns un-prefixed ``{name: value}`` mappings — counters, gauges,
        histograms, trailing ones optional — and runs after the declared
        attributes are read.  Each ``(name, child)`` in ``nested`` is
        registered as ``{prefix}.{name}``.  Keyed on ``(prefix,
        component)``: the same object again replaces, another object
        under the prefix adds.
        """
        if not prefix:
            raise ValueError("metric prefix must be non-empty")
        for name, child in nested:
            child.register_telemetry(self, prefix=f"{prefix}.{name}")

        def collect() -> TelemetrySnapshot:
            sections = [
                _read_declared(component, counters),
                _read_declared(component, gauges),
                {},
            ]
            for section, extra in zip(sections, read() if read else ()):
                section.update(extra)
            return TelemetrySnapshot(
                *(
                    {f"{prefix}.{name}": value for name, value in section.items()}
                    for section in sections
                )
            )

        # The closure keeps ``component`` alive, so its id stays its own.
        self._components[prefix, id(component)] = collect

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Everything — owned histograms, then components in
        registration order — merged."""
        own = TelemetrySnapshot(
            histograms={n: h.snapshot() for n, h in self._histograms.items()},
        )
        return TelemetrySnapshot.merged(
            [own] + [collect() for collect in self._components.values()]
        )
