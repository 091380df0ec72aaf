"""Unified telemetry for every data-path component.

Components keep plain ints (or a stats dataclass) on their hot path and
*declare* which are counters and which are gauges; ``register_telemetry``
hands that declaration to :meth:`MetricsRegistry.register`, the one place
a collector is built (zero cost per packet: attributes are read only at
snapshot time), and ``MetricsRegistry.snapshot()`` returns a single
mergeable, exportable :class:`TelemetrySnapshot`.

Quick use::

    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    matcher.register_telemetry(registry)      # prefix "matcher"
    switch.register_telemetry(registry)       # prefix "switch"
    middlebox.register_telemetry(registry)    # prefix "middlebox"
    print(registry.snapshot().format_text())

``python -m repro stats`` prints exactly this view for a synthetic
workload.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    HistogramData,
    TelemetrySnapshot,
)
from .registry import MetricsRegistry

__all__ = [
    "Histogram",
    "HistogramData",
    "TelemetrySnapshot",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]
