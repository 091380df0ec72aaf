"""Unified telemetry for every data-path component.

The repository grew three incompatible stats styles — ``SwitchStats``
dataclasses, ``MatchStats`` dataclasses, and bare ints on the zero-rating
middlebox.  This package unifies them behind one registry: components
register *collectors* (zero-cost on the hot path — plain ints are read
only at snapshot time), and ``MetricsRegistry.snapshot()`` returns a
single mergeable, exportable :class:`TelemetrySnapshot`.

Quick use::

    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    matcher.register_telemetry(registry)      # prefix "matcher"
    switch.register_telemetry(registry)       # prefix "switch"
    middlebox.register_telemetry(registry)    # prefix "middlebox"
    print(registry.snapshot().format_text())

``python -m repro stats`` prints exactly this view for a synthetic
workload; :func:`repro.analysis.export.telemetry_to_csv` exports it.
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
