"""Figure-data exporters: the series behind each figure, as CSV/JSON.

Benchmarks assert shapes; these helpers hand the underlying series to
external plotting tools so someone can redraw the paper's figures from
this reproduction's data.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from typing import Any

from ..telemetry import TelemetrySnapshot
from .cdf import EmpiricalCDF

__all__ = [
    "cdf_to_csv",
    "counts_to_csv",
    "series_to_csv",
    "figure_bundle_to_json",
]


def cdf_to_csv(cdfs: dict[str, EmpiricalCDF], points: int = 50) -> str:
    """Several CDFs on a shared x grid (Fig. 5(b)'s format).

    Columns: ``x`` then one ``F_<name>`` column per CDF.
    """
    if not cdfs:
        raise ValueError("need at least one CDF")
    lo = min(cdf.samples[0] for cdf in cdfs.values())
    hi = max(cdf.samples[-1] for cdf in cdfs.values())
    step = (hi - lo) / (points - 1) if hi > lo else 1.0
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["x"] + [f"F_{name}" for name in cdfs])
    for i in range(points):
        # Pin the last grid point to exactly `hi` so every CDF reads 1.0
        # there despite float stepping error.
        x = hi if i == points - 1 else lo + i * step
        writer.writerow(
            [f"{x:.6g}"] + [f"{cdf.at(x):.4f}" for cdf in cdfs.values()]
        )
    return buffer.getvalue()


def counts_to_csv(
    counts: Counter,
    item_column: str = "item",
    count_column: str = "count",
    extra: dict[str, dict[str, Any]] | None = None,
) -> str:
    """A preference histogram (Figs. 1 and 2), most popular first.

    ``extra`` maps item -> {column: value} for side data such as ranks.
    """
    extra = extra or {}
    extra_columns = sorted({column for values in extra.values() for column in values})
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([item_column, count_column, *extra_columns])
    for item, count in counts.most_common():
        row = [item, count]
        row.extend(extra.get(item, {}).get(column, "") for column in extra_columns)
        writer.writerow(row)
    return buffer.getvalue()


def series_to_csv(
    rows: list[dict[str, Any]], columns: list[str] | None = None
) -> str:
    """Generic records-to-CSV (Fig. 4's sweep, Fig. 6's grid)."""
    if not rows:
        raise ValueError("need at least one row")
    columns = columns or list(rows[0])
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def figure_bundle_to_json(figures: dict[str, Any]) -> str:
    """Bundle several figures' data into one JSON document.

    Counters become ``{item: count}`` objects; CDFs become curve point
    lists; telemetry snapshots become their ``as_dict`` form; everything
    else must already be JSON-serializable.
    """

    def encode(value: Any) -> Any:
        if isinstance(value, Counter):
            return dict(value.most_common())
        if isinstance(value, EmpiricalCDF):
            return [[x, y] for x, y in value.curve()]
        if isinstance(value, TelemetrySnapshot):
            return value.as_dict()
        if isinstance(value, dict):
            return {k: encode(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [encode(v) for v in value]
        return value

    return json.dumps(encode(figures), indent=2, sort_keys=True)
