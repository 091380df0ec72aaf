"""The ledger's shape: what BENCHMARK.json declares, the one-line result
the PR driver reads, the ``bench/results/<label>.json`` files, and the
comparison of two of them."""

from __future__ import annotations

import json
import re
from statistics import median
from typing import Any

from . import REPO_ROOT
from .common import iqr_ratio
from .runner import Run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def load_spec() -> dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def contract_line(run: Run, spec: dict[str, Any]) -> dict[str, Any]:
    """The last stdout line of a ``--workload`` run: exactly the declared
    metrics of the requested view, each with its declared unit."""
    declared = spec["per_layer"] if run.traced else spec["end_to_end"]
    values = run.per_layer if run.traced else run.end_to_end
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise KeyError(f"measured but not declared in BENCHMARK.json: {undeclared}")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def validate(ledger: dict[str, Any], spec: dict[str, Any], traced: bool) -> list[str]:
    """Problems that make ``ledger`` not an instance of ``spec``."""
    problems: list[str] = []
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(ledger["workloads"]) != sorted(declared):
        problems.append(
            f"workloads {sorted(ledger['workloads'])} != declared {sorted(declared)}"
        )
    views = [("end_to_end", spec["end_to_end"])]
    if traced:
        views.append(("per_layer", spec["per_layer"]))
    for name in [*declared, *(m["name"] for _, view in views for m in view)]:
        if not NAME.match(name) or len(name) > 64:
            problems.append(f"bad name {name!r}")
    for workload in declared:
        entry = ledger["workloads"].get(workload)
        if entry is None:
            continue
        if entry["failed"] or entry["fail_ratio"] != 0:
            problems.append(f"{workload}: fail_ratio {entry['fail_ratio']}")
        for view, metrics in views:
            names = [m["name"] for m in metrics]
            if len(set(names)) != len(names):
                problems.append(f"{view}: a metric is declared twice")
            got = entry.get(view, {})
            if sorted(got) != sorted(names):
                problems.append(
                    f"{workload}.{view}: missing {sorted(set(names) - set(got))}, "
                    f"extra {sorted(set(got) - set(names))}"
                )
            for metric in metrics:
                reading = got.get(metric["name"])
                if reading is None:
                    continue
                if reading.get("unit") != metric["unit"] or not metric["unit"]:
                    problems.append(f"{workload}.{metric['name']}: unit mismatch")
                if not isinstance(reading.get("value"), (int, float)):
                    problems.append(f"{workload}.{metric['name']}: no value")
    return problems


def summarise(values: list[float], unit: str) -> dict[str, Any]:
    """One metric over the runs of a set: the set's median is the value."""
    return {
        "value": median(values),
        "unit": unit,
        "runs": values,
        "iqr_ratio": iqr_ratio(values) if len(values) > 1 else None,
    }


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> list[dict]:
    """Every end-to-end metric × workload of ledger ``b`` against base
    ``a``.  A move beyond the metric's bound is ``regressed`` or
    ``improved``; when either side's own spread exceeds the bound the
    pair is ``unresolved`` instead."""
    rows: list[dict] = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in (w["name"] for w in spec["workloads"]):
            try:
                base = a["workloads"][workload]["end_to_end"][name]
                new = b["workloads"][workload]["end_to_end"][name]
            except KeyError:
                continue
            ratio = new["value"] / base["value"]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spread = max(
                _spread(a["workloads"][workload], name),
                _spread(b["workloads"][workload], name),
            )
            if spread > bound:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
            elif -worse > bound:
                status = "improved"
            else:
                status = "same"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": base["value"],
                    "new": new["value"],
                    "ratio": ratio,
                    "bound": bound,
                    "spread": spread,
                    "status": status,
                }
            )
    return rows


def _spread(entry: dict[str, Any], metric: str) -> float:
    """Run-to-run spread when the set has several runs, else the
    round-to-round spread inside the one run (rate metrics only)."""
    across_runs = entry["end_to_end"][metric].get("iqr_ratio")
    if across_runs is not None:
        return across_runs
    if metric in ("items_per_s", "call_p50_us"):
        return entry["detail"].get("round_iqr_ratio", 0.0)
    return 0.0
