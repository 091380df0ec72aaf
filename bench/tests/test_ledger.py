"""Determinism of the corpora, soundness of the oracle's own arithmetic,
the tracer's self-time rule, ``--compare``'s verdicts, and BENCHMARK.json
against the PR driver's limits."""

from __future__ import annotations

import json
import re

from bench import REPO_ROOT, ledger
from bench.acquisition_path import CpChurn, CpRpc
from bench.packet_path import PACKET_WORKLOADS, BillingOn, Fig4Hostile, Fig4Steady
from bench.pool_path import VerifyPool
from bench.runner import WORKLOAD_LAYER_METRICS, WORKLOADS, measure
from bench.stages import run_stages
from bench.tracing import Tracer

SCALE = 0.05
ALL = (*PACKET_WORKLOADS, VerifyPool, CpChurn, CpRpc)


def _built(cls, seed):
    workload = cls(seed, SCALE)
    workload.setup()
    return workload


def test_seed_is_the_only_source_of_randomness():
    for cls in ALL:
        first, again, other = _built(cls, 7), _built(cls, 7), _built(cls, 8)
        assert first.describe() == again.describe(), cls.name
        assert (
            first.describe()["corpus_digest"] != other.describe()["corpus_digest"]
        ), cls.name


def test_billing_runs_the_steady_corpus():
    assert (
        _built(BillingOn, 3).corpus.digest == _built(Fig4Steady, 3).corpus.digest
    )


def test_planned_sizes_match_the_packets():
    """The oracle computes wire bytes from the plan alone; the packets
    the program built must weigh the same."""
    corpus = _built(Fig4Hostile, 11).corpus
    position = [0] * len(corpus.flows)
    for packet, flow in zip(corpus.packets, corpus.flow_of):
        assert packet.wire_length == corpus.flows[flow].sizes[position[flow]]
        position[flow] += 1
    assert sum(corpus.class_counts.values()) == len(corpus.flows)
    assert corpus.class_counts["replayed"] > 0


def test_an_outcome_the_oracle_did_not_plan_fails_the_run():
    workload = _built(Fig4Steady, 5)
    workload.corpus.expected.cookie_hits += 1
    device = workload.new_device()
    workload.drive(device)
    verdict = workload.check(device, first_round=False)
    assert verdict.failed == 1 and "cookie_hits" in verdict.notes[0]


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(2_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)])
    root = tracer.begin("root")
    for _ in range(3):
        outer()
    tracer.finish(root)
    detached = tracer.begin_detached("awaited", 9)
    tracer.finish_detached(detached)
    totals = tracer.totals()
    assert totals["inner"]["count"] == 15 and totals["outer"]["count"] == 3
    tree = [row for row in totals.values() if not row["detached"]]
    assert sum(row["self_ns"] for row in tree) == totals["root"]["total_ns"]
    assert totals["awaited"]["self_ns"] == 0


def _ledger(rate, spread=None, rss=100.0):
    def reading(value, unit):
        return {"value": value, "unit": unit, "iqr_ratio": spread}

    return {
        "workloads": {
            "fig4-steady": {
                "end_to_end": {
                    "items_per_s": reading(rate, "1/s"),
                    "peak_rss_mb": reading(rss, "MiB"),
                },
                "detail": {"round_iqr_ratio": 0.01},
            }
        }
    }


def test_compare_marks_moves_beyond_the_bound():
    spec = ledger.load_spec()

    def status(new, metric="items_per_s"):
        rows = ledger.compare(_ledger(1000.0), new, spec)
        return {row["metric"]: row for row in rows}[metric]["status"]

    assert status(_ledger(1000.0)) == "same"
    assert status(_ledger(900.0)) == "same"
    assert status(_ledger(700.0)) == "regressed"
    assert status(_ledger(1300.0)) == "improved"
    assert status(_ledger(700.0, spread=0.3)) == "unresolved"
    # Lower is better for memory: growth is the regression.
    assert status(_ledger(1000.0, rss=120.0), "peak_rss_mb") == "regressed"
    row = ledger.compare(_ledger(1000.0), _ledger(700.0), spec)[0]
    assert row["base"] == 1000.0 and abs(row["ratio"] - 0.7) < 1e-12


def test_benchmark_json_meets_the_driver_contract():
    text = (REPO_ROOT / "BENCHMARK.json").read_text()
    assert len(text.encode()) <= 64 * 1024
    spec = json.loads(text)
    assert sorted(spec) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "-m", "bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in (*spec["end_to_end"], *spec["per_layer"]):
        names.append(metric["name"])
        assert unit.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # The per-layer view is the stage replays plus the workload's own readings.
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(run_stages(1, SCALE)) | set(WORKLOAD_LAYER_METRICS)


def test_contract_line_has_exactly_the_declared_metrics():
    spec = ledger.load_spec()
    run = measure("fig4-hostile", seed=2, seconds=0.0, traced=False, scale=SCALE)
    line = ledger.contract_line(run, spec)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(reading["value"] > 0 for reading in line["metrics"].values())
