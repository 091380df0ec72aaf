"""CLI tests: every subcommand runs and prints its headline."""

import contextlib
import io
import json

import pytest

from repro.__main__ import build_parser, main


@pytest.fixture(scope="module")
def stats_snapshot():
    """One ``stats --json`` run: every telemetry family lands in the data
    path's one snapshot."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["stats", "--flows", "40", "--json"]) == 0
    return json.loads(out.getvalue())


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("fig1", "fig2", "fig4", "fig5b", "fig6",
                        "table1", "sec3", "sec46", "audit",
                        "controlplane"):
            args = parser.parse_args([command] + (
                ["--trials", "1"] if command == "fig5b" else []
            ))
            assert args.command == command

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9000"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table1" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "regenerable" in capsys.readouterr().out


class TestAuditCommand:
    def test_audit_runs_clean_and_prints_table(self, capsys):
        assert main(["audit", "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "honest" in out
        assert "replay-honorer" in out
        assert "flagged" in out

    def test_audit_json_report(self, capsys):
        assert main(
            ["audit", "--trials", "8", "--personas", "revocation-ignorer",
             "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        personas = {v["persona"] for v in report["verdicts"]}
        assert personas == {"honest", "revocation-ignorer"}

    def test_audit_unknown_persona_errors(self):
        with pytest.raises(SystemExit):
            main(["audit", "--personas", "quantum-cheater"])


class TestStatsCommand:
    def test_stats_prints_merged_snapshot(self, capsys):
        assert main(["stats", "--flows", "60"]) == 0
        out = capsys.readouterr().out
        # One snapshot covering matcher, switch, and middlebox.
        assert "matcher.accepted" in out
        assert "switch.packets" in out
        assert "middlebox.packets_processed" in out
        assert "middlebox.tracked_flows" in out
        assert "workload.flow_packets" in out

    def test_stats_json(self, stats_snapshot):
        counters, gauges = stats_snapshot["counters"], stats_snapshot["gauges"]
        assert counters["switch.packets"] > 0
        assert counters["middlebox.cookie_hits"] > 0
        assert gauges["matcher.replay_cache.size"] >= 0
        assert counters["sweep.cells_total"] == 8
        assert counters["sweep.cells_completed"] == 8

    def test_stats_audit_merges_auditor_telemetry(self, stats_snapshot):
        assert stats_snapshot["counters"]["audit.audits"] > 0
        assert stats_snapshot["counters"]["audit.false_positives"] == 0
        assert stats_snapshot["gauges"]["audit.ok"] == 1
        # The ordinary workload metrics ride in the same snapshot.
        assert stats_snapshot["counters"]["switch.packets"] > 0

    def test_stats_workload_exercises_failure_paths(self):
        from repro.__main__ import run_stats_workload

        snapshot = run_stats_workload(flows=120)
        assert snapshot.counters["matcher.accepted"] > 0
        assert snapshot.counters["matcher.unknown_id"] > 0
        assert snapshot.counters["matcher.replayed"] > 0
        assert snapshot.counters["matcher.replay_cache.rotations"] > 0
        # Switch and middlebox verify independently but see the same mix.
        assert (snapshot.counters["matcher.accepted"]
                == snapshot.counters["middlebox.matcher.accepted"])


class TestControlPlaneCommands:
    def test_controlplane_prints_report(self, capsys):
        assert main(["controlplane", "--subscribers", "2000",
                     "--shards", "1", "--churn-events", "600",
                     "--open-loop-ops", "200"]) == 0
        out = capsys.readouterr().out
        assert "baseline CookieServer" in out
        assert "1 shard(s)" in out
        assert "WITHIN BOUND" in out

    def test_controlplane_json(self, capsys):
        assert main(["controlplane", "--subscribers", "2000",
                     "--shards", "1", "--churn-events", "600",
                     "--open-loop-ops", "200", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subscribers"] == 2000
        assert report["revocation"]["within_bound"]
        assert report["configs"][0]["closed_loop"]["ops_per_s"] > 0

    def test_stats_server_merges_controlplane_telemetry(self, stats_snapshot):
        assert stats_snapshot["counters"]["cp.acquired"] == 25
        assert stats_snapshot["counters"]["cp.revoked"] == 6
        assert stats_snapshot["counters"]["cp.shed_pending"] == 1
        assert stats_snapshot["gauges"]["cp.shards"] == 2
        assert "cp.broadcast_lag_s" in stats_snapshot["histograms"]
        # Data-path telemetry still present alongside: one registry.
        assert any(k.startswith("switch.") or k.startswith("matcher.")
                   for k in stats_snapshot["counters"])


class TestBillingCommand:
    def test_billing_runs_soak_and_drill(self, capsys):
        assert main(["billing"]) == 0
        out = capsys.readouterr().out
        assert "billing soak" in out
        assert "crash drill" in out
        # The per-operator invoice table names all three catalogs.
        for operator in ("op-cnn", "op-tube", "op-skai"):
            assert operator in out
        assert "VIOLATION" not in out

    def test_billing_json(self, capsys):
        assert main(["billing", "--skip-drill", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["operators"]) == 3
        for row in payload["operators"]:
            assert row["total_bytes"] == row["delivered_bytes"]

    def test_stats_billing_merges_accountant_telemetry(self, stats_snapshot):
        counters = stats_snapshot["counters"]
        assert counters["billing.packets_accounted"] > 0
        assert counters["billing.journal.records_appended"] > 0
        assert counters["billing.journal.corrupt_records"] == 0
        assert stats_snapshot["gauges"]["billing.pending_bytes"] == 0
        # Data-path telemetry still present alongside: one registry.
        assert any(k.startswith("middlebox.") for k in counters)
