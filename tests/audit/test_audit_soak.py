"""Audit soak: the full personas x elements campaign at the pinned CI
seed.  Excluded from tier-1 (like the chaos soak) via the ``audit``
marker; CI runs it in the dedicated audit job with ``-m audit``."""

import hashlib
import json
from collections import Counter

import pytest

from repro.audit import AUDIT_SEED, PERSONAS, AuditConfig, NeutralityAuditor
from repro.audit.auditor import _EPOCH, _TRIAL_SPACING_S
from repro.experiments.audit import (
    AuditCampaignConfig,
    AuditCampaignReport,
    run_audit,
)
from repro.services.zerorate import ZERO_RATE_SNIFF_PACKETS
from repro.telemetry import MetricsRegistry

pytestmark = pytest.mark.audit


@pytest.fixture(scope="module")
def report() -> AuditCampaignReport:
    return run_audit(AuditCampaignConfig())


def test_campaign_is_clean_end_to_end(report):
    assert report.ok, report.violations
    assert report.false_positives == []
    assert report.missed_personas == []


def test_campaign_covers_the_full_matrix(report):
    verdicts = report.verdicts
    honest = [v for v in verdicts if v["persona"] == "honest"]
    assert {v["element"] for v in honest} == {
        "zerorate-stateful", "zerorate-stateless", "boost", "anylink",
    }
    flagged_personas = {
        v["persona"] for v in verdicts if v["persona"] != "honest"
    }
    assert flagged_personas == set(PERSONAS)
    assert all(v["flagged"] for v in verdicts if v["persona"] != "honest")


def test_campaign_report_is_deterministic(report):
    again = run_audit(AuditCampaignConfig())
    assert report.to_json() == again.to_json()
    assert report.config["seed"] == AUDIT_SEED


def test_campaign_json_feeds_ci(report):
    data = json.loads(report.to_json())
    assert set(data) >= {"config", "ok", "violations", "verdicts"}
    assert data["ok"] is True
    assert data["violations"] == []
    summary = report.summary()
    assert summary["ok"] and summary["honest_clean"]
    assert summary["personas_missed"] == 0
    rows = report.table_rows()
    assert len(rows) == len(report.verdicts)
    for row in rows:
        assert {"persona", "element", "expected", "verdict", "ok"} <= set(row)
        assert row["ok"] == "yes"


def test_campaign_telemetry_merges_into_registry(report):
    registry = MetricsRegistry()
    run_audit(AuditCampaignConfig(), telemetry=registry)
    snapshot = registry.snapshot()
    assert snapshot.counters["audit.audits"] == len(report.verdicts)
    assert snapshot.counters["audit.personas_missed"] == 0
    assert snapshot.counters["audit.false_positives"] == 0
    assert snapshot.gauges["audit.ok"] == 1


def _campaign_digest(config: AuditConfig, runs) -> str:
    """SHA-256 over everything an audit observes — the verdict, every
    flow outcome and every verification record — for each (element,
    persona name) in ``runs``."""
    auditor = NeutralityAuditor(config)
    sha = hashlib.sha256()
    for element, persona in runs:
        verdict = auditor.audit(
            element, None if persona == "honest" else PERSONAS[persona]()
        )
        document = {
            "verdict": verdict.to_json(),
            "outcomes": [
                {probe: flow.to_json() for probe, flow in trial.items()}
                for trial in verdict.outcomes
            ],
            "verifications": [
                [r.time, r.probe, r.reference_reason, r.operator_accepted]
                for r in verdict.verifications
            ],
        }
        sha.update(json.dumps(document, sort_keys=True).encode())
    return sha.hexdigest()


def test_campaign_observations_are_pinned(report):
    """The harness refactors underneath these bytes; they must not move.
    Recorded at f056d41 (PR 21), before the three audits shared one
    campaign runner."""
    runs = [(v["element"], v["persona"]) for v in report.verdicts]
    assert len(runs) == 15
    assert _campaign_digest(AuditConfig(), runs) == (
        "8e98db2915d3535a4fdd339366fa54afef1c393f535edcf4eac012d8dd1421b1"
    )
    honest = [run for run in runs if run[1] == "honest"]
    assert len(honest) == 4
    # Re-recorded when the stateless element became the middlebox fed
    # packet grants: the verdicts and flow outcomes held, and the revoked
    # probe's refused cookies on packets 4-10 (7 x 12 trials) left the
    # record (next test).
    assert _campaign_digest(AuditConfig(cookie_mode="every-packet"), honest) == (
        "eeb3de2e331c4c8edbf069627dff3af5d61918654e2ec3dde7deaf87b833888a"
    )


def test_every_packet_revoked_probe_closes_one_sniff_window_charged():
    """A cookie on every packet of the revoked probe: the stateless
    element verifies the first ``ZERO_RATE_SNIFF_PACKETS`` of them, all
    refused, then the window closes and the rest of the flow is charged
    unverified — every byte of it, in every trial."""
    config = AuditConfig(cookie_mode="every-packet")
    verdict = NeutralityAuditor(config).audit("zerorate-stateless")
    verified = Counter(
        int((record.time - _EPOCH) // _TRIAL_SPACING_S)
        for record in verdict.verifications
        if record.probe == "revoked"
    )
    assert verified == {trial: ZERO_RATE_SNIFF_PACKETS for trial in range(config.trials)}
    for trial in verdict.outcomes:
        revoked = trial["revoked"]
        assert revoked.billed_free == revoked.free_marked_bytes == 0
        assert revoked.billed_charged == revoked.delivered_bytes == revoked.sent_bytes
