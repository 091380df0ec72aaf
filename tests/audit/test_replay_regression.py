"""Replay regression satellite: a spent cookie replayed *inside* the
2xNCT acceptance window must be classified ``replayed`` — never free.

The dangerous variant is the future-skewed mint: a cookie stamped at
``t + 0.98 x NCT``, spent immediately, then replayed ~1.5 NCT later is
still timestamp-fresh at replay time, so only the replay cache stands
between it and a free ride.  This pins the harness's probe catalog and
the honest stack's behaviour against regressions.
"""

from repro.audit import PERSONAS, AuditConfig, NeutralityAuditor

FAST = AuditConfig(trials=8)


def _honest_verdict(element="stateful"):
    return NeutralityAuditor(FAST).audit(f"zerorate-{element}")


def test_replay_probes_exist_in_every_trial():
    verdict = _honest_verdict()
    for trial in verdict.outcomes:
        assert "replayed" in trial
        assert "replayed_skewed" in trial


def test_reference_oracle_classifies_replays_as_replayed():
    verdict = _honest_verdict()
    for probe in ("replayed", "replayed_skewed"):
        records = [r for r in verdict.verifications if r.probe == probe]
        assert records, f"no verification attempts recorded for {probe}"
        assert all(r.reference_reason == "replayed" for r in records), [
            (r.probe, r.reference_reason) for r in records
        ]
        # The honest operator agrees with the oracle and rejects.
        assert not any(r.operator_accepted for r in records)


def test_replayed_flows_never_ride_free():
    for element in ("stateful", "stateless"):
        verdict = _honest_verdict(element)
        assert verdict.dimensions["replay"].violations == []
        for trial in verdict.outcomes:
            for probe in ("replayed", "replayed_skewed"):
                outcome = trial[probe]
                assert outcome.billed_free == 0
                assert outcome.free_marked_bytes == 0
                assert outcome.billed_charged > 0


def test_replay_honoring_operator_is_caught_by_the_same_probes():
    persona = PERSONAS["replay-honorer"]()
    verdict = NeutralityAuditor(FAST).audit("zerorate-stateful", persona)
    replay = verdict.dimensions["replay"]
    assert not replay.ok
    assert replay.violations
    # The oracle still says "replayed"; only the operator's acceptance
    # flips — exactly the record/replay differential the audit is for.
    records = [r for r in verdict.verifications if r.probe == "replayed"]
    assert records
    assert all(r.reference_reason == "replayed" for r in records)
    assert any(r.operator_accepted for r in records)
