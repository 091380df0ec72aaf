"""Auditor core tests: honest operators pass, verdicts are deterministic,
and the report shape is what CI consumes (PROTOCOL.md §13)."""

import json

import pytest

from repro.audit import AUDIT_SEED, AuditConfig, NeutralityAuditor

ELEMENTS = ["zerorate-stateful", "zerorate-stateless", "boost", "anylink"]

FAST = AuditConfig(trials=8)


@pytest.mark.parametrize("element", ELEMENTS)
def test_honest_operator_is_never_flagged(element):
    verdict = NeutralityAuditor(FAST).audit(element)
    assert not verdict.flagged, verdict.violations
    assert verdict.violations == []
    assert verdict.persona == "honest"


def test_honest_zero_rating_advertised_dimension_is_significant():
    """The flag stays down because the *advertised* difference is present
    — not because the auditor saw nothing at all."""
    verdict = NeutralityAuditor(FAST).audit("zerorate-stateful")
    accounting = verdict.dimensions["accounting"]
    assert accounting.observed_differs
    assert accounting.direction == 1
    assert accounting.p_value < FAST.alpha
    assert accounting.effect == pytest.approx(1.0)
    # ...and the unadvertised dimensions are quiet.
    assert not verdict.dimensions["performance"].observed_differs
    for name in ("conservation", "replay", "revocation", "exclusivity"):
        assert verdict.dimensions[name].violations == []


@pytest.mark.parametrize("element", ELEMENTS)
def test_verdict_deterministic_under_pinned_seed(element):
    first = NeutralityAuditor(FAST).audit(element)
    second = NeutralityAuditor(FAST).audit(element)
    assert first.to_json() == second.to_json()


def test_verdict_json_shape():
    verdict = NeutralityAuditor(FAST).audit("boost")
    data = json.loads(json.dumps(verdict.to_json()))
    assert set(data) == {
        "element", "persona", "service", "seed", "trials",
        "flagged", "violations", "dimensions",
    }
    assert data["seed"] == AUDIT_SEED
    assert data["trials"] == FAST.trials
    for dim in data["dimensions"].values():
        assert dim["kind"] in {"statistical", "invariant"}
        assert isinstance(dim["ok"], bool)


def test_flow_outcomes_and_verifications_are_recorded():
    verdict = NeutralityAuditor(FAST).audit("zerorate-stateful")
    assert len(verdict.outcomes) == FAST.trials
    probes = set(verdict.outcomes[0])
    assert {"cookied", "bare", "replayed", "revoked"} <= probes
    # Every verification the operator ran was classified against the
    # honest reference oracle.
    assert verdict.verifications
    assert all(r.reference_reason for r in verdict.verifications)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 0},
        {"packets_per_flow": 2},
        {"cookie_mode": "sometimes"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        AuditConfig(**kwargs)


def test_raising_operator_verifier_is_recorded_and_still_raises():
    """Guarantee 3 ("verifier failure => charged, never free") is about
    exactly this event, so the divergence log must hold it — and the box's
    fail-safe must still see the exception."""
    from repro.audit import RecordingVerifier
    from repro.core import (
        CookieDescriptor, CookieGenerator, CookieMatcher, DescriptorStore,
    )
    from repro.core.transport import default_registry
    from repro.netsim.middlebox import Sink
    from repro.netsim.packet import make_tcp_packet
    from repro.services.zerorate import ZeroRatingMiddlebox

    class BrokenVerifier:
        def match(self, cookie, now):
            raise RuntimeError("HSM unreachable")

    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    recorder = RecordingVerifier(BrokenVerifier(), CookieMatcher(store), {})
    box = ZeroRatingMiddlebox(recorder, clock=lambda: 0.0)
    sink = Sink()
    box >> sink
    packet = make_tcp_packet("10.0.0.1", 5000, "2.2.2.2", 443, payload_size=100)
    cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
    default_registry().attach(packet, cookie)
    box.handle(packet)

    assert box.verifier_failures == 1
    counters = box.counters_for("10.0.0.1")
    assert (counters.free_bytes, counters.charged_bytes) == (0, packet.wire_length)
    assert len(sink.packets) == 1
    [record] = recorder.records
    assert record.reference_reason == "accepted"
    assert not record.operator_accepted
