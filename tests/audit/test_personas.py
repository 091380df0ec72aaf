"""Every malicious-operator persona must trip the auditor on each of its
target elements — and on the dimension its cheat actually moves."""

import pytest

from repro.audit import PERSONAS, AuditConfig, NeutralityAuditor, persona_catalog

FAST = AuditConfig(trials=8)

# persona -> {element: dimensions that must be flagged}
EXPECTED = {
    "non-cookie-throttler": {
        # Dropping non-free packets breaks bill==delivered everywhere; on
        # the stateful path the cookied flow escapes the throttle whole,
        # so the paired FCT test fires too.
        "zerorate-stateful": {"conservation", "performance"},
        "zerorate-stateless": {"conservation"},
    },
    "free-byte-inflater": {
        "zerorate-stateful": {"conservation"},
        "zerorate-stateless": {"conservation"},
    },
    "boost-under-deliverer": {
        "boost": {"delivery"},
    },
    "replay-honorer": {
        "zerorate-stateful": {"replay"},
        "zerorate-stateless": {"replay"},
    },
    "descriptor-colluder": {
        # The colluder's stapled cookies ride bytes free on bare flows
        # (exclusivity) and collapse the advertised cookied-vs-bare
        # accounting gap; the extra cookie bytes are visible on the wire.
        "zerorate-stateful": {"accounting", "exclusivity"},
        "zerorate-stateless": {"accounting", "exclusivity"},
    },
    "revocation-ignorer": {
        "zerorate-stateful": {"revocation"},
        "zerorate-stateless": {"revocation"},
    },
}


def test_expected_matrix_covers_every_persona():
    assert set(EXPECTED) == set(PERSONAS)


CASES = [
    (persona, element)
    for persona, elements in sorted(EXPECTED.items())
    for element in sorted(elements)
]


@pytest.mark.parametrize("persona_name,element", CASES)
def test_persona_is_flagged_on_expected_dimensions(persona_name, element):
    persona = PERSONAS[persona_name]()
    verdict = NeutralityAuditor(FAST).audit(element, persona)
    assert verdict.flagged
    assert verdict.persona == persona_name
    flagged = {name for name, dim in verdict.dimensions.items() if not dim.ok}
    missing = EXPECTED[persona_name][element] - flagged
    assert not missing, f"expected {missing} flagged, got {flagged}"
    assert verdict.violations


def test_persona_targets_match_expected_matrix():
    for name, cls in PERSONAS.items():
        targets = set(cls().targets)
        audited = set(EXPECTED[name])
        assert all(
            any(element == t or element.startswith(t + "-") for t in targets)
            for element in audited
        ), (name, targets, audited)


def test_persona_catalog_is_complete_and_serializable():
    catalog = persona_catalog()
    names = [entry["name"] for entry in catalog]
    assert sorted(names) == sorted(PERSONAS)
    for entry in catalog:
        assert entry["targets"]
        assert entry["description"]
