"""Differential satellite: the stateful flow-table middlebox and the
stateless per-packet rater must earn *identical* auditor verdicts on the
same seeded flow set — the paper's §4.6 claim that statelessness trades
bandwidth, not policy."""

import pytest

from repro.audit import PERSONAS, AuditConfig, NeutralityAuditor

# every-packet mode removes the one legitimate asymmetry (the stateful
# box zero-rates a whole flow off packet 0; the stateless box only what
# it can verify per packet), so the two paths become observably equal.
EVERY = AuditConfig(trials=8, cookie_mode="every-packet")


def _dimension_signature(verdict):
    return {
        name: (
            dim.ok,
            dim.observed_differs,
            dim.direction,
            tuple(dim.violations),
        )
        for name, dim in verdict.dimensions.items()
    }


def _pair(persona_name=None):
    def build():
        return PERSONAS[persona_name]() if persona_name else None

    auditor = NeutralityAuditor(EVERY)
    stateful = auditor.audit("zerorate-stateful", build())
    stateless = auditor.audit("zerorate-stateless", build())
    return stateful, stateless


def test_honest_paths_agree_dimension_for_dimension():
    stateful, stateless = _pair()
    assert not stateful.flagged and not stateless.flagged
    assert _dimension_signature(stateful) == _dimension_signature(stateless)


def test_honest_paths_agree_on_per_flow_billing():
    stateful, stateless = _pair()
    for trial_sf, trial_sl in zip(stateful.outcomes, stateless.outcomes):
        assert set(trial_sf) == set(trial_sl)
        for probe in trial_sf:
            a, b = trial_sf[probe], trial_sl[probe]
            assert (a.billed_free, a.billed_charged) == (
                b.billed_free,
                b.billed_charged,
            ), probe


@pytest.mark.parametrize(
    "persona_name",
    ["replay-honorer", "revocation-ignorer", "free-byte-inflater"],
)
def test_cheating_paths_agree_on_what_gets_flagged(persona_name):
    stateful, stateless = _pair(persona_name)
    assert stateful.flagged and stateless.flagged
    flagged_sf = {n for n, d in stateful.dimensions.items() if not d.ok}
    flagged_sl = {n for n, d in stateless.dimensions.items() if not d.ok}
    assert flagged_sf == flagged_sl
