"""Properties of the shared seed-derivation helper.

``derive_seed`` is the root of every campaign's determinism story — the
chaos soak, the audit, and the grid sweep all derive their per-trial
streams from it — so its mapping is pinned here byte-for-byte: a change
to the construction would silently invalidate every recorded report.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.seeding import derive_seed, extend_seed, seed_prefix

label = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.booleans(),
)


# Pinned values: if these move, every checked-in campaign report with a
# recorded seed silently stops replaying.  Regenerate ONLY with a
# deliberate construction change, and say so in the changelog.
PINNED = {
    (0, ()): 3091872937143141306,
    (0, ("sweep",)): 6503708035264366334,
    (20160822, ("chaos", "homes")): 3376813460183348728,
    (20160822, ("audit", "zerorate")): 8722717984789229007,
    (20160822, ("sweep", "linklab", 6.0, 0.035, 0.005)):
        6257886294338801546,
    (1, ("a", "b")): 8355391671721957134,
    (42, (7,)): 6165416527519680293,
}


def test_pinned_values_are_stable():
    for (campaign, labels), expected in PINNED.items():
        assert derive_seed(campaign, *labels) == expected


def test_range_is_63_bit():
    for seed in (0, 1, -5, 2**70, 20160822):
        value = derive_seed(seed, "x")
        assert 0 <= value < 2**63


@given(campaign=st.integers(), labels=st.lists(label, max_size=4))
@settings(max_examples=200, deadline=None)
def test_deterministic(campaign, labels):
    assert derive_seed(campaign, *labels) == derive_seed(campaign, *labels)


@given(campaign=st.integers(min_value=0, max_value=2**32), a=label, b=label)
@settings(max_examples=200, deadline=None)
def test_order_sensitive(campaign, a, b):
    if str(a) == str(b):
        return
    assert derive_seed(campaign, a, b) != derive_seed(campaign, b, a)


def test_length_prefix_prevents_concatenation_collisions():
    # The classic failure of naive concatenation hashing.
    assert derive_seed(0, "ab") != derive_seed(0, "a", "b")
    assert derive_seed(0, "a", "bc") != derive_seed(0, "ab", "c")
    assert derive_seed(12, "3") != derive_seed(1, "23")


@given(
    campaign=st.integers(),
    labels=st.lists(label, max_size=5),
    split=st.integers(0, 5),
)
@settings(max_examples=200, deadline=None)
def test_prefix_then_extend_is_derive_seed(campaign, labels, split):
    """Wherever the label tuple is cut, absorbing the head once and
    finishing copies with the tail is ``derive_seed`` bit for bit — and
    the prefix state is reusable (finishing a copy leaves it alone)."""
    head, tail = labels[:split], labels[split:]
    prefix = seed_prefix(campaign, *head)
    expected = derive_seed(campaign, *labels)
    assert extend_seed(prefix, *tail) == expected
    assert extend_seed(prefix, *tail) == expected


def test_prefix_keeps_the_length_prefixes():
    assert extend_seed(seed_prefix(0, "ab")) != extend_seed(seed_prefix(0, "a"), "b")
    assert extend_seed(seed_prefix(0, "a"), "b") == derive_seed(0, "a", "b")
    assert extend_seed(seed_prefix(0), "ab") == derive_seed(0, "ab")
    for (campaign, labels), expected in PINNED.items():
        assert extend_seed(seed_prefix(campaign, *labels[:1]), *labels[1:]) == expected


def test_adjacent_campaigns_do_not_collide():
    # The ad-hoc schemes this helper replaced DID collide here.
    assert derive_seed(1, 2) != derive_seed(2, 1)
    seen = set()
    for campaign in range(50):
        for trial in range(50):
            seen.add(derive_seed(campaign, "trial", trial))
    assert len(seen) == 2500


@given(
    campaign=st.integers(min_value=0, max_value=2**20),
    labels=st.lists(label, min_size=1, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_streams_are_usable_random_seeds(campaign, labels):
    # Derived seeds must feed random.Random without truncation surprises.
    rng = random.Random(derive_seed(campaign, *labels))
    values = [rng.random() for _ in range(3)]
    rng2 = random.Random(derive_seed(campaign, *labels))
    assert values == [rng2.random() for _ in range(3)]


def test_campaign_seed_coerced_to_int():
    assert derive_seed(True, "x") == derive_seed(1, "x")
    with pytest.raises((TypeError, ValueError)):
        derive_seed("not-an-int", "x")  # type: ignore[arg-type]
