"""Stable per-trial seed derivation for campaign-style experiments.

The chaos soak, the neutrality audit, and the scenario-lab sweeps all fan
one *campaign seed* out into many per-trial / per-cell seeds.  Ad-hoc
schemes (``seed + i``, ``seed ^ 0x5A``) are fragile: adjacent campaigns
collide (``seed=1, trial=2`` vs ``seed=2, trial=1``), and nothing ties a
derived stream to a human-readable purpose.

:func:`derive_seed` replaces them with one canonical construction: a
SHA-256 over the campaign seed plus a sequence of labels, length-prefixed
so distinct label tuples can never produce the same preimage
(``("ab",)`` vs ``("a", "b")``).  Properties the test suite pins:

- **stability** — the mapping is pure and process-independent (no
  ``hash()`` randomization, no platform dependence), so a campaign seed
  printed in a report replays bit-identically anywhere;
- **collision-freedom by construction** — different label tuples feed
  different byte strings into the hash;
- **independence** — distinct labels yield seeds with no usable
  correlation, so per-trial :class:`random.Random` streams do not shadow
  each other the way ``seed + i`` streams can.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed", "extend_seed", "seed_prefix"]

#: Derived seeds are 63-bit so they stay positive in a signed 64-bit slot
#: (JSON round-trips, struct ``!q`` packing, SQLite INTEGER columns).
_SEED_BITS = 63


def _absorb(hasher: "hashlib._Hash", labels: tuple[object, ...]) -> None:
    """Feed ``labels`` into ``hasher``, each rendered with ``str()`` and
    length-prefixed — the one place the preimage encoding is written."""
    for label in labels:
        rendered = str(label).encode("utf-8")
        hasher.update(len(rendered).to_bytes(4, "big") + rendered)


def _finish(hasher: "hashlib._Hash") -> int:
    return int.from_bytes(hasher.digest()[:8], "big") >> (64 - _SEED_BITS)


def seed_prefix(campaign_seed: int, *labels: object) -> "hashlib._Hash":
    """The hash state after ``campaign_seed`` and the leading ``labels``.

    For a consumer that derives many seeds differing only in their last
    labels (a journal's record ids differ only in the offset): absorb the
    shared part once, then :func:`extend_seed` per seed.  The state is
    never finished itself, only copied.
    """
    hasher = hashlib.sha256(b"repro.derive_seed/v1")
    _absorb(hasher, (int(campaign_seed),) + labels)
    return hasher


def extend_seed(prefix: "hashlib._Hash", *labels: object) -> int:
    """Finish a copy of ``prefix`` with the trailing ``labels``:
    ``extend_seed(seed_prefix(s, *a), *b) == derive_seed(s, *a, *b)``."""
    hasher = prefix.copy()
    _absorb(hasher, labels)
    return _finish(hasher)


def derive_seed(campaign_seed: int, *labels: object) -> int:
    """Derive a stable sub-seed from ``campaign_seed`` and ``labels``.

    ``labels`` name the consumer (e.g. ``("chaos", "retry", home_index)``);
    each is rendered with ``str()`` and length-prefixed, so the encoding is
    injective over label tuples and any label type with a stable ``str``
    form (str, int, bool) is safe.  Floats are accepted but discouraged —
    their ``str`` form is stable in Python 3 yet easy to perturb upstream.

    Returns an integer in ``[0, 2**63)``.
    """
    return _finish(seed_prefix(campaign_seed, *labels))
