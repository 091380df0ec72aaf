"""An adversarial cookie stream for the verifier-pool suites.

Replayed uuids, timestamps straddling the 5 s NCT boundary, unknown
descriptor ids, forged signatures, revoked and expired descriptors, all
mixed — and every cookie in one of its *births* (:data:`BIRTHS`): built
from its fields, or parsed off a binary or a text carrier.
"""

import math

import hypothesis.strategies as st

from repro.core.attributes import CookieAttributes
from repro.core.cookie import SIGNATURE_BYTES, UUID_BYTES, Cookie, sign_cookie_fields
from repro.core.descriptor import CookieDescriptor
from repro.core.matcher import NETWORK_COHERENCY_TIME
from repro.core.store import DescriptorStore

NOW = 1_000.0
NCT = NETWORK_COHERENCY_TIME
N_ACTIVE = 4

#: Failure-mode mix the batch strategy draws from.  Small uuid-tag ranges
#: make within-batch replays common rather than rare.
KINDS = ("valid", "valid", "bad_sig", "stale", "unknown", "revoked", "expired")

#: How a cookie came to be.  It holds the same 48 bytes either way and
#: the verifier judges those, so a birth cannot change a verdict.
BIRTHS = ("constructed", "from_bytes", "from_text")


class _Env:
    """One descriptor store with usable, revoked, and expired entries."""

    def __init__(self):
        self.store = DescriptorStore()
        self.active = [
            self.store.add(CookieDescriptor.create(service_data=f"svc-{i}"))
            for i in range(N_ACTIVE)
        ]
        self.revoked = self.store.add(
            CookieDescriptor.create(service_data="revoked")
        )
        self.revoked.revoke()
        self.expired = self.store.add(
            CookieDescriptor.create(
                service_data="expired",
                attributes=CookieAttributes(expires_at=NOW - 60.0),
            )
        )

    def unknown_id(self, seed: int) -> int:
        cookie_id = 1 + seed
        while self.store.get(cookie_id) is not None:
            cookie_id += 1
        return cookie_id


def _uuid(tag: int) -> bytes:
    return tag.to_bytes(UUID_BYTES, "big")


def _signed(descriptor, uuid: bytes, timestamp: float) -> Cookie:
    return Cookie(
        cookie_id=descriptor.cookie_id,
        uuid=uuid,
        timestamp=timestamp,
        signature=sign_cookie_fields(
            descriptor.key, descriptor.cookie_id, uuid, timestamp
        ),
    )


def _born(cookie: Cookie, birth: str) -> Cookie:
    """``cookie`` (freshly constructed) as the given birth delivers it."""
    if birth == "from_bytes":
        return Cookie.from_bytes(cookie.to_bytes())
    if birth == "from_text":
        return Cookie.from_text(cookie.to_text())
    return cookie


def _materialize(env: _Env, specs) -> list[Cookie]:
    cookies = []
    for kind, desc_index, tag, offset, skew, birth in specs:
        uuid = _uuid(tag)
        if kind == "unknown":
            cookies.append(
                _born(
                    Cookie(
                        cookie_id=env.unknown_id(tag),
                        uuid=uuid,
                        timestamp=NOW,
                        signature=b"\x00" * SIGNATURE_BYTES,
                    ),
                    birth,
                )
            )
            continue
        if kind == "revoked":
            descriptor = env.revoked
        elif kind == "expired":
            descriptor = env.expired
        else:
            descriptor = env.active[desc_index]
        timestamp = NOW + offset
        if kind == "stale":
            timestamp = NOW + math.copysign(NCT + skew, offset)
        cookie = _signed(descriptor, uuid, timestamp)
        if kind == "bad_sig":
            flipped = bytes([cookie.signature[0] ^ 0xFF])
            cookie = Cookie(
                cookie_id=cookie.cookie_id,
                uuid=uuid,
                timestamp=timestamp,
                signature=flipped + cookie.signature[1:],
            )
        cookies.append(_born(cookie, birth))
    return cookies


@st.composite
def batch_specs(draw, max_size=32):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.integers(0, N_ACTIVE - 1),
                st.integers(0, 11),
                st.floats(-4.5, 4.5, allow_nan=False),
                st.floats(0.001, 30.0, allow_nan=False),
                st.sampled_from(BIRTHS),
            ),
            max_size=max_size,
        )
    )


def _cache_state(cache):
    """Full observable state of a replay cache."""
    return (
        set(cache._current),
        set(cache._previous),
        cache.generation,
        cache.floor,
        cache.rotations,
    )
