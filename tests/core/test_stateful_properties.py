"""Stateful property tests: implementations against abstract models.

Two hypothesis state machines:

- :class:`ReplayCacheMachine` checks the cache's contract — a uuid seen
  within one coherency window MUST be remembered; one older than two
  windows MUST be forgotten; in between either is acceptable (the
  timestamp check makes it irrelevant); and it holds no uuid inserted two
  windows or more before its last call.
- :class:`StoreParityMachine` drives the in-memory and SQLite descriptor
  stores with identical operations and demands identical observable
  state.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.attributes import CookieAttributes
from repro.core.descriptor import CookieDescriptor
from repro.core.matcher import ReplayCache
from repro.core.store import DescriptorStore, SQLiteDescriptorStore

WINDOW = 5.0


class ReplayCacheMachine(RuleBasedStateMachine):
    """Drives the cache with monotonically advancing time."""

    def __init__(self):
        super().__init__()
        self.cache = ReplayCache(window=WINDOW)
        self.now = self.last_call = 0.0
        self.recorded: dict[bytes, float] = {}
        self.inserts: list[tuple[float, bytes]] = []

    @rule(advance=st.floats(0.0, 12.0))
    def pass_time(self, advance):
        self.now += advance

    @rule(tag=st.integers(0, 30))
    def check_and_record(self, tag):
        uuid = tag.to_bytes(16, "big")
        replay = self.cache.check_and_record(uuid, self.now)
        self.last_call = self.now
        recorded_at = self.recorded.get(uuid)
        if recorded_at is None:
            assert not replay, "never-recorded uuid reported as a replay"
        else:
            age = self.now - recorded_at
            if age < WINDOW:
                assert replay, f"uuid recorded {age:.2f}s ago (< window) forgotten"
            elif age >= 2 * WINDOW:
                assert not replay, (
                    f"uuid recorded {age:.2f}s ago (>= 2 windows) retained"
                )
            # Between one and two windows: either outcome is contract-legal.
        if not replay:
            self.recorded[uuid] = self.now
            self.inserts.append((self.now, uuid))

    @invariant()
    def memory_is_bounded(self):
        # Two generations of one window each: nothing inserted two or
        # more windows before the last call is still held.
        recent = {
            uuid for time, uuid in self.inserts
            if self.last_call - time < 2 * WINDOW
        }
        assert self.cache.size <= len(recent)


TestReplayCacheContract = ReplayCacheMachine.TestCase


class StoreParityMachine(RuleBasedStateMachine):
    """In-memory and SQLite stores must be observationally identical."""

    descriptors = Bundle("descriptors")

    def __init__(self):
        super().__init__()
        self.memory = DescriptorStore()
        self.sqlite = SQLiteDescriptorStore(":memory:")

    def teardown(self):
        self.sqlite.close()

    @rule(target=descriptors, expiry=st.one_of(st.none(), st.floats(0, 100)))
    def add(self, expiry):
        descriptor = CookieDescriptor.create(
            service_data="svc",
            attributes=CookieAttributes(expires_at=expiry),
        )
        self.memory.add(descriptor)
        self.sqlite.add(descriptor)
        return descriptor

    @rule(descriptor=descriptors)
    def get_parity(self, descriptor):
        a = self.memory.get(descriptor.cookie_id)
        b = self.sqlite.get(descriptor.cookie_id)
        assert (a is None) == (b is None)
        if a is not None and b is not None:
            assert a.key == b.key
            assert a.revoked == b.revoked
            assert a.attributes.expires_at == b.attributes.expires_at

    @rule(descriptor=descriptors)
    def revoke(self, descriptor):
        assert self.memory.revoke(descriptor.cookie_id) == self.sqlite.revoke(
            descriptor.cookie_id
        )

    @rule(descriptor=descriptors)
    def remove(self, descriptor):
        a = self.memory.remove(descriptor.cookie_id)
        b = self.sqlite.remove(descriptor.cookie_id)
        assert (a is None) == (b is None)

    @invariant()
    def same_size(self):
        assert len(self.memory) == len(self.sqlite)


TestStoreParity = StoreParityMachine.TestCase
