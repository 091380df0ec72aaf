"""Differential tests for the event-kernel fast path.

The kernel rewrite (slots, lazy-deletion heap with compaction, periodic
re-arm, memoized header packing) must be *invisible*: every optimisation
is checked against a straightforward reference implementation on random
workloads, and the observable order of callback execution must match
exactly — same times, same tie-breaks, same skips for cancelled events.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.netsim.events import EventLoop, SimulationError
from repro.netsim.headers import (
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    TCPOption,
    UDPHeader,
    _packed_ethernet,
    _packed_ipv4,
    _packed_udp,
)


class ReferenceLoop:
    """The obviously-correct kernel: a sorted list, eager removal."""

    def __init__(self) -> None:
        self._entries: list[tuple[float, int, object]] = []
        self._seq = 0
        self.now = 0.0

    def schedule(self, delay: float, callback):
        entry = [self.now + delay, self._seq, callback, False]
        self._seq += 1
        self._entries.append(entry)
        return entry

    @staticmethod
    def cancel(entry) -> None:
        entry[3] = True

    def run(self, until=None):
        while True:
            live = [e for e in self._entries if not e[3]]
            if not live:
                break
            entry = min(live, key=lambda e: (e[0], e[1]))
            if until is not None and entry[0] > until:
                break
            self._entries.remove(entry)
            self.now = entry[0]
            entry[2]()
        if until is not None and self.now < until:
            self.now = until
        return self.now


# One program = a list of operations interpreted against both kernels:
#   ("schedule", delay_index, tag)
#   ("cancel", handle_index)      -- cancels the i-th scheduled handle
# Delays come from a small positive pool so ties happen often (the
# interesting case for seq-order determinism).
op = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=999),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
)

DELAY_POOL = (0.0, 0.1, 0.1, 0.25, 0.5, 1.0)


def interpret(ops, loop, schedule, cancel, trace, nested_depth=2):
    """Run one program: scheduled callbacks record tags and may schedule
    or cancel further work themselves (the hard case for lazy deletion:
    mutation while the heap is mid-drain)."""
    handles = []

    def make_callback(tag, depth):
        def callback():
            trace.append((round(loop.now, 6), tag))
            if depth > 0 and tag % 3 == 0:
                handles.append(
                    schedule(
                        DELAY_POOL[tag % len(DELAY_POOL)],
                        make_callback(tag + 1000, depth - 1),
                    )
                )
            if depth > 0 and tag % 5 == 0 and handles:
                cancel(handles[tag % len(handles)])

        return callback

    for operation in ops:
        if operation[0] == "schedule":
            _, delay_index, tag = operation
            handles.append(
                schedule(DELAY_POOL[delay_index], make_callback(tag, nested_depth))
            )
        else:
            _, handle_index = operation
            if handles:
                cancel(handles[handle_index % len(handles)])


@given(ops=st.lists(op, max_size=40))
@settings(max_examples=60, deadline=None)
def test_lazy_heap_matches_reference_model(ops):
    fast = EventLoop()
    fast_trace: list = []
    interpret(ops, fast, fast.schedule, lambda h: h.cancel(), fast_trace)
    fast.run_until_idle()

    reference = ReferenceLoop()
    ref_trace: list = []
    interpret(
        ops, reference, reference.schedule, ReferenceLoop.cancel, ref_trace
    )
    reference.run()

    assert fast_trace == ref_trace
    assert abs(fast.now - reference.now) < 1e-9 or not fast_trace


@given(
    ops=st.lists(op, max_size=30),
    until=st.sampled_from([0.0, 0.2, 0.5, 1.5]),
)
@settings(max_examples=40, deadline=None)
def test_bounded_run_matches_reference_model(ops, until):
    fast = EventLoop()
    fast_trace: list = []
    interpret(ops, fast, fast.schedule, lambda h: h.cancel(), fast_trace)
    fast.run(until=until)

    reference = ReferenceLoop()
    ref_trace: list = []
    interpret(
        ops, reference, reference.schedule, ReferenceLoop.cancel, ref_trace
    )
    reference.run(until=until)

    assert fast_trace == ref_trace
    assert abs(fast.now - reference.now) < 1e-9


def test_compaction_fires_and_preserves_live_events():
    loop = EventLoop()
    fired: list[int] = []
    # Live events interleaved among a tombstone avalanche.
    live = [
        loop.schedule(10.0 + i, lambda i=i: fired.append(i))
        for i in range(10)
    ]
    doomed = [loop.schedule(5.0, lambda: fired.append(-1))
              for _ in range(2 * EventLoop.COMPACT_MIN_TOMBSTONES)]
    for event in doomed:
        event.cancel()
    assert loop.compactions >= 1
    # Compaction dropped a tombstone block wholesale (everything
    # cancelled before the pass), without waiting for pops to surface it.
    assert loop.pending < len(live) + len(doomed)
    loop.run_until_idle()
    # ...without touching delivery order or the live set.
    assert fired == list(range(10))
    assert loop.pending == 0


def test_small_heaps_never_compact():
    loop = EventLoop()
    for _ in range(EventLoop.COMPACT_MIN_TOMBSTONES - 1):
        loop.schedule(1.0, lambda: None).cancel()
    assert loop.compactions == 0
    loop.run_until_idle()


def test_double_cancel_counts_once():
    loop = EventLoop()
    event = loop.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert loop._tombstones == 1


def test_schedule_periodic_matches_manual_chain():
    manual_loop = EventLoop()
    manual_ticks: list[float] = []

    def manual_tick():
        manual_ticks.append(manual_loop.now)
        if len(manual_ticks) < 50:
            manual_loop.schedule(0.25, manual_tick)

    manual_loop.schedule(0.25, manual_tick)
    manual_loop.run(until=100.0)

    periodic_loop = EventLoop()
    periodic_ticks: list[float] = []
    timer = periodic_loop.schedule_periodic(
        0.25, lambda: periodic_ticks.append(periodic_loop.now)
    )

    def stop_at_50():
        if len(periodic_ticks) >= 50:
            timer.stop()

    checker = periodic_loop.schedule_periodic(0.25, stop_at_50)
    periodic_loop.run(until=100.0)
    checker.stop()

    assert periodic_ticks == manual_ticks


def test_periodic_stop_from_inside_callback():
    loop = EventLoop()
    ticks: list[float] = []
    holder: dict = {}

    def tick():
        ticks.append(loop.now)
        if len(ticks) == 3:
            holder["timer"].stop()

    holder["timer"] = loop.schedule_periodic(1.0, tick)
    loop.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_periodic_reuses_one_event_object():
    loop = EventLoop()
    timer = loop.schedule_periodic(0.5, lambda: None)
    first = timer._event
    loop.run(until=5.0)
    assert timer._event is first  # re-armed, never reallocated


def test_periodic_interval_validation():
    loop = EventLoop()
    try:
        loop.schedule_periodic(0.0, lambda: None)
    except SimulationError:
        pass
    else:  # pragma: no cover
        raise AssertionError("zero interval must be rejected")


# ----------------------------------------------------------------------
# Memoized header serialization
# ----------------------------------------------------------------------
def test_packed_headers_bitwise_equal_uncached():
    """The lru_cache layer must return exactly what a cold pack returns."""
    cases = [
        (
            _packed_ethernet,
            EthernetHeader(dst_mac="aa:bb:cc:dd:ee:ff",
                           src_mac="11:22:33:44:55:66"),
        ),
        (
            _packed_ipv4,
            IPv4Header(src="10.0.0.1", dst="192.168.1.9", proto=6,
                       total_length=1440),
        ),
        (_packed_udp, UDPHeader(src_port=53, dst_port=4444, length=80)),
    ]
    for memo, header in cases:
        memo.cache_clear()
        cold = header.pack()
        warm = header.pack()
        assert cold == warm
        assert memo.cache_info().hits >= 1
        assert memo.__wrapped__(*_memo_args(memo, header)) == cold


def _memo_args(memo, header):
    if memo is _packed_ethernet:
        return (header.dst_mac, header.src_mac, header.ethertype)
    if memo is _packed_ipv4:
        return (header.src, header.dst, header.proto, header.ttl,
                header.tos, header.total_length, header.ident)
    return (header.src_port, header.dst_port, header.length)


def test_distinct_headers_do_not_share_cache_entries():
    a = UDPHeader(src_port=1, dst_port=2, length=8)
    b = UDPHeader(src_port=2, dst_port=1, length=8)
    assert a.pack() != b.pack()


def test_tcp_wire_length_fast_path_matches_option_math():
    bare = TCPHeader(src_port=443, dst_port=50_000)
    assert bare.wire_length == TCPHeader.BASE_WIRE_LENGTH
    option = TCPOption(kind=253, data=b"x" * 48)
    header = TCPHeader(src_port=443, dst_port=50_000, options=[option])
    padded = ((option.wire_length + 3) // 4) * 4
    assert header.wire_length == TCPHeader.BASE_WIRE_LENGTH + padded
    # Option serialization itself goes through the memo layer.
    assert option.pack() == option.pack()
    assert len(option.pack()) == option.wire_length
