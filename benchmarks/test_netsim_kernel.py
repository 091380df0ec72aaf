"""Netsim kernel micros: events/s and packets/s vs the pre-PR kernel.

The fast-path work (``__slots__`` events, lazy-deletion heap,
closure-free link transmission) claims a
real constant-factor win on the kernel hot loop.  Rather than pinning
absolute numbers — which would tie the suite to one machine — this
benchmark embeds a faithful copy of the *pre-PR* kernel and link
(dataclass events, ``itertools.count`` seq, per-packet lambda closures)
and races the two implementations on identical workloads in the same
process.  The speedup floors are asserted; both raw throughputs and the
ratios land in ``benchmarks/reports/netsim_kernel.json``.

Floors (ratios, machine-independent):

- events/s (timer-churn micro): >= 1.3x
- packets/s (saturated-link micro): >= 1.0x (no regression)
"""

from __future__ import annotations

import heapq
import itertools
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.netsim.events import EventLoop
from repro.netsim.links import Link
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"

EVENTS_MICRO_TOTAL = 150_000
EVENTS_MICRO_TIMERS = 256
PACKETS_MICRO_COUNT = 30_000
REPEATS = 3

EVENTS_SPEEDUP_FLOOR = 1.3
PACKETS_SPEEDUP_FLOOR = 1.0


# ----------------------------------------------------------------------
# The pre-PR kernel, verbatim semantics (see git history of events.py):
# dataclass(order=True) events, itertools.count sequence, no tombstone
# accounting, no compaction, no periodic primitive.
# ----------------------------------------------------------------------
@dataclass(order=True)
class LegacyScheduledEvent:
    time: float
    seq: int
    callback: Callable[[], Any] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class LegacyEventLoop:
    def __init__(self) -> None:
        self._heap: list[LegacyScheduledEvent] = []
        self._seq = itertools.count()
        self._now = 0.0
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback) -> LegacyScheduledEvent:
        event = LegacyScheduledEvent(
            time=self._now + delay, seq=next(self._seq), callback=callback
        )
        heapq.heappush(self._heap, event)
        return event

    def run_until_idle(self) -> float:
        processed = 0
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            processed += 1
        self.events_processed += processed
        return self._now


class LegacyLink:
    """The pre-PR transmission path: a fresh lambda per packet for both
    the serialization completion and the propagation delivery."""

    def __init__(self, loop, rate_bps: float, delay: float, sink) -> None:
        self.loop = loop
        self.rate_bps = rate_bps
        self.delay = delay
        self.sink = sink
        self._queue: list = []
        self._busy = False
        self.transmitted_packets = 0

    def push(self, packet) -> None:
        self._queue.append(packet)
        if not self._busy:
            self._start_transmission()

    def _start_transmission(self) -> None:
        if not self._queue:
            self._busy = False
            return
        packet = self._queue.pop(0)
        self._busy = True
        serialization = packet.wire_length * 8.0 / self.rate_bps
        self.loop.schedule(serialization, lambda p=packet: self._finish(p))

    def _finish(self, packet) -> None:
        self.transmitted_packets += 1
        if self.delay > 0:
            self.loop.schedule(
                self.delay, lambda p=packet: self.sink.push(p)
            )
        else:
            self.sink.push(packet)
        self._start_transmission()


# ----------------------------------------------------------------------
# Workloads — identical logical processes on either kernel.
# ----------------------------------------------------------------------
def _timer_churn(loop, total_events: int) -> int:
    """The RTO pattern: a population of timers where every firing arms a
    replacement and cancels a pending neighbour — the tombstone-heavy
    workload the lazy-deletion heap exists for."""
    state = {"fired": 0}
    timers: list = [None] * EVENTS_MICRO_TIMERS

    def make_tick(slot: int):
        def tick():
            state["fired"] += 1
            if state["fired"] >= total_events:
                return
            delay = 0.1 + (slot * 7 % 13) * 0.01
            timers[slot] = loop.schedule(delay, make_tick(slot))
            victim = (slot * 31 + state["fired"]) % EVENTS_MICRO_TIMERS
            event = timers[victim]
            if victim != slot and event is not None and not event.cancelled:
                event.cancel()
                timers[victim] = loop.schedule(
                    delay + 0.05, make_tick(victim)
                )

        return tick

    for slot in range(EVENTS_MICRO_TIMERS):
        timers[slot] = loop.schedule(
            0.01 + slot * 0.001, make_tick(slot)
        )
    loop.run_until_idle()
    return state["fired"]


def _events_micro_legacy() -> float:
    loop = LegacyEventLoop()
    start = time.perf_counter()
    fired = _timer_churn(loop, EVENTS_MICRO_TOTAL)
    elapsed = time.perf_counter() - start
    assert fired >= EVENTS_MICRO_TOTAL
    return loop.events_processed / elapsed


def _events_micro_current() -> float:
    loop = EventLoop()
    start = time.perf_counter()
    fired = _timer_churn(loop, EVENTS_MICRO_TOTAL)
    elapsed = time.perf_counter() - start
    assert fired >= EVENTS_MICRO_TOTAL
    return loop.events_processed / elapsed


def _packet_stream(n: int):
    packet = make_tcp_packet(
        "203.0.113.5", 443, "192.168.1.50", 50_000, payload_size=1200
    )
    return [packet.clone() for _ in range(n)]


def _packets_micro_legacy() -> float:
    loop = LegacyEventLoop()
    sink = Sink(keep=False)
    link = LegacyLink(loop, rate_bps=1e9, delay=0.002, sink=sink)
    packets = _packet_stream(PACKETS_MICRO_COUNT)
    # Pre-PR source idiom: one closure per injection.
    for i, packet in enumerate(packets):
        loop.schedule(i * 1e-5, lambda p=packet: link.push(p))
    start = time.perf_counter()
    loop.run_until_idle()
    elapsed = time.perf_counter() - start
    assert link.transmitted_packets == PACKETS_MICRO_COUNT
    return PACKETS_MICRO_COUNT / elapsed


def _packets_micro_current() -> float:
    loop = EventLoop()
    sink = Sink(keep=False)
    link = Link(loop, rate_bps=1e9, delay=0.002)
    link >> sink
    packets = _packet_stream(PACKETS_MICRO_COUNT)
    for i, packet in enumerate(packets):
        loop.schedule(i * 1e-5, lambda p=packet: link.push(p))
    start = time.perf_counter()
    loop.run_until_idle()
    elapsed = time.perf_counter() - start
    assert link.transmitted_packets == PACKETS_MICRO_COUNT
    return PACKETS_MICRO_COUNT / elapsed


def _best_of(fn, repeats: int = REPEATS) -> float:
    return max(fn() for _ in range(repeats))


def test_kernel_micros_beat_pre_pr_baseline(report):
    legacy_eps = _best_of(_events_micro_legacy)
    current_eps = _best_of(_events_micro_current)
    legacy_pps = _best_of(_packets_micro_legacy)
    current_pps = _best_of(_packets_micro_current)

    events_speedup = current_eps / legacy_eps
    packets_speedup = current_pps / legacy_pps

    payload = {
        "events_micro": {
            "workload": (
                f"timer churn, {EVENTS_MICRO_TIMERS} live timers, "
                f"{EVENTS_MICRO_TOTAL} firings, cancel+re-arm per firing"
            ),
            "legacy_events_per_s": round(legacy_eps),
            "current_events_per_s": round(current_eps),
            "speedup": round(events_speedup, 3),
            "floor": EVENTS_SPEEDUP_FLOOR,
        },
        "packets_micro": {
            "workload": (
                f"{PACKETS_MICRO_COUNT} packets, saturated 1 Gb/s link, "
                "2 ms propagation"
            ),
            "legacy_packets_per_s": round(legacy_pps),
            "current_packets_per_s": round(current_pps),
            "speedup": round(packets_speedup, 3),
            "floor": PACKETS_SPEEDUP_FLOOR,
        },
        "repeats": REPEATS,
        "method": "best-of-N in-process race vs embedded pre-PR kernel",
    }
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / "netsim_kernel.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    report("netsim kernel micros — current vs embedded pre-PR baseline")
    for name, micro in (("events", payload["events_micro"]),
                        ("packets", payload["packets_micro"])):
        report(f"  {name}: {micro['speedup']}x "
               f"(floor {micro['floor']}x) — {micro['workload']}")

    assert events_speedup >= EVENTS_SPEEDUP_FLOOR, payload["events_micro"]
    assert packets_speedup >= PACKETS_SPEEDUP_FLOOR, payload["packets_micro"]
