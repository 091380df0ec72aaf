"""A small discrete-event simulation kernel.

Everything time-dependent in the substrate (link serialization, queue
drains, TCP timers, periodic capacity probes) is driven by one
:class:`EventLoop`.  Events are ``(time, seq)``-ordered entries on a heap;
``seq`` breaks ties deterministically in insertion order so simulations are
reproducible.

The kernel is a hot path: a single link-lab sweep runs hundreds of
simulations, each firing hundreds of thousands of events.  Two
optimisations keep it fast without changing semantics:

- :class:`ScheduledEvent` is a ``__slots__`` class with a hand-written
  ``__lt__`` (no dataclass tuple comparisons, no per-instance ``__dict__``).
- Cancelled events are removed *lazily*: :meth:`ScheduledEvent.cancel` only
  marks the entry, and the loop discards tombstones as they surface.  When
  tombstones dominate the heap (TCP re-arms its RTO on every ACK, cancelling
  the previous timer each time) the loop compacts the heap in one
  ``heapify`` pass so memory stays bounded by *live* timers.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

__all__ = ["EventLoop", "ScheduledEvent", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation kernel (e.g. scheduling in the past)."""


class ScheduledEvent:
    """A pending callback; ordering is (time, seq)."""

    __slots__ = ("time", "seq", "callback", "cancelled", "_loop")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        loop: "EventLoop | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._loop = loop

    def __lt__(self, other: "ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so the loop skips it when it comes due.

        The entry stays on the heap as a tombstone; the loop discards it
        when it surfaces, or earlier if a compaction pass runs.
        """
        if not self.cancelled:
            self.cancelled = True
            loop = self._loop
            if loop is not None:
                loop._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<ScheduledEvent t={self.time} seq={self.seq}{state}>"


class EventLoop:
    """Deterministic discrete-event loop with virtual time in seconds."""

    #: Compaction triggers only beyond this many tombstones (small heaps
    #: are cheap to carry) and only when tombstones outnumber live events.
    COMPACT_MIN_TOMBSTONES = 256

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._seq = 0
        self._now = 0.0
        self._tombstones = 0
        self.events_processed = 0
        self.compactions = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], Any]) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(self._now + delay, seq, callback, self)
        heappush(self._heap, event)
        return event

    def schedule_at(self, when: float, callback: Callable[[], Any]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(when, seq, callback, self)
        heappush(self._heap, event)
        return event

    def _note_cancelled(self) -> None:
        self._tombstones += 1
        heap = self._heap
        if (
            self._tombstones >= self.COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify the survivors."""
        self._heap = [event for event in self._heap if not event.cancelled]
        heapify(self._heap)
        self._tombstones = 0
        self.compactions += 1

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Run events in time order.

        Stops when the queue empties, when the next event is past ``until``,
        or after ``max_events`` (a runaway guard).  Returns the final virtual
        time.  When stopped by ``until``, time is advanced exactly to
        ``until`` so periodic processes observe a consistent clock.
        """
        processed = 0
        heap = self._heap
        while heap:
            event = heap[0]
            if until is not None and event.time > until:
                break
            if heap is not self._heap:
                # A callback triggered compaction; rebind the local.
                heap = self._heap
                continue
            heappop(heap)
            if event.cancelled:
                self._tombstones -= 1
                continue
            if processed >= max_events:
                heappush(heap, event)
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a scheduling loop"
                )
            self._now = event.time
            event.callback()
            processed += 1
            if heap is not self._heap:
                heap = self._heap
        self.events_processed += processed
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain."""
        return self.run(until=None, max_events=max_events)

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._heap)
