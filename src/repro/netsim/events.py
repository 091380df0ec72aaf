"""A small discrete-event simulation kernel.

Everything time-dependent in the substrate (link serialization, queue
drains, TCP timers, periodic capacity probes) is driven by one
:class:`EventLoop`.  Events are ``(time, seq)``-ordered entries on a heap;
``seq`` breaks ties deterministically in insertion order so simulations are
reproducible.

The kernel is a hot path: a single link-lab sweep runs hundreds of
simulations, each firing hundreds of thousands of events.  Three
optimisations keep it fast without changing semantics:

- :class:`ScheduledEvent` is a ``__slots__`` class with a hand-written
  ``__lt__`` (no dataclass tuple comparisons, no per-instance ``__dict__``).
- Cancelled events are removed *lazily*: :meth:`ScheduledEvent.cancel` only
  marks the entry, and the loop discards tombstones as they surface.  When
  tombstones dominate the heap (TCP re-arms its RTO on every ACK, cancelling
  the previous timer each time) the loop compacts the heap in one
  ``heapify`` pass so memory stays bounded by *live* timers.
- :meth:`EventLoop.schedule_periodic` drives recurring work (link ticks,
  CBR sources, capacity probes) by re-arming a single reusable event object
  instead of allocating a fresh closure + event per occurrence.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

__all__ = ["EventLoop", "ScheduledEvent", "PeriodicEvent", "SimulationError"]


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


class PeriodicEvent:
    """A recurring callback created by :meth:`EventLoop.schedule_periodic`.

    One :class:`ScheduledEvent` object is re-armed for every occurrence, so
    steady-state periodic work allocates nothing per tick.  ``callback`` may
    call :meth:`stop` to end the series (the current firing completes);
    re-arming happens *after* the callback returns, matching the
    schedule-at-end-of-tick pattern the substrate used before this
    primitive existed.
    """

    __slots__ = ("loop", "interval", "callback", "_event", "_stopped")

    def __init__(
        self, loop: "EventLoop", interval: float, callback: Callable[[], Any]
    ) -> None:
        if interval <= 0:
            raise SimulationError("periodic interval must be positive")
        self.loop = loop
        self.interval = interval
        self.callback = callback
        self._stopped = False
        self._event = loop.schedule(interval, self._fire)

    def stop(self) -> None:
        """End the series; a pending occurrence is cancelled."""
        if self._stopped:
            return
        self._stopped = True
        self._event.cancel()

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            # Reuse the just-fired event object: the loop has already
            # popped it, so mutating time/seq and re-pushing is safe.
            self._event = self.loop._rearm(self._event, self.interval)


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

    def schedule_periodic(
        self, interval: float, callback: Callable[[], Any]
    ) -> PeriodicEvent:
        """Run ``callback`` every ``interval`` seconds until stopped.

        The first occurrence fires ``interval`` seconds from now.  Returns
        a :class:`PeriodicEvent` handle; the underlying heap entry is
        recycled between occurrences, so a long-lived periodic process
        costs no per-tick allocation.
        """
        return PeriodicEvent(self, interval, callback)

    def _rearm(self, event: ScheduledEvent, delay: float) -> ScheduledEvent:
        """Re-push a popped event ``delay`` seconds from now (kernel use).

        Only safe for events that are no longer on the heap (just fired,
        or cancelled and already discarded); :class:`PeriodicEvent` is the
        intended caller.
        """
        seq = self._seq
        self._seq = seq + 1
        event.time = self._now + delay
        event.seq = seq
        event.cancelled = False
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
