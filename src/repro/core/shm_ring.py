"""Shared-memory ring buffers for the multi-process data plane.

A batch frame sent down a pipe pays, per dispatch, two syscalls
(``write``/``read``) and two kernel copies per direction.  The
executor's batch frames therefore travel only over a
single-producer/single-consumer ring on
:class:`multiprocessing.shared_memory.SharedMemory`: publishing a frame
is one bounded ``memcpy`` into a mapped page plus one 8-byte sequence
store, and consuming it is a load of the same sequence word — no
kernel copy of the frame.  The ring never waits: :meth:`ShmRing.try_push`
and :meth:`ShmRing.try_pop` answer at once, and whoever needs to wait
for a frame blocks on a one-byte doorbell elsewhere (the executor rings
it on the shard's pipe, PROTOCOL.md §12).

Layout (PROTOCOL.md §12)::

    header   (64 B):  magic 'NRR1' | !I slot count | !I slot payload cap
    slot[i]:          !Q sequence  | !I frame length | payload bytes

Sequence discipline (one writer, one reader, fixed slot count ``N``):

- slot ``i`` starts at sequence ``i``;
- the producer may write slot ``p % N`` only when its sequence equals
  ``p`` (the consumer has freed it for this lap); it copies the payload
  first and **publishes last** by storing sequence ``p + 1``;
- the consumer may read slot ``c % N`` only when its sequence equals
  ``c + 1``; it copies the payload out and frees the slot by storing
  sequence ``c + N``.

Because the sequence store is the *last* write of a publish, a producer
killed mid-``memcpy`` leaves an unpublished slot the consumer will
never read — a crash can truncate the stream but never deliver a torn
frame.  Cursor state lives in each side's process, so a ring is
single-use per worker incarnation: the executor creates fresh rings for
every (re)spawned worker rather than trusting cursors a dead process
left behind.

CPython cannot issue memory fences, so this discipline additionally
leans on (a) the GIL making each ``memoryview`` slice store a single
atomic bytes-copy, and (b) both sides exchanging whole frames through
one 8-byte aligned sequence word — the same assumptions
``multiprocessing.heap`` has shipped on for years.
"""

from __future__ import annotations

import secrets
import struct
from multiprocessing import resource_tracker, shared_memory

__all__ = [
    "ShmRing",
    "RingClosed",
    "RingFrameTooLarge",
    "RingUnavailable",
    "DEFAULT_SLOTS",
    "DEFAULT_SLOT_BYTES",
]

_MAGIC = b"NRR1"
_GEOMETRY = struct.Struct("!4sII")  # magic, slots, slot payload capacity
_HEADER_BYTES = 64
_SEQ = struct.Struct("!Q")
_LEN = struct.Struct("!I")
_SLOT_OVERHEAD = _SEQ.size + _LEN.size

DEFAULT_SLOTS = 4
#: Fits the default 2048-cookie dispatch frame (13 + 2048·48 B) with
#: headroom.  A frame is never split across slots; the executor slices
#: a larger dispatch into frames that fit.
DEFAULT_SLOT_BYTES = 128 * 1024


class RingUnavailable(RuntimeError):
    """Shared memory could not be created or attached (no /dev/shm,
    permissions, exhausted names).  The executor serves in-process:
    the whole pool at construction, one shard at a respawn."""


class RingFrameTooLarge(ValueError):
    """Frame exceeds one slot's payload capacity (frames are never
    fragmented across slots; the sender must slice its batch)."""


class RingClosed(RuntimeError):
    """Operation on a ring whose mapping was closed."""


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it with the
    resource tracker.

    Only the creating (dispatcher) process owns cleanup.  On Python
    < 3.13 every attach registers with the tracker too, so a worker
    that dies by SIGKILL would make the tracker "clean up" a segment
    the dispatcher still uses (and warn at exit).  3.13 grew
    ``track=False`` for exactly this; emulate it on older versions by
    unregistering right after attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        # Suppress the attach-side register() call.  Unregistering after
        # the fact is NOT equivalent: the tracker process is shared with
        # the dispatcher, so an unregister here would erase the owner's
        # registration too (and a SIGKILLed worker can't unregister at
        # all, making the tracker unlink a live segment "for" it).
        original = resource_tracker.register
        resource_tracker.register = lambda *_args: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class ShmRing:
    """One direction of a dispatcher↔worker frame channel.

    Exactly one process calls :meth:`try_push` and exactly one calls
    :meth:`try_pop`; each side keeps its own cursor.  Both may share one attached segment object (fork) or
    attach by name (spawn).
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        *,
        owner: bool,
    ) -> None:
        magic, slots, slot_bytes = _GEOMETRY.unpack_from(segment.buf, 0)
        if magic != _MAGIC:
            segment.close()
            raise RingUnavailable(
                f"segment {segment.name!r} is not a cookie ring"
            )
        self._segment = segment
        self._owner = owner
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._stride = _SLOT_OVERHEAD + slot_bytes
        self._buf = segment.buf
        self._head = 0  # producer cursor (push side only)
        self._tail = 0  # consumer cursor (pop side only)
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        *,
        slots: int = DEFAULT_SLOTS,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> "ShmRing":
        """Allocate and initialise a fresh ring (dispatcher side)."""
        if slots < 2:
            raise ValueError("a ring needs at least 2 slots")
        if slot_bytes < 16:
            raise ValueError("slot payload capacity must be at least 16")
        size = _HEADER_BYTES + slots * (_SLOT_OVERHEAD + slot_bytes)
        try:
            segment = shared_memory.SharedMemory(
                name=f"nnn-ring-{secrets.token_hex(6)}",
                create=True,
                size=size,
            )
        except (OSError, ValueError) as exc:
            raise RingUnavailable(f"cannot create shared memory: {exc}") from exc
        _GEOMETRY.pack_into(segment.buf, 0, _MAGIC, slots, slot_bytes)
        for index in range(slots):
            _SEQ.pack_into(
                segment.buf,
                _HEADER_BYTES + index * (_SLOT_OVERHEAD + slot_bytes),
                index,
            )
        return cls(segment, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring by name (spawn-started workers)."""
        try:
            segment = _attach_untracked(name)
        except (OSError, ValueError) as exc:
            raise RingUnavailable(f"cannot attach {name!r}: {exc}") from exc
        return cls(segment, owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def try_push(self, frame: bytes) -> bool:
        """Publish one frame if a slot is free; never blocks.

        Returns False when the ring is full (backpressure — the
        consumer has not freed the next slot for this lap).  Raises
        :class:`RingFrameTooLarge` for frames that cannot fit one slot.
        """
        if self._closed:
            raise RingClosed("push on a closed ring")
        length = len(frame)
        if length > self.slot_bytes:
            raise RingFrameTooLarge(
                f"frame of {length} bytes exceeds slot capacity "
                f"{self.slot_bytes}"
            )
        head = self._head
        base = _HEADER_BYTES + (head % self.slots) * self._stride
        buf = self._buf
        (seq,) = _SEQ.unpack_from(buf, base)
        if seq != head:
            return False
        _LEN.pack_into(buf, base + _SEQ.size, length)
        start = base + _SLOT_OVERHEAD
        buf[start : start + length] = frame
        # Publish LAST: a crash before this line leaves the slot unread.
        _SEQ.pack_into(buf, base, head + 1)
        self._head = head + 1
        return True

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def try_pop(self) -> bytes | None:
        """Consume one frame if published; never blocks."""
        if self._closed:
            raise RingClosed("pop on a closed ring")
        tail = self._tail
        base = _HEADER_BYTES + (tail % self.slots) * self._stride
        buf = self._buf
        (seq,) = _SEQ.unpack_from(buf, base)
        if seq != tail + 1:
            return None
        (length,) = _LEN.unpack_from(buf, base + _SEQ.size)
        start = base + _SLOT_OVERHEAD
        frame = bytes(buf[start : start + length])
        # Free the slot for the producer's next lap.
        _SEQ.pack_into(buf, base, tail + self.slots)
        self._tail = tail + 1
        return frame

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def disown(self) -> None:
        """Renounce segment ownership on this copy of the ring.

        A fork-started worker inherits the dispatcher's ring objects —
        including the owner flag.  The worker must drop it before use so
        its :meth:`close` only unmaps, never unlinks a segment the
        dispatcher still serves.
        """
        self._owner = False

    def close(self) -> None:
        """Drop this process's mapping; the owner also unlinks the
        segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._buf = None
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - being torn down
            pass
        if self._owner:
            try:
                self._segment.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
