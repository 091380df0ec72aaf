"""Crash-safe write-ahead billing journal (PROTOCOL.md §16.2).

The middlebox's per-IP counters are RAM: a ``kill -9``, an LRU eviction,
or a replica swap would silently erase revenue data.  The journal is the
durability layer underneath them — an append-only, length-prefixed,
checksummed segment log that :class:`~repro.services.billing.accounting.
BillingAccountant` flushes counter deltas into *before* any eviction or
shutdown drops state.  It reuses the offset-addressed replay contract of
:mod:`repro.core.cp.deltalog` (dense monotonic offsets, compaction
horizon, idempotent replay) but puts the records on disk, because the
failure modes it must survive are physical:

- **SIGKILL mid-append** — the tail record may be torn (a prefix of the
  frame on disk).  Recovery truncates *at most* that one record; every
  fsync-acknowledged record before it survives byte-for-byte.
- **torn/partial write** — same contract, injectable deterministically
  through :class:`repro.netsim.faults.DiskFaultInjector`.
- **checksum corruption** — a record whose framing is intact but whose
  CRC fails is *quarantined* (counted, skipped), never a crash and
  never a reason to abort reconciliation.
- **disk full** — an append that cannot complete raises
  :class:`JournalFull` after restoring the segment to its pre-append
  length; the caller keeps the delta pending and retries.

Wire format (all integers big-endian)::

    segment   := header record*
    header    := magic "NNBJ2\\n" (6 B) | base_offset u64
    record    := payload_len u32 | crc32(payload) u32 | payload
    payload   := offset u64 | record_id u64 | time f64
                 | free_bytes i64 | charged_bytes i64
                 | operator_len u16 | subscriber_len u16
                 | app_len u16 | byte_class_len u16
                 | operator | subscriber | app | byte_class   (UTF-8)

The byte counts are signed so a negative delta reaches reconciliation's
check instead of dying in the encoder.  ``NNBJ1`` segments (JSON
payloads) are refused by the header check, not migrated.

Segments are named ``billing-<base_offset 12 digits>.seg``; rotation
starts a new segment once the active one exceeds ``max_segment_bytes``,
and :meth:`BillingJournal.compact_to` deletes whole segments below a
reconciled checkpoint.  Record identity (``record_id``) is
``derive_seed(stream_seed, "billing", source, offset)``
(:mod:`repro.core.seeding`; the journal absorbs everything but the
offset once) — so replaying duplicated or overlapping
segments through :func:`repro.services.billing.reconcile.reconcile`
dedupes to exactly-once no matter how many times a segment is read.
"""

from __future__ import annotations

import errno
import os
import struct
import zlib
from contextlib import suppress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ...core.seeding import extend_seed, seed_prefix

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ...netsim.faults import DiskFaultInjector
    from ...telemetry import MetricsRegistry

__all__ = [
    "BillingJournal",
    "BillingRecord",
    "JournalFull",
    "JournalRecoveryStats",
    "SEGMENT_MAGIC",
    "record_identity",
]

SEGMENT_MAGIC = b"NNBJ2\n"
_HEADER = struct.Struct("!Q")
_FRAME = struct.Struct("!II")
#: The payload's fixed head: one slot per field below — the strings'
#: slots hold their UTF-8 lengths, the strings themselves follow.
_PAYLOAD = struct.Struct("!QQdqqHHHH")
_PAYLOAD_FIELDS = (
    "offset", "record_id", "time", "free_bytes", "charged_bytes",
    "operator", "subscriber", "app", "byte_class",
)
HEADER_BYTES = len(SEGMENT_MAGIC) + _HEADER.size
FRAME_BYTES = _FRAME.size

#: Framing sanity bound: a length field above this is corruption, not a
#: record (the largest honest payload is 48 B plus four u16-length strings).
MAX_RECORD_BYTES = 1 << 20

#: Default rotation threshold — small enough that soaks rotate for real.
DEFAULT_MAX_SEGMENT_BYTES = 64 * 1024

#: fsync policies: every append (crash-safe), on rotate/sync/close only,
#: or never (pure-simulation runs where the OS page cache is "disk").
FSYNC_POLICIES = ("always", "rotate", "never")


class JournalFull(OSError):
    """The append could not complete (disk full, at the write or at the
    rotation before it); the record was NOT written — the active segment
    is restored to its pre-append length and the caller must keep the
    delta pending."""


def record_identity(stream_seed: int, source: str, offset: int) -> int:
    """The stable, globally-unique identity of one journal record.

    Two journals (e.g. two middleboxes of one deployment, one fed flow
    grants and one packet grants) reconciled together can never collide as long as their
    ``source`` labels differ; re-reading the same segment twice yields
    the same ids, which is what makes replay idempotent.
    """
    return extend_seed(_identity_prefix(stream_seed, source), offset)


def _identity_prefix(stream_seed: int, source: str):
    """Everything of a record's identity but its offset, absorbed."""
    return seed_prefix(stream_seed, "billing", source)


class BillingRecord(NamedTuple):
    """One journaled counter delta for (operator, subscriber, app, class).

    Exactly one of ``free_bytes`` / ``charged_bytes`` is normally
    non-zero (a byte class is either free or charged), but the codec
    carries both so reconciliation needs no catalog to split them.
    An immutable value; a tuple because one is built per append.
    """

    offset: int
    record_id: int
    time: float
    operator: str
    subscriber: str
    app: str
    byte_class: str
    free_bytes: int = 0
    charged_bytes: int = 0

    def encode(self) -> bytes:
        """The record's frame: length, CRC, payload.  A field the frame
        cannot carry is a ``ValueError`` naming it."""
        operator = self.operator.encode("utf-8")
        subscriber = self.subscriber.encode("utf-8")
        app = self.app.encode("utf-8")
        byte_class = self.byte_class.encode("utf-8")
        head = (
            self.offset, self.record_id, self.time,
            self.free_bytes, self.charged_bytes,
            len(operator), len(subscriber), len(app), len(byte_class),
        )
        try:
            payload = (
                _PAYLOAD.pack(*head) + operator + subscriber + app + byte_class
            )
        except struct.error:
            raise ValueError(_refused_field(head)) from None
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    @classmethod
    def decode(cls, payload: bytes) -> "BillingRecord":
        """Inverse of :meth:`encode` on the payload (the frame without
        its length and CRC); raises ``ValueError`` / ``struct.error`` on
        anything but one well-formed record."""
        (
            offset, record_id, time, free_bytes, charged_bytes,
            operator_len, subscriber_len, app_len, byte_class_len,
        ) = _PAYLOAD.unpack_from(payload)
        subscriber_at = _PAYLOAD.size + operator_len
        app_at = subscriber_at + subscriber_len
        byte_class_at = app_at + app_len
        if byte_class_at + byte_class_len != len(payload):
            raise ValueError("string lengths do not add up to the payload")
        return cls(
            offset=offset,
            record_id=record_id,
            time=time,
            operator=payload[_PAYLOAD.size : subscriber_at].decode("utf-8"),
            subscriber=payload[subscriber_at:app_at].decode("utf-8"),
            app=payload[app_at:byte_class_at].decode("utf-8"),
            byte_class=payload[byte_class_at:].decode("utf-8"),
            free_bytes=free_bytes,
            charged_bytes=charged_bytes,
        )


def _refused_field(head: tuple) -> str:
    """Name the field ``_PAYLOAD.pack`` refused (a string by the slot
    its UTF-8 length goes in)."""
    for name, code, value in zip(_PAYLOAD_FIELDS, _PAYLOAD.format[1:], head):
        try:
            struct.pack("!" + code, value)
        except struct.error as exc:
            return f"{name} does not fit the journal frame: {exc}"
    raise AssertionError("every slot packs")  # pragma: no cover


@dataclass
class JournalRecoveryStats:
    """What recovery found — the numbers the robustness tests pin."""

    segments_scanned: int = 0
    records_recovered: int = 0
    torn_tail_truncated: int = 0
    torn_tail_bytes: int = 0
    corrupt_records: int = 0
    quarantined_bytes: int = 0

    def merge(self, other: "JournalRecoveryStats") -> None:
        for name, found in vars(other).items():
            setattr(self, name, getattr(self, name) + found)

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


def _segment_name(base_offset: int) -> str:
    return f"billing-{base_offset:012d}.seg"


def _segment_base(path: str) -> int:
    return int(os.path.basename(path)[len("billing-") : -len(".seg")])


def _scan_segment(
    path: str, *, is_last: bool, stats: JournalRecoveryStats
) -> tuple[list[BillingRecord], int]:
    """Read one segment; returns (records, good_end_offset_in_file).

    ``good_end`` is the file position after the last intact record — the
    truncation point for a torn tail.  Framing failures in the *last*
    segment are a torn tail (truncatable); in earlier segments they
    quarantine the remainder (the bytes are gone either way, but a
    sealed segment is never rewritten).  A CRC mismatch with intact
    framing quarantines just that record and keeps scanning.

    A *last* segment that is a strict prefix of its own header (a kill
    between creating the file and writing the header) is a torn tail
    too: it is counted and ``good_end`` comes back 0.  Any other header
    that is not the expected one is an error.
    """
    stats.segments_scanned += 1
    with open(path, "rb") as handle:
        blob = handle.read()
    expected_base = _segment_base(path)
    expected = SEGMENT_MAGIC + _HEADER.pack(expected_base)
    if blob[:HEADER_BYTES] != expected:
        if is_last and expected.startswith(blob):  # a strict prefix
            _count_tail(stats, len(blob), is_last)
            return [], 0
        if len(blob) < HEADER_BYTES or not blob.startswith(SEGMENT_MAGIC):
            raise ValueError(f"{path}: bad segment header")
        (base_offset,) = _HEADER.unpack_from(blob, len(SEGMENT_MAGIC))
        raise ValueError(
            f"{path}: header base_offset {base_offset} != filename "
            f"{expected_base}"
        )
    records: list[BillingRecord] = []
    position = HEADER_BYTES
    good_end = position
    total = len(blob)
    while position < total:
        remaining = total - position
        if remaining < FRAME_BYTES:
            # Torn mid-frame-header.
            _count_tail(stats, remaining, is_last)
            break
        length, crc = _FRAME.unpack_from(blob, position)
        if length > MAX_RECORD_BYTES:
            # Framing destroyed: nothing after this point is parseable.
            _count_tail(stats, remaining, is_last)
            break
        if remaining - FRAME_BYTES < length:
            # Torn mid-payload.
            _count_tail(stats, remaining, is_last)
            break
        payload = blob[position + FRAME_BYTES : position + FRAME_BYTES + length]
        position += FRAME_BYTES + length
        if zlib.crc32(payload) != crc:
            # Intact framing, bad bytes: quarantine this record only.
            stats.corrupt_records += 1
            stats.quarantined_bytes += FRAME_BYTES + length
            good_end = position
            continue
        try:
            record = BillingRecord.decode(payload)
        except (ValueError, struct.error):
            stats.corrupt_records += 1
            stats.quarantined_bytes += FRAME_BYTES + length
            good_end = position
            continue
        records.append(record)
        stats.records_recovered += 1
        good_end = position
    return records, good_end


def _count_tail(
    stats: JournalRecoveryStats, tail_bytes: int, is_last: bool
) -> None:
    if is_last:
        stats.torn_tail_truncated += 1
        stats.torn_tail_bytes += tail_bytes
    else:
        stats.corrupt_records += 1
        stats.quarantined_bytes += tail_bytes


class BillingJournal:
    """Append-only, segment-rotated, checksummed billing journal.

    Opening a directory that already holds segments *recovers* it:
    every segment is scanned, a torn tail on the final segment is
    truncated on disk (at most one record), and appends resume at the
    next dense offset.  ``recovery`` holds what the scan found.

    ``disk_faults`` (a :class:`repro.netsim.faults.DiskFaultInjector`)
    hooks the append path for deterministic torn-write / disk-full /
    kill-mid-append injection.
    """

    def __init__(
        self,
        directory: str,
        *,
        source: str = "journal",
        stream_seed: int = 0,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
        fsync: str = "always",
        disk_faults: "DiskFaultInjector | None" = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if max_segment_bytes <= HEADER_BYTES:
            raise ValueError("max_segment_bytes too small for a header")
        self.directory = directory
        self.source = source
        self.stream_seed = stream_seed
        self.max_segment_bytes = max_segment_bytes
        self.fsync_policy = fsync
        self.disk_faults = disk_faults
        self.records_appended = 0
        self.bytes_appended = 0
        self.segment_rotations = 0
        self.fsyncs = 0
        self.append_failures = 0
        self._file = None
        self._segment_size = 0
        self._identity = _identity_prefix(stream_seed, source)
        os.makedirs(directory, exist_ok=True)
        self.recovery = JournalRecoveryStats()
        self.next_offset = 0
        self._recover_and_open()

    # ------------------------------------------------------------------
    # Recovery / open
    # ------------------------------------------------------------------
    @staticmethod
    def segment_paths(directory: str) -> list[str]:
        names = [
            name
            for name in os.listdir(directory)
            if name.startswith("billing-") and name.endswith(".seg")
        ]
        return [
            os.path.join(directory, name)
            for name in sorted(names)
        ]

    @classmethod
    def read_directory(
        cls, directory: str
    ) -> tuple[list[BillingRecord], JournalRecoveryStats]:
        """Pure read of every record in a journal directory.

        Applies the same torn-tail / quarantine rules as recovery but
        never modifies the files — reconciliation reads journals it does
        not own (possibly while a writer is live elsewhere).
        """
        stats = JournalRecoveryStats()
        records: list[BillingRecord] = []
        paths = cls.segment_paths(directory)
        for index, path in enumerate(paths):
            segment_records, _end = _scan_segment(
                path, is_last=index == len(paths) - 1, stats=stats
            )
            records.extend(segment_records)
        return records, stats

    def _recover_and_open(self) -> None:
        paths = self.segment_paths(self.directory)
        if not paths:
            self._open_segment(0)
            return
        for index, path in enumerate(paths):
            records, good_end = _scan_segment(
                path, is_last=index == len(paths) - 1, stats=self.recovery
            )
            for record in records:
                self.next_offset = max(self.next_offset, record.offset + 1)
        last = paths[-1]
        base_offset = _segment_base(last)
        self.next_offset = max(self.next_offset, base_offset)
        if good_end < HEADER_BYTES:
            # Torn header: the segment holds nothing, write it again.
            self._open_segment(base_offset)
            return
        if os.path.getsize(last) > good_end:
            # Truncate the torn tail on disk: at most one record.
            with open(last, "r+b") as handle:
                handle.truncate(good_end)
        self._file = open(last, "r+b")
        self._file.seek(0, os.SEEK_END)
        self._segment_size = good_end

    def _open_segment(self, base_offset: int) -> None:
        """Create segment ``base_offset`` and make it the active one; on
        failure nothing changes (no partial file, ``_file`` as it was)."""
        path = os.path.join(self.directory, _segment_name(base_offset))
        handle = None
        try:
            handle = open(path, "wb")
            handle.write(SEGMENT_MAGIC + _HEADER.pack(base_offset))
            handle.flush()
            if self.fsync_policy != "never":
                os.fsync(handle.fileno())
                self.fsyncs += 1
        except OSError:
            with suppress(OSError):
                os.remove(path)
                if handle is not None:
                    handle.close()
            raise
        self._file = handle
        self._segment_size = HEADER_BYTES

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def append(
        self,
        *,
        operator: str,
        subscriber: str,
        app: str,
        byte_class: str,
        free_bytes: int = 0,
        charged_bytes: int = 0,
        time: float = 0.0,
    ) -> BillingRecord:
        """Durably append one counter delta; returns the record.

        A field the frame cannot carry (a string over 65 535 UTF-8
        bytes, a byte count outside i64) is a ``ValueError`` naming it,
        raised before anything is written.  Raises :class:`JournalFull`
        (record NOT written, journal intact, ``next_offset`` unmoved) on
        disk-full — at the write, or at the rotation before it, which
        then leaves the old segment active — so the same append can be
        retried.  Propagates a torn-write injection as whatever
        the injector raises — after a torn write the writer is dead by
        definition (the process crashed mid-append); only recovery via a
        fresh :class:`BillingJournal` makes the directory writable again.
        """
        if self._file is None:
            raise ValueError("journal is closed")
        record = BillingRecord(
            offset=self.next_offset,
            record_id=extend_seed(self._identity, self.next_offset),
            time=time,
            operator=operator,
            subscriber=subscriber,
            app=app,
            byte_class=byte_class,
            free_bytes=free_bytes,
            charged_bytes=charged_bytes,
        )
        frame = record.encode()
        try:
            if (
                self._segment_size + len(frame) > self.max_segment_bytes
                and self._segment_size > HEADER_BYTES
            ):
                self._rotate()
            if self.disk_faults is not None:
                self.disk_faults.on_append(self._file, frame)
            else:
                self._file.write(frame)
        except OSError as exc:
            self.append_failures += 1
            if exc.errno == errno.ENOSPC:
                # Restore the segment to its pre-append length so a
                # partial frame never reaches recovery (a rotation that
                # failed left the old segment active and untouched).
                try:
                    self._file.truncate(self._segment_size)
                    self._file.seek(self._segment_size)
                except OSError:  # pragma: no cover - double fault
                    pass
                raise JournalFull(errno.ENOSPC, "journal disk full") from exc
            raise
        self._segment_size += len(frame)
        if self.fsync_policy == "always":
            self._file.flush()
            os.fsync(self._file.fileno())
            self.fsyncs += 1
        self.next_offset += 1
        self.records_appended += 1
        self.bytes_appended += len(frame)
        return record

    def _rotate(self) -> None:
        self.sync()
        sealed = self._file
        self._open_segment(self.next_offset)  # raises: ``sealed`` stays active
        sealed.close()
        self.segment_rotations += 1

    def sync(self) -> None:
        """Flush + fsync the active segment (a durability barrier)."""
        if self._file is None:
            return
        self._file.flush()
        if self.fsync_policy != "never":
            os.fsync(self._file.fileno())
            self.fsyncs += 1

    def close(self) -> None:
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None

    def __enter__(self) -> "BillingJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reads / compaction
    # ------------------------------------------------------------------
    def records(self) -> Iterator[BillingRecord]:
        """Every durable record, oldest first (reads the directory)."""
        self.sync()
        records, _stats = self.read_directory(self.directory)
        return iter(records)

    def compact_to(self, offset: int) -> int:
        """Delete sealed segments whose records all fall below ``offset``
        (a reconciled checkpoint); returns how many segments were
        removed.  The active segment is never deleted — like
        :meth:`repro.core.cp.deltalog.DeltaLog.compact_to`, compaction
        only ever advances the horizon, it never renumbers."""
        removed = 0
        paths = self.segment_paths(self.directory)
        for index, path in enumerate(paths[:-1]):  # never the active one
            if _segment_base(paths[index + 1]) <= offset:
                os.remove(path)
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    #: Telemetry declaration: what was appended and what ``recovery``
    #: found are counters; the next dense offset is a level.
    COUNTERS = (
        "records_appended", "bytes_appended", "segment_rotations", "fsyncs",
        "append_failures",
    )
    GAUGES = ("next_offset",)

    def stats_dict(self) -> dict[str, int]:
        data = {name: getattr(self, name) for name in self.COUNTERS}
        data["next_offset"] = self.next_offset
        data.update(self.recovery.as_dict())
        return data

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "billing.journal"
    ) -> None:
        registry.register(
            self, prefix, (*self.COUNTERS, "recovery"), self.GAUGES
        )
