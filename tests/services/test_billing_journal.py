"""Crash-safety and recovery edges of the billing journal (satellite 3).

The journal's contract (PROTOCOL.md §16): after ANY crash, reopening
recovers every fsynced record; at most one torn tail is truncated (never
double-counted); a checksum-corrupt record is quarantined — surfaced in
``billing.corrupt_records`` telemetry — without poisoning its
neighbours; and replaying the same segments twice reconciles to the
same invoices (exactly-once by record identity).
"""

import errno
import os
import struct
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.netsim import DiskFaultInjector, DiskFaultPlan, TornWrite
from repro.services.billing import (
    BillingJournal,
    BillingRecord,
    JournalFull,
    reconcile,
    reconcile_directories,
    record_identity,
)
from repro.services.billing import journal as journal_module
from repro.services.billing.journal import (
    FRAME_BYTES,
    HEADER_BYTES,
    SEGMENT_MAGIC,
    _segment_name,
)
from repro.telemetry import MetricsRegistry


def _fill(journal, count, start=0):
    records = []
    for i in range(start, start + count):
        records.append(journal.append(
            operator=f"op-{i % 2}",
            subscriber=f"10.5.{i % 3}.2",
            app="app",
            byte_class="origin" if i % 2 == 0 else "third_party",
            free_bytes=100 + i if i % 2 == 0 else 0,
            charged_bytes=0 if i % 2 == 0 else 200 + i,
            time=float(i),
        ))
    return records


def test_roundtrip_and_reopen(tmp_path):
    directory = str(tmp_path)
    with BillingJournal(directory, fsync="never") as journal:
        written = _fill(journal, 5)
    with BillingJournal(directory, fsync="never") as journal:
        assert list(journal.records()) == written
        assert journal.next_offset == 5
        assert journal.recovery.records_recovered == 5
        assert journal.recovery.torn_tail_truncated == 0
        # Offsets are dense and identities deterministic.
        assert [r.offset for r in written] == list(range(5))


def test_torn_final_record_truncated_not_fatal(tmp_path):
    """A torn tail is truncated on disk; every prior record survives."""
    directory = str(tmp_path)
    with BillingJournal(directory, fsync="never") as journal:
        _fill(journal, 4)
        path = journal.segment_paths(directory)[-1]
    intact = os.path.getsize(path)
    # Append a frame header that promises more payload than exists.
    with open(path, "ab") as handle:
        handle.write(b"\x00\x00\x00\x63\x12\x34\x56\x78" + b"short")
    journal = BillingJournal(directory, fsync="never")
    assert len(list(journal.records())) == 4
    assert journal.recovery.torn_tail_truncated == 1
    assert journal.recovery.corrupt_records == 0
    # The torn bytes are gone from disk: a second reopen is clean.
    assert os.path.getsize(path) == intact
    journal.append(operator="op-0", subscriber="10.5.0.2", app="app",
                   byte_class="origin", free_bytes=1)
    journal.close()
    reopened = BillingJournal(directory, fsync="never")
    assert reopened.recovery.torn_tail_truncated == 0
    assert reopened.next_offset == 5
    reopened.close()


def test_torn_frame_header_tail(tmp_path):
    """Fewer than FRAME_BYTES trailing bytes is also just a torn tail."""
    directory = str(tmp_path)
    with BillingJournal(directory, fsync="never") as journal:
        _fill(journal, 3)
        path = journal.segment_paths(directory)[-1]
    with open(path, "ab") as handle:
        handle.write(b"\x00\x00\x00")
    journal = BillingJournal(directory, fsync="never")
    assert len(list(journal.records())) == 3
    assert journal.recovery.torn_tail_truncated == 1
    assert journal.recovery.torn_tail_bytes == 3
    journal.close()


def test_checksum_corrupt_record_quarantined_with_telemetry(tmp_path):
    """Bit-rot inside a record loses that record alone, and telemetry
    reports it under ``billing.journal.corrupt_records``."""
    directory = str(tmp_path)
    with BillingJournal(directory, fsync="never") as journal:
        _fill(journal, 5)
        path = journal.segment_paths(directory)[-1]
    size = os.path.getsize(path)
    # Flip one payload byte in the middle of the file: framing stays
    # intact, the CRC does not.
    with open(path, "r+b") as handle:
        handle.seek(HEADER_BYTES + FRAME_BYTES + 4)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))
    journal = BillingJournal(directory, fsync="never")
    assert len(list(journal.records())) == 4
    assert journal.recovery.corrupt_records == 1
    assert journal.recovery.quarantined_bytes > 0
    assert journal.recovery.torn_tail_truncated == 0
    # Quarantine is not truncation: the file is untouched.
    assert os.path.getsize(path) == size
    registry = MetricsRegistry()
    journal.register_telemetry(registry)
    counters = registry.snapshot().counters
    assert counters["billing.journal.corrupt_records"] == 1
    assert counters["billing.journal.records_recovered"] == 4
    journal.close()


def test_duplicate_segment_replay_is_idempotent(tmp_path):
    """Reconciling the same directory twice (operator re-ships a backup)
    skips every duplicate by record identity."""
    directory = str(tmp_path)
    with BillingJournal(directory, stream_seed=7, fsync="never") as journal:
        _fill(journal, 6)
    once = reconcile_directories([directory])
    twice = reconcile_directories([directory, directory])
    assert once.records_applied == 6
    assert twice.records_applied == 6
    assert twice.duplicates_skipped == 6
    for operator, invoice in once.invoices.items():
        assert twice.invoices[operator].free_bytes == invoice.free_bytes
        assert twice.invoices[operator].charged_bytes == invoice.charged_bytes


def test_incremental_replay_with_applied_ids(tmp_path):
    """A reconciler fed overlapping batches applies each record once."""
    directory = str(tmp_path)
    with BillingJournal(directory, fsync="never") as journal:
        written = _fill(journal, 8)
    applied: set[int] = set()
    first = reconcile(written[:5], applied_ids=applied)
    second = reconcile(written[2:], applied_ids=applied)
    assert first.records_applied == 5
    assert second.records_applied == 3
    assert second.duplicates_skipped == 3


def test_rotation_and_compaction(tmp_path):
    directory = str(tmp_path)
    journal = BillingJournal(directory, max_segment_bytes=256, fsync="rotate")
    _fill(journal, 12)
    paths = journal.segment_paths(directory)
    assert len(paths) >= 3
    assert journal.stats_dict()["segment_rotations"] == len(paths) - 1
    # Every segment leads with the magic and its base offset.
    for path in paths:
        with open(path, "rb") as handle:
            assert handle.read(len(SEGMENT_MAGIC)) == SEGMENT_MAGIC
    # Compact away everything below the live segment's base offset.
    base_of_last = int(os.path.basename(paths[-1]).split("-")[1].split(".")[0])
    removed = journal.compact_to(journal.next_offset)
    assert removed == len(paths) - 1
    survivors = journal.segment_paths(directory)
    assert len(survivors) == 1
    assert survivors[0] == paths[-1]
    # Offsets keep counting from where the journal left off.
    journal.append(operator="op-0", subscriber="10.5.0.2", app="app",
                   byte_class="origin", free_bytes=1)
    assert journal.next_offset == 13
    assert base_of_last <= 12
    journal.close()


def test_enospc_keeps_journal_consistent(tmp_path):
    """A full disk surfaces as JournalFull; the partial append is undone
    and a retry after 'freeing space' lands the same offset."""
    directory = str(tmp_path)
    faults = DiskFaultInjector(DiskFaultPlan(enospc_at=2))
    journal = BillingJournal(directory, fsync="never", disk_faults=faults)
    _fill(journal, 2)
    with pytest.raises(JournalFull):
        journal.append(operator="op-0", subscriber="10.5.0.2", app="app",
                       byte_class="origin", free_bytes=7)
    assert journal.stats_dict()["append_failures"] == 1
    assert journal.next_offset == 2
    retried = journal.append(operator="op-0", subscriber="10.5.0.2",
                             app="app", byte_class="origin", free_bytes=7)
    assert retried.offset == 2
    journal.close()
    reopened = BillingJournal(directory, fsync="never")
    assert len(list(reopened.records())) == 3
    assert reopened.recovery.torn_tail_truncated == 0
    reopened.close()


def test_torn_write_injection_then_recovery(tmp_path):
    """A TornWrite mid-append (process about to die) leaves a tail the
    next open truncates; the interrupted record was never acked so the
    caller re-appends it — no loss, no double."""
    directory = str(tmp_path)
    faults = DiskFaultInjector(
        DiskFaultPlan(torn_write_at=3, torn_write_bytes=FRAME_BYTES + 5)
    )
    journal = BillingJournal(directory, fsync="never", disk_faults=faults)
    _fill(journal, 3)
    with pytest.raises(TornWrite):
        journal.append(operator="op-1", subscriber="10.5.1.2", app="app",
                       byte_class="third_party", charged_bytes=999)
    journal.close()
    recovered = BillingJournal(directory, fsync="never")
    assert recovered.recovery.torn_tail_truncated == 1
    assert recovered.next_offset == 3
    replayed = recovered.append(
        operator="op-1", subscriber="10.5.1.2", app="app",
        byte_class="third_party", charged_bytes=999,
    )
    assert replayed.offset == 3
    report = reconcile(list(recovered.records()))
    assert report.records_applied == 4
    assert report.duplicates_skipped == 0
    recovered.close()


def test_corrupt_middle_segment_does_not_stop_later_segments(tmp_path):
    """Destroyed framing in a NON-last segment quarantines that
    segment's remainder but later segments still replay."""
    directory = str(tmp_path)
    journal = BillingJournal(directory, max_segment_bytes=256, fsync="never")
    _fill(journal, 12)
    journal.close()
    paths = BillingJournal.segment_paths(directory)
    assert len(paths) >= 3
    # Shred the first segment's first frame with an insane length
    # field: framing is destroyed, so the rest of THAT segment is
    # quarantined — but only that segment.
    with open(paths[0], "r+b") as handle:
        handle.seek(HEADER_BYTES)
        handle.write(b"\xff\xff\xff\xff")
    records, stats = BillingJournal.read_directory(directory)
    assert stats.corrupt_records >= 1
    assert stats.torn_tail_truncated == 0  # not the last segment
    offsets = [record.offset for record in records]
    assert offsets[-1] == 11  # the tail segments survived
    assert len(records) < 12


# ----------------------------------------------------------------------
# Torn segment header (a kill between creating a segment and writing
# its 14-byte header: every rotation, and first open)
# ----------------------------------------------------------------------
def _torn_header_directory(tmp_path, prefix_bytes):
    """Three records, then a last segment holding only the first
    ``prefix_bytes`` of its header."""
    directory = str(tmp_path)
    with BillingJournal(directory, stream_seed=5, fsync="never") as journal:
        written = _fill(journal, 3)
    torn = os.path.join(directory, _segment_name(3))
    with open(torn, "wb") as handle:
        handle.write((SEGMENT_MAGIC + struct.pack("!Q", 3))[:prefix_bytes])
    return directory, torn, written


@pytest.mark.contract
@pytest.mark.parametrize("prefix_bytes", [0, 3, HEADER_BYTES - 1])
def test_torn_segment_header_is_a_torn_tail(tmp_path, prefix_bytes):
    directory, torn, written = _torn_header_directory(tmp_path, prefix_bytes)
    # A pure read skips it, counts it and leaves the file alone.
    records, stats = BillingJournal.read_directory(directory)
    assert records == written
    assert (stats.torn_tail_truncated, stats.torn_tail_bytes) == (
        1, prefix_bytes
    )
    assert os.path.getsize(torn) == prefix_bytes
    assert reconcile_directories([directory]).records_applied == 3
    # Recovery rewrites the header and resumes at the filename's offset.
    journal = BillingJournal(directory, stream_seed=5, fsync="never")
    assert (
        journal.recovery.torn_tail_truncated, journal.recovery.torn_tail_bytes,
        journal.recovery.records_recovered, journal.next_offset,
    ) == (1, prefix_bytes, 3, 3)
    resumed = journal.append(operator="op-0", subscriber="10.5.0.2",
                             app="app", byte_class="origin", free_bytes=1)
    assert resumed.offset == 3
    journal.close()
    with open(torn, "rb") as handle:
        assert handle.read(HEADER_BYTES) == SEGMENT_MAGIC + struct.pack("!Q", 3)
    reopened = BillingJournal(directory, stream_seed=5, fsync="never")
    assert reopened.recovery.torn_tail_truncated == 0
    assert [r.offset for r in reopened.records()] == [0, 1, 2, 3]
    reopened.close()


def test_torn_header_on_first_open_recovers(tmp_path):
    directory = str(tmp_path)
    open(os.path.join(directory, _segment_name(0)), "wb").close()
    assert BillingJournal.read_directory(directory)[0] == []
    with BillingJournal(directory, fsync="never") as journal:
        assert journal.recovery.torn_tail_truncated == 1
        assert _fill(journal, 2)[-1].offset == 1


@pytest.mark.parametrize("header", [
    b"NNBJ1\n" + struct.pack("!Q", 3),          # the JSON-era format
    SEGMENT_MAGIC + struct.pack("!Q", 4),       # base offset != filename
    b"XXX",                                     # short, but not a prefix
], ids=["nnbj1", "wrong-base", "not-a-prefix"])
def test_wrong_segment_header_still_raises(tmp_path, header):
    directory, torn, _ = _torn_header_directory(tmp_path, 0)
    with open(torn, "wb") as handle:
        handle.write(header)
    for entry_point in (BillingJournal, BillingJournal.read_directory):
        with pytest.raises(ValueError, match="header"):
            entry_point(directory)


def test_short_segment_that_is_not_last_still_raises(tmp_path):
    directory, torn, _ = _torn_header_directory(tmp_path, 3)
    with BillingJournal(directory, fsync="never") as journal:
        _fill(journal, 1)
        journal._rotate()
    with open(torn, "wb") as handle:
        handle.write(SEGMENT_MAGIC[:3])
    for entry_point in (BillingJournal, BillingJournal.read_directory):
        with pytest.raises(ValueError, match="bad segment header"):
            entry_point(directory)


# ----------------------------------------------------------------------
# Disk full at the rotation boundary
# ----------------------------------------------------------------------
@pytest.mark.contract
def test_rotation_disk_full_keeps_old_segment_active(tmp_path, monkeypatch):
    """The new segment cannot be created: JournalFull, the record is not
    written, the old segment stays active, and the retry rotates."""
    directory = str(tmp_path)
    journal = BillingJournal(directory, max_segment_bytes=256, fsync="rotate")
    written = []
    while journal._segment_size + FRAME_BYTES + 48 <= 256:  # room for a frame
        written += _fill(journal, 1, start=len(written))
    assert journal.segment_rotations == 0
    blocked = journal.next_offset
    disk_full = True

    def full_disk_open(path, mode="r", *args, **kwargs):
        if disk_full and mode == "wb":
            raise OSError(errno.ENOSPC, "No space left on device")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(journal_module, "open", full_disk_open, raising=False)
    for attempt in (1, 2):
        with pytest.raises(JournalFull):
            _fill(journal, 1, start=blocked)
        assert journal.append_failures == attempt
        assert journal.next_offset == blocked
        assert journal.segment_rotations == 0
        assert BillingJournal.segment_paths(directory) == [
            os.path.join(directory, _segment_name(0))
        ]
    disk_full = False
    retried = _fill(journal, 1, start=blocked)
    assert retried[0].offset == blocked
    assert journal.segment_rotations == 1
    written += retried + _fill(journal, 2, start=blocked + 1)
    journal.close()
    records, stats = BillingJournal.read_directory(directory)
    assert records == written
    assert [record.offset for record in records] == list(range(len(written)))
    assert (stats.torn_tail_truncated, stats.corrupt_records) == (0, 0)


def test_failed_header_write_leaves_no_partial_segment(tmp_path, monkeypatch):
    """ENOSPC after the new file exists: the partial file is removed."""
    directory = str(tmp_path)
    journal = BillingJournal(directory, max_segment_bytes=256, fsync="rotate")
    _fill(journal, 3)

    def full_disk_fsync(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(journal_module.os, "fsync", full_disk_fsync)
        with pytest.raises(OSError):
            journal._open_segment(journal.next_offset)
    assert len(BillingJournal.segment_paths(directory)) == 1
    assert _fill(journal, 1, start=3)[0].offset == 3
    journal.close()


# ----------------------------------------------------------------------
# What the frame cannot carry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field, too_wide, widest", [
    ("operator", "o" * 65_536, "o" * 65_535),
    ("subscriber", "é" * 32_768, "é" * 32_767),  # 65 536 UTF-8 bytes
    ("app", "a" * 70_000, "a" * 65_535),
    ("byte_class", "c" * 65_536, "c" * 65_535),
    ("free_bytes", 2**63, 2**63 - 1),
    ("charged_bytes", -(2**63) - 1, -(2**63)),
])
def test_append_refuses_what_the_frame_cannot_carry(
    tmp_path, field, too_wide, widest
):
    directory = str(tmp_path)
    journal = BillingJournal(directory, fsync="never")
    _fill(journal, 2)
    size = journal._segment_size
    fields = dict(operator="op-0", subscriber="10.5.0.2", app="app",
                  byte_class="origin", free_bytes=1, charged_bytes=0)
    fields[field] = too_wide
    with pytest.raises(ValueError, match=field):
        journal.append(**fields)
    assert (journal._segment_size, journal.next_offset,
            journal.records_appended) == (size, 2, 2)
    # The widest value that does fit goes through.
    fields[field] = widest
    assert journal.append(**fields).offset == 2
    journal.close()
    (*_, landed), _ = BillingJournal.read_directory(directory)
    assert getattr(landed, field) == widest


# ----------------------------------------------------------------------
# Codec contract
# ----------------------------------------------------------------------
_text = st.text(max_size=24)
_records = st.builds(
    BillingRecord,
    offset=st.integers(0, 2**64 - 1),
    record_id=st.integers(0, 2**63 - 1),
    time=st.floats(allow_nan=False, allow_infinity=False),
    operator=_text,
    subscriber=_text,
    app=st.one_of(st.just(""), _text),
    byte_class=_text,
    free_bytes=st.integers(-(2**63), 2**63 - 1),
    charged_bytes=st.integers(-(2**63), 2**63 - 1),
)


@pytest.mark.contract
class TestCodecContract:
    @settings(max_examples=200, deadline=None)
    @given(record=_records)
    def test_decode_inverts_encode(self, record):
        frame = record.encode()
        length, crc = struct.unpack_from("!II", frame)
        payload = frame[FRAME_BYTES:]
        assert (length, crc) == (len(payload), zlib.crc32(payload))
        decoded = BillingRecord.decode(payload)
        assert decoded == record
        # ``==`` would let -0.0 pass for 0.0: the time is bit-exact.
        assert struct.pack("!d", decoded.time) == struct.pack("!d", record.time)

    @pytest.mark.parametrize("damage", ["lengths", "trailing", "utf8", "short"])
    def test_malformed_payload_is_quarantined_alone(self, tmp_path, damage):
        """Intact framing and CRC around a payload that is not one
        record: that record is lost, its neighbours are not."""
        directory = str(tmp_path)
        with BillingJournal(directory, fsync="never") as journal:
            before, victim, after = _fill(journal, 3)
            path = journal.segment_paths(directory)[-1]
        payload = bytearray(victim.encode()[FRAME_BYTES:])
        if damage == "lengths":
            payload[40:42] = struct.pack("!H", len(victim.operator) + 1)
        elif damage == "trailing":
            payload += b"\x00"
        elif damage == "utf8":
            payload[48] = 0xFF
        else:
            del payload[40:]
        frames = [
            before.encode(),
            struct.pack("!II", len(payload), zlib.crc32(payload)) + payload,
            after.encode(),
        ]
        with open(path, "r+b") as handle:
            handle.seek(HEADER_BYTES)
            handle.truncate()
            handle.write(b"".join(frames))
        records, stats = BillingJournal.read_directory(directory)
        assert records == [before, after]
        assert (stats.corrupt_records, stats.quarantined_bytes) == (
            1, len(frames[1])
        )
        assert stats.torn_tail_truncated == 0
        # Recovery agrees, truncates nothing and resumes past the victim.
        with BillingJournal(directory, fsync="never") as journal:
            assert journal.recovery.corrupt_records == 1
            assert journal.next_offset == 3
        assert os.path.getsize(path) == HEADER_BYTES + sum(map(len, frames))


def test_record_ids_across_rotation_and_resume(tmp_path):
    """``record_id`` is ``record_identity(stream_seed, source, offset)``
    whichever segment the record lands in and whichever journal object
    (first open, or a recover-and-resume) appends it."""
    directory = str(tmp_path)
    options = dict(source="ids", stream_seed=20160822,
                   max_segment_bytes=256, fsync="never")
    with BillingJournal(directory, **options) as journal:
        written = _fill(journal, 7)
        assert journal.segment_rotations >= 2
    with BillingJournal(directory, **options) as journal:
        written += _fill(journal, 5, start=7)
    assert BillingJournal.read_directory(directory)[0] == written
    assert [record.record_id for record in written] == [
        record_identity(20160822, "ids", offset) for offset in range(12)
    ]
    # Pinned: the ids of the JSON-era journal, bit for bit.
    assert written[0].record_id == 3175657445388198649
    assert written[11].record_id == 7354410031816565759
