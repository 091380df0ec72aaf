"""Append-only descriptor delta log + snapshots (PROTOCOL.md §14.2).

``add`` / ``revoke`` / ``remove`` is the write vocabulary of every
descriptor store and :func:`apply_record` the one place it is
interpreted: replicas replay a shard's log through it, the workers of a
verifier pool the frames their dispatcher pushes.  Each shard appends
one :class:`DeltaRecord` per successful mutation; record, snapshot and
replaying store each hold a descriptor shell of their own around the
issuer's attribute block.

The two invariants everything else leans on, property-tested in
``tests/core/test_deltalog.py``:

* **Equivalence** — ``snapshot + replay(log since snapshot.offset)``
  reproduces the shard store exactly, for any interleaving of ops.
* **Idempotence** — :func:`replay` skips records below the replica's
  applied offset, so re-delivering an overlapping window (the normal case
  when a replica reconnects after a partition) never regresses state:
  an ``add`` record is never applied over a later ``revoke``.

Logs are compactable: :meth:`DeltaLog.compact_to` drops the prefix below
an offset.  A replica whose applied offset fell behind the compaction
horizon gets :class:`LogTruncated` from :meth:`DeltaLog.since` and must
catch up by snapshot-then-replay instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic
from typing import Any, Callable, Iterable, NamedTuple

from ..descriptor import CookieDescriptor

__all__ = [
    "DeltaLog",
    "DeltaRecord",
    "LogTruncated",
    "StoreSnapshot",
    "apply_record",
    "replay",
]

#: Ops a record may carry.
DELTA_OPS = ("add", "revoke", "remove")


class LogTruncated(Exception):
    """The requested offset precedes the log's compaction horizon."""


def _as_json(payload: CookieDescriptor | dict[str, Any]) -> dict[str, Any]:
    """The wire rendering of a descriptor held in either form."""
    return payload.to_json() if isinstance(payload, CookieDescriptor) else payload


def _materialize(payload: CookieDescriptor | dict[str, Any]) -> CookieDescriptor:
    """A descriptor shell no other holder references, from either form:
    a clone of an object, a parse of JSON (never cached — the next
    store needs a shell of its own anyway)."""
    if isinstance(payload, CookieDescriptor):
        return payload.clone()
    return CookieDescriptor.from_json(payload)


class DeltaRecord(NamedTuple):
    """One logged mutation.

    An ``add`` record holds the descriptor *as issued*, so replay needs
    no other source of truth: either the record's own object (appended
    in-process — never a view of the live store, which a later
    ``revoke`` flips) or its JSON form (a record that came off the
    wire).  JSON is the wire rendering: :attr:`descriptor` and
    :meth:`to_json` derive it on demand, and two records are equal when
    their JSON forms are, whichever way each arrived.  Other ops hold
    ``None``.
    """

    offset: int
    op: str
    cookie_id: int
    time: float
    payload: CookieDescriptor | dict[str, Any] | None = None

    @property
    def descriptor(self) -> dict[str, Any] | None:
        """The full JSON form for ``add``, ``None`` otherwise."""
        return None if self.payload is None else _as_json(self.payload)

    def materialize(self) -> CookieDescriptor:
        """The ``add`` record's descriptor as a fresh shell for one
        store: as issued (unrevoked unless issued so), its ``revoked``
        flag shared with no other materialization."""
        if self.payload is None:
            raise ValueError(f"{self.op!r} records carry no descriptor")
        return _materialize(self.payload)

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "offset": self.offset,
            "op": self.op,
            "cookie_id": self.cookie_id,
            "time": self.time,
        }
        descriptor = self.descriptor
        if descriptor is not None:
            data["descriptor"] = descriptor
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "DeltaRecord":
        op = str(data["op"])
        if op not in DELTA_OPS:
            raise ValueError(f"unknown delta op {op!r}")
        return cls(
            offset=int(data["offset"]),
            op=op,
            cookie_id=int(data["cookie_id"]),
            time=float(data["time"]),
            payload=data.get("descriptor"),
        )

    # Not tuple equality: a record never equals a bare tuple, and an
    # object payload equals its JSON rendering.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, DeltaRecord) and self.to_json() == other.to_json()

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = None  # type: ignore[assignment]


class DeltaLog:
    """An append-only, offset-addressed, compactable record sequence.

    Offsets are dense and monotonic: the first record ever appended has
    offset 0, and compaction never renumbers — it only advances
    ``base_offset`` past the dropped prefix.  ``clock`` stamps the records
    written through :meth:`add` / :meth:`revoke` / :meth:`remove`;
    :meth:`append` takes its time from the caller.
    """

    def __init__(
        self, base_offset: int = 0, clock: Callable[[], float] = monotonic
    ) -> None:
        if base_offset < 0:
            raise ValueError("base_offset must be >= 0")
        self.base_offset = base_offset
        self.clock = clock
        self._records: list[DeltaRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def next_offset(self) -> int:
        """The offset the next append will receive."""
        return self.base_offset + len(self._records)

    def append(
        self,
        op: str,
        cookie_id: int,
        time: float,
        descriptor: CookieDescriptor | dict[str, Any] | None = None,
    ) -> DeltaRecord:
        """Log one mutation.  ``add`` takes the descriptor as an object
        — the record keeps its own clone, taken here, so what the log
        replays is the descriptor as issued whatever happens to the
        caller's afterwards — or already rendered as JSON, kept as is."""
        if op not in DELTA_OPS:
            raise ValueError(f"unknown delta op {op!r}")
        if op == "add" and descriptor is None:
            raise ValueError("add records must carry the descriptor")
        if isinstance(descriptor, CookieDescriptor):
            descriptor = descriptor.clone()
        record = DeltaRecord(
            self.base_offset + len(self._records), op, cookie_id, time, descriptor
        )
        self._records.append(record)
        return record

    # The store vocabulary, stamped from the injected clock: attached to
    # a CookieServer (``attach_enforcement_store``) the log records every
    # mutation the server pushes to its enforcement stores.
    def add(self, descriptor: CookieDescriptor) -> None:
        # One record a grant: what append would check is known here.
        records = self._records
        records.append(
            DeltaRecord(
                self.base_offset + len(records),
                "add",
                descriptor.cookie_id,
                self.clock(),
                descriptor.clone(),
            )
        )

    def revoke(self, cookie_id: int) -> None:
        self.append("revoke", cookie_id, self.clock())

    def remove(self, cookie_id: int) -> None:
        self.append("remove", cookie_id, self.clock())

    def covers(self, offset: int) -> bool:
        """Whether ``since(offset)`` can be served without a snapshot."""
        return self.base_offset <= offset <= self.next_offset

    def since(self, offset: int) -> list[DeltaRecord]:
        """Records with ``record.offset >= offset``, oldest first.

        Raises :class:`LogTruncated` when compaction already dropped part
        of the requested window — the caller must fall back to
        snapshot-then-replay.
        """
        if offset < self.base_offset:
            raise LogTruncated(
                f"offset {offset} precedes compaction horizon "
                f"{self.base_offset}"
            )
        if offset >= self.next_offset:
            return []
        return self._records[offset - self.base_offset:]

    def compact_to(self, offset: int) -> int:
        """Drop records below ``offset``; returns how many were dropped.

        ``offset`` is clamped to the log's bounds, so compacting to an
        offset nobody has reached yet empties the log but never loses
        numbering.
        """
        offset = min(max(offset, self.base_offset), self.next_offset)
        dropped = offset - self.base_offset
        if dropped:
            del self._records[:dropped]
            self.base_offset = offset
        return dropped


@dataclass
class StoreSnapshot:
    """A store's full state as of a log offset (PROTOCOL.md §14.2).

    ``offset`` is the log's ``next_offset`` at capture time: replaying
    records from ``offset`` onward lands exactly on the live state.
    ``descriptors`` holds clones when taken in-process and JSON
    documents when parsed off the wire; :meth:`cookie_ids`,
    :meth:`materialize` and :meth:`to_json` read either form.
    """

    offset: int
    descriptors: list[CookieDescriptor | dict[str, Any]]

    @classmethod
    def take(cls, store: Any, offset: int) -> "StoreSnapshot":
        return cls(offset=offset, descriptors=[d.clone() for d in store])

    def cookie_ids(self) -> set[int]:
        return {
            d.cookie_id if isinstance(d, CookieDescriptor) else int(d["cookie_id"])
            for d in self.descriptors
        }

    def materialize(self) -> list[CookieDescriptor]:
        """Fresh shells for one store (see :meth:`DeltaRecord.materialize`)."""
        return [_materialize(d) for d in self.descriptors]

    def to_json(self) -> dict[str, Any]:
        return {
            "offset": self.offset,
            "descriptors": [_as_json(d) for d in self.descriptors],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "StoreSnapshot":
        return cls(
            offset=int(data["offset"]),
            descriptors=list(data["descriptors"]),
        )


def apply_record(store: Any, record: DeltaRecord) -> None:
    """Apply one record to anything written like a descriptor store;
    an ``add`` puts in ``record.materialize()``, a shell only it holds.

    Tolerant of redelivery on its own (``revoke``/``remove`` of a missing
    id are no-ops) but NOT of reordering — use :func:`replay` with an
    applied offset to get the full idempotence guarantee.
    """
    if record.op == "add":
        store.add(record.materialize())
    elif record.op == "revoke":
        store.revoke(record.cookie_id)
    elif record.op == "remove":
        store.remove(record.cookie_id)
    else:  # pragma: no cover - append() validates ops
        raise ValueError(f"unknown delta op {record.op!r}")


def replay(
    store: Any,
    records: Iterable[DeltaRecord],
    applied_offset: int = 0,
) -> int:
    """Apply ``records`` in order, skipping anything already applied.

    ``applied_offset`` is the next offset the store expects (i.e. all
    records below it are already in).  Returns the new applied offset.
    Raises ``ValueError`` on a gap — a missing record means the window
    was mis-served and silently continuing would diverge.
    """
    applied = applied_offset
    for record in records:
        if record.offset < applied:
            continue  # stale redelivery — idempotent skip
        if record.offset > applied:
            raise ValueError(
                f"delta gap: expected offset {applied}, got {record.offset}"
            )
        apply_record(store, record)
        applied = record.offset + 1
    return applied
