"""Descriptor storage: in-memory for data-path verifiers, SQLite for the
cookie server.

The paper's Boost cookie server keeps descriptors "in a persistent SQL
database"; :class:`SQLiteDescriptorStore` reproduces that with the standard
library's :mod:`sqlite3`.  Verifiers on the data path use the dict-backed
:class:`DescriptorStore` (the paper's 100 K-descriptor Fig. 4 workload runs
against it).
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Iterator

from .attributes import CookieAttributes
from .descriptor import CookieDescriptor

__all__ = ["DescriptorStore", "SQLiteDescriptorStore"]


class DescriptorStore:
    """In-memory descriptor table keyed by cookie id."""

    def __init__(self) -> None:
        self._descriptors: dict[int, CookieDescriptor] = {}

    def __len__(self) -> int:
        return len(self._descriptors)

    def __contains__(self, cookie_id: int) -> bool:
        return cookie_id in self._descriptors

    def __iter__(self) -> Iterator[CookieDescriptor]:
        return iter(self._descriptors.values())

    def add(self, descriptor: CookieDescriptor) -> CookieDescriptor:
        """Insert or replace a descriptor; returns it for chaining."""
        self._descriptors[descriptor.cookie_id] = descriptor
        return descriptor

    def get(self, cookie_id: int) -> CookieDescriptor | None:
        return self._descriptors.get(cookie_id)

    def revoke(self, cookie_id: int) -> bool:
        """Revoke in place; returns False if the id is unknown."""
        descriptor = self._descriptors.get(cookie_id)
        if descriptor is None:
            return False
        descriptor.revoke()
        return True


class SQLiteDescriptorStore:
    """Persistent descriptor store over sqlite3.

    Matches the :class:`DescriptorStore` interface so the cookie server can
    use either.  ``path=":memory:"`` gives an ephemeral database for tests.
    The connection is guarded by a lock so the asyncio cookie server can
    share one store across handler tasks.

    The control-plane-scale tuning (benchmarked in
    ``benchmarks/test_micro_cookie_ops.py``):

    * **WAL journal** + ``synchronous=NORMAL`` — writers append to the
      log instead of rewriting pages, and readers never block on them.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.Lock()
        # WAL persists in the database file; ":memory:" reports "memory",
        # which is fine — there is nothing to journal.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS descriptors (
                cookie_id INTEGER PRIMARY KEY,
                key_hex TEXT NOT NULL,
                service_data TEXT NOT NULL,
                attributes TEXT NOT NULL,
                revoked INTEGER NOT NULL DEFAULT 0
            )
            """
        )
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM descriptors").fetchone()
        return int(row[0])

    def __contains__(self, cookie_id: int) -> bool:
        return self.get(cookie_id) is not None

    def __iter__(self) -> Iterator[CookieDescriptor]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT cookie_id, key_hex, service_data, attributes, revoked"
                " FROM descriptors"
            ).fetchall()
        return iter([self._row_to_descriptor(row) for row in rows])

    @staticmethod
    def _row_from_descriptor(descriptor: CookieDescriptor) -> tuple:
        return (
            _id_to_db(descriptor.cookie_id),
            descriptor.key.hex(),
            json.dumps(descriptor.service_data),
            json.dumps(descriptor.attributes.to_json()),
            int(descriptor.revoked),
        )

    _INSERT_SQL = (
        "INSERT OR REPLACE INTO descriptors"
        " (cookie_id, key_hex, service_data, attributes, revoked)"
        " VALUES (?, ?, ?, ?, ?)"
    )

    def add(self, descriptor: CookieDescriptor) -> CookieDescriptor:
        with self._lock:
            self._conn.execute(
                self._INSERT_SQL, self._row_from_descriptor(descriptor)
            )
            self._conn.commit()
        return descriptor

    def get(self, cookie_id: int) -> CookieDescriptor | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT cookie_id, key_hex, service_data, attributes, revoked"
                " FROM descriptors WHERE cookie_id = ?",
                (_id_to_db(cookie_id),),
            ).fetchone()
        if row is None:
            return None
        return self._row_to_descriptor(row)

    def revoke(self, cookie_id: int) -> bool:
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE descriptors SET revoked = 1 WHERE cookie_id = ?",
                (_id_to_db(cookie_id),),
            )
            self._conn.commit()
        return cursor.rowcount > 0

    @staticmethod
    def _row_to_descriptor(row: tuple) -> CookieDescriptor:
        cookie_id, key_hex, service_data, attributes, revoked = row
        return CookieDescriptor(
            cookie_id=_id_from_db(cookie_id),
            key=bytes.fromhex(key_hex),
            service_data=json.loads(service_data),
            attributes=CookieAttributes.from_json(json.loads(attributes)),
            revoked=bool(revoked),
        )


def _id_to_db(cookie_id: int) -> int:
    """Map an unsigned 64-bit id onto SQLite's signed INTEGER range."""
    return cookie_id - 2**63


def _id_from_db(value: int) -> int:
    return value + 2**63
