"""Descriptor store tests: in-memory and SQLite, including persistence."""

import pytest

from repro.core.attributes import CookieAttributes
from repro.core.descriptor import CookieDescriptor
from repro.core.store import DescriptorStore, SQLiteDescriptorStore


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    if request.param == "memory":
        yield DescriptorStore()
    else:
        sqlite_store = SQLiteDescriptorStore(":memory:")
        yield sqlite_store
        sqlite_store.close()


class TestCommonInterface:
    def test_add_and_get(self, store):
        descriptor = CookieDescriptor.create(service_data="Boost")
        store.add(descriptor)
        fetched = store.get(descriptor.cookie_id)
        assert fetched is not None
        assert fetched.cookie_id == descriptor.cookie_id
        assert fetched.key == descriptor.key
        assert fetched.service_data == "Boost"

    def test_get_missing_returns_none(self, store):
        assert store.get(12345) is None

    def test_contains_and_len(self, store):
        descriptor = CookieDescriptor.create()
        assert descriptor.cookie_id not in store
        store.add(descriptor)
        assert descriptor.cookie_id in store
        assert len(store) == 1

    def test_remove(self, store):
        descriptor = CookieDescriptor.create()
        store.add(descriptor)
        removed = store.remove(descriptor.cookie_id)
        assert removed is not None
        assert len(store) == 0
        assert store.remove(descriptor.cookie_id) is None

    def test_revoke(self, store):
        descriptor = CookieDescriptor.create()
        store.add(descriptor)
        assert store.revoke(descriptor.cookie_id)
        assert store.get(descriptor.cookie_id).revoked
        assert not store.revoke(999_999)

    def test_iteration(self, store):
        ids = {store.add(CookieDescriptor.create()).cookie_id for _ in range(3)}
        assert {d.cookie_id for d in store} == ids

    def test_replace_same_id(self, store):
        descriptor = CookieDescriptor.create(service_data="old")
        store.add(descriptor)
        replacement = CookieDescriptor(
            cookie_id=descriptor.cookie_id, key=b"new-key", service_data="new"
        )
        store.add(replacement)
        assert len(store) == 1
        assert store.get(descriptor.cookie_id).service_data == "new"


class TestSQLitePersistence:
    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "descriptors.db")
        first = SQLiteDescriptorStore(path)
        descriptor = CookieDescriptor.create(
            service_data="Boost",
            attributes=CookieAttributes(shared=True, expires_at=42.0),
        )
        first.add(descriptor)
        first.close()

        second = SQLiteDescriptorStore(path)
        fetched = second.get(descriptor.cookie_id)
        assert fetched is not None
        assert fetched.key == descriptor.key
        assert fetched.attributes.shared
        assert fetched.attributes.expires_at == 42.0
        second.close()

    def test_revocation_persists(self, tmp_path):
        path = str(tmp_path / "descriptors.db")
        first = SQLiteDescriptorStore(path)
        descriptor = store_descriptor = CookieDescriptor.create()
        first.add(store_descriptor)
        first.revoke(descriptor.cookie_id)
        first.close()
        second = SQLiteDescriptorStore(path)
        assert second.get(descriptor.cookie_id).revoked
        second.close()

    def test_large_unsigned_ids(self):
        store = SQLiteDescriptorStore(":memory:")
        descriptor = CookieDescriptor(cookie_id=2**64 - 1, key=b"k")
        store.add(descriptor)
        assert store.get(2**64 - 1) is not None
        store.close()

    def test_complex_service_data(self):
        store = SQLiteDescriptorStore(":memory:")
        descriptor = CookieDescriptor.create(
            service_data={"name": "zero-rate", "tier": 2}
        )
        store.add(descriptor)
        assert store.get(descriptor.cookie_id).service_data == {
            "name": "zero-rate",
            "tier": 2,
        }
        store.close()


class TestControlPlaneTuning:
    """SQLite tuning: WAL, and the expiry column every database has."""

    def test_wal_mode_on_file_database(self, tmp_path):
        store = SQLiteDescriptorStore(str(tmp_path / "wal.db"))
        assert (
            store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        )
        store.close()

    def test_database_without_the_expiry_column_is_refused(self, tmp_path):
        """No deployment has a database from before the expiry column,
        so there is no migration: opening one fails, loudly."""
        import sqlite3

        path = str(tmp_path / "legacy.db")
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE descriptors (cookie_id INTEGER PRIMARY KEY,"
            " key_hex TEXT NOT NULL, service_data TEXT NOT NULL,"
            " attributes TEXT NOT NULL, revoked INTEGER NOT NULL DEFAULT 0)"
        )
        conn.commit()
        conn.close()
        with pytest.raises(sqlite3.OperationalError, match="expires_at"):
            SQLiteDescriptorStore(path)
