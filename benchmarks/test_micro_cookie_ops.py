"""Microbenchmarks — the primitive costs everything else is built from.

Cookie generation and verification are one HMAC-SHA256 each plus a hash
lookup; carriers add encode/decode.  These numbers bound what any Python
deployment of the mechanism can do and contextualize Fig. 4.
"""

from repro.core import (
    CookieDescriptor,
    CookieGenerator,
    CookieMatcher,
    DescriptorStore,
)
from repro.core.transport import default_registry
from repro.netsim.appmsg import HTTPRequest
from repro.netsim.packet import make_tcp_packet


def _descriptor_env():
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="Boost"))
    matcher = CookieMatcher(store, nct=1e9)
    generator = CookieGenerator(descriptor, clock=lambda: 0.0)
    return store, descriptor, matcher, generator


def test_micro_cookie_generation(benchmark):
    _store, _descriptor, _matcher, generator = _descriptor_env()
    cookie = benchmark(generator.generate)
    assert cookie.cookie_id == _descriptor.cookie_id


def test_micro_cookie_verification(benchmark):
    _store, descriptor, matcher, generator = _descriptor_env()

    # Verification consumes each cookie once (replay cache), so feed a
    # fresh cookie per round via the setup hook.
    def setup():
        return (generator.generate(),), {}

    def verify(cookie):
        return matcher.verify(cookie, now=0.0)

    result = benchmark.pedantic(verify, setup=setup, rounds=2000, iterations=1)
    assert result is descriptor


def test_micro_wire_roundtrip(benchmark):
    _store, _descriptor, _matcher, generator = _descriptor_env()
    cookie = generator.generate()

    def roundtrip():
        from repro.core.cookie import Cookie

        return Cookie.from_text(cookie.to_text())

    assert benchmark(roundtrip) == cookie


def test_micro_http_attach_extract(benchmark):
    _store, _descriptor, _matcher, generator = _descriptor_env()
    registry = default_registry()

    def attach_extract():
        packet = make_tcp_packet(
            "10.0.0.1", 5000, "1.2.3.4", 80,
            content=HTTPRequest(host="example.com"), payload_size=200,
        )
        registry.attach(packet, generator.generate())
        return registry.extract(packet)

    found = benchmark(attach_extract)
    assert found


def test_micro_replay_cache_ops(benchmark):
    from repro.core.matcher import ReplayCache

    cache = ReplayCache(window=5.0)
    counter = [0]

    def op():
        counter[0] += 1
        return cache.check_and_record(
            counter[0].to_bytes(16, "big"), timestamp=0.0
        )

    assert benchmark(op) is False


# ----------------------------------------------------------------------
# SQLite descriptor store: the control-plane tuning.
# ----------------------------------------------------------------------

def _sqlite_store(tmp_path, name):
    """A file-backed store (WAL is meaningless for ':memory:')."""
    from repro.core import SQLiteDescriptorStore

    return SQLiteDescriptorStore(str(tmp_path / f"{name}.db"))


def test_micro_sqlite_wal_enabled(tmp_path):
    """The tuning is actually on for file databases."""
    store = _sqlite_store(tmp_path, "wal")
    mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
    sync = store._conn.execute("PRAGMA synchronous").fetchone()[0]
    store.close()
    assert mode == "wal"
    assert sync == 1  # NORMAL
