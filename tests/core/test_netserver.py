"""Live TCP cookie server tests: real sockets, JSON-lines protocol."""

import asyncio
import json
import os
import socket

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.core import (
    CookieAttributes,
    CookieDescriptor,
    CookieServer,
    Granularity,
    ServiceOffering,
    netserver,
)
from repro.core.cp import ShardedControlPlane
from repro.core.netserver import (
    AsyncCookieServer,
    CookieClient,
    JsonLineServer,
    _decode,
    _encode,
    _render,
)
from repro.core.server import GrantReply

from .test_controlplane import _Draws


def _make_server():
    server = CookieServer(clock=lambda: 0.0)
    server.offer(ServiceOffering(name="Boost", description="fast lane"))
    return server


def _run(coro):
    return asyncio.run(coro)


class TestProtocol:
    def test_list_services_over_tcp(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server())
            host, port = await tcp.start()
            client = CookieClient(host, port)
            try:
                response = await client.request({"op": "list_services"})
            finally:
                await client.close()
                await tcp.stop()
            return response

        response = _run(scenario())
        assert response["ok"]
        assert response["services"][0]["name"] == "Boost"

    def test_acquire_yields_usable_descriptor(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server())
            host, port = await tcp.start()
            client = CookieClient(host, port)
            try:
                response = await client.request(
                    {"op": "acquire", "user": "alice", "service": "Boost"}
                )
            finally:
                await client.close()
                await tcp.stop()
            return response

        response = _run(scenario())
        descriptor = CookieDescriptor.from_json(response["descriptor"])
        assert descriptor.service_data == "Boost"

    def test_multiple_requests_one_connection(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server())
            host, port = await tcp.start()
            client = CookieClient(host, port)
            try:
                first = await client.request({"op": "list_services"})
                second = await client.request(
                    {"op": "acquire", "user": "alice", "service": "Boost"}
                )
            finally:
                await client.close()
                await tcp.stop()
            return first, second

        first, second = _run(scenario())
        assert first["ok"] and second["ok"]

    def test_malformed_json_answered_with_error(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server())
            host, port = await tcp.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            await tcp.stop()
            return json.loads(line)

        response = _run(scenario())
        assert not response["ok"]
        assert "bad request" in response["error"]

    def test_non_object_request_rejected(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server())
            host, port = await tcp.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"[1, 2, 3]\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            await tcp.stop()
            return json.loads(line)

        assert not _run(scenario())["ok"]

    def test_concurrent_clients(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server())
            host, port = await tcp.start()

            async def one_client(user):
                client = CookieClient(host, port)
                try:
                    return await client.request(
                        {"op": "acquire", "user": user, "service": "Boost"}
                    )
                finally:
                    await client.close()

            responses = await asyncio.gather(
                *(one_client(f"user{i}") for i in range(5))
            )
            await tcp.stop()
            return responses

        responses = _run(scenario())
        assert all(r["ok"] for r in responses)
        ids = {r["descriptor"]["cookie_id"] for r in responses}
        assert len(ids) == 5

    def test_server_closed_connection_raises(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server())
            host, port = await tcp.start()
            client = CookieClient(host, port)
            await client.connect()
            await tcp.stop()
            with pytest.raises((ConnectionError, OSError)):
                await client.request({"op": "list_services"})
            await client.close()

        _run(scenario())


class TestAbuseGuards:
    """The JsonLineServer caps (PR 8): connection shedding + body cap."""

    def test_connection_cap_sheds_structured(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server(), max_connections=1)
            host, port = await tcp.start()
            first = CookieClient(host, port)
            try:
                # Occupy the only slot…
                await first.request({"op": "list_services"})
                # …then the next connection is shed, not hung.
                reader, writer = await asyncio.open_connection(host, port)
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                shed = json.loads(line)
                trailer = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                await writer.wait_closed()
            finally:
                await first.close()
                await tcp.stop()
            return shed, trailer, tcp.connections_shed

        shed, trailer, shed_count = _run(scenario())
        assert shed == {
            "ok": False,
            "shed": True,
            "error": "server at connection capacity (1)",
        }
        assert trailer == b""  # server closed after shedding
        assert shed_count == 1

    def test_slot_freed_after_client_disconnects(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server(), max_connections=1)
            host, port = await tcp.start()
            try:
                first = CookieClient(host, port)
                await first.request({"op": "list_services"})
                await first.close()
                await asyncio.sleep(0)  # let the server reap the writer
                second = CookieClient(host, port)
                response = await second.request({"op": "list_services"})
                await second.close()
            finally:
                await tcp.stop()
            return response

        assert _run(scenario())["ok"]

    def test_oversize_request_shed_and_connection_closed(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server(), max_request_bytes=128)
            host, port = await tcp.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # A newline-less trickle larger than the body cap: the
                # reader's buffer limit trips before any newline shows up.
                writer.write(b"x" * 4096)
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                shed = json.loads(line)
                trailer = await asyncio.wait_for(reader.read(), timeout=5.0)
            finally:
                writer.close()
                await writer.wait_closed()
                await tcp.stop()
            return shed, trailer, tcp.oversize_requests

        shed, trailer, oversize = _run(scenario())
        assert shed["shed"] and not shed["ok"]
        assert "128 bytes" in shed["error"]
        assert trailer == b""  # framing lost, server closed
        assert oversize == 1

    def test_request_under_cap_still_served(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server(), max_request_bytes=256)
            host, port = await tcp.start()
            client = CookieClient(host, port)
            try:
                return await client.request({"op": "list_services"})
            finally:
                await client.close()
                await tcp.stop()

        assert _run(scenario())["ok"]


LIST = b'{"op": "list_services"}\n'


async def _close_raw(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass


async def _until(condition):
    """Yield to the loop until ``condition()`` holds (5 s at most)."""

    async def poll():
        while not condition():
            await asyncio.sleep(0)

    await asyncio.wait_for(poll(), timeout=5.0)


class TestPipelining:
    """Replies resolve in request order, each to the caller that asked."""

    def test_timed_out_request_keeps_its_own_reply(self):
        async def scenario():
            hung_up = asyncio.Event()

            async def slow_echo(reader, writer):
                while line := await reader.readline():
                    await asyncio.sleep(0.05)
                    reply = {"echo": json.loads(line)["n"]}
                    writer.write(json.dumps(reply).encode() + b"\n")
                await _close_raw(writer)
                hung_up.set()

            echo = await asyncio.start_server(slow_echo, "127.0.0.1", 0)
            client = CookieClient(*echo.sockets[0].getsockname()[:2])
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(client.request({"n": 1}), 0.01)
                # The abandoned reply must not answer the next caller.
                return await client.request({"n": 2})
            finally:
                await client.close()
                await asyncio.wait_for(hung_up.wait(), timeout=5.0)
                echo.close()
                await echo.wait_closed()

        assert _run(scenario()) == {"echo": 2}

    def test_concurrent_requests_on_one_client_resolve_in_order(self):
        async def scenario():
            server = CookieServer(clock=lambda: 0.0)
            names = [f"service{i}" for i in range(12)]
            for name in names:
                server.offer(ServiceOffering(name=name))
            tcp = AsyncCookieServer(server)
            client = CookieClient(*await tcp.start())
            try:
                replies = await asyncio.gather(
                    *(
                        client.request(
                            {"op": "acquire", "user": "alice", "service": name}
                        )
                        for name in names
                    )
                )
            finally:
                await client.close()
                await tcp.stop()
            return names, replies, tcp.connections_handled

        names, replies, connections = _run(scenario())
        assert [r["descriptor"]["service_data"] for r in replies] == names
        assert len({r["descriptor"]["cookie_id"] for r in replies}) == 12
        assert connections == 1  # twelve callers, one connect

    def test_two_requests_in_one_segment_get_two_replies(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server())
            reader, writer = await asyncio.open_connection(*await tcp.start())
            try:
                writer.write(LIST + b'{"op": "nope"}\n')
                return [json.loads(await reader.readline()) for _ in range(2)]
            finally:
                await _close_raw(writer)
                await tcp.stop()

        first, second = _run(scenario())
        assert first["ok"] and first["services"][0]["name"] == "Boost"
        assert second == {"ok": False, "error": "unknown op 'nope'"}


class TestTransportGuards:
    """What the stream layer used to supply implicitly and the protocol
    now states: the body-cap boundary, back-pressure, stop() and a
    handler that raises."""

    @pytest.mark.parametrize(
        "length, served", [(127, True), (128, True), (129, False), (130, False)]
    )
    def test_body_cap_counts_the_newline(self, length, served):
        bare = len(json.dumps({"op": "list_services", "pad": ""})) + 1
        padded = json.dumps({"op": "list_services", "pad": "x" * (length - bare)})
        assert len(padded) + 1 == length

        async def scenario():
            tcp = AsyncCookieServer(_make_server(), max_request_bytes=128)
            reader, writer = await asyncio.open_connection(*await tcp.start())
            try:
                # One segment: a small request, the boundary line, another.
                writer.write(LIST + padded.encode() + b"\n" + LIST)
                writer.write_eof()
                replies = (await reader.read()).splitlines()
            finally:
                await _close_raw(writer)
                await tcp.stop()
            return [json.loads(line) for line in replies], tcp.oversize_requests

        replies, oversize = _run(scenario())
        if served:
            assert [reply["ok"] for reply in replies] == [True, True, True]
            assert oversize == 0
        else:
            # The line before it is answered, then one shed, then close.
            assert replies[0]["ok"]
            assert replies[1:] == [
                {"ok": False, "shed": True, "error": "request exceeds 128 bytes"}
            ]
            assert oversize == 1

    def test_newline_less_trickle_trips_at_the_cap(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server(), max_request_bytes=128)
            reader, writer = await asyncio.open_connection(*await tcp.start())
            try:
                for _ in range(127):
                    writer.write(b"x")
                    await asyncio.sleep(0)
                await _until(lambda: tcp._connections)
                (connection,) = tcp._connections
                await _until(lambda: len(connection.residue) == 127)
                before = tcp.oversize_requests
                writer.write(b"x")  # byte 128: no newline can fit any more
                shed = json.loads(await reader.readline())
                trailer = await reader.read()
            finally:
                await _close_raw(writer)
                await tcp.stop()
            return before, shed, trailer, tcp.oversize_requests

        before, shed, trailer, after = _run(scenario())
        assert (before, after) == (0, 1)
        assert shed["shed"] and "128 bytes" in shed["error"]
        assert trailer == b""

    def test_unread_replies_pause_reading(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            tcp = AsyncCookieServer(_make_server())
            host, port = await tcp.start()
            # A client that pipelines several MB and never reads a reply.
            deaf = socket.socket()
            deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            deaf.connect((host, port))
            deaf.setblocking(False)
            flood = loop.create_task(loop.sock_sendall(deaf, LIST * 200_000))
            other = CookieClient(host, port)
            try:
                await _until(lambda: tcp._connections)
                (connection,) = tcp._connections
                transport = connection.transport
                await _until(lambda: not transport.is_reading())
                buffered = transport.get_write_buffer_size()
                high_water = transport.get_write_buffer_limits()[1]
                reply = await other.request({"op": "list_services"})
                still_paused = not transport.is_reading()
            finally:
                flood.cancel()
                deaf.close()
                await other.close()
                await tcp.stop()
            # One read is at most 256 KiB of requests (asyncio's max_size).
            one_read = (256 * 1024 // len(LIST) + 1) * (len(json.dumps(reply)) + 1)
            return buffered, high_water + one_read, reply, still_paused

        buffered, bound, reply, still_paused = _run(scenario())
        assert 0 < buffered <= bound
        assert reply["ok"]  # other connections are still served
        assert still_paused

    def test_stop_closes_open_connections(self):
        async def scenario():
            tcp = AsyncCookieServer(_make_server())
            host, port = await tcp.start()
            clients = [CookieClient(host, port) for _ in range(2)]
            try:
                for client in clients:
                    await client.request({"op": "list_services"})
                assert tcp.open_connections == 2
                await tcp.stop()
                assert tcp.open_connections == 0
                for client in clients:
                    with pytest.raises(ConnectionError):
                        await client.request({"op": "list_services"})
            finally:
                for client in clients:
                    await client.close()

        _run(scenario())

    def test_handler_crash_ends_that_connection_only(self):
        class Flaky(JsonLineServer):
            def handle(self, request):
                if request.get("boom"):
                    raise RuntimeError("boom")
                return {"ok": True, "n": request["n"]}

        async def scenario():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context["exception"])
            )
            tcp = Flaky()
            host, port = await tcp.start()
            reader, writer = await asyncio.open_connection(host, port)
            client = CookieClient(host, port)
            try:
                writer.write(b'{"n": 1}\n{"boom": true}\n{"n": 3}\n')
                # The reply computed before the crash is written, then
                # the connection ends; the third line is never served.
                received = await reader.read()
                after = await client.request({"n": 4})
            finally:
                await _close_raw(writer)
                await client.close()
                await tcp.stop()
            return received, after, reported

        received, after, reported = _run(scenario())
        assert received == b'{"ok": true, "n": 1}\n'
        assert after == {"ok": True, "n": 4}  # the listener keeps serving
        assert [type(exc) for exc in reported] == [RuntimeError]


def test_unencodable_request_leaves_no_waiter_behind():
    """A payload the codec refuses raises before anything is queued, so
    the client's next request still gets its own reply."""

    async def scenario():
        tcp = AsyncCookieServer(_make_server())
        client = CookieClient(*await tcp.start())
        try:
            with pytest.raises(TypeError):
                await client.request({"op": "list_services", "bad": {1, 2}})
            return await asyncio.wait_for(
                client.request({"op": "acquire", "user": "alice", "service": "Boost"}),
                timeout=5.0,
            )
        finally:
            await client.close()
            await tcp.stop()

    reply = _run(scenario())
    assert reply["ok"] and reply["descriptor"]["service_data"] == "Boost"


# ----------------------------------------------------------------------
# The codec: each line is what json.dumps / json.loads do with default
# arguments, and a grant's line is written from its descriptor.
# ----------------------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()  # inf, -inf and nan included
    | st.text(),  # non-ASCII and surrogates included
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@pytest.mark.contract
@settings(max_examples=100, deadline=None)
@given(value=_JSON)
def test_encode_is_json_dumps(value):
    assert _encode(value) == json.dumps(value)


def _outcome(decode, line):
    try:
        return "value", json.dumps(decode(line))  # NaN-safe comparison
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.contract
@settings(max_examples=100, deadline=None)
@given(
    document=_JSON.map(json.dumps) | st.text(max_size=12),
    before=st.sampled_from(["", " ", "\t", "\r"]),
    after=st.sampled_from(["", " ", "\r", " \r", "x", "}", " 1", "\x00"]),
)
def test_decode_is_json_loads(document, before, after):
    line = before + document + after
    assume(not line.startswith("\ufeff"))  # json.loads alone refuses a BOM
    assert _outcome(_decode, line) == _outcome(json.loads, line)


@pytest.mark.contract
@pytest.mark.parametrize(
    "line", ["", " ", "\r", "[1, 2]", "3", '"text"', "null", '{"a": 1}{', "{"]
)
def test_decode_edge_lines_are_json_loads(line):
    assert _outcome(_decode, line) == _outcome(json.loads, line)


@pytest.mark.contract
def test_circular_payload_raises_and_the_codec_recovers():
    loop = {"op": "list_services"}
    loop["self"] = loop
    with pytest.raises(ValueError, match="Circular reference detected"):
        _encode(loop)
    # An encode that raised half-way leaves no false cycle behind.
    payload = {"op": "acquire", "nested": [object()]}
    with pytest.raises(TypeError):
        _encode(payload)
    payload["nested"] = [1]
    assert _encode(payload) == json.dumps(payload)
    assert _encode(loop["op"]) == '"list_services"'


def _factory(**fields):
    return lambda now: CookieAttributes(expires_at=now + 60.0, **fields)


_OFFERINGS = [
    ServiceOffering(name="Boost"),
    ServiceOffering(name="Forever", lifetime=None),
    ServiceOffering(name="Hourly", lifetime=3600),
    ServiceOffering(name="Tiered", service_data={"tier": 1, "name": "gold"}),
    ServiceOffering(name="Numbered", service_data=7),
    ServiceOffering(name="Café ☕"),
    ServiceOffering(name="Shared", attribute_factory=_factory(shared=True)),
    ServiceOffering(
        name="Packet", attribute_factory=_factory(granularity=Granularity.PACKET)
    ),
    ServiceOffering(
        name="Fenced",
        attribute_factory=_factory(extra={"constraints": {"ssid": "home"}}),
    ),
    ServiceOffering(
        name="Flows",
        attribute_factory=_factory(flow_fields=["src_ip", "dst_ip"]),
    ),
]


def _doors(clock):
    server = CookieServer(clock=clock)
    plane = ShardedControlPlane(clock=clock, shards=1)
    for door in (server, plane):
        for offering in _OFFERINGS:
            door.offer(offering)
    return {"server": server.handle_request, "plane": plane.handle_request}


@pytest.mark.contract
@pytest.mark.parametrize("door", ["server", "plane"])
@pytest.mark.parametrize("now", [1000.0, 1000, 1000.25])
def test_grant_line_is_json_dumps(door, now):
    handle = _doors(lambda: now)[door]
    for offering in _OFFERINGS:
        acquired = handle({"op": "acquire", "user": "al", "service": offering.name})
        assert isinstance(acquired, GrantReply)
        cookie_id = acquired["descriptor"]["cookie_id"]
        renewed = handle({"op": "renew", "user": "al", "cookie_id": cookie_id})
        for reply in (acquired, renewed):
            assert _render(reply) == json.dumps(dict(reply)), offering.name


@pytest.mark.contract
def test_default_block_grant_line_skips_the_encoder(monkeypatch):
    handle = _doors(lambda: 1000.0)["plane"]
    reply = handle({"op": "acquire", "user": "alice", "service": "Boost"})
    clone = reply.descriptor.clone()
    clone.revoke()
    revoked = GrantReply(clone)
    expected = [json.dumps(dict(reply)), json.dumps(revoked)]

    def refuse(value):
        raise AssertionError("a default-block grant went through the encoder")

    monkeypatch.setattr(netserver, "_encode", refuse)
    assert [_render(reply), _render(revoked)] == expected


@pytest.mark.contract
def test_pipelined_requests_get_the_bytes_sent_one_at_a_time(monkeypatch):
    lines = [
        b'{"op": "acquire", "user": "alice", "service": "Boost"}\n',
        b'{"op": "acquire", "user": "bob", "service": "Fenced"}\n',
    ]

    async def exchange(pipelined):
        draws = _Draws()
        monkeypatch.setattr(os, "urandom", draws.urandom)
        server = CookieServer(clock=lambda: 1000.0)
        for offering in _OFFERINGS:
            server.offer(offering)
        tcp = AsyncCookieServer(server)
        reader, writer = await asyncio.open_connection(*await tcp.start())
        try:
            if pipelined:
                writer.write(b"".join(lines))
                return [await reader.readline() for _ in lines]
            received = []
            for line in lines:
                writer.write(line)
                received.append(await reader.readline())
            return received
        finally:
            await _close_raw(writer)
            await tcp.stop()

    one_at_a_time = _run(exchange(pipelined=False))
    assert _run(exchange(pipelined=True)) == one_at_a_time
    assert [json.loads(line)["ok"] for line in one_at_a_time] == [True, True]
