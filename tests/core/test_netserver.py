"""Live TCP cookie server tests: real sockets, JSON-lines protocol."""

import asyncio
import json
import socket

import pytest

from repro.core import (
    CookieDescriptor,
    CookieServer,
    ServiceOffering,
)
from repro.core.netserver import AsyncCookieServer, CookieClient, JsonLineServer


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
