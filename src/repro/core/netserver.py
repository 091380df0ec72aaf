"""A real cookie server and client over TCP (newline-delimited JSON).

Simulations call :meth:`CookieServer.handle_request` in-process; this
module exposes the same API over an actual socket so the examples can run a
live descriptor-acquisition exchange, as the paper's prototype does with
its JSON API.

The protocol is one JSON object per line in each direction.  It is
deliberately boring: the interesting guarantees (authentication,
revocability, auditability) live in :class:`CookieServer`, not in the
framing.  A client may pipeline: every complete line of one read is
answered, in order, with one write.

:class:`JsonLineServer` is the shared transport: it owns the socket
lifecycle plus the abuse guards every JSON-lines listener needs — a
**concurrent-connection cap** (over-limit clients get a structured
``{"shed": true}`` error and a close instead of hanging in the accept
queue), a **per-request body cap** that is a length test on the
unterminated residue (a line is served iff it fits in
``max_request_bytes`` with its newline, so a slow-loris client trickling
bytes without one is shed at the cap instead of growing the buffer
forever) and **write back-pressure** (while a connection's write buffer is
over the transport's high-water mark its reads are paused, so a client
that pipelines and never reads cannot make the server buffer its
replies).  :class:`AsyncCookieServer` plugs a :class:`CookieServer` into
it; :class:`repro.core.cp.AsyncControlPlaneServer` does the same for the
sharded control plane.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Any

from .server import CookieServer

__all__ = [
    "AsyncCookieServer",
    "CookieClient",
    "JsonLineServer",
    "request_over_tcp",
]

MAX_LINE_BYTES = 1_000_000
#: Default concurrent-connection cap; generous for tests and examples,
#: small enough that a connection flood degrades to fast structured
#: sheds instead of fd exhaustion.
MAX_CONNECTIONS = 64

# The one codec both ends share: what json.dumps / json.loads do with
# default arguments (trailing garbage still refused), minus the wrappers.
_encode = json.JSONEncoder().encode
_decode = json.JSONDecoder().decode


def _frame(replies: list[str]) -> bytes:
    return ("\n".join(replies) + "\n").encode("utf-8")


def _shed(error: str) -> str:
    return _encode({"ok": False, "shed": True, "error": error})


class _Connection(asyncio.Protocol):
    """One accepted socket of a :class:`JsonLineServer`."""

    def __init__(self, server: JsonLineServer) -> None:
        self.server = server
        self.residue = b""

    def connection_made(self, transport: asyncio.Transport) -> None:
        server = self.server
        self.transport = transport
        server.connections_handled += 1
        if len(server._connections) >= server.max_connections:
            # Shed, don't hang: the client gets a structured error and a
            # clean close instead of an unexplained stall.
            server.connections_shed += 1
            cap = server.max_connections
            transport.write(_frame([_shed(f"server at connection capacity ({cap})")]))
            transport.close()
        else:
            server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)

    # Back-pressure: a peer that does not read its replies is not read
    # from, so the write buffer stops at the high-water mark plus the
    # replies to the read that crossed it.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        server = self.server
        cap = server.max_request_bytes
        *lines, self.residue = (self.residue + data).split(b"\n")
        replies: list[str] = []
        try:
            for line in lines:
                if len(line) >= cap:  # over the cap once its newline counts
                    self.residue = line
                    break
                try:
                    request = _decode(line.decode("utf-8"))
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                    response = server.handle(request)
                except ValueError as exc:
                    response = {"ok": False, "error": f"bad request: {exc}"}
                replies.append(_encode(response))
        finally:
            # Also on the way out of a handle() that raised: the replies
            # already computed are the peer's.  An oversize line, or a
            # residue that can no longer fit, has lost framing: answer
            # once and close rather than resynchronize.
            oversize = len(self.residue) >= cap
            if oversize:
                server.oversize_requests += 1
                replies.append(_shed(f"request exceeds {cap} bytes"))
            if replies:
                self.transport.write(_frame(replies))
            if oversize:
                self.transport.close()


class JsonLineServer:
    """JSON-lines-over-TCP transport with connection and body caps."""

    COUNTERS = ("connections_handled", "connections_shed", "oversize_requests")
    GAUGES = ("open_connections",)

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = MAX_CONNECTIONS,
        max_request_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if max_request_bytes < 2:
            raise ValueError("max_request_bytes must be >= 2")
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_request_bytes = max_request_bytes
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self.connections_handled = 0
        self.connections_shed = 0
        self.oversize_requests = 0

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    def register_telemetry(self, registry, prefix: str = "netserver") -> None:
        """Export the transport's connection and shed counts into a
        :class:`~repro.telemetry.MetricsRegistry`."""
        registry.register(self, prefix, self.COUNTERS, self.GAUGES)

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Serve one request dict; subclasses supply the application."""
        raise NotImplementedError

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the (host, port) actually bound
        (``port=0`` picks a free port)."""
        self._asyncio_server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        sockname = self._asyncio_server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening and drop any connections still open."""
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            for connection in list(self._connections):
                # abort, not close: a peer that never reads its replies
                # would keep a flushing close open forever.
                connection.transport.abort()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        # Give the closed transports their turn to report connection_lost.
        await asyncio.sleep(0)


class AsyncCookieServer(JsonLineServer):
    """Serves a :class:`CookieServer` over TCP with JSON-lines framing."""

    def __init__(
        self,
        server: CookieServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = MAX_CONNECTIONS,
        max_request_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            max_connections=max_connections,
            max_request_bytes=max_request_bytes,
        )
        self.server = server

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        return self.server.handle_request(request)


class CookieClient(asyncio.Protocol):
    """Async client speaking the JSON-lines protocol.

    One client holds one connection.  Any number of :meth:`request` calls
    may be in flight on it: replies resolve in request order, and a
    caller that gave up (cancelled, timed out) still owns its reply, so
    it never lands on the next caller.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._transport: asyncio.Transport | None = None
        self._connecting = asyncio.Lock()
        self._waiters: deque[asyncio.Future[Any]] = deque()
        self._residue = b""

    async def connect(self) -> None:
        async with self._connecting:
            if self._transport is None:
                self._transport, _ = await asyncio.get_running_loop().create_connection(
                    lambda: self, self.host, self.port
                )

    async def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None
            # The socket itself closes on the loop's next turn.
            await asyncio.sleep(0)

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request and await its response."""
        if self._transport is None:
            await self.connect()
        assert self._transport is not None
        if self._transport.is_closing():
            raise ConnectionError("cookie server closed the connection")
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        self._transport.write(_frame([_encode(payload)]))
        response = await waiter
        if not isinstance(response, dict):
            raise ValueError("malformed response from cookie server")
        return response

    def data_received(self, data: bytes) -> None:
        *lines, self._residue = (self._residue + data).split(b"\n")
        for line in lines:
            if not self._waiters:
                continue  # nobody asked (a connection-cap shed): dropped
            waiter = self._waiters.popleft()
            if not waiter.done():
                try:
                    waiter.set_result(_decode(line.decode("utf-8")))
                except ValueError as exc:
                    waiter.set_exception(exc)

    def connection_lost(self, exc: Exception | None) -> None:
        self._residue = b""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(
                    ConnectionError("cookie server closed the connection")
                )


def request_over_tcp(host: str, port: int, payload: dict[str, Any]) -> dict[str, Any]:
    """Synchronous one-shot request helper (connect, ask, disconnect).

    Handy as a :class:`repro.core.client.UserAgent` channel when the agent
    runs outside an event loop::

        agent = UserAgent(..., channel=lambda req: request_over_tcp(h, p, req))
    """

    async def _go() -> dict[str, Any]:
        client = CookieClient(host, port)
        try:
            return await client.request(payload)
        finally:
            await client.close()

    return asyncio.run(_go())
