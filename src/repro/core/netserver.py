"""A real cookie server and client over TCP (newline-delimited JSON).

Simulations call :meth:`CookieServer.handle_request` in-process; this
module exposes the same API over an actual socket so the examples can run a
live descriptor-acquisition exchange, as the paper's prototype does with
its JSON API.

The protocol is one JSON object per line in each direction.  It is
deliberately boring: the interesting guarantees (authentication,
revocability, auditability) live in :class:`CookieServer`, not in the
framing.  A client may pipeline: every complete line of one read is
answered, in order, with one write.  Each line is what ``json.dumps``
writes with default arguments, from one codec built per process; a
grant's reply (:class:`~repro.core.server.GrantReply`) is written from
its descriptor rather than by walking the reply dict again.

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
from json.encoder import c_make_encoder, encode_basestring_ascii
from json.scanner import make_scanner
from typing import Any, Callable

from .attributes import DEFAULT_ATTRIBUTES
from .descriptor import CookieDescriptor
from .server import CookieServer, GrantReply

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


# The one codec both ends share, built once per process: exactly what
# json.dumps / json.loads do with default arguments, minus the work
# their wrappers repeat on every call.
def _make_encode() -> Callable[[Any], str]:
    stdlib = json.JSONEncoder()
    if c_make_encoder is None:  # no C accelerator: what json itself falls back to
        return stdlib.encode
    markers: dict[int, Any] = {}  # circular-reference guard, empty between calls
    encoder = c_make_encoder(
        markers, stdlib.default, encode_basestring_ascii, stdlib.indent,
        stdlib.key_separator, stdlib.item_separator, stdlib.sort_keys,
        stdlib.skipkeys, stdlib.allow_nan,
    )
    join = "".join

    def encode(value: Any) -> str:
        try:
            return join(encoder(value, 0))
        except BaseException:
            markers.clear()  # what the raise left behind would be a false cycle
            raise

    return encode


def _make_decode() -> Callable[[str], Any]:
    stdlib = json.JSONDecoder()
    scan = make_scanner(stdlib)
    slow = stdlib.decode

    def decode(line: str) -> Any:
        # One bare document is the whole line, or the stdlib decides:
        # whitespace, "\r", trailing garbage and every error message.
        try:
            value, end = scan(line, 0)
        except StopIteration:
            return slow(line)
        return value if end == len(line) else slow(line)

    return decode


_encode = _make_encode()
_decode = _make_decode()


def _cut_grant_text() -> list[str]:
    """The fixed text of a grant line whose block is the default one,
    cut where its five variable fields go: a real reply, encoded with
    each of those fields set to one marker string."""
    reply = GrantReply(CookieDescriptor(1, b"\0", "", DEFAULT_ATTRIBUTES))
    body = reply["descriptor"]
    marker = "\0"
    body["cookie_id"] = body["service_data"] = body["revoked"] = marker
    body["attributes"]["expires_at"] = body["key"] = marker
    pieces = _encode(reply).split(_encode(marker))
    assert len(pieces) == 6, pieces
    return pieces


_GRANT_TEXT = _cut_grant_text()
#: The default block's field objects: a grant's block is the default
#: one when it holds these very objects in every field but expires_at.
(_GRANULARITY, _FLOW_FIELDS, _APPLY_REVERSE, _SHARED, _ACK_COOKIE,
 _DELIVERY_GUARANTEE, _TRANSPORTS, _, _NO_EXTRA) = DEFAULT_ATTRIBUTES
_INF = float("inf")


def _render(reply: Any) -> str:
    """One reply's line.  A grant with the default attribute block, and
    variable fields of the types a grant holds, is the fixed text plus
    those five fields; every other reply is ``_encode``'s."""
    if reply.__class__ is GrantReply:
        descriptor = reply.descriptor
        (granularity, flow_fields, apply_reverse, shared, ack_cookie,
         delivery_guarantee, transports, expires_at, extra) = descriptor.attributes
        cookie_id = descriptor.cookie_id
        service_data = descriptor.service_data
        revoked = descriptor.revoked
        if (
            granularity is _GRANULARITY
            and flow_fields is _FLOW_FIELDS
            and apply_reverse is _APPLY_REVERSE
            and shared is _SHARED
            and ack_cookie is _ACK_COOKIE
            and delivery_guarantee is _DELIVERY_GUARANTEE
            and transports is _TRANSPORTS
            and extra is _NO_EXTRA
            and cookie_id.__class__ is int
            and service_data.__class__ is str
            and revoked.__class__ is bool
            and (expires_at is None or expires_at.__class__ is float
                 and -_INF < expires_at < _INF)
        ):
            head, after_id, after_data, after_expiry, after_revoked, tail = _GRANT_TEXT
            return (
                f"{head}{cookie_id!r}"
                f"{after_id}{encode_basestring_ascii(service_data)}"
                f"{after_data}{'null' if expires_at is None else repr(expires_at)}"
                f"{after_expiry}{'true' if revoked else 'false'}"
                f'{after_revoked}"{descriptor.key.hex()}"{tail}'
            )
    return _encode(reply)


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
                replies.append(_render(response))
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
        # Encode before queueing: a payload that cannot be encoded must
        # not leave a waiter behind to take the next request's reply.
        line = _frame([_encode(payload)])
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        self._transport.write(line)
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
