"""Application-layer message models carried in packet payloads.

Middleboxes in the paper see three kinds of application data that matter:

- plaintext HTTP requests (headers are readable; cookies ride in a special
  request header),
- TLS ClientHello messages (the SNI is readable even for HTTPS; cookies
  ride in a custom TLS extension),
- opaque encrypted records (nothing readable at all).

These models expose exactly that visibility and nothing more, so DPI and
cookie matchers operate on realistic inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["HTTPRequest", "TLSClientHello", "TLSRecord"]


@dataclass
class HTTPRequest:
    """A plaintext HTTP/1.1 request with readable headers."""

    method: str = "GET"
    path: str = "/"
    host: str = ""
    headers: dict[str, str] = field(default_factory=dict)

    def header(self, name: str) -> str | None:
        """Case-insensitive header lookup (HTTP header names are)."""
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return None

    def set_header(self, name: str, value: str) -> None:
        """Set a header, replacing any case-variant of the same name."""
        lowered = name.lower()
        for key in list(self.headers):
            if key.lower() == lowered:
                del self.headers[key]
        self.headers[name] = value

    def wire_size(self) -> int:
        """Approximate serialized size of the request head in bytes."""
        size = len(self.method) + len(self.path) + 12  # request line + CRLFs
        size += len("Host: ") + len(self.host) + 2
        for key, value in self.headers.items():
            size += len(key) + 2 + len(value) + 2
        return size + 2


@dataclass
class TLSClientHello:
    """The first message of a TLS handshake.

    ``sni`` is the Server Name Indication — visible to middleboxes and the
    one hook classic DPI retains under HTTPS.  ``extensions`` maps TLS
    extension type numbers to raw bytes; the cookie transport uses a
    private-range extension type.
    """

    sni: str = ""
    extensions: dict[int, bytes] = field(default_factory=dict)

    def wire_size(self) -> int:
        size = 180 + len(self.sni)  # typical ClientHello baseline
        for data in self.extensions.values():
            size += 4 + len(data)
        return size


@dataclass
class TLSRecord:
    """An opaque encrypted TLS record: middleboxes learn only its size."""

    size: int = 0
