"""Deterministic fault injection for pipeline experiments.

The netsim delivers every packet perfectly, which proves nothing about the
paper's safety claims — those rest on cookies surviving *mis*behaviour:
loss, duplication, reordering, jitter, bit errors, and NCT-bounded clock
skew (the conditions FairNet-style measurement shows are the norm on real
paths).  :class:`FaultInjector` is an :class:`~repro.netsim.middlebox.Element`
you splice in front of any element or link to subject it to exactly those
faults, reproducibly: every decision comes from one seeded PRNG, so a
chaos run with a pinned seed replays bit-identically.

Corruption is aimed where it hurts: the injector flips bits (or mangles
text) in the **cookie wire region** of whatever carrier the packet uses —
TCP option, UDP shim, IPv6 extension, TLS extension, HTTP header.  Every
carrier already treats an unparseable cookie as
:class:`~repro.core.errors.MalformedCookie` and degrades to "no cookie
here", so a corrupted cookie must surface as a charged/best-effort flow,
never a crash; the chaos soak asserts exactly that.

Clock skew is not an in-flight fault: cookie timestamps are *signed*, so
a middlebox cannot alter them without tripping the HMAC.  Skew is a
property of the minting host — wrap the host's clock in
:class:`SkewedClock` so its agent signs honestly-skewed timestamps, and
the verifier's NCT window does the rest.
"""

from __future__ import annotations

import copy
import errno
import os
import random
import signal
from dataclasses import dataclass
from typing import Callable

from .events import EventLoop
from .middlebox import Element
from .packet import Packet

__all__ = [
    "DiskFaultInjector",
    "DiskFaultPlan",
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "SkewedClock",
    "TornWrite",
]

# Carrier constants, duplicated from repro.core.transport so the netsim
# layer stays below core (the values are wire constants, not code).
_TCP_COOKIE_OPTION_KIND = 253
_IPV6_COOKIE_OPTION_TYPE = 0x1E
_TLS_COOKIE_EXTENSION_TYPE = 0xFFCE
_HTTP_COOKIE_HEADER = "X-Network-Cookie"


class SkewedClock:
    """A host clock offset by a constant ``skew`` from the base clock.

    Hand this to the host's :class:`~repro.core.client.UserAgent` /
    :class:`~repro.core.generator.CookieGenerator`: its cookies carry
    honestly-signed but skewed timestamps, exercising the verifier's NCT
    window from both sides (``skew`` may be negative).
    """

    def __init__(self, base: Callable[[], float], skew: float) -> None:
        self.base = base
        self.skew = skew

    def __call__(self) -> float:
        return self.base() + self.skew


@dataclass(frozen=True)
class FaultPlan:
    """Per-packet fault probabilities (each drawn independently).

    Rates are probabilities in [0, 1].  ``delay_jitter_s`` is the maximum
    extra latency applied to packets selected by ``delay_rate`` (needs an
    event loop; in batch mode a delayed packet is displaced to the end of
    its batch instead).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    delay_jitter_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "drop_rate",
            "duplicate_rate",
            "reorder_rate",
            "corrupt_rate",
            "delay_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_jitter_s < 0:
            raise ValueError("delay_jitter_s must be non-negative")


@dataclass
class FaultStats:
    """What the injector actually did (ground truth for invariants)."""

    packets: int = 0
    drops: int = 0
    duplicates: int = 0
    reorders: int = 0
    corruptions: int = 0
    delays: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class FaultInjector(Element):
    """Element that drops, duplicates, reorders, delays, and corrupts.

    Per packet, one roll per fault class is drawn from the seeded PRNG in
    a fixed order (drop, corrupt, duplicate, reorder, delay) so runs are
    reproducible regardless of which faults fire.  Semantics:

    - **drop**: the packet vanishes.
    - **corrupt**: bits flip inside the cookie wire region (whichever
      carrier holds it); packets without a cookie pass unharmed.  The
      packet's ``meta["fault_corrupted"]`` is set and ``on_corrupt`` (if
      given) is called — harnesses use this as ground truth for "this
      flow's cookie was mangled".
    - **duplicate**: a deep copy (``meta["fault_duplicate"]``) follows
      the original — the network replaying the same bytes on the same
      path, which must trip the verifier's replay cache, not crash it.
    - **reorder**: the packet is held back and re-emitted after the next
      forwarded packet (an adjacent swap).
    - **delay**: the packet is re-emitted ``uniform(0, delay_jitter_s)``
      later via the event loop (batch mode: displaced to batch end).

    Call :meth:`flush` when the traffic source is exhausted to release a
    held reordered packet.
    """

    def __init__(
        self,
        plan: FaultPlan,
        loop: EventLoop | None = None,
        name: str = "fault-injector",
        on_corrupt: Callable[[Packet], None] | None = None,
    ) -> None:
        super().__init__(name)
        if plan.delay_rate > 0 and plan.delay_jitter_s > 0 and loop is None:
            raise ValueError("delay jitter needs an event loop")
        self.plan = plan
        self.loop = loop
        self.rng = random.Random(plan.seed)
        self.on_corrupt = on_corrupt
        self.stats = FaultStats()
        self._held: Packet | None = None

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        plan = self.plan
        rng = self.rng
        stats = self.stats
        stats.packets += 1
        # One roll per fault class, fixed order, drawn before branching:
        # the PRNG stream is a pure function of the packet count.
        drop = rng.random() < plan.drop_rate
        corrupt = rng.random() < plan.corrupt_rate
        duplicate = rng.random() < plan.duplicate_rate
        reorder = rng.random() < plan.reorder_rate
        delay = rng.random() < plan.delay_rate
        if drop:
            stats.drops += 1
            return
        if corrupt and self._corrupt(packet):
            stats.corruptions += 1
        if delay and plan.delay_jitter_s > 0:
            stats.delays += 1
            assert self.loop is not None
            self.loop.schedule(
                rng.uniform(0.0, plan.delay_jitter_s),
                lambda p=packet: self._forward(p),
            )
        else:
            self._forward(packet, hold=reorder)
        if duplicate:
            stats.duplicates += 1
            self._forward(self._clone(packet))

    def _forward(self, packet: Packet, hold: bool = False) -> None:
        """Emit, honouring the one-slot reorder buffer: a held packet is
        released right after the next packet overtakes it."""
        if hold and self._held is None:
            self._held = packet
            return
        self.emit(packet)
        held = self._held
        if held is not None:
            self._held = None
            self.stats.reorders += 1
            self.emit(held)

    def flush(self) -> None:
        """Release a held (reordered) packet at end of stream."""
        held = self._held
        if held is not None:
            self._held = None
            self.stats.reorders += 1
            self.emit(held)

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def process_batch(self, packets: list[Packet]) -> None:
        """Batch faults: same per-packet rolls; reordering swaps within
        the batch and delayed packets are displaced to the batch's end
        (a batch is one observation instant, so lateness can only mean
        "after everything else this tick")."""
        plan = self.plan
        rng = self.rng
        stats = self.stats
        out: list[Packet] = []
        late: list[Packet] = []
        swap_pending = False
        for packet in packets:
            stats.packets += 1
            drop = rng.random() < plan.drop_rate
            corrupt = rng.random() < plan.corrupt_rate
            duplicate = rng.random() < plan.duplicate_rate
            reorder = rng.random() < plan.reorder_rate
            delay = rng.random() < plan.delay_rate
            if drop:
                stats.drops += 1
                continue
            if corrupt and self._corrupt(packet):
                stats.corruptions += 1
            if delay and plan.delay_jitter_s > 0:
                stats.delays += 1
                late.append(packet)
            elif swap_pending and out:
                stats.reorders += 1
                out.insert(len(out) - 1, packet)
                swap_pending = False
            else:
                out.append(packet)
            if duplicate:
                stats.duplicates += 1
                out.append(self._clone(packet))
            if reorder:
                swap_pending = True
        out.extend(late)
        self.emit_batch(out)

    # ------------------------------------------------------------------
    # Corruption
    # ------------------------------------------------------------------
    def _clone(self, packet: Packet) -> Packet:
        dup = copy.deepcopy(packet)
        dup.meta["fault_duplicate"] = True
        return dup

    def _corrupt(self, packet: Packet) -> bool:
        """Flip bits in the packet's cookie wire region, if it has one.

        Works directly on carrier storage (duck-typed so netsim does not
        import core): TCP options, UDP shim, IPv6 extensions, TLS
        extension, HTTP header.  Returns True if something was mangled.
        """
        rng = self.rng
        corrupted = False
        l4 = packet.l4
        options = getattr(l4, "options", None)
        if options:
            for option in options:
                if getattr(option, "kind", None) == _TCP_COOKIE_OPTION_KIND:
                    option.data = _flip_bit(option.data, rng)
                    corrupted = True
                    break
        ip = packet.ip
        extensions = getattr(ip, "extensions", None)
        if not corrupted and extensions:
            for extension in extensions:
                if (
                    getattr(extension, "option_type", None)
                    == _IPV6_COOKIE_OPTION_TYPE
                ):
                    extension.data = _flip_bit(extension.data, rng)
                    corrupted = True
                    break
        content = packet.payload.content
        if not corrupted and hasattr(content, "cookie_bytes"):
            content.cookie_bytes = _flip_bit(content.cookie_bytes, rng)
            corrupted = True
        hello_extensions = getattr(content, "extensions", None)
        if not corrupted and isinstance(hello_extensions, dict):
            data = hello_extensions.get(_TLS_COOKIE_EXTENSION_TYPE)
            if data:
                hello_extensions[_TLS_COOKIE_EXTENSION_TYPE] = _flip_bit(
                    data, rng
                )
                corrupted = True
        if (
            not corrupted
            and hasattr(content, "header")
            and hasattr(content, "set_header")
        ):
            text = content.header(_HTTP_COOKIE_HEADER)
            if text:
                content.set_header(_HTTP_COOKIE_HEADER, _mangle_text(text, rng))
                corrupted = True
        if corrupted:
            packet.meta["fault_corrupted"] = True
            if self.on_corrupt is not None:
                self.on_corrupt(packet)
        return corrupted

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def register_telemetry(self, registry, prefix: str = "faults") -> None:
        registry.register(self, prefix, counters=("stats",))


class TornWrite(OSError):
    """A torn-write injection fired: only a prefix of the frame reached
    the file.  In a real crash the process is gone at this point, so the
    raising writer must be treated as dead — only recovery through a
    fresh :class:`~repro.services.billing.journal.BillingJournal` makes
    the directory writable again."""


@dataclass(frozen=True)
class DiskFaultPlan:
    """Deterministic storage faults for write-ahead journals.

    Unlike :class:`FaultPlan`, these are *not* probabilistic: crash
    drills must tear the exact same byte of the exact same append every
    run, so faults are addressed by append index (0-based count of
    appends the injector has seen).

    - ``torn_write_at``: on that append, write only ``torn_write_bytes``
      of the frame to the file (a prefix), then either raise
      :class:`TornWrite` (in-process tests) or — if ``kill_on_tear`` —
      fsync the torn prefix and SIGKILL the process (the crash drill's
      "power loss mid-append").
    - ``enospc_at``: on that append, raise ``OSError(ENOSPC)`` before
      any byte is written (the journal maps it to ``JournalFull``).
    """

    torn_write_at: int | None = None
    torn_write_bytes: int = 0
    enospc_at: int | None = None
    kill_on_tear: bool = False

    def __post_init__(self) -> None:
        if self.torn_write_bytes < 0:
            raise ValueError("torn_write_bytes must be >= 0")


@dataclass
class DiskFaultInjector:
    """Hooks a journal's append path (``disk_faults=`` parameter).

    The journal calls :meth:`on_append` with its open file and the full
    frame; a clean append is a plain ``file.write(frame)``.
    """

    plan: DiskFaultPlan
    appends_seen: int = 0
    torn_writes: int = 0
    enospc_errors: int = 0

    def on_append(self, file, frame: bytes) -> None:
        index = self.appends_seen
        self.appends_seen += 1
        plan = self.plan
        if plan.enospc_at is not None and index == plan.enospc_at:
            self.enospc_errors += 1
            raise OSError(errno.ENOSPC, "injected disk full")
        if plan.torn_write_at is not None and index == plan.torn_write_at:
            self.torn_writes += 1
            prefix = frame[: min(plan.torn_write_bytes, len(frame))]
            file.write(prefix)
            file.flush()
            os.fsync(file.fileno())
            if plan.kill_on_tear:
                # Power loss mid-append: the torn prefix is durable, the
                # process is gone.  SIGKILL cannot be caught or blocked.
                os.kill(os.getpid(), signal.SIGKILL)
            raise TornWrite(
                f"torn write at append {index}: "
                f"{len(prefix)}/{len(frame)} bytes reached disk"
            )
        file.write(frame)

    def as_dict(self) -> dict[str, int]:
        return {
            "appends_seen": self.appends_seen,
            "torn_writes": self.torn_writes,
            "enospc_errors": self.enospc_errors,
        }


def _flip_bit(data: bytes, rng: random.Random) -> bytes:
    """Flip one random bit (bytes in, bytes out; empty stays empty)."""
    if not data:
        return data
    index = rng.randrange(len(data))
    mask = 1 << rng.randrange(8)
    return data[:index] + bytes([data[index] ^ mask]) + data[index + 1 :]


def _mangle_text(text: str, rng: random.Random) -> str:
    """Replace one random character (text carriers: HTTP header value)."""
    if not text:
        return text
    index = rng.randrange(len(text))
    replacement = chr(rng.randrange(33, 127))
    while replacement == text[index]:
        replacement = chr(rng.randrange(33, 127))
    return text[:index] + replacement + text[index + 1 :]
