"""What the driver needs from a workload.

A run is: ``setup`` (corpus + everything reusable across rounds), then
rounds.  Each round asks for a fresh device under test (cold replay
cache, empty flow table, empty journal directory), drives the same
corpus through it inside the timed region, and checks the device's
public counters against the oracle.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from .tracing import Tracer


@dataclass
class RoundSample:
    """One timed pass over the corpus."""

    items: int
    elapsed_s: float
    cpu_s: float
    #: Wall seconds of each top-level call the round made (one
    #: ``process_batch`` burst, one ``match_batch``, one chunk, one RPC).
    call_s: list[float]
    #: Client-side round-trip seconds by op kind (RPC workloads only).
    latency_s: dict[str, list[float]] = field(default_factory=dict)
    #: Machine slowdown around the round (see :mod:`bench.probe`); the
    #: driver fills it in, 1.0 = nominal speed.
    slowdown: float = 1.0

    @property
    def raw_rate(self) -> float:
        return self.items / self.elapsed_s

    @property
    def rate(self) -> float:
        """Items per second at nominal machine speed."""
        return self.items / self.elapsed_s * self.slowdown

    @property
    def call_p50_s(self) -> float:
        """Median call time at nominal machine speed."""
        return statistics.median(self.call_s) / self.slowdown


class RoundTimer:
    """The timed region of one round: wall and CPU time of the whole
    drive, the wall time of each top-level call (``lap`` after each),
    and — when tracing — the root span every other span hangs under."""

    def __init__(self, tracer: Tracer | None, root: str = "driver.round") -> None:
        self.tracer = tracer
        self.root = root
        self.call_s: list[float] = []

    def __enter__(self) -> "RoundTimer":
        if self.tracer is not None:
            self._slot = self.tracer.begin(self.root)
        self._cpu = time.process_time()
        self._start = self._last = time.perf_counter()
        return self

    def lap(self) -> None:
        now = time.perf_counter()
        self.call_s.append(now - self._last)
        self._last = now

    def __exit__(self, *exc_info: Any) -> None:
        self.elapsed_s = time.perf_counter() - self._start
        self.cpu_s = time.process_time() - self._cpu
        if self.tracer is not None:
            self.tracer.finish(self._slot)

    def sample(self, items: int, **extra: Any) -> RoundSample:
        extra.setdefault("call_s", self.call_s)
        return RoundSample(
            items=items, elapsed_s=self.elapsed_s, cpu_s=self.cpu_s, **extra
        )


@dataclass
class Verdict:
    """Oracle outcome of one round: operations checked and how many
    differed from what the plan says."""

    attempted: int
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, what: str, got: Any, want: Any) -> None:
        if got != want:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{what}: got {got!r}, expected {want!r}")


class Workload:
    """Base class; see the module docstring for the life cycle."""

    #: Name on the command line and in BENCHMARK.json.
    name = ""
    #: What one item is (``pkt``, ``cookie``, ``op``) and the name the
    #: item rate goes by in this workload's family.
    item = ""
    rate_alias = ""
    #: What one timed call is, for the ``call_p50_us`` reading.
    call = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        raise NotImplementedError

    def reset_marks(self) -> None:
        """Clear anything earlier passes wrote on the reused corpus, so
        round 1's per-item checks see only this run's marks."""

    def new_device(self, tracer: Tracer | None = None) -> Any:
        raise NotImplementedError

    def drive(self, device: Any, tracer: Tracer | None = None) -> RoundSample:
        raise NotImplementedError

    def check(self, device: Any, first_round: bool) -> Verdict:
        raise NotImplementedError

    def dispose(self, device: Any) -> None:
        """Release what ``new_device`` opened."""

    def counters(self, device: Any) -> dict[str, float]:
        """Per-layer counts read off the device after a round."""
        return {}

    def describe(self) -> dict[str, Any]:
        """Corpus digest, plan counts and derived values for the report."""
        return {}

    #: Does this workload's memory live partly in child processes?
    rss_includes_children = False
