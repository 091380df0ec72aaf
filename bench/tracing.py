"""Benchmark-side tracing: spans recorded around the calls into each
layer, from outside the program.

A span is (name, start, end, parent, id).  ``parent`` is the span that
was open on this thread when the call was made; ``id`` is the driver's
burst / chunk / request index, shared by every span that index caused.
Spans live in parallel lists (one append per column per span, ~1 µs) and
are written out once, when the run ends.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so the self times of one round's tree add up to the round's
wall time exactly.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # One entry per span, by column.
        self.name_of: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.ident: list[int] = []
        self._stack: list[int] = [-1]
        #: The driver sets this before each burst / chunk / request.
        self.current_id = -1

    def _index_of(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span nested under whatever is open; returns its slot."""
        slot = len(self.start)
        self.name_of.append(self._index_of(name))
        self.parent.append(self._stack[-1])
        self.ident.append(self.current_id)
        self.end.append(0)
        self._stack.append(slot)
        self.start.append(time.perf_counter_ns())
        return slot

    def finish(self, slot: int) -> None:
        self.end[slot] = time.perf_counter_ns()
        self._stack.pop()

    def begin_detached(self, name: str, ident: int) -> int:
        """Open a span that overlaps others (an awaited request): it has
        no parent and is kept out of the self-time tree."""
        slot = len(self.start)
        self.name_of.append(self._index_of(name))
        self.parent.append(-2)
        self.ident.append(ident)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return slot

    def finish_detached(self, slot: int) -> None:
        self.end[slot] = time.perf_counter_ns()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span around every call (``begin``/``finish``
        inlined over bound locals: this runs once per traced call)."""
        name_index = self._index_of(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, ident, stack = self.parent, self.ident, self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            slot = len(start)
            name_of.append(name_index)
            parent.append(stack[-1])
            ident.append(self.current_id)
            end.append(0)
            stack.append(slot)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[slot] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: call count, total ns, and self ns (total minus
        the time covered by direct children)."""
        covered = [0] * len(self.start)
        for slot, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[slot] - self.start[slot]
        out: dict[str, dict[str, int]] = {}
        for slot, name_index in enumerate(self.name_of):
            duration = self.end[slot] - self.start[slot]
            row = out.setdefault(
                self.names[name_index],
                {"count": 0, "total_ns": 0, "self_ns": 0, "detached": 0},
            )
            row["count"] += 1
            row["total_ns"] += duration
            if self.parent[slot] == -2:
                row["detached"] += 1
            else:
                row["self_ns"] += duration - covered[slot]
        return out

    def dump(self, path: Path, **header: Any) -> None:
        """Write every span, column-wise (see bench/README.md)."""
        base = min(self.start, default=0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    **header,
                    "time_unit": "ns since first span",
                    "names": self.names,
                    "spans": {
                        "name": self.name_of,
                        "start": [t - base for t in self.start],
                        "end": [t - base for t in self.end],
                        "parent": self.parent,
                        "id": self.ident,
                    },
                },
                handle,
                separators=(",", ":"),
            )


class Traced:
    """Stands in for ``target``: the methods named in ``spans`` record a
    span per call, every other attribute is the target's own."""

    def __init__(
        self, target: Any, tracer: Tracer, spans: dict[str, str]
    ) -> None:
        self._target = target
        for method, span_name in spans.items():
            setattr(self, method, tracer.wrap(span_name, getattr(target, method)))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


def traced(target: Any, tracer: Tracer | None, spans: dict[str, str]) -> Any:
    """``target`` itself when tracing is off, else its span proxy."""
    return target if tracer is None else Traced(target, tracer, spans)
