"""Deterministic parallel grid-sweep executor.

The link-condition scenario lab (and any future campaign-style study)
evaluates one *cell function* over hundreds of independent parameter
cells — rate × latency × loss points, each running its own simulation.
Cells share nothing, so the sweep is embarrassingly parallel; what makes
it engineering rather than a ``Pool.map`` call is the contract:

- **Bit-identical merges.**  Every cell's seed derives from the campaign
  seed and the cell's labels via :func:`repro.core.seeding.derive_seed`,
  never from worker identity or dispatch order, and results are merged
  in cell order.  The merged output of a sweep is therefore identical
  for 1 worker, N workers, and the in-process fallback.
- **Warm workers.**  Worker processes are spawned once and reused across
  cells (and across :meth:`SweepExecutor.run` calls), the same persistent
  lifecycle the verification data plane uses (PROTOCOL.md §10/§12).
- **Crash containment.**  A worker that dies mid-cell is detected at its
  process sentinel, respawned, and the lost cell re-dispatched **exactly
  once**; a second death on the same cell fails the sweep loudly rather
  than looping.  A Python exception inside the cell function is not a
  crash — it is deterministic, so it propagates immediately with the
  worker-side traceback.
- **Graceful degrade.**  On boxes where ``os.cpu_count() < 2`` (or with
  ``workers=0``) the executor runs cells in-process — same results, no
  process machinery, recorded as configuration rather than failure.

Telemetry lands under the ``sweep.*`` prefix via
:meth:`SweepExecutor.register_telemetry`, mirroring every other
component.  The wire protocol and determinism contract are documented in
PROTOCOL.md §15.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import Any, Callable, Iterable, Sequence

from .seeding import derive_seed

__all__ = [
    "SweepCell",
    "SweepError",
    "SweepStats",
    "SweepExecutor",
    "run_sweep",
]

#: A cell function: ``fn(params, seed) -> JSON-able result``.  It must be
#: importable at module top level (workers re-import it by reference) and
#: deterministic in ``(params, seed)`` — the bit-identical-merge contract
#: rests on that.
CellFn = Callable[[dict[str, Any], int], Any]


class SweepError(RuntimeError):
    """A sweep could not complete (cell error, or repeated worker loss)."""


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work.

    ``labels`` are the cell's stable identity — they feed seed derivation
    and appear in reports; two cells in one sweep must not share a label
    tuple.  ``params`` is the keyword payload handed to the cell function.
    """

    labels: tuple[Any, ...]
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepStats:
    """Executor counters, exported under ``sweep.*``."""

    workers: int = 0
    in_process: bool = False
    cells_total: int = 0
    cells_completed: int = 0
    cells_redispatched: int = 0
    worker_restarts: int = 0
    sweeps: int = 0

    def as_dict(self) -> dict[str, int]:
        return {**vars(self), "in_process": int(self.in_process)}


def _worker_main(conn, fn: CellFn) -> None:
    """Worker loop: receive cells, evaluate, reply; exit on ``quit``."""
    try:
        while True:
            message = conn.recv()
            op = message[0]
            if op == "quit":
                return
            _, index, params, seed = message
            try:
                result = fn(params, seed)
            except BaseException:
                conn.send(("err", index, traceback.format_exc()))
                continue
            conn.send(("ok", index, result))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        return


_UNSET = object()

#: Below this many CPUs :meth:`SweepExecutor.auto` runs cells in-process.
_MIN_WORKER_CORES = 2
#: Crash re-dispatches per cell: exactly once, then fail loudly.
_MAX_REDISPATCH = 1


class SweepExecutor:
    """Runs sweep cells over a persistent pool of worker processes.

    Parameters
    ----------
    fn:
        The cell function (module-level, deterministic; see :data:`CellFn`).
    campaign_seed:
        Root of every per-cell seed (``derive_seed(campaign_seed, "sweep",
        *cell.labels)``).
    workers:
        Process count.  ``0`` selects the in-process mode; ``None`` lets
        :meth:`auto` decide (callers constructing directly must pass an
        explicit value).

    Workers start by ``fork`` where available (milliseconds to warm a
    worker) with ``spawn`` as the portable fallback — the same pick the
    verifier pool makes.
    """

    def __init__(
        self,
        fn: CellFn,
        *,
        workers: int,
        campaign_seed: int = 0,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.fn = fn
        self.campaign_seed = campaign_seed
        self.stats = SweepStats(workers=workers, in_process=workers == 0)
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._workers = workers
        self._conns: list = [None] * workers
        self._procs: list = [None] * workers
        self._closed = False
        try:
            for index in range(workers):
                self._spawn(index)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def auto(
        cls,
        fn: CellFn,
        *,
        campaign_seed: int = 0,
        workers: int | None = None,
    ) -> "SweepExecutor":
        """Build an executor sized for this box.

        When ``workers`` is None and the box has fewer than two CPUs,
        worker processes would only add IPC over the same core —
        degrade to in-process (``workers=0``, recorded as configuration,
        not failure).  Otherwise default to ``min(4, cpu_count)``.  An
        explicit ``workers`` value is always honored.
        """
        if workers is None:
            cpus = os.cpu_count() or 1
            workers = 0 if cpus < _MIN_WORKER_CORES else min(4, cpus)
        return cls(fn, campaign_seed=campaign_seed, workers=workers)

    @property
    def in_process(self) -> bool:
        """True when cells run in this process (degrade mode)."""
        return self._workers == 0

    def cell_seed(self, cell: SweepCell) -> int:
        """The derived seed a cell runs under (stable, label-addressed)."""
        return derive_seed(self.campaign_seed, "sweep", *cell.labels)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> None:
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, self.fn),
            name=f"sweep-worker-{index}",
            daemon=True,
        )
        # Recorded before start(): if it raises (EAGAIN), close() still
        # finds the pipe end to release.
        self._conns[index] = parent
        try:
            process.start()
        finally:
            child.close()
        self._procs[index] = process

    def _reap(self, index: int) -> None:
        conn, self._conns[index] = self._conns[index], None
        proc, self._procs[index] = self._procs[index], None
        if conn is not None:
            conn.close()
        if proc is not None:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=5.0)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.send(("quit",))
                except (BrokenPipeError, OSError):
                    pass
        for index in range(self._workers):
            self._reap(index)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run(self, cells: Sequence[SweepCell] | Iterable[SweepCell]) -> list[Any]:
        """Evaluate every cell; results return in cell order.

        The result list is a pure function of ``(fn, campaign_seed,
        cells)`` — worker count, dispatch interleaving, and crash/
        re-dispatch history cannot affect it.
        """
        if self._closed:
            raise SweepError("executor is closed")
        cells = list(cells)
        seen: set[tuple] = set()
        for cell in cells:
            if cell.labels in seen:
                raise SweepError(f"duplicate cell labels {cell.labels!r}")
            seen.add(cell.labels)
        self.stats.sweeps += 1
        self.stats.cells_total += len(cells)
        if self._workers == 0:
            return self._run_in_process(cells)
        return self._run_pooled(cells)

    def _run_in_process(self, cells: list[SweepCell]) -> list[Any]:
        results = []
        for cell in cells:
            results.append(self.fn(dict(cell.params), self.cell_seed(cell)))
            self.stats.cells_completed += 1
        return results

    def _run_pooled(self, cells: list[SweepCell]) -> list[Any]:
        results: list[Any] = [_UNSET] * len(cells)
        pending: deque[int] = deque(range(len(cells)))
        redispatches = [0] * len(cells)
        inflight: dict[int, int] = {}  # worker index -> cell index
        remaining = len(cells)

        while remaining:
            idle = [
                w
                for w in range(self._workers)
                if w not in inflight and self._conns[w] is not None
            ]
            for w in idle:
                if not pending:
                    break
                cell_index = pending.popleft()
                cell = cells[cell_index]
                self._conns[w].send(
                    ("cell", cell_index, cell.params, self.cell_seed(cell))
                )
                inflight[w] = cell_index

            if not inflight:  # pragma: no cover - defensive
                raise SweepError("no live workers and cells remain")

            conn_of = {self._conns[w]: w for w in inflight}
            sentinel_of = {self._procs[w].sentinel: w for w in inflight}
            ready = _mp_wait(list(conn_of) + list(sentinel_of))
            ready_workers: dict[int, bool] = {}  # worker -> conn readable
            for item in ready:
                if item in conn_of:
                    ready_workers[conn_of[item]] = True
                else:
                    ready_workers.setdefault(sentinel_of[item], False)

            for w, readable in ready_workers.items():
                cell_index = inflight[w]
                if readable:
                    try:
                        message = self._conns[w].recv()
                    except (EOFError, OSError):
                        del inflight[w]
                        self._handle_crash(w, cell_index, pending, redispatches)
                        continue
                    del inflight[w]
                    kind, index, payload = message
                    if kind == "err":
                        self.close()
                        raise SweepError(
                            f"cell {cells[index].labels!r} raised in worker:\n"
                            f"{payload}"
                        )
                    results[index] = payload
                    self.stats.cells_completed += 1
                    remaining -= 1
                else:
                    # Sentinel fired with nothing to read: the worker died
                    # mid-cell.
                    del inflight[w]
                    self._handle_crash(w, cell_index, pending, redispatches)

        return results

    def _handle_crash(
        self,
        worker: int,
        cell_index: int,
        pending: deque[int],
        redispatches: list[int],
    ) -> None:
        self._reap(worker)
        self.stats.worker_restarts += 1
        redispatches[cell_index] += 1
        if redispatches[cell_index] > _MAX_REDISPATCH:
            self.close()
            raise SweepError(
                f"cell index {cell_index} lost its worker "
                f"{redispatches[cell_index]} times; giving up "
                "(exactly-once re-dispatch exhausted)"
            )
        self._spawn(worker)
        self.stats.cells_redispatched += 1
        pending.appendleft(cell_index)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    #: The two :class:`SweepStats` fields that are configuration levels
    #: (an interval delta of them is meaningless); the rest are counts.
    GAUGES = ("workers", "in_process")

    def register_telemetry(self, registry, prefix: str = "sweep") -> None:
        """Export :class:`SweepStats` into a metrics registry."""
        registry.register(self, prefix, read=self._read_metrics)

    def _read_metrics(self):
        counters = self.stats.as_dict()
        gauges = {name: counters.pop(name) for name in self.GAUGES}
        return counters, gauges


def run_sweep(
    fn: CellFn,
    cells: Sequence[SweepCell],
    *,
    campaign_seed: int = 0,
    workers: int | None = None,
    telemetry=None,
) -> tuple[list[Any], SweepStats]:
    """One-shot convenience: build, run, close; returns (results, stats)."""
    executor = SweepExecutor.auto(fn, campaign_seed=campaign_seed, workers=workers)
    try:
        if telemetry is not None:
            executor.register_telemetry(telemetry)
        results = executor.run(cells)
    finally:
        executor.close()
    return results, executor.stats
