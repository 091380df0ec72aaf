"""Deterministic parallel grid sweeps.

The link-condition scenario lab (and any future campaign-style study)
evaluates one *cell function* over hundreds of independent parameter
cells — rate × latency × loss points, each running its own simulation.
Cells share nothing, so the sweep is one ``submit`` per cell on a
:class:`concurrent.futures.ProcessPoolExecutor`; what the module adds
is the contract:

- **Bit-identical merges.**  Every cell's seed derives from the campaign
  seed and the cell's labels via :func:`repro.core.seeding.derive_seed`,
  never from worker identity or dispatch order, and results are merged
  in cell order.  The merged output of a sweep is therefore identical
  for 1 worker, N workers, and the in-process mode.
- **One error contract.**  A cell that raises fails the sweep with
  :class:`SweepError` naming the cell's labels, chained from the cell's
  exception (and carrying the worker's traceback text when pooled).
- **One retry per run.**  A worker that dies breaks the pool; the pool
  is rebuilt once and every unfinished cell resubmitted.  A second
  break raises :class:`SweepError`.
- **Graceful degrade.**  With ``workers=0``, or ``workers=None`` on a box
  with fewer than two CPUs, cells run in-process — same results, no
  process machinery, recorded as configuration rather than failure.

Telemetry lands under the ``sweep.*`` prefix (:class:`SweepStats`).  The
determinism contract is documented in PROTOCOL.md §15.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .seeding import derive_seed

__all__ = [
    "SweepCell",
    "SweepError",
    "SweepStats",
    "run_sweep",
]

#: A cell function: ``fn(params, seed) -> JSON-able result``.  It must be
#: importable at module top level (workers unpickle it by reference) and
#: deterministic in ``(params, seed)`` — the bit-identical-merge contract
#: rests on that.
CellFn = Callable[[dict[str, Any], int], Any]

#: Below this many CPUs ``run_sweep(workers=None)`` runs cells in-process.
_MIN_WORKER_CORES = 2


class SweepError(RuntimeError):
    """A sweep could not complete (cell error, or a pool broken twice)."""


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
    """Sweep counters, exported under ``sweep.*``.

    ``worker_restarts`` counts pool rebuilds and ``cells_redispatched``
    the cells resubmitted to a rebuilt pool.
    """

    workers: int = 0
    in_process: bool = False
    cells_total: int = 0
    cells_completed: int = 0
    cells_redispatched: int = 0
    worker_restarts: int = 0
    sweeps: int = 0

    #: The two fields that are configuration levels (an interval delta
    #: of them is meaningless); the rest are counts.
    GAUGES = ("workers", "in_process")

    def as_dict(self) -> dict[str, int]:
        return {**vars(self), "in_process": int(self.in_process)}

    def register_telemetry(self, registry, prefix: str = "sweep") -> None:
        registry.register(self, prefix, read=self._read_metrics)

    def _read_metrics(self):
        counters = self.as_dict()
        gauges = {name: counters.pop(name) for name in self.GAUGES}
        return counters, gauges


def _cell_error(cell: SweepCell, exc: BaseException) -> SweepError:
    # A pooled cell's exception arrives with the worker's traceback as
    # its ``__cause__`` (the stdlib's ``_RemoteTraceback``).
    remote = f"\n{exc.__cause__}" if exc.__cause__ is not None else ""
    return SweepError(f"cell {cell.labels!r} raised {exc!r}{remote}")


def run_sweep(
    fn: CellFn,
    cells: Sequence[SweepCell],
    *,
    campaign_seed: int = 0,
    workers: int | None = None,
    telemetry=None,
) -> tuple[list[Any], SweepStats]:
    """Evaluate every cell; returns ``(results in cell order, stats)``.

    ``workers=None`` sizes the pool to the box: ``min(4, cpu_count)``, or
    in-process below two CPUs.  ``workers=0`` forces in-process; any
    other value is honored.  The result list is a pure function of
    ``(fn, campaign_seed, cells)`` — worker count, completion order and
    a rebuilt pool cannot affect it.
    """
    if workers is None:
        cpus = os.cpu_count() or 1
        workers = 0 if cpus < _MIN_WORKER_CORES else min(4, cpus)
    if workers < 0:
        raise ValueError("workers must be >= 0")
    cells = list(cells)
    seen: set[tuple] = set()
    for cell in cells:
        if cell.labels in seen:
            raise SweepError(f"duplicate cell labels {cell.labels!r}")
        seen.add(cell.labels)
    stats = SweepStats(
        workers=workers, in_process=workers == 0, cells_total=len(cells), sweeps=1
    )
    if telemetry is not None:
        stats.register_telemetry(telemetry)
    seeds = [derive_seed(campaign_seed, "sweep", *c.labels) for c in cells]

    results: dict[int, Any] = {}
    if workers == 0:
        for index, cell in enumerate(cells):
            try:
                results[index] = fn(dict(cell.params), seeds[index])
            except Exception as exc:
                raise _cell_error(cell, exc) from exc
            stats.cells_completed += 1
        return list(results.values()), stats

    # Fork where available: a spawn pool re-imports the package in every
    # worker, which costs more than a small grid's cells do.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    unfinished = list(range(len(cells)))
    while True:
        pool = ProcessPoolExecutor(workers, mp_context=context)
        try:
            try:
                futures = {
                    i: pool.submit(fn, dict(cells[i].params), seeds[i])
                    for i in unfinished
                }
            except OSError as exc:
                # A worker that fails to start raises out of ``submit``
                # with the pool's queue pipes still referenced from the
                # traceback's frames; drop them so the fds close now.
                raise exc.with_traceback(None)
            except BrokenProcessPool:  # a worker died before the last submit
                futures = {}
            for index, future in futures.items():
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    continue
                except Exception as exc:
                    raise _cell_error(cells[index], exc) from exc
                stats.cells_completed += 1
        finally:
            pool.shutdown(cancel_futures=True)
        unfinished = [index for index in unfinished if index not in results]
        if not unfinished:
            return [results[index] for index in range(len(cells))], stats
        if stats.worker_restarts:
            raise SweepError(
                f"the worker pool broke twice; {len(unfinished)} cell(s) "
                "unfinished (a broken pool is rebuilt once per run)"
            )
        stats.worker_restarts += 1
        stats.cells_redispatched += len(unfinished)
