"""Shared driver pieces: the virtual clock, robust statistics, resource
readings, the scratch directory, and the environment fingerprint."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Iterator, Sequence

from . import REPO_ROOT

#: Virtual epoch of every round.  Cookies are minted at ``T0`` and the
#: driver's clock starts there, so verdicts never depend on how long
#: corpus generation took or how fast the machine is.
T0 = 1_000.0

#: Virtual time per ``process_batch`` burst: 256 packets at ~256 kpps.
BURST_TICK = 0.001

#: Packets per ``process_batch`` call (a DPDK rx burst, as in Fig. 4).
BURST_PACKETS = 256

#: Everything the benchmark writes at run time lives under here
#: (journal segments); the directory is git-ignored and removed on exit.
WORK_ROOT = REPO_ROOT / "bench" / ".work"

RESULTS_DIR = REPO_ROOT / "bench" / "results"


class VirtualClock:
    """The driver-owned clock handed to every device under test."""

    def __init__(self, start: float = T0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the same rule the PR driver uses."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_ratio(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def peak_rss_mib(include_children: bool = False) -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux),
    plus the largest reaped child when ``include_children``."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def work_dir(label: str) -> Path:
    """A fresh, empty scratch directory private to this process."""
    path = WORK_ROOT / f"{os.getpid()}-{label}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dirs() -> None:
    """Drop this process's scratch directories (and the root if empty)."""
    if not WORK_ROOT.is_dir():
        return
    for path in WORK_ROOT.glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another benchmark process still has scratch there


def stop_child_processes() -> None:
    """End every process this one started and wait for each.

    Pool workers are joined by ``ProcessShardExecutor.close``; what is
    left is multiprocessing's resource tracker, which the first
    ``SharedMemory`` starts and which otherwise outlives this process by
    a moment (it exits on seeing its pipe close).  It restarts on demand,
    so stopping it between runs in one process is harmless.
    """
    for child in multiprocessing.active_children():  # a worker that got away
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the pipe, then waitpid()s the tracker


def chunks(items: Sequence, size: int) -> Iterator[Sequence]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest mount-point prefix)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, fstype = "", "unknown"
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        prefix = mount if mount.endswith("/") else mount + "/"
        if (target + "/").startswith(prefix) and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def _commit() -> str:
    """HEAD of the checkout, read straight from ``.git`` (the PR
    driver's checkout is not a repository: ``unversioned`` there)."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unversioned"


def fingerprint() -> dict:
    """Where a ledger was recorded; compared numbers are only
    comparable when these match."""
    methods = multiprocessing.get_all_start_methods()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable = os.cpu_count() or 1
    return {
        "nproc": os.cpu_count() or 1,
        "usable_cpus": usable,
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "python_compiler": platform.python_compiler(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        # The start method the program's worker pools choose here.
        "mp_start_method": "fork" if "fork" in methods else "spawn",
        "journal_filesystem": _filesystem_of(REPO_ROOT / "bench"),
        "commit": _commit(),
    }
