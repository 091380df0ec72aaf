"""Machine-speed probe: a control variate for wall-clock metrics.

The reference box is a 2-vCPU VM whose effective clock wanders by ±10-20 %
in phases of several seconds (neighbours, turbo).  A 10 s run lands in
one phase, so raw rates from back-to-back runs of the *same commit*
differ by more than any bound worth having.  The probe is a fixed
pure-Python kernel (dict churn, attribute access, integer arithmetic —
the instruction mix of the packet and acquisition paths) timed right
before and right after every timed region.  Each reading is scaled to
what it would have been had the probe run at its nominal speed:

    rate_normalised = rate_measured * probe_seconds / PROBE_NOMINAL_S
    time_normalised = time_measured * PROBE_NOMINAL_S / probe_seconds

On a quiet machine the factor is ~1 and the normalised number *is* the
measured one; on a slow phase it reports what the measured one would
have been.  The probe calls nothing in ``src/``, so a change to the
program moves the numerator only.  Raw readings and the probe's own
times are kept in the DETAIL line and the ledger.
"""

from __future__ import annotations

import time

#: Iterations of the kernel per probe (~1 ms a probe).
PROBE_LOOPS = 4_000

#: Seconds one probe typically takes on the reference box when run next
#: to a workload (big heap, caches just used by something else).  A
#: constant, so normalised numbers from different runs are comparable;
#: on another machine it shifts every number by one common factor.
PROBE_NOMINAL_S = 0.00095

#: Probes kept on each side of a timed region (after one discarded pass
#: that pays for the caches the timed region just evicted).
PROBES_PER_SIDE = 5


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 1
        self.b = 2


def _kernel() -> int:
    table: dict[tuple[int, int], int] = {}
    cell = _Cell()
    total = 0
    for index in range(PROBE_LOOPS):
        key = (index & 1023, index & 7)
        value = table.pop(key, None)
        if value is None:
            value = index
        table[key] = value
        total += cell.a + cell.b
        cell.a = total & 3
    return total


def probe() -> list[float]:
    """Wall seconds of ``PROBES_PER_SIDE`` back-to-back kernel passes."""
    _kernel()
    times = []
    for _ in range(PROBES_PER_SIDE):
        started = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - started)
    return times


def slowdown(probes: list[float]) -> float:
    """How much slower than nominal the machine ran (1.0 = nominal)."""
    return sum(probes) / len(probes) / PROBE_NOMINAL_S
