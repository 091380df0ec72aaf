"""Empirical CDFs, for the Fig. 5(b) completion-time curves."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

__all__ = ["EmpiricalCDF"]


class EmpiricalCDF:
    """An empirical cumulative distribution over a sample."""

    def __init__(self, samples: list[float]) -> None:
        if not samples:
            raise ValueError("CDF needs at least one sample")
        self.samples = sorted(samples)

    def __len__(self) -> int:
        return len(self.samples)

    def at(self, x: float) -> float:
        """F(x): fraction of samples <= x."""
        return bisect_right(self.samples, x) / len(self.samples)

    def quantile(self, q: float) -> float:
        """Inverse CDF: the smallest sample ``x`` with ``at(x) >= q``;
        ``q`` in [0, 1].  That is the ``ceil(q·n)``-th smallest sample,
        with ``q = 0`` giving the minimum; the rank search divides the
        way :meth:`at` does, so the two agree where ``q·n`` is whole."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        n = len(self.samples)
        return self.samples[bisect_left(range(1, n + 1), q, key=lambda r: r / n)]

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def curve(self, points: int = 50) -> list[tuple[float, float]]:
        """(x, F(x)) pairs suitable for plotting or table output."""
        lo, hi = self.samples[0], self.samples[-1]
        if hi == lo:
            return [(lo, 1.0)]
        step = (hi - lo) / (points - 1)
        return [(lo + i * step, self.at(lo + i * step)) for i in range(points)]

    def stochastically_dominates(self, other: "EmpiricalCDF", points: int = 50) -> bool:
        """True if this distribution is everywhere at least as fast: its
        CDF lies on or above ``other``'s at every probed x (first-order
        stochastic dominance, the relationship between the boosted and
        throttled curves in Fig. 5b)."""
        lo = min(self.samples[0], other.samples[0])
        hi = max(self.samples[-1], other.samples[-1])
        if hi == lo:
            return True
        step = (hi - lo) / (points - 1)
        return all(
            self.at(lo + i * step) >= other.at(lo + i * step) - 1e-12
            for i in range(points)
        )
