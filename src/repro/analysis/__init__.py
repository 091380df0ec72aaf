"""Analysis helpers: empirical CDFs and heavy-tail metrics."""

from .cdf import EmpiricalCDF
from .tails import (
    coverage_curve,
    head_coverage,
    is_heavy_tailed,
    uniqueness_fraction,
)

__all__ = [
    "EmpiricalCDF",
    "coverage_curve",
    "head_coverage",
    "is_heavy_tailed",
    "uniqueness_fraction",
]
