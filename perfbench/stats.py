"""Summary statistics and metric-name rules shared by the benchmark's reports."""

from __future__ import annotations

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles tried from the top down when reporting a distribution's tail.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values, min_beyond: int = MIN_BEYOND):
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Uses the nearest-rank definition: the p-th percentile of n sorted samples
    is the sample at rank ceil(p*n/100), and the samples beyond it are the
    n - rank that follow. Returns ``(p, value)``, or ``None`` when even the
    75th percentile has fewer than ``min_beyond`` samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILE_LADDER:
        rank = max(1, math.ceil(round(p * n / 100.0, 6)))
        if n - rank >= min_beyond:
            return p, float(ordered[rank - 1])
    return None


def describe(values, unit: str) -> str:
    """One human-readable line: median, the reportable tail, sample count."""
    text = f"median {median(values):.6g} {unit}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    return text + f" (n={len(values)})"
