"""Order statistics shared by every workload of the benchmark."""

from __future__ import annotations

import statistics

#: The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def median_or_zero(values) -> float:
    """The median, or 0.0 when every operation behind it failed."""
    values = list(values)
    return median(values) if values else 0.0


def share(numerator: float, denominator: float) -> float:
    """`numerator` / `denominator`, or 0.0 when there is nothing to
    divide by (a window whose operations all failed)."""
    return numerator / denominator if denominator else 0.0


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """The highest percentile of `samples` with >= `beyond` samples above it.

    Returns ``(value, percentile, count)``: with ``n`` sorted samples the
    value is the ``(n - beyond)``-th smallest, so exactly `beyond`
    samples lie beyond it, and `percentile` is ``100 * (n - beyond) / n``.
    Raises ``ValueError`` when there are not more than `beyond` samples,
    since no percentile then has enough samples beyond it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= beyond:
        raise ValueError(
            f"{count} samples leave no percentile with {beyond} beyond it")
    rank = count - beyond
    return float(ordered[rank - 1]), 100.0 * rank / count, count
