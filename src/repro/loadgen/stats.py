"""Latency/throughput summaries: raw-sample and histogram percentiles.

Two complementary sources:

* the driver's own per-operation wall clock — exact, computed by
  :func:`percentile` over the raw samples;
* the server's ``powerplay_http_request_seconds`` histogram from the
  observability registry — what a production scrape would see, read by
  :func:`histogram_quantile` with the standard Prometheus
  linear-interpolation-within-bucket estimate.

Reporting both catches disagreement between what the client felt and
what the server measured (queueing in the transport, for example).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from ..obs.metrics import Histogram, bucket_quantile

PERCENTILES = (0.50, 0.95, 0.99)


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact sample percentile (linear interpolation between ranks)."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def summarize_latencies(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 plus mean and max, in seconds."""
    if not samples:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "mean": 0.0, "max": 0.0}
    return {
        "count": len(samples),
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "p99": percentile(samples, 0.99),
        "mean": sum(samples) / len(samples),
        "max": max(samples),
    }


def histogram_quantile(
    histogram: Histogram, q: float, route: Optional[str] = None
) -> float:
    """Prometheus-style quantile estimate from a registry histogram.

    Sums the cumulative buckets across label sets (only ``route``'s
    when given: the first declared label) and reads them with
    :func:`~repro.obs.metrics.bucket_quantile`; 0.0 when empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    totals = [0] * (len(histogram.bounds) + 1)
    for key, (cumulative, _, _) in histogram.state().items():
        if route is None or not key or key[0] == route:
            totals = [a + b for a, b in zip(totals, cumulative)]
    value = bucket_quantile(
        list(zip(histogram.bounds + (math.inf,), totals)), q
    )
    return 0.0 if value is None else value


def histogram_summary(
    histogram: Histogram, route: Optional[str] = None
) -> Dict[str, float]:
    """The standard percentile triple from a registry histogram."""
    return {
        f"p{int(q * 100)}": histogram_quantile(histogram, q, route)
        for q in PERCENTILES
    }
