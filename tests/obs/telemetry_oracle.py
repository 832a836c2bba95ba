"""The telemetry plane's duplicated statistics, frozen as oracles.

Before the plane shared one sample model, each of these statistics had
two or three implementations.  They are kept here verbatim (the
histogram helpers, the fleet and capacity quantile estimators with the
capacity report's quantile step, both SLO good/total readers and both
counter-rate functions) so that ``test_telemetry_oracle.py`` can hold
the surviving code to bit-for-bit agreement with every copy it
replaced.  ``SLOTracker._cumulative`` is kept as a plain function of
the tracker.  Test-only; never imported by ``src/``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.history import _round12, _round_t
from repro.obs.metrics import Histogram, parse_series_key
from repro.obs.slo import SLO, route_class


# -- repro.loadgen.stats ---------------------------------------------------


def _aggregate_buckets(
    histogram: Histogram, route: Optional[str] = None
) -> Tuple[List[int], int]:
    """Summed per-bucket counts (+Inf last) across label sets.

    ``route`` filters to one label value when the histogram is labelled
    by route (the first declared label); ``None`` aggregates everything.
    """
    slots = [0] * (len(histogram.bounds) + 1)
    total = 0
    with histogram._lock:
        for key, counts in histogram._buckets.items():
            if route is not None and key and key[0] != route:
                continue
            for index, count in enumerate(counts):
                slots[index] += count
                total += count
    return slots, total


def histogram_quantile(
    histogram: Histogram, q: float, route: Optional[str] = None
) -> float:
    """Prometheus-style quantile estimate from cumulative buckets.

    Linear interpolation inside the bucket containing the target rank;
    observations in the ``+Inf`` bucket clamp to the highest finite
    bound (exactly what ``histogram_quantile()`` does in PromQL).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    slots, total = _aggregate_buckets(histogram, route)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    lower = 0.0
    for index, bound in enumerate(histogram.bounds):
        in_bucket = slots[index]
        if seen + in_bucket >= rank and in_bucket > 0:
            fraction = (rank - seen) / in_bucket
            return lower + (bound - lower) * fraction
        seen += in_bucket
        lower = bound
    return histogram.bounds[-1]


# -- repro.obs.fleet ---------------------------------------------------------


def family_quantile(
    family: Mapping[str, object], q: float
) -> Optional[float]:
    """Estimate a quantile from a merged histogram family.

    Sums the ``_bucket`` series across label sets (fleet-wide view),
    then linearly interpolates inside the winning bucket — the same
    estimator as ``loadgen.stats.histogram_quantile``, applied to the
    merged series dict instead of a live :class:`Histogram`.  Returns
    ``None`` when the family has no observations.  An answer that
    lands in the ``+Inf`` bucket clamps to the highest finite bound.
    """
    if family.get("kind") != "histogram":
        return None
    totals: Dict[float, float] = {}
    for key, value in family.get("series", {}).items():  # type: ignore[union-attr]
        start = key.find('le="')
        if start < 0 or "_bucket" not in key:
            continue
        end = key.find('"', start + 4)
        bound_text = key[start + 4:end]
        bound = math.inf if bound_text == "+Inf" else float(bound_text)
        totals[bound] = totals.get(bound, 0.0) + float(value)  # type: ignore[arg-type]
    if not totals:
        return None
    bounds = sorted(totals)
    total = totals[bounds[-1]]
    if total <= 0:
        return None
    rank = q * total
    previous_bound = 0.0
    previous_count = 0.0
    finite = [bound for bound in bounds if bound != math.inf]
    for bound in bounds:
        count = totals[bound]
        if count >= rank:
            if bound == math.inf:
                return finite[-1] if finite else None
            if count == previous_count:
                return bound
            fraction = (rank - previous_count) / (count - previous_count)
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound = bound if bound != math.inf else previous_bound
        previous_count = count
    return finite[-1] if finite else None


# -- repro.obs.capacity ------------------------------------------------------


def _rate_series(
    points: Sequence[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        delta = v1 - v0
        if delta < 0:
            delta = v1
        out.append((t1, delta / dt))
    return out


def _histogram_quantile(
    buckets: Sequence[Tuple[float, float]], q: float,
) -> Optional[float]:
    """Prometheus-style quantile from (upper bound, count-in-window).

    Linear interpolation inside the winning bucket; the +Inf bucket
    reports its lower bound (the standard estimator's behaviour).
    """
    finite = sorted(buckets)
    total = sum(count for _, count in finite)
    if total <= 0:
        return None
    target = q * total
    cumulative = 0.0
    previous_bound = 0.0
    for bound, count in finite:
        if count <= 0:
            previous_bound = bound if math.isfinite(bound) \
                else previous_bound
            continue
        if cumulative + count >= target:
            if not math.isfinite(bound):
                return previous_bound
            fraction = (target - cumulative) / count
            return previous_bound + (bound - previous_bound) * fraction
        cumulative += count
        previous_bound = bound if math.isfinite(bound) else previous_bound
    return previous_bound


# -- repro.obs.history -------------------------------------------------------


def _rate_points(
    points: Sequence[Tuple[float, float]],
) -> List[List[float]]:
    out: List[List[float]] = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        delta = v1 - v0
        if delta < 0:  # counter reset: count the post-restart value once
            delta = v1
        out.append([_round_t(t1), _round12(delta / dt)])
    return out


# -- repro.obs.slo -----------------------------------------------------------


def good_total_from_flat(
    slo: SLO, flat: Mapping[str, float],
) -> Tuple[float, float]:
    """(good, total) for one SLO from a flat ``{series key: value}``.

    The flat shape is what the telemetry history stores per sampling
    round — the same counters :meth:`SLOTracker._cumulative` reads
    live, just addressed by exposition-format series key.  This is the
    bridge that lets burn windows rehydrate from disk after a restart.
    """
    good = total = 0.0
    if slo.kind == "availability":
        for key, value in flat.items():
            try:
                name, labels = parse_series_key(key)
            except ValueError:
                continue
            if name != "powerplay_http_responses_total":
                continue
            total += value
            if labels.get("status_class") != "5xx":
                good += value
        return good, total
    threshold = float(slo.threshold_s or 0.0)
    # per route: total from _count, good from the largest qualifying
    # cumulative bucket (same bound rule as the live read)
    best_bound: Dict[str, float] = {}
    best_value: Dict[str, float] = {}
    for key, value in flat.items():
        try:
            name, labels = parse_series_key(key)
        except ValueError:
            continue
        route = labels.get("route", "")
        if route_class(route) != slo.route_class:
            continue
        if name == "powerplay_http_request_seconds_count":
            total += value
        elif name == "powerplay_http_request_seconds_bucket":
            try:
                bound = float(labels.get("le", "nan"))
            except ValueError:
                continue
            if not bound <= threshold * (1.0 + 1e-9):
                continue
            if bound >= best_bound.get(route, -1.0):
                best_bound[route] = bound
                best_value[route] = value
    good = sum(best_value.values())
    return good, total


def _cumulative(self, slo: SLO) -> Tuple[float, float]:
    """(good, total) as counted since process start."""
    if slo.kind == "availability":
        counter = self.registry.get("powerplay_http_responses_total")
        if counter is None:
            return 0.0, 0.0
        good = total = 0.0
        for key, value in counter.samples().items():
            total += value
            if key and key[0] != "5xx":
                good += value
        return good, total
    histogram = self.registry.get("powerplay_http_request_seconds")
    if not isinstance(histogram, Histogram):
        return 0.0, 0.0
    threshold = float(slo.threshold_s or 0.0)
    bucket_index = -1
    for index, bound in enumerate(histogram.bounds):
        if bound <= threshold * (1.0 + 1e-9):
            bucket_index = index
    good = total = 0.0
    for key, (cumulative, _sum, count) in histogram.state().items():
        if not key or route_class(key[0]) != slo.route_class:
            continue
        total += count
        if bucket_index >= 0:
            good += cumulative[bucket_index]
    return good, total


# -- repro.obs.capacity.build_capacity_report, its quantile step ---------


def capacity_quantile(
    bucket_increases: List[Tuple[float, float]], quantile: float,
) -> Optional[float]:
    """The report's quantile step, lines kept verbatim."""
    quantile_latency: Optional[float] = None
    if bucket_increases:
        # exposition buckets are cumulative; the estimator wants
        # per-bucket occupancy
        bucket_increases.sort()
        occupancy = []
        previous = 0.0
        for bound, cumulative in bucket_increases:
            occupancy.append((bound, max(0.0, cumulative - previous)))
            previous = cumulative
        quantile_latency = _histogram_quantile(occupancy, quantile)
    return quantile_latency
