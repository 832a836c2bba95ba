"""Capacity reports: fit recorded history to a projected worker count.

The ROADMAP's scale-out item needs an answer to "how many workers do we
provision for 10k users?" — and the honest answer comes from observed
history, not guesses.  This module reads the
:class:`~repro.obs.history.HistoryStore` a server has been recording
into and, per route:

* reconstructs the **throughput** series (reset-safe req/s from the
  ``powerplay_http_requests_total`` counters, methods summed);
* measures **latency** over the window (mean from the histogram
  ``_sum``/``_count`` increases, p-quantile interpolated from the
  ``_bucket`` increases — the standard Prometheus estimator);
* fits a least-squares **trend** to the throughput and extrapolates it
  over a projection horizon;
* converts the projected load to a **worker count** with Little's law:
  concurrency = rate x mean latency, workers = ceil(concurrency /
  (threads_per_worker x utilization)).

Everything is deterministic for a given store: same files in, same
bytes out (``CapacityReport.to_json()``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .history import (
    HistoryStore, _increase, _rate_series, _round12, _round_t,
    render_sparkline,
)
from .metrics import bucket_quantile, parse_series_key

__all__ = [
    "CapacityReport",
    "RouteCapacity",
    "build_capacity_report",
]

#: one worker thread at full utilisation serves 1 unit of concurrency;
#: these defaults mirror a ThreadingHTTPServer worker with headroom
DEFAULT_THREADS_PER_WORKER = 8
DEFAULT_UTILIZATION = 0.6
DEFAULT_HORIZON_S = 7 * 86400.0

_REQUESTS_FAMILY = "powerplay_http_requests_total"
_LATENCY_FAMILY = "powerplay_http_request_seconds"


@dataclass
class RouteCapacity:
    """Observed + projected numbers for one route."""

    route: str
    samples: int
    window_s: float
    requests: float               # total increase over the window
    rps_mean: float
    rps_peak: float
    trend_per_hour: float         # d(rps)/dt fitted, per hour
    rps_projected: float          # rps_peak + trend * horizon (floor 0)
    mean_latency_s: Optional[float]
    quantile_latency_s: Optional[float]
    concurrency: float            # Little's law at projected load
    workers: int
    sparkline: str = ""

    def payload(self) -> Dict[str, object]:
        return {
            "route": self.route,
            "samples": self.samples,
            "window_s": _round_t(self.window_s),
            "requests": _round12(self.requests),
            "rps_mean": _round12(self.rps_mean),
            "rps_peak": _round12(self.rps_peak),
            "trend_per_hour": _round12(self.trend_per_hour),
            "rps_projected": _round12(self.rps_projected),
            "mean_latency_s": None if self.mean_latency_s is None
            else _round12(self.mean_latency_s),
            "quantile_latency_s": None if self.quantile_latency_s is None
            else _round12(self.quantile_latency_s),
            "concurrency": _round12(self.concurrency),
            "workers": self.workers,
            "sparkline": self.sparkline,
        }


@dataclass
class CapacityReport:
    """All routes, plus the fleet-level projection that sizes workers."""

    since: float
    until: float
    horizon_s: float
    threads_per_worker: int
    utilization: float
    quantile: float
    routes: List[RouteCapacity] = field(default_factory=list)

    @property
    def total_workers(self) -> int:
        """Workers to provision: concurrency sums across routes."""
        concurrency = sum(route.concurrency for route in self.routes)
        per_worker = self.threads_per_worker * self.utilization
        if concurrency <= 0 or per_worker <= 0:
            return 1
        return max(1, math.ceil(concurrency / per_worker))

    def payload(self) -> Dict[str, object]:
        return {
            "since": _round_t(self.since),
            "until": _round_t(self.until),
            "horizon_s": _round_t(self.horizon_s),
            "threads_per_worker": self.threads_per_worker,
            "utilization": self.utilization,
            "quantile": self.quantile,
            "total_workers": self.total_workers,
            "routes": [route.payload() for route in self.routes],
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    def render_text(self) -> str:
        lines = [
            "Capacity report "
            f"(window {self.window_hours():.2f} h, projection horizon "
            f"{self.horizon_s / 3600:.0f} h, "
            f"{self.threads_per_worker} threads/worker at "
            f"{self.utilization:.0%} utilization)",
            "",
        ]
        header = (
            f"{'route':<22} {'req':>8} {'rps':>9} {'peak':>9} "
            f"{'trend/h':>9} {'proj rps':>9} {'mean ms':>8} "
            f"{'p{:g} ms'.format(self.quantile * 100):>8} "
            f"{'workers':>7}  throughput"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for route in self.routes:
            mean_ms = (
                "-" if route.mean_latency_s is None
                else f"{route.mean_latency_s * 1e3:.2f}"
            )
            quantile_ms = (
                "-" if route.quantile_latency_s is None
                else f"{route.quantile_latency_s * 1e3:.2f}"
            )
            lines.append(
                f"{route.route:<22} {route.requests:>8.0f} "
                f"{route.rps_mean:>9.3f} {route.rps_peak:>9.3f} "
                f"{route.trend_per_hour:>+9.3f} "
                f"{route.rps_projected:>9.3f} {mean_ms:>8} "
                f"{quantile_ms:>8} {route.workers:>7}  "
                f"{route.sparkline}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"provision {self.total_workers} worker(s) for the "
            "projected load"
        )
        return "\n".join(lines)

    def window_hours(self) -> float:
        span = self.until - self.since
        return span / 3600.0 if math.isfinite(span) and span > 0 else 0.0


def _slope_per_second(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of value over time; 0 with < 2 points."""
    if len(points) < 2:
        return 0.0
    n = float(len(points))
    mean_t = sum(t for t, _ in points) / n
    mean_v = sum(v for _, v in points) / n
    num = sum((t - mean_t) * (v - mean_v) for t, v in points)
    den = sum((t - mean_t) ** 2 for t, _ in points)
    return num / den if den > 0 else 0.0


def _sum_aligned(
    series: Mapping[str, List[Tuple[float, float]]],
) -> List[Tuple[float, float]]:
    """Sum several cumulative series at their shared timestamps.

    Only timestamps present in *every* member contribute — summing a
    mix of present and missing samples would fabricate counter drops.
    """
    if not series:
        return []
    if len(series) == 1:
        return list(next(iter(series.values())))
    common = None
    for points in series.values():
        stamps = {t for t, _ in points}
        common = stamps if common is None else (common & stamps)
    if not common:
        return []
    out: Dict[float, float] = {t: 0.0 for t in common}
    for points in series.values():
        for t, v in points:
            if t in out:
                out[t] += v
    return sorted(out.items())


def _window_buckets(
    increases: Sequence[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Cumulative ``(bound, count)`` pairs from per-bucket increases.

    Reset-safe increases of cumulative buckets need not rise with the
    bound, so each bucket's own share is clamped at zero.
    """
    cumulative: List[Tuple[float, float]] = []
    running = previous = 0.0
    for bound, increase in sorted(increases):
        running += max(0.0, increase - previous)
        previous = increase
        cumulative.append((bound, running))
    return cumulative


def _collect_by_label(
    store: HistoryStore,
    name: str,
    since: Optional[float],
    until: Optional[float],
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """{route: {series key: points}} for one sample name."""
    result = store.query(name, op="range", since=since, until=until)
    grouped: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for entry in result.series:
        key = str(entry["key"])
        try:
            _, labels = parse_series_key(key)
        except ValueError:
            continue
        route = labels.get("route", "")
        if not route:
            continue
        points = [
            (float(t), float(v)) for t, v in entry.get("points", [])
        ]
        grouped.setdefault(route, {})[key] = points
    return grouped


def build_capacity_report(
    store: HistoryStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
    horizon_s: float = DEFAULT_HORIZON_S,
    threads_per_worker: int = DEFAULT_THREADS_PER_WORKER,
    utilization: float = DEFAULT_UTILIZATION,
    quantile: float = 0.95,
    spark_width: int = 24,
) -> CapacityReport:
    """Fit the recorded history to per-route capacity numbers."""
    if threads_per_worker < 1:
        raise ValueError("threads_per_worker must be >= 1")
    if not 0.0 < utilization <= 1.0:
        raise ValueError("utilization must be within (0, 1]")
    if horizon_s < 0:
        raise ValueError("projection horizon must be >= 0 seconds")
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be within [0, 1]")

    requests = _collect_by_label(store, _REQUESTS_FAMILY, since, until)
    latency_sum = _collect_by_label(
        store, f"{_LATENCY_FAMILY}_sum", since, until
    )
    latency_count = _collect_by_label(
        store, f"{_LATENCY_FAMILY}_count", since, until
    )
    latency_bucket = _collect_by_label(
        store, f"{_LATENCY_FAMILY}_bucket", since, until
    )

    observed_since = math.inf
    observed_until = -math.inf
    routes: List[RouteCapacity] = []
    for route in sorted(requests):
        summed = _sum_aligned(requests[route])
        if len(summed) < 2:
            continue
        observed_since = min(observed_since, summed[0][0])
        observed_until = max(observed_until, summed[-1][0])
        window_s = summed[-1][0] - summed[0][0]
        total = _increase(summed)
        rates = _rate_series(summed)
        rps_values = [v for _, v in rates]
        rps_mean = (
            total / window_s if window_s > 0 else 0.0
        )
        rps_peak = max(rps_values, default=rps_mean)
        slope = _slope_per_second(rates)
        projected = max(0.0, rps_peak + slope * horizon_s)

        mean_latency: Optional[float] = None
        sum_points = _sum_aligned(latency_sum.get(route, {}))
        count_points = _sum_aligned(latency_count.get(route, {}))
        count_increase = _increase(count_points)
        if count_increase > 0:
            mean_latency = _increase(sum_points) / count_increase

        quantile_latency: Optional[float] = None
        bucket_increases: List[Tuple[float, float]] = []
        for key, points in sorted(latency_bucket.get(route, {}).items()):
            try:
                _, labels = parse_series_key(key)
                bound = float(labels.get("le", "nan"))
            except ValueError:
                continue
            if math.isnan(bound):
                continue
            bucket_increases.append((bound, _increase(points)))
        if bucket_increases:
            quantile_latency = bucket_quantile(
                _window_buckets(bucket_increases), quantile
            )

        service_time = mean_latency if mean_latency is not None else 0.0
        concurrency = projected * service_time
        per_worker = threads_per_worker * utilization
        workers = max(1, math.ceil(concurrency / per_worker)) \
            if concurrency > 0 else 1

        routes.append(RouteCapacity(
            route=route,
            samples=len(summed),
            window_s=window_s,
            requests=total,
            rps_mean=rps_mean,
            rps_peak=rps_peak,
            trend_per_hour=slope * 3600.0,
            rps_projected=projected,
            mean_latency_s=mean_latency,
            quantile_latency_s=quantile_latency,
            concurrency=concurrency,
            workers=workers,
            sparkline=render_sparkline(rps_values, width=spark_width),
        ))

    if observed_since == math.inf:
        observed_since = 0.0 if since is None else float(since)
        observed_until = 0.0 if until is None else float(until)
    return CapacityReport(
        since=observed_since if since is None else float(since),
        until=observed_until if until is None else float(until),
        horizon_s=horizon_s,
        threads_per_worker=threads_per_worker,
        utilization=utilization,
        quantile=quantile,
        routes=routes,
    )
