"""Declarative SLOs with multi-window, multi-burn-rate alerting.

An :class:`SLO` states an objective over the traffic the metrics
registry already counts — "99.5% of responses are non-5xx", "99% of
API requests finish under 25ms" — and an :class:`SLOTracker` evaluates
every objective continuously from rolling windows over those counters.

The alerting rule is the Google-SRE multi-window multi-burn-rate
pattern: *burn rate* is the error rate divided by the error budget
(``1 - objective``), so burn 1.0 spends exactly the budget over the
SLO period, burn 14.4 exhausts a 30-day budget in two days.  A state
is:

* ``page``  — burn >= 14.4 over BOTH the 5m and 1h windows,
* ``warn``  — burn >= 6.0 over BOTH the 30m and 6h windows,
* ``ok``    — otherwise.

Requiring both windows makes the alert fast *and* sticky-proof: the
short window arms quickly and disarms quickly once the bleeding stops,
the long window suppresses one-request blips at low traffic.

Windows are built from pairwise counter *increments* (never raw
cumulative values), so a counter reset — process restart, registry
``reset()`` in tests — re-baselines instead of producing a negative
spike.  The clock is injectable, which makes every window computation
deterministic under test: advance a fake clock, not ``time.sleep``.

Zero traffic in a window is *not* an outage: no requests means no
errors means burn rate 0 and state ``ok`` (an idle fleet should not
page anyone).
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .metrics import (
    Counter, Histogram, MetricsRegistry, get_registry, parse_series_key,
)

__all__ = [
    "BurnRatePolicy",
    "DEFAULT_SLOS",
    "SLO",
    "SLOStatus",
    "SLOTracker",
    "good_total_from_flat",
    "route_class",
    "worst_state",
]

#: alert severities, worst last; index = the exported gauge code
SLO_STATES = ("ok", "warn", "page")

#: route-class prefixes — the bounded route labels from
#: ``repro.web.app.route_label`` collapse into three service classes
_OPS_ROUTES = frozenset(
    {
        "/metrics", "/status", "/healthz", "/trace", "/profile",
        "/fleet", "/debug/flight", "/history",
    }
)
_API_PREFIXES = ("/api/", "/agent/", "/export/")


def route_class(route: str) -> str:
    """Collapse a route label into ``api`` / ``ops`` / ``ui``.

    ``api`` is the machine-to-machine surface (federation sync, JSON
    endpoints), ``ops`` the observability endpoints, ``ui`` everything
    a person clicks.  Each class gets its own latency objective — a
    slow ``/metrics`` scrape must not page the UI SLO.
    """
    if route in _OPS_ROUTES:
        return "ops"
    if route.startswith(_API_PREFIXES):
        return "api"
    return "ui"


@dataclass(frozen=True)
class SLO:
    """One declarative objective.

    ``kind`` is ``availability`` (good = non-5xx responses, from
    ``powerplay_http_responses_total``) or ``latency`` (good = requests
    at or under ``threshold_s``, from the cumulative buckets of
    ``powerplay_http_request_seconds``).  Latency SLOs are scoped to a
    :func:`route_class`; availability is fleet-wide per node because
    the status-class counter carries no route label.

    ``threshold_s`` must sit on a histogram bucket bound — the good
    count is read straight off the cumulative bucket, which keeps the
    SLO arithmetic exact rather than interpolated.
    """

    name: str
    kind: str  # "availability" | "latency"
    objective: float  # e.g. 0.995 — fraction of events that must be good
    route_class: Optional[str] = None  # latency SLOs only
    threshold_s: Optional[float] = None  # latency SLOs only
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be a fraction in (0, 1)")
        if self.kind == "latency" and (
            self.route_class is None or self.threshold_s is None
        ):
            raise ValueError("latency SLOs need route_class and threshold_s")

    @property
    def budget(self) -> float:
        """The error budget: the fraction of events allowed to be bad."""
        return 1.0 - self.objective


#: the shipped objectives — availability plus a p99-style latency bound
#: per route class (thresholds sit on DEFAULT_LATENCY_BUCKETS bounds)
DEFAULT_SLOS: Tuple[SLO, ...] = (
    SLO(
        name="availability",
        kind="availability",
        objective=0.995,
        description="99.5% of responses are non-5xx.",
    ),
    SLO(
        name="latency-api",
        kind="latency",
        objective=0.99,
        route_class="api",
        threshold_s=0.025,
        description="99% of API requests finish within 25ms.",
    ),
    SLO(
        name="latency-ui",
        kind="latency",
        objective=0.99,
        route_class="ui",
        threshold_s=0.1,
        description="99% of UI requests finish within 100ms.",
    ),
    SLO(
        name="latency-ops",
        kind="latency",
        objective=0.99,
        route_class="ops",
        threshold_s=0.25,
        description="99% of ops/observability requests finish within 250ms.",
    ),
)


@dataclass(frozen=True)
class BurnRatePolicy:
    """Window lengths (seconds) and burn thresholds for each severity."""

    page_burn: float = 14.4
    page_short_s: float = 300.0  # 5m
    page_long_s: float = 3600.0  # 1h
    warn_burn: float = 6.0
    warn_short_s: float = 1800.0  # 30m
    warn_long_s: float = 21600.0  # 6h

    @property
    def longest_s(self) -> float:
        return max(
            self.page_short_s, self.page_long_s,
            self.warn_short_s, self.warn_long_s,
        )

    def windows(self) -> Dict[str, float]:
        return {
            "page_short": self.page_short_s,
            "page_long": self.page_long_s,
            "warn_short": self.warn_short_s,
            "warn_long": self.warn_long_s,
        }


@dataclass
class SLOStatus:
    """The evaluated state of one SLO at one instant."""

    slo: SLO
    state: str
    previous: str
    burn_rates: Dict[str, float] = field(default_factory=dict)
    window_total: float = 0.0  # events in the longest window
    window_bad: float = 0.0
    budget_remaining: float = 1.0  # fraction of budget left (long window)

    @property
    def changed(self) -> bool:
        return self.state != self.previous

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.slo.name,
            "kind": self.slo.kind,
            "objective": self.slo.objective,
            "route_class": self.slo.route_class,
            "threshold_s": self.slo.threshold_s,
            "state": self.state,
            "previous": self.previous,
            "burn_rates": {
                window: round(rate, 6)
                for window, rate in sorted(self.burn_rates.items())
            },
            "window_total": self.window_total,
            "window_bad": self.window_bad,
            "budget_remaining": round(self.budget_remaining, 6),
        }


def worst_state(statuses: Sequence[SLOStatus]) -> str:
    """The most severe state across a set of statuses (``ok`` if empty)."""
    worst = 0
    for status in statuses:
        worst = max(worst, SLO_STATES.index(status.state))
    return SLO_STATES[worst]


#: ``(route, bucket bounds, cumulative bucket counts, total count)``
LatencyRow = Tuple[str, Sequence[float], Sequence[float], float]


def _good_total(
    slo: SLO,
    responses: Iterable[Tuple[Optional[str], float]],
    latencies: Iterable[LatencyRow],
) -> Tuple[float, float]:
    """(good, total) for one SLO, over plain numbers: both SLO rules.

    Availability reads ``responses``, ``(status class, count)`` per
    series: every non-5xx response is good.  Latency reads
    ``latencies`` for the routes of its class: all of a route's
    requests count, and the good ones are read off the cumulative
    bucket at the largest bound within ``threshold_s`` (a 1e-9
    relative tolerance absorbs float noise in the threshold).  Only the
    input the SLO's kind names is consumed.
    """
    good = total = 0.0
    if slo.kind == "availability":
        for status_class, count in responses:
            total += count
            if status_class != "5xx":
                good += count
        return good, total
    limit = float(slo.threshold_s or 0.0) * (1.0 + 1e-9)
    for route, bounds, cumulative, count in latencies:
        if route_class(route) != slo.route_class:
            continue
        total += count
        within = bisect_right(bounds, limit)
        if within:
            good += cumulative[within - 1]
    return good, total


def _flat_counts(
    flat: Mapping[str, float],
) -> Tuple[List[Tuple[Optional[str], float]], List[LatencyRow]]:
    """The SLO inputs of :func:`_good_total`, read from series keys."""
    responses: List[Tuple[Optional[str], float]] = []
    counts: Dict[str, float] = {}
    buckets: Dict[str, Dict[float, float]] = {}
    for key, value in flat.items():
        try:
            name, labels = parse_series_key(key)
            route = labels.get("route", "")
            if name == "powerplay_http_responses_total":
                responses.append((labels.get("status_class"), value))
            elif name == "powerplay_http_request_seconds_count":
                counts[route] = counts.get(route, 0.0) + value
            elif name == "powerplay_http_request_seconds_bucket":
                bound = float(labels.get("le", "nan"))
                if not math.isnan(bound):
                    buckets.setdefault(route, {})[bound] = value
        except ValueError:
            continue
    latencies: List[LatencyRow] = []
    for route in sorted(counts.keys() | buckets.keys()):
        pairs = sorted(buckets.get(route, {}).items())
        latencies.append((
            route, [bound for bound, _ in pairs],
            [value for _, value in pairs], counts.get(route, 0.0),
        ))
    return responses, latencies


def good_total_from_flat(
    slo: SLO, flat: Mapping[str, float],
) -> Tuple[float, float]:
    """(good, total) for one SLO from a flat ``{series key: value}``.

    The flat shape is what the telemetry history stores per sampling
    round — the same counters :meth:`SLOTracker._cumulative` reads
    live, just addressed by exposition-format series key.  This is the
    bridge that lets burn windows rehydrate from disk after a restart.
    """
    return _good_total(slo, *_flat_counts(flat))


class _WindowedSeries:
    """Rolling (good, total) sums built from cumulative counter reads.

    Each :meth:`push` turns the latest cumulative pair into an
    *increment* against the previous read.  A negative delta means the
    underlying counter restarted; the current cumulative value *is*
    the increment then (everything counted since the reset is new).
    Increments older than the horizon are pruned, so memory is bounded
    by sample rate x longest window.
    """

    __slots__ = ("_increments", "_last")

    def __init__(self) -> None:
        self._increments: Deque[Tuple[float, float, float]] = deque()
        self._last: Optional[Tuple[float, float]] = None

    def push(self, now: float, good: float, total: float) -> None:
        if self._last is None:
            dgood, dtotal = good, total
        else:
            dgood = good - self._last[0]
            dtotal = total - self._last[1]
            if dgood < 0 or dtotal < 0:  # counter reset: re-baseline
                dgood, dtotal = good, total
        self._last = (good, total)
        if dtotal > 0 or dgood > 0:
            self._increments.append((now, dgood, dtotal))

    def prune(self, now: float, horizon_s: float) -> None:
        cutoff = now - horizon_s
        while self._increments and self._increments[0][0] <= cutoff:
            self._increments.popleft()

    def window(self, now: float, length_s: float) -> Tuple[float, float]:
        """(good, total) summed over the trailing ``length_s`` seconds."""
        cutoff = now - length_s
        good = total = 0.0
        for when, dgood, dtotal in reversed(self._increments):
            if when <= cutoff:
                break
            good += dgood
            total += dtotal
        return good, total


class SLOTracker:
    """Evaluates a set of SLOs against a live metrics registry.

    ``clock`` defaults to ``time.monotonic``; tests inject a fake to
    advance windows deterministically.  :meth:`evaluate` samples the
    counters, computes burn rates, updates the ``powerplay_slo_*``
    gauges, and returns one :class:`SLOStatus` per SLO — including
    ``previous`` state so callers can react to *transitions* (the
    flight recorder snapshots on any ``-> page`` edge).
    """

    def __init__(
        self,
        slos: Sequence[SLO] = DEFAULT_SLOS,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        policy: BurnRatePolicy = BurnRatePolicy(),
    ):
        if len({slo.name for slo in slos}) != len(slos):
            raise ValueError("SLO names must be unique")
        self.slos = tuple(slos)
        self.registry = registry or get_registry()
        self.clock = clock
        self.policy = policy
        self._series: Dict[str, _WindowedSeries] = {
            slo.name: _WindowedSeries() for slo in self.slos
        }
        self._states: Dict[str, str] = {slo.name: "ok" for slo in self.slos}
        self._lock = threading.Lock()
        self._state_gauge = self.registry.gauge(
            "powerplay_slo_state",
            "SLO alert state: 0=ok, 1=warn, 2=page.",
            ("slo",),
        )
        self._burn_gauge = self.registry.gauge(
            "powerplay_slo_burn_rate",
            "SLO burn rate (error rate / error budget) per alert window.",
            ("slo", "window"),
        )
        self._budget_gauge = self.registry.gauge(
            "powerplay_slo_budget_remaining",
            "Fraction of the error budget left over the long warn window.",
            ("slo",),
        )

    # -- cumulative reads ---------------------------------------------------

    def _cumulative(self, slo: SLO) -> Tuple[float, float]:
        """(good, total) as counted since process start.

        The live reader hands the metrics' own label tuples and bucket
        lists to :func:`_good_total`: it builds and parses no series-key
        strings, because it runs on the request path.
        """
        return _good_total(slo, self._responses(), self._latencies())

    def _responses(self) -> Iterator[Tuple[Optional[str], float]]:
        counter = self.registry.get("powerplay_http_responses_total")
        if isinstance(counter, Counter):
            for key, value in counter.samples().items():
                yield (key[0] if key else None), value

    def _latencies(self) -> Iterator[LatencyRow]:
        histogram = self.registry.get("powerplay_http_request_seconds")
        if isinstance(histogram, Histogram):
            for key, (cumulative, _, count) in histogram.state().items():
                if key:
                    yield key[0], histogram.bounds, cumulative, count

    # -- evaluation ---------------------------------------------------------

    def _evaluate_one(self, slo: SLO, now: float) -> SLOStatus:
        series = self._series[slo.name]
        good, total = self._cumulative(slo)
        series.push(now, good, total)
        series.prune(now, self.policy.longest_s)

        burn_rates: Dict[str, float] = {}
        for window_name, length_s in self.policy.windows().items():
            window_good, window_total = series.window(now, length_s)
            if window_total <= 0:
                burn_rates[window_name] = 0.0
            else:
                error_rate = (window_total - window_good) / window_total
                burn_rates[window_name] = error_rate / slo.budget

        if (
            burn_rates["page_short"] >= self.policy.page_burn
            and burn_rates["page_long"] >= self.policy.page_burn
        ):
            state = "page"
        elif (
            burn_rates["warn_short"] >= self.policy.warn_burn
            and burn_rates["warn_long"] >= self.policy.warn_burn
        ):
            state = "warn"
        else:
            state = "ok"

        long_good, long_total = series.window(now, self.policy.longest_s)
        status = SLOStatus(
            slo=slo,
            state=state,
            previous=self._states[slo.name],
            burn_rates=burn_rates,
            window_total=long_total,
            window_bad=long_total - long_good,
            budget_remaining=max(
                0.0, 1.0 - burn_rates["warn_long"] / 1.0
            )
            if long_total > 0
            else 1.0,
        )
        self._states[slo.name] = state
        return status

    def evaluate(self) -> List[SLOStatus]:
        """Sample counters, compute every SLO, export gauges."""
        now = self.clock()
        with self._lock:
            statuses = [self._evaluate_one(slo, now) for slo in self.slos]
        for status in statuses:
            self._state_gauge.set(
                SLO_STATES.index(status.state), slo=status.slo.name
            )
            for window, rate in status.burn_rates.items():
                self._burn_gauge.set(rate, slo=status.slo.name, window=window)
            self._budget_gauge.set(
                status.budget_remaining, slo=status.slo.name
            )
        return statuses

    def rehydrate(
        self,
        samples: Sequence[Tuple[float, Mapping[str, float]]],
        wall_now: Optional[float] = None,
        evaluate: bool = True,
    ) -> List[SLOStatus]:
        """Rebuild the burn windows from recorded history samples.

        ``samples`` is ``[(wall timestamp, flat {series key: value})]``
        as returned by ``HistoryStore.flat_recent`` — each is replayed
        through the same increment pipeline a live evaluation uses, at
        a tracker-clock time shifted by its wall age, so a paging
        condition from before a restart is still burning afterwards.

        The registry's own (freshly reset) counters are then one more
        negative delta: the reset path re-baselines and post-restart
        traffic counts exactly once.  Call this *before* the tracker's
        first live evaluation.
        """
        if wall_now is None:
            wall_now = time.time()
        now = self.clock()
        with self._lock:
            for wall_t, flat in sorted(samples, key=lambda item: item[0]):
                age = wall_now - float(wall_t)
                if age < 0:
                    continue
                when = now - age
                counts = _flat_counts(flat)
                for slo in self.slos:
                    good, total = _good_total(slo, *counts)
                    self._series[slo.name].push(when, good, total)
            for slo in self.slos:
                self._series[slo.name].prune(now, self.policy.longest_s)
        return self.evaluate() if evaluate else []

    def states(self) -> Dict[str, str]:
        """Current state per SLO name (without re-evaluating)."""
        with self._lock:
            return dict(self._states)

    @staticmethod
    def payload(statuses: Sequence[SLOStatus]) -> Dict[str, object]:
        """The JSON shape /healthz and /fleet embed."""
        return {
            "state": worst_state(statuses),
            "objectives": [status.to_payload() for status in statuses],
        }
