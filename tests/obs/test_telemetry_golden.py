"""Golden telemetry outputs: every statistic the plane reports, pinned.

One seeded stream of requests feeds three registries ("nodes") with the
application's own metric families and labels: routes from the route
table, methods, status classes and the latency histogram on the default
buckets.  Everything downstream is captured byte for byte:

* each registry's ``render()`` and ``export_state()``;
* the fleet merge of the three exposition texts (``parse_exposition``
  then ``merge_states``) with its p50/p95/p99 (``family_quantile``);
* ``histogram_summary`` for every route of every node;
* an SLO tracker stepped by a fake clock through an error burst and a
  counter reset, and a second tracker rehydrated from the history's
  flat samples;
* a ``HistoryStore`` fed node 0's rounds and compacted down to 15-minute
  rollups: ``query`` JSON for range, rate and quantile,
  ``flat_recent``, and ``build_capacity_report(...).to_json()``.

The goldens were captured from the code before the telemetry plane
shared one sample model, so any change in a reported number fails here.
Regenerate only for an intentional output change, and review the diff::

    PYTHONPATH=src python -m pytest tests/obs/test_telemetry_golden.py --update-golden
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.loadgen.stats import histogram_summary
from repro.obs.capacity import build_capacity_report
from repro.obs.fleet import family_quantile, parse_exposition
from repro.obs.history import HistoryConfig, HistoryStore
from repro.obs.metrics import MetricsRegistry, merge_states
from repro.obs.slo import SLOTracker

GOLDEN_DIR = Path(__file__).parent / "golden"

#: ui, api and ops routes, so every latency SLO sees traffic
ROUTES = (
    "/menu", "/design", "/api/ping", "/agent/estimate", "/metrics",
    "/healthz",
)
#: log-normal latency medians per route, seconds
MEDIAN_S = {
    "/menu": 0.004, "/design": 0.03, "/api/ping": 0.0008,
    "/agent/estimate": 0.02, "/metrics": 0.06, "/healthz": 0.001,
}
ROUNDS = 240
INTERVAL_S = 120.0
#: a multiple of the 6 h rollup window, so the first window folds to m15
T0 = 1_700_006_400.0
RESET_ROUND = 150  # node 0's registry restarts here
BURST = range(60, 75)  # rounds with a 5xx storm on node 0


class FakeClock:
    def __init__(self, now: float):
        self.now = now

    def __call__(self) -> float:
        return self.now


def new_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "powerplay_http_requests_total",
        "HTTP requests routed, by method and (normalized) route.",
        ("method", "route"),
    )
    registry.counter(
        "powerplay_http_responses_total",
        "HTTP responses, by status class (2xx/3xx/4xx/5xx).",
        ("status_class",),
    )
    registry.histogram(
        "powerplay_http_request_seconds",
        "Request handling latency in seconds, per route.",
        ("route",),
    )
    registry.gauge(
        "powerplay_uptime_seconds",
        "Seconds since this Application was constructed.",
    )
    return registry


def feed_round(
    rng: random.Random, registry: MetricsRegistry, node: int, round_: int,
) -> None:
    requests = registry.get("powerplay_http_requests_total")
    responses = registry.get("powerplay_http_responses_total")
    latency = registry.get("powerplay_http_request_seconds")
    error_rate = 0.35 if node == 0 and round_ in BURST else 0.002
    for _ in range(rng.randint(10, 30)):
        route = rng.choice(ROUTES)
        method = "POST" if route == "/design" and \
            rng.random() < 0.5 else "GET"
        seconds = rng.lognormvariate(0.0, 0.9) * MEDIAN_S[route]
        if rng.random() < 0.01:
            seconds += 3.0  # lands in +Inf
        roll = rng.random()
        if roll < error_rate:
            status_class = "5xx"
        elif roll < 0.05:
            status_class = "4xx"
        elif method == "POST" and roll < 0.5:
            status_class = "3xx"
        else:
            status_class = "2xx"
        requests.inc(method=method, route=route)
        responses.inc(status_class=status_class)
        latency.observe(seconds, route=route)
    registry.get("powerplay_uptime_seconds").set(round_ * INTERVAL_S)


def build_outputs() -> Dict[str, str]:
    rng = random.Random(1996)
    registries = [new_registry() for _ in range(3)]
    clock = FakeClock(0.0)
    tracker = SLOTracker(registry=registries[0], clock=clock)
    outputs: Dict[str, str] = {}
    slo_log: List[object] = []
    with tempfile.TemporaryDirectory() as tmp:
        store = HistoryStore(
            Path(tmp) / "history",
            HistoryConfig(
                interval_s=INTERVAL_S, seal_every=10,
                raw_retention_s=600.0, m1_retention_s=1800.0,
                fsync_journal=False,
            ),
            clock=lambda: T0,
        )
        for round_ in range(ROUNDS):
            if round_ == RESET_ROUND:
                registries[0].reset()
            for node, registry in enumerate(registries):
                feed_round(rng, registry, node, round_)
            clock.now = round_ * INTERVAL_S
            statuses = tracker.evaluate()
            if round_ % 8 == 0 or any(status.changed for status in statuses):
                slo_log.append([round_, SLOTracker.payload(statuses)])
            when = T0 + round_ * INTERVAL_S
            store.append(registries[0].export_state(), when=when)
            if round_ % 10 == 9:
                store.compact(now=when)
        newest = T0 + (ROUNDS - 1) * INTERVAL_S

        for node, registry in enumerate(registries):
            outputs[f"node{node}.prom"] = registry.render()
            outputs[f"node{node}.state.json"] = _dumps(registry.export_state())
        merged = merge_states(
            parse_exposition(registry.render()) for registry in registries
        )
        family = merged["powerplay_http_request_seconds"]
        outputs["fleet_merge.json"] = _dumps({
            "aggregate": merged,
            "quantiles": {
                f"p{int(q * 100)}": family_quantile(family, q)
                for q in (0.50, 0.95, 0.99)
            },
        })
        summaries: Dict[str, object] = {}
        for node, registry in enumerate(registries):
            histogram = registry.get("powerplay_http_request_seconds")
            summaries[f"node{node}"] = {
                route: histogram_summary(histogram, route)
                for route in ROUTES
            }
            summaries[f"node{node}"]["(all)"] = histogram_summary(histogram)
        outputs["histogram_summary.json"] = _dumps(summaries)
        outputs["slo_live.json"] = _dumps(slo_log, indent=None)

        flat = store.flat_recent(newest - 1800.0)
        outputs["flat_recent.json"] = _dumps(flat, indent=None)
        rehydrated = SLOTracker(
            registry=new_registry(), clock=FakeClock(50_000.0)
        )
        statuses = rehydrated.rehydrate(flat, wall_now=newest + 30.0)
        outputs["slo_rehydrated.json"] = _dumps(
            SLOTracker.payload(statuses)
        )

        queries = [
            ("powerplay_http_requests_total", {"route": "/menu"}, "range",
             None, 0.95),
            ("powerplay_http_requests_total", {"route": "/menu"}, "rate",
             None, 0.95),
            ("powerplay_http_responses_total", {}, "rate",
             newest - 4 * 3600.0, 0.95),
            ("powerplay_http_request_seconds_sum", {}, "quantile",
             None, 0.9),
            ("powerplay_http_request_seconds_bucket",
             {"route": "/api/ping", "le": "0.001"}, "range", None, 0.95),
        ]
        for index, (name, labels, op, since, q) in enumerate(queries):
            result = store.query(name, labels=labels, op=op, since=since, q=q)
            outputs[f"query{index}_{op}.json"] = result.to_json()
        outputs["capacity_default.json"] = build_capacity_report(
            store
        ).to_json()
        outputs["capacity_p50_window.json"] = build_capacity_report(
            store, since=newest - 3 * 3600.0, quantile=0.5,
            horizon_s=3600.0, threads_per_worker=4, utilization=0.8,
        ).to_json()
    return outputs


def _dumps(payload: object, indent: Optional[int] = 1) -> str:
    return json.dumps(payload, sort_keys=True, indent=indent) + "\n"


@pytest.fixture(scope="module")
def outputs() -> Dict[str, str]:
    return build_outputs()


def test_golden_file_set_is_complete(outputs, update_golden):
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, text in outputs.items():
            (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
    committed = sorted(path.name for path in GOLDEN_DIR.iterdir())
    assert committed == sorted(outputs)


@pytest.mark.parametrize("name", [
    "node0.prom", "node1.prom", "node2.prom",
    "node0.state.json", "node1.state.json", "node2.state.json",
    "fleet_merge.json", "histogram_summary.json",
    "slo_live.json", "slo_rehydrated.json", "flat_recent.json",
    "query0_range.json", "query1_rate.json", "query2_rate.json",
    "query3_quantile.json", "query4_range.json",
    "capacity_default.json", "capacity_p50_window.json",
])
def test_output_matches_golden(outputs, name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert outputs[name] == expected
