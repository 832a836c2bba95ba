"""Fleet scrape/merge determinism and the exposition round-trip.

The merge contract: any arrival order of node states produces
byte-identical aggregate JSON, counters/histograms sum, gauges take the
worst (max), and families that refuse to merge are *named*, never
silently wrong.  ``parse_exposition`` must read a peer's rendered
``/metrics`` back into exactly the shape ``export_state`` produces —
one merge code path for local and remote nodes.
"""

import json
from itertools import permutations

import pytest

from repro.obs.fleet import (
    FleetNode,
    FleetReport,
    FleetScraper,
    family_quantile,
    parse_exposition,
)
from repro.obs.metrics import MetricsRegistry, merge_states


def build_registry(scale: int = 1) -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter(
        "powerplay_http_requests_total", "requests", ("method", "route")
    )
    requests.inc(amount=10 * scale, method="GET", route="/menu")
    requests.inc(amount=3 * scale, method="POST", route="/design")
    health = registry.gauge("powerplay_health_state", "health")
    health.set(float(scale % 3))
    latency = registry.histogram(
        "powerplay_http_request_seconds", "latency", ("route",)
    )
    for index in range(5 * scale):
        latency.observe(0.001 * (index + 1), route="/menu")
    return registry


# -- exposition round-trip -------------------------------------------------


def test_parse_exposition_round_trips_export_state():
    registry = build_registry(scale=2)
    parsed = parse_exposition(registry.render())
    assert parsed == registry.export_state()


def test_parse_exposition_unescapes_label_values():
    registry = MetricsRegistry()
    counter = registry.counter("weird_total", "", ("path",))
    counter.inc(path='a"b\\c\nd')
    parsed = parse_exposition(registry.render())
    assert parsed == registry.export_state()
    (key,) = parsed["weird_total"]["series"]
    assert '\\"' in key  # the canonical key keeps exposition escaping


def test_parse_exposition_skips_garbage_lines():
    text = (
        "# TYPE good_total counter\n"
        "good_total 4\n"
        "!! not a sample line !!\n"
        "bad_value{x=\"y\"} notanumber\n"
    )
    parsed = parse_exposition(text)
    assert parsed["good_total"]["series"] == {"good_total": 4.0}
    assert "bad_value" not in parsed


# -- merge semantics -------------------------------------------------------


def test_merge_sums_counters_and_histograms_takes_max_of_gauges():
    states = [
        build_registry(scale=1).export_state(),
        build_registry(scale=2).export_state(),
    ]
    merged = merge_states(states)
    requests = merged["powerplay_http_requests_total"]["series"]
    assert requests[
        'powerplay_http_requests_total{method="GET",route="/menu"}'
    ] == 30.0
    # gauge: worst (max) state wins, not the sum
    assert merged["powerplay_health_state"]["series"][
        "powerplay_health_state"
    ] == 2.0
    # histogram counts sum
    latency = merged["powerplay_http_request_seconds"]["series"]
    assert latency[
        'powerplay_http_request_seconds_count{route="/menu"}'
    ] == 15.0


def test_merge_is_arrival_order_independent():
    states = [build_registry(scale=s).export_state() for s in (1, 2, 3, 4)]
    reference = json.dumps(merge_states(states), sort_keys=True)
    for ordering in permutations(states):
        assert json.dumps(
            merge_states(list(ordering)), sort_keys=True
        ) == reference


def test_merge_refuses_kind_conflicts():
    a = MetricsRegistry()
    a.counter("thing_total", "").inc()
    b = MetricsRegistry()
    b.gauge("thing_total", "").set(1)
    with pytest.raises(ValueError):
        merge_states([a.export_state(), b.export_state()])


def test_merge_refuses_bucket_misalignment():
    a = MetricsRegistry()
    a.histogram("lat_seconds", "", buckets=(0.1, 1.0)).observe(0.05)
    b = MetricsRegistry()
    b.histogram("lat_seconds", "", buckets=(0.2, 2.0)).observe(0.05)
    with pytest.raises(ValueError):
        merge_states([a.export_state(), b.export_state()])


def test_merge_reads_bounds_only_from_the_le_label():
    # a label whose name ends in "le" is not a bucket bound: nodes that
    # differ only in its values are aligned and merge
    states = []
    for module in ("alpha", "beta"):
        registry = MetricsRegistry()
        registry.histogram(
            "work_seconds", "", ("module",), buckets=(0.1, 1.0)
        ).observe(0.05, module=module)
        states.append(registry.export_state())
    merged = merge_states(states)["work_seconds"]["series"]
    assert merged['work_seconds_count{module="alpha"}'] == 1.0
    assert merged['work_seconds_count{module="beta"}'] == 1.0


def test_scraper_merge_skips_and_names_unmergeable_families():
    a = MetricsRegistry()
    a.counter("ok_total", "").inc(amount=2)
    a.histogram("lat_seconds", "", buckets=(0.1, 1.0)).observe(0.05)
    b = MetricsRegistry()
    b.counter("ok_total", "").inc(amount=3)
    b.histogram("lat_seconds", "", buckets=(0.2, 2.0)).observe(0.05)
    nodes = [
        FleetNode(name="a", url="(a)", ok=True, metrics=a.export_state()),
        FleetNode(name="b", url="(b)", ok=True, metrics=b.export_state()),
    ]
    merged, skipped = FleetScraper._merge(nodes)
    assert skipped == ["lat_seconds"]
    assert merged["ok_total"]["series"]["ok_total"] == 5.0
    assert "lat_seconds" not in merged


# -- report shape ----------------------------------------------------------


def test_report_json_is_deterministic_for_any_node_list_order():
    node_a = FleetNode(
        name="a", url="http://a", ok=True,
        health={"status": "ok", "slo": {"state": "ok"}},
        metrics=build_registry(1).export_state(),
    )
    node_b = FleetNode(
        name="b", url="http://b", ok=True,
        health={"status": "ok", "slo": {"state": "warn"}},
        metrics=build_registry(2).export_state(),
    )

    def report_for(nodes):
        ordered = sorted(nodes, key=lambda node: node.name)
        merged, skipped = FleetScraper._merge(ordered)
        return FleetReport(
            nodes=ordered, aggregate=merged, skipped=skipped
        ).to_json()

    assert report_for([node_a, node_b]) == report_for([node_b, node_a])
    report = json.loads(report_for([node_a, node_b]))
    assert report["fleet"]["state"] == "warn"  # worst node wins
    assert report["fleet"]["reachable"] == 2


def test_unreachable_node_is_a_finding_not_a_failure():
    dead = FleetNode(name="dead", url="http://dead", error="boom")
    live = FleetNode(
        name="live", url="http://live", ok=True,
        health={"status": "ok", "slo": {"state": "ok"}},
        metrics=build_registry(1).export_state(),
    )
    merged, skipped = FleetScraper._merge([dead, live])
    report = FleetReport(nodes=[dead, live], aggregate=merged,
                         skipped=skipped)
    assert report.reachable == 1
    assert dead.health_state == "unreachable"
    assert dead.slo_state == "unknown"
    assert report.fleet_state == "ok"  # only reachable nodes vote
    assert report.aggregate_requests_total() == 13.0


def test_scraper_rejects_duplicate_and_colliding_names():
    with pytest.raises(ValueError):
        FleetScraper([("a", "http://x"), ("a", "http://y")])
    with pytest.raises(ValueError):
        FleetScraper(
            [("self", "http://x")],
            local=lambda: ({}, {}),
            local_name="self",
        )


# -- quantiles over merged families ----------------------------------------


def test_family_quantile_interpolates_and_clamps():
    registry = MetricsRegistry()
    latency = registry.histogram(
        "lat_seconds", "", ("route",), buckets=(0.01, 0.1, 1.0)
    )
    for _ in range(90):
        latency.observe(0.005, route="/a")
    for _ in range(10):
        latency.observe(5.0, route="/a")  # lands in +Inf
    family = registry.export_state()["lat_seconds"]
    p50 = family_quantile(family, 0.50)
    assert p50 is not None and p50 <= 0.01
    # p99 falls in the +Inf bucket: clamp to the highest finite bound
    assert family_quantile(family, 0.99) == 1.0


def test_family_quantile_empty_and_non_histogram():
    registry = MetricsRegistry()
    registry.histogram("lat_seconds", "", ("route",))
    family = registry.export_state()["lat_seconds"]
    assert family_quantile(family, 0.5) is None
    registry.counter("c_total", "").inc()
    assert family_quantile(registry.export_state()["c_total"], 0.5) is None


# -- peer URL validation ---------------------------------------------------


class TestValidatePeerUrl:
    """Regression: a malformed --peer used to surface only as a breaker
    trip on the first scrape; now it is rejected at configuration time
    with a message naming the problem."""

    def test_good_urls_normalize(self):
        from repro.obs.fleet import validate_peer_url

        assert validate_peer_url("http://h:8080") == "http://h:8080"
        assert validate_peer_url("http://h:8080/") == "http://h:8080"
        assert validate_peer_url("http://10.0.0.2") == "http://10.0.0.2"

    @pytest.mark.parametrize("bad, fragment", [
        ("localhost:9090", "scheme"),          # no scheme at all
        ("ftp://h:21", "scheme"),              # wrong scheme
        ("https://h:8080", "scheme"),          # the client speaks http only
        ("http://", "host"),                   # scheme without a host
        ("http:///metrics", "host"),           # path but no host
        ("http://h:notaport", "port"),         # unparseable port
    ])
    def test_bad_urls_name_the_problem(self, bad, fragment):
        from repro.obs.fleet import validate_peer_url

        with pytest.raises(ValueError) as excinfo:
            validate_peer_url(bad)
        assert fragment in str(excinfo.value)

    def test_scraper_rejects_bad_peers_at_construction(self):
        with pytest.raises(ValueError):
            FleetScraper([("alpha", "127.0.0.1:9090")])
