"""The fleet telemetry endpoints: /fleet, /debug/flight, SLOs in
/healthz and /status.

Covers the wiring layer over the obs primitives (which have their own
unit tests in tests/obs/): the endpoints render, the JSON shapes are
canonical, telemetry can be stripped, a dead peer is a visible finding,
and an SLO page degrades /healthz without draining the node.
"""

import json

import pytest

from repro import obs
from repro.obs.slo import SLOTracker
from repro.web.app import Application
from repro.web.client import Browser
from repro.web.server import PowerPlayServer


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def app(tmp_path):
    obs.get_registry().reset()  # the registry is process-wide; isolate
    application = Application(tmp_path / "state", server_name="unit")
    yield application
    obs.get_registry().reset()


def get_json(app, path):
    response = app.handle("GET", path)
    assert response.status == 200, response.body
    return json.loads(response.body)


# -- /healthz carries the SLO verdict --------------------------------------


def test_healthz_includes_slo_state(app):
    app.handle("GET", "/api/ping")
    payload = get_json(app, "/healthz")
    assert payload["status"] == "ok"
    assert payload["slo"]["state"] == "ok"
    names = [entry["name"] for entry in payload["slo"]["objectives"]]
    assert names == [
        "availability", "latency-api", "latency-ui", "latency-ops",
    ]


def test_healthz_without_telemetry_has_no_slo_key(tmp_path):
    obs.get_registry().reset()
    app = Application(tmp_path / "bare", server_name="bare",
                      telemetry=False)
    payload = get_json(app, "/healthz")
    assert payload["status"] == "ok"
    assert "slo" not in payload
    obs.get_registry().reset()


def test_slo_page_degrades_healthz_but_keeps_serving(app):
    """An SLO page is a service problem, not a storage one: /healthz
    admits 'degraded' yet stays 200 so load balancers don't drain."""
    clock = FakeClock()
    app.slo_tracker = SLOTracker(clock=clock)

    def _broken(data):
        raise RuntimeError("injected storm")

    app._menu = _broken
    for _ in range(30):
        assert app.handle("GET", "/menu").status == 500
    clock.advance(60)
    app._maybe_evaluate_slos(force=True)
    clock.advance(60)

    response = app.handle("GET", "/healthz")
    assert response.status == 200
    payload = json.loads(response.body)
    assert payload["status"] == "degraded"
    assert payload["slo"]["state"] == "page"
    # the page transition forced a flight snapshot to disk
    flight = get_json(app, "/debug/flight?fmt=json")
    assert any("slo-page" in name for name in flight["snapshots"])


# -- /status quantiles and SLO table ---------------------------------------


def test_status_page_shows_route_quantiles_and_slo_table(app):
    for _ in range(5):
        app.handle("GET", "/api/ping")
    body = app.handle("GET", "/status").body
    assert "Service-level objectives" in body
    for column in ("p50", "p95", "p99"):
        assert column in body
    assert "availability" in body
    assert "Fleet dashboard" in body and "Flight recorder" in body
    # a route with traffic renders measured quantiles, not the dash
    assert " ms" in body


def test_status_page_without_telemetry_says_so(tmp_path):
    obs.get_registry().reset()
    app = Application(tmp_path / "bare", server_name="bare",
                      telemetry=False)
    body = app.handle("GET", "/status").body
    assert "(SLO tracking disabled)" in body
    obs.get_registry().reset()


# -- /fleet ----------------------------------------------------------------


def test_fleet_endpoint_serves_local_node_without_peers(app):
    app.handle("GET", "/api/ping")
    payload = get_json(app, "/fleet?fmt=json")["fleet"]
    assert payload["state"] == "ok"
    assert payload["reachable"] == 1
    (node,) = payload["nodes"]
    assert node["name"] == "unit"
    assert node["url"] == "(local)"
    assert node["ok"] is True
    assert payload["aggregate"]["powerplay_http_requests_total"]["series"]
    assert payload["skipped_families"] == []

    html = app.handle("GET", "/fleet").body
    assert "unit" in html and "Aggregate" in html


def test_fleet_endpoint_scrapes_a_live_peer(app, tmp_path):
    with PowerPlayServer(tmp_path / "peer", server_name="peer") as server:
        browser = Browser(server.base_url)
        for _ in range(3):
            assert browser.get("/api/ping").status == 200
        app.configure_fleet([("peer", server.base_url)])
        payload = get_json(app, "/fleet?fmt=json")["fleet"]
    assert payload["reachable"] == 2
    names = [node["name"] for node in payload["nodes"]]
    assert names == sorted(names) == ["peer", "unit"]
    assert all(node["ok"] for node in payload["nodes"])
    # the aggregate accounts for every node's counters
    total = sum(node["requests_total"] for node in payload["nodes"])
    aggregate = sum(
        payload["aggregate"]["powerplay_http_requests_total"][
            "series"
        ].values()
    )
    assert aggregate == total > 0


def test_fleet_endpoint_shows_a_dead_peer_as_down(app):
    app.configure_fleet([("ghost", "http://127.0.0.1:9")], timeout=0.2)
    payload = get_json(app, "/fleet?fmt=json")["fleet"]
    assert payload["reachable"] == 1
    ghost = next(n for n in payload["nodes"] if n["name"] == "ghost")
    assert ghost["ok"] is False
    assert ghost["health"] == "unreachable"
    assert ghost["error"]
    html = app.handle("GET", "/fleet").body
    assert "down" in html


# -- /debug/flight ---------------------------------------------------------


def test_flight_endpoint_records_requests(app):
    for _ in range(4):
        app.handle("GET", "/api/ping")
    payload = get_json(app, "/debug/flight?fmt=json")
    assert payload["server"] == "unit"
    assert payload["recorded_total"] >= 4
    routes = [record["route"] for record in payload["records"]]
    assert "/api/ping" in routes
    # ?limit bounds the records returned
    limited = get_json(app, "/debug/flight?fmt=json&limit=2")
    assert len(limited["records"]) == 2
    # the query clamps to [1, 10000]: limit=0 still shows one record
    clamped = get_json(app, "/debug/flight?fmt=json&limit=0")
    assert len(clamped["records"]) == 1

    html = app.handle("GET", "/debug/flight").body
    assert "/api/ping" in html and "Flight recorder" in html


def test_flight_endpoint_404s_without_telemetry(tmp_path):
    obs.get_registry().reset()
    app = Application(tmp_path / "bare", server_name="bare",
                      telemetry=False)
    assert app.handle("GET", "/debug/flight").status == 404
    obs.get_registry().reset()


def test_flight_records_carry_trace_ids_when_tracing_is_on(app):
    with obs.overridden(enabled=True, sink=obs.NullSink()):
        app.handle("GET", "/api/ping")
        payload = get_json(app, "/debug/flight?fmt=json")
    obs.clear_traces()
    ping_records = [
        record for record in payload["records"]
        if record["route"] == "/api/ping"
    ]
    assert ping_records and all(
        record["trace_id"] for record in ping_records
    )


def test_metrics_exposition_includes_fleet_families(app):
    app.handle("GET", "/api/ping")
    text = app.handle("GET", "/metrics").body
    assert "powerplay_slo_state" in text
    assert "powerplay_slo_burn_rate" in text
    assert "powerplay_flight_records_total" in text
