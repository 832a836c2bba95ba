"""Capacity fitting: Little's-law worker counts from recorded history.

Synthetic stores with exactly known traffic shapes, so every fitted
number (rps, trend, quantile, worker count) has a hand-computable
expected value.
"""

import math

import pytest

from repro import obs
from repro.obs.capacity import (
    _increase,
    _slope_per_second,
    _sum_aligned,
    build_capacity_report,
)
from repro.obs.history import HistoryConfig, HistoryStore
from repro.obs.metrics import bucket_quantile


@pytest.fixture(autouse=True)
def _fresh_registry():
    obs.get_registry().reset()
    yield
    obs.get_registry().reset()


def store_with(tmp_path, rounds):
    """rounds: [(t, {route: (requests, lat_sum, lat_count, buckets)})]"""
    store = HistoryStore(
        tmp_path,
        HistoryConfig(seal_every=10_000, fsync_journal=False),
        clock=lambda: 0.0,
    )
    for when, per_route in rounds:
        state = {
            "powerplay_http_requests_total": {
                "kind": "counter", "series": {},
            },
            "powerplay_http_request_seconds_sum": {
                "kind": "histogram", "series": {},
            },
            "powerplay_http_request_seconds_count": {
                "kind": "histogram", "series": {},
            },
            "powerplay_http_request_seconds_bucket": {
                "kind": "histogram", "series": {},
            },
        }
        for route, (req, lsum, lcount, buckets) in per_route.items():
            state["powerplay_http_requests_total"]["series"][
                f'powerplay_http_requests_total{{route="{route}"}}'
            ] = req
            state["powerplay_http_request_seconds_sum"]["series"][
                f'powerplay_http_request_seconds_sum{{route="{route}"}}'
            ] = lsum
            state["powerplay_http_request_seconds_count"]["series"][
                f'powerplay_http_request_seconds_count{{route="{route}"}}'
            ] = lcount
            for le, value in buckets.items():
                state["powerplay_http_request_seconds_bucket"]["series"][
                    "powerplay_http_request_seconds_bucket"
                    f'{{le="{le}",route="{route}"}}'
                ] = value
        store.append(state, when=when)
    return store


# -- numeric helpers -------------------------------------------------------


def test_increase_is_counter_reset_safe():
    assert _increase([(0, 10.0), (1, 14.0), (2, 2.0)]) == 6.0


def test_slope_fits_a_clean_line():
    points = [(t, 2.0 * t + 5.0) for t in range(10)]
    assert _slope_per_second(points) == pytest.approx(2.0)
    assert _slope_per_second(points[:1]) == 0.0


def test_sum_aligned_only_uses_shared_timestamps():
    series = {
        "a": [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)],
        "b": [(1.0, 10.0), (2.0, 20.0)],
    }
    assert _sum_aligned(series) == [(1.0, 12.0), (2.0, 23.0)]
    assert _sum_aligned({}) == []


def test_histogram_quantile_interpolates():
    # cumulative pairs: 50 observations in each finite bucket
    cumulative = [(0.1, 50.0), (0.5, 100.0), (math.inf, 100.0)]
    assert bucket_quantile(cumulative, 0.5) == pytest.approx(0.1)
    assert bucket_quantile(cumulative, 0.75) == pytest.approx(0.3)
    # everything in +Inf: report the last finite bound
    assert bucket_quantile([(0.1, 0.0), (math.inf, 5.0)], 0.95) \
        == pytest.approx(0.1)
    assert bucket_quantile([], 0.5) is None


# -- the report ------------------------------------------------------------


class TestCapacityReport:
    def steady(self, tmp_path, rps=10.0, latency=0.2, rounds=13,
               step=5.0):
        """Steady traffic: ``rps`` req/s, constant ``latency`` seconds."""
        data = []
        for index in range(rounds):
            t = index * step
            requests = rps * t
            data.append((t, {"/api/ping": (
                requests,
                requests * latency,
                requests,
                {"0.1": 0.0, "0.5": requests, "+Inf": requests},
            )}))
        return store_with(tmp_path, data)

    def test_steady_load_fits_exactly(self, tmp_path):
        store = self.steady(tmp_path)
        report = build_capacity_report(store)
        (route,) = report.routes
        assert route.route == "/api/ping"
        assert route.rps_mean == pytest.approx(10.0)
        assert route.rps_peak == pytest.approx(10.0)
        assert route.trend_per_hour == pytest.approx(0.0, abs=1e-6)
        assert route.mean_latency_s == pytest.approx(0.2)
        # 10 rps x 0.2 s = 2 in flight; 8 threads x 0.6 = 4.8/worker
        assert route.concurrency == pytest.approx(2.0)
        assert route.workers == 1
        assert report.total_workers == 1

    def test_growth_trend_raises_projected_workers(self, tmp_path):
        # rate itself grows 1 rps per second: integral is quadratic
        data = []
        for index in range(13):
            t = index * 5.0
            data.append((t, {"/api/ping": (
                0.5 * t * t,           # d/dt = t rps
                0.05 * t * t,          # constant 0.1 s per request
                0.5 * t * t,
                {},
            )}))
        store = store_with(tmp_path, data)
        report = build_capacity_report(store, horizon_s=3600.0)
        (route,) = report.routes
        assert route.trend_per_hour == pytest.approx(3600.0, rel=0.01)
        assert route.rps_projected > route.rps_peak
        assert route.workers > 1

    def test_quantile_read_from_buckets(self, tmp_path):
        store = self.steady(tmp_path)
        report = build_capacity_report(store, quantile=0.95)
        (route,) = report.routes
        # all observations fall in the (0.1, 0.5] bucket
        assert 0.1 < route.quantile_latency_s <= 0.5

    def test_rendering_and_payload_are_consistent(self, tmp_path):
        store = self.steady(tmp_path)
        report = build_capacity_report(store)
        text = report.render_text()
        assert "/api/ping" in text
        assert "provision 1 worker(s)" in text
        payload = report.payload()
        assert payload["total_workers"] == 1
        assert payload["routes"][0]["route"] == "/api/ping"
        # to_json is deterministic
        assert report.to_json() == build_capacity_report(store).to_json()

    def test_empty_store_yields_empty_report(self, tmp_path):
        store = HistoryStore(
            tmp_path, HistoryConfig(fsync_journal=False),
            clock=lambda: 0.0,
        )
        report = build_capacity_report(store)
        assert report.routes == []
        assert report.total_workers == 1  # never provision zero workers

    def test_knob_validation(self, tmp_path):
        store = self.steady(tmp_path)
        with pytest.raises(ValueError):
            build_capacity_report(store, threads_per_worker=0)
        with pytest.raises(ValueError):
            build_capacity_report(store, utilization=0.0)
        with pytest.raises(ValueError):
            build_capacity_report(store, horizon_s=-1.0)
