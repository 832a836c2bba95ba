"""The telemetry-history CLI surface: history, capacity, serve flags."""

import json

import pytest

from repro import obs
from repro.cli import _parse_peer, main
from repro.errors import PowerPlayError
from repro.obs.history import HistoryConfig, HistoryStore


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _fresh_registry():
    obs.get_registry().reset()
    yield
    obs.get_registry().reset()


@pytest.fixture
def store_dir(tmp_path):
    """A sealed store with 12 rounds of steady /api/ping traffic."""
    store = HistoryStore(
        tmp_path / "history",
        HistoryConfig(interval_s=5.0, seal_every=6, fsync_journal=False),
        clock=lambda: 0.0,
    )
    for index in range(12):
        value = float(index * 2)
        store.append({
            "powerplay_http_requests_total": {
                "kind": "counter",
                "series": {
                    'powerplay_http_requests_total{route="/api/ping"}':
                        value,
                },
            },
            "powerplay_http_request_seconds_sum": {
                "kind": "histogram",
                "series": {
                    "powerplay_http_request_seconds_sum"
                    '{route="/api/ping"}': value * 0.05,
                },
            },
            "powerplay_http_request_seconds_count": {
                "kind": "histogram",
                "series": {
                    "powerplay_http_request_seconds_count"
                    '{route="/api/ping"}': value,
                },
            },
        }, when=1000.0 + index * 5)
    store.seal()
    store.close()
    return tmp_path / "history"


# -- peer validation at parse time (regression) ----------------------------


class TestParsePeerValidation:
    def test_valid_specs_still_work(self):
        assert _parse_peer("alpha=http://h:1") == ("alpha", "http://h:1")
        name, url = _parse_peer("http://127.0.0.1:8080/")
        assert (name, url) == ("127.0.0.1-8080", "http://127.0.0.1:8080")

    @pytest.mark.parametrize("spec", [
        "localhost:9090",            # no scheme: the original bug report
        "alpha=localhost:9090",
        "ftp://h:21",
        "alpha=http://",
        "=http://h:1",               # empty name
    ])
    def test_malformed_specs_fail_at_parse_time(self, spec):
        with pytest.raises(PowerPlayError):
            _parse_peer(spec)

    def test_serve_surfaces_the_error_before_binding(self, capsys):
        code, _out, err = run(
            capsys, "serve", "--peer", "localhost:9090"
        )
        assert code == 2
        assert "peer" in err and "scheme" in err


# -- repro history ---------------------------------------------------------


class TestHistoryCommand:
    def test_info_lists_families_and_segments(self, capsys, store_dir):
        code, out, _err = run(
            capsys, "history", "--dir", str(store_dir), "info"
        )
        assert code == 0
        assert "raw=2" in out
        assert "powerplay_http_requests_total (counter)" in out

    def test_query_text_renders_sparklines(self, capsys, store_dir):
        code, out, _err = run(
            capsys, "history", "--dir", str(store_dir), "query",
            "powerplay_http_requests_total", "--label",
            "route=/api/ping",
        )
        assert code == 0
        assert "1 series" in out
        assert "12 pts" in out

    def test_query_json_replay_is_byte_identical(self, capsys, store_dir):
        argv = ("history", "--dir", str(store_dir), "--json", "query",
                "powerplay_http_requests_total", "--op", "rate")
        code, first, _err = run(capsys, *argv)
        assert code == 0
        code, second, _err = run(capsys, *argv)
        assert code == 0
        assert first == second
        payload = json.loads(first)
        assert payload["op"] == "rate"
        (series,) = payload["series"]
        assert all(v == pytest.approx(0.4) for _, v in series["points"])

    def test_query_rejects_bad_op_and_labels(self, capsys, store_dir):
        code, _out, err = run(
            capsys, "history", "--dir", str(store_dir), "query", "x",
            "--label", "route",  # missing =value
        )
        assert code == 2 and "name=value" in err

    def test_missing_store_is_a_clean_error(self, capsys, tmp_path):
        code, _out, err = run(
            capsys, "history", "--dir", str(tmp_path / "nope"), "info"
        )
        assert code == 2
        assert "no history store" in err

    def test_compact_reports_counts(self, capsys, store_dir):
        code, out, _err = run(
            capsys, "history", "--dir", str(store_dir), "compact"
        )
        assert code == 0
        assert out.startswith("compacted:")


# -- repro capacity --------------------------------------------------------


class TestCapacityCommand:
    def test_text_report(self, capsys, store_dir):
        code, out, _err = run(
            capsys, "capacity", "--dir", str(store_dir)
        )
        assert code == 0
        assert "/api/ping" in out
        assert "provision" in out

    def test_json_report_is_deterministic(self, capsys, store_dir):
        argv = ("capacity", "--dir", str(store_dir), "--json")
        code, first, _err = run(capsys, *argv)
        assert code == 0
        code, second, _err = run(capsys, *argv)
        assert first == second
        payload = json.loads(first)
        (route,) = payload["routes"]
        assert route["route"] == "/api/ping"
        assert route["rps_mean"] == pytest.approx(0.4)
        assert route["mean_latency_s"] == pytest.approx(0.05)

    def test_knobs_reach_the_report(self, capsys, store_dir):
        code, out, _err = run(
            capsys, "capacity", "--dir", str(store_dir), "--json",
            "--threads-per-worker", "2", "--utilization", "0.5",
            "--horizon-hours", "1",
        )
        payload = json.loads(out)
        assert payload["threads_per_worker"] == 2
        assert payload["utilization"] == 0.5
        assert payload["horizon_s"] == 3600.0

    @pytest.mark.parametrize("flag, value, message", [
        ("--utilization", "2", "utilization must be within (0, 1]"),
        ("--threads-per-worker", "0", "threads_per_worker must be >= 1"),
        ("--horizon-hours", "-1", "projection horizon must be >= 0"),
        ("--quantile", "1.5", "quantile must be within [0, 1]"),
    ])
    def test_bad_knobs_exit_2_with_one_line(
        self, capsys, store_dir, flag, value, message,
    ):
        code, out, err = run(
            capsys, "capacity", "--dir", str(store_dir), flag, value,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
