"""The fleet-telemetry CLI surface: fleet, flight, bench-report."""

import json

import pytest

from repro import obs
from repro.cli import _parse_peer, main
from repro.web.server import PowerPlayServer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _fresh_registry():
    obs.get_registry().reset()
    yield
    obs.get_registry().reset()


class TestParsePeer:
    def test_named(self):
        assert _parse_peer("alpha=http://h:1") == ("alpha", "http://h:1")

    def test_bare_url_derives_a_name(self):
        name, url = _parse_peer("http://127.0.0.1:8080/")
        assert url == "http://127.0.0.1:8080"
        assert name == "127.0.0.1-8080"


class TestFleet:
    def test_scrapes_a_live_server(self, capsys, tmp_path):
        with PowerPlayServer(tmp_path / "a", server_name="alpha") as server:
            code, out, _err = run(
                capsys, "fleet", f"alpha={server.base_url}"
            )
        assert code == 0
        assert "1/1 reachable" in out
        assert "alpha" in out
        assert "aggregate:" in out

    def test_json_output_and_dead_peer_exit_code(self, capsys, tmp_path):
        with PowerPlayServer(tmp_path / "a", server_name="alpha") as server:
            code, out, _err = run(
                capsys, "fleet", "--json", "--timeout", "0.2",
                f"alpha={server.base_url}", "ghost=http://127.0.0.1:9",
            )
        assert code == 1  # a dead peer is visible in the exit code
        payload = json.loads(out)["fleet"]
        assert payload["reachable"] == 1
        assert [n["name"] for n in payload["nodes"]] == ["alpha", "ghost"]


class TestFlight:
    def test_show_live_ring(self, capsys, tmp_path):
        with PowerPlayServer(tmp_path / "a", server_name="alpha") as server:
            from repro.web.client import Browser

            Browser(server.base_url).get("/api/ping")
            code, out, _err = run(
                capsys, "flight", "--url", server.base_url, "show"
            )
        assert code == 0
        assert "live ring on 'alpha'" in out
        assert "/api/ping" in out

    def test_show_offline_snapshots(self, capsys, tmp_path):
        from repro.obs.recorder import FlightRecorder

        state = tmp_path / "state"
        recorder = FlightRecorder(snapshot_dir=state / "flight")
        recorder.record(route="/menu", method="GET", status=500,
                        duration_ms=1.0, trace_id="cafe")
        code, out, _err = run(
            capsys, "flight", "--state", str(state), "show"
        )
        assert code == 0
        assert "5xx" in out
        assert "/menu" in out

    def test_dump_is_json(self, capsys, tmp_path):
        from repro.obs.recorder import FlightRecorder

        state = tmp_path / "state"
        recorder = FlightRecorder(snapshot_dir=state / "flight")
        recorder.record(route="/menu", method="GET", status=503,
                        duration_ms=2.0)
        code, out, _err = run(
            capsys, "flight", "--state", str(state), "dump"
        )
        assert code == 0
        (snapshot,) = json.loads(out)
        assert snapshot["trigger"] == "5xx"
        assert snapshot["records"][0]["status"] == 503

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_exits_2(self, capsys, tmp_path, limit):
        from repro.obs.recorder import FlightRecorder

        state = tmp_path / "state"
        recorder = FlightRecorder(snapshot_dir=state / "flight")
        recorder.record(route="/menu", method="GET", status=500,
                        duration_ms=1.0)
        code, out, err = run(
            capsys, "flight", "--state", str(state), "--limit", limit,
            "show",
        )
        assert code == 2
        assert out == ""
        assert "--limit must be at least 1" in err

    def test_no_snapshots_is_a_clean_failure(self, capsys, tmp_path):
        code, out, _err = run(
            capsys, "flight", "--state", str(tmp_path), "show"
        )
        assert code == 1
        assert "no flight snapshots" in out


class TestBenchReport:
    def write_artifact(self, bench_dir, mean):
        bench_dir.mkdir(parents=True, exist_ok=True)
        # trajectory.py rides along so the CLI can import it anywhere
        import pathlib
        import shutil

        source = (
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "trajectory.py"
        )
        shutil.copy(source, bench_dir / "trajectory.py")
        (bench_dir / "bench_demo.json").write_text(json.dumps({
            "benchmarks": [
                {"name": "test_demo", "stats": {"mean": mean}},
            ],
        }))

    def test_write_then_pass_then_regress(self, capsys, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        self.write_artifact(bench_dir, mean=0.010)
        code, out, _err = run(
            capsys, "bench-report", "--bench-dir", str(bench_dir),
            "--write",
        )
        assert code == 0 and "wrote" in out

        # unchanged artifacts: the gate passes
        code, out, _err = run(
            capsys, "bench-report", "--bench-dir", str(bench_dir)
        )
        assert code == 0
        assert "no time regressions" in out

        # a 50% slowdown: the gate fails with a named regression
        self.write_artifact(bench_dir, mean=0.015)
        code, out, _err = run(
            capsys, "bench-report", "--bench-dir", str(bench_dir)
        )
        assert code == 1
        assert "REGRESSIONS" in out
        assert "test_demo.mean" in out

    def test_missing_trajectory_module_is_an_error(self, capsys, tmp_path):
        code, _out, err = run(
            capsys, "bench-report", "--bench-dir", str(tmp_path)
        )
        assert code == 2
        assert "trajectory.py" in err
