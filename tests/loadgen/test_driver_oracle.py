"""Driver semantics and the serial-replay oracle.

Includes the negative control every oracle needs: a deliberately
corrupted end state must be *detected* — an oracle that can't fail
proves nothing.
"""

import json
from pathlib import Path

import pytest

from repro.errors import PowerPlayError
from repro.loadgen import (
    InProcessTarget,
    generate_workload,
    replay_serial,
    run_script,
    verify,
)
from repro.loadgen.driver import OpResult, _partition_users, op_request
from repro.loadgen.oracle import capture_state
from repro.loadgen.stats import (
    histogram_quantile,
    percentile,
    summarize_latencies,
)
from repro.obs.metrics import MetricsRegistry
from repro.loadgen.workload import Operation
from repro.web.app import Application


class TestOpRequest:
    def test_all_generated_kinds_map(self):
        script = generate_workload(3, users=2, ops=60)
        for op in script:
            method, path, form = op_request(op)
            assert method in ("GET", "POST")
            assert path.startswith("/")
            if method == "POST":
                assert form["user"] == op.user

    def test_unknown_kind_rejected(self):
        with pytest.raises(PowerPlayError):
            op_request(Operation(0, "u", "drop_tables", {}))


class TestPartition:
    def test_round_robin_covers_all_users(self):
        users = [f"u{i}" for i in range(7)]
        partitions = _partition_users(users, 3)
        assert sorted(u for p in partitions for u in p) == sorted(users)
        assert len(partitions) == 3

    def test_more_threads_than_users_collapses(self):
        partitions = _partition_users(["a", "b"], 8)
        assert len(partitions) == 2


class TestDriver:
    def test_preserves_per_user_order(self, tmp_path: Path):
        script = generate_workload(11, users=4, ops=80)
        application = Application(tmp_path)
        seen = []
        result = run_script(
            script,
            InProcessTarget(application),
            threads=4,
            on_result=lambda r: seen.append(r),
        )
        assert len(result.results) == len(script)
        for user in script.users:
            indices = [r.index for r in seen if r.user == user]
            assert indices == sorted(indices), (
                f"per-user order violated for {user}"
            )

    def test_exception_becomes_599_not_abort(self, tmp_path: Path):
        class Exploding:
            def request(self, method, path, form):
                raise RuntimeError("boom")

        script = generate_workload(2, users=2, ops=6)
        result = run_script(script, Exploding(), threads=2)
        assert len(result.results) == len(script)
        assert all(r.status == 599 for r in result.results)
        assert all("RuntimeError" in r.error for r in result.results)
        assert result.server_errors

    def test_rejects_zero_threads(self, tmp_path: Path):
        script = generate_workload(2, users=2, ops=6)
        with pytest.raises(PowerPlayError):
            run_script(script, InProcessTarget(Application(tmp_path)), threads=0)

    def test_opresult_ok_semantics(self):
        assert OpResult(0, "u", "menu", 200, 0.0).ok
        assert OpResult(0, "u", "menu", 303, 0.0).ok
        assert not OpResult(0, "u", "menu", 404, 0.0).ok
        assert not OpResult(0, "u", "menu", 200, 0.0, error="x").ok


class TestOracle:
    def test_concurrent_matches_serial(self, tmp_path: Path):
        script = generate_workload(42, users=4, ops=120)
        application = Application(tmp_path / "concurrent")
        result = run_script(script, InProcessTarget(application), threads=4)
        assert not result.server_errors
        serial_app, serial_result = replay_serial(script, tmp_path / "serial")
        assert not serial_result.server_errors
        report = verify(script, application, serial_app)
        assert report.matches, report.differences
        assert report.users == script.users
        assert report.designs_checked > 0

    def test_detects_lost_update(self, tmp_path: Path):
        """Negative control: delete a design after the run — the oracle
        must flag the divergence."""
        script = generate_workload(42, users=3, ops=60)
        application = Application(tmp_path / "concurrent")
        run_script(script, InProcessTarget(application), threads=3)
        serial_app, _ = replay_serial(script, tmp_path / "serial")

        victim = script.users[0]
        session = application.users.session(victim)
        session.delete_design(f"{victim}_main")

        report = verify(script, application, serial_app)
        assert not report.matches
        assert any(victim in diff for diff in report.differences)

    def test_detects_torn_state_file(self, tmp_path: Path):
        """Negative control: truncate a state file on disk — the
        disk-vs-memory check must flag it."""
        script = generate_workload(7, users=2, ops=20)
        application = Application(tmp_path / "concurrent")
        run_script(script, InProcessTarget(application), threads=2)
        serial_app, _ = replay_serial(script, tmp_path / "serial")

        victim = script.users[1]
        state_file = application.users.root / f"{victim}.json"
        state_file.write_text(state_file.read_text()[: 40])

        report = verify(script, application, serial_app)
        assert not report.matches
        assert any("disk" in diff for diff in report.differences)

    def test_detects_damaged_journal_record(self, tmp_path: Path):
        """Negative control: a PLAY journal line that is complete but
        does not parse must fail the oracle — and a restarted server
        must quarantine the user rather than serve a silently partial
        state."""
        script = generate_workload(7, users=2, ops=20)
        application = Application(tmp_path / "concurrent")
        run_script(script, InProcessTarget(application), threads=2)
        serial_app, _ = replay_serial(script, tmp_path / "serial")

        victim = script.users[1]
        for app in (application, serial_app):
            response = app.handle("POST", "/design", {
                "user": victim, "name": f"{victim}_main", "g:VDD": "1.7",
            })
            assert response.status == 200
        assert verify(script, application, serial_app).matches

        journal = application.users.root / f"{victim}.journal"
        lines = journal.read_bytes().split(b"\n")
        lines[-2] = lines[-2][:-9]  # this PLAY's record, still a line
        journal.write_bytes(b"\n".join(lines))

        report = verify(script, application, serial_app)
        assert not report.matches
        assert any("disk" in diff for diff in report.differences)

        restarted = Application(tmp_path / "concurrent")
        assert restarted.users.session(victim).designs == {}
        assert [user for user, _, _ in restarted.users.quarantined] == [
            victim
        ]

    def test_capture_state_is_canonical(self, tmp_path: Path):
        script = generate_workload(5, users=2, ops=16)
        application = Application(tmp_path)
        run_script(script, InProcessTarget(application), threads=1)
        first = capture_state(application, script)
        second = capture_state(application, script)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


class TestStats:
    def test_percentile_edges(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile(samples, 0.5) == pytest.approx(50.5)

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_summary_shape(self):
        summary = summarize_latencies([0.010, 0.020, 0.030])
        assert summary["count"] == 3
        assert summary["p50"] == pytest.approx(0.020)
        assert summary["max"] == pytest.approx(0.030)
        assert summarize_latencies([])["count"] == 0

    def test_histogram_quantile_interpolates(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "t_seconds", "test", ("route",), buckets=(0.01, 0.1, 1.0)
        )
        assert histogram_quantile(histogram, 0.5) == 0.0  # empty
        for _ in range(10):
            histogram.observe(0.05, route="/cell")
        # all 10 samples in (0.01, 0.1]: median interpolates to midpoint
        assert histogram_quantile(histogram, 0.5) == pytest.approx(0.055)
        # route filter isolates label sets
        histogram.observe(0.5, route="/menu")
        assert histogram_quantile(
            histogram, 0.5, route="/menu"
        ) == pytest.approx(0.55)
        # +Inf observations clamp to the top finite bound
        histogram.observe(99.0, route="/slow")
        assert histogram_quantile(histogram, 1.0, route="/slow") == 1.0
