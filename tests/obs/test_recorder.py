"""Flight recorder: ring semantics, snapshots, quarantine, trace stash."""

import json

import pytest

from repro import obs
from repro.obs.recorder import (
    FlightRecorder,
    consume_root,
    install_trace_hook,
    load_snapshots,
)


class FakeMonotonic:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(autouse=True)
def _fresh_registry():
    obs.get_registry().reset()
    yield
    obs.get_registry().reset()


def record_n(recorder: FlightRecorder, count: int, status: int = 200):
    for index in range(count):
        recorder.record(
            route="/menu", method="GET", status=status,
            duration_ms=float(index),
        )


# -- ring ------------------------------------------------------------------


def test_ring_keeps_only_the_newest_capacity_records():
    recorder = FlightRecorder(capacity=4)
    record_n(recorder, 10)
    records = recorder.records()
    assert len(records) == len(recorder) == 4
    assert [record.seq for record in records] == [7, 8, 9, 10]
    assert recorder.to_payload()["recorded_total"] == 10


def test_records_limit_returns_newest():
    recorder = FlightRecorder(capacity=8)
    record_n(recorder, 5)
    assert [r.seq for r in recorder.records(limit=2)] == [4, 5]


def test_records_limit_zero_or_negative_returns_nothing():
    recorder = FlightRecorder(capacity=4)
    record_n(recorder, 6)
    assert recorder.records(0) == []
    assert recorder.records(-2) == []
    assert [r.seq for r in recorder.records(10)] == [3, 4, 5, 6]
    assert recorder.to_payload(limit=0)["records"] == []


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


# -- snapshots -------------------------------------------------------------


def test_5xx_auto_snapshots_and_rate_limits(tmp_path):
    mono = FakeMonotonic()
    recorder = FlightRecorder(
        snapshot_dir=tmp_path, snapshot_interval_s=2.0, monotonic=mono
    )
    record_n(recorder, 3)
    record_n(recorder, 1, status=500)  # first 5xx: snapshot
    record_n(recorder, 1, status=503)  # inside the interval: suppressed
    assert len(list(tmp_path.glob("flight-*.json"))) == 1
    mono.advance(3)
    record_n(recorder, 1, status=500)  # interval passed: snapshot again
    assert len(list(tmp_path.glob("flight-*.json"))) == 2
    # the rate limiter must never suppress a forced (SLO page) snapshot
    path = recorder.snapshot(
        reason="slo", trigger="slo_page",
        slo_payload={"state": "page"}, force=True,
    )
    assert path is not None
    payload = json.loads(path.read_text())
    assert payload["trigger"] == "slo_page"
    assert payload["slo"] == {"state": "page"}
    assert payload["records"][-1]["status"] == 500


def test_snapshot_without_directory_is_a_noop():
    recorder = FlightRecorder()
    assert recorder.snapshot(reason="x", force=True) is None


def test_snapshots_are_pruned_to_the_bound(tmp_path):
    mono = FakeMonotonic()
    recorder = FlightRecorder(
        snapshot_dir=tmp_path, max_snapshots=3, monotonic=mono
    )
    record_n(recorder, 2)
    for index in range(6):
        assert recorder.snapshot(reason=f"s{index}", force=True)
    files = sorted(path.name for path in tmp_path.glob("flight-*.json"))
    assert len(files) == 3
    assert files[0].startswith("flight-0004")  # oldest three deleted


def test_load_snapshots_quarantines_corrupt_files(tmp_path):
    recorder = FlightRecorder(snapshot_dir=tmp_path)
    record_n(recorder, 2)
    assert recorder.snapshot(reason="good", force=True)
    (tmp_path / "flight-9999-bad.json").write_text("{not json")
    (tmp_path / "flight-9998-hollow.json").write_text('{"no": "records"}')

    snapshots = load_snapshots(tmp_path)
    assert len(snapshots) == 1
    assert snapshots[0].reason == "good"
    assert len(snapshots[0].records) == 2
    quarantined = sorted(
        path.name for path in tmp_path.glob("*.corrupt*")
    )
    assert len(quarantined) == 2
    # quarantined files no longer match the snapshot glob
    assert len(list(tmp_path.glob("flight-*.json"))) == 1


def test_load_snapshots_of_missing_directory_is_empty(tmp_path):
    assert load_snapshots(tmp_path / "nowhere") == []


# -- trace stash -----------------------------------------------------------


def test_trace_hook_stashes_root_and_consume_clears():
    install_trace_hook()
    consume_root()  # drop anything a previous test left behind
    with obs.overridden(enabled=True):
        with obs.span("request_root"):
            with obs.span("inner"):
                pass
        root = consume_root()
    assert root is not None
    assert root.name == "request_root"
    assert consume_root() is None  # consume-once: the stash is cleared
    obs.clear_traces()


def test_consume_root_without_tracing_returns_none():
    consume_root()
    with obs.overridden(enabled=False):
        pass
    assert consume_root() is None
