"""Durability contract of the telemetry history store.

Every scenario here is a crash the store must survive byte-exactly:
torn journal tails, a kill between segment write and journal
truncation, a kill between rollup write and raw unlink, and corrupt
segments planted on disk.  Clocks are injected everywhere — nothing
sleeps, every replay is deterministic.
"""

import json
import math
import shutil

import pytest

from repro import obs
from repro.obs.history import (
    HistoryConfig,
    HistoryError,
    HistoryRecorder,
    HistoryStore,
    _decode_deltas,
    _encode_deltas,
    _quantile,
    render_sparkline,
)


class FakeClock:
    def __init__(self, now: float = 1000.0):
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


@pytest.fixture
def clock():
    return FakeClock()


def counter_state(value: float, route: str = "/api/ping") -> dict:
    return {
        "powerplay_http_requests_total": {
            "kind": "counter",
            "series": {
                f'powerplay_http_requests_total{{route="{route}"}}': value,
            },
        },
    }


def config(**overrides) -> HistoryConfig:
    defaults = dict(interval_s=5.0, seal_every=4, fsync_journal=False)
    defaults.update(overrides)
    return HistoryConfig(**defaults)


def fill(store: HistoryStore, clock: FakeClock, rounds: int,
         start_value: float = 0.0) -> None:
    for index in range(rounds):
        store.append(counter_state(start_value + index), when=clock.now)
        clock.advance(store.config.interval_s)


def range_json(store: HistoryStore) -> str:
    return store.query("powerplay_http_requests_total").to_json()


# -- config / encoding primitives ------------------------------------------


def test_config_validation_rejects_nonsense():
    with pytest.raises(HistoryError):
        HistoryConfig(interval_s=0).validated()
    with pytest.raises(HistoryError):
        HistoryConfig(seal_every=0).validated()
    with pytest.raises(HistoryError):
        HistoryConfig(raw_retention_s=-1).validated()


def test_delta_codec_round_trips_exactly():
    values = [0.0, 1.5, 1.5, 100.25, 3.0, 3.0000001]
    assert _decode_deltas(_encode_deltas(values)) == [
        round(v, 12) for v in values
    ]


def test_quantile_interpolates():
    values = sorted([1.0, 2.0, 3.0, 4.0])
    assert _quantile(values, 0.0) == 1.0
    assert _quantile(values, 1.0) == 4.0
    assert _quantile(values, 0.5) == 2.5
    assert math.isnan(_quantile([], 0.5))


# -- append / seal / recovery ----------------------------------------------


class TestJournal:
    def test_append_journals_then_seals_every_n_rounds(self, tmp_path,
                                                       clock):
        store = HistoryStore(tmp_path, config(), clock=clock)
        fill(store, clock, 3)
        assert store.journal_path.exists()
        assert len(list(store.segments_dir.iterdir())) == 0
        fill(store, clock, 1, start_value=3)  # 4th round: auto-seal
        assert not store.journal_path.exists()
        (segment,) = store.segments_dir.iterdir()
        assert segment.name.startswith("raw-")

    def test_unsealed_rounds_survive_reopen(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(seal_every=100), clock=clock)
        fill(store, clock, 3)
        store.close()  # crash without sealing

        reopened = HistoryStore(tmp_path, config(seal_every=100),
                                clock=clock)
        points = reopened.query("powerplay_http_requests_total")
        assert points.series[0]["points"] == [
            [1000.0, 0.0], [1005.0, 1.0], [1010.0, 2.0],
        ]

    def test_torn_journal_tail_is_dropped_precisely(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(seal_every=100), clock=clock)
        fill(store, clock, 3)
        store.close()
        with open(store.journal_path, "ab") as handle:
            handle.write(b'{"t": 1015.0, "f": {"x": "co')  # torn mid-write

        reopened = HistoryStore(tmp_path, config(seal_every=100),
                                clock=clock)
        (series,) = reopened.query("powerplay_http_requests_total").series
        assert [p[0] for p in series["points"]] == [1000.0, 1005.0, 1010.0]

    def test_crash_after_seal_before_truncate_never_double_counts(
            self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(seal_every=100), clock=clock)
        fill(store, clock, 4)
        journal_bytes = store.journal_path.read_bytes()
        store.seal()
        # crash window: segment renamed in, journal not yet unlinked
        store.journal_path.write_bytes(journal_bytes)
        store.close()

        reopened = HistoryStore(tmp_path, config(seal_every=100),
                                clock=clock)
        (series,) = reopened.query("powerplay_http_requests_total").series
        assert len(series["points"]) == 4  # not 8

    def test_backwards_clock_keeps_rounds_monotonic(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(seal_every=100), clock=clock)
        store.append(counter_state(1.0), when=1000.0)
        store.append(counter_state(2.0), when=900.0)  # clock stepped back
        (series,) = store.query("powerplay_http_requests_total").series
        times = [p[0] for p in series["points"]]
        assert times == sorted(times)
        # both rounds kept, in append order (the second nudged forward)
        assert [p[1] for p in series["points"]] == [1.0, 2.0]


class TestQuarantine:
    def build(self, tmp_path, clock) -> HistoryStore:
        store = HistoryStore(tmp_path, config(), clock=clock)
        fill(store, clock, 8)  # two sealed segments
        return store

    def test_truncated_segment_quarantined_without_hiding_the_rest(
            self, tmp_path, clock):
        store = self.build(tmp_path, clock)
        first, second = sorted(store.segments_dir.iterdir())
        blob = first.read_bytes()
        first.write_bytes(blob[: len(blob) // 2])  # torn segment write

        reopened = HistoryStore(tmp_path, config(), clock=clock)
        (series,) = reopened.query("powerplay_http_requests_total").series
        # the second segment's 4 rounds are all still there
        assert [p[1] for p in series["points"]] == [4.0, 5.0, 6.0, 7.0]
        assert any(".corrupt" in p.name
                   for p in store.segments_dir.iterdir())
        assert reopened.quarantined
        assert first.name in {name for name, _ in reopened.quarantined}

    def test_misaligned_columns_quarantined_at_query_time(self, tmp_path,
                                                          clock):
        store = self.build(tmp_path, clock)
        first = sorted(store.segments_dir.iterdir())[0]
        payload = json.loads(first.read_text())
        payload["times"] = "not-a-list"
        first.write_text(json.dumps(payload))

        reopened = HistoryStore(tmp_path, config(), clock=clock)
        (series,) = reopened.query("powerplay_http_requests_total").series
        assert len(series["points"]) == 4
        assert reopened.quarantined

    def test_stray_file_with_segment_suffix_is_quarantined(self, tmp_path,
                                                           clock):
        store = self.build(tmp_path, clock)
        (store.segments_dir / "raw-bogus.json").write_text("{}")
        reopened = HistoryStore(tmp_path, config(), clock=clock)
        assert ("raw-bogus.json", "unrecognized segment name") in \
            reopened.quarantined


# -- compaction ------------------------------------------------------------


class TestCompaction:
    def seeded(self, root, clock, rounds=24) -> HistoryStore:
        store = HistoryStore(root, config(), clock=clock)
        fill(store, clock, rounds)
        store.seal()
        return store

    def test_raw_rolls_into_m1_past_retention(self, tmp_path, clock):
        store = self.seeded(tmp_path, clock)
        clock.advance(store.config.raw_retention_s + 1)
        done = store.compact()
        assert done["m1"] == 6  # one per raw segment
        levels = {p.name.split("-")[0]
                  for p in store.segments_dir.iterdir()}
        assert levels == {"m1"}

    def test_rate_survives_compaction_across_segment_boundaries(
            self, tmp_path, clock):
        """Counter increase stays exact across per-segment rollups.

        24 rounds, +1 every 5 s (a steady 0.2/s), sealed into six
        4-round segments.  Rolled up, the rate between bucket-end
        points must still be 0.2/s — per-segment compaction with
        baseline chaining must not double-count or drop increments at
        segment boundaries.
        """
        store = self.seeded(tmp_path, clock)
        clock.advance(store.config.raw_retention_s + 1)
        store.compact()
        (series,) = store.query(
            "powerplay_http_requests_total", op="rate"
        ).series
        assert series["points"], "rollups answered nothing"
        # every full bucket keeps the exact rate; the final bucket is
        # partial (data stops mid-bucket) so it reads proportionally low
        for _, value in series["points"][:-1]:
            assert value == pytest.approx(0.2)
        assert 0 < series["points"][-1][1] <= 0.2 + 1e-9
        # and the closing value itself survived into the last bucket
        (rng,) = store.query("powerplay_http_requests_total").series
        assert rng["points"][-1][1] == 23.0

    def test_crash_between_rollup_write_and_raw_unlink_resumes(
            self, tmp_path, clock):
        """The documented crash window: target written, source kept."""
        a_root, b_root = tmp_path / "a", tmp_path / "b"
        store_a = self.seeded(a_root, clock)
        store_a.close()
        shutil.copytree(a_root, b_root)

        # clean pass on the copy: this is the converged ground truth
        done_clock = FakeClock(clock.now + 7201)
        store_b = HistoryStore(b_root, config(), clock=done_clock)
        store_b.compact()

        # crash simulation in a: the first m1 output landed on disk but
        # the raw source was never unlinked
        first_m1 = sorted(
            p for p in store_b.segments_dir.iterdir()
            if p.name.startswith("m1-")
        )[0]
        shutil.copy(first_m1, a_root / "segments" / first_m1.name)
        planted = (a_root / "segments" / first_m1.name).read_bytes()

        reopened = HistoryStore(a_root, config(), clock=done_clock)
        reopened.compact()
        # existing output never rewritten — byte-identical to the plant
        assert (a_root / "segments" / first_m1.name).read_bytes() \
            == planted
        # and the directory converged to exactly the clean pass
        assert sorted(p.name for p in store_b.segments_dir.iterdir()) \
            == sorted(p.name
                      for p in (a_root / "segments").iterdir())
        assert range_json(reopened) == range_json(store_b)

    def test_m1_folds_into_m15_and_expires(self, tmp_path, clock):
        store = self.seeded(tmp_path, clock, rounds=24)
        clock.advance(store.config.m1_retention_s + 21600 * 2)
        done = store.compact()
        assert done["m1"] == 6 and done["m15"] == 1
        (only,) = store.segments_dir.iterdir()
        assert only.name.startswith("m15-")
        # ...and far enough in the future the m15 file expires too
        clock.advance(store.config.m15_retention_s + 21600 * 2)
        assert store.compact()["expired"] == 1
        assert list(store.segments_dir.iterdir()) == []

    def test_short_m1_column_is_quarantined_and_the_rest_merge(
            self, tmp_path, clock):
        """A 1m rollup whose ``last`` column is cut short must not stop
        compaction and retention for good."""
        store = self.seeded(tmp_path, clock, rounds=24)
        clock.advance(store.config.raw_retention_s + 1)
        assert store.compact()["m1"] == 6
        first = sorted(store.segments_dir.iterdir())[0]
        payload = json.loads(first.read_text())
        for entry in payload["series"].values():
            entry["last"] = []
        first.write_text(json.dumps(payload))

        clock.advance(store.config.m1_retention_s + 21600 * 2)
        assert store.compact()["m15"] == 1
        assert (first.name, "malformed columns") in store.quarantined
        (rng,) = store.query("powerplay_http_requests_total").series
        assert rng["points"][-1][1] == 23.0  # the other five merged
        clock.advance(store.config.m15_retention_s + 21600 * 2)
        assert store.compact()["expired"] == 1

    def test_compaction_is_deterministic_across_replicas(self, tmp_path,
                                                         clock):
        a_root, b_root = tmp_path / "a", tmp_path / "b"
        store_a = self.seeded(a_root, clock)
        store_a.close()
        shutil.copytree(a_root, b_root)
        when = clock.now + 7201
        for root in (a_root, b_root):
            HistoryStore(root, config(),
                         clock=FakeClock(when)).compact()
        for name in sorted(p.name for p in (a_root / "segments").iterdir()):
            assert (a_root / "segments" / name).read_bytes() \
                == (b_root / "segments" / name).read_bytes()


# -- queries ---------------------------------------------------------------


class TestQuery:
    def test_replay_is_byte_identical_across_reopen(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(), clock=clock)
        fill(store, clock, 10)
        first = range_json(store)
        store.close()
        later = FakeClock(clock.now + 12345)  # wall clock must not leak
        reopened = HistoryStore(tmp_path, config(), clock=later)
        assert range_json(reopened) == first

    def test_rate_is_counter_reset_safe(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(seal_every=100), clock=clock)
        for value, when in ((10.0, 1000.0), (20.0, 1010.0),
                            (3.0, 1020.0)):  # restart between samples
            store.append(counter_state(value), when=when)
        (series,) = store.query(
            "powerplay_http_requests_total", op="rate"
        ).series
        assert series["points"] == [[1010.0, 1.0], [1020.0, 0.3]]

    def test_label_filter_selects_one_series(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(seal_every=100), clock=clock)
        state = {
            "powerplay_http_requests_total": {
                "kind": "counter",
                "series": {
                    'powerplay_http_requests_total{route="/a"}': 1.0,
                    'powerplay_http_requests_total{route="/b"}': 2.0,
                },
            },
        }
        store.append(state, when=1000.0)
        result = store.query("powerplay_http_requests_total",
                             labels={"route": "/b"})
        (series,) = result.series
        assert series["points"] == [[1000.0, 2.0]]

    def test_quantile_op_reports_value_and_samples(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(seal_every=100), clock=clock)
        for index in range(5):
            store.append({
                "g": {"kind": "gauge", "series": {"g": float(index)}},
            }, when=1000.0 + index)
        (series,) = store.query("g", op="quantile", q=0.5).series
        assert series["value"] == 2.0 and series["samples"] == 5

    def test_invalid_queries_raise_history_error(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(), clock=clock)
        with pytest.raises(HistoryError):
            store.query("x", op="median")
        with pytest.raises(HistoryError):
            store.query("")
        with pytest.raises(HistoryError):
            store.query("x", op="quantile", q=1.5)

    def test_flat_recent_merges_rollups_and_raw(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(), clock=clock)
        fill(store, clock, 8)
        store.seal()
        clock.advance(store.config.raw_retention_s + 1)
        store.compact()
        fill(store, clock, 2, start_value=8)
        samples = store.flat_recent(0.0)
        times = [t for t, _ in samples]
        assert times == sorted(times)
        key = 'powerplay_http_requests_total{route="/api/ping"}'
        # newest raw sample is verbatim; older ones come from buckets
        assert samples[-1][1][key] == 9.0
        assert any(flat.get(key) == 7.0 for _, flat in samples[:-2])


# -- recorder --------------------------------------------------------------


class TestRecorder:
    def test_sample_once_appends_and_compacts_on_cadence(self, tmp_path,
                                                         clock):
        store = HistoryStore(tmp_path, config(seal_every=2), clock=clock)
        compactions = []
        original = store.compact
        store.compact = lambda now=None: compactions.append(now) \
            or original(now)
        recorder = HistoryRecorder(store, lambda: counter_state(1.0),
                                   compact_every=3, clock=clock)
        for _ in range(6):
            recorder.sample_once()
            clock.advance(5.0)
        assert len(compactions) == 2

    def test_source_errors_do_not_append(self, tmp_path, clock):
        store = HistoryStore(tmp_path, config(), clock=clock)

        def broken():
            raise RuntimeError("scrape exploded")

        recorder = HistoryRecorder(store, broken, clock=clock)
        assert recorder.sample_once() == 0.0
        assert store.stats()["active_rounds"] == 0

    def test_background_thread_starts_and_stops(self, tmp_path):
        store = HistoryStore(tmp_path, config(seal_every=1000))
        recorder = HistoryRecorder(store, lambda: counter_state(1.0),
                                   interval_s=0.01)
        recorder.start()
        recorder.start()  # idempotent
        import time as _time
        deadline = _time.time() + 5.0
        while _time.time() < deadline:
            if store.stats()["active_rounds"] >= 2:
                break
            _time.sleep(0.01)
        recorder.stop()
        assert store.stats()["active_rounds"] >= 2 \
            or sum(store.stats()["segments"].values()) > 0

    def test_invalid_interval_rejected(self, tmp_path):
        store = HistoryStore(tmp_path, config())
        with pytest.raises(HistoryError):
            HistoryRecorder(store, dict, interval_s=0.0)


# -- sparklines ------------------------------------------------------------


def test_sparkline_shapes():
    assert render_sparkline([]) == ""
    assert render_sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
    line = render_sparkline([0.0, 1.0, 2.0, 3.0])
    assert line[0] == "▁" and line[-1] == "█"
    assert " " in render_sparkline([0.0, math.nan, 1.0])
    assert len(render_sparkline(list(range(100)), width=10)) == 10
