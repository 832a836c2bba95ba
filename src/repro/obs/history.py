"""Durable telemetry history: a crash-safe time-series store.

The live observability plane (``/metrics``, SLO burn windows, the
``/fleet`` view) is in-memory and point-in-time — a restart forgets
everything.  This module adds the longitudinal half: a stdlib-only
time-series store that periodically samples the metrics registry into
append-only files, survives ``kill -9`` at any instant, and answers
"what did p95 look like over the last week of soaks?" after arbitrarily
many restarts.

Layout under the history root::

    <root>/
        active.jsonl                # append-only journal of raw rounds
        segments/
            raw-<start>-<end>.json  # sealed raw segment (delta-encoded)
            m1-<start>-<end>.json   # 1-minute rollup of one raw segment
            m15-<start>.json        # 15-minute rollup of a 6h window
            *.corrupt[-N]           # quarantined, never read again

Durability contract (mirrors the JobStore / flight recorder):

* every sampling round is one JSON line appended to ``active.jsonl``
  and fsynced; a crash can tear at most the line being written, and
  recovery drops exactly that torn tail;
* every ``seal_every`` rounds the journal is rewritten as a sealed
  *segment* via mkstemp + fsync + atomic rename + directory fsync, so
  sealed samples can never be lost or half-written;
* unreadable segments are quarantined aside (``.corrupt`` suffix) and
  skipped — one bad file never hides the good ones;
* compaction (raw -> 1m -> 15m rollups) is resumable: each output name
  is a pure function of its inputs, an output that already exists is
  never rewritten, so re-running after a kill at any point converges to
  the same bytes with no loss and no double counting.

Raw segments are column-oriented and delta-encoded: timestamps as
``[t0, t1-t0, ...]`` and each series as ``[v0, v1-v0, ...]``.  Counter
resets appear as negative deltas and are preserved verbatim — *reads*
are reset-safe (``increase``/``rate`` treat a negative delta as a
restart and count the post-reset value once, exactly like the SLO
window logic).

Everything is wall-clock timestamped (``time.time``) because history
must line up across restarts; clocks are injectable for tests.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from .logs import get_logger
from .metrics import Counter, Gauge, parse_series_key
from ..state import fsio
from .recorder import _atomic_write

__all__ = [
    "HistoryConfig",
    "HistoryError",
    "HistoryRecorder",
    "HistoryStore",
    "QueryResult",
    "render_sparkline",
]

_LOG = get_logger("obs.history")

#: wire format tag written into every sealed file
SEGMENT_FORMAT = "powerplay-history-segment/1"

#: rollup bucket widths, seconds
M1_BUCKET_S = 60
M15_BUCKET_S = 900
#: one 15m rollup file covers a 6h window of 1m rollups
M15_WINDOW_S = 21600

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


class HistoryError(Exception):
    """Raised on invalid queries or unusable history roots."""


def _metric_rounds() -> Counter:
    from . import metrics as m

    return m.get_registry().counter(
        "powerplay_history_rounds_total",
        "History sampling rounds recorded.",
    )


def _metric_files() -> Counter:
    from . import metrics as m

    return m.get_registry().counter(
        "powerplay_history_files_total",
        "History file operations by kind.",
        labelnames=("op",),
    )


def _metric_last_sample() -> Gauge:
    from . import metrics as m

    return m.get_registry().gauge(
        "powerplay_history_last_sample_seconds",
        "Duration of the most recent history sampling round.",
    )


@dataclass(frozen=True)
class HistoryConfig:
    """Retention and sealing knobs, all in seconds/rounds.

    Defaults size for a multi-day soak at a 5 s sampling interval:
    ~2 h of raw samples, a day of 1-minute rollups, and 15-minute
    rollups kept for a month.
    """

    interval_s: float = 5.0
    seal_every: int = 120             # rounds per sealed raw segment
    raw_retention_s: float = 7200.0
    m1_retention_s: float = 86400.0
    m15_retention_s: float = 86400.0 * 31
    fsync_journal: bool = True

    def validated(self) -> "HistoryConfig":
        if self.interval_s <= 0:
            raise HistoryError("history interval must be > 0 seconds")
        if self.seal_every < 1:
            raise HistoryError("seal_every must be >= 1 round")
        if not (
            self.raw_retention_s > 0
            and self.m1_retention_s > 0
            and self.m15_retention_s > 0
        ):
            raise HistoryError("retention windows must be > 0 seconds")
        return self


def _flatten_state(
    state: Mapping[str, Mapping[str, object]],
) -> Tuple[Dict[str, str], Dict[str, float]]:
    """``export_state()`` -> (family kinds, flat {series key: value})."""
    kinds: Dict[str, str] = {}
    flat: Dict[str, float] = {}
    for family in sorted(state):
        info = state[family]
        kinds[family] = str(info.get("kind", "untyped"))
        series = info.get("series", {})
        if isinstance(series, Mapping):
            for key in series:
                try:
                    flat[str(key)] = float(series[key])  # type: ignore[index]
                except (TypeError, ValueError):
                    continue
    return kinds, flat


def _family_of(sample_name: str, kinds: Mapping[str, str]) -> str:
    """Map a sample name back to its family (histogram suffixes fold)."""
    if sample_name in kinds:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in kinds:
                return base
    return sample_name


def _encode_deltas(values: Sequence[float]) -> List[float]:
    out: List[float] = []
    previous = 0.0
    for index, value in enumerate(values):
        out.append(value if index == 0 else value - previous)
        previous = value
    return [_round12(v) for v in out]


def _decode_deltas(deltas: Sequence[float]) -> List[float]:
    out: List[float] = []
    total = 0.0
    for index, delta in enumerate(deltas):
        total = delta if index == 0 else _round12(total + delta)
        out.append(total)
    return out


def _round12(value: float) -> float:
    """Bound float noise so encode/decode round-trips byte-identically."""
    return round(float(value), 12)


@dataclass
class _Segment:
    """One sealed file, indexed by name; payload loaded lazily."""

    path: Path
    level: str          # "raw" | "m1" | "m15"
    start: float
    end: float

    @property
    def name(self) -> str:
        return self.path.name


@dataclass
class QueryResult:
    """One query answer; ``payload()`` is deterministic (sorted keys)."""

    name: str
    op: str
    since: float
    until: float
    series: List[Dict[str, object]] = field(default_factory=list)

    def payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "op": self.op,
            "since": _round_t(self.since),
            "until": _round_t(self.until),
            "series": self.series,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)


def _round_t(value: float) -> float:
    """Timestamps to ms precision: stable bytes across replays."""
    return round(float(value), 3)


def _segment_name(level: str, start: float, end: float) -> str:
    if level == "m15":
        return f"m15-{int(start * 1000):013d}.json"
    return f"{level}-{int(start * 1000):013d}-{int(end * 1000):013d}.json"


def _parse_segment_name(name: str) -> Optional[Tuple[str, float, float]]:
    stem, dot, ext = name.partition(".")
    if ext != "json":
        return None
    parts = stem.split("-")
    if parts[0] in ("raw", "m1") and len(parts) == 3:
        try:
            return parts[0], int(parts[1]) / 1000.0, int(parts[2]) / 1000.0
        except ValueError:
            return None
    if parts[0] == "m15" and len(parts) == 2:
        try:
            start = int(parts[1]) / 1000.0
        except ValueError:
            return None
        return "m15", start, start + M15_WINDOW_S
    return None


class HistoryStore:
    """Crash-safe on-disk telemetry history with query + compaction.

    Thread-safe: one internal lock serializes append/seal/compact
    against queries.  All mutation happens through :meth:`append`,
    :meth:`seal` and :meth:`compact`; everything else is read-only.
    """

    def __init__(
        self,
        root: Path,
        config: Optional[HistoryConfig] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.root = Path(root)
        self.config = (config or HistoryConfig()).validated()
        self.clock = clock
        self.segments_dir = self.root / "segments"
        self.journal_path = self.root / "active.jsonl"
        self.quarantined: List[Tuple[str, str]] = []
        self._lock = threading.RLock()
        self._active: List[Tuple[float, Dict[str, str], Dict[str, float]]] = []
        self.root.mkdir(parents=True, exist_ok=True)
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self._segments: Dict[str, _Segment] = {}
        self._scan_segments()
        self._recover_journal()

    # ------------------------------------------------------------------
    # startup / recovery

    def _scan_segments(self) -> None:
        self._segments.clear()
        for path in sorted(self.segments_dir.iterdir()):
            if path.name.startswith("."):
                continue
            parsed = _parse_segment_name(path.name)
            if parsed is None:
                if path.suffix == ".json" or ".corrupt" not in path.name:
                    self._quarantine(path, "unrecognized segment name")
                continue
            level, start, end = parsed
            self._segments[path.name] = _Segment(path, level, start, end)

    def _recover_journal(self) -> None:
        """Reload parseable journal rounds; drop the torn tail.

        Rounds at or before the newest sealed raw segment's end are
        duplicates of a seal that crashed before truncating the journal
        — they are dropped too, so replaying recovery is idempotent.
        """
        self._active = []
        sealed_until = max(
            (seg.end for seg in self._segments.values()
             if seg.level == "raw"), default=-math.inf,
        )
        lines, torn = fsio.read_lines(self.journal_path)
        for line in lines:
            if not line.strip():
                continue
            try:
                payload = json.loads(line.decode("utf-8"))
                when = float(payload["t"])
                kinds = {str(k): str(v) for k, v in payload["f"].items()}
                flat = {str(k): float(v) for k, v in payload["s"].items()}
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                torn = True
                break
            if when > sealed_until:
                self._active.append((when, kinds, flat))
        if torn:
            _LOG.warning(
                "journal_torn_tail", kept_rounds=len(self._active),
            )
            self._rewrite_journal()

    def _rewrite_journal(self) -> None:
        """Persist the in-memory rounds as the whole journal (atomic)."""
        text = "".join(
            self._journal_line(when, kinds, flat) + "\n"
            for when, kinds, flat in self._active
        )
        _atomic_write(self.journal_path, text)

    @staticmethod
    def _journal_line(
        when: float, kinds: Mapping[str, str], flat: Mapping[str, float],
    ) -> str:
        return json.dumps(
            {"t": _round_t(when), "f": dict(kinds), "s": dict(flat)},
            sort_keys=True,
        )

    def close(self) -> None:
        """Nothing to release: each append opens and closes the journal."""

    def _quarantine(self, path: Path, reason: str) -> None:
        try:
            target = fsio.quarantine_file(path)
        except OSError:  # pragma: no cover - concurrent removal
            return
        self.quarantined.append((path.name, reason))
        _metric_files().inc(op="quarantine")
        _LOG.warning(
            "segment_quarantine", file=path.name, moved_to=target.name,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # writes

    def append(
        self, state: Mapping[str, Mapping[str, object]],
        when: Optional[float] = None,
    ) -> float:
        """Record one sampling round; returns its timestamp.

        The round is journaled durably before this returns (flushed,
        and fsynced unless ``fsync_journal=False``); a seal is triggered
        automatically every ``seal_every`` rounds.
        """
        with self._lock:
            now = self.clock() if when is None else float(when)
            if self._active and now <= self._active[-1][0]:
                # monotonic guard: a clock step backwards must not
                # interleave samples out of order inside a segment
                now = math.nextafter(self._active[-1][0], math.inf)
            kinds, flat = _flatten_state(state)
            fsio.append_line(
                self.journal_path, self._journal_line(now, kinds, flat),
                fsync=self.config.fsync_journal,
            )
            self._active.append((now, kinds, flat))
            _metric_rounds().inc()
            if len(self._active) >= self.config.seal_every:
                self.seal()
            return now

    def seal(self) -> Optional[Path]:
        """Seal buffered journal rounds into one raw segment file.

        Crash windows: dying *before* the atomic rename leaves only the
        journal (recovery replays it); dying *after* the rename but
        before the journal truncation leaves both — recovery drops the
        journal rounds the segment already covers.  Either way no
        sealed sample is ever lost.
        """
        with self._lock:
            if not self._active:
                return None
            payload = self._encode_raw_segment(self._active)
            path = self.segments_dir / _segment_name(
                "raw", self._active[0][0], self._active[-1][0]
            )
            _atomic_write(path, json.dumps(payload, sort_keys=True))
            _metric_files().inc(op="seal")
            self._segments[path.name] = _Segment(
                path, "raw", self._active[0][0], self._active[-1][0]
            )
            self._active = []
            try:
                self.journal_path.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            return path

    @staticmethod
    def _encode_raw_segment(
        rounds: Sequence[Tuple[float, Dict[str, str], Dict[str, float]]],
    ) -> Dict[str, object]:
        times = [when for when, _, _ in rounds]
        kinds: Dict[str, str] = {}
        for _, round_kinds, _ in rounds:
            kinds.update(round_kinds)
        series: Dict[str, Dict[str, object]] = {}
        for key in sorted({
            key for _, _, flat in rounds for key in flat
        }):
            start_index: Optional[int] = None
            values: List[float] = []
            for index, (_, _, flat) in enumerate(rounds):
                if key in flat:
                    if start_index is None:
                        start_index = index
                    values.append(flat[key])
                elif start_index is not None:
                    # gap inside a run: carry the last value forward so
                    # columns stay aligned (registries never drop
                    # series, so this is a theoretical path)
                    values.append(values[-1])
            series[key] = {
                "start": start_index or 0,
                "values": _encode_deltas(values),
            }
        return {
            "format": SEGMENT_FORMAT,
            "level": "raw",
            "start": _round_t(times[0]),
            "end": _round_t(times[-1]),
            "rounds": len(rounds),
            "times": _encode_deltas(times),
            "families": kinds,
            "series": series,
        }

    # ------------------------------------------------------------------
    # reads (segment loading)

    def _load_segment(self, segment: _Segment) -> Optional[Dict[str, object]]:
        try:
            payload = json.loads(segment.path.read_text(encoding="utf-8"))
            if payload.get("format") != SEGMENT_FORMAT:
                raise ValueError("wrong format tag")
            if payload.get("level") != segment.level:
                raise ValueError("level does not match file name")
            if not isinstance(payload.get("series"), dict):
                raise ValueError("series table missing")
            return payload
        except (ValueError, OSError, UnicodeDecodeError) as exc:
            self._segments.pop(segment.name, None)
            self._quarantine(segment.path, f"unreadable: {exc}")
            return None

    def _raw_rounds(
        self, since: float = -math.inf, until: float = math.inf,
    ) -> List[Tuple[float, Dict[str, str], Dict[str, float]]]:
        """All raw rounds (sealed + active) in [since, until], ordered."""
        out: List[Tuple[float, Dict[str, str], Dict[str, float]]] = []
        with self._lock:
            for segment in self._sorted_segments("raw"):
                if segment.end < since or segment.start > until:
                    continue
                payload = self._load_segment(segment)
                if payload is None:
                    continue
                try:
                    out.extend(
                        self._decode_raw_rounds(payload, since, until)
                    )
                except (ValueError, TypeError, KeyError, IndexError):
                    self._segments.pop(segment.name, None)
                    self._quarantine(segment.path, "malformed columns")
            for when, kinds, flat in self._active:
                if since <= when <= until:
                    out.append((when, kinds, flat))
        out.sort(key=lambda item: item[0])
        return out

    @staticmethod
    def _decode_raw_rounds(
        payload: Mapping[str, object], since: float, until: float,
    ) -> List[Tuple[float, Dict[str, str], Dict[str, float]]]:
        times = _decode_deltas(payload.get("times", []))  # type: ignore[arg-type]
        kinds = {
            str(k): str(v)
            for k, v in payload.get("families", {}).items()  # type: ignore[union-attr]
        }
        columns: List[Tuple[str, int, List[float]]] = []
        for key, entry in payload.get("series", {}).items():  # type: ignore[union-attr]
            start = int(entry.get("start", 0))
            values = _decode_deltas(entry.get("values", []))
            columns.append((str(key), start, values))
        rounds: List[Tuple[float, Dict[str, str], Dict[str, float]]] = []
        for index, when in enumerate(times):
            if not (since <= when <= until):
                continue
            flat: Dict[str, float] = {}
            for key, start, values in columns:
                offset = index - start
                if 0 <= offset < len(values):
                    flat[key] = values[offset]
            rounds.append((when, kinds, flat))
        return rounds

    def _sorted_segments(self, level: str) -> List[_Segment]:
        return sorted(
            (seg for seg in self._segments.values() if seg.level == level),
            key=lambda seg: (seg.start, seg.name),
        )

    # ------------------------------------------------------------------
    # compaction

    def compact(self, now: Optional[float] = None) -> Dict[str, int]:
        """Run one full compaction + retention pass; returns op counts.

        Deterministic and resumable: output names derive from input
        names, outputs that already exist are never rewritten (a crash
        between write and source-unlink just finishes the unlink on the
        next pass), and retention only ever deletes whole sealed files.
        """
        with self._lock:
            now = self.clock() if now is None else float(now)
            counts = {"m1": 0, "m15": 0, "expired": 0}
            counts["m1"] = self._compact_raw(now)
            counts["m15"] = self._compact_m1(now)
            counts["expired"] = self._expire(now)
            return counts

    def _compact_raw(self, now: float) -> int:
        """Roll each expired raw segment into a 1m rollup file."""
        produced = 0
        horizon = now - self.config.raw_retention_s
        baseline: Optional[Dict[str, float]] = None
        baseline_end = -math.inf
        for segment in self._sorted_segments("raw"):
            if segment.end > horizon:
                break
            target = self.segments_dir / _segment_name(
                "m1", segment.start, segment.end
            )
            if not target.exists():
                payload = self._load_segment(segment)
                if payload is None:
                    continue
                rounds = self._decode_raw_rounds(
                    payload, -math.inf, math.inf
                )
                if baseline is None or baseline_end < segment.start:
                    baseline = self._rollup_baseline(segment.start)
                rollup = _rollup_rounds(
                    rounds, M1_BUCKET_S, "m1",
                    dict(payload.get("families", {})),  # type: ignore[arg-type]
                    baseline or {},
                )
                _atomic_write(
                    target, json.dumps(rollup, sort_keys=True)
                )
                _metric_files().inc(op="compact")
                self._segments[target.name] = _Segment(
                    target, "m1", segment.start, segment.end
                )
                baseline = {
                    key: flat[key]
                    for _, _, flat in rounds[-1:] for key in flat
                }
                baseline_end = segment.end
                produced += 1
            else:
                self._segments.setdefault(
                    target.name,
                    _Segment(target, "m1", segment.start, segment.end),
                )
                baseline, baseline_end = None, -math.inf
            try:
                segment.path.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._segments.pop(segment.name, None)
        return produced

    def _rollup_baseline(self, before: float) -> Dict[str, float]:
        """Last known value per series strictly before ``before``.

        Taken from the newest earlier raw segment if one still exists,
        else from the newest earlier 1m rollup's ``last`` column — this
        is what keeps counter ``increase`` exact across segment
        boundaries even though segments compact one at a time.
        """
        previous_raw = [
            seg for seg in self._sorted_segments("raw")
            if seg.end < before
        ]
        if previous_raw:
            payload = self._load_segment(previous_raw[-1])
            if payload is not None:
                rounds = self._decode_raw_rounds(
                    payload, -math.inf, math.inf
                )
                if rounds:
                    return dict(rounds[-1][2])
        previous_m1 = [
            seg for seg in self._sorted_segments("m1")
            if seg.end < before
        ]
        if previous_m1:
            _, cells = self._rollup_cells(previous_m1[-1])
            return {key: last for key, _, _, last in cells}
        return {}

    def _compact_m1(self, now: float) -> int:
        """Merge expired 1m rollups into 15m rollups per 6h window."""
        produced = 0
        horizon = now - self.config.m1_retention_s
        windows: Dict[float, List[_Segment]] = {}
        for segment in self._sorted_segments("m1"):
            window = math.floor(segment.start / M15_WINDOW_S) * M15_WINDOW_S
            windows.setdefault(window, []).append(segment)
        for window in sorted(windows):
            members = windows[window]
            # only fold a window once nothing newer can join it: every
            # member expired *and* the window itself is fully past the
            # horizon (a later raw segment can only land after it)
            if window + M15_WINDOW_S > horizon:
                continue
            if any(seg.end > horizon for seg in members):
                continue
            target = self.segments_dir / _segment_name(
                "m15", float(window), window + M15_WINDOW_S
            )
            if not target.exists():
                merged = self._merge_m1(members)
                if merged is None:
                    continue
                _atomic_write(
                    target, json.dumps(merged, sort_keys=True)
                )
                _metric_files().inc(op="compact")
                produced += 1
            self._segments.setdefault(
                target.name,
                _Segment(target, "m15", float(window),
                         window + M15_WINDOW_S),
            )
            for segment in members:
                try:
                    segment.path.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                self._segments.pop(segment.name, None)
        return produced

    def _merge_m1(
        self, members: Sequence[_Segment],
    ) -> Optional[Dict[str, object]]:
        buckets: Dict[int, Dict[str, Dict[str, float]]] = {}
        kinds: Dict[str, str] = {}
        loaded = 0
        for segment in sorted(members, key=lambda seg: seg.start):
            payload = self._load_segment(segment)
            if payload is None:
                continue
            loaded += 1
            kinds.update({
                str(k): str(v)
                for k, v in payload.get("families", {}).items()  # type: ignore[union-attr]
            })
            starts = _decode_deltas(payload.get("buckets", []))  # type: ignore[arg-type]
            for key, entry in payload.get("series", {}).items():  # type: ignore[union-attr]
                for index, start in enumerate(starts):
                    last = entry.get("last", [])[index]
                    if last is None:
                        continue
                    coarse = int(
                        math.floor(start / M15_BUCKET_S) * M15_BUCKET_S
                    )
                    cell = buckets.setdefault(coarse, {}).setdefault(
                        str(key),
                        {"last": float(last), "last_t": start,
                         "increase": 0.0, "min": math.inf,
                         "max": -math.inf, "count": 0.0},
                    )
                    if start >= cell["last_t"]:
                        cell["last"], cell["last_t"] = float(last), start
                    cell["increase"] += float(
                        entry.get("increase", [])[index] or 0.0
                    )
                    cell["min"] = min(
                        cell["min"],
                        float(entry.get("min", [])[index]
                              if entry.get("min", [])[index] is not None
                              else last),
                    )
                    cell["max"] = max(
                        cell["max"],
                        float(entry.get("max", [])[index]
                              if entry.get("max", [])[index] is not None
                              else last),
                    )
                    cell["count"] += float(
                        entry.get("count", [])[index] or 0.0
                    )
        if not loaded or not buckets:
            return None
        return _encode_rollup(buckets, kinds, "m15", M15_BUCKET_S)

    def _expire(self, now: float) -> int:
        """Delete 15m rollups past their retention window."""
        removed = 0
        horizon = now - self.config.m15_retention_s
        for segment in self._sorted_segments("m15"):
            if segment.end > horizon:
                break
            try:
                segment.path.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._segments.pop(segment.name, None)
            _metric_files().inc(op="expire")
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # query layer

    def series_keys(self) -> List[str]:
        """Every series key present anywhere in the store, sorted."""
        keys = set()
        with self._lock:
            for segment in list(self._segments.values()):
                payload = self._load_segment(segment)
                if payload is not None:
                    keys.update(
                        str(k) for k in payload.get("series", {})  # type: ignore[union-attr]
                    )
            for _, _, flat in self._active:
                keys.update(flat)
        return sorted(keys)

    def families(self) -> Dict[str, str]:
        """Family -> kind map merged across everything on disk."""
        kinds: Dict[str, str] = {}
        with self._lock:
            for segment in list(self._segments.values()):
                payload = self._load_segment(segment)
                if payload is not None:
                    kinds.update({
                        str(k): str(v)
                        for k, v in payload.get(  # type: ignore[union-attr]
                            "families", {}).items()
                    })
            for _, round_kinds, _ in self._active:
                kinds.update(round_kinds)
        return kinds

    def select(
        self, name: str, labels: Optional[Mapping[str, str]] = None,
    ) -> List[str]:
        """Series keys whose sample name matches ``name`` (exact, or a
        histogram child of it) and whose labels are a superset of
        ``labels``."""
        labels = dict(labels or {})
        out = []
        for key in self.series_keys():
            try:
                sample_name, key_labels = parse_series_key(key)
            except ValueError:
                continue
            if sample_name != name and _family_of(
                sample_name, {name: ""}
            ) != name:
                continue
            if all(key_labels.get(k) == v for k, v in labels.items()):
                out.append(key)
        return out

    def query(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        op: str = "range",
        since: Optional[float] = None,
        until: Optional[float] = None,
        q: float = 0.95,
    ) -> QueryResult:
        """Answer range / rate / quantile over the stored history.

        * ``range``  — ``[t, value]`` points per matching series;
        * ``rate``   — reset-safe per-second increase between adjacent
          points (counter restarts never yield negative rates);
        * ``quantile`` — exact sample quantile ``q`` of each series'
          values over the window (single number per series).

        Results are deterministic: series sorted by key, timestamps at
        ms precision, ``to_json()`` byte-identical across replays.
        """
        if op not in ("range", "rate", "quantile"):
            raise HistoryError(
                f"unknown query op {op!r} (range|rate|quantile)"
            )
        if not name:
            raise HistoryError("query needs a series name")
        if not 0.0 <= q <= 1.0:
            raise HistoryError("quantile must be within [0, 1]")
        if until is None:
            # default to the newest *stored* timestamp, not the clock:
            # replaying the same query over the same store must be
            # byte-identical, and wall time would leak into the output
            until = self._newest()
        until = float(until)
        since = -math.inf if since is None else float(since)
        points = self._collect_points(name, labels, since, until)
        result = QueryResult(name=name, op=op, since=since, until=until)
        if since == -math.inf:
            result.since = min(
                (series[0][0] for series in points.values() if series),
                default=_round_t(until),
            )
        for key in sorted(points):
            series_points = points[key]
            if not series_points:
                continue
            entry: Dict[str, object] = {"key": key}
            if op == "range":
                entry["points"] = [
                    [_round_t(t), _round12(v)] for t, v in series_points
                ]
            elif op == "rate":
                entry["points"] = [
                    [_round_t(t), _round12(rate)]
                    for t, rate in _rate_series(series_points)
                ]
            else:
                values = sorted(v for _, v in series_points)
                entry["value"] = _round12(_quantile(values, q))
                entry["samples"] = len(values)
            result.series.append(entry)
        return result

    def _collect_points(
        self,
        name: str,
        labels: Optional[Mapping[str, str]],
        since: float,
        until: float,
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Merge raw + rollup levels into one point list per series.

        Raw wins where it exists; rollups only contribute buckets that
        end before the finest level already covering them.  Rollup
        contribution per bucket is its ``last`` value at bucket end.
        """
        labels = dict(labels or {})

        def matches(key: str) -> bool:
            try:
                sample_name, key_labels = parse_series_key(key)
            except ValueError:
                return False
            if sample_name != name:
                return False
            return all(
                key_labels.get(k) == v for k, v in labels.items()
            )

        out: Dict[str, List[Tuple[float, float]]] = {}
        raw_rounds = self._raw_rounds(since, until)
        raw_oldest = raw_rounds[0][0] if raw_rounds else math.inf
        # rollup contributions keyed by (series, bucket end): segments
        # compact one at a time, so adjacent files can hold *partial*
        # copies of the same bucket — the latest-starting file has the
        # true ``last`` and overwrites earlier partials
        roll: Dict[str, Dict[float, float]] = {}
        with self._lock:
            m1_oldest = math.inf
            for level, finer_oldest in (("m1", raw_oldest),
                                        ("m15", None)):
                cutoff = finer_oldest if finer_oldest is not None \
                    else m1_oldest
                for segment in self._sorted_segments(level):
                    if segment.end < since or segment.start > until:
                        if level == "m1" and segment.start <= until:
                            m1_oldest = min(m1_oldest, segment.start)
                        continue
                    first, cells = self._rollup_cells(segment, matches)
                    if level == "m1":
                        m1_oldest = min(m1_oldest, first)
                    for key, start, end, last in cells:
                        # a bucket overlapping the window contributes,
                        # stamped at bucket end
                        if end < since or start > until or end >= cutoff:
                            continue
                        roll.setdefault(key, {})[end] = last
        for key, buckets in roll.items():
            out[key] = sorted(buckets.items())
        for when, _, flat in raw_rounds:
            for key, value in flat.items():
                if matches(key):
                    out.setdefault(key, []).append((when, value))
        for key in out:
            out[key].sort(key=lambda point: point[0])
        return out

    def flat_recent(
        self, since: float,
    ) -> List[Tuple[float, Dict[str, float]]]:
        """Full flat samples newer than ``since``, for SLO rehydration.

        Raw rounds verbatim; older gaps filled from 1m rollup ``last``
        columns (bucket-end timestamps).  Sorted by time.
        """
        raw_rounds = self._raw_rounds(since, math.inf)
        raw_oldest = raw_rounds[0][0] if raw_rounds else math.inf
        per_bucket: Dict[float, Dict[str, float]] = {}
        with self._lock:
            # segments ascending: a later file's partial copy of the
            # same bucket overwrites the earlier one (true ``last``)
            for segment in self._sorted_segments("m1"):
                if segment.end < since - M1_BUCKET_S:
                    continue
                for key, _, end, last in self._rollup_cells(segment)[1]:
                    if since <= end < raw_oldest:
                        per_bucket.setdefault(end, {})[key] = last
        out: List[Tuple[float, Dict[str, float]]] = list(
            sorted(per_bucket.items())
        )
        out.extend((when, flat) for when, _, flat in raw_rounds)
        out.sort(key=lambda item: item[0])
        return out

    def _rollup_cells(
        self, segment: _Segment,
        keep: Callable[[str], bool] = lambda key: True,
    ) -> Tuple[float, List[Tuple[str, float, float, float]]]:
        """One rollup segment's filled ``last`` cells.

        Returns ``(first bucket start, [(key, bucket start, bucket end,
        last value), ...])`` over the series ``keep`` accepts.  A file
        that does not load gives ``(inf, [])``; one whose columns do not
        decode is quarantined, keeping the cells read before the fault.
        """
        first = math.inf
        cells: List[Tuple[str, float, float, float]] = []
        payload = self._load_segment(segment)
        if payload is None:
            return first, cells
        try:
            starts = _decode_deltas(payload.get("buckets", []))  # type: ignore[arg-type]
            first = starts[0] if starts else math.inf
            width = int(payload.get("bucket_s", M1_BUCKET_S))
            for key, entry in payload.get("series", {}).items():  # type: ignore[union-attr]
                key = str(key)
                if not keep(key):
                    continue
                lasts = entry.get("last", [])
                for index, start in enumerate(starts):
                    if lasts[index] is not None:
                        cells.append(
                            (key, start, start + width, float(lasts[index]))
                        )
        except (ValueError, TypeError, KeyError, IndexError):
            self._segments.pop(segment.name, None)
            self._quarantine(segment.path, "malformed columns")
        return first, cells

    def _newest(self) -> float:
        with self._lock:
            newest = max(
                (seg.end for seg in self._segments.values()),
                default=-math.inf,
            )
            if self._active:
                newest = max(newest, self._active[-1][0])
            return self.clock() if newest == -math.inf else newest

    # ------------------------------------------------------------------
    # stats

    def stats(self) -> Dict[str, object]:
        with self._lock:
            per_level = {"raw": 0, "m1": 0, "m15": 0}
            total_bytes = 0
            oldest, newest = math.inf, -math.inf
            for segment in self._segments.values():
                per_level[segment.level] += 1
                try:
                    total_bytes += segment.path.stat().st_size
                except OSError:  # pragma: no cover
                    pass
                oldest = min(oldest, segment.start)
                newest = max(newest, segment.end)
            if self.journal_path.exists():
                try:
                    total_bytes += self.journal_path.stat().st_size
                except OSError:  # pragma: no cover
                    pass
            for when, _, _ in self._active:
                oldest = min(oldest, when)
                newest = max(newest, when)
            return {
                "root": str(self.root),
                "active_rounds": len(self._active),
                "segments": per_level,
                "bytes": total_bytes,
                "oldest": None if oldest == math.inf else _round_t(oldest),
                "newest": None if newest == -math.inf
                else _round_t(newest),
                "quarantined": [list(item) for item in self.quarantined],
            }


def _rollup_rounds(
    rounds: Sequence[Tuple[float, Dict[str, str], Dict[str, float]]],
    bucket_s: int,
    level: str,
    kinds: Dict[str, str],
    baseline: Mapping[str, float],
) -> Dict[str, object]:
    """Aggregate raw rounds into fixed buckets (last/increase/min/max).

    ``increase`` is the reset-safe positive delta sum: a negative delta
    means the counter restarted, so the post-reset value counts once —
    the same rule :class:`~repro.obs.slo._WindowedSeries` applies.
    ``baseline`` supplies each series' value just before the first
    round, keeping the first delta exact across segment boundaries.
    """
    buckets: Dict[int, Dict[str, Dict[str, float]]] = {}
    previous: Dict[str, float] = dict(baseline)
    for when, _, flat in rounds:
        start = int(math.floor(when / bucket_s) * bucket_s)
        for key, value in flat.items():
            cell = buckets.setdefault(start, {}).setdefault(
                key,
                {"last": value, "last_t": when, "increase": 0.0,
                 "min": value, "max": value, "count": 0.0},
            )
            if when >= cell["last_t"]:
                cell["last"], cell["last_t"] = value, when
            cell["min"] = min(cell["min"], value)
            cell["max"] = max(cell["max"], value)
            cell["count"] += 1
            if key in previous:
                delta = value - previous[key]
                cell["increase"] += delta if delta >= 0 else value
            previous[key] = value
    return _encode_rollup(buckets, kinds, level, bucket_s)


def _encode_rollup(
    buckets: Mapping[int, Mapping[str, Mapping[str, float]]],
    kinds: Mapping[str, str],
    level: str,
    bucket_s: int,
) -> Dict[str, object]:
    starts = sorted(buckets)
    all_keys = sorted({
        key for cells in buckets.values() for key in cells
    })
    series: Dict[str, Dict[str, List[Optional[float]]]] = {}
    for key in all_keys:
        columns: Dict[str, List[Optional[float]]] = {
            "last": [], "increase": [], "min": [], "max": [], "count": [],
        }
        for start in starts:
            cell = buckets[start].get(key)
            if cell is None:
                for column in columns.values():
                    column.append(None)
            else:
                columns["last"].append(_round12(cell["last"]))
                columns["increase"].append(_round12(cell["increase"]))
                columns["min"].append(_round12(cell["min"]))
                columns["max"].append(_round12(cell["max"]))
                columns["count"].append(cell["count"])
        series[key] = columns
    return {
        "format": SEGMENT_FORMAT,
        "level": level,
        "bucket_s": bucket_s,
        "start": starts[0] if starts else 0,
        "end": (starts[-1] + bucket_s) if starts else 0,
        "buckets": _encode_deltas([float(s) for s in starts]),
        "families": dict(kinds),
        "series": series,
    }


def _increase(points: Sequence[Tuple[float, float]]) -> float:
    """Reset-safe total increase over a cumulative-counter point list."""
    total = 0.0
    for (_, v0), (_, v1) in zip(points, points[1:]):
        delta = v1 - v0
        total += delta if delta >= 0 else v1
    return total


def _rate_series(
    points: Sequence[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Per-second rate between adjacent points, stamped at the later one.

    A negative delta means the counter restarted: the post-restart
    value counts once.  Points that do not advance in time are skipped.
    """
    out: List[Tuple[float, float]] = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        delta = v1 - v0
        if delta < 0:
            delta = v1
        out.append((t1, delta / dt))
    return out


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Exact sample quantile (nearest-rank with linear interpolation)."""
    if not sorted_values:
        return math.nan
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (
        sorted_values[low] * (1 - fraction)
        + sorted_values[high] * fraction
    )


def render_sparkline(values: Sequence[float], width: int = 40) -> str:
    """Text sparkline: ``▁▂▃▄▅▆▇█`` scaled to the value range.

    More values than ``width`` are averaged into ``width`` buckets;
    fewer are rendered one block per value.  Non-finite values render
    as spaces.
    """
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return ""
    if len(values) > width:
        chunked: List[float] = []
        for index in range(width):
            lo = index * len(values) // width
            hi = max(lo + 1, (index + 1) * len(values) // width)
            chunk = [v for v in values[lo:hi] if math.isfinite(v)]
            chunked.append(
                sum(chunk) / len(chunk) if chunk else math.nan
            )
        values = chunked
    low, high = min(finite), max(finite)
    span = high - low
    out = []
    for value in values:
        if not math.isfinite(value):
            out.append(" ")
            continue
        if span <= 0:
            out.append(_SPARK_BLOCKS[0])
            continue
        index = int((value - low) / span * (len(_SPARK_BLOCKS) - 1))
        out.append(_SPARK_BLOCKS[index])
    return "".join(out)


class HistoryRecorder:
    """Background sampler: registry state -> :class:`HistoryStore`.

    A daemon thread appends one round every ``interval_s`` (the store
    seals/compacts on its own cadence); :meth:`sample_once` is the
    synchronous path tests and benches drive directly.  The source is
    any callable returning ``export_state()``-shaped data, so fleet
    summaries and process gauges ride along for free.
    """

    def __init__(
        self,
        store: HistoryStore,
        source: Callable[[], Mapping[str, Mapping[str, object]]],
        interval_s: Optional[float] = None,
        compact_every: int = 60,
        clock: Callable[[], float] = time.time,
    ):
        self.store = store
        self.source = source
        self.interval_s = (
            store.config.interval_s if interval_s is None
            else float(interval_s)
        )
        if self.interval_s <= 0:
            raise HistoryError("recorder interval must be > 0 seconds")
        self.compact_every = max(1, int(compact_every))
        self.clock = clock
        self._rounds = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample_once(self) -> float:
        """Take one sample round; returns its duration in seconds."""
        started = time.perf_counter()
        try:
            state = self.source()
        except Exception as exc:
            _LOG.warning("history_source_error", error=repr(exc))
            return 0.0
        self.store.append(state, when=self.clock())
        self._rounds += 1
        if self._rounds % self.compact_every == 0:
            self.store.compact(now=self.clock())
        duration = time.perf_counter() - started
        _metric_last_sample().set(duration)
        return duration

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="history-recorder", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.sample_once()
            except Exception as exc:  # pragma: no cover - defensive
                _LOG.warning("history_sample_error", error=repr(exc))

    def stop(self, seal: bool = True) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        if seal:
            try:
                self.store.seal()
            except OSError as exc:  # pragma: no cover - disk full etc.
                _LOG.warning("history_seal_error", error=repr(exc))
        self.store.close()
