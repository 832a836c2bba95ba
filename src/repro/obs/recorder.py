"""An always-on bounded flight recorder for the request path.

Aircraft keep a flight recorder running at all times precisely because
nobody knows in advance which thirty seconds will matter.  The web
tier does the same here: every handled request appends one small
:class:`FlightRecord` — route, status, latency, trace id, the finished
span tree if tracing was on, and whichever SLO alerts were active — to
a fixed-size ring.  Memory is bounded by ``capacity`` regardless of
traffic, and the append is a deque push under a lock, cheap enough to
leave on in production (``bench_fleet.py`` gates the whole recorder +
SLO path at <2% of loopback request latency).

When something goes wrong — any 5xx response, or an SLO transitioning
to ``page`` — the ring is *snapshotted to disk*: the last N requests
leading up to the incident, written crash-safely (mkstemp + fsync +
atomic rename + directory fsync, the same discipline as the session
and mirror stores).  Snapshots are rate-limited so an error storm
produces a handful of files, not thousands; reading them back
quarantines corrupt files aside as ``*.corrupt`` instead of failing
the whole dump (the pattern from ``registry/store.py``).

``/debug/flight`` serves the live ring and the snapshot inventory;
``repro flight dump | show`` works against a state directory offline.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..state import fsio
from .logs import get_logger
from .metrics import get_registry

__all__ = [
    "FlightRecord",
    "FlightRecorder",
    "consume_root",
    "install_trace_hook",
    "load_snapshots",
]

_LOG = get_logger("obs.recorder")

#: default ring size — enough context around an incident without
#: holding minutes of traffic in memory
DEFAULT_CAPACITY = 256

#: default ceiling on snapshot files kept on disk (oldest pruned)
DEFAULT_MAX_SNAPSHOTS = 16

#: minimum seconds between automatic snapshots — an error storm must
#: not turn into a disk-write storm
DEFAULT_SNAPSHOT_INTERVAL_S = 2.0

#: schema version stamped into every snapshot file
SNAPSHOT_VERSION = 1


def _metric_records():
    return get_registry().counter(
        "powerplay_flight_records_total",
        "Requests captured by the flight recorder.",
    )


def _metric_snapshots():
    return get_registry().counter(
        "powerplay_flight_snapshots_total",
        "Flight-recorder snapshots written to disk, by trigger.",
        ("trigger",),
    )


#: thread-local stash fed by the tracer's root hook: the last finished
#: root span on this thread, waiting for the web layer to attach it to
#: a flight record.  Module-level (one hook for the whole process, no
#: matter how many Applications exist), consumed exactly once.
_trace_stash = threading.local()


def _stash_root(root) -> None:
    _trace_stash.root = root


def install_trace_hook() -> None:
    """Register the recorder's root-span hook with the tracer.

    Idempotent: the tracer deduplicates hooks, so every Application in
    the process shares one stash instead of stacking one hook each.
    """
    from .trace import add_root_hook

    add_root_hook(_stash_root)


def consume_root():
    """Pop the finished root span stashed by the trace hook (or None).

    Consuming clears the stash, so a request handled with tracing
    disabled can never pick up a stale tree from an earlier request on
    the same thread.
    """
    root = getattr(_trace_stash, "root", None)
    _trace_stash.root = None
    return root


@dataclass
class FlightRecord:
    """One request as the flight recorder saw it."""

    route: str
    method: str
    status: int
    duration_ms: float
    request_id: str = ""
    trace_id: str = ""
    user: str = ""
    spans: Optional[Dict[str, object]] = None  # finished root span payload
    alerts: Tuple[str, ...] = ()  # SLO names not in "ok" at record time
    at: float = 0.0  # wall-clock seconds (epoch)
    seq: int = 0  # monotonically increasing per recorder

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "seq": self.seq,
            "at": self.at,
            "route": self.route,
            "method": self.method,
            "status": self.status,
            "duration_ms": round(self.duration_ms, 3),
            "request_id": self.request_id,
            "trace_id": self.trace_id,
        }
        if self.user:
            payload["user"] = self.user
        if self.alerts:
            payload["alerts"] = list(self.alerts)
        if self.spans is not None:
            payload["spans"] = self.spans
        return payload


@dataclass
class Snapshot:
    """A snapshot file's parsed contents (see :func:`load_snapshots`)."""

    path: Path
    reason: str
    trigger: str
    written_at: float
    records: List[Dict[str, object]] = field(default_factory=list)
    slo: Optional[Dict[str, object]] = None


class FlightRecorder:
    """The bounded ring plus its snapshot-to-disk machinery.

    ``snapshot_dir=None`` keeps the recorder purely in-memory (tests,
    embedded use); the web server points it at ``<state>/flight/``.
    ``clock`` (wall) and ``monotonic`` are injectable for deterministic
    tests.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        snapshot_dir: Optional[Path] = None,
        max_snapshots: int = DEFAULT_MAX_SNAPSHOTS,
        snapshot_interval_s: float = DEFAULT_SNAPSHOT_INTERVAL_S,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.max_snapshots = max_snapshots
        self.snapshot_interval_s = snapshot_interval_s
        self._clock = clock
        self._monotonic = monotonic
        self._ring: Deque[FlightRecord] = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
        self._last_snapshot_mono: Optional[float] = None
        self._snapshot_seq = 0
        #: (filename, reason) pairs for snapshots written this process
        self.snapshots_written: List[Tuple[str, str]] = []

    # -- capture ------------------------------------------------------------

    def record(
        self,
        route: str,
        method: str,
        status: int,
        duration_ms: float,
        request_id: str = "",
        trace_id: str = "",
        user: str = "",
        spans: Optional[Dict[str, object]] = None,
        alerts: Sequence[str] = (),
    ) -> FlightRecord:
        """Append one request to the ring (and maybe snapshot on 5xx)."""
        with self._lock:
            self._seq += 1
            record = FlightRecord(
                route=route,
                method=method,
                status=status,
                duration_ms=duration_ms,
                request_id=request_id,
                trace_id=trace_id,
                user=user,
                spans=spans,
                alerts=tuple(alerts),
                at=self._clock(),
                seq=self._seq,
            )
            self._ring.append(record)
        _metric_records().inc()
        if status >= 500:
            self.snapshot(reason=f"5xx on {route}", trigger="5xx")
        return record

    def records(self, limit: Optional[int] = None) -> List[FlightRecord]:
        """Ring contents, oldest first (a copy; safe to iterate).

        ``limit`` keeps the newest ``limit`` records; 0 or less keeps
        none.
        """
        with self._lock:
            ordered = list(self._ring)
        if limit is not None:
            ordered = ordered[-limit:] if limit > 0 else []
        return ordered

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # -- snapshots ----------------------------------------------------------

    def snapshot(
        self,
        reason: str,
        trigger: str = "manual",
        slo_payload: Optional[Dict[str, object]] = None,
        force: bool = False,
    ) -> Optional[Path]:
        """Write the current ring to disk (rate-limited unless forced).

        Returns the written path, or ``None`` when there is no snapshot
        directory or the rate limiter suppressed the write.  SLO page
        transitions pass ``force=True``: the transition snapshot is the
        one a responder reads first, it must never be suppressed by an
        earlier 5xx snapshot.
        """
        if self.snapshot_dir is None:
            return None
        now_mono = self._monotonic()
        with self._lock:
            if (
                not force
                and self._last_snapshot_mono is not None
                and now_mono - self._last_snapshot_mono
                < self.snapshot_interval_s
            ):
                return None
            self._last_snapshot_mono = now_mono
            self._snapshot_seq += 1
            sequence = self._snapshot_seq
            ordered = list(self._ring)
        payload = {
            "version": SNAPSHOT_VERSION,
            "reason": reason,
            "trigger": trigger,
            "written_at": self._clock(),
            "records": [record.to_payload() for record in ordered],
        }
        if slo_payload is not None:
            payload["slo"] = slo_payload
        name = f"flight-{sequence:04d}-{_slug(trigger)}.json"
        path = self.snapshot_dir / name
        try:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write(
                path, json.dumps(payload, sort_keys=True, indent=1)
            )
        except OSError as exc:  # disk trouble must not fail the request
            _LOG.warning("snapshot_failed", reason=reason, error=str(exc))
            return None
        self.snapshots_written.append((name, reason))
        _metric_snapshots().inc(trigger=trigger)
        _LOG.info(
            "snapshot", file=name, reason=reason, trigger=trigger,
            records=len(payload["records"]),
        )
        self._prune_snapshots()
        return path

    def _prune_snapshots(self) -> None:
        if self.snapshot_dir is None or self.max_snapshots < 1:
            return
        try:
            files = sorted(self.snapshot_dir.glob("flight-*.json"))
        except OSError:  # pragma: no cover - directory vanished
            return
        for stale in files[: max(0, len(files) - self.max_snapshots)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    def to_payload(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The JSON shape ``/debug/flight`` serves."""
        records = self.records(limit)
        snapshots: List[str] = []
        if self.snapshot_dir is not None and self.snapshot_dir.is_dir():
            snapshots = sorted(
                path.name for path in self.snapshot_dir.glob("flight-*.json")
            )
        return {
            "capacity": self.capacity,
            "recorded_total": self._seq,
            "records": [record.to_payload() for record in records],
            "snapshots": snapshots,
        }


def _slug(text: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch == "-" else "-" for ch in text.lower()
    )
    return cleaned.strip("-")[:40] or "snapshot"


def _atomic_write(path: Path, text: str) -> None:
    """mkstemp + fsync + atomic rename + directory fsync (state.fsio)."""
    fsio.atomic_write_text(path, text)


def _quarantine(path: Path, reason: str) -> Path:
    """Move a corrupt snapshot aside (never silently use or delete it)."""
    target = fsio.quarantine_file(path)
    _LOG.warning(
        "snapshot_quarantine", file=path.name, moved_to=target.name,
        reason=reason,
    )
    return target


def load_snapshots(
    snapshot_dir: Path, quarantine: bool = True
) -> List[Snapshot]:
    """Read every snapshot in a directory, oldest first.

    A file that is not valid JSON — torn by a crash predating the
    atomic writer, or hand-damaged — is quarantined aside (``.corrupt``
    suffix) and skipped, so one bad file cannot hide the good ones.
    """
    snapshot_dir = Path(snapshot_dir)
    if not snapshot_dir.is_dir():
        return []
    out: List[Snapshot] = []
    for path in sorted(snapshot_dir.glob("flight-*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, dict) or "records" not in payload:
                raise ValueError("not a flight snapshot")
        except (OSError, ValueError) as exc:
            if quarantine:
                try:
                    _quarantine(path, str(exc))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
            continue
        out.append(
            Snapshot(
                path=path,
                reason=str(payload.get("reason", "")),
                trigger=str(payload.get("trigger", "")),
                written_at=float(payload.get("written_at", 0.0)),
                records=list(payload.get("records", [])),
                slo=payload.get("slo"),
            )
        )
    return out
