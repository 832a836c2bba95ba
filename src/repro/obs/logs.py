"""Structured, line-oriented logging — key=value or JSON, no deps.

The 1996 httpd wrote one access line per request; PowerPlay's
reproduction writes one *structured* line per event, machine-parseable
either as ``key=value`` pairs or as JSON objects (``json_logs=True``)::

    ts=2026-08-07T12:00:00 level=info component=web.access event=request \
        method=GET route=/menu status=200 duration_ms=1.42

* A :class:`StructuredLogger` is per-component (``get_logger("web")``)
  and nearly stateless: level, format, sink and clock are read from
  :mod:`repro.obs.config` at emit time, so ``repro --log-level debug``
  reconfigures every logger in the process at once.
* Sinks are tiny: :class:`NullSink` (the default — the test suite stays
  silent), :class:`StreamSink` (stderr for the CLI/server), and
  :class:`MemorySink` (assertions in tests).
* When the subsystem is disabled, :meth:`StructuredLogger.log` returns
  before formatting anything — logging in a hot path costs one branch.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, TextIO

from .config import (
    DEBUG,
    ERROR,
    INFO,
    LEVEL_NAMES,
    STATE,
    WARNING,
)

__all__ = [
    "MemorySink",
    "NullSink",
    "RotatingFileSink",
    "StreamSink",
    "StructuredLogger",
    "format_kv",
    "get_logger",
]


class NullSink:
    """Discards everything — the quiet default."""

    def emit(self, line: str, record: Dict[str, object]) -> None:
        pass


class StreamSink:
    """Writes one line per record to a text stream (stderr by default)."""

    def __init__(self, stream: Optional[TextIO] = None):
        self._stream = stream
        self._lock = threading.Lock()

    @property
    def stream(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stderr

    def emit(self, line: str, record: Dict[str, object]) -> None:
        with self._lock:
            print(line, file=self.stream)


class MemorySink:
    """Keeps every record — the test-assertion sink."""

    def __init__(self):
        self.lines: List[str] = []
        self.records: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    def emit(self, line: str, record: Dict[str, object]) -> None:
        with self._lock:
            self.lines.append(line)
            self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def events(self, event: Optional[str] = None) -> List[Dict[str, object]]:
        """Records, optionally filtered by their ``event`` field."""
        if event is None:
            return list(self.records)
        return [r for r in self.records if r.get("event") == event]

    def clear(self) -> None:
        with self._lock:
            self.lines.clear()
            self.records.clear()


class RotatingFileSink:
    """A size-bounded log file with atomic-rename rotation.

    A long soak must not fill the disk with access-log lines: when the
    live file would exceed ``max_bytes``, it is renamed aside
    (``access.log`` -> ``access.log.1``, shifting ``.1`` -> ``.2`` and
    so on, dropping anything past ``keep``) and a fresh file is opened.
    Rotation uses ``os.replace`` — a reader never sees a half-renamed
    chain, and a crash mid-rotation leaves complete files only.

    Total disk usage is bounded by roughly ``max_bytes * (keep + 1)``
    plus one line of overshoot (the line that triggered rotation is
    written to the *new* file, never split).
    """

    def __init__(
        self,
        path: Path,
        max_bytes: int = 1 << 20,
        keep: int = 3,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if keep < 0:
            raise ValueError("keep cannot be negative")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.keep = keep
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = None
        self._size = 0
        self.rotations = 0

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = self._handle.tell()

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        # shift the chain from the oldest end so each os.replace lands
        # on a name that is either free or about to be overwritten
        oldest = self.path.with_name(f"{self.path.name}.{self.keep}")
        if self.keep == 0:
            try:
                os.unlink(self.path)
            except OSError:
                pass
        else:
            try:
                os.unlink(oldest)
            except OSError:
                pass
            for index in range(self.keep - 1, 0, -1):
                source = self.path.with_name(f"{self.path.name}.{index}")
                if source.exists():
                    os.replace(
                        source,
                        self.path.with_name(f"{self.path.name}.{index + 1}"),
                    )
            if self.path.exists():
                os.replace(
                    self.path, self.path.with_name(f"{self.path.name}.1")
                )
        self.rotations += 1

    def emit(self, line: str, record: Dict[str, object]) -> None:
        encoded_len = len(line.encode("utf-8")) + 1
        with self._lock:
            try:
                if self._handle is None:
                    self._open()
                if self._size > 0 and self._size + encoded_len > self.max_bytes:
                    self._rotate()
                    self._open()
                assert self._handle is not None
                self._handle.write(line + "\n")
                self._handle.flush()
                self._size += encoded_len
            except (OSError, ValueError):
                # logging must never take the server down; ValueError
                # covers a handle closed underneath us.  Dropping the
                # handle makes the next emit retry a fresh open.
                self._handle = None

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def files(self) -> List[Path]:
        """The live file plus rotated generations, newest first."""
        out = [self.path] if self.path.exists() else []
        for index in range(1, self.keep + 1):
            candidate = self.path.with_name(f"{self.path.name}.{index}")
            if candidate.exists():
                out.append(candidate)
        return out


_NULL_SINK = NullSink()
_STDERR_SINK = StreamSink()


def _active_sink():
    """The sink records go to *right now* (config-resolved)."""
    if STATE.sink is not None:
        return STATE.sink
    return _STDERR_SINK if STATE.enabled else _NULL_SINK


def _needs_quoting(text: str) -> bool:
    return any(ch in text for ch in (' ', '"', '=', '\n', '\t'))


def format_kv(record: Dict[str, object]) -> str:
    """``{"a": 1, "b": "x y"}`` -> ``a=1 b="x y"`` (insertion order)."""
    parts: List[str] = []
    for key, value in record.items():
        if isinstance(value, float):
            text = f"{value:g}"
        else:
            text = str(value)
        if _needs_quoting(text):
            text = '"' + text.replace('"', '\\"') + '"'
        parts.append(f"{key}={text}")
    return " ".join(parts)


def _timestamp() -> str:
    moment = datetime.fromtimestamp(STATE.clock(), tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


class StructuredLogger:
    """One component's handle on the shared logging configuration."""

    def __init__(self, component: str):
        self.component = component

    def child(self, suffix: str) -> "StructuredLogger":
        return get_logger(f"{self.component}.{suffix}")

    def log(self, level: int, event: str, **fields: object) -> None:
        if not STATE.enabled or level < STATE.log_level:
            return
        record: Dict[str, object] = {
            "ts": _timestamp(),
            "level": LEVEL_NAMES.get(level, str(level)),
            "component": self.component,
            "event": event,
        }
        record.update(fields)
        if STATE.json_logs:
            line = json.dumps(record, default=str, separators=(",", ":"))
        else:
            line = format_kv(record)
        _active_sink().emit(line, record)

    def debug(self, event: str, **fields: object) -> None:
        self.log(DEBUG, event, **fields)

    def info(self, event: str, **fields: object) -> None:
        self.log(INFO, event, **fields)

    def warning(self, event: str, **fields: object) -> None:
        self.log(WARNING, event, **fields)

    def error(self, event: str, **fields: object) -> None:
        self.log(ERROR, event, **fields)

    def __repr__(self) -> str:
        return f"StructuredLogger({self.component!r})"


_loggers: Dict[str, StructuredLogger] = {}
_loggers_lock = threading.Lock()


def get_logger(component: str) -> StructuredLogger:
    """The (cached) logger for a dotted component name."""
    logger = _loggers.get(component)
    if logger is None:
        with _loggers_lock:
            logger = _loggers.setdefault(
                component, StructuredLogger(component)
            )
    return logger
