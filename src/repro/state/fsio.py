"""The one copy of the crash-safe file discipline.

Before the :mod:`repro.state` package existed, four stores — user
sessions, sweep-job checkpoints, the registry mirror and the telemetry
history — each carried their own cut-and-pasted implementation of the
same three rituals:

* **atomic durable write**: serialize fully before touching any file,
  write to a uniquely named ``mkstemp`` temporary in the *same
  directory*, flush + fsync, ``os.replace`` over the destination, then
  fsync the directory so the rename itself survives a power cut.  A
  ``kill -9`` at any instant leaves either the previous complete file
  or the new complete file — never a torn one, and never an
  interleaving of two concurrent writers.

* **quarantine**: a file that is unreadable anyway (disk damage, manual
  edits, a foreign format) is moved aside to ``<name>.corrupt[-N]``
  rather than deleted or silently reused — the service keeps running
  and the damaged bytes stay on disk for inspection.

* **writability probe**: create-and-unlink a temp file so health
  endpoints can report a read-only disk before a save fails in a
  request handler.

* **line journal**: an append-only file of newline-terminated records,
  each fsynced before :func:`append_line` returns.  A crash can tear
  only the record being written, and only at the end of the file;
  :func:`read_lines` drops that torn tail and :func:`append_line` cuts
  it off before writing, so the next record starts a line of its own.
  The telemetry history's ``active.jsonl`` and the file backend's
  per-document journals both use it.

This module is the single home of those rituals; the stores (and
the :class:`~repro.state.filestate.FileBackend` that fronts them) call
in here.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import List, Tuple


def fsync_dir(directory: Path) -> None:
    """Make a rename in ``directory`` durable (directory-entry fsync)."""
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_text(
    path: Path, text: str, durable_dir: bool = True
) -> None:
    """Atomically replace ``path`` with ``text`` (crash- and race-safe).

    The temporary file name is unique per call (``mkstemp``), so
    concurrent writers of the same destination never interleave on a
    shared ``.tmp`` path; the write is fsynced before the atomic rename
    so a crash at any instant leaves either the previous complete file
    or the new complete file; and (unless ``durable_dir=False``) the
    parent directory is fsynced so the rename itself is durable.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.stem}-", suffix=".saving"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable_dir:
        fsync_dir(path.parent)


def quarantine_file(path: Path, suffix: str = ".corrupt") -> Path:
    """Move a damaged file aside to ``<name><suffix>[-N]``; return where.

    The original bytes are preserved (never deleted), and the name is
    made unique so repeated quarantines of the same path keep every
    generation of damage.  Raises ``OSError`` if the rename itself
    fails (e.g. the file vanished), which callers treat as "already
    gone".
    """
    path = Path(path)
    target = path.with_suffix(path.suffix + suffix)
    counter = 0
    while target.exists():
        counter += 1
        target = path.with_suffix(f"{path.suffix}{suffix}-{counter}")
    path.replace(target)
    return target


def probe_writable(directory: Path) -> bool:
    """True when ``directory`` can still accept new files."""
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=str(directory), prefix=".probe-", suffix=".tmp"
        )
        os.close(fd)
        os.unlink(tmp_name)
        return True
    except OSError:
        return False


def append_line(
    path: Path, line: str, fsync: bool = True, header: str = ""
) -> None:
    """Append one record to the line journal at ``path``, durably.

    ``line`` must not contain a newline; it is written with one.  When
    the journal is absent or empty, ``header`` (if given) is written
    first as its own line, in the same write.  A torn tail left by a
    crash is cut off before the record is written.  The record is on
    disk (fsynced, unless ``fsync=False``) before this returns; creating
    the journal also fsyncs its directory.
    """
    path = Path(path)
    fd = os.open(str(path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o600)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            kept = os.pread(fd, size, 0).rfind(b"\n") + 1
            os.ftruncate(fd, kept)
            size = kept
        text = f"{header}\n{line}\n" if header and not size else f"{line}\n"
        data = memoryview(text.encode("utf-8"))
        while data:
            data = data[os.write(fd, data):]
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    if fsync and not size:
        fsync_dir(path.parent)


def read_lines(path: Path) -> Tuple[List[bytes], bool]:
    """A line journal's complete records and whether a torn tail was dropped.

    A record is complete when its newline reached the file; bytes after
    the last newline are the one record a crash cut short mid-append.
    An absent journal reads as no records.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return [], False
    body, newline, tail = raw.rpartition(b"\n")
    return (body.split(b"\n") if newline else []), bool(tail)
