"""The ``StateBackend`` contract: every durable document in one place.

PowerPlay's server-side state is a set of *named JSON documents* in a
handful of *namespaces*:

===========  =============================  ===========================
namespace    key                            written by
===========  =============================  ===========================
``users``    validated username             :class:`repro.web.session.UserStore`
``jobs``     ``job-NNNN`` id                :class:`repro.explore.jobs.JobStore`
``registry``  ``kind--name--vN`` / ``pins``  :class:`repro.registry.store.MirrorStore`
===========  =============================  ===========================

(The telemetry history is not a backend document: its sealed
segments and its ``active.jsonl`` journal use :mod:`repro.state.fsio`'s
file rituals directly, in both backends.)

A :class:`StateBackend` stores those documents.  The contract every
implementation must honor (and that ``tests/state``'s conformance
suite enforces against all of them):

* **atomic, durable saves** — a reader (or a process that crashed and
  restarted) sees either the previous complete document or the new
  complete document, never a torn or interleaved one;
* **a per-document append journal** — :meth:`append` adds one record
  (a single line of text) and is durable before it returns;
  :meth:`journal` returns, in order, the complete records appended
  since the document's last :meth:`save`.  ``save`` is the *fold*: the
  caller passes a snapshot that already contains the records, and the
  backend swaps in the snapshot and clears the journal so that a crash
  at any instant leaves either the old snapshot with every record or
  the new snapshot with none to replay.  A record torn by a crash
  mid-append is dropped (and logged), and cut off before the next
  append;
* **quarantine, never silent loss** — when a caller finds a document
  (or its journal) unusable it calls :meth:`quarantine`; the snapshot
  and the journal are moved aside together (file: ``*.corrupt[-N]``;
  SQLite: quarantine rows), recorded in :attr:`quarantined`, and the
  key reads absent afterwards;
* **last-writer-wins per key**, with :meth:`lock` providing the mutual
  exclusion a read-modify-write cycle needs *within* a process (cross-
  process exclusion is structural: the pre-fork front shards users so
  one worker owns each key — see :mod:`repro.web.prefork`);
* **no invented state** — :meth:`load` returns ``None`` for an absent
  key rather than raising, so stores can lazily create.

Two stdlib-only implementations ship:

* :class:`~repro.state.filestate.FileBackend` — the historical layout:
  one ``<key>.json`` per document, mkstemp + fsync + atomic rename +
  directory fsync, and an fsynced ``<key>.journal`` beside it
  (:mod:`repro.state.fsio`).
* :class:`~repro.state.sqlitestate.SQLiteBackend` — one SQLite
  database in WAL mode with per-key rows; a save is one transaction
  that replaces the row and deletes the key's journal rows, so writers
  block on a row, not on a global store lock.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import StateError

#: the backend kinds ``open_backend`` (and ``serve --backend``) accept
BACKEND_KINDS = ("file", "sqlite")

#: one quarantine record: (namespace, key, where-the-bytes-went, reason)
QuarantineRecord = Tuple[str, str, str, str]


class StateBackend:
    """Abstract durable document store (see module docstring)."""

    #: which ``BACKEND_KINDS`` entry this implementation is
    kind: str = "abstract"

    def __init__(self) -> None:
        self._key_locks: Dict[Tuple[str, str], threading.RLock] = {}
        self._key_locks_guard = threading.Lock()
        #: every document this backend quarantined since it was opened
        self.quarantined: List[QuarantineRecord] = []

    # -- documents ---------------------------------------------------------

    def save(self, namespace: str, key: str, text: str) -> None:
        """Atomically and durably replace one document."""
        raise NotImplementedError

    def load(self, namespace: str, key: str) -> Optional[str]:
        """The document's current text, or ``None`` when absent."""
        raise NotImplementedError

    def delete(self, namespace: str, key: str) -> bool:
        """Remove one document and its journal; ``True`` if either existed."""
        raise NotImplementedError

    def append(self, namespace: str, key: str, text: str) -> None:
        """Durably add one record to the document's journal.

        ``text`` is one line (no newline).  The record is on disk
        before this returns.
        """
        raise NotImplementedError

    def journal(self, namespace: str, key: str) -> List[str]:
        """The complete records appended since the last :meth:`save`."""
        raise NotImplementedError

    def keys(self, namespace: str) -> List[str]:
        """All document keys in a namespace, sorted."""
        raise NotImplementedError

    def mtime(self, namespace: str, key: str) -> Optional[float]:
        """Seconds-epoch of the last save, or ``None`` when absent."""
        raise NotImplementedError

    def quarantine(self, namespace: str, key: str, reason: str) -> str:
        """Move a damaged document and its journal aside; returns a
        location label.

        After this returns, :meth:`load` yields ``None`` and
        :meth:`journal` ``[]`` for the key, and the damaged bytes are
        preserved at the returned location (a file path for the file
        backend, a ``namespace/key@qN`` row label for SQLite; the
        journal goes beside it).  Quarantining a key with neither is a
        no-op that returns an empty string.
        """
        raise NotImplementedError

    # -- coordination ------------------------------------------------------

    def lock(self, namespace: str, key: str) -> threading.RLock:
        """The in-process lock serializing read-modify-write on a key.

        Backends share this implementation: one re-entrant lock per
        (namespace, key), created on first use.  This is *in-process*
        mutual exclusion; cross-process exclusion is the pre-fork
        front's user-keyed sharding, not a backend promise.
        """
        ref = (namespace, key)
        with self._key_locks_guard:
            lock = self._key_locks.get(ref)
            if lock is None:
                lock = self._key_locks[ref] = threading.RLock()
            return lock

    # -- lifecycle / health ------------------------------------------------

    def writable(self) -> bool:
        """Can this backend still persist documents?"""
        raise NotImplementedError

    def flush(self) -> None:
        """Push any buffered durability work to disk (default: none)."""

    def close(self) -> None:
        """Release resources (default: none).  Safe to call twice."""

    def quarantined_in(self, namespace: str) -> List[QuarantineRecord]:
        """This backend's quarantine records for one namespace."""
        return [
            record for record in self.quarantined if record[0] == namespace
        ]

    def __enter__(self) -> "StateBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_backend(
    spec: Union[str, StateBackend, None], root: Path
) -> StateBackend:
    """Resolve a backend spec to a live backend rooted at ``root``.

    ``spec`` may be an already-open :class:`StateBackend` (returned
    as-is), a kind name from :data:`BACKEND_KINDS`, or ``None``/""
    (the file default).
    """
    if isinstance(spec, StateBackend):
        return spec
    kind = (spec or "file").strip().lower()
    if kind == "file":
        from .filestate import FileBackend

        return FileBackend(Path(root))
    if kind == "sqlite":
        from .sqlitestate import SQLiteBackend

        return SQLiteBackend(Path(root))
    raise StateError(
        f"unknown state backend {spec!r}; choose from {BACKEND_KINDS}"
    )
