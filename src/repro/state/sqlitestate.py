"""The SQLite backend: WAL-journaled documents with per-key rows.

One database (``state.sqlite3`` under the root) holds every namespace
as rows of a single ``documents`` table keyed ``(namespace, key)``.
Compared to the file backend this changes the *concurrency shape*, not
the contract:

* a save is one ``BEGIN IMMEDIATE`` transaction touching one row —
  writers serialize on the database write lock for microseconds per
  document instead of holding a global store lock across serialize +
  fsync, and readers proceed concurrently throughout (WAL);
* durability is ``synchronous=FULL``: the WAL is fsynced at every
  commit, matching the file backend's fsync-before-rename discipline,
  so a ``kill -9`` at any instant yields the previous or the new
  complete row — never a torn one (SQLite's atomic-commit guarantee);
* a journal record is one row of a ``journal`` table, inserted in its
  own fsynced commit; :meth:`SQLiteBackend.save` deletes the key's
  journal rows in the same transaction that replaces its document, so
  there is no crash window in which a folded record survives;
* quarantine moves a row the caller found unparseable into a
  ``quarantine`` table (bytes preserved, key reads absent afterwards)
  and labels it ``namespace/key@qN`` — the moral twin of the file
  backend's ``*.corrupt[-N]`` rename.  The journal's records go into a
  second quarantine row keyed ``<key>.journal``.

Connections are per-thread (SQLite connections are not thread-safe;
WAL is explicitly multi-connection), with a generous busy timeout so
multi-process fronts sharing one database degrade to brief waits, not
errors.  A thread that has ended leaves its connection behind; the
next connection to open closes it, so a server that starts and ends
handler threads holds one connection per live thread.  Stdlib only.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..errors import StateError
from .backend import StateBackend
from .filestate import validate_doc_key

DB_NAME = "state.sqlite3"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS documents (
    namespace  TEXT NOT NULL,
    key        TEXT NOT NULL,
    body       TEXT NOT NULL,
    updated_at REAL NOT NULL,
    PRIMARY KEY (namespace, key)
);
CREATE TABLE IF NOT EXISTS journal (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    namespace  TEXT NOT NULL,
    key        TEXT NOT NULL,
    body       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS journal_by_key ON journal (namespace, key, seq);
CREATE TABLE IF NOT EXISTS quarantine (
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    namespace      TEXT NOT NULL,
    key            TEXT NOT NULL,
    body           TEXT NOT NULL,
    reason         TEXT NOT NULL,
    quarantined_at REAL NOT NULL
);
"""


class SQLiteBackend(StateBackend):
    """Document store over one WAL-mode SQLite database.

    ``clock`` is injectable so freshness (:meth:`mtime`) is
    deterministic in tests, mirroring :class:`MirrorStore`.
    """

    kind = "sqlite"

    def __init__(
        self,
        root: Path,
        busy_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.time,
    ):
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.db_path = self.root / DB_NAME
        self.busy_timeout_s = busy_timeout_s
        self.clock = clock
        self._local = threading.local()
        self._connections: Dict[threading.Thread, sqlite3.Connection] = {}
        self._connections_guard = threading.Lock()
        self._closed = False
        # open (and migrate) eagerly so a broken database fails the
        # constructor, not the first request handler.  While others open
        # a fresh database too, its switch to WAL can answer "locked" at
        # once, not through the busy handler: wait that out here, within
        # the busy timeout
        deadline = time.monotonic() + busy_timeout_s
        while True:
            try:
                connection = self._connection()
                connection.executescript(_SCHEMA)
                connection.commit()
                break
            except sqlite3.Error as exc:
                if "locked" in str(exc) and time.monotonic() < deadline:
                    time.sleep(0.005)
                    continue
                raise StateError(
                    f"cannot open SQLite state at {self.db_path}: {exc}"
                ) from exc

    # -- connections -------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._closed:
            raise StateError("SQLite backend is closed")
        connection = getattr(self._local, "connection", None)
        if connection is None:
            with self._connections_guard:
                # close first: SQLite keeps a closed connection's file
                # descriptor for the next open of the same database
                ended = [thread for thread in self._connections
                         if not thread.is_alive()]
                for thread in ended:
                    self._connections.pop(thread).close()
            # check_same_thread=False so close(), and the next thread
            # to open one, can close another thread's connection; each
            # connection is still only *used* by the thread that
            # created it
            connection = sqlite3.connect(
                str(self.db_path),
                timeout=self.busy_timeout_s,
                isolation_level=None,  # explicit transactions only
                check_same_thread=False,
            )
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=FULL")
                connection.execute(
                    f"PRAGMA busy_timeout={int(self.busy_timeout_s * 1000)}"
                )
            except BaseException:
                connection.close()
                raise
            self._local.connection = connection
            with self._connections_guard:
                self._connections[threading.current_thread()] = connection
        return connection

    # -- documents ---------------------------------------------------------

    def save(self, namespace: str, key: str, text: str) -> None:
        validate_doc_key(key)
        connection = self._connection()
        connection.execute("BEGIN IMMEDIATE")
        try:
            connection.execute(
                "INSERT INTO documents (namespace, key, body, updated_at) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT (namespace, key) "
                "DO UPDATE SET body = excluded.body, "
                "updated_at = excluded.updated_at",
                (namespace, key, text, self.clock()),
            )
            self._clear_journal(connection, namespace, key)
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise

    @staticmethod
    def _clear_journal(
        connection: sqlite3.Connection, namespace: str, key: str
    ) -> int:
        return connection.execute(
            "DELETE FROM journal WHERE namespace = ? AND key = ?",
            (namespace, key),
        ).rowcount

    def load(self, namespace: str, key: str) -> Optional[str]:
        row = self._connection().execute(
            "SELECT body FROM documents WHERE namespace = ? AND key = ?",
            (namespace, key),
        ).fetchone()
        return None if row is None else row[0]

    def delete(self, namespace: str, key: str) -> bool:
        connection = self._connection()
        connection.execute("BEGIN IMMEDIATE")
        try:
            cursor = connection.execute(
                "DELETE FROM documents WHERE namespace = ? AND key = ?",
                (namespace, key),
            )
            records = self._clear_journal(connection, namespace, key)
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        return cursor.rowcount > 0 or records > 0

    def append(self, namespace: str, key: str, text: str) -> None:
        validate_doc_key(key)
        if "\n" in text:
            raise StateError("a journal record must be a single line")
        # one statement outside BEGIN is its own (fsynced) transaction
        self._connection().execute(
            "INSERT INTO journal (namespace, key, body) VALUES (?, ?, ?)",
            (namespace, key, text),
        )

    def journal(self, namespace: str, key: str) -> List[str]:
        rows = self._connection().execute(
            "SELECT body FROM journal WHERE namespace = ? AND key = ? "
            "ORDER BY seq",
            (namespace, key),
        ).fetchall()
        return [row[0] for row in rows]

    def keys(self, namespace: str) -> List[str]:
        rows = self._connection().execute(
            "SELECT key FROM documents WHERE namespace = ? ORDER BY key",
            (namespace,),
        ).fetchall()
        return [row[0] for row in rows]

    def mtime(self, namespace: str, key: str) -> Optional[float]:
        row = self._connection().execute(
            "SELECT updated_at FROM documents "
            "WHERE namespace = ? AND key = ?",
            (namespace, key),
        ).fetchone()
        return None if row is None else float(row[0])

    def quarantine(self, namespace: str, key: str, reason: str) -> str:
        connection = self._connection()
        connection.execute("BEGIN IMMEDIATE")
        try:
            row = connection.execute(
                "SELECT body FROM documents WHERE namespace = ? AND key = ?",
                (namespace, key),
            ).fetchone()
            records = self.journal(namespace, key)
            moved = [] if row is None else [(key, row[0])]
            if records:
                moved.append((f"{key}.journal", "\n".join(records)))
            if not moved:
                connection.execute("COMMIT")
                return ""
            seqs = [
                connection.execute(
                    "INSERT INTO quarantine "
                    "(namespace, key, body, reason, quarantined_at) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (namespace, name, body, reason, self.clock()),
                ).lastrowid
                for name, body in moved
            ]
            connection.execute(
                "DELETE FROM documents WHERE namespace = ? AND key = ?",
                (namespace, key),
            )
            self._clear_journal(connection, namespace, key)
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        label = f"{namespace}/{moved[0][0]}@q{seqs[0]}"
        self.quarantined.append((namespace, key, label, reason))
        return label

    # -- lifecycle / health ------------------------------------------------

    def writable(self) -> bool:
        try:
            connection = self._connection()
            connection.execute("BEGIN IMMEDIATE")
            connection.execute("ROLLBACK")
            return True
        except (sqlite3.Error, StateError):
            return False

    def flush(self) -> None:
        try:
            self._connection().execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except (sqlite3.Error, StateError):  # pragma: no cover - shutdown race
            pass

    def close(self) -> None:
        self._closed = True
        with self._connections_guard:
            connections, self._connections = self._connections, {}
        for connection in connections.values():
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - already closed
                pass
