"""Backend-conformance suite: every StateBackend honors one contract.

Parametrized over all ``BACKEND_KINDS`` so a new backend cannot ship
without proving the same properties the stores rely on:

* atomic save/load round-trips, last-writer-wins, namespace isolation;
* per-key locking prevents lost updates under thread concurrency;
* a ``kill -9`` mid-write leaves a previous-or-new complete document,
  never a torn one (subprocess SIGKILL, both backends);
* unreadable documents quarantine — bytes preserved, key reads absent,
  audit trail recorded — and :class:`UserStore` surfaces that audit
  identically over any backend;
* the per-document append journal: records read back in order, a save
  clears them, a torn tail is dropped and cut off, a ``kill -9``
  mid-append keeps every fsynced record and no partial one, a journal
  a crash left behind a newer snapshot is never replayed, and
  quarantine and delete take the journal with the snapshot.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import StateError
from repro.state import (
    BACKEND_KINDS,
    FileBackend,
    SQLiteBackend,
    open_backend,
)
from repro.web.session import UserStore


@pytest.fixture(params=BACKEND_KINDS)
def backend(request, tmp_path):
    opened = open_backend(request.param, tmp_path / "state")
    yield opened
    opened.close()


class TestDocuments:
    def test_round_trip(self, backend):
        assert backend.load("users", "alice") is None
        backend.save("users", "alice", '{"n": 1}')
        assert backend.load("users", "alice") == '{"n": 1}'
        assert backend.keys("users") == ["alice"]
        assert backend.mtime("users", "alice") is not None

    def test_last_writer_wins(self, backend):
        backend.save("users", "bob", "first")
        backend.save("users", "bob", "second")
        assert backend.load("users", "bob") == "second"

    def test_delete(self, backend):
        backend.save("jobs", "job-0001", "{}")
        assert backend.delete("jobs", "job-0001") is True
        assert backend.load("jobs", "job-0001") is None
        assert backend.delete("jobs", "job-0001") is False

    def test_namespaces_are_isolated(self, backend):
        backend.save("users", "zed", "user doc")
        backend.save("jobs", "zed", "job doc")
        assert backend.load("users", "zed") == "user doc"
        assert backend.load("jobs", "zed") == "job doc"
        backend.delete("jobs", "zed")
        assert backend.load("users", "zed") == "user doc"

    def test_keys_sorted_per_namespace(self, backend):
        for key in ("mallory", "alice", "bob"):
            backend.save("users", key, "{}")
        backend.save("registry", "entry--sram--v1", "{}")
        assert backend.keys("users") == ["alice", "bob", "mallory"]
        assert backend.keys("registry") == ["entry--sram--v1"]

    @pytest.mark.parametrize(
        "bad", ["", ".sneaky", "a/b", "a\nb", "-lead", "x" * 200]
    )
    def test_invalid_keys_rejected(self, backend, bad):
        with pytest.raises(StateError):
            backend.save("users", bad, "{}")

    def test_mtime_absent_is_none(self, backend):
        assert backend.mtime("users", "ghost") is None

    def test_writable_and_lifecycle(self, backend):
        assert backend.writable() is True
        backend.flush()  # never raises, even with nothing buffered

    def test_context_manager_closes(self, tmp_path):
        with open_backend("sqlite", tmp_path / "cm") as backend:
            backend.save("users", "a", "{}")
        with pytest.raises(StateError):
            backend.save("users", "b", "{}")


class TestConcurrency:
    def test_per_key_lock_prevents_lost_updates(self, backend):
        """Read-modify-write under backend.lock() loses no increment."""
        backend.save("users", "counter", '{"n": 0}')
        threads_n, per_thread = 8, 40
        errors = []

        def bump():
            try:
                for _ in range(per_thread):
                    with backend.lock("users", "counter"):
                        doc = json.loads(backend.load("users", "counter"))
                        doc["n"] += 1
                        backend.save("users", "counter", json.dumps(doc))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=bump) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        final = json.loads(backend.load("users", "counter"))
        assert final["n"] == threads_n * per_thread

    def test_concurrent_distinct_keys_dont_interfere(self, backend):
        errors = []

        def hammer(key):
            try:
                for i in range(30):
                    backend.save("users", key, json.dumps({key: i}))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(f"user{n}",))
            for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for n in range(6):
            doc = json.loads(backend.load("users", f"user{n}"))
            assert doc == {f"user{n}": 29}

    def test_lock_is_per_key_and_reentrant(self, backend):
        lock = backend.lock("users", "alice")
        assert backend.lock("users", "alice") is lock
        assert backend.lock("users", "bob") is not lock
        assert backend.lock("jobs", "alice") is not lock
        with lock:
            with lock:  # re-entrant by contract
                pass


_CRASH_WRITER = """
import json, sys
from pathlib import Path
from repro.state import open_backend

backend = open_backend(sys.argv[1], Path(sys.argv[2]))
fill = "x" * 20000
i = 0
print("GO", flush=True)
while True:
    i += 1
    backend.save("users", "victim", json.dumps({"n": i, "fill": fill}))
"""


@pytest.mark.slow
class TestCrashWindow:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_sigkill_mid_write_leaves_complete_document(
        self, kind, tmp_path
    ):
        """A writer SIGKILLed at an arbitrary instant (statistically
        mid-write, given the loop) must leave a previous-or-new complete
        document — never a torn one — under either backend."""
        root = tmp_path / "state"
        process = subprocess.Popen(
            [sys.executable, "-c", _CRASH_WRITER, kind, str(root)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        try:
            assert process.stdout.readline().strip() == "GO"
            time.sleep(0.3)  # let many saves (and one in-flight) happen
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
            process.stdout.close()

        survivor = open_backend(kind, root)
        try:
            text = survivor.load("users", "victim")
            assert text is not None, "no complete save survived"
            doc = json.loads(text)  # would raise on a torn document
            assert doc["n"] >= 1
            assert doc["fill"] == "x" * 20000
            assert survivor.quarantined == []
        finally:
            survivor.close()

    def test_file_backend_leaves_no_temp_litter(self, tmp_path):
        root = tmp_path / "state"
        process = subprocess.Popen(
            [sys.executable, "-c", _CRASH_WRITER, "file", str(root)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        try:
            assert process.stdout.readline().strip() == "GO"
            time.sleep(0.2)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
            process.stdout.close()
        # at most the one temp being written when the kill landed; it
        # must be a dotfile keys() can never mistake for a document
        leftovers = [p.name for p in root.iterdir() if p.suffix == ".saving"]
        assert all(name.startswith(".") for name in leftovers)
        survivor = open_backend("file", root)
        assert survivor.keys("users") == ["victim"]


class TestQuarantine:
    def test_quarantine_hides_key_and_preserves_bytes(self, backend):
        backend.save("users", "eve", "{broken")
        label = backend.quarantine("users", "eve", "bad json")
        assert label
        assert backend.load("users", "eve") is None
        assert "eve" not in backend.keys("users")
        record = backend.quarantined_in("users")[0]
        assert record[0:2] == ("users", "eve")
        assert record[2] == label
        assert record[3] == "bad json"
        if isinstance(backend, FileBackend):
            assert Path(label).read_text() == "{broken"
        else:
            assert label == "users/eve@q1"

    def test_quarantine_absent_key_is_noop(self, backend):
        assert backend.quarantine("users", "ghost", "whatever") == ""
        assert backend.quarantined == []

    def test_repeated_quarantines_never_collide(self, backend):
        labels = []
        for _ in range(3):
            backend.save("users", "eve", "{broken")
            labels.append(backend.quarantine("users", "eve", "bad"))
        assert len(set(labels)) == 3
        assert len(backend.quarantined_in("users")) == 3

    def test_file_backend_keeps_historical_corrupt_naming(self, tmp_path):
        backend = FileBackend(tmp_path)
        for _ in range(3):
            backend.save("users", "eve", "{broken")
            backend.quarantine("users", "eve", "bad")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "eve.json.corrupt", "eve.json.corrupt-1", "eve.json.corrupt-2",
        ]


def _record(n: int, fill: str = "") -> str:
    return json.dumps({"n": n, "fill": fill})


class TestJournal:
    def test_appends_read_back_in_order(self, backend):
        backend.save("users", "ann", "snapshot")
        assert backend.journal("users", "ann") == []
        for n in range(5):
            backend.append("users", "ann", _record(n))
        expected = [_record(n) for n in range(5)]
        assert backend.journal("users", "ann") == expected
        assert backend.load("users", "ann") == "snapshot"
        assert backend.journal("users", "bob") == []

    def test_journal_is_per_key_and_namespace(self, backend):
        backend.append("users", "ann", "a")
        backend.append("users", "bob", "b")
        backend.append("jobs", "ann", "j")
        assert backend.journal("users", "ann") == ["a"]
        assert backend.journal("users", "bob") == ["b"]
        assert backend.journal("jobs", "ann") == ["j"]

    def test_save_clears_the_journal(self, backend):
        backend.save("users", "ann", "v1")
        backend.append("users", "ann", "r1")
        backend.append("users", "ann", "r2")
        backend.save("users", "ann", "v2")
        assert backend.journal("users", "ann") == []
        backend.append("users", "ann", "r3")
        assert backend.journal("users", "ann") == ["r3"]
        assert backend.load("users", "ann") == "v2"

    def test_reopened_backend_reads_the_journal(self, backend, tmp_path):
        backend.save("users", "ann", "v1")
        backend.append("users", "ann", "r1")
        reopened = open_backend(backend.kind, tmp_path / "state")
        try:
            assert reopened.journal("users", "ann") == ["r1"]
            reopened.append("users", "ann", "r2")
            assert reopened.journal("users", "ann") == ["r1", "r2"]
        finally:
            reopened.close()

    def test_multiline_record_rejected(self, backend):
        with pytest.raises(StateError):
            backend.append("users", "ann", "two\nlines")
        assert backend.journal("users", "ann") == []

    def test_keys_never_list_a_journal(self, backend):
        backend.append("users", "ghost", "r1")
        assert backend.keys("users") == []
        assert backend.load("users", "ghost") is None
        backend.save("users", "ghost", "doc")
        backend.append("users", "ghost", "r2")
        assert backend.keys("users") == ["ghost"]

    def test_delete_removes_both(self, backend):
        backend.save("users", "ann", "doc")
        backend.append("users", "ann", "r1")
        assert backend.delete("users", "ann") is True
        assert backend.load("users", "ann") is None
        assert backend.journal("users", "ann") == []
        backend.append("users", "ann", "r2")
        assert backend.journal("users", "ann") == ["r2"]
        assert backend.delete("users", "ann") is True  # journal only
        assert backend.delete("users", "ann") is False

    def test_quarantine_sets_the_journal_aside(self, backend):
        backend.save("users", "eve", "{broken")
        backend.append("users", "eve", "r1")
        backend.append("users", "eve", "r2")
        label = backend.quarantine("users", "eve", "bad json")
        assert label
        assert backend.load("users", "eve") is None
        assert backend.journal("users", "eve") == []
        assert len(backend.quarantined) == 1
        if isinstance(backend, FileBackend):
            assert Path(label).read_text() == "{broken"
            aside = backend.journal_path("users", "eve").with_name(
                "eve.journal.corrupt"
            )
            assert aside.read_text().splitlines()[1:] == ["r1", "r2"]
        else:
            rows = backend._connection().execute(
                "SELECT key, body FROM quarantine ORDER BY seq"
            ).fetchall()
            assert rows == [("eve", "{broken"), ("eve.journal", "r1\nr2")]
        # a fresh journal starts clean after the quarantine
        backend.save("users", "eve", "{}")
        backend.append("users", "eve", "r3")
        assert backend.journal("users", "eve") == ["r3"]

    def test_quarantine_of_a_journal_without_snapshot(self, backend):
        backend.append("users", "eve", "r1")
        assert backend.quarantine("users", "eve", "orphan journal")
        assert backend.journal("users", "eve") == []

    def test_torn_final_line_dropped_then_cut_before_next_append(
        self, tmp_path
    ):
        """File backend: a crash mid-append leaves the record's prefix
        with no newline.  It is never returned, and the next append
        (from a restarted process) cuts it off so the new record is a
        line of its own and reads back."""
        backend = FileBackend(tmp_path)
        backend.save("users", "ann", "doc")
        backend.append("users", "ann", _record(1))
        backend.append("users", "ann", _record(2))
        path = backend.journal_path("users", "ann")
        with open(path, "ab") as handle:
            handle.write(_record(3).encode()[:9])  # torn mid-write

        restarted = FileBackend(tmp_path)
        assert restarted.journal("users", "ann") == [_record(1), _record(2)]
        restarted.append("users", "ann", _record(4))
        assert restarted.journal("users", "ann") == [
            _record(1), _record(2), _record(4),
        ]
        assert path.read_bytes().endswith(b"\n")
        assert restarted.quarantined == []

    def test_torn_header_reads_as_empty_journal(self, tmp_path):
        backend = FileBackend(tmp_path)
        backend.save("users", "ann", "doc")
        backend.journal_path("users", "ann").write_bytes(b'{"exte')
        assert backend.journal("users", "ann") == []
        FileBackend(tmp_path).append("users", "ann", "r1")
        assert backend.journal("users", "ann") == ["r1"]

    def test_stale_journal_is_never_replayed(self, backend, monkeypatch):
        """A crash between a save's snapshot replace and its journal
        clear must not replay the folded records on the new snapshot.

        File: the journal is restored after the save, as a crash
        before the unlink leaves it.  SQLite: the replace and the
        clear are one transaction, so a failure between them leaves
        the old snapshot with its whole journal, never the new one
        with the old journal."""
        backend.save("users", "ann", "v1")
        backend.append("users", "ann", "r1")
        backend.append("users", "ann", "r2")
        if isinstance(backend, FileBackend):
            path = backend.journal_path("users", "ann")
            left_over = path.read_bytes()
            backend.save("users", "ann", "v1+r1+r2")
            path.write_bytes(left_over)  # the crash window
            restarted = FileBackend(backend.root)
            assert restarted.load("users", "ann") == "v1+r1+r2"
            assert restarted.journal("users", "ann") == []
            restarted.append("users", "ann", "r3")
            assert restarted.journal("users", "ann") == ["r3"]
        else:
            def crash(*_args):
                raise OSError("power cut between replace and clear")

            monkeypatch.setattr(SQLiteBackend, "_clear_journal", crash)
            with pytest.raises(OSError):
                backend.save("users", "ann", "v1+r1+r2")
            assert backend.load("users", "ann") == "v1"
            assert backend.journal("users", "ann") == ["r1", "r2"]
            monkeypatch.undo()
            backend.save("users", "ann", "v1+r1+r2")
            assert backend.journal("users", "ann") == []


_CRASH_APPENDER = """
import json, sys
from pathlib import Path
from repro.state import open_backend

backend = open_backend(sys.argv[1], Path(sys.argv[2]))
backend.save("users", "victim", "snapshot")
fill = "x" * 4000
print("GO", flush=True)
n = 0
while True:
    n += 1
    backend.append("users", "victim", json.dumps({"n": n, "fill": fill}))
    print(n, flush=True)  # acknowledged: the record is durable
"""


@pytest.mark.slow
class TestJournalCrash:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_sigkill_mid_append_keeps_every_fsynced_record(
        self, kind, tmp_path
    ):
        root = tmp_path / "state"
        process = subprocess.Popen(
            [sys.executable, "-c", _CRASH_APPENDER, kind, str(root)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        acknowledged = 0
        try:
            assert process.stdout.readline().strip() == "GO"
            deadline = time.monotonic() + 0.4
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if line.strip():
                    acknowledged = int(line)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
            process.stdout.close()
        assert acknowledged > 0

        survivor = open_backend(kind, root)
        try:
            journal = survivor.journal("users", "victim")
            records = [json.loads(text) for text in journal]
            numbers = [record["n"] for record in records]
            # a prefix of the appends: none lost, none partial
            assert numbers == list(range(1, len(numbers) + 1))
            assert len(numbers) >= acknowledged
            assert all(record["fill"] == "x" * 4000 for record in records)
            survivor.append("users", "victim", _record(0))
            assert survivor.journal("users", "victim")[-1] == _record(0)
            assert len(survivor.journal("users", "victim")) == len(numbers) + 1
            assert survivor.quarantined == []
        finally:
            survivor.close()


class TestUserStoreAuditParity:
    """UserStore's quarantine audit is backend-independent."""

    @pytest.fixture(params=BACKEND_KINDS)
    def store(self, request, tmp_path):
        backend = open_backend(request.param, tmp_path / "users")
        return UserStore(tmp_path / "users", backend=backend)

    def test_corrupt_state_quarantined_with_audit(self, store):
        store.backend.save("users", "eve", "{broken")
        session = store.session("eve")  # fresh session, not an error
        assert session.designs == {}
        assert len(store.quarantined) == 1
        user, target, reason = store.quarantined[0]
        assert user == "eve"
        assert str(target)  # a path or a row label — never empty
        assert reason
        # the damaged payload is preserved, the key reads absent
        assert store.read_disk("eve") is None
        assert store.backend.quarantined_in("users")[0][3] == reason

    def test_wrong_format_quarantined_too(self, store):
        store.backend.save(
            "users", "mallory", json.dumps({"format": "evil/1"})
        )
        store.session("mallory")
        assert len(store.quarantined) == 1
        assert "format" in store.quarantined[0][2]

    def test_round_trip_survives_reopen(self, store, tmp_path):
        session = store.session("carol")
        session.remember_defaults("sram", {"words": 1024})
        fresh = UserStore(
            tmp_path / "users",
            backend=open_backend(store.backend.kind, tmp_path / "users"),
        )
        assert fresh.session("carol").defaults_for("sram") == {
            "words": 1024.0
        }
        assert fresh.quarantined == []


class TestSQLiteSpecifics:
    def test_injectable_clock_controls_mtime(self, tmp_path):
        clock = {"t": 100.0}
        backend = SQLiteBackend(tmp_path, clock=lambda: clock["t"])
        backend.save("users", "a", "{}")
        assert backend.mtime("users", "a") == 100.0
        clock["t"] = 250.0
        backend.save("users", "a", "{}")
        assert backend.mtime("users", "a") == 250.0

    def test_two_backends_share_one_database(self, tmp_path):
        """What the pre-fork workers do: one database, many processes
        (modeled here as two connections in one process — the WAL and
        busy-timeout settings are identical)."""
        first = SQLiteBackend(tmp_path)
        second = SQLiteBackend(tmp_path)
        first.save("users", "shared", '{"from": "first"}')
        assert second.load("users", "shared") == '{"from": "first"}'
        second.save("users", "shared", '{"from": "second"}')
        assert first.load("users", "shared") == '{"from": "second"}'
        first.close()
        second.close()

    def test_unknown_backend_kind_rejected(self, tmp_path):
        with pytest.raises(StateError, match="unknown state backend"):
            open_backend("redis", tmp_path)

    def test_open_backend_passes_instances_through(self, tmp_path):
        backend = FileBackend(tmp_path)
        assert open_backend(backend, tmp_path / "elsewhere") is backend
