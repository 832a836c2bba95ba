"""The file backend's journal fast path and every way back off it.

Once :class:`FileBackend` has written a journal's last record whole,
its next append to that journal only opens the file (no ``O_CREAT``),
writes one line, fsyncs and closes.  Anything that may have changed
the file since sends the append back through the checked path, which
writes the header, cuts a torn tail and fsyncs the directory when it
creates the journal: a fold by ``save``, a ``delete``, a quarantine,
an external unlink, or a write or fsync that raised.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.state import FileBackend, fsio
from repro.web.app import Application


def header_of(snapshot):
    digest = (
        "" if snapshot is None
        else hashlib.sha256(snapshot.encode("utf-8")).hexdigest()
    )
    return json.dumps({"extends": digest}).encode("utf-8")


class Paths:
    """Counts the appends each path completed."""

    def __init__(self, monkeypatch):
        self.checked = self.fast = 0
        checked, fast = fsio.append_line, fsio.append_whole_line

        def count_checked(*args, **kwargs):
            checked(*args, **kwargs)
            self.checked += 1

        def count_fast(*args, **kwargs):
            fast(*args, **kwargs)
            self.fast += 1

        monkeypatch.setattr(fsio, "append_line", count_checked)
        monkeypatch.setattr(fsio, "append_whole_line", count_fast)


@pytest.fixture
def armed(tmp_path):
    """A backend whose journal for jobs/job-0001 is on the fast path."""
    backend = FileBackend(tmp_path)
    backend.save("jobs", "job-0001", "v1")
    backend.append("jobs", "job-0001", "r1")
    backend.append("jobs", "job-0001", "r2")
    return backend


class TestFastPath:
    @pytest.mark.parametrize("namespace", ["users", "jobs"])
    def test_only_the_first_append_is_checked(
            self, tmp_path, monkeypatch, namespace):
        paths = Paths(monkeypatch)
        backend = FileBackend(tmp_path)
        backend.save(namespace, "ann", "v1")
        for n in range(5):
            backend.append(namespace, "ann", f"r{n}")
        assert (paths.checked, paths.fast) == (1, 4)
        path = backend.journal_path(namespace, "ann")
        assert path.read_bytes() == header_of("v1") + b"".join(
            f"\nr{n}".encode() for n in range(5)) + b"\n"

    def test_the_single_line_check_stays(self, armed):
        with pytest.raises(Exception, match="single line"):
            armed.append("jobs", "job-0001", "two\nlines")
        assert armed.journal("jobs", "job-0001") == ["r1", "r2"]

    def test_a_torn_tail_from_another_writer_is_cut_on_the_first_append(
            self, armed):
        path = armed.journal_path("jobs", "job-0001")
        with open(path, "ab") as handle:
            handle.write(b'{"torn')  # a writer that crashed mid-record
        restarted = FileBackend(armed.root)
        restarted.append("jobs", "job-0001", "r3")
        restarted.append("jobs", "job-0001", "r4")
        assert restarted.journal("jobs", "job-0001") == [
            "r1", "r2", "r3", "r4"]
        assert b"torn" not in path.read_bytes()


class TestBackOnTheCheckedPath:
    @pytest.mark.parametrize("change, snapshot", [
        (lambda b: b.save("jobs", "job-0001", "v2"), "v2"),
        (lambda b: b.delete("jobs", "job-0001"), None),
        (lambda b: b.quarantine("jobs", "job-0001", "damaged"), None),
        (lambda b: b.journal_path("jobs", "job-0001").unlink(), "v1"),
    ], ids=["fold", "delete", "quarantine", "unlink"])
    def test_a_gone_journal_is_recreated_with_its_header(
            self, armed, monkeypatch, change, snapshot):
        change(armed)
        paths = Paths(monkeypatch)
        armed.append("jobs", "job-0001", "r3")
        armed.append("jobs", "job-0001", "r4")
        assert (paths.checked, paths.fast) == (1, 1)
        assert armed.journal_path("jobs", "job-0001").read_bytes() == \
            header_of(snapshot) + b"\nr3\nr4\n"
        assert armed.journal("jobs", "job-0001") == ["r3", "r4"]

    @pytest.mark.parametrize("change, snapshot", [
        (lambda b: b.save("jobs", "job-0001", "v2"), "v2"),
        (lambda b: b.delete("jobs", "job-0001"), None),
    ], ids=["fold", "delete"])
    def test_a_journal_left_behind_is_replaced_not_appended_to(
            self, armed, change, snapshot):
        """The crash window: the snapshot changed, but the old journal
        survived its unlink.  Its records must never come back."""
        path = armed.journal_path("jobs", "job-0001")
        left_over = path.read_bytes()
        change(armed)
        path.write_bytes(left_over)
        armed.append("jobs", "job-0001", "r3")
        assert armed.journal("jobs", "job-0001") == ["r3"]
        assert path.read_bytes() == header_of(snapshot) + b"\nr3\n"

    @pytest.mark.parametrize("call", ["write", "fsync"])
    def test_a_failed_write_or_fsync_leaves_the_next_append_checked(
            self, armed, monkeypatch, call):
        original = getattr(fsio.os, call)

        def fail(*args):
            raise OSError(f"{call} failed")

        monkeypatch.setattr(fsio.os, call, fail)
        with pytest.raises(OSError, match=f"{call} failed"):
            armed.append("jobs", "job-0001", "lost")
        monkeypatch.setattr(fsio.os, call, original)
        paths = Paths(monkeypatch)
        armed.append("jobs", "job-0001", "r3")
        armed.append("jobs", "job-0001", "r4")
        assert (paths.checked, paths.fast) == (1, 1)

    def test_a_write_torn_by_a_failure_is_cut_before_the_next_record(
            self, armed, monkeypatch):
        original = fsio.os.write

        def tear(fd, data):
            original(fd, bytes(data[:3]))
            raise OSError("disk full")

        monkeypatch.setattr(fsio.os, "write", tear)
        with pytest.raises(OSError, match="disk full"):
            armed.append("jobs", "job-0001", "lost record")
        monkeypatch.setattr(fsio.os, "write", original)
        armed.append("jobs", "job-0001", "r3")
        assert armed.journal("jobs", "job-0001") == ["r1", "r2", "r3"]
        assert armed.journal_path("jobs", "job-0001").read_bytes() == \
            header_of("v1") + b"\nr1\nr2\nr3\n"


#: SHA-256 over every file's bytes after each step of
#: :func:`play_sequence`, as the checked-only journal wrote them
SEQUENCE_DIGEST = (
    "527575c32e5d5b4b1ff6c8a6ce3849d6fab42ceb44cb9a9bb24fe592187c5dcf"
)


def play_sequence(root: Path) -> str:
    """Seeded PLAYs by two users on both paper designs, across a fold
    and a reload from disk; a digest of the state files at each step."""
    app = Application(root, server_name="journal-test", backend="file")
    for user in ("ann", "bob"):
        for example in ("infopad", "luminance_fig1"):
            assert app.handle("POST", "/design/load_example", {
                "user": user, "example": example}).status == 303
    rng = random.Random(26)
    steps = []
    for step in range(150):
        user = rng.choice(["ann", "bob"])
        name = rng.choice(["infopad", "luminance_fig1"])
        if name == "infopad":
            form = {"g:VDD2": f"{rng.uniform(1.0, 3.3):.6g}"}
        else:
            form = {"g:VDD": f"{rng.uniform(1.0, 3.3):.6g}",
                    "p:lut:bits": str(rng.randint(4, 12))}
        response = app.handle(
            "POST", "/design", {"user": user, "name": name, **form})
        assert response.status == 200
        if step == 100:
            app.users.forget("ann")
        steps.append([
            (path.name, hashlib.sha256(path.read_bytes()).hexdigest()[:12])
            for path in sorted(root.glob("*.json*"))
            + sorted(root.glob("*.journal"))
        ])
    app.state_backend.close()
    return hashlib.sha256(repr(steps).encode()).hexdigest()


def test_a_seeded_play_sequence_writes_the_checked_paths_bytes(
        tmp_path, monkeypatch):
    fast = play_sequence(tmp_path / "fast")

    def gone(path, line):
        raise FileNotFoundError(path)

    monkeypatch.setattr(fsio, "append_whole_line", gone)
    assert play_sequence(tmp_path / "checked") == fast == SEQUENCE_DIGEST
