"""The SQLite backend holds one connection per live thread.

Each thread opens its own connection.  A thread that has ended cannot
use its connection again, so the next connection to open closes it; a
server that starts and ends handler threads must not accumulate open
databases (and their file descriptors) request after request.
"""

import os
import threading
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from repro.state.sqlitestate import DB_NAME, SQLiteBackend
from repro.web.app import Application
from repro.web.server import PowerPlayServer

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="counts descriptors in /proc"
)


def open_databases(db_path):
    """Open descriptors of this process on the database file: one per
    open connection."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target == str(db_path):
            count += 1
    return count


def test_ended_threads_connections_are_closed(tmp_path):
    backend = SQLiteBackend(tmp_path)
    try:
        for _ in range(20):
            thread = threading.Thread(
                target=backend.load, args=("users", "alice"))
            thread.start()
            thread.join()
        assert open_databases(backend.db_path) == 2  # constructor + last
        backend.load("users", "alice")  # the constructor's thread's own
        assert open_databases(backend.db_path) == 2
    finally:
        backend.close()
    assert open_databases(backend.db_path) == 0


def test_sequential_requests_hold_one_connection_per_live_thread(tmp_path):
    state = tmp_path / "state"
    application = Application(state, backend="sqlite")
    threads = []
    inner = application.handle

    def handle(method, path, form=None, headers=None):
        threads.append(threading.current_thread())
        return inner(method, path, form, headers=headers)

    application.handle = handle
    db_path = state / DB_NAME
    with PowerPlayServer(state, application=application) as server:
        def post(path, **form):
            data = urllib.parse.urlencode(form).encode()
            with urllib.request.urlopen(server.base_url + path, data,
                                        timeout=10) as reply:
                return reply.read()

        post("/login", user="alice")
        post("/design/load_example", user="alice", example="luminance_fig1")
        for index in range(198):
            post("/design", user="alice", name="luminance_fig1",
                 **{"g:VDD": f"{1.0 + index / 1000:.3f}"})
        live = {thread for thread in threads if thread.is_alive()}
        assert len(threads) >= 200  # with the redirects followed
        assert open_databases(db_path) <= len(live) + 1  # + constructor's
