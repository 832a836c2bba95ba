"""The server's transport: reused handler threads, one send per page,
and connections that cannot pin a thread or the drain."""

import http.client
import socket
import struct
import sys
import threading
import time
import urllib.request

from repro import obs
from repro.obs.logs import MemorySink
from repro.web.app import Application, Response
from repro.web.server import PowerPlayServer, _Handler

USER = "lidsky"


def recording_server(state, threads, **kwargs):
    """A server whose application notes the thread of every request."""
    application = Application(state, backend=kwargs.pop("backend", None))
    inner = application.handle

    def handle(method, path, form=None, headers=None):
        threads.append(threading.current_thread())
        return inner(method, path, form, headers=headers)

    application.handle = handle
    return PowerPlayServer(state, application=application, **kwargs)


def get(server, path):
    with urllib.request.urlopen(server.base_url + path, timeout=10) as reply:
        return reply.status, dict(reply.getheaders()), reply.read()


def wait_for_an_idle_thread(server, deadline=10.0):
    httpd = server._httpd
    end = time.monotonic() + deadline
    with httpd._pool_cv:
        while not httpd._idle and time.monotonic() < end:
            httpd._pool_cv.wait(0.01)
        assert httpd._idle, "no handler thread went idle"


class TestHandlerThreads:
    def test_sequential_requests_reuse_their_threads(self, tmp_path):
        threads = []
        with recording_server(tmp_path / "state", threads) as server:
            for _ in range(50):
                assert get(server, "/healthz")[0] == 200
                # the reply arrives before its thread is idle again; the
                # next connection goes to that thread once it is
                wait_for_an_idle_thread(server)
        assert len(threads) == 50
        assert len(set(threads)) == 1

    def test_concurrency_stays_unbounded(self, tmp_path):
        application = Application(tmp_path / "state")
        inner = application.handle
        arrived = threading.Barrier(6, timeout=10)

        def handle(method, path, form=None, headers=None):
            if path.startswith("/status"):
                arrived.wait()  # all six must be in flight at once
            return inner(method, path, form, headers=headers)

        application.handle = handle
        results = []
        with PowerPlayServer(tmp_path / "state",
                             application=application) as server:
            clients = [
                threading.Thread(
                    target=lambda: results.append(get(server, "/status")[0]))
                for _ in range(5)
            ]
            for client in clients:
                client.start()
            arrived.wait()
            for client in clients:
                client.join(10)
        assert results == [200] * 5

    def test_every_connection_is_served_under_contention(self, tmp_path):
        """Hand-offs racing idle timeouts: a connection queued for an
        idle thread that then exits would never be answered."""
        threads = []
        server = recording_server(tmp_path / "state", threads)
        server._httpd.idle_thread_s = 0.005
        statuses = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                def client():
                    for _ in range(15):
                        statuses.append(get(server, "/healthz")[0])

                clients = [threading.Thread(target=client) for _ in range(6)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(30)
                assert not [thread for thread in clients if thread.is_alive()]
                assert server._httpd.drain(5.0)
        finally:
            sys.setswitchinterval(switch)
        assert statuses == [200] * 90
        assert len(threads) == 90

    def test_a_hand_off_at_the_idle_deadline_is_served(self, tmp_path):
        """A connection queued for an idle thread whose wait then runs
        out must still be served by that thread."""

        class DeafCondition(threading.Condition):
            """Sleeps out every wait: a notify arrives 'too late'."""

            def wait(self, timeout=None):
                self.release()
                try:
                    time.sleep(timeout)
                finally:
                    self.acquire()
                return False

        threads = []
        server = recording_server(tmp_path / "state", threads)
        server._httpd.idle_thread_s = 0.3
        server._httpd._pool_cv = DeafCondition()
        with server:
            assert get(server, "/healthz")[0] == 200
            time.sleep(0.1)  # the thread is idle, its wait running out
            assert get(server, "/healthz")[0] == 200
        assert len(threads) == 2 and threads[0] is threads[1]

    def test_stop_releases_idle_threads(self, tmp_path):
        threads = []
        server = recording_server(tmp_path / "state", threads)
        server.start()
        for _ in range(5):
            get(server, "/healthz")
        server.stop()
        assert threads
        assert not [thread for thread in set(threads) if thread.is_alive()]

    def test_idle_thread_exits_after_its_idle_period(self, tmp_path):
        threads = []
        server = recording_server(tmp_path / "state", threads)
        server._httpd.idle_thread_s = 0.2
        with server:
            get(server, "/healthz")
            deadline = time.monotonic() + 5
            while threads[0].is_alive() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not threads[0].is_alive()
            # the next connection starts a fresh thread
            assert get(server, "/healthz")[0] == 200
        assert threads[1] is not threads[0]


class _SendCounter:
    """Counts send calls on the server's side of its connections."""

    def __init__(self, monkeypatch, port):
        self.calls = []
        for name in ("send", "sendall"):
            original = getattr(socket.socket, name)

            def counted(sock, data, *args, _original=original, _name=name):
                try:
                    if sock.getsockname()[1] == port:
                        self.calls.append((_name, len(data)))
                except OSError:
                    pass
                return _original(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, counted)


class TestOneWritePerResponse:
    def test_a_page_leaves_in_one_send(self, tmp_path, monkeypatch):
        with PowerPlayServer(tmp_path / "state") as server:
            server.application.handle("POST", "/login", {"user": USER})
            counter = _SendCounter(monkeypatch, server.address[1])
            status, headers, body = get(
                server, f"/library?user={USER}")
            assert status == 200 and b"multiplier" in body
        assert len(counter.calls) == 1
        assert counter.calls[0][1] > len(body)  # head and body together

    def test_a_body_larger_than_the_buffer_arrives_whole(self, tmp_path):
        with PowerPlayServer(tmp_path / "state") as server:
            expected = server.application.handle(
                "GET", "/api/library.json").body.encode("utf-8")
            assert len(expected) > 1 << 16  # more than a 64-KiB buffer
            status, headers, body = get(server, "/api/library.json")
        assert status == 200
        assert int(headers["Content-Length"]) == len(body)
        assert body == expected

    def test_a_body_larger_than_the_socket_buffers_arrives_whole(
            self, tmp_path):
        """More than one send() can take: the rest must still follow."""
        text = "".join(f"{i:07d}\n" for i in range(1 << 20))  # 8 MiB

        class Big:
            def handle(self, method, path, form=None, headers=None):
                return Response(body=text, content_type="text/plain")

        with PowerPlayServer(tmp_path / "state", application=Big()) as server:
            status, headers, body = get(server, "/big")
        assert int(headers["Content-Length"]) == len(text)
        assert body.decode() == text


def _raw_connection(server, timeout=5.0):
    sock = socket.create_connection(server.address, timeout=timeout)
    sock.settimeout(timeout)
    return sock


class TestStalledConnections:
    def test_stop_is_not_held_by_an_idle_connection(self, tmp_path):
        server = PowerPlayServer(tmp_path / "state")
        server.start()
        idle = _raw_connection(server)  # a preconnect: sends nothing
        try:
            get(server, "/healthz")
            before = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - before
        finally:
            idle.close()
        # the accept loop may sleep out one 0.5-s poll before it stops
        assert elapsed < server.drain_deadline / 2

    def test_connections_have_a_read_timeout_inside_the_drain(self):
        assert 0 < _Handler.timeout < PowerPlayServer.drain_deadline

    def test_a_stalled_body_is_dropped_and_its_thread_freed(self, tmp_path):
        threads = []
        server = recording_server(tmp_path / "state", threads,
                                  handler_attrs={"timeout": 0.3})
        with server:
            stalled = _raw_connection(server)
            try:
                stalled.sendall(
                    b"POST /login HTTP/1.0\r\nContent-Length: 100\r\n"
                    b"Content-Type: application/x-www-form-urlencoded"
                    b"\r\n\r\nuser=ali")
                before = time.monotonic()
                # the server gives up on the body and closes: EOF
                assert stalled.recv(1024) == b""
                assert time.monotonic() - before < 3.0
            finally:
                stalled.close()
            assert server._httpd.drain(2.0)
            assert server._httpd.inflight == 0
            # the freed thread serves the next connection
            assert get(server, "/healthz")[0] == 200
            assert len(set(threads)) == 1

    def test_stop_with_an_idle_and_a_stalled_connection(self, tmp_path):
        server = PowerPlayServer(tmp_path / "state",
                                 handler_attrs={"timeout": 0.3})
        server.start()
        idle = _raw_connection(server)
        stalled = _raw_connection(server)
        try:
            stalled.sendall(b"POST /login HTTP/1.0\r\n"
                            b"Content-Length: 100\r\n\r\nuser=")
            deadline = time.monotonic() + 5
            while server._httpd.inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._httpd.inflight == 1
            before = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - before
        finally:
            idle.close()
            stalled.close()
        # the stalled POST is given up after the read timeout; the idle
        # connection never counted
        assert elapsed < server.drain_deadline / 2
        assert server._httpd.inflight == 0

    def test_http_10_one_request_per_connection(self, tmp_path):
        with PowerPlayServer(tmp_path / "state") as server:
            conn = http.client.HTTPConnection(*server.address, timeout=5)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            assert reply.version == 10
            reply.read()
            assert reply.will_close
            conn.close()


class TestClientResets:
    def test_a_reset_before_the_reply_is_one_log_event(self, tmp_path, capfd):
        """A client that resets its connection right after sending gets
        a structured event, not a traceback on raw stderr, and the
        server keeps serving."""
        memory = MemorySink()
        application = Application(tmp_path / "state")
        inner = application.handle
        arrived, reset = threading.Event(), threading.Event()

        def handle(method, path, form=None, headers=None):
            if path == "/api/library.json":
                arrived.set()
                assert reset.wait(10)  # reply once the client has reset
            return inner(method, path, form, headers=headers)

        application.handle = handle
        with obs.overridden(enabled=True, log_level=obs.WARNING, sink=memory), \
                PowerPlayServer(tmp_path / "state", application=application) as server:
            for sent in range(1, 6):
                arrived.clear()
                reset.clear()
                sock = _raw_connection(server)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))  # close sends RST
                sock.sendall(b"GET /api/library.json HTTP/1.0\r\n\r\n")
                assert arrived.wait(10)
                sock.close()
                reset.set()
                deadline = time.monotonic() + 10
                while len(memory.records) < sent and time.monotonic() < deadline:
                    time.sleep(0.01)
            assert get(server, "/healthz")[0] == 200
        assert "Traceback" not in capfd.readouterr().err
        assert [(record["component"], record["event"], record["client"])
                for record in memory.records] == \
            [("web.httpd", "connection_error", "127.0.0.1")] * 5
        assert {record["error"] for record in memory.records} <= {
            "ConnectionResetError", "BrokenPipeError"}
