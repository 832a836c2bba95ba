"""Pre-fork multi-worker serving with user-keyed sharding.

``repro serve --workers N`` scales the single-process threaded server
(the paper's one-httpd deployment) across N OS processes without
giving up its strongest property: *per-user linearizability*.  The
paper's state is naturally user-partitioned ("the individual user's
defaults" live in one file per user), so the front shards by user:

* every worker binds the **same public port** with ``SO_REUSEPORT``
  and the kernel load-balances incoming connections (a platform
  without ``SO_REUSEPORT`` cannot run the front);
* each worker also runs an **internal loopback server**; a public
  request naming user *u* is handled locally when
  ``shard_for(u) == my index`` and otherwise proxied to the owner's
  internal port.  Session affinity is therefore *structural*: exactly
  one process ever mutates a user's state, whichever worker the kernel
  happened to hand the connection to, so per-user lost updates are
  impossible by construction — with either state backend;
* requests naming no user (``/metrics``, ``/healthz``, ``/status``,
  static pages) are answered by whichever worker accepted them.

The parent coordinates startup over the workers' stdin/stdout pipes
(worker: ``INTERNAL <port>`` → parent: ``TABLE <p0> <p1> …`` →
worker: ``READY <port>``), relays SIGTERM/SIGINT for graceful drain
(each worker stops accepting, finishes in-flight responses, flushes
sessions, then exits), and holds workers' stdin open as an orphan
detector — a worker whose stdin hits EOF shuts itself down.

Every worker is a full PowerPlay server: its ``/metrics`` and
``/healthz`` (on the internal port) merge through the existing fleet
aggregator, and ``/healthz`` reports ``worker: {index, count}``.
"""

from __future__ import annotations

import hashlib
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from queue import Empty, Queue
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SessionError, StateError
from ..obs import get_logger
from .app import Application, Response
from .server import PowerPlayServer, _error_html, _Handler
from .session import validate_username

_LOG = get_logger("web.prefork")

#: response header naming the worker that actually handled a request —
#: the property tests read this to prove mutations land on one process
WORKER_HEADER = "X-PowerPlay-Shard"

#: request headers a forwarded request must not carry verbatim
_HOP_HEADERS = frozenset(
    {"host", "content-length", "connection", "keep-alive"}
)


def shard_for(user: str, workers: int) -> int:
    """Which worker owns ``user``'s state — stable across processes.

    blake2b, *not* Python's ``hash()``: every process (workers, the
    parent, tests, a future router box) must agree on the owner, and
    ``hash()`` is salted per process.  Uniform over the key space, so
    W workers see ~1/W of the users each.
    """
    if workers <= 1:
        return 0
    digest = hashlib.blake2b(
        user.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % workers


def request_user(path: str, form=None) -> str:
    """The (validated) user a request names, as the Application sees it.

    Mirrors ``Application.handle``'s parsing exactly — query string
    first, form fields override — so the shard decision and the
    per-user lock downstream always name the same user.  Returns ""
    for requests naming no (or an invalid) user; those are handled
    wherever they land and fail validation there if relevant.
    """
    parsed = urllib.parse.urlsplit(path)
    data = {
        key: values[-1]
        for key, values in urllib.parse.parse_qs(parsed.query).items()
    }
    data.update(form or {})
    user = data.get("user", "")
    if not user:
        return ""
    try:
        return validate_username(user)
    except SessionError:
        return ""


class ShardedHandler(_Handler):
    """Public-port handler that proxies non-owned users to their shard.

    The kernel routes connections to an arbitrary worker; this handler
    restores user affinity at the application layer.  Owned requests
    run locally; foreign ones are replayed against the owner's internal
    loopback server and the owner's response is relayed byte-for-byte
    (status, body, headers — including its ``X-PowerPlay-Shard``).
    """

    worker_index: int = 0
    worker_count: int = 1
    #: worker index -> internal loopback port (the TABLE broadcast)
    internal_ports: Sequence[int] = ()
    forward_timeout_s: float = 60.0

    def _handle_safely(self, method: str, form=None) -> Response:
        user = request_user(self.path, form)
        if user and self.worker_count > 1:
            owner = shard_for(user, self.worker_count)
            if owner != self.worker_index:
                return self._forward(owner, method, form)
        response = super()._handle_safely(method, form)
        response.headers.setdefault(
            WORKER_HEADER, str(self.worker_index)
        )
        return response

    def _forward(self, owner: int, method: str, form=None) -> Response:
        """Replay this request against the owning worker's internal port."""
        headers = {
            key: value
            for key, value in self.headers.items()
            if key.lower() not in _HOP_HEADERS
        }
        body: Optional[str] = None
        if method == "POST":
            body = urllib.parse.urlencode(form or {})
            headers["Content-Type"] = "application/x-www-form-urlencoded"
        connection = HTTPConnection(
            "127.0.0.1",
            self.internal_ports[owner],
            timeout=self.forward_timeout_s,
        )
        try:
            connection.request(method, self.path, body=body, headers=headers)
            upstream = connection.getresponse()
            payload = upstream.read().decode("utf-8", errors="replace")
            content_type = upstream.getheader(
                "Content-Type", "text/html; charset=utf-8"
            )
            relayed = {
                key: value
                for key, value in upstream.getheaders()
                if key.lower() not in (
                    "content-length", "content-type", "server", "date",
                    "connection",
                )
            }
            relayed.setdefault(WORKER_HEADER, str(owner))
            return Response(
                status=upstream.status,
                body=payload,
                content_type=content_type,
                headers=relayed,
            )
        except (OSError, HTTPException) as exc:
            # never handle a foreign user locally: that would break the
            # one-process-per-user invariant the oracle relies on
            self._httpd_log.info(
                "forward_failed", owner=owner, error=str(exc)
            )
            return Response(
                status=503,
                body=_error_html(
                    503,
                    "Shard unavailable",
                    f"the worker owning this user (shard {owner}) did "
                    "not answer; retry shortly",
                ),
                headers={"Retry-After": "1"},
            )
        finally:
            connection.close()


# ---------------------------------------------------------------------------
# worker side


def _install_stop_handlers(stop_event: threading.Event) -> None:
    def _stop(signum, frame) -> None:  # pragma: no cover - signal path
        stop_event.set()

    try:
        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    except ValueError:  # not the main thread (in-process tests)
        pass


def _watch_stdin(stdin, stop_event: threading.Event) -> threading.Thread:
    """EOF on stdin means the parent died — shut down, don't orphan."""

    def _watch() -> None:
        while True:
            line = stdin.readline()
            if not line:
                break
            if line.strip() == "STOP":
                break
        stop_event.set()

    thread = threading.Thread(
        target=_watch, daemon=True, name="prefork-stdin"
    )
    thread.start()
    return thread


def worker_main(
    state_dir: Path,
    host: str,
    port: int,
    index: int,
    workers: int,
    backend: str = "file",
    server_name: str = "powerplay",
    stdin=None,
    stdout=None,
) -> int:
    """One pre-fork worker: full server + shard forwarding.

    Speaks the pipe protocol documented in the module docstring; runs
    until SIGTERM/SIGINT, a ``STOP`` line, or stdin EOF; then drains
    gracefully (public accepts stop, in-flight responses finish,
    sessions and the backend flush) and exits 0.
    """
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    application = Application(
        Path(state_dir),
        server_name=f"{server_name}-w{index}",
        backend=backend,
        worker_index=index,
        worker_count=workers,
    )
    internal = PowerPlayServer(
        state_dir, host="127.0.0.1", port=0, application=application
    )
    internal.start()
    print(f"INTERNAL {internal.address[1]}", file=stdout, flush=True)

    table_line = stdin.readline()
    if not table_line.startswith("TABLE "):
        internal.stop()
        return 1
    internal_ports = tuple(int(p) for p in table_line.split()[1:])

    stop_event = threading.Event()
    _install_stop_handlers(stop_event)

    handler_attrs = {
        "worker_index": index,
        "worker_count": workers,
        "internal_ports": internal_ports,
    }
    public = PowerPlayServer(
        state_dir,
        host=host,
        port=port,
        application=application,
        handler_base=ShardedHandler,
        handler_attrs=handler_attrs,
        reuse_port=True,
    )
    public.start()
    public_port = public.address[1]

    _watch_stdin(stdin, stop_event)
    print(f"READY {public_port}", file=stdout, flush=True)
    _LOG.info(
        "worker_up", index=index, workers=workers,
        public_port=public_port, internal_port=internal.address[1],
    )

    # a timed wait: Python runs signal handlers in the main thread only
    # when it wakes, and a SIGTERM delivered to another thread does not
    # wake an untimed wait, which left the worker serving until SIGKILL
    while not stop_event.wait(0.25):
        pass
    public.stop()  # stop accepting, drain in-flight, flush state
    # peers may still be forwarding the tail of their own drains here;
    # give those proxied requests a beat before the internal port dies
    time.sleep(0.2)
    internal.stop()
    _LOG.info("worker_down", index=index)
    return 0


# ---------------------------------------------------------------------------
# parent side


class WorkerProcess:
    """Bookkeeping for one spawned worker."""

    def __init__(self, index: int, process: subprocess.Popen):
        self.index = index
        self.process = process
        self.internal_port: Optional[int] = None
        self.lines: "Queue[str]" = Queue()
        self._reader = threading.Thread(
            target=self._read_stdout, daemon=True,
            name=f"prefork-out-{index}",
        )
        self._reader.start()

    def _read_stdout(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.strip())
        self.lines.put("")  # EOF marker

    def expect(self, prefix: str, timeout: float) -> List[str]:
        """Wait for a protocol line ``<prefix> …``; returns its fields."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise StateError(
                    f"worker {self.index}: no {prefix!r} within {timeout}s"
                )
            try:
                line = self.lines.get(timeout=remaining)
            except Empty:
                continue
            if not line:
                raise StateError(
                    f"worker {self.index} exited during startup "
                    f"(rc={self.process.poll()})"
                )
            if line.startswith(prefix + " "):
                return line.split()[1:]
            # ignore chatter; protocol lines are the only stdout writers


class MultiWorkerFront:
    """Parent of N pre-fork workers sharing one state directory.

    Context-managed like :class:`PowerPlayServer`::

        with MultiWorkerFront(state_dir, workers=4) as front:
            browser = Browser(front.base_url)
            ...

    Workers share the public port through ``SO_REUSEPORT`` (Linux, the
    BSDs); on a platform without it, :meth:`start` raises
    :class:`~repro.errors.StateError`.
    """

    _log = get_logger("web.prefork.front")

    #: how long to wait for every worker to report READY
    start_timeout_s: float = 60.0
    #: how long stop() waits for workers to drain before SIGKILL
    stop_timeout_s: float = 20.0

    def __init__(
        self,
        state_dir: Path,
        workers: int = 2,
        backend: str = "file",
        host: str = "127.0.0.1",
        port: int = 0,
        server_name: str = "powerplay",
    ):
        if workers < 1:
            raise StateError("workers must be >= 1")
        self.state_dir = Path(state_dir)
        self.workers = int(workers)
        self.backend = backend
        self.host = host
        self.port = int(port)
        self.server_name = server_name
        self._children: List[WorkerProcess] = []
        self._placeholder: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self._started = False

    # -- addresses ---------------------------------------------------------

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def internal_ports(self) -> List[int]:
        return [child.internal_port for child in self._children]

    def internal_peers(self) -> List[Tuple[str, str]]:
        """(name, url) pairs for the fleet aggregator — one per worker."""
        return [
            (
                f"{self.server_name}-w{child.index}",
                f"http://127.0.0.1:{child.internal_port}",
            )
            for child in self._children
        ]

    # -- lifecycle ---------------------------------------------------------

    def _reserve_port(self) -> None:
        """Pick (and hold) the public port before any worker binds it.

        A bound — never listening — placeholder with ``SO_REUSEPORT``
        keeps the port ours between choosing it and the workers binding
        it; connections only go to listeners, so the placeholder never
        steals one.
        """
        if not hasattr(socket, "SO_REUSEPORT"):
            raise StateError(
                "the multi-worker front needs SO_REUSEPORT, which this "
                "platform lacks"
            )
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, self.port))
        self.port = sock.getsockname()[1]
        self._placeholder = sock

    def _spawn(self, index: int) -> WorkerProcess:
        command = [
            sys.executable, "-m", "repro", "serve-worker",
            "--state", str(self.state_dir),
            "--backend", self.backend,
            "--host", self.host,
            "--port", str(self.port),
            "--index", str(index),
            "--workers", str(self.workers),
            "--name", self.server_name,
        ]
        process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        return WorkerProcess(index, process)

    def start(self) -> "MultiWorkerFront":
        if self._started:
            return self
        self._reserve_port()
        self._children = [self._spawn(i) for i in range(self.workers)]
        deadline = time.monotonic() + self.start_timeout_s
        try:
            for child in self._children:
                fields = child.expect(
                    "INTERNAL", deadline - time.monotonic()
                )
                child.internal_port = int(fields[0])
            table = "TABLE " + " ".join(
                str(child.internal_port) for child in self._children
            )
            for child in self._children:
                child.process.stdin.write(table + "\n")
                child.process.stdin.flush()
            for child in self._children:
                child.expect("READY", deadline - time.monotonic())
        except BaseException:
            self.stop()
            raise
        self._started = True
        self._log.info(
            "front_up", workers=self.workers, port=self.port,
            backend=self.backend,
        )
        return self

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT on the parent → graceful drain of the fleet."""

        def _stop(signum, frame):  # pragma: no cover - signal path
            self.stop()
            raise SystemExit(0)

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)

    def stop(self) -> None:
        """Drain every worker (bounded), then reap; idempotent."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        for child in self._children:
            if child.process.poll() is None:
                try:
                    child.process.terminate()
                except OSError:  # pragma: no cover - already gone
                    pass
        deadline = time.monotonic() + self.stop_timeout_s
        clean = True
        for child in self._children:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                child.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                clean = False
                child.process.kill()
                child.process.wait(timeout=5)
            for stream in (child.process.stdin, child.process.stdout):
                try:
                    stream.close()
                except (OSError, AttributeError):  # pragma: no cover
                    pass
        if self._placeholder is not None:
            try:
                self._placeholder.close()
            except OSError:  # pragma: no cover
                pass
            self._placeholder = None
        self._log.info("front_down", clean=clean)

    def exit_codes(self) -> Dict[int, Optional[int]]:
        """Worker index -> exit code (None while still running)."""
        return {
            child.index: child.process.poll() for child in self._children
        }

    def __enter__(self) -> "MultiWorkerFront":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
