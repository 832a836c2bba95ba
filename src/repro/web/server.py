"""HTTP transport for the PowerPlay application.

Wraps :class:`~repro.web.app.Application` in a threaded HTTP/1.0
server — the modern stand-in for the paper's Perl-CGI-behind-httpd
deployment.  "Since PowerPlay is local to one server, it can be
accessed by any machine on the web" — here, by anything that can reach
the bound address.

:class:`PowerPlayServer` is context-managed for tests and examples::

    with PowerPlayServer(state_dir) as server:
        browser = Browser(server.base_url)
        ...
"""

from __future__ import annotations

import collections
import email.utils
import html
import ipaddress
import itertools
import re
import socket
import socketserver
import sys
import threading
import time
import urllib.parse
from http import HTTPStatus
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple

from ..obs import INFO, get_logger
from ..obs.propagate import REQUEST_HEADER
from .app import Application, Response

#: transport-level request-ID fallback — responses the application never
#: sees (403 gate refusals, malformed requests, last-resort 500s) still
#: get an ``X-PowerPlay-Request`` so every response is log-correlatable
_transport_request_ids = itertools.count(1)

#: the longest request or header line, its line end included, and the
#: most lines after the request line, the blank one that ends the head
#: included — the limits ``http.server`` enforced
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: a header name as ``email`` read one (printable ASCII but space and
#: colon); a line that is not a header ends the headers
_FIELD_NAME = re.compile(r"[!-9;-~]*")

_REASONS = {status.value: status.phrase for status in HTTPStatus}
#: the ``Server`` value ``http.server`` sent, kept on the wire
_SERVER = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}"


def host_allowed(client_ip: str, allowed: Optional[Sequence[str]]) -> bool:
    """Check a client address against an allowlist of IPs/networks.

    "WWW programs enable file access to be restricted to specific
    machines" — ``allowed`` entries are literal IPs ("10.0.0.7") or
    CIDR networks ("10.0.0.0/24").  ``None`` means open access; an
    empty list denies everyone (the lockdown configuration).
    """
    if allowed is None:
        return True
    try:
        client = ipaddress.ip_address(client_ip)
    except ValueError:
        return False
    for entry in allowed:
        try:
            if "/" in entry:
                if client in ipaddress.ip_network(entry, strict=False):
                    return True
            elif client == ipaddress.ip_address(entry):
                return True
        except ValueError:
            continue
    return False


def _error_html(status: int, title: str, message: str) -> str:
    """A small, traceback-free error page (transport-level failures)."""
    return (
        "<html><head><title>PowerPlay — error</title></head><body>"
        f"<h1>{status} {title}</h1><p>{html.escape(message)}</p>"
        '<p><a href="/">PowerPlay front page</a></p></body></html>'
    )


class _Headers(dict):
    """A request's headers by lower-cased name.  :meth:`get` matches a
    name in any case, and the first of a repeated header wins, as
    ``email.message.Message.get`` did."""

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)

    @classmethod
    def parse(cls, head: bytes) -> "_Headers":
        headers = cls()
        name = None  # the header a folded line continues
        for raw in head.splitlines():
            line = raw.decode("iso-8859-1")
            if line[:1] in (" ", "\t"):
                if name is not None:
                    headers[name] += " " + line.strip(" \t")
                continue
            field, colon, value = line.partition(":")
            if not colon or not _FIELD_NAME.fullmatch(field):
                break
            name = field.lower()
            if name in headers:
                name = None
            else:
                headers[name] = value.lstrip(" \t")
        return headers


class _Refusal(Exception):
    """A request the transport answers itself, with ``status``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(socketserver.BaseRequestHandler):
    """Reads one request per connection and answers it, as HTTP/1.0,
    with one ``sendall``.

    The request line and headers come out of one ``recv``-filled
    buffer, the body follows by ``Content-Length``, and the reply's
    head and body leave together.  Transport hardening lives here: a
    line over 65,536 bytes is refused (414 for the request line, 431
    for a header), and so are more than 99 header lines (431); a
    malformed version gets 400, 2.0 and above 505, and methods other
    than GET and POST 501.  Request bodies are size-limited (413, sent
    without reading the body), malformed ``Content-Length`` headers and
    non-UTF-8 bodies yield a 400 page, and an unexpected application
    exception yields a 500 HTML page — a browser (or attacker) never
    sees a Python traceback.
    """

    application: Application  # injected by the server factory
    allowed_hosts: Optional[Sequence[str]] = None
    #: request body ceiling — a form post is a few hundred bytes; 1 MiB
    #: leaves generous headroom for design-JSON imports
    max_body_bytes: int = 1 << 20
    #: seconds a connection may go without sending a byte before it is
    #: dropped — a stalled request (or a preconnect that never sends
    #: one) must not pin its handler thread; shorter than
    #: :attr:`PowerPlayServer.drain_deadline`, so a stalled request
    #: cannot outlast the drain
    timeout: float = 3.0

    #: transport-level log lines (one per reply, and timeouts) go
    #: through the structured logger, not raw stderr.  The default
    #: observability state is disabled with a no-op sink, so tests stay
    #: quiet; ``repro --log-level info serve`` surfaces them.
    _httpd_log = get_logger("web.httpd")

    #: the request, as far as it has been read
    requestline = ""
    command = ""
    path = ""
    headers: Mapping[str, str] = _Headers()
    #: a two-word GET: its reply is the body alone
    http09 = False

    def handle(self) -> None:
        self.request.settimeout(self.timeout)
        self._buffer, self._offset = b"", 0
        try:
            line = self._readline()
            if len(line) > _MAX_LINE:
                self._refuse(_Refusal(414, "Request-URI Too Long"))
            elif line:
                # from its request line until its reply is sent, the
                # connection counts as in flight (an idle one does not)
                self.server.request_started()
                try:
                    self._serve(line)
                finally:
                    self.server.request_finished()
        except TimeoutError:
            self._log("Request timed out")

    def _serve(self, line: bytes) -> None:
        self.requestline = line.decode("iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return
        try:
            self._parse_request_line(words)
            self.headers = self._read_headers()
            if self.command not in ("GET", "POST"):
                raise _Refusal(501, f"Unsupported method ({self.command!r})")
            if not host_allowed(self.client_address[0], self.allowed_hosts):
                raise _Refusal(403, "This PowerPlay server is restricted "
                                    "to specific machines.")
            form = self._read_form() if self.command == "POST" else None
        except _Refusal as refusal:
            self._refuse(refusal)
            return
        self._send(self._handle_safely(self.command, form))

    def _parse_request_line(self, words: List[str]) -> None:
        """Method, path and version, checked as ``http.server`` did."""
        if len(words) >= 3:
            version = words[-1]
            number = version[5:].split(".")
            if (not version.startswith("HTTP/") or len(number) != 2
                    or not all(part.isdecimal() for part in number)
                    or any(len(part) > 10 for part in number)):
                raise _Refusal(400, f"Bad request version ({version!r})")
            if int(number[0]) >= 2:
                raise _Refusal(505, f"Invalid HTTP version ({version[5:]})")
        if not 2 <= len(words) <= 3:
            raise _Refusal(400, f"Bad request syntax ({self.requestline!r})")
        self.command, self.path = words[0], words[1]
        if len(words) == 2:
            if self.command != "GET":
                raise _Refusal(
                    400, f"Bad HTTP/0.9 request type ({self.command!r})")
            self.http09 = True
        if self.path.startswith("//"):
            # clients read a leading // as a scheme-less absolute URI:
            # reduce it to one / (the open-redirect guard)
            self.path = "/" + self.path.lstrip("/")

    def _readline(self) -> bytes:
        """The next line with its ``\\n``, cut one byte past
        :data:`_MAX_LINE` (the caller refuses a longer one), or what is
        left when the client stops sending."""
        limit = _MAX_LINE + 1
        while True:
            buffer, start = self._buffer, self._offset
            end = buffer.find(b"\n", start, start + limit)
            if end >= 0:
                self._offset = end + 1
                return buffer[start:end + 1]
            if len(buffer) - start >= limit:
                self._offset = start + limit
                return buffer[start:start + limit]
            chunk = self.request.recv(65536)
            if not chunk:
                self._offset = len(buffer)
                return buffer[start:]
            self._buffer, self._offset = buffer[start:] + chunk, 0

    def _read_headers(self) -> _Headers:
        lines = []
        while True:
            line = self._readline()
            if len(line) > _MAX_LINE:
                raise _Refusal(431, "Line too long")
            lines.append(line)
            if len(lines) > _MAX_HEADERS:
                raise _Refusal(431, "Too many headers")
            if line in (b"\r\n", b"\n", b""):
                return _Headers.parse(b"".join(lines))

    def _read_body(self, length: int) -> bytes:
        """Up to ``length`` body bytes: fewer when the client stops."""
        start = self._offset
        chunks = [self._buffer[start:start + length]]
        self._offset = start + len(chunks[0])
        missing = length - len(chunks[0])
        while missing > 0:
            chunk = self.request.recv(min(missing, 65536))
            if not chunk:
                break
            chunks.append(chunk)
            missing -= len(chunk)
        return b"".join(chunks)

    # -- replies -----------------------------------------------------------

    @staticmethod
    def _head(
        status: int,
        content_type: str,
        length: Optional[int],
        headers: Mapping[str, str],
    ) -> bytes:
        """A reply's status line and headers (``Content-Length`` left
        out when ``length`` is None), through the blank line."""
        lines = [
            f"HTTP/1.0 {status} {_REASONS.get(status, '')}",
            f"Server: {_SERVER}",
            f"Date: {email.utils.formatdate(usegmt=True)}",
            f"Content-Type: {content_type}",
        ]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        lines.extend(f"{key}: {value}" for key, value in headers.items())
        lines.append("\r\n")
        return "\r\n".join(lines).encode("latin-1")

    def _send(self, response: Response) -> None:
        response.headers.setdefault(
            REQUEST_HEADER, f"req-t{next(_transport_request_ids):08x}"
        )
        body = response.body.encode("utf-8")
        if not self.http09:
            head = self._head(response.status, response.content_type,
                              len(body), response.headers)
            body = head if self.command == "HEAD" else head + body
        self.request.sendall(body)
        if self._httpd_log.enabled_for(INFO):
            self._log(f'"{self.requestline}" {response.status} -')

    def _refuse(self, refusal: _Refusal) -> None:
        status = refusal.status
        self._send(Response(
            status=status,
            body=_error_html(status, _REASONS[status], str(refusal)),
        ))

    def _log(self, message: str) -> None:
        self._httpd_log.info(
            "httpd", client=self.client_address[0], message=message
        )

    # -- the application ---------------------------------------------------

    def _handle_safely(self, method: str, form=None) -> Response:
        try:
            return self.application.handle(
                method, self.path, form, headers=self.headers
            )
        except Exception:  # noqa: BLE001 - last-resort transport guard
            return Response(
                status=500,
                body=_error_html(
                    500,
                    "Server error",
                    "PowerPlay hit an internal error handling this "
                    "request. The details have not been disclosed; "
                    "please retry or start over from the front page.",
                ),
            )

    def _read_form(self) -> dict:
        """The POST body's form, or the 4xx that explains why not."""
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            raise _Refusal(
                400, f"unparseable Content-Length header {header!r}"
            ) from None
        if length < 0:
            raise _Refusal(400, "negative Content-Length")
        if length > self.max_body_bytes:
            raise _Refusal(
                413, f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes} byte limit"
            )
        try:
            raw = self._read_body(length).decode("utf-8") if length else ""
        except UnicodeDecodeError:
            raise _Refusal(400, "request body is not valid UTF-8") from None
        return dict(urllib.parse.parse_qsl(raw))


class _SoakFriendlyHTTPServer(socketserver.TCPServer):
    """A TCP server whose handler threads outlive their connections.

    Each accepted connection goes to an idle handler thread; a new
    daemon thread starts only when none is idle, so concurrency stays
    unbounded while a closed loop of clients runs on a few threads.
    (A thread per connection would cost a ``Thread.start()`` per
    request, which holds the accept loop until the new thread runs.)
    A thread that stays idle for :attr:`idle_thread_s` exits, and
    :meth:`server_close` releases every idle one.  No list of past
    threads is kept, so memory stays flat across a soak.

    A *count* of in-flight requests (O(1) memory) is what graceful
    drain needs: after ``shutdown()`` stops the accept loop,
    :meth:`drain` waits for the count to reach zero so responses
    already being written — session saves, mirror writes — complete
    instead of being killed mid-write.  A connection counts from the
    arrival of its request line (:meth:`request_started`), so an idle
    one — a browser preconnect — does not hold the drain.
    """

    allow_reuse_address = True
    #: seconds an idle handler thread waits for a connection, then exits
    idle_thread_s: float = 30.0

    def __init__(self, *args, reuse_port: bool = False, **kwargs):
        self.reuse_port = reuse_port
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        #: accepted connections waiting for an idle thread, the idle
        #: threads, and whether the server has closed
        self._pending: collections.deque = collections.deque()
        self._idle: set = set()
        self._pool_closed = False
        self._pool_cv = threading.Condition()
        super().__init__(*args, **kwargs)

    def server_bind(self) -> None:
        # SO_REUSEPORT before bind: the pre-fork front's workers all
        # bind the same public port and let the kernel load-balance
        # accepts (set manually — socketserver.allow_reuse_port only
        # exists on 3.11+ and this runs on 3.10)
        if self.reuse_port and hasattr(socket, "SO_REUSEPORT"):
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    # -- handler threads ---------------------------------------------------

    def process_request(self, request, client_address) -> None:
        with self._pool_cv:
            # an idle thread not yet claimed by an earlier connection
            # takes this one; otherwise start a thread for it
            if len(self._idle) > len(self._pending):
                self._pending.append((request, client_address))
                self._pool_cv.notify()
                return
        threading.Thread(
            target=self._handler_thread,
            args=(request, client_address),
            daemon=True,
            name="powerplay-handler",
        ).start()

    def _handler_thread(self, request, client_address) -> None:
        me = threading.current_thread()
        while True:
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - as ThreadingMixIn does
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._pool_cv:
                self._idle.add(me)
                deadline = time.monotonic() + self.idle_thread_s
                while not self._pending and not self._pool_closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._pool_cv.wait(remaining)
                self._idle.discard(me)
                if not self._pending:
                    return  # idle too long, or the server closed
                request, client_address = self._pending.popleft()

    def handle_error(self, request, client_address) -> None:
        """A connection that failed outside the application (a client
        that reset it before reading its reply, say): one structured
        event, not socketserver's traceback on raw stderr."""
        _Handler._httpd_log.warning(
            "connection_error",
            client=client_address[0],
            error=type(sys.exc_info()[1]).__name__,
        )

    def server_close(self) -> None:
        super().server_close()
        with self._pool_cv:
            self._pool_closed = True
            self._pool_cv.notify_all()
            idle = list(self._idle)
        for thread in idle:
            thread.join(timeout=1.0)

    # -- drain -------------------------------------------------------------

    def request_started(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def request_finished(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_cv:
            return self._inflight

    def drain(self, deadline: float) -> bool:
        """Wait up to ``deadline`` seconds for in-flight requests to
        finish.  Returns True if the server is idle, False on timeout
        (stragglers are daemon threads and die with the process)."""
        end = time.monotonic() + deadline
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
        return True


class PowerPlayServer:
    """A live PowerPlay HTTP server on localhost.

    ``port=0`` (default) picks a free port; read it back from
    :attr:`base_url`.
    """

    _log = get_logger("web.server")

    def __init__(
        self,
        state_dir: Path,
        host: str = "127.0.0.1",
        port: int = 0,
        server_name: str = "powerplay",
        application: Optional[Application] = None,
        allowed_hosts: Optional[Sequence[str]] = None,
        handler_base: type = _Handler,
        max_body_bytes: int = _Handler.max_body_bytes,
        handler_attrs: Optional[dict] = None,
        telemetry_tick_s: Optional[float] = None,
        backend=None,
        reuse_port: bool = False,
    ):
        self.application = application or Application(
            Path(state_dir), server_name=server_name, backend=backend
        )
        self.allowed_hosts = allowed_hosts

        attrs = {
            "application": self.application,
            "allowed_hosts": allowed_hosts,
            "max_body_bytes": max_body_bytes,
        }
        attrs.update(handler_attrs or {})
        handler = type("BoundHandler", (handler_base,), attrs)
        self._httpd = _SoakFriendlyHTTPServer(
            (host, port), handler, reuse_port=reuse_port
        )
        self._thread: Optional[threading.Thread] = None
        #: optional background SLO tick — rolling windows must advance
        #: (and alerts must clear) even when no requests arrive.  Off
        #: by default: tests drive evaluation explicitly; ``repro
        #: serve`` turns it on.
        self.telemetry_tick_s = telemetry_tick_s
        self._tick_stop = threading.Event()
        self._tick_thread: Optional[threading.Thread] = None
        #: when the application has a history recorder attached
        #: (``attach_history``), :meth:`start` runs its sampling thread
        #: and :meth:`stop` seals the journal — the recorder's lifetime
        #: is exactly the serving lifetime
        self._history_running = False

    def _telemetry_tick(self) -> None:
        evaluate = getattr(self.application, "_maybe_evaluate_slos", None)
        while not self._tick_stop.wait(self.telemetry_tick_s):
            if callable(evaluate):
                try:
                    evaluate(force=True)
                except Exception:  # noqa: BLE001 - the tick must survive
                    pass

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "PowerPlayServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True, name="powerplay-http"
        )
        self._thread.start()
        if self.telemetry_tick_s and self._tick_thread is None:
            self._tick_stop.clear()
            self._tick_thread = threading.Thread(
                target=self._telemetry_tick,
                daemon=True,
                name="powerplay-telemetry",
            )
            self._tick_thread.start()
        recorder = getattr(self.application, "history_recorder", None)
        if recorder is not None and not self._history_running:
            recorder.start()
            self._history_running = True
        return self

    #: how long ``stop()`` waits for in-flight requests before closing
    drain_deadline: float = 5.0

    def stop(self) -> None:
        """Gracefully drain and shut down.

        Stops accepting new connections, waits (bounded by
        :attr:`drain_deadline`) for requests already being handled to
        finish, flushes application state (sessions, mirror store) to
        disk, then closes the listening socket.  The old hard-stop
        killed request threads mid-response during soak teardown and
        lost their writes; the flush makes teardown a durability point.
        """
        if self._thread is None:
            return
        if self._tick_thread is not None:
            self._tick_stop.set()
            self._tick_thread.join(timeout=2)
            self._tick_thread = None
        if self._history_running:
            recorder = getattr(self.application, "history_recorder", None)
            if recorder is not None:
                # seal=False: Application.flush() below seals after the
                # drain, so in-flight requests still land in the segment
                recorder.stop(seal=False)
            self._history_running = False
        self._httpd.shutdown()
        self._thread.join(timeout=5)
        drained = self._httpd.drain(self.drain_deadline)
        if not drained:
            self._log.warning(
                "drain_timeout",
                inflight=self._httpd.inflight,
                deadline_s=self.drain_deadline,
            )
        flush = getattr(self.application, "flush", None)
        if callable(flush):
            flushed = flush()
            self._log.info("drained", clean=drained, **(flushed or {}))
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "PowerPlayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Blocking serve — what ``examples/web_demo.py --serve`` uses."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            self._httpd.server_close()
