"""HTTP transport for the PowerPlay application.

Wraps :class:`~repro.web.app.Application` in a threading
``http.server`` — the modern stand-in for the paper's Perl-CGI-behind-
httpd deployment.  "Since PowerPlay is local to one server, it can be
accessed by any machine on the web" — here, by anything that can reach
the bound address.

:class:`PowerPlayServer` is context-managed for tests and examples::

    with PowerPlayServer(state_dir) as server:
        browser = Browser(server.base_url)
        ...
"""

from __future__ import annotations

import ipaddress
import itertools
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Sequence, Tuple

from ..obs import get_logger
from ..obs.propagate import REQUEST_HEADER
from .app import Application, Response

#: transport-level request-ID fallback — responses the application never
#: sees (403 gate refusals, malformed POSTs, last-resort 500s) still get
#: an ``X-PowerPlay-Request`` so every response is log-correlatable
_transport_request_ids = itertools.count(1)


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
        f"<h1>{status} {title}</h1><p>{message}</p>"
        '<p><a href="/">PowerPlay front page</a></p></body></html>'
    )


class _Handler(BaseHTTPRequestHandler):
    """Adapts HTTP requests to Application.handle calls.

    Transport hardening lives here: request bodies are size-limited,
    malformed ``Content-Length`` headers and non-UTF-8 bodies yield a
    400 page, and an unexpected application exception yields a 500 HTML
    page — a browser (or attacker) never sees a Python traceback.
    """

    application: Application  # injected by the server factory
    allowed_hosts: Optional[Sequence[str]] = None
    #: request body ceiling — a form post is a few hundred bytes; 1 MiB
    #: leaves generous headroom for design-JSON imports
    max_body_bytes: int = 1 << 20

    #: transport-level log lines (http.server's per-request and error
    #: chatter) go through the structured logger, not raw stderr.  The
    #: default observability state is disabled with a no-op sink, so
    #: tests stay quiet; ``repro --log-level info serve`` surfaces them.
    _httpd_log = get_logger("web.httpd")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        self._httpd_log.info(
            "httpd",
            client=self.client_address[0],
            message=format % args,
        )

    def _send(self, response: Response) -> None:
        response.headers.setdefault(
            REQUEST_HEADER, f"req-t{next(_transport_request_ids):08x}"
        )
        body = response.body.encode("utf-8")
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in response.headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _gate(self) -> bool:
        if host_allowed(self.client_address[0], self.allowed_hosts):
            return True
        self._send(
            Response(
                status=403,
                body=_error_html(
                    403,
                    "Forbidden",
                    "This PowerPlay server is restricted to specific machines.",
                ),
            )
        )
        return False

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

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if not self._gate():
            return
        self._send(self._handle_safely("GET"))

    def _read_form(self) -> Tuple[Optional[dict], Optional[Response]]:
        """Parse the POST body, or produce the 4xx that explains why not."""
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            return None, Response(
                status=400,
                body=_error_html(
                    400, "Bad request",
                    f"unparseable Content-Length header {header!r}",
                ),
            )
        if length < 0:
            return None, Response(
                status=400,
                body=_error_html(
                    400, "Bad request", "negative Content-Length"
                ),
            )
        if length > self.max_body_bytes:
            return None, Response(
                status=413,
                body=_error_html(
                    413, "Payload too large",
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_body_bytes} byte limit",
                ),
            )
        try:
            raw = self.rfile.read(length).decode("utf-8") if length else ""
        except UnicodeDecodeError:
            return None, Response(
                status=400,
                body=_error_html(
                    400, "Bad request", "request body is not valid UTF-8"
                ),
            )
        form = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(raw).items()
        }
        return form, None

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if not self._gate():
            return
        form, refusal = self._read_form()
        if refusal is not None:
            self._send(refusal)
            return
        self._send(self._handle_safely("POST", form))


class _SoakFriendlyHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for long soaks.

    The stock mixin keeps a reference to *every* request thread it ever
    spawned when ``block_on_close`` is true, so a load test that issues
    thousands of requests grows an unbounded thread list and then joins
    it all at shutdown.  Request threads are daemons here anyway, so we
    skip the tracking: memory stays flat across a soak and ``stop()``
    returns promptly.

    Instead of the thread list we keep a *count* of in-flight requests
    (O(1) memory), which is what graceful drain actually needs: after
    ``shutdown()`` stops the accept loop, :meth:`drain` waits for the
    count to reach zero so responses already being written — session
    saves, mirror writes — complete instead of being killed mid-write.
    """

    daemon_threads = True
    block_on_close = False

    def __init__(self, *args, reuse_port: bool = False, **kwargs):
        self.reuse_port = reuse_port
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        super().__init__(*args, **kwargs)

    def server_bind(self) -> None:
        # SO_REUSEPORT before bind: the pre-fork front's workers all
        # bind the same public port and let the kernel load-balance
        # accepts (set manually — socketserver.allow_reuse_port only
        # exists on 3.11+ and this runs on 3.10)
        if self.reuse_port and hasattr(socket, "SO_REUSEPORT"):
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def process_request_thread(self, request, client_address) -> None:
        with self._inflight_cv:
            self._inflight += 1
        try:
            super().process_request_thread(request, client_address)
        finally:
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
