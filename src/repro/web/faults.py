"""Deterministic fault injection for the PowerPlay web stack.

The resilience layer (:mod:`repro.web.resilience`) is only trustworthy
if its behaviour under failure is *tested*, and failures from the real
network are neither reproducible nor CI-friendly.  This module makes
them both:

* :class:`FaultPlan` — a seeded schedule of faults (connection refusal,
  latency spikes, 5xx, malformed or truncated JSON, mid-body
  disconnect).  The same seed always produces the same schedule, so a
  test that passes once passes forever;
* :class:`FaultyApplication` — wraps an
  :class:`~repro.web.app.Application` in-process: transport-shaped
  faults surface as :class:`~repro.errors.FaultInjected`, payload
  faults corrupt the response body.  Unit tests exercise degradation
  without sockets;
* :class:`ChaosServer` — a :class:`~repro.web.server.PowerPlayServer`
  whose handler injects the same faults at the real HTTP layer
  (closing sockets, mangling bytes on the wire), for end-to-end tests
  and the ``bench_fault_tolerance`` benchmark.

Fault kinds
-----------

==================  ====================================================
``refuse``          connection dropped before any response byte
``latency``         response delayed by ``latency`` seconds, then served
``error_500``       a well-formed HTTP 500 error page
``malformed_json``  HTTP 200 whose body is not parseable JSON
``truncate``        correct headers, but the body stops halfway
``disconnect``      socket closed mid-response (after the status line)
``reset_mid_body``  connection reset mid-body with *no* Content-Length:
                    the partial body reads as a complete response, so
                    only content verification (a digest) can catch it
``flap``            host down per a deterministic up/down schedule
                    (``flap_up``/``flap_down`` request counts)
==================  ====================================================
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import FaultInjected
from ..obs import get_logger, get_registry
from .app import Application, Response
from .server import PowerPlayServer, _Handler

_LOG = get_logger("faults")


def _metric_faults():
    return get_registry().counter(
        "powerplay_faults_injected_total",
        "Faults injected by FaultPlan, by kind.",
        ("kind",),
    )

#: every fault kind the harness can inject
FAULT_KINDS = (
    "refuse",
    "latency",
    "error_500",
    "malformed_json",
    "truncate",
    "disconnect",
    "reset_mid_body",
    "flap",
)

#: faults that damage the payload but still deliver *an* HTTP response
_PAYLOAD_FAULTS = {"error_500", "malformed_json", "truncate"}


@dataclass
class FaultPlan:
    """A deterministic schedule of injected faults.

    Two modes, combinable:

    * **rate mode** — each request draws from a ``random.Random(seed)``
      stream; with probability ``rate`` a fault is injected, its kind
      drawn uniformly from ``kinds``.  Deterministic per seed: the
      n-th request always sees the same decision.
    * **script mode** — ``script`` is an explicit per-request sequence
      (``None`` entries mean "no fault"); once exhausted, rate mode
      takes over (or no faults, if ``rate`` is 0).

    ``max_faults`` caps the total injected, so a plan can model "the
    network was bad for a while, then recovered".  ``exempt_paths``
    lets tests keep control endpoints clean.  The plan is thread-safe:
    the live chaos server serves from a thread pool.

    **Flapping host mode**: ``flap_up``/``flap_down`` overlay a
    deterministic availability schedule — the host answers ``flap_up``
    requests, then is down (kind ``flap``, a transport refusal) for
    ``flap_down`` requests, repeating.  The schedule is a property of
    the host, not a fault budget: it is exempt from ``max_faults`` and
    counted separately in :attr:`flap_outages`.
    """

    rate: float = 0.0
    seed: int = 0
    kinds: Sequence[str] = FAULT_KINDS
    latency: float = 0.02
    max_faults: Optional[int] = None
    script: Sequence[Optional[str]] = ()
    exempt_paths: Sequence[str] = ()
    flap_up: int = 0
    flap_down: int = 0

    requests_seen: int = 0
    faults_injected: int = 0
    flap_outages: int = 0
    injected_log: List[Tuple[int, str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        for kind in self.script:
            if kind is not None and kind not in FAULT_KINDS:
                raise ValueError(f"unknown scripted fault kind {kind!r}")
        if self.flap_up < 0 or self.flap_down < 0:
            raise ValueError("flap_up/flap_down must be >= 0")
        if self.flap_down > 0 and self.flap_up == 0:
            raise ValueError(
                "flap_up must be > 0 when flap_down is set "
                "(a host that is never up is `rate=1.0 refuse`, not flap)"
            )
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def next_fault(self, path: str = "") -> Optional[str]:
        """The fault (if any) for the next request.  Mutates the plan."""
        with self._lock:
            index = self.requests_seen
            self.requests_seen += 1
            bare = path.split("?", 1)[0]
            if bare and bare in self.exempt_paths:
                return None
            if self.flap_down > 0:
                # the availability schedule is checked before the fault
                # budget: a flapping host's downtime is deterministic,
                # not part of the random-fault allowance
                if index % (self.flap_up + self.flap_down) >= self.flap_up:
                    self.flap_outages += 1
                    self.injected_log.append((index, "flap", bare))
                    _metric_faults().inc(kind="flap")
                    _LOG.info("inject", kind="flap", path=bare, request=index)
                    return "flap"
            if self.max_faults is not None and self.faults_injected >= self.max_faults:
                return None
            kind: Optional[str] = None
            if index < len(self.script):
                kind = self.script[index]
            elif self.rate > 0 and self._rng.random() < self.rate:
                kind = self._rng.choice(list(self.kinds))
            if kind is not None:
                self.faults_injected += 1
                self.injected_log.append((index, kind, bare))
                _metric_faults().inc(kind=kind)
                _LOG.info("inject", kind=kind, path=bare, request=index)
            return kind

    def reset(self) -> None:
        """Rewind to the exact initial schedule (same seed)."""
        with self._lock:
            self._rng = random.Random(self.seed)
            self.requests_seen = 0
            self.faults_injected = 0
            self.flap_outages = 0
            self.injected_log.clear()


def _mangle(response: Response, kind: str) -> Response:
    """Apply a payload-damaging fault to an otherwise good response."""
    if kind == "error_500":
        return Response(
            status=500,
            body="<html><body><h1>500</h1><p>injected server error"
            "</p></body></html>",
        )
    if kind == "malformed_json":
        return Response(
            status=response.status,
            body='{"oops": this is not json',
            content_type="application/json",
        )
    if kind == "truncate":
        return Response(
            status=response.status,
            body=response.body[: max(1, len(response.body) // 2)],
            content_type=response.content_type,
            headers=dict(response.headers),
        )
    raise ValueError(f"not a payload fault: {kind!r}")


class FaultyApplication:
    """An :class:`Application` lookalike with a fault plan in front.

    Drop-in for anything that calls ``handle(method, path, form)`` —
    including :class:`~repro.web.server.PowerPlayServer` via its
    ``application`` argument.  Transport-shaped faults (``refuse``,
    ``disconnect``) raise :class:`~repro.errors.FaultInjected`; payload
    faults return a damaged :class:`Response`; ``latency`` sleeps via
    the injectable ``sleep`` then serves normally.
    """

    def __init__(
        self,
        inner: Application,
        plan: FaultPlan,
        sleep=time.sleep,
    ):
        self.inner = inner
        self.plan = plan
        self.sleep = sleep

    def __getattr__(self, name: str):
        # delegate everything but handle() (users, libraries, ...)
        return getattr(self.inner, name)

    def handle(
        self,
        method: str,
        path: str,
        form: Optional[Mapping[str, str]] = None,
        headers=None,
    ) -> Response:
        kind = self.plan.next_fault(path)
        if kind is None:
            return self.inner.handle(method, path, form, headers=headers)
        if kind in ("refuse", "disconnect", "flap"):
            raise FaultInjected(f"injected {kind} on {method} {path}")
        if kind == "latency":
            self.sleep(self.plan.latency)
            return self.inner.handle(method, path, form, headers=headers)
        if kind == "reset_mid_body":
            # the in-process shape of a mid-body connection reset with
            # no Content-Length: a partial body that LOOKS like a
            # complete, successful response — no error, no marker;
            # only content verification can tell
            response = self.inner.handle(method, path, form, headers=headers)
            return Response(
                status=response.status,
                body=response.body[: max(1, 2 * len(response.body) // 3)],
                content_type=response.content_type,
                headers=dict(response.headers),
            )
        return _mangle(
            self.inner.handle(method, path, form, headers=headers), kind
        )


class _ChaosHandler(_Handler):
    """The hardened handler, sabotaged at the socket layer."""

    fault_plan: FaultPlan  # injected via PowerPlayServer(handler_attrs=...)

    def _sever(self, data: bytes = b"") -> None:
        """Send ``data``, then hard-kill the connection."""
        try:
            self.request.sendall(data)
            self.request.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - already gone
            pass

    def _send(self, response: Response) -> None:
        kind = self.fault_plan.next_fault(self.path)
        if kind is None:
            super()._send(response)
            return
        if kind in ("refuse", "flap"):
            # drop the connection before a single response byte (a
            # flapping host's down phase looks exactly like a refusal)
            self._sever()
            return
        body = response.body.encode("utf-8")
        if kind == "reset_mid_body":
            # headers WITHOUT Content-Length, then a partial body and a
            # clean FIN: connection-close framing makes the truncated
            # bytes read as a complete response.  The transport cannot
            # detect this — the artifact digest must.
            self._sever(
                self._head(response.status, response.content_type, None, {})
                + body[: max(1, 2 * len(body) // 3)]
            )
            return
        if kind == "disconnect":
            # status line + headers promise a body that never arrives
            self._sever(
                self._head(response.status, response.content_type,
                           len(body), {})
                + body[: max(1, len(body) // 3)]
            )
            return
        if kind == "latency":
            time.sleep(self.fault_plan.latency)
            super()._send(response)
            return
        super()._send(_mangle(response, kind))


class ChaosServer(PowerPlayServer):
    """A live PowerPlay server with a fault plan on every response.

    Usable standalone as a chaos endpoint for any HTTP client::

        plan = FaultPlan(rate=0.3, seed=7)
        with ChaosServer(state_dir, plan) as chaotic:
            client = RemoteLibraryClient(chaotic.base_url, ...)

    The application underneath is a real one — non-faulted requests
    serve real pages and real model payloads — so success rates
    measured against it are meaningful.
    """

    def __init__(
        self,
        state_dir: Path,
        plan: FaultPlan,
        host: str = "127.0.0.1",
        port: int = 0,
        server_name: str = "chaos",
        application: Optional[Application] = None,
        allowed_hosts: Optional[Sequence[str]] = None,
    ):
        self.plan = plan
        super().__init__(
            state_dir,
            host=host,
            port=port,
            server_name=server_name,
            application=application,
            allowed_hosts=allowed_hosts,
            handler_base=_ChaosHandler,
            handler_attrs={"fault_plan": plan},
        )
