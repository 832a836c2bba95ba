"""The PowerPlay web application: routing and request handling.

Transport-independent: :meth:`Application.handle` maps
``(method, path, form)`` to a :class:`Response`, so unit tests exercise
every page without sockets and :mod:`repro.web.server` exposes the same
object over real HTTP.

The flow is the paper's, page for page: identify -> menu -> pick a
library element -> parameterize it on its input form (instant feedback)
-> save it into a design -> explore on the design spreadsheet with PLAY
-> hyperlink into sub-designs -> export/share JSON payloads that other
PowerPlay servers import (the Figure 7 HTTP model-access protocol).
"""

from __future__ import annotations

import itertools
import json
import math
import secrets
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.design import Design
from ..core.evalcache import (
    DEFAULT_CACHE,
    cached_evaluate_area,
    cached_evaluate_power,
    cached_evaluate_timing,
)
from ..core.model import (
    ExpressionAreaModel,
    ExpressionPowerModel,
    ExpressionTimingModel,
    ModelSet,
    TemplatePowerModel,
)
from ..core.parameters import Parameter
from ..core.units import format_eng, format_quantity, parse_float
from ..designs.infopad import build_infopad
from ..designs.luminance import build_figure1_design, build_figure3_design
from ..designs.macros import build_macro_library
from ..errors import (
    ArtifactConflict,
    CircuitOpenError,
    ExploreError,
    IntegrityError,
    PowerPlayError,
    RegistryError,
    RemoteError,
    SessionError,
    WebError,
)
from ..explore import (
    DerivedObjective,
    JobStore,
    ParameterSpace,
    coupled_from_spec,
    export_csv,
    export_json,
    pareto_rows,
    parse_axis_spec,
    sensitivity_ranking,
)
from ..explore.engine import run_job
from ..library.catalog import Library, LibraryEntry
from ..library.cells import build_default_library
from ..library.datasheet import build_system_library
from ..library.designio import (
    design_from_payload,
    design_to_json,
    design_to_payload,
)
from ..obs import get_logger, get_registry, is_enabled, recent_traces
from ..obs import capacity as obs_capacity
from ..obs import fleet as obs_fleet
from ..obs import history as obs_history
from ..obs import process as obs_process
from ..obs import profile as obs_profile
from ..obs import propagate
from ..obs import recorder as obs_recorder
from ..obs import render_trace
from ..obs.metrics import Histogram, bucket_quantile
from ..obs.recorder import FlightRecorder
from ..obs.slo import SLOTracker
from ..obs.trace import Span, traced
# direct submodule imports: repro.registry's package __init__ pulls in
# .resolve, which imports this package back (repro.web.remote) — going
# through submodules keeps both import orders acyclic
from ..registry.artifacts import (
    ModelArtifact,
    validate_artifact_name,
    validate_kind,
)
from ..registry.registry import ModelRegistry
from ..registry.store import MirrorStore, _metric_integrity, _metric_ops
from ..state import open_backend
from ..registry.sync import (
    MAX_ARTIFACT_BYTES,
    RegistrySyncClient,
    _metric_sync,
    sync_from,
)
from . import pages

if False:  # pragma: no cover - typing only (avoids the import cycle)
    from ..registry.resolve import RegistryResolver
from .resilience import (
    CIRCUIT_STATE_CODES,
    _metric_cache,
    _metric_circuit_state,
    _metric_circuit_transitions,
    _metric_retries,
)
from .session import UserStore, _metric_sessions, validate_username


@dataclass
class Response:
    """An HTTP-shaped response."""

    status: int = 200
    body: str = ""
    content_type: str = "text/html; charset=utf-8"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def redirect(cls, location: str) -> "Response":
        return cls(status=303, body="", headers={"Location": location})

    @classmethod
    def json(cls, payload: object) -> "Response":
        return cls(
            body=json.dumps(payload, indent=1, sort_keys=True),
            content_type="application/json",
        )

    @classmethod
    def json_text(cls, text: str) -> "Response":
        return cls(body=text, content_type="application/json")

    @classmethod
    def not_found(cls, message: str = "not found") -> "Response":
        return cls(status=404, body=pages.H.error_page("Not found", message))


EXAMPLES = ("luminance_fig1", "luminance_fig3", "infopad")

#: every fixed route `_dispatch` knows — used to normalize metric labels
#: so an attacker probing random paths cannot mint unbounded label sets
KNOWN_ROUTES = frozenset(
    {
        "/", "/login", "/password", "/menu", "/library", "/cell",
        "/cell/save", "/design", "/design/analysis", "/design/new",
        "/design/load_example", "/define", "/sweep", "/sweep/job",
        "/sweep/result", "/sweep/cancel", "/export/design",
        "/export/library", "/api/library.json", "/api/model",
        "/api/design", "/agent/estimate", "/api/ping", "/doc/models",
        "/tutorial", "/help", "/metrics", "/status", "/trace", "/profile",
        "/registry", "/healthz", "/api/registry/catalog.json",
        "/api/registry/artifact", "/api/registry/publish",
        "/api/registry/sync", "/fleet", "/debug/flight", "/history",
        "/api/history/query",
    }
)

#: /healthz states, worst last; the numeric code is the
#: ``powerplay_health_state`` gauge value
HEALTH_STATES = ("ok", "degraded", "failing")


def route_label(route: str) -> str:
    """Collapse a request path to a bounded metric label."""
    if route in KNOWN_ROUTES:
        return route
    if route.startswith("/doc/cell/"):
        return "/doc/cell/:name"
    return "(unmatched)"


#: gauge code -> state word, for the /status dashboard
_CIRCUIT_WORDS = {code: word for word, code in CIRCUIT_STATE_CODES.items()}


def _build_example(name: str) -> Design:
    if name == "luminance_fig1":
        return build_figure1_design()
    if name == "luminance_fig3":
        return build_figure3_design()
    if name == "infopad":
        return build_infopad()
    raise WebError(f"unknown example {name!r}")


class Application:
    """PowerPlay server state + request dispatch."""

    def __init__(
        self,
        state_dir: Path,
        server_name: str = "powerplay",
        telemetry: bool = True,
        backend=None,
        worker_index: Optional[int] = None,
        worker_count: int = 1,
    ):
        self.server_name = server_name
        #: one durable-state backend shared by every store — ``backend``
        #: is a kind name ("file"/"sqlite"), an open StateBackend, or
        #: None for the historical file layout
        self.state_backend = open_backend(backend, Path(state_dir))
        #: pre-fork worker identity (None/1 when serving single-process)
        self.worker_index = worker_index
        self.worker_count = max(1, int(worker_count))
        self.users = UserStore(Path(state_dir), backend=self.state_backend)
        #: login tokens for password-protected users (in-memory; a
        #: restart simply requires logging in again)
        self._tokens: Dict[str, str] = {}
        self._tokens_lock = threading.Lock()
        #: per-user request serialization — the transport is threaded
        #: but a user's session (designs, defaults, user library) is
        #: mutable shared state; requests naming the same user run one
        #: at a time, requests for different users run in parallel.
        #: Bounded by the (validated) user population, like the state
        #: files themselves.
        self._user_locks: Dict[str, threading.RLock] = {}
        self._user_locks_guard = threading.Lock()
        #: live plans behind every sheet view, analysis and PLAY
        self.eval_cache = DEFAULT_CACHE
        #: persistent sweep jobs — same layout the CLI uses, so a job
        #: submitted in the browser can be resumed with `repro sweep
        #: --resume` against the same state directory (and vice versa)
        self.jobs = JobStore(
            Path(state_dir) / "jobs",
            backend=self.state_backend,
            worker_index=worker_index,
            worker_count=self.worker_count,
        )
        self._job_threads: Dict[str, threading.Thread] = {}
        self._job_threads_lock = threading.Lock()
        #: the federated model registry: a digest-verified local mirror
        #: plus publish/ingest.  (`self.registry` below is the *metrics*
        #: registry — a historical name this attribute must not shadow.)
        self.models_registry = ModelRegistry(
            MirrorStore(
                Path(state_dir) / "registry", backend=self.state_backend
            ),
            publisher=server_name,
        )
        #: optional resolution-chain bookkeeping: federation wiring
        #: (tests, benchmarks, `federate`) installs a RegistryResolver
        #: here so /healthz and /status can report recent outcomes
        self.model_resolver: Optional[RegistryResolver] = None
        self.libraries: List[Library] = [
            build_default_library(),
            build_system_library(),
            build_macro_library(),
        ]
        # -- observability ----------------------------------------------
        self.started_at = time.time()
        self.registry = get_registry()
        self._access = get_logger("web.access")
        #: per-application request IDs — echoed as X-PowerPlay-Request
        #: on every response and cited in the access log, so a log line,
        #: a trace, and a client-side error join on one key
        self._request_ids = itertools.count(1)
        self._requests = self.registry.counter(
            "powerplay_http_requests_total",
            "HTTP requests routed, by method and (normalized) route.",
            ("method", "route"),
        )
        self._responses = self.registry.counter(
            "powerplay_http_responses_total",
            "HTTP responses, by status class (2xx/3xx/4xx/5xx).",
            ("status_class",),
        )
        self._latency = self.registry.histogram(
            "powerplay_http_request_seconds",
            "Request handling latency in seconds, per route.",
            ("route",),
        )
        self._uptime = self.registry.gauge(
            "powerplay_uptime_seconds",
            "Seconds since this Application was constructed.",
        )
        # pre-register the resilience/session families so `/metrics` is
        # complete (HELP/TYPE lines) even before the first degradation
        _metric_retries()
        _metric_circuit_state()
        _metric_circuit_transitions()
        _metric_cache()
        _metric_sessions()
        _metric_ops()
        _metric_integrity()
        _metric_sync()
        self.registry.counter(  # mirrors registry.resolve._metric_resolutions
            "powerplay_registry_resolutions_total",
            "Model resolutions through the registry chain, by outcome "
            "(local, live, stale, mirror, failed).",
            ("outcome",),
        )
        self._health_gauge = self.registry.gauge(
            "powerplay_health_state",
            "Server health: 0=ok, 1=degraded, 2=failing (the /healthz "
            "verdict, continuously exported).",
        )
        self.registry.counter(
            "powerplay_faults_injected_total",
            "Faults injected by FaultPlan, by kind.",
            ("kind",),  # declared here too: importing .faults would cycle
        )
        # -- fleet telemetry plane ---------------------------------------
        #: SLO burn-rate tracker + flight recorder; ``telemetry=False``
        #: strips both so bench_fleet.py can measure their exact cost
        self.slo_tracker: Optional[SLOTracker] = (
            SLOTracker() if telemetry else None
        )
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder(snapshot_dir=Path(state_dir) / "flight")
            if telemetry
            else None
        )
        if telemetry:
            obs_recorder.install_trace_hook()
        #: SLO evaluation is rate-limited on the request path (the
        #: ops endpoints always evaluate fresh via force=True)
        self._slo_eval_interval_s = 1.0
        self._slo_last_eval = float("-inf")
        self._slo_guard = threading.Lock()
        #: peer scraper — installed by :meth:`configure_fleet`; /fleet
        #: without one shows just this node
        self.fleet: Optional[obs_fleet.FleetScraper] = None
        # -- durable telemetry history -----------------------------------
        #: installed by :meth:`attach_history`; without it /history and
        #: /api/history/query answer 404 and nothing touches the disk
        self.history: Optional[obs_history.HistoryStore] = None
        self.history_recorder: Optional[obs_history.HistoryRecorder] = None
        #: fleet peer summaries ride along every Nth history round (a
        #: full scrape per 5s tick would hammer the peers); the latest
        #: summary is cached and re-emitted so rounds stay self-contained
        self._history_fleet_every = 12
        self._history_rounds = 0
        self._history_fleet_state: Dict[str, Dict[str, object]] = {}

    # -- lookups ------------------------------------------------------------

    def visible_libraries(self, user: str) -> List[Library]:
        session = self.users.session(user)
        result = list(self.libraries)
        if len(session.user_library):
            result.append(session.user_library)
        return result

    def find_entry(self, user: str, name: str) -> LibraryEntry:
        for library in reversed(self.visible_libraries(user)):
            if name in library:
                return library.get(name)
        raise WebError(f"no library entry named {name!r}")

    def find_entry_anywhere(self, name: str) -> LibraryEntry:
        """Entry lookup for the unauthenticated API (shared libraries)."""
        for library in self.libraries:
            if name in library:
                return library.get(name)
        raise WebError(f"no shared library entry named {name!r}")

    # -- concurrency ----------------------------------------------------------

    def user_lock(self, user: str) -> threading.RLock:
        """The lock serializing requests for one (validated) username."""
        with self._user_locks_guard:
            lock = self._user_locks.get(user)
            if lock is None:
                lock = self._user_locks[user] = threading.RLock()
            return lock

    # -- dispatch --------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        form: Optional[Mapping[str, str]] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Response:
        """Route one request.  ``path`` may include a query string.

        Every request — including the error paths — is measured: a
        per-route request counter, a status-class counter, a latency
        histogram sample, and one structured access-log line citing the
        request ID echoed in the ``X-PowerPlay-Request`` header.

        ``headers`` (the request headers, when a transport supplies
        them) feeds cross-server tracing: a valid ``X-PowerPlay-Trace``
        makes this request's span a child of the remote caller's span,
        and the finished span is returned in ``X-PowerPlay-Span`` so
        the caller can graft it into its own trace.  A malformed or
        oversized trace header is ignored — never an error.
        """
        started = time.perf_counter()
        parsed = urllib.parse.urlsplit(path)
        route = parsed.path.rstrip("/") or "/"
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        data: Dict[str, str] = dict(query)
        data.update(form or {})
        label = route_label(route)
        request_id = f"req-{next(self._request_ids):08x}"
        context = propagate.extract_context(headers)
        handled: Optional[Span] = None
        with traced(
            "http_request",
            context,
            method=method.upper(),
            route=label,
            request=request_id,
        ) as sp:
            if isinstance(sp, Span):
                handled = sp
            try:
                response = self._dispatch_serialized(
                    method.upper(), route, data
                )
            except (WebError, SessionError) as exc:
                response = Response(
                    status=400,
                    body=pages.H.error_page("PowerPlay error", str(exc)),
                )
            except PowerPlayError as exc:
                response = Response(
                    status=422,
                    body=pages.H.error_page("Model error", str(exc)),
                )
            except Exception:  # noqa: BLE001 - last-resort: page, no traceback
                response = Response(
                    status=500,
                    body=pages.H.error_page(
                        "Server error",
                        "PowerPlay hit an internal error handling this "
                        "request; the details have been kept server-side. "
                        "Please retry or start over from the front page.",
                    ),
                )
        duration = time.perf_counter() - started
        response.headers.setdefault(propagate.REQUEST_HEADER, request_id)
        if context is not None and handled is not None:
            # the caller asked for this span: hand the finished subtree
            # back so the federated trace is one tree, not two halves
            encoded = propagate.encode_span_header(handled)
            if encoded:
                response.headers.setdefault(propagate.SPAN_HEADER, encoded)
        self._requests.inc(method=method.upper(), route=label)
        self._responses.inc(status_class=f"{response.status // 100}xx")
        self._latency.observe(duration, route=label)
        if self.recorder is not None:
            # the tracer's root hook stashed this request's finished
            # span tree (when tracing is on); consume it either way so
            # the stash can never leak across requests on a thread
            root = obs_recorder.consume_root()
            alerts: Tuple[str, ...] = ()
            if self.slo_tracker is not None:
                self._maybe_evaluate_slos()
                alerts = tuple(
                    name
                    for name, state in sorted(
                        self.slo_tracker.states().items()
                    )
                    if state != "ok"
                )
            self.recorder.record(
                route=label,
                method=method.upper(),
                status=response.status,
                duration_ms=duration * 1e3,
                request_id=request_id,
                trace_id=root.trace_id if root is not None else "",
                user=data.get("user", ""),
                spans=root.to_payload() if root is not None else None,
                alerts=alerts,
            )
        self._access.info(
            "request",
            method=method.upper(),
            path=parsed.path,
            route=label,
            status=response.status,
            duration_ms=round(duration * 1e3, 3),
            user=data.get("user", ""),
            request=request_id,
        )
        return response

    def _dispatch_serialized(
        self, method: str, route: str, data: Dict[str, str]
    ) -> Response:
        """Route one request, holding the named user's lock if any.

        Requests that carry a (syntactically valid) ``user`` are
        serialized per user: the handlers below read-modify-write the
        session's designs, defaults and library, and without this two
        concurrent PLAYs could interleave scope edits with evaluation,
        or two saves could race a check-then-add.  Requests naming an
        invalid user skip the lock — they fail in validation anyway.
        """
        user = data.get("user", "")
        try:
            user = validate_username(user) if user else ""
        except SessionError:
            user = ""
        if user:
            with self.user_lock(user):
                return self._dispatch(method, route, data)
        return self._dispatch(method, route, data)

    def _dispatch(self, method: str, route: str, data: Dict[str, str]) -> Response:
        if route == "/":
            return Response(body=pages.login_page())
        if route == "/login" and method == "POST":
            return self._login(data)
        if route == "/password" and method == "POST":
            return self._set_password(data)
        if route == "/menu":
            return self._menu(data)
        if route == "/library":
            return self._library(data)
        if route == "/cell" and method == "GET":
            return self._cell_form(data)
        if route == "/cell" and method == "POST":
            return self._cell_compute(data)
        if route == "/cell/save" and method == "POST":
            return self._cell_save(data)
        if route == "/design" and method == "GET":
            return self._design_sheet(data)
        if route == "/design/analysis" and method == "GET":
            return self._design_analysis(data)
        if route == "/design" and method == "POST":
            return self._design_play(data)
        if route == "/design/new" and method == "POST":
            return self._design_new(data)
        if route == "/design/load_example" and method == "POST":
            return self._design_load_example(data)
        if route == "/define" and method == "GET":
            user = self._user(data)
            return Response(
                body=pages.define_model_page(user, auth=self._auth_token(user))
            )
        if route == "/define" and method == "POST":
            return self._define_model(data)
        if route == "/sweep" and method == "GET":
            return self._sweep_form(data)
        if route == "/sweep" and method == "POST":
            return self._sweep_submit(data)
        if route == "/sweep/job" and method == "GET":
            return self._sweep_job_status(data)
        if route == "/sweep/result" and method == "GET":
            return self._sweep_result(data)
        if route == "/sweep/cancel" and method == "POST":
            return self._sweep_cancel(data)
        if route == "/export/design":
            return self._export_design(data)
        if route == "/export/library":
            return self._export_library(data)
        if route == "/api/library.json":
            return self._api_library(data)
        if route == "/api/model":
            return self._api_model(data)
        if route == "/api/design":
            return self._export_design(data)
        if route == "/agent/estimate":
            return self._agent_estimate(data)
        if route == "/api/ping":
            return Response.json({"server": self.server_name, "protocol": "powerplay/1"})
        if route == "/metrics":
            return self._metrics_exposition()
        if route == "/status":
            return self._status_page()
        if route == "/healthz":
            return self._healthz()
        if route == "/fleet":
            return self._fleet_endpoint(data)
        if route == "/history":
            return self._history_endpoint(data)
        if route == "/api/history/query":
            return self._api_history_query(data)
        if route == "/debug/flight":
            return self._flight_endpoint(data)
        if route == "/registry":
            return self._registry_page()
        if route == "/api/registry/catalog.json":
            return self._api_registry_catalog()
        if route == "/api/registry/artifact":
            return self._api_registry_artifact(data)
        if route == "/api/registry/publish" and method == "POST":
            return self._api_registry_publish(data)
        if route == "/api/registry/sync" and method == "POST":
            return self._api_registry_sync(data)
        if route == "/trace":
            return self._trace_endpoint(data)
        if route == "/profile":
            return self._profile_endpoint(data)
        if route.startswith("/doc/cell/"):
            return self._doc_cell(route.rsplit("/", 1)[-1], data)
        if route == "/doc/models":
            return Response(body=pages.help_page())
        if route == "/tutorial":
            return Response(body=pages.tutorial_page())
        if route == "/help":
            return Response(body=pages.help_page())
        return Response.not_found(f"no route for {method} {route}")

    # -- helpers -----------------------------------------------------------

    def _user(self, data: Mapping[str, str]) -> str:
        """Validate the username AND enforce password protection.

        "PowerPlay can provide password-restricted access" — users who
        set a password get a login token, carried in every URL/form
        (cookie-less, as a 1996 CGI application would).  Users without
        a password authenticate by name alone, the paper's default.
        """
        user = validate_username(data.get("user", ""))
        session = self.users.session(user)
        if session.has_password:
            token = data.get("auth", "")
            with self._tokens_lock:
                issued = self._tokens.get(user)
            if not token or issued != token:
                raise SessionError(
                    f"user {user!r} is password-protected — "
                    "log in from the front page"
                )
        return user

    def _auth_token(self, user: str) -> str:
        """The credential suffix value for pages (empty if unprotected)."""
        if self.users.session(user).has_password:
            with self._tokens_lock:
                return self._tokens.get(user, "")
        return ""

    def _param_values(self, data: Mapping[str, str]) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for key, text in data.items():
            if key.startswith("p:"):
                name = key[2:]
                values[name] = parse_float(text)
        return values

    # -- pages ----------------------------------------------------------------

    def _login(self, data: Mapping[str, str]) -> Response:
        try:
            user = validate_username(data.get("user", ""))
        except SessionError as exc:
            return Response(status=400, body=pages.login_page(str(exc)))
        session = self.users.session(user)  # create state on first visit
        if session.has_password:
            if not session.check_password(data.get("password", "")):
                return Response(
                    status=403,
                    body=pages.login_page(
                        f"wrong password for user {user!r}"
                    ),
                )
            token = secrets.token_hex(16)
            with self._tokens_lock:
                self._tokens[user] = token
            return Response.redirect(f"/menu?user={user}&auth={token}")
        return Response.redirect(f"/menu?user={user}")

    def _set_password(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        session.set_password(data.get("password", ""))
        token = secrets.token_hex(16)
        with self._tokens_lock:
            self._tokens[user] = token
        return Response.redirect(f"/menu?user={user}&auth={token}")

    def _menu(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        return Response(
            body=pages.menu_page(
                user,
                self.visible_libraries(user),
                sorted(session.designs),
                EXAMPLES,
                auth=self._auth_token(user),
            )
        )

    def _library(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        libraries = self.visible_libraries(user)
        wanted = data.get("library")
        if wanted:
            libraries = [lib for lib in libraries if lib.name == wanted]
            if not libraries:
                raise WebError(f"no library named {wanted!r}")
        return Response(
            body=pages.library_page(user, libraries, auth=self._auth_token(user))
        )

    def _cell_form(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        name = data.get("name", "")
        entry = self.find_entry(user, name)
        session = self.users.session(user)
        values = session.defaults_for(name)
        return Response(
            body=pages.cell_form_page(
                user, entry, values, designs=sorted(session.designs),
                auth=self._auth_token(user),
            )
        )

    def _compute_result(
        self, entry: LibraryEntry, values: Dict[str, float]
    ) -> Dict[str, str]:
        # declared defaults first, posted values on top — a partial form
        # (or a scripted client) still evaluates
        env: Dict[str, float] = {}
        for parameter in entry.models.parameters:
            if isinstance(parameter.default, (int, float)):
                env[parameter.name] = float(parameter.default)
        env.update(values)
        env.setdefault("VDD", 1.5)
        env.setdefault("f", 2e6)
        power_model = entry.models.power
        result: Dict[str, str] = {}
        power = power_model.power(env)
        result["Power"] = format_eng(power, "W")
        if env.get("f", 0) > 0:
            result["Energy / access"] = format_eng(
                power_model.energy_per_access(env), "J"
            )
        if isinstance(power_model, TemplatePowerModel):
            result["Effective capacitance"] = format_quantity(
                power_model.effective_capacitance(env), "F"
            )
        if entry.models.area is not None:
            result["Active area"] = format_quantity(
                entry.models.area.area(env) * 1e12, "um2"
            )
        if entry.models.timing is not None:
            delay = entry.models.timing.delay(env)
            result["Delay"] = format_quantity(delay, "s")
            result["Max frequency"] = format_quantity(1.0 / delay, "Hz")
        return result

    def _cell_compute(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        name = data.get("name", "")
        entry = self.find_entry(user, name)
        session = self.users.session(user)
        values = self._param_values(data)
        try:
            result = self._compute_result(entry, values)
            error = ""
        except PowerPlayError as exc:
            result = None
            error = str(exc)
        if result:
            session.remember_defaults(name, values)
        return Response(
            body=pages.cell_form_page(
                user,
                entry,
                values,
                result=result,
                designs=sorted(session.designs),
                error=error,
                auth=self._auth_token(user),
            )
        )

    def _cell_save(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        name = data.get("name", "")
        entry = self.find_entry(user, name)
        session = self.users.session(user)
        design_name = data.get("design", "")
        design = session.design(design_name)
        row_name = data.get("row") or name
        if row_name in design:
            raise WebError(
                f"design {design_name!r} already has a row {row_name!r}"
            )
        values = self._param_values(data)
        design.add(row_name, entry.models, params=values, doc=entry.doc)
        session.put_design(design)
        return Response.redirect(
            f"/design?{pages.cred(user, self._auth_token(user))}"
            f"&name={design_name}"
        )

    def _design_sheet(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        name, path = data.get("name", ""), data.get("path", "")
        design = session.resolve(name, path)
        report = cached_evaluate_power(design, cache=self.eval_cache)
        return Response(
            body=pages.design_sheet_page(
                user, design, report, name, path,
                auth=self._auth_token(user),
            )
        )

    def _design_analysis(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        name, path = data.get("name", ""), data.get("path", "")
        design = session.resolve(name, path)
        area = cached_evaluate_area(design, cache=self.eval_cache)
        timing = cached_evaluate_timing(design, cache=self.eval_cache)
        return Response(
            body=pages.design_analysis_page(
                user, design, area, timing, name, path,
                auth=self._auth_token(user),
            )
        )

    def _design_play(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        name, path = data.get("name", ""), data.get("path", "")
        # the edit is journaled before evaluation, so a design that
        # then fails to evaluate (a 422) is still the one on disk
        design, error = session.play(name, path, [
            (key, text) for key, text in data.items()
            if key.startswith(("g:", "p:"))
        ])
        report = cached_evaluate_power(design, cache=self.eval_cache)
        return Response(
            body=pages.design_sheet_page(
                user, design, report, name, path, error,
                auth=self._auth_token(user),
            )
        )

    def _design_new(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        name = (data.get("name") or "").strip()
        if not name:
            raise WebError("design name cannot be empty")
        if name in session.designs:
            raise WebError(f"you already have a design named {name!r}")
        design = Design(name, doc=f"created by {user}")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        session.put_design(design)
        return Response.redirect(
            f"/design?{pages.cred(user, self._auth_token(user))}&name={name}"
        )

    def _design_load_example(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        example = data.get("example", "")
        if example not in EXAMPLES:
            raise WebError(f"unknown example {example!r}")
        design = _build_example(example)
        # deep-copy through the payload so each user owns their instance
        design = design_from_payload(design_to_payload(design))
        base = design.name
        suffix = 0
        while design.name in session.designs:
            suffix += 1
            design.name = f"{base}_{suffix}"
        session.put_design(design)
        return Response.redirect(
            f"/design?{pages.cred(user, self._auth_token(user))}"
            f"&name={design.name}"
        )

    def _define_model(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        name = (data.get("name") or "").strip()
        equation = (data.get("equation") or "").strip()
        if not name or not name.replace("_", "a").isalnum():
            return Response(
                body=pages.define_model_page(
                    user, error=f"bad model name {name!r}",
                    auth=self._auth_token(user),
                )
            )
        if name in session.user_library:
            return Response(
                body=pages.define_model_page(
                    user, error=f"you already defined a model named {name!r}",
                    auth=self._auth_token(user),
                )
            )
        parameters: List[Parameter] = []
        try:
            for pair in (data.get("parameters") or "").split():
                if "=" not in pair:
                    raise WebError(
                        f"parameter {pair!r} must look like name=default"
                    )
                pname, default = pair.split("=", 1)
                parameters.append(Parameter(pname, parse_float(default)))
            model = ExpressionPowerModel(
                name, equation, parameters, doc=data.get("doc", "")
            )
            area_model = None
            timing_model = None
            area_equation = (data.get("area_equation") or "").strip()
            delay_equation = (data.get("delay_equation") or "").strip()
            if area_equation:
                area_model = ExpressionAreaModel(
                    name + "_area", area_equation, parameters
                )
            if delay_equation:
                timing_model = ExpressionTimingModel(
                    name + "_delay", delay_equation, parameters
                )
            # probe-evaluate with defaults so bad equations fail here,
            # on the form, not later inside a design
            probe = {p.name: float(p.default) for p in parameters}
            probe.setdefault("VDD", 1.5)
            probe.setdefault("f", 2e6)
            model.power(probe)
            if area_model is not None:
                area_model.area(probe)
            if timing_model is not None:
                timing_model.delay(probe)
        except PowerPlayError as exc:
            return Response(
                body=pages.define_model_page(
                    user, error=str(exc), auth=self._auth_token(user)
                )
            )
        entry = LibraryEntry(
            name,
            ModelSet(power=model, area=area_model, timing=timing_model),
            category=data.get("category", "other"),
            doc=data.get("doc", ""),
            links=(f"/doc/cell/{name}",),
            proprietary=data.get("proprietary", "no") == "yes",
        )
        session.user_library.add(entry)
        session.save()
        return Response(
            body=pages.define_model_page(
                user, saved=name, auth=self._auth_token(user)
            )
        )

    # -- sweep jobs ----------------------------------------------------------

    def _job_summaries(self, user: str) -> List[dict]:
        """The listed user's jobs, newest first."""
        return [
            job.summary()
            for job in reversed(self.jobs.list_jobs())
            if job.owner == user
        ]

    def _user_job(self, user: str, data: Mapping[str, str]):
        """Fetch a job by id and enforce ownership."""
        job = self.jobs.job(data.get("job", ""))
        if job.owner and job.owner != user:
            raise WebError(
                f"job {job.job_id!r} belongs to user {job.owner!r}"
            )
        return job

    def _start_job_thread(self, job) -> None:
        """Run a sweep job on a daemon thread.

        The job object is its own coordination point: ``run_job`` moves
        it through running -> done/failed/cancelled and checkpoints
        every chunk, so the thread needs no channel back to the request
        that spawned it — status pages just reload the job.
        """

        def runner() -> None:
            try:
                run_job(job)
            except PowerPlayError:
                pass  # already recorded on the job as state=failed
            except Exception:  # noqa: BLE001 - keep the server alive
                get_logger("web.sweep").error(
                    "job runner crashed", job=job.job_id
                )

        thread = threading.Thread(
            target=runner, name=f"sweep-{job.job_id}", daemon=True
        )
        with self._job_threads_lock:
            self._job_threads[job.job_id] = thread
        thread.start()

    @staticmethod
    def _sweep_lines(data: Mapping[str, str], key: str) -> List[str]:
        return [
            line.strip()
            for line in (data.get(key) or "").splitlines()
            if line.strip()
        ]

    @staticmethod
    def _sweep_int(data: Mapping[str, str], key: str, default: int) -> int:
        text = (data.get(key) or "").strip()
        if not text:
            return default
        try:
            return int(text)
        except ValueError:
            raise ExploreError(
                f"{key} must be a whole number, got {text!r}"
            ) from None

    @staticmethod
    def _sweep_float(
        data: Mapping[str, str], key: str, default: float
    ) -> float:
        text = (data.get(key) or "").strip()
        if not text:
            return default
        try:
            return float(text)
        except ValueError:
            raise ExploreError(
                f"{key} must be a number, got {text!r}"
            ) from None

    def _build_job(self, user: str, session, data: Mapping[str, str]):
        """Validate the sweep form and persist a pending job.

        Everything user-typed funnels through the same parsers the CLI
        uses; every malformed field raises :class:`ExploreError`, which
        the submit handler turns into a re-rendered form — never a 500.
        """
        name = data.get("design", "")
        if name.startswith("example:"):
            design = _build_example(name[len("example:"):])
        elif name:
            design = session.design(name)
        else:
            raise ExploreError("pick a design to sweep")
        axes = [parse_axis_spec(spec)
                for spec in self._sweep_lines(data, "axes")]
        if not axes:
            raise ExploreError(
                "give at least one axis (e.g. VDD=1.1:3.3:0.1)"
            )
        coupled = [coupled_from_spec(spec)
                   for spec in self._sweep_lines(data, "couple")]
        derived = []
        for spec in self._sweep_lines(data, "derive"):
            if "=" not in spec:
                raise ExploreError(
                    f"derived objective {spec!r} must look like "
                    "name=expression"
                )
            dname, _, source = spec.partition("=")
            derived.append(DerivedObjective(dname.strip(), source.strip()))
        objectives = tuple(
            part.strip()
            for part in (data.get("objectives") or "power").split(",")
            if part.strip()
        ) or ("power",)
        for objective in objectives:
            if objective not in ("power", "area", "delay"):
                raise ExploreError(
                    f"unknown objective {objective!r}: choose from "
                    "power, area, delay (or add it under 'derive')"
                )
        point_cap = self._sweep_int(data, "point_cap", 0)
        if point_cap > 0:
            space = ParameterSpace(axes, coupled, point_cap=point_cap)
        else:
            space = ParameterSpace(axes, coupled)
        return self.jobs.create(
            design,
            space,
            objectives=objectives,
            derived=derived,
            owner=user,
            workers=self._sweep_int(data, "workers", 1),
            mode=data.get("mode", "serial"),
            chunk_size=self._sweep_int(data, "chunk_size", 16),
            prune=data.get("prune", "no") == "yes",
        )

    def _sweep_form(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        return Response(
            body=pages.sweep_form_page(
                user,
                sorted(session.designs),
                EXAMPLES,
                jobs=self._job_summaries(user),
                auth=self._auth_token(user),
            )
        )

    def _sweep_submit(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        try:
            job = self._build_job(user, session, data)
        except ExploreError as exc:
            # a typo'd range or an exploding grid is the user's input,
            # not a server fault: 400 with the form refilled, never 500
            return Response(
                status=400,
                body=pages.sweep_form_page(
                    user,
                    sorted(session.designs),
                    EXAMPLES,
                    jobs=self._job_summaries(user),
                    values=data,
                    error=str(exc),
                    auth=self._auth_token(user),
                ),
            )
        self._start_job_thread(job)
        return Response.redirect(
            f"/sweep/job?{pages.cred(user, self._auth_token(user))}"
            f"&job={job.job_id}"
        )

    def _sweep_job_status(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        job = self._user_job(user, data)
        return Response(
            body=pages.sweep_job_page(
                user, job.summary(), auth=self._auth_token(user)
            )
        )

    def _sweep_result(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        job = self._user_job(user, data)
        if job.state != "done":
            raise WebError(
                f"job {job.job_id!r} is {job.state} "
                f"({job.done_points}/{job.total_points} points); results "
                "are served once it is done"
            )
        rows = job.result_rows()
        axis_names = list(job.space.axis_names)
        objective_names = job.objective_names
        fmt = data.get("fmt", "")
        if fmt == "csv":
            return Response(
                body=export_csv(rows, axis_names, objective_names),
                content_type="text/csv; charset=utf-8",
            )
        if fmt == "json":
            return Response.json_text(
                export_json(
                    rows,
                    axis_names,
                    objective_names,
                    meta={"job": job.job_id, "design": job.design_name},
                )
            )
        if fmt:
            raise WebError(f"unknown results format {fmt!r}")
        front = pareto_rows(rows, objective_names)
        sensitivity = sensitivity_ranking(
            rows, axis_names, objective=objective_names[0]
        )
        return Response(
            body=pages.sweep_results_page(
                user,
                job.summary(),
                axis_names,
                objective_names,
                front,
                sensitivity,
                total_rows=job.total_points,
                auth=self._auth_token(user),
            )
        )

    def _sweep_cancel(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        job = self._user_job(user, data)
        job.request_cancel()
        return Response.redirect(
            f"/sweep/job?{pages.cred(user, self._auth_token(user))}"
            f"&job={job.job_id}"
        )

    # -- observability endpoints --------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self.started_at

    def _metrics_exposition(self) -> Response:
        """``GET /metrics`` — Prometheus text format, curl-able."""
        self._uptime.set(self.uptime_seconds)
        obs_process.refresh_process_metrics(self.registry)
        self._maybe_evaluate_slos(force=True)
        return Response(
            body=self.registry.render(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # -- fleet telemetry plane ----------------------------------------------

    def _maybe_evaluate_slos(self, force: bool = False):
        """Evaluate SLOs (rate-limited on the hot path) and react.

        Returns the fresh statuses, or ``None`` when the rate limiter
        skipped this call.  Any SLO *transitioning into* ``page``
        forces a flight-recorder snapshot — that file is the first
        thing a responder opens, so it bypasses snapshot rate limits.
        """
        if self.slo_tracker is None:
            return None
        now = time.monotonic()
        with self._slo_guard:
            if (
                not force
                and now - self._slo_last_eval < self._slo_eval_interval_s
            ):
                return None
            self._slo_last_eval = now
        statuses = self.slo_tracker.evaluate()
        paged = [
            status
            for status in statuses
            if status.changed and status.state == "page"
        ]
        if paged and self.recorder is not None:
            self.recorder.snapshot(
                reason="SLO page: "
                + ", ".join(status.slo.name for status in paged),
                trigger="slo_page",
                slo_payload=SLOTracker.payload(statuses),
                force=True,
            )
        return statuses

    def configure_fleet(
        self, peers: Sequence[Tuple[str, str]], timeout: float = 5.0
    ) -> obs_fleet.FleetScraper:
        """Install the peer scraper behind ``/fleet``.

        ``peers`` is ``[(name, base_url), ...]``; this server always
        appears as a local node (no self-scrape over HTTP).
        """
        self.fleet = obs_fleet.FleetScraper(
            peers,
            timeout=timeout,
            local=self._local_fleet_sample,
            local_name=self.server_name,
        )
        return self.fleet

    def _local_fleet_sample(self) -> Tuple[dict, Dict[str, dict]]:
        """(health payload, metrics state) for this very server."""
        self._uptime.set(self.uptime_seconds)
        obs_process.refresh_process_metrics(self.registry)
        return self.health(), self.registry.export_state()

    def _fleet_endpoint(self, data: Mapping[str, str]) -> Response:
        """``GET /fleet`` — per-node and aggregate fleet telemetry.

        ``?fmt=json`` returns the canonical (arrival-order-independent)
        aggregate payload; the default is an HTML dashboard.
        """
        scraper = self.fleet
        if scraper is None:
            scraper = obs_fleet.FleetScraper(
                (),
                local=self._local_fleet_sample,
                local_name=self.server_name,
            )
        report = scraper.scrape()
        if data.get("fmt") == "json":
            return Response.json_text(report.to_json())
        quantiles = report.latency_quantiles()
        node_rows = [
            (
                node.name,
                node.url,
                "up" if node.ok else "down",
                node.health_state,
                node.slo_state,
                node.breaker_state,
                int(node.requests_total()),
                node.error,
            )
            for node in report.nodes
        ]
        return Response(
            body=pages.fleet_page(
                self.server_name,
                report.fleet_state,
                node_rows,
                aggregate_requests=int(report.aggregate_requests_total()),
                reachable=report.reachable,
                total=len(report.nodes),
                quantiles={
                    name: (f"{value * 1e3:.2f} ms" if value else "—")
                    for name, value in quantiles.items()
                },
                skipped=report.skipped,
                duration_ms=report.duration_s * 1e3,
            )
        )

    # -- durable telemetry history -------------------------------------------

    def attach_history(
        self,
        history_dir: Path,
        interval_s: float = 5.0,
        config: Optional[obs_history.HistoryConfig] = None,
        rehydrate: bool = True,
    ) -> obs_history.HistoryRecorder:
        """Open (or create) the history store and wire the recorder.

        Rehydrates the SLO burn windows from what the store remembers
        — a paging condition from before a restart is still burning
        after it.  The recorder is *not* started here: the server
        starts the background thread, tests call ``sample_once``.
        """
        if config is None:
            config = obs_history.HistoryConfig(interval_s=interval_s)
        store = obs_history.HistoryStore(Path(history_dir), config)
        if rehydrate and self.slo_tracker is not None:
            horizon = (
                self.slo_tracker.policy.longest_s + config.interval_s
            )
            samples = store.flat_recent(time.time() - horizon)
            if samples:
                self.slo_tracker.rehydrate(samples)
        self.history = store
        self.history_recorder = obs_history.HistoryRecorder(
            store, self._history_sample, interval_s=config.interval_s,
        )
        return self.history_recorder

    def _history_sample(self) -> Dict[str, Dict[str, object]]:
        """One history round: registry state + cached fleet summaries."""
        self._uptime.set(self.uptime_seconds)
        obs_process.refresh_process_metrics(self.registry)
        self._history_rounds += 1
        if self.fleet is not None and (
            self._history_rounds % self._history_fleet_every == 1
        ):
            self._history_fleet_state = self._fleet_summary_state()
        state = self.registry.export_state()
        state.update(self._history_fleet_state)
        return state

    def _fleet_summary_state(self) -> Dict[str, Dict[str, object]]:
        """Bounded per-node summary series from one peer scrape."""
        from ..obs.metrics import _series_key
        from ..obs.slo import SLO_STATES

        if self.fleet is None:
            return {}
        try:
            report = self.fleet.scrape()
        except Exception as exc:  # noqa: BLE001 - peers must not kill sampling
            self._access.warning("history_fleet_scrape", error=repr(exc))
            return {}
        up: Dict[str, object] = {}
        requests: Dict[str, object] = {}
        slo_state: Dict[str, object] = {}
        for node in report.nodes:
            labels = {"node": node.name}
            up[_series_key("powerplay_fleet_node_up", labels)] = (
                1.0 if node.ok else 0.0
            )
            requests[
                _series_key("powerplay_fleet_node_requests_total", labels)
            ] = float(node.requests_total())
            state = node.slo_state
            slo_state[
                _series_key("powerplay_fleet_node_slo_state", labels)
            ] = float(
                SLO_STATES.index(state) if state in SLO_STATES else 0
            )
        return {
            "powerplay_fleet_node_up": {
                "kind": "gauge", "series": up,
            },
            "powerplay_fleet_node_requests_total": {
                "kind": "counter", "series": requests,
            },
            "powerplay_fleet_node_slo_state": {
                "kind": "gauge", "series": slo_state,
            },
        }

    #: the series surfaced on the /history dashboard: (family, unit)
    _HISTORY_DASHBOARD_SERIES = (
        ("powerplay_http_requests_total", "req (rate/s)"),
        ("powerplay_process_rss_bytes", "bytes"),
        ("powerplay_process_open_fds", "fds"),
        ("powerplay_process_uptime_seconds", "s"),
        ("powerplay_slo_burn_rate", "burn"),
        ("powerplay_fleet_node_up", "up"),
    )

    def _history_endpoint(self, data: Mapping[str, str]) -> Response:
        """``GET /history`` — store stats + sparklines (+ ``fmt=json``)."""
        store = self.history
        if store is None:
            return self._history_disabled(data)
        stats = store.stats()
        if data.get("fmt") == "json":
            return Response.json({
                "server": self.server_name,
                "recording": self.history_recorder is not None,
                "stats": stats,
                "series": store.series_keys(),
            })
        series_rows: List[Tuple[str, str, str, str]] = []
        for family, unit in self._HISTORY_DASHBOARD_SERIES:
            op = "rate" if family.endswith("_total") else "range"
            try:
                result = store.query(family, op=op)
            except obs_history.HistoryError:
                continue
            for entry in result.series:
                points = entry.get("points", [])
                if not points:
                    continue
                values = [value for _, value in points]
                latest = values[-1]
                series_rows.append((
                    str(entry["key"]),
                    format_eng(latest) if latest else "0",
                    unit,
                    obs_history.render_sparkline(values),
                ))
        capacity_rows: List[Tuple[str, str, str, str, str]] = []
        total_workers = 0
        try:
            report = obs_capacity.build_capacity_report(store)
            total_workers = report.total_workers
            for route in report.routes:
                latency = (
                    "—" if route.mean_latency_s is None
                    else f"{route.mean_latency_s * 1e3:.2f} ms"
                )
                capacity_rows.append((
                    route.route,
                    f"{route.rps_peak:.3f}",
                    f"{route.trend_per_hour:+.3f}",
                    latency,
                    str(route.workers),
                ))
        except (obs_history.HistoryError, ValueError):
            pass
        return Response(
            body=pages.history_page(
                self.server_name,
                stats,
                series_rows,
                capacity_rows=capacity_rows,
                total_workers=total_workers,
                recording=self.history_recorder is not None,
            )
        )

    def _api_history_query(self, data: Mapping[str, str]) -> Response:
        """``GET /api/history/query?name=&op=&since=&until=&q=``.

        Label filters arrive as ``l:<label>=<value>`` parameters — the
        same prefix convention the parameter forms use.  The answer is
        the deterministic :meth:`HistoryStore.query` JSON.
        """
        store = self.history
        if store is None:
            return self._history_disabled(data)
        name = (data.get("name") or "").strip()
        labels = {
            key[2:]: value
            for key, value in data.items()
            if key.startswith("l:") and len(key) > 2
        }
        try:
            since = float(data["since"]) if data.get("since") else None
            until = float(data["until"]) if data.get("until") else None
            q = float(data.get("q", "0.95"))
        except ValueError:
            return self._json_error(
                400, "since/until/q must be numbers"
            )
        try:
            result = store.query(
                name,
                labels=labels,
                op=data.get("op", "range"),
                since=since,
                until=until,
                q=q,
            )
        except obs_history.HistoryError as exc:
            return self._json_error(400, str(exc))
        return Response.json_text(result.to_json())

    def _history_disabled(self, data: Mapping[str, str]) -> Response:
        if data.get("fmt") == "json" or "name" in data:
            return self._json_error(
                404,
                "telemetry history is not enabled on this server "
                "(start with --history-dir)",
            )
        return Response.not_found(
            "telemetry history is not enabled on this server — "
            "start it with `repro serve --history-dir DIR`"
        )

    def _flight_endpoint(self, data: Mapping[str, str]) -> Response:
        """``GET /debug/flight`` — the live ring + snapshot inventory.

        ``?fmt=json`` returns the records; ``?limit=N`` bounds them.
        """
        if self.recorder is None:
            return Response.not_found("flight recorder disabled")
        limit: Optional[int] = None
        if data.get("limit", "").isdigit():
            limit = max(1, min(10000, int(data["limit"])))
        payload = self.recorder.to_payload(limit)
        payload["server"] = self.server_name
        if data.get("fmt") == "json":
            return Response.json(payload)
        record_rows = [
            (
                record["seq"],
                record["route"],
                record["method"],
                record["status"],
                f"{record['duration_ms']:.2f} ms",
                record.get("trace_id", ""),
                ",".join(record.get("alerts", [])),
            )
            for record in reversed(payload["records"])
        ]
        return Response(
            body=pages.flight_page(
                self.server_name,
                capacity=payload["capacity"],
                recorded_total=payload["recorded_total"],
                record_rows=record_rows,
                snapshots=payload["snapshots"],
            )
        )

    def _status_page(self) -> Response:
        """``GET /status`` — the same registry, as an HTML dashboard."""
        self._uptime.set(self.uptime_seconds)
        snapshot = self.registry.snapshot()

        def samples(name: str) -> Dict[Tuple[str, ...], float]:
            return snapshot.get(name, {})

        requests_by_route: Dict[str, float] = {}
        for (method, route), count in samples(
            "powerplay_http_requests_total"
        ).items():
            requests_by_route[route] = requests_by_route.get(route, 0) + count
        latency_count = samples("powerplay_http_request_seconds_count")
        latency_sum = samples("powerplay_http_request_seconds_sum")
        latency_hist = self.registry.get("powerplay_http_request_seconds")
        latency_state = (
            latency_hist.state() if isinstance(latency_hist, Histogram) else {}
        )

        def quantile_ms(route: str, q: float) -> str:
            if (route,) not in latency_state:
                return "—"
            value = bucket_quantile(list(zip(
                latency_hist.bounds + (math.inf,), latency_state[(route,)][0]
            )), q)
            return "—" if value is None else f"{value * 1e3:.2f} ms"

        request_rows = []
        for route in sorted(requests_by_route):
            count = latency_count.get((route,), 0.0)
            mean_ms = (
                1e3 * latency_sum.get((route,), 0.0) / count if count else 0.0
            )
            request_rows.append(
                (
                    route,
                    int(requests_by_route[route]),
                    f"{mean_ms:.2f} ms",
                    quantile_ms(route, 0.50),
                    quantile_ms(route, 0.95),
                    quantile_ms(route, 0.99),
                )
            )
        slo_rows = []
        statuses = self._maybe_evaluate_slos(force=True)
        for status in statuses or []:
            slo_rows.append(
                (
                    status.slo.name,
                    status.state,
                    f"{status.burn_rates.get('page_short', 0.0):.2f}",
                    f"{status.burn_rates.get('page_long', 0.0):.2f}",
                    f"{100.0 * status.budget_remaining:.1f}%",
                    int(status.window_total),
                )
            )
        status_rows = [
            (key[0], int(value))
            for key, value in sorted(
                samples("powerplay_http_responses_total").items()
            )
        ]
        circuit_rows = [
            (key[0], _CIRCUIT_WORDS.get(int(value), str(value)))
            for key, value in sorted(samples("powerplay_circuit_state").items())
        ]
        cache_rows = [
            (key[0], int(value))
            for key, value in sorted(
                samples("powerplay_model_cache_total").items()
            )
        ]
        event_rows = [
            ("retries issued", int(sum(
                samples("powerplay_retries_total").values()))),
            ("circuit transitions", int(sum(
                samples("powerplay_circuit_transitions_total").values()))),
            ("faults injected", int(sum(
                samples("powerplay_faults_injected_total").values()))),
            ("stale models served", int(sum(
                samples("powerplay_stale_served_total").values()))),
            ("session saves", int(
                samples("powerplay_session_ops_total").get(("save",), 0))),
            ("sessions quarantined", int(
                samples("powerplay_session_ops_total").get(("quarantine",), 0))),
        ]
        health = self.health()
        store = self.models_registry.store
        registry_rows = [
            ("artifacts mirrored", len(store)),
            ("artifacts quarantined", len(store.quarantined)),
            ("versions pinned", len(store.pinned())),
        ]
        registry_rows += [
            (f"sync {key[0]}", int(value))
            for key, value in sorted(
                samples("powerplay_registry_sync_total").items()
            )
        ]
        resolution_rows = [
            (key[0], int(value))
            for key, value in sorted(
                samples("powerplay_registry_resolutions_total").items()
            )
        ]
        trace_rows = [
            (
                trace.name,
                trace.span_id,
                f"{trace.duration * 1e3:.2f} ms",
                sum(1 for _ in trace.walk()),
            )
            for trace in recent_traces()[-8:]
        ]
        job_rows = [
            (
                job.job_id,
                job.design_name,
                job.state,
                f"{job.done_points}/{job.total_points}",
            )
            for job in self.jobs.list_jobs()
        ]
        return Response(
            body=pages.status_page(
                self.server_name,
                self.uptime_seconds,
                len(self.users.known_users()),
                request_rows,
                status_rows,
                circuit_rows,
                cache_rows,
                event_rows,
                trace_rows,
                job_rows=job_rows,
                registry_rows=registry_rows,
                resolution_rows=resolution_rows,
                health=health["status"],
                slo_rows=slo_rows,
            )
        )

    def _trace_endpoint(self, data: Mapping[str, str]) -> Response:
        """``GET /trace`` — recent root traces, remote subtrees included.

        ``?fmt=json`` exports the span payloads (the same shape the
        ``X-PowerPlay-Span`` header carries), so a trace can be saved,
        diffed, or re-imported; the default is an HTML dashboard of
        rendered trees.
        """
        roots = recent_traces()
        if data.get("fmt") == "json":
            return Response.json(
                {
                    "server": self.server_name,
                    "tracing_enabled": is_enabled(),
                    "traces": [root.to_payload() for root in roots],
                }
            )
        rendered = [
            (
                root.name,
                root.trace_id,
                f"{root.duration * 1e3:.3f} ms",
                sum(1 for _ in root.walk()),
                sum(1 for node in root.walk() if node.remote),
                render_trace(root),
            )
            for root in reversed(roots)
        ]
        return Response(
            body=pages.trace_page(
                self.server_name, is_enabled(), rendered
            )
        )

    def _profile_endpoint(self, data: Mapping[str, str]) -> Response:
        """``GET /profile`` — the trace ring aggregated into a profile.

        Count / total / self / min / max per call path, a top-N
        hot-path table, and a text flamegraph; ``?fmt=json`` exports
        the same aggregation for tooling (the CI artifact shape).
        """
        profile = obs_profile.aggregate(recent_traces())
        top = 20
        if data.get("top", "").isdigit():
            top = max(1, min(200, int(data["top"])))
        if data.get("fmt") == "json":
            payload = obs_profile.profile_payload(profile, top=top)
            payload["server"] = self.server_name
            payload["tracing_enabled"] = is_enabled()
            return Response.json(payload)
        return Response(
            body=pages.profile_page(
                self.server_name,
                is_enabled(),
                profile.count,
                obs_profile.render_profile(profile, top=top),
                obs_profile.render_flamegraph(profile),
            )
        )

    # -- federated registry --------------------------------------------------

    @staticmethod
    def _json_error(status: int, message: str) -> Response:
        return Response(
            status=status,
            body=json.dumps({"error": message}, indent=1),
            content_type="application/json",
        )

    def health(self) -> dict:
        """The /healthz verdict: ok, degraded, or failing.

        *failing*: the mirror cannot persist artifacts, or every recent
        resolution through the chain failed outright.  *degraded*: the
        server is still answering, but from stale caches or mirrors, or
        it has quarantined corrupt state.  The verdict is exported as
        the ``powerplay_health_state`` gauge on every evaluation, so
        ``/metrics`` and ``/healthz`` can never disagree.
        """
        store = self.models_registry.store
        mirror_writable = store.writable()
        quarantined = len(store.quarantined) + len(self.users.quarantined)
        degraded_recent = failed_recent = resolved_recent = 0
        if self.model_resolver is not None:
            counts = self.model_resolver.health_counts()
            degraded_recent = counts.get("stale", 0) + counts.get("mirror", 0)
            failed_recent = counts.get("failed", 0)
            resolved_recent = sum(counts.values())
        slo_payload: Optional[Dict[str, object]] = None
        if self.slo_tracker is not None:
            statuses = self._maybe_evaluate_slos(force=True)
            if statuses is not None:
                slo_payload = SLOTracker.payload(statuses)
        if not mirror_writable or (
            resolved_recent and failed_recent == resolved_recent
        ):
            state = "failing"
        elif degraded_recent or failed_recent or quarantined:
            state = "degraded"
        elif slo_payload is not None and slo_payload["state"] == "page":
            # an SLO page is a *service* problem, not a storage one:
            # the node keeps taking traffic (200), but /healthz admits
            # the error budget is burning
            state = "degraded"
        else:
            state = "ok"
        code = HEALTH_STATES.index(state)
        self._health_gauge.set(code)
        payload: Dict[str, object] = {
            "status": state,
            "code": code,
            "server": self.server_name,
            "backend": self.state_backend.kind,
            "checks": {
                "mirror_writable": mirror_writable,
                "quarantined": quarantined,
                "resolutions_recent": resolved_recent,
                "resolutions_degraded": degraded_recent,
                "resolutions_failed": failed_recent,
                "artifacts_mirrored": len(store),
            },
        }
        if slo_payload is not None:
            payload["slo"] = slo_payload
        if self.worker_index is not None:
            payload["worker"] = {
                "index": self.worker_index,
                "count": self.worker_count,
            }
        return payload

    def _healthz(self) -> Response:
        """``GET /healthz`` — 200 for ok/degraded, 503 for failing.

        Degraded is deliberately 200: a server answering from mirrors
        is the design working, and load balancers must not drain it.
        """
        payload = self.health()
        status = 503 if payload["status"] == "failing" else 200
        return Response(
            status=status,
            body=json.dumps(payload, indent=1, sort_keys=True),
            content_type="application/json",
        )

    def flush(self) -> Dict[str, int]:
        """Persist everything volatile (the graceful-drain hook).

        Artifact and pin writes are already atomic at each operation;
        what can lag are loaded user sessions — and the journaled
        history rounds, which seal into a segment here so a graceful
        stop leaves no active journal behind.  Returns counts so the
        drain path can log what it flushed.
        """
        counts = {"sessions": self.users.flush()}
        if self.history is not None:
            counts["history_sealed"] = (
                1 if self.history.seal() is not None else 0
            )
        self.state_backend.flush()
        return counts

    def _registry_page(self) -> Response:
        catalog = self.models_registry.catalog()
        recent = (
            [report.to_payload() for report in self.model_resolver.recent()]
            if self.model_resolver is not None
            else []
        )
        return Response(
            body=pages.registry_page(
                self.server_name,
                self.health(),
                catalog,
                self.models_registry.store.quarantined,
                self.models_registry.store.pinned(),
                recent,
            )
        )

    def _api_registry_catalog(self) -> Response:
        """``GET /api/registry/catalog.json`` — the subscribe entry point."""
        rows = [
            row for row in self.models_registry.catalog()
            if not row.get("corrupt")
        ]
        return Response.json(
            {
                "format": "powerplay-registry-catalog/1",
                "server": self.server_name,
                "artifacts": rows,
            }
        )

    def _api_registry_artifact(self, data: Mapping[str, str]) -> Response:
        """``GET /api/registry/artifact?kind=&name=[&version=]``."""
        kind = data.get("kind", "entry")
        name = data.get("name", "")
        try:
            validate_kind(kind)
            validate_artifact_name(name)
        except RegistryError as exc:
            return self._json_error(400, str(exc))
        version: Optional[int] = None
        version_text = (data.get("version") or "").strip()
        if version_text:
            try:
                version = int(version_text)
            except ValueError:
                return self._json_error(
                    400, f"version must be an integer, got {version_text!r}"
                )
        try:
            artifact = self.models_registry.get_artifact(kind, name, version)
        except IntegrityError as exc:
            # quarantined on this read — gone until a re-sync restores it
            return self._json_error(404, f"artifact quarantined: {exc}")
        except RegistryError as exc:
            return self._json_error(404, str(exc))
        return Response.json_text(artifact.to_json())

    def _api_registry_publish(self, data: Mapping[str, str]) -> Response:
        """``POST /api/registry/publish`` — a peer pushes one artifact.

        The body is digest-verified before anything lands; a truncated
        or tampered push is rejected and counted, never mirrored.
        """
        text = data.get("artifact", "")
        if not text:
            return self._json_error(400, "missing 'artifact' form field")
        if len(text) > MAX_ARTIFACT_BYTES:
            return self._json_error(
                413,
                f"artifact is {len(text)} bytes "
                f"(limit {MAX_ARTIFACT_BYTES})",
            )
        try:
            artifact = ModelArtifact.from_json(text)
        except IntegrityError as exc:
            _metric_integrity().inc(event="rejected_push")
            return self._json_error(400, f"integrity check failed: {exc}")
        except RegistryError as exc:
            return self._json_error(400, str(exc))
        try:
            ingested = self.models_registry.ingest(artifact)
        except ArtifactConflict as exc:
            return self._json_error(409, str(exc))
        return Response.json(
            {
                "server": self.server_name,
                "ref": artifact.ref,
                "digest": artifact.digest,
                "ingested": ingested,
            }
        )

    def _api_registry_sync(self, data: Mapping[str, str]) -> Response:
        """``POST /api/registry/sync`` — subscribe to a peer, once.

        Mirrors everything the peer has that this server lacks and
        returns the per-artifact :class:`SyncReport`; a flapping peer
        yields a partial report, not an error.
        """
        peer = (data.get("peer") or "").strip()
        if not peer.startswith(("http://", "https://")):
            return self._json_error(400, "peer must be an http(s) URL")
        client = RegistrySyncClient(peer)
        try:
            report = sync_from(self.models_registry, client)
        except (RemoteError, CircuitOpenError, OSError) as exc:
            # the catalog itself was unreachable: nothing to iterate
            return self._json_error(
                502, f"cannot fetch catalog from {peer}: {exc}"
            )
        payload = report.to_payload()
        payload["server"] = self.server_name
        return Response.json(payload)

    # -- export / remote API -----------------------------------------------

    def _export_design(self, data: Mapping[str, str]) -> Response:
        user = self._user(data)
        session = self.users.session(user)
        design = session.design(data.get("name", ""))
        return Response.json_text(design_to_json(design))

    def _export_library(self, data: Mapping[str, str]) -> Response:
        wanted = data.get("library", self.libraries[0].name)
        for library in self.libraries:
            if library.name == wanted:
                return Response.json_text(library.to_json())
        raise WebError(f"no shared library named {wanted!r}")

    def _api_library(self, data: Mapping[str, str]) -> Response:
        merged = Library(
            f"{self.server_name}_shared",
            f"all shared models on {self.server_name}",
        )
        for library in self.libraries:
            merged.merge(library, prefer="theirs")
        return Response.json_text(merged.to_json())

    def _api_model(self, data: Mapping[str, str]) -> Response:
        name = data.get("name", "")
        entry = self.find_entry_anywhere(name)
        if entry.proprietary:
            raise WebError(f"model {name!r} is proprietary")
        return Response.json(entry.to_payload())

    def _agent_estimate(self, data: Mapping[str, str]) -> Response:
        """The Design Agent behind a hyperlink.

        "Models which require tool invocations are implemented through a
        dynamic design-flow manager called the Design Agent, which
        translates the hyperlink request for data into a sequence of
        appropriate tool invocations determined by the chosen design
        context."  GET /agent/estimate?user=..&name=<cell>&target=power
        &context=early&p:...=... returns the value and the invoked
        tool sequence.
        """
        from ..core.model import TemplatePowerModel
        from .agent import default_agent

        user = self._user(data)
        name = data.get("name", "")
        entry = self.find_entry(user, name)
        if not isinstance(entry.models.power, TemplatePowerModel):
            raise WebError(
                f"the agent's quick-estimate path needs a template model; "
                f"{name!r} is a {type(entry.models.power).__name__}"
            )
        target = data.get("target", "power")
        if target not in ("power", "energy_per_access", "switched_capacitance"):
            raise WebError(f"unknown agent target {target!r}")
        context = data.get("context", "early")
        values = self._param_values(data)
        defaults = {
            parameter.name: float(parameter.default)
            for parameter in entry.models.parameters
            if isinstance(parameter.default, (int, float))
        }
        defaults.update(values)
        operating_point = {
            "VDD": defaults.pop("VDD", 1.5),
            "f": defaults.pop("f", 2e6),
        }
        agent = default_agent(context)
        context_data = {
            "model": entry.models.power,
            "parameters": dict(defaults),
            "operating_point": operating_point,
        }
        context_data.update(defaults)
        value, invoked = agent.fulfill(target, context_data)
        return Response.json(
            {
                "model": name,
                "context": context,
                "target": target,
                "value": value,
                "invoked_tools": invoked,
                "operating_point": operating_point,
                "parameters": defaults,
            }
        )

    def _doc_cell(self, name: str, data: Mapping[str, str]) -> Response:
        try:
            entry = self.find_entry_anywhere(name)
        except WebError:
            user = data.get("user")
            if not user:
                raise
            entry = self.find_entry(user, name)
        return Response(body=pages.doc_page(entry))
