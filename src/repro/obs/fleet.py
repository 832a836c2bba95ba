"""Fleet telemetry: scrape peers' ``/metrics`` + ``/healthz``, merge.

The paper's architecture is many cooperating PowerPlay servers; PR 6
made that federation real.  This module answers "is the *fleet*
healthy?" without ssh: a :class:`FleetScraper` pulls the Prometheus
exposition text and the health JSON from each configured peer over the
same retry/breaker/trace-propagating client the registry sync uses
(one breaker per peer — a dead node is skipped fast and is *visible*
as a breaker state in the dashboard, not a hang), then merges every
node's metrics deterministically:

* counters and histogram series **sum** per series key (label-joined;
  histograms must be bucket-aligned or the merge refuses),
* gauges take the **max** (state-coded gauges: worst node wins),
* nodes merge in sorted-name order, so the aggregate JSON is
  byte-identical no matter which scrape finished first.

The scrape side needs no new peer endpoint: ``parse_exposition`` reads
the standard text format back into the exact shape
:meth:`~repro.obs.metrics.MetricsRegistry.export_state` produces, so
"merge local state with scraped peers" is one code path
(:func:`~repro.obs.metrics.merge_states`).
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .logs import get_logger
from .metrics import (
    _series_key, bucket_quantile, merge_states, parse_series_key,
)
from .trace import span

__all__ = [
    "FleetNode",
    "FleetReport",
    "FleetScraper",
    "family_quantile",
    "parse_exposition",
    "validate_peer_url",
]

_LOG = get_logger("obs.fleet")

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{.*\})?)\s+(\S+)\s*$"
)

#: histogram child-series suffixes, used to map a sample back to its
#: family name (``x_bucket`` belongs to histogram ``x``)
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def validate_peer_url(url: str) -> str:
    """Validate and normalize a peer server's base URL.

    The one rule for every peer this program talks to — fleet peers,
    registry sync peers, and every :class:`~repro.web.client.Browser`:
    an ``http://`` scheme (the client speaks plain HTTP only), a host,
    and a valid port.  Returns the URL with any trailing slash
    stripped.  Raises :class:`ValueError` with a message naming what is
    wrong — a bad ``--peer`` must fail at parse time with a clear error,
    not minutes later as an opaque first-scrape circuit-breaker trip.
    """
    from urllib.parse import urlsplit

    url = (url or "").strip()
    if not url:
        raise ValueError("peer URL is empty")
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        raise ValueError(f"peer URL {url!r} does not parse: {exc}")
    if parts.scheme != "http":
        raise ValueError(f"peer URL {url!r} needs an http:// scheme")
    if not parts.hostname:
        raise ValueError(f"peer URL {url!r} has no host")
    try:
        parts.port  # noqa: B018 - property access raises on bad ports
    except ValueError:
        raise ValueError(f"peer URL {url!r} has an invalid port")
    return url.rstrip("/")


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Prometheus text format -> the ``export_state`` dict shape.

    ``{family name: {"kind": ..., "series": {series key: value}}}``
    with series keys rebuilt canonically (labels re-sorted, values
    re-escaped), so a scraped peer and a local
    :meth:`~repro.obs.metrics.MetricsRegistry.export_state` compare and
    merge key-for-key.  Labels are read with
    :func:`~repro.obs.metrics.parse_series_key`, the grammar every
    series-key reader shares.  Unparseable lines are skipped, not
    fatal — a half-upgraded peer exposing an unknown sample must not
    blind the whole dashboard.
    """
    kinds: Dict[str, str] = {}
    state: Dict[str, Dict[str, object]] = {}
    for raw_line in text.split("\n"):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) >= 4:
                kinds[parts[2]] = parts[3]
                state.setdefault(
                    parts[2], {"kind": parts[3], "series": {}}
                )
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            continue
        try:
            sample_name, labels = parse_series_key(match.group(1))
            value = _parse_number(match.group(2))
        except ValueError:
            continue
        family = sample_name
        if sample_name not in kinds:
            for suffix in _HISTOGRAM_SUFFIXES:
                base = sample_name[: -len(suffix)]
                if sample_name.endswith(suffix) and kinds.get(base) == (
                    "histogram"
                ):
                    family = base
                    break
        entry = state.setdefault(
            family, {"kind": kinds.get(family, "untyped"), "series": {}}
        )
        entry["series"][_series_key(sample_name, labels)] = value  # type: ignore[index]
    return state


def family_quantile(
    family: Mapping[str, object], q: float
) -> Optional[float]:
    """Estimate a quantile from a merged histogram family.

    Sums the ``_bucket`` series across label sets (fleet-wide view) and
    reads them with :func:`~repro.obs.metrics.bucket_quantile`, the
    estimator behind every quantile the plane reports.  Returns
    ``None`` when the family has no observations.  An answer that
    lands in the ``+Inf`` bucket clamps to the highest finite bound.
    """
    if family.get("kind") != "histogram":
        return None
    totals: Dict[float, float] = {}
    for key, value in family.get("series", {}).items():  # type: ignore[union-attr]
        name, labels = parse_series_key(key)
        if name.endswith("_bucket") and "le" in labels:
            bound = float(labels["le"])
            totals[bound] = totals.get(bound, 0.0) + float(value)  # type: ignore[arg-type]
    return bucket_quantile(sorted(totals.items()), q)


@dataclass
class FleetNode:
    """One node's scrape result (or failure)."""

    name: str
    url: str
    ok: bool = False
    error: str = ""
    breaker_state: str = "closed"
    health: Optional[Dict[str, object]] = None
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def health_state(self) -> str:
        if not self.ok or not isinstance(self.health, dict):
            return "unreachable"
        return str(self.health.get("status", "unknown"))

    @property
    def slo_state(self) -> str:
        if not self.ok or not isinstance(self.health, dict):
            return "unknown"
        slo = self.health.get("slo")
        if isinstance(slo, dict):
            return str(slo.get("state", "unknown"))
        return "unknown"

    def requests_total(self) -> float:
        family = self.metrics.get("powerplay_http_requests_total", {})
        return sum(
            float(value)  # type: ignore[arg-type]
            for value in family.get("series", {}).values()  # type: ignore[union-attr]
        )

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "url": self.url,
            "ok": self.ok,
            "error": self.error,
            "breaker": self.breaker_state,
            "health": self.health_state,
            "slo": self.slo_state,
            "requests_total": self.requests_total(),
        }


@dataclass
class FleetReport:
    """Everything one scrape round learned, plus the merged aggregate."""

    nodes: List[FleetNode]
    aggregate: Dict[str, Dict[str, object]]
    skipped: List[str] = field(default_factory=list)  # unmergeable families
    duration_s: float = 0.0

    @property
    def reachable(self) -> int:
        return sum(1 for node in self.nodes if node.ok)

    @property
    def fleet_state(self) -> str:
        """Worst SLO state across reachable nodes (scrape failures are
        surfaced separately as unreachable, not folded into SLO)."""
        order = ("ok", "warn", "page")
        worst = 0
        for node in self.nodes:
            state = node.slo_state
            if state in order:
                worst = max(worst, order.index(state))
        return order[worst]

    def aggregate_requests_total(self) -> float:
        family = self.aggregate.get("powerplay_http_requests_total", {})
        return sum(
            float(value)  # type: ignore[arg-type]
            for value in family.get("series", {}).values()  # type: ignore[union-attr]
        )

    def latency_quantiles(self) -> Dict[str, Optional[float]]:
        family = self.aggregate.get("powerplay_http_request_seconds", {})
        return {
            "p50": family_quantile(family, 0.50),
            "p95": family_quantile(family, 0.95),
            "p99": family_quantile(family, 0.99),
        }

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON shape; serialize with ``sort_keys=True`` and
        the bytes are arrival-order-independent."""
        return {
            "fleet": {
                "state": self.fleet_state,
                "nodes": [node.to_payload() for node in self.nodes],
                "reachable": self.reachable,
                "aggregate": self.aggregate,
                "skipped_families": sorted(self.skipped),
            }
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=1)


class _PeerClient:
    """Breaker + retry guarded scrape transport for one peer."""

    def __init__(self, name: str, url: str, timeout: float):
        # imported here: obs is a foundation layer; repro.web imports
        # obs at module load, so the reverse import must stay lazy
        from ..web.client import Browser
        from ..web.resilience import CircuitBreaker, RetryPolicy

        self.name = name
        self.url = validate_peer_url(url)
        self.browser = Browser(self.url, timeout=timeout)
        self.retry_policy = RetryPolicy()
        self.breaker = CircuitBreaker(name=f"fleet:{self.url}")

    def scrape(self) -> Tuple[Dict[str, object], str]:
        """(health payload, metrics text) — raises on failure."""
        from ..web.resilience import guarded_call

        def fetch() -> Tuple[Dict[str, object], str]:
            metrics_text = self.browser.get_text("/metrics")
            # /healthz is fetched as a page, not JSON: a failing node
            # answers 503 with a JSON body, and that body is the point
            health_page = self.browser.get("/healthz")
            try:
                health = json.loads(health_page.body)
            except json.JSONDecodeError:
                health = {"status": f"http-{health_page.status}"}
            if not isinstance(health, dict):
                health = {"status": "malformed"}
            return health, metrics_text

        return guarded_call(
            fetch, "fleet_scrape_attempt", self.url, self.name,
            self.retry_policy, self.breaker,
        )


class FleetScraper:
    """Scrapes a set of peers and merges their telemetry.

    ``peers`` is ``[(name, base_url), ...]``; names must be unique
    (they key the deterministic merge order).  ``local`` optionally
    names a callable returning ``(health payload, export_state dict)``
    for the hosting server itself, so the dashboard always includes
    the node you asked — even with zero configured peers.
    """

    def __init__(
        self,
        peers: Sequence[Tuple[str, str]],
        timeout: float = 5.0,
        local: Optional[
            Callable[[], Tuple[Dict[str, object], Dict[str, object]]]
        ] = None,
        local_name: str = "self",
        clock: Callable[[], float] = time.monotonic,
    ):
        names = [name for name, _ in peers]
        if len(set(names)) != len(names):
            raise ValueError("fleet peer names must be unique")
        if local is not None and local_name in names:
            raise ValueError(
                f"peer name {local_name!r} collides with the local node"
            )
        self.clients = [
            _PeerClient(name, url, timeout) for name, url in peers
        ]
        self.local = local
        self.local_name = local_name
        self.clock = clock

    def scrape(self) -> FleetReport:
        """One scrape round: every peer once, then one merge."""
        started = self.clock()
        nodes: List[FleetNode] = []
        with span("fleet_scrape", peers=len(self.clients)):
            if self.local is not None:
                node = FleetNode(name=self.local_name, url="(local)")
                try:
                    health, state = self.local()
                    node.ok = True
                    node.health = health
                    node.metrics = state  # type: ignore[assignment]
                except Exception as exc:  # noqa: BLE001 - keep scraping
                    node.error = f"{type(exc).__name__}: {exc}"
                nodes.append(node)
            for client in self.clients:
                node = FleetNode(name=client.name, url=client.url)
                try:
                    health, text = client.scrape()
                    node.ok = True
                    node.health = health
                    node.metrics = parse_exposition(text)
                except Exception as exc:  # noqa: BLE001 - a dead peer
                    # is a *finding*, not a scrape failure
                    node.error = f"{type(exc).__name__}: {exc}"
                node.breaker_state = client.breaker.state
                nodes.append(node)
        nodes.sort(key=lambda item: item.name)
        aggregate, skipped = self._merge(nodes)
        report = FleetReport(
            nodes=nodes,
            aggregate=aggregate,
            skipped=skipped,
            duration_s=self.clock() - started,
        )
        _LOG.info(
            "fleet_scrape",
            nodes=len(nodes),
            reachable=report.reachable,
            state=report.fleet_state,
            duration_ms=round(report.duration_s * 1e3, 1),
        )
        return report

    @staticmethod
    def _merge(
        nodes: Sequence[FleetNode],
    ) -> Tuple[Dict[str, Dict[str, object]], List[str]]:
        """Merge reachable nodes family-by-family (sorted node order).

        A family that refuses to merge (bucket-bound or kind mismatch
        across nodes) is dropped and *named* in ``skipped`` — a partial
        aggregate that admits what it dropped beats a wrong one.
        """
        states = [node.metrics for node in nodes if node.ok]
        skipped: List[str] = []
        try:
            return merge_states(states), skipped
        except ValueError:
            pass
        family_names = sorted(
            {name for state in states for name in state}
        )
        merged: Dict[str, Dict[str, object]] = {}
        for name in family_names:
            partial = [
                {name: state[name]} for state in states if name in state
            ]
            try:
                merged.update(merge_states(partial))
            except ValueError as exc:
                skipped.append(name)
                _LOG.warning(
                    "fleet_merge_skip", family=name, reason=str(exc)
                )
        return merged, skipped
