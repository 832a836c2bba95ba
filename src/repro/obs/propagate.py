"""Cross-server trace propagation: the PowerPlay federation wire format.

The paper's model libraries "may even live on *remote* servers, fetched
on demand" — so a slow federated ``resolve()`` crosses an HTTP boundary
and, without propagation, its trace stops dead at the socket.  This
module carries trace identity across that boundary, W3C-traceparent
style, over two headers:

``X-PowerPlay-Trace`` (request, requester -> provider)
    ``00-<trace_id>-<span_id>`` — protocol version, the requester's
    32-hex trace ID, and the span ID of the requester's currently open
    span.  The provider's request-handler root span *adopts* this
    context, so both sides of the fetch share one trace.

``X-PowerPlay-Span`` (response, provider -> requester)
    The provider's finished handler span as one line of compact JSON
    (the :meth:`~repro.obs.trace.Span.to_payload` shape).  The
    requester grafts the decoded tree under its local fetch span —
    one hierarchical trace for the whole federated call.

Parsing is defensive on both headers: anything malformed, oversized,
wrongly-charactered or too deep is **ignored**, never an error — a
hostile or buggy peer can at worst opt out of tracing.  Trace and span
IDs are restricted to lowercase hex, so a crafted ID can never smuggle
CR/LF (header injection) into an outbound request.

Every decision is counted in ``powerplay_trace_propagation_total``
(ops: ``inject``, ``extract_ok``, ``extract_ignored``, ``graft``,
``graft_ignored``) so a federation that silently loses trace context is
visible on ``GET /metrics``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .config import STATE
from .metrics import get_registry
from .trace import Span, TRACER

__all__ = [
    "REQUEST_HEADER",
    "SPAN_HEADER",
    "TRACE_HEADER",
    "TraceContext",
    "current_context",
    "decode_span_header",
    "encode_span_header",
    "extract_context",
    "format_trace_header",
    "outbound_headers",
    "parse_trace_header",
    "span_from_payload",
]

#: the propagation headers (request, response, and the log-join key)
TRACE_HEADER = "X-PowerPlay-Trace"
SPAN_HEADER = "X-PowerPlay-Span"
REQUEST_HEADER = "X-PowerPlay-Request"

#: wire-format protocol version (the W3C-traceparent convention)
VERSION = "00"

#: hard ceilings — anything beyond them is ignored, never parsed
MAX_TRACE_HEADER_BYTES = 128
MAX_SPAN_HEADER_BYTES = 16384
MAX_SPAN_NODES = 256
MAX_SPAN_DEPTH = 24
MAX_NAME_LENGTH = 120
MAX_ATTRIBUTES = 32
MAX_ATTRIBUTE_TEXT = 256

_HEX_RE = re.compile(r"[0-9a-f]+\Z")


_counter_cache = (None, None)  # (registry, counter)


def _metric_propagation():
    # resolved once per registry: inject/extract run on every federated
    # request, and the registry's creation lock is not free
    global _counter_cache
    registry = get_registry()
    cached_registry, counter = _counter_cache
    if registry is not cached_registry:
        counter = registry.counter(
            "powerplay_trace_propagation_total",
            "Trace-context propagation operations by outcome.",
            ("op",),
        )
        _counter_cache = (registry, counter)
    return counter


def _is_hex_id(value: object, min_len: int, max_len: int) -> bool:
    """Lowercase-hex-only IDs: the charset check that makes header
    injection through a trace ID structurally impossible.  (``\\Z``,
    not ``$`` — ``$`` would admit a trailing newline.)"""
    return (
        isinstance(value, str)
        and min_len <= len(value) <= max_len
        and _HEX_RE.match(value) is not None
    )


@dataclass(frozen=True)
class TraceContext:
    """The identity one hop of a federated call carries across HTTP."""

    trace_id: str  # 32 lowercase hex chars
    span_id: str   # 1..16 lowercase hex chars (the caller's open span)

    def header_value(self) -> str:
        return f"{VERSION}-{self.trace_id}-{self.span_id}"


def format_trace_header(context: TraceContext) -> str:
    """``TraceContext`` -> the ``X-PowerPlay-Trace`` value."""
    return context.header_value()


def parse_trace_header(value: object) -> Optional[TraceContext]:
    """Parse an ``X-PowerPlay-Trace`` value; ``None`` on *any* problem.

    Malformed, oversized, wrong-version, or wrong-charset headers are
    ignored — the request proceeds untraced rather than erroring.
    """
    if not isinstance(value, str) or not value:
        return None
    if len(value) > MAX_TRACE_HEADER_BYTES:
        _metric_propagation().inc(op="extract_ignored")
        return None
    parts = value.split("-")
    if len(parts) != 3:
        _metric_propagation().inc(op="extract_ignored")
        return None
    version, trace_id, span_id = parts
    if (
        version != VERSION
        or not _is_hex_id(trace_id, 32, 32)
        or not _is_hex_id(span_id, 1, 16)
    ):
        _metric_propagation().inc(op="extract_ignored")
        return None
    _metric_propagation().inc(op="extract_ok")
    return TraceContext(trace_id, span_id)


def extract_context(headers: Optional[Mapping[str, str]]) -> Optional[TraceContext]:
    """Pull a :class:`TraceContext` out of a request-header mapping."""
    if headers is None:
        return None
    value = headers.get(TRACE_HEADER)
    if value is None:  # the transport's headers and plain dicts both .get
        return None
    return parse_trace_header(value)


def current_context() -> Optional[TraceContext]:
    """The context an outbound fetch should carry right now.

    ``None`` when tracing is disabled or no span is open — the fetch
    goes out untraced, exactly as before this layer existed.
    """
    if not STATE.enabled:
        return None
    node = TRACER.current()
    if node is None:
        return None
    trace_id = TRACER.current_trace_id()
    # no re-validation: local IDs are hex by construction (minted as
    # {n:x} or adopted only after parse_trace_header vetted them)
    if not trace_id:
        return None
    return TraceContext(trace_id, node.span_id)


def outbound_headers() -> Dict[str, str]:
    """Headers to add to an outbound fetch (``{}`` when untraced)."""
    context = current_context()
    if context is None:
        return {}
    _metric_propagation().inc(op="inject")
    return {TRACE_HEADER: context.header_value()}


# ---------------------------------------------------------------------------
# the response leg: finished sub-span payloads
# ---------------------------------------------------------------------------


def encode_span_header(node: Span) -> str:
    """A finished span tree as one compact JSON line for
    ``X-PowerPlay-Span``.

    Compact JSON never contains raw newlines (they are escaped), so the
    value is header-safe.  If the full tree exceeds the size ceiling,
    the children are dropped and the root alone is sent with
    ``truncated=true`` — a bounded header beats a complete one.
    """
    encoded = json.dumps(
        node.to_payload(), separators=(",", ":"), sort_keys=True
    )
    if len(encoded) <= MAX_SPAN_HEADER_BYTES:
        return encoded
    stub = dict(node.to_payload())
    stub["children"] = []
    attributes = dict(stub.get("attributes", {}))
    attributes["truncated"] = True
    stub["attributes"] = attributes
    encoded = json.dumps(stub, separators=(",", ":"), sort_keys=True)
    if len(encoded) <= MAX_SPAN_HEADER_BYTES:
        return encoded
    return ""  # pathological attributes: send nothing rather than junk


def span_from_payload(payload: object) -> Optional[Span]:
    """Rebuild a :class:`Span` tree from a ``to_payload()`` dict.

    Every node is validated (types, lengths, counts) and marked
    ``remote``; anything out of shape returns ``None`` for the whole
    tree — a half-trusted subtree is worse than none.
    """
    budget = [MAX_SPAN_NODES]
    return _node_from_payload(payload, 0, budget)


def _node_from_payload(payload: object, depth: int, budget: list) -> Optional[Span]:
    if depth > MAX_SPAN_DEPTH or budget[0] <= 0:
        return None
    if not isinstance(payload, dict):
        return None
    name = payload.get("name")
    span_id = payload.get("span_id")
    duration = payload.get("duration_s")
    attributes = payload.get("attributes", {})
    children = payload.get("children", [])
    if not isinstance(name, str) or not 0 < len(name) <= MAX_NAME_LENGTH:
        return None
    if not isinstance(span_id, str) or not 0 < len(span_id) <= 64:
        return None
    if not isinstance(duration, (int, float)) or duration < 0:
        return None
    if not isinstance(attributes, dict) or len(attributes) > MAX_ATTRIBUTES:
        return None
    if not isinstance(children, list) or len(children) > MAX_SPAN_NODES:
        return None
    budget[0] -= 1
    safe_attributes: Dict[str, object] = {}
    for key, value in attributes.items():
        if not isinstance(key, str) or len(key) > MAX_NAME_LENGTH:
            return None
        if isinstance(value, (int, float, bool)) or value is None:
            safe_attributes[key] = value
        else:
            safe_attributes[key] = str(value)[:MAX_ATTRIBUTE_TEXT]
    node = Span(name, span_id, safe_attributes)
    node.duration = float(duration)
    node.remote = True
    trace_id = payload.get("trace_id", "")
    if isinstance(trace_id, str) and _is_hex_id(trace_id, 32, 32):
        node.trace_id = trace_id
    parent_id = payload.get("parent_id", "")
    if isinstance(parent_id, str) and _is_hex_id(parent_id, 1, 16):
        node.parent_id = parent_id
    for child_payload in children:
        child = _node_from_payload(child_payload, depth + 1, budget)
        if child is None:
            return None
        node.children.append(child)
    return node


def decode_span_header(value: object) -> Optional[Span]:
    """Parse an ``X-PowerPlay-Span`` value; ``None`` on any problem."""
    if not isinstance(value, str) or not value:
        return None
    if len(value) > MAX_SPAN_HEADER_BYTES:
        _metric_propagation().inc(op="graft_ignored")
        return None
    try:
        payload = json.loads(value)
    except (ValueError, RecursionError):
        _metric_propagation().inc(op="graft_ignored")
        return None
    node = span_from_payload(payload)
    if node is None:
        _metric_propagation().inc(op="graft_ignored")
        return None
    _metric_propagation().inc(op="graft")
    return node
