"""Span recording and per-layer attribution for the traced runs.

The wrappers live here, in the benchmark, not in ``src/``: :func:`install`
replaces public functions and methods of the repro modules with timing
(or counting) wrappers.  Each timed call becomes a span
``(id, parent, name, start, end, root, value)`` kept in memory; the
owner writes the list out when the run ends.  A layer's *self* time is
its span's duration minus the time its child spans cover.

Calls made hundreds of times per request (``Expression.evaluate``,
``ParameterScope.resolve``, model ``power``/``breakdown``) are counted,
not timed, so that tracing does not swamp what it measures.  Counts are
kept per root span (one request, or one sweep pass), so work done
outside the measured operations is never attributed to them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set

#: span name -> the per-layer metric its self time is reported under
SPAN_LAYERS = {
    "web.app.handle": "web.app.handle_self",
    "web.session.save": "web.session.save_self",
    "web.session.serialize": "web.session.serialize",
    "state.backend.save": "state.backend.save",
    "core.evalcache.lookup": "core.evalcache.lookup",
    "core.evalcache.fingerprint": "core.evalcache.fingerprint",
    "core.estimator.evaluate": "core.estimator.evaluate",
    "web.pages.render": "web.pages.render",
    "explore.space.point": "explore.space.point",
    "explore.batcheval.evaluate": "explore.batcheval.evaluate",
    "explore.derived": "explore.derived",
    "explore.results.pareto": "explore.results.pareto",
    "explore.pass": "other",
}

#: time layers in report order; ``web.server.transport`` and ``other``
#: are derived from client-side clocks, the rest from span self times
TIME_LAYERS = (
    "web.server.transport",
    "web.app.handle_self",
    "web.session.save_self",
    "web.session.serialize",
    "state.backend.save",
    "core.evalcache.lookup",
    "core.evalcache.fingerprint",
    "core.estimator.evaluate",
    "web.pages.render",
    "explore.space.point",
    "explore.batcheval.evaluate",
    "explore.derived",
    "explore.results.pareto",
    "other",
)

class Recorder:
    """In-memory spans plus per-root call counts."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: root span id -> {count name: n}
        self.root_counts: Dict[int, Dict[str, int]] = {}
        #: root span id -> request id (set by the request-root hook)
        self.request_ids: Dict[int, str] = {}
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: int = 1) -> None:
        """Add to a count of the innermost open root span, if any."""
        counts = getattr(self._local, "counts", None)
        if counts is not None:
            counts[name] = counts.get(name, 0) + amount

    def timed(
        self,
        name: str,
        fn: Callable,
        value: Optional[Callable] = None,
        on_root: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``value(args, result)`` gives the span's number (bytes, rows);
        ``on_root(recorder, span_id, result)`` runs when the span is a
        root, after it closes.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else span_id
            if not stack:
                recorder._local.counts = {}
            stack.append(span_id)
            result, completed = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                completed = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if not stack:
                    recorder.root_counts[span_id] = recorder._local.counts
                    recorder._local.counts = None
                # a span that raised is still recorded, so its children
                # keep a parent and the layers still add up
                number = value(args, result) if completed and value else 0
                recorder.spans.append(
                    (span_id, parent, name, start, end, root, number)
                )
                if completed and on_root is not None and parent == 0:
                    on_root(recorder, span_id, result)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call inside a root span adds to ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- persistence --------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "spans": self.spans,
            "root_counts": {str(k): v for k, v in self.root_counts.items()},
            "request_ids": {str(k): v for k, v in self.request_ids.items()},
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "Recorder":
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        recorder = cls()
        recorder.spans = [tuple(span) for span in payload["spans"]]
        recorder.root_counts = {
            int(k): v for k, v in payload["root_counts"].items()
        }
        recorder.request_ids = {
            int(k): v for k, v in payload["request_ids"].items()
        }
        return recorder


def _patch(owner, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
    setattr(owner, attribute, wrap(getattr(owner, attribute)))


def _power_model_classes() -> Iterable[type]:
    from repro.core.model import PowerModel

    seen: Set[type] = set()
    pending = [PowerModel]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                pending.append(sub)
    return [PowerModel, *sorted(seen, key=lambda c: c.__qualname__)]


class _JsonShim:
    """Stands in for ``json`` inside ``repro.web.session`` so that the
    ``json.dumps`` of a session save is timed as serialization."""

    def __init__(self, recorder: Recorder):
        self.dumps = recorder.timed("web.session.serialize", json.dumps)
        self.loads = json.loads
        self.JSONDecodeError = json.JSONDecodeError


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    # importing the web application pulls in every model family, so the
    # PowerModel subclass walk below sees them all
    import repro.web.app as app_module
    import repro.web.pages as pages_module
    import repro.web.session as session_module
    from repro.core import evalcache
    from repro.core.expressions import Expression
    from repro.core.parameters import ParameterScope
    from repro.explore.batcheval import BatchEvaluator
    from repro.explore.space import DerivedObjective, ParameterSpace
    from repro.obs.propagate import REQUEST_HEADER
    from repro.state.filestate import FileBackend

    timed, counted = recorder.timed, recorder.counted

    def remember_request(rec: Recorder, span_id: int, response) -> None:
        rec.request_ids[span_id] = response.headers.get(REQUEST_HEADER, "")

    _patch(app_module.Application, "handle",
           lambda fn: timed("web.app.handle", fn, on_root=remember_request))

    # a cell compute evaluates one row outside the estimator
    _patch(app_module.Application, "_compute_result",
           lambda fn: counted("rows", fn))

    _patch(session_module.UserStore, "save_session",
           lambda fn: timed("web.session.save", fn))
    _patch(session_module.UserSession, "to_payload",
           lambda fn: timed("web.session.serialize", fn))
    session_module.json = _JsonShim(recorder)
    _patch(FileBackend, "save", lambda fn: timed(
        "state.backend.save", fn, value=lambda args, _r: len(args[3])))

    for name in ("cached_evaluate_power", "cached_evaluate_area",
                 "cached_evaluate_timing"):
        _patch(app_module, name, lambda fn: counted(
            "core.evalcache.lookups", timed("core.evalcache.lookup", fn)))
    _patch(evalcache, "design_fingerprint",
           lambda fn: timed("core.evalcache.fingerprint", fn))

    def rows_of(_args, report) -> int:
        return getattr(report, "evaluated_rows", 0)

    for name in ("evaluate_power", "evaluate_area", "evaluate_timing"):
        _patch(evalcache, name,
               lambda fn: timed("core.estimator.evaluate", fn, value=rows_of))

    for name in ("login_page", "menu_page", "library_page", "cell_form_page",
                 "design_sheet_page", "design_analysis_page"):
        _patch(pages_module, name, lambda fn: timed(
            "web.pages.render", fn, value=lambda _a, page: len(page)))

    for cls in _power_model_classes():
        for method in ("power", "breakdown"):
            if method in cls.__dict__:
                _patch(cls, method,
                       lambda fn, m=method: counted(f"core.model.{m}", fn))
    _patch(Expression, "evaluate",
           lambda fn: counted("core.expressions.evaluate", fn))
    _patch(ParameterScope, "resolve",
           lambda fn: counted("core.parameters.resolve", fn))

    _patch(ParameterSpace, "point", lambda fn: timed("explore.space.point", fn))
    _patch(BatchEvaluator, "evaluate",
           lambda fn: timed("explore.batcheval.evaluate", fn))
    _patch(DerivedObjective, "value", lambda fn: timed("explore.derived", fn))
    # pareto_rows is timed where the benchmark calls it (perfbench.sweep)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: Iterable[tuple], roots: Set[int]) -> Dict[int, Dict[str, float]]:
    """Per root: layer name -> summed self time (seconds), plus the
    per-root ``*.n`` span counts and ``*.value`` sums."""
    spans = [span for span in spans if span[5] in roots]
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, _name, start, end, _root, _value in spans:
        if parent:
            child_time[parent] += end - start
    per_root: Dict[int, Dict[str, float]] = {root: defaultdict(float) for root in roots}
    for span_id, _parent, name, start, end, root, value in spans:
        layer = SPAN_LAYERS[name]
        bucket = per_root[root]
        bucket[layer] += (end - start) - child_time[span_id]
        bucket[f"{name}.n"] += 1
        bucket[f"{name}.value"] += value
    return per_root


def layer_report(
    per_root: Mapping[int, Mapping[str, float]],
    counts: Mapping[int, Mapping[str, int]],
    client: Mapping[int, Mapping[str, float]],
    ops: int,
    total_s: float,
) -> Dict[str, float]:
    """Fold per-root self times and counts into the per-layer metrics.

    ``client`` adds the time layers measured outside the program (root
    -> ``{"web.server.transport": s, "other": s}``).  ``total_s`` is the
    traced end-to-end time the layers must add up to; ``ops`` the
    operations it covers.
    """
    layers: Dict[str, float] = defaultdict(float)
    tally: Dict[str, float] = defaultdict(float)
    for root, bucket in per_root.items():
        for key, amount in bucket.items():
            if key.endswith(".n") or key.endswith(".value"):
                tally[key] += amount
            else:
                layers[key] += amount
        for key, amount in counts.get(root, {}).items():
            tally[key] += amount
        for key, amount in client.get(root, {}).items():
            layers[key] += amount
    attributed = sum(layers.values())
    metrics: Dict[str, float] = {}
    for layer in TIME_LAYERS:
        metrics[f"{layer}_pct"] = 100.0 * layers.get(layer, 0.0) / total_s
    metrics["layer_sum_error_pct"] = 100.0 * (attributed - total_s) / total_s
    metrics["traced_op_ms"] = 1e3 * total_s / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    saves = tally["web.session.save.n"]
    metrics["web.session.saves_per_op"] = saves / ops
    metrics["web.session.save_bytes"] = ratio(
        tally["state.backend.save.value"], tally["state.backend.save.n"])
    evals = tally["core.estimator.evaluate.n"]
    metrics["core.estimator.evals_per_op"] = evals / ops
    metrics["core.estimator.rows_per_eval"] = ratio(
        tally["core.estimator.evaluate.value"], evals)
    rows = tally["core.estimator.evaluate.value"] + tally["rows"]
    metrics["rows_per_op"] = rows / ops
    for name in ("core.model.power", "core.model.breakdown",
                 "core.expressions.evaluate", "core.parameters.resolve"):
        metrics[f"{name}_calls_per_row"] = ratio(tally[name], rows)
    lookups = tally["core.evalcache.lookups"]
    metrics["core.evalcache.hit_ratio"] = ratio(lookups - evals, lookups)
    metrics["web.pages.bytes"] = ratio(
        tally["web.pages.render.value"], tally["web.pages.render.n"])
    memo = tally["memo_hits"] + tally["memo_misses"]
    metrics["explore.batcheval.memo_hit_ratio"] = ratio(tally["memo_hits"], memo)
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def layer_sum_problem(metrics: Mapping[str, float]) -> Optional[str]:
    """Why the layers fail to add up to the traced time, if they do."""
    error = metrics["layer_sum_error_pct"]
    if abs(error) <= 10.0:
        return None
    return (f"layers sum to {error:+.1f}% of the traced end-to-end time "
            "(bound 10%)")
