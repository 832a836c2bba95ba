"""Counters, gauges and histograms with Prometheus text exposition.

A :class:`MetricsRegistry` is a named collection of metrics; the
process-wide default (:func:`get_registry`) is what the instrumented
code increments and what ``GET /metrics`` renders.  Everything is
in-memory, thread-safe, and dependency-free; the exposition follows the
Prometheus text format (version 0.0.4) so any scraper — or ``curl`` —
can read it::

    # HELP powerplay_http_requests_total HTTP requests routed.
    # TYPE powerplay_http_requests_total counter
    powerplay_http_requests_total{method="GET",route="/menu"} 4

Metrics always count, even in no-op observability mode: an increment is
a dict update under a small lock, cheaper than a feature flag would be
worth, and it means ``/metrics`` is truthful from process start.

Labels are declared per metric (``labelnames``) and passed as keyword
arguments to ``inc``/``set``/``observe``; a metric with no labels has a
single implicit series.  Histograms use fixed cumulative buckets (the
Prometheus convention) chosen at creation.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "get_registry",
    "merge_states",
    "parse_series_key",
]

#: seconds — tuned for "virtually instantaneous" request handling
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

LabelKey = Tuple[str, ...]


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _series_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical series identity: ``name{label="value",...}``.

    Exactly the exposition-format series string (labels sorted), so the
    same key identifies the same series whether it came from a local
    registry (:meth:`MetricsRegistry.export_state`) or from parsing a
    peer's ``/metrics`` text — which is what makes fleet merging a
    plain dict-join.
    """
    if labels:
        inner = ",".join(
            f'{key}="{_escape_label(str(val))}"'
            for key, val in sorted(labels.items())
        )
        return f"{name}{{{inner}}}"
    return name


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`_series_key`: ``name{a="b"}`` -> ``(name, {a: b})``.

    The history store and query layer address series by their canonical
    exposition string; label-subset selection needs the parts back.
    Raises :class:`ValueError` on malformed keys (unbalanced braces,
    unterminated quotes) — corrupt segment data must not parse silently.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed series key: {key!r}")
    name = key[:brace]
    inner = key[brace + 1:-1]
    labels: Dict[str, str] = {}
    index = 0
    while index < len(inner):
        eq = inner.find('="', index)
        if eq < 0:
            raise ValueError(f"malformed series key: {key!r}")
        label = inner[index:eq]
        index = eq + 2
        out: List[str] = []
        while True:
            if index >= len(inner):
                raise ValueError(f"malformed series key: {key!r}")
            char = inner[index]
            if char == "\\":
                if index + 1 >= len(inner):
                    raise ValueError(f"malformed series key: {key!r}")
                nxt = inner[index + 1]
                out.append({"n": "\n"}.get(nxt, nxt))
                index += 2
            elif char == '"':
                index += 1
                break
            else:
                out.append(char)
                index += 1
        labels[label] = "".join(out)
        if index < len(inner):
            if inner[index] != ",":
                raise ValueError(f"malformed series key: {key!r}")
            index += 1
    return name, labels


def bucket_quantile(
    cumulative: Sequence[Tuple[float, float]], q: float,
) -> Optional[float]:
    """Prometheus ``histogram_quantile`` over cumulative bucket counts.

    ``cumulative`` is ``[(upper bound, observations <= bound), ...]``
    sorted by bound with ``+Inf`` last, the shape the exposition text
    carries.  The estimate interpolates linearly inside the first
    non-empty bucket whose count reaches rank ``q x total``, starting
    from that bucket's lower bound (the previous bound; 0 for the
    first).  A rank in the ``+Inf`` bucket clamps to the highest finite
    bound.  ``None`` when there are no observations or no finite bound.
    Every quantile the telemetry plane reports comes from here.
    """
    total = cumulative[-1][1] if cumulative else 0
    if total <= 0 or cumulative[0][0] == math.inf:
        return None
    rank = q * total
    seen = 0
    lower = 0.0
    for bound, count in cumulative:
        if bound == math.inf:
            break
        if count >= rank and count > seen:
            return lower + (bound - lower) * ((rank - seen) / (count - seen))
        seen, lower = count, bound
    return lower


class _Metric:
    """Shared bookkeeping: name, help text, declared label names."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str]):
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> LabelKey:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _labels_of(self, key: LabelKey) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))

    def header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def render(self) -> List[str]:
        """Exposition lines: the header, then one line per sample."""
        return self.header() + [
            f"{key} {_format_value(value)}"
            for key, value in self.export_samples()
        ]

    def reset(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def export_samples(self) -> List[Tuple[str, float]]:
        """``[(series key, value), ...]`` in deterministic order.

        Histograms expand to their ``_bucket``/``_sum``/``_count``
        series with cumulative bucket counts — the same numbers the
        exposition text carries.
        """
        raise NotImplementedError  # pragma: no cover - overridden


class _Valued(_Metric):
    """One float per label set: the store Counter and Gauge share."""

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help_text, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def export_samples(self) -> List[Tuple[str, float]]:
        with self._lock:
            return [
                (_series_key(self.name, self._labels_of(key)), self._values[key])
                for key in sorted(self._values)
            ]

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Counter(_Valued):
    """A monotonically increasing count (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            return sum(self._values.values())


class Gauge(_Valued):
    """A value that can go anywhere (state codes, queue depths, uptime)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)


class Histogram(_Metric):
    """Fixed-bucket distribution (Prometheus cumulative convention).

    ``observe(v)`` adds to every bucket whose upper bound is >= v plus
    the implicit ``+Inf`` bucket, and accumulates ``_sum``/``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if bounds != sorted(set(bounds)):
            raise ValueError("histogram bucket bounds must be unique")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        #: per label set: [count per finite bucket] + inf count
        self._buckets: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._counts: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._buckets.get(key)
            if counts is None:
                counts = [0] * (len(self.bounds) + 1)
                self._buckets[key] = counts
            # non-cumulative internally; cumulated at render time
            placed = len(self.bounds)  # +Inf slot
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    placed = index
                    break
            counts[placed] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._counts[key] = self._counts.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        return self._counts.get(self._key(labels), 0)

    def sum(self, **labels: object) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def state(self) -> Dict[LabelKey, Tuple[List[int], float, int]]:
        """``{label key: (cumulative bucket counts incl +Inf, sum, count)}``.

        The cumulative view (what the exposition text carries) is what
        consumers want: ``counts[i]`` is the number of observations
        ``<= bounds[i]``, which makes "fraction of requests under the
        SLO threshold" a single division.
        """
        out: Dict[LabelKey, Tuple[List[int], float, int]] = {}
        with self._lock:
            for key, counts in self._buckets.items():
                cumulative: List[int] = []
                running = 0
                for count in counts:
                    running += count
                    cumulative.append(running)
                out[key] = (
                    cumulative,
                    self._sums.get(key, 0.0),
                    self._counts.get(key, 0),
                )
        return out

    def export_samples(self) -> List[Tuple[str, float]]:
        samples: List[Tuple[str, float]] = []
        bucket = f"{self.name}_bucket"
        with self._lock:
            for key in sorted(self._buckets):
                labels = self._labels_of(key)
                cumulative = 0
                for bound, count in zip(
                    self.bounds + (math.inf,), self._buckets[key]
                ):
                    cumulative += count
                    samples.append((
                        _series_key(
                            bucket, {**labels, "le": _format_value(bound)}
                        ),
                        float(cumulative),
                    ))
                samples.append(
                    (_series_key(f"{self.name}_sum", labels), self._sums[key])
                )
                samples.append((
                    _series_key(f"{self.name}_count", labels),
                    float(self._counts[key]),
                ))
        return samples

    def reset(self) -> None:
        with self._lock:
            self._buckets.clear()
            self._sums.clear()
            self._counts.clear()


class MetricsRegistry:
    """A named set of metrics with get-or-create semantics.

    Creation is idempotent: asking twice for the same name returns the
    same object, and asking with a conflicting type or label set is an
    error (a typo'd labelname should fail loudly, not fork a metric).
    """

    def __init__(self, namespace: str = "powerplay"):
        self.namespace = namespace
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- get-or-create ------------------------------------------------------

    def _get_or_create(
        self, cls, name: str, help_text: str, labelnames: Sequence[str], **kwargs
    ):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {tuple(labelnames)}"
                    )
                return existing
            metric = cls(name, help_text, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    # -- introspection ------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Dict[LabelKey, float]]:
        """``{metric name: {label-value tuple: value}}`` for dashboards.

        Histograms contribute ``<name>_count`` and ``<name>_sum``.
        """
        result: Dict[str, Dict[LabelKey, float]] = {}
        for metric in self.metrics():
            if isinstance(metric, _Valued):
                result[metric.name] = metric.samples()
            elif isinstance(metric, Histogram):
                with metric._lock:
                    result[f"{metric.name}_count"] = {
                        key: float(value)
                        for key, value in metric._counts.items()
                    }
                    result[f"{metric.name}_sum"] = dict(metric._sums)
        return result

    def export_state(self) -> Dict[str, Dict[str, object]]:
        """A JSON-able structured snapshot keyed by series identity.

        ``{metric name: {"kind": ..., "series": {series key: value}}}``
        where each series key is the exposition-format series string
        (labels sorted, histograms expanded to ``_bucket``/``_sum``/
        ``_count``).  The same shape comes out of
        :func:`repro.obs.fleet.parse_exposition`, so local state and a
        scraped peer merge through :func:`merge_states` identically.
        """
        state: Dict[str, Dict[str, object]] = {}
        for metric in self.metrics():
            state[metric.name] = {
                "kind": metric.kind,
                "series": dict(metric.export_samples()),
            }
        return state

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self.metrics():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every sample; definitions (and held handles) survive.

        Tests reset the shared registry between scenarios instead of
        re-plumbing a fresh one through every instrumented module.
        """
        for metric in self.metrics():
            metric.reset()


def _bucket_bounds_of(family: Mapping[str, object]) -> Tuple[str, ...]:
    """The sorted set of ``le`` label values a histogram family uses."""
    bounds = {
        parse_series_key(key)[1].get("le", "")
        for key in family.get("series", {})  # type: ignore[union-attr]
    }
    bounds.discard("")
    return tuple(sorted(bounds))


def merge_states(
    states: Iterable[Mapping[str, Mapping[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Deterministically merge :meth:`MetricsRegistry.export_state` dicts.

    Counters and histogram series are *summed* per series key (the
    fleet total is the sum of what each node counted); gauges take the
    *max* (our gauges encode state codes and depths where worst/largest
    wins — a fleet is as unhealthy as its sickest node).  Histograms
    must be bucket-aligned: if two nodes expose the same histogram with
    different bounds, the merge raises ``ValueError`` rather than
    silently producing cumulative counts that mean nothing.

    The caller fixes the iteration order (fleet sorts nodes by name),
    which — together with per-key dict sums — makes the merged dict
    byte-identical under ``json.dumps(sort_keys=True)`` regardless of
    scrape arrival order.
    """
    merged: Dict[str, Dict[str, object]] = {}
    # per histogram: the bounds of the first node that had any
    bounds_seen: Dict[str, Tuple[str, ...]] = {}
    for state in states:
        for name in sorted(state):
            family = state[name]
            kind = str(family.get("kind", "untyped"))
            series = family.get("series", {})
            entry = merged.get(name)
            if entry is None:
                entry = {"kind": kind, "series": {}}
                merged[name] = entry
            elif entry["kind"] != kind:
                raise ValueError(
                    f"metric {name!r} is {entry['kind']} on one node "
                    f"and {kind} on another"
                )
            if kind == "histogram":
                seen = bounds_seen.get(name)
                incoming = _bucket_bounds_of(family)
                if seen and incoming and seen != incoming:
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ "
                        f"across nodes: {seen} vs {incoming}"
                    )
                if not seen:
                    bounds_seen[name] = incoming
            target: Dict[str, float] = entry["series"]  # type: ignore[assignment]
            for key, value in series.items():  # type: ignore[union-attr]
                numeric = float(value)  # type: ignore[arg-type]
                if kind == "gauge":
                    previous = target.get(key)
                    target[key] = (
                        numeric if previous is None else max(previous, numeric)
                    )
                else:
                    target[key] = target.get(key, 0.0) + numeric
    return {
        name: {
            "kind": merged[name]["kind"],
            "series": {
                key: merged[name]["series"][key]  # type: ignore[index]
                for key in sorted(merged[name]["series"])  # type: ignore[arg-type]
            },
        }
        for name in sorted(merged)
    }


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (what ``/metrics`` exposes)."""
    return _REGISTRY
