"""Live evaluation plans — a PLAY recomputes only what its edit dirtied.

Pressing PLAY (or merely re-opening a design sheet) evaluates the whole
hierarchy; under many concurrent users that is the dominant server
cost, and compiling the design into a :class:`~repro.core.plan.Plan`
is most of it.  This module keeps one live plan per design object and
serves :func:`~repro.core.estimator.evaluate_power` /
:func:`~repro.core.estimator.evaluate_area` /
:func:`~repro.core.estimator.evaluate_timing` from it.

Structure key and slot refresh
------------------------------

Every lookup walks the design once (:func:`design_fingerprint`),
hashing what evaluation depends on: row order, quantities, feeds,
provenance, measured overrides, every scope's locally stored names in
store order with formula *sources*, the parent-scope chain above the
root (a sub-design viewed through ``/design?path=...`` inherits values
from its mount point), model objects by class, name and identity, and
the identity of every design, row and scope object.  Each stored float
is only a marker: the key says *that* a name holds a number, not which.

* The key changed: the plan is compiled afresh (a row added, removed or
  replaced, a formula edited, a name set or unset, a quantity or a
  measurement changed, a model swapped).
* The key is unchanged: :meth:`~repro.core.plan.Plan.refresh` re-reads
  every float slot from its scope and marks the steps reading a changed
  one dirty; the next power report recomputes those rows, the rows they
  feed, fallback rows and the sums above them.  Area and timing reports
  come from the same plan's other passes, which recompute every row.
* Nothing changed: a **hit**, served as a copy of that kind's last
  report.

The plan binds every float of every scope the walk visits, read or not,
so a fallback row (a macro, a callable) that reads one at run time is
recomputed when it changes.  A macro's inner design is walked like the
rest: an edit inside it changes a slot no compiled step reads, so the
lookup is no hit and the macro's row, a fallback row, recomputes.  The entry
keeps every object whose identity the key holds, so an ``id()`` can
never be recycled into a false match while the plan lives.

A miss calls the estimator's functions through this module with
``plan=``; reports are returned as **copies**, so callers may mutate
them (the web layer relabels sub-reports) without reaching the plan or
a later report.

The cache is a bounded, thread-safe LRU of designs.  Its lock is held
only to find an entry; each entry has its own lock, so one plan runs on
one thread at a time while other designs evaluate in parallel.  Hits
and misses are counted in the observability registry as
``powerplay_eval_cache_total`` and surfaced on ``GET /metrics``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Union

from ..obs import annotate, get_registry
from .design import Design, SubDesign
from .estimator import (
    AreaReport,
    PowerReport,
    TimingReport,
    evaluate_area,
    evaluate_power,
    evaluate_timing,
)
from .expressions import Expression
from .parameters import ParameterScope
from .plan import Plan

Report = Union[PowerReport, AreaReport, TimingReport]

#: designs held, each with its live plan and last reports
DEFAULT_MAXSIZE = 128


def _metric_eval_cache():
    return get_registry().counter(
        "powerplay_eval_cache_total",
        "Memoized evaluation cache lookups, by kind and result.",
        ("kind", "result"),
    )


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


def _scope_tokens(scope: ParameterScope, out: List[str], pins: list) -> None:
    """A scope's identity, its parent's, and its locals in store order."""
    out.append(f"@{id(scope)}^{id(scope.parent)}")
    pins.append(scope)
    for name, value in scope._values.items():
        if type(value) is float:
            out.append(f"{name}=#")  # the plan re-reads the number
        elif isinstance(value, Expression):
            out.append(f"{name}=~{value.source}")
        else:
            out.append(f"{name}={value!r}")


def _model_tokens(model, out: List[str], pins: list, depth: int) -> None:
    out.append(f"m:{type(model).__name__}:{getattr(model, 'name', '')}:{id(model)}")
    pins.append(model)
    # a macro wraps a live design whose parameters can change under it
    inner = getattr(model, "design", None)
    if isinstance(inner, Design) and depth < 16:
        _design_tokens(inner, out, pins, depth + 1)


def _design_tokens(design: Design, out: List[str], pins: list, depth: int = 0) -> None:
    out.append(f"d{id(design)}:{design.name}:{design.doc}")
    pins.append(design)
    _scope_tokens(design.scope, out, pins)
    for row in design:
        pins.append(row)
        if isinstance(row, SubDesign):
            out.append(f"s{id(row)}:{row.name}:{row.doc}")
            if depth < 16:
                _design_tokens(row.design, out, pins, depth + 1)
            continue
        out.append(
            f"r{id(row)}:{row.name}:{row.quantity}:{row.source}:{row.measured_power!r}"
            f":{','.join(row.power_feeds)}:{','.join(row.area_feeds)}:{row.doc}"
        )
        _scope_tokens(row.scope, out, pins)
        models = row.models
        _model_tokens(models.power, out, pins, depth)
        if models.area is not None:
            _model_tokens(models.area, out, pins, depth)
        if models.timing is not None:
            _model_tokens(models.timing, out, pins, depth)


def design_fingerprint(design: Design, pins: Optional[list] = None) -> str:
    """The structure key: a hash of everything evaluation depends on but
    the stored numbers (see module docstring).  Every object whose
    identity the hash holds is appended to ``pins`` when one is given."""
    tokens: List[str] = []
    pins = [] if pins is None else pins
    _design_tokens(design, tokens, pins)
    # values inherited from above the root (mounted sub-designs)
    scope = design.scope.parent
    while scope is not None:
        _scope_tokens(scope, tokens, pins)
        scope = scope.parent
    digest = hashlib.blake2b("\x1f".join(tokens).encode("utf-8"), digest_size=16)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


class _Entry:
    """One design's live plan, the key and objects it was compiled
    under, and each kind's last report."""

    __slots__ = ("design", "lock", "key", "pins", "plan", "reports")

    def __init__(self, design: Design):
        self.design = design
        self.lock = threading.Lock()
        self.key: Optional[str] = None
        self.pins: list = []
        self.plan: Optional[Plan] = None
        self.reports: Dict[str, Report] = {}

    def compile(self, key: str, pins: list) -> None:
        self.key, self.pins, self.reports = key, pins, {}
        plan = self.plan = Plan(self.design)
        for scope in pins:
            if isinstance(scope, ParameterScope):
                for name, value in scope._values.items():
                    if type(value) is float:
                        plan.slot(scope, name)


class EvaluationCache:
    """Bounded, thread-safe LRU of live plans, one per design object
    (see module docstring)."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        #: id(design) -> entry (which pins the design, so the id is stable)
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def _entry(self, design: Design) -> _Entry:
        with self._lock:
            entry = self._entries.get(id(design))
            if entry is not None:
                self._entries.move_to_end(id(design))
                return entry
            entry = self._entries[id(design)] = _Entry(design)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry

    def _lookup(self, kind: str, design: Design, evaluate: Callable[..., Report]) -> Report:
        entry = self._entry(design)
        with entry.lock:
            pins: list = []
            key = design_fingerprint(design, pins)
            if key != entry.key:
                entry.compile(key, pins)
            elif entry.plan.refresh():
                entry.reports = {}
            report = entry.reports.get(kind)
            hit = report is not None
            if not hit:
                report = entry.reports[kind] = evaluate(design, plan=entry.plan)
            result = report.copy()
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        _metric_eval_cache().inc(kind=kind, result="hit" if hit else "miss")
        if hit:
            annotate("eval_cache_hit", kind=kind, design=design.name)
        return result

    # -- public lookups ----------------------------------------------------

    def power(self, design: Design) -> PowerReport:
        return self._lookup("power", design, evaluate_power)

    def area(self, design: Design) -> AreaReport:
        return self._lookup("area", design, evaluate_area)

    def timing(self, design: Design) -> TimingReport:
        return self._lookup("timing", design, evaluate_timing)


#: process-wide default — what the web application and CLI use
DEFAULT_CACHE = EvaluationCache()


def cached_evaluate_power(
    design: Design, cache: Optional[EvaluationCache] = None
) -> PowerReport:
    """Drop-in for :func:`evaluate_power` backed by the default cache."""
    # `cache is None`, not `cache or ...`: __len__ makes an EMPTY cache
    # falsy, and an empty explicit cache must still be the one used
    return (DEFAULT_CACHE if cache is None else cache).power(design)


def cached_evaluate_area(
    design: Design, cache: Optional[EvaluationCache] = None
) -> AreaReport:
    """Drop-in for :func:`evaluate_area` backed by the default cache."""
    return (DEFAULT_CACHE if cache is None else cache).area(design)


def cached_evaluate_timing(
    design: Design, cache: Optional[EvaluationCache] = None
) -> TimingReport:
    """Drop-in for :func:`evaluate_timing` backed by the default cache."""
    return (DEFAULT_CACHE if cache is None else cache).timing(design)
