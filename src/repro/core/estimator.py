"""Hierarchical power/area/timing evaluation — the "Play" button.

"When the Play button is pressed power is calculated for the entire
design and the spreadsheet is updated. ... This script calculates the
power for each subcircuit hierarchically (through specified models or
tools) using the parameters that are passed from the top level."

:func:`evaluate_power` compiles a :class:`~repro.core.design.Design`
into an evaluation plan (:mod:`repro.core.plan`: inter-row feeds such
as DC-DC load power and interconnect active area, sub-designs, slot-bound
model terms) and returns the :class:`PowerReport` tree that the
report/web layers render as Figure 2 / Figure 5 style spreadsheets.
Called with a live ``plan`` (the eval cache's), it reports from that
plan instead of compiling one.

Also here: the power-minimization analyses the paper motivates — "it is
important to identify both the major power consumers and the point of
diminishing returns" (:func:`top_consumers`, :func:`coverage`,
:func:`consumers_for_fraction`) and parameter sweeps
(:func:`sweep`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import DesignError, ModelError
from ..obs import Span, span
from .design import Design
from .parameters import ParameterScope, ParamValue


# ---------------------------------------------------------------------------
# Report structures
# ---------------------------------------------------------------------------


@dataclass
class PowerReport:
    """One node of the hierarchical power breakdown.

    ``power`` is in watts and, for inner nodes, equals the sum of the
    children (an invariant the property tests enforce).  ``details``
    carries the per-term split of a leaf's model (EQ 1 terms).
    ``parameters`` snapshots the row-local parameter values that were in
    effect — the spreadsheet's "Parameters" column.
    """

    name: str
    power: float
    kind: str = "instance"  # "instance" | "design"
    doc: str = ""
    quantity: int = 1
    source: str = "modeled"  # provenance: modeled/estimated/datasheet/measured
    parameters: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, float] = field(default_factory=dict)
    children: List["PowerReport"] = field(default_factory=list)
    #: rows evaluated in this subtree (every descendant node: instances
    #: and sub-design rows alike) — recorded by the evaluator so
    #: coverage/top-consumer output can cite how much of the design its
    #: numbers rest on.  0 for a leaf.
    evaluated_rows: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def copy(self) -> "PowerReport":
        """Deep, independent copy of this report subtree.

        The evaluation cache hands out copies so one memoized result can
        serve many requests without a caller's mutation reaching the
        cached original (or another caller's copy).
        """
        return PowerReport(
            name=self.name,
            power=self.power,
            kind=self.kind,
            doc=self.doc,
            quantity=self.quantity,
            source=self.source,
            parameters=dict(self.parameters),
            details=dict(self.details),
            children=[child.copy() for child in self.children],
            evaluated_rows=self.evaluated_rows,
        )

    @property
    def leaf_count(self) -> int:
        """How many leaves (modeled primitives) this subtree covers."""
        return sum(1 for _ in self.leaves())

    def child(self, name: str) -> "PowerReport":
        for node in self.children:
            if node.name == name:
                return node
        raise DesignError(f"report {self.name!r} has no child {name!r}")

    def __getitem__(self, name: str) -> "PowerReport":
        return self.child(name)

    def leaves(self) -> Iterator["PowerReport"]:
        """All leaf nodes, in display order."""
        if self.is_leaf:
            yield self
            return
        for node in self.children:
            yield from node.leaves()

    def flatten(self, prefix: str = "") -> List[Tuple[str, float]]:
        """(hierarchical-path, power) for every leaf."""
        path = f"{prefix}/{self.name}" if prefix else self.name
        if self.is_leaf:
            return [(path, self.power)]
        result: List[Tuple[str, float]] = []
        for node in self.children:
            result.extend(node.flatten(path))
        return result

    def fraction_of(self, total: Optional[float] = None) -> float:
        """This node's share of the (root) total."""
        if total is None or total <= 0:
            return 1.0 if self.power else 0.0
        return self.power / total


@dataclass
class AreaReport:
    """Hierarchical active-area breakdown (m^2).  ``modeled`` is False
    for rows whose library entry carries no area model (they count 0)."""

    name: str
    area: float
    modeled: bool = True
    children: List["AreaReport"] = field(default_factory=list)

    def copy(self) -> "AreaReport":
        return AreaReport(
            name=self.name,
            area=self.area,
            modeled=self.modeled,
            children=[child.copy() for child in self.children],
        )

    def leaves(self) -> Iterator["AreaReport"]:
        if not self.children:
            yield self
            return
        for node in self.children:
            yield from node.leaves()


@dataclass
class TimingReport:
    """Per-row critical-path delays; a design's delay is the max over
    modeled rows (rows compute in parallel at this abstraction)."""

    name: str
    delay: float
    modeled: bool = True
    children: List["TimingReport"] = field(default_factory=list)

    def copy(self) -> "TimingReport":
        return TimingReport(
            name=self.name,
            delay=self.delay,
            modeled=self.modeled,
            children=[child.copy() for child in self.children],
        )

    @property
    def max_frequency(self) -> float:
        if self.delay <= 0:
            raise ModelError(f"{self.name!r}: non-positive delay")
        return 1.0 / self.delay


# ---------------------------------------------------------------------------
# Evaluation: every report comes from a compiled plan
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def scope_overrides(scope: ParameterScope, overrides: Mapping[str, ParamValue]):
    """Temporarily assign parameters in ``scope``, restoring on exit.

    Used by sweeps and macro evaluation so one Design object can be
    re-evaluated under many what-if settings without mutation leaking.
    """
    saved: Dict[str, Tuple[bool, object]] = {}
    for name in overrides:
        had = name in scope.local_names()
        saved[name] = (had, scope.raw(name) if had else None)
    applied: List[str] = []
    try:
        for name, value in overrides.items():
            scope.set(name, value)
            applied.append(name)
        yield scope
    finally:
        # only what was assigned: a rejected value keeps its own error
        for name in applied:
            had, old = saved[name]
            if had:
                scope._values[name] = old  # restore exact stored object
            else:
                scope.unset(name)


def _evaluate(design: Design, overrides, plan, build):
    if plan is not None:
        if overrides or plan.design is not design:
            raise ValueError("a given plan reports its own design, unchanged")
        return build(plan)
    from .plan import Plan  # the plan builds these reports: import late

    if overrides:
        with scope_overrides(design.scope, overrides):
            return build(Plan(design))
    return build(Plan(design))


def evaluate_power(
    design: Design,
    overrides: Optional[Mapping[str, ParamValue]] = None,
    *,
    plan=None,
) -> PowerReport:
    """Hierarchically evaluate a design's power.

    ``overrides`` are applied to the design's global scope for the
    duration of the evaluation (the top-page parameter edits of
    Figure 5).  Without ``plan`` the design is compiled into a fresh
    :class:`~repro.core.plan.Plan`; with one (compiled from ``design``
    and refreshed since its last edit, as the eval cache keeps it) only
    the rows that edit dirtied recompute, and ``overrides`` must be
    empty.

    When tracing is enabled (:mod:`repro.obs`), the whole evaluation
    yields a span tree mirroring the design hierarchy, with row and
    leaf counts recorded on each design node's span; on a given plan it
    holds only the designs and rows that recomputed.
    """
    with span("evaluate_power", design=design.name) as sp:
        report = _evaluate(design, overrides, plan, lambda plan: plan.power_report())
        if isinstance(sp, Span):  # leaf_count walks the whole report
            sp.set(
                rows=report.evaluated_rows,
                leaves=report.leaf_count,
                watts=report.power,
            )
        return report


def evaluate_area(
    design: Design,
    overrides: Optional[Mapping[str, ParamValue]] = None,
    *,
    plan=None,
) -> AreaReport:
    """Hierarchically sum active area over rows that carry area models
    (``overrides`` and ``plan`` as for :func:`evaluate_power`)."""
    with span("evaluate_area", design=design.name) as sp:
        report = _evaluate(design, overrides, plan, lambda plan: plan.area_report())
        sp.set(area_m2=report.area)
        return report


def evaluate_timing(
    design: Design,
    overrides: Optional[Mapping[str, ParamValue]] = None,
    *,
    plan=None,
) -> TimingReport:
    """Critical-path delay: the max over modeled rows, hierarchically
    (``overrides`` and ``plan`` as for :func:`evaluate_power`)."""
    with span("evaluate_timing", design=design.name) as sp:
        report = _evaluate(design, overrides, plan, lambda plan: plan.timing_report())
        sp.set(delay_s=report.delay)
        return report


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


def top_consumers(report: PowerReport, count: int = 5) -> List[Tuple[str, float]]:
    """The ``count`` hottest leaves: (hierarchical path, watts), descending."""
    ranked = sorted(report.flatten(), key=lambda item: item[1], reverse=True)
    return ranked[:count]


def coverage(report: PowerReport) -> List[Tuple[str, float, float]]:
    """Leaves ranked by power with cumulative fraction of total.

    The returned triples are ``(path, watts, cumulative_fraction)`` —
    the raw material for a diminishing-returns plot.
    """
    total = report.power
    ranked = sorted(report.flatten(), key=lambda item: item[1], reverse=True)
    result: List[Tuple[str, float, float]] = []
    running = 0.0
    for path, power in ranked:
        running += power
        fraction = running / total if total > 0 else 0.0
        result.append((path, power, fraction))
    return result


def consumers_for_fraction(
    report: PowerReport, fraction: float = 0.8
) -> List[Tuple[str, float]]:
    """Smallest set of leaves covering ``fraction`` of total power.

    "It is important to identify both the major power consumers and the
    point of diminishing returns" — optimize these rows first.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    selected: List[Tuple[str, float]] = []
    for path, power, cumulative in coverage(report):
        selected.append((path, power))
        if cumulative >= fraction:
            break
    return selected


def sweep(
    design: Design,
    parameter: str,
    values: Sequence[float],
    overrides: Optional[Mapping[str, ParamValue]] = None,
) -> List[Tuple[float, float]]:
    """Evaluate total power across a parameter sweep.

    This is the spreadsheet's what-if loop: "parameters such as
    bit-widths and supply voltages can be varied dynamically".
    Returns ``[(value, watts), ...]``.
    """
    results: List[Tuple[float, float]] = []
    for value in values:
        merged: Dict[str, ParamValue] = dict(overrides or {})
        merged[parameter] = value
        report = evaluate_power(design, overrides=merged)
        results.append((float(value), report.power))
    return results


def compare(
    designs: Sequence[Design],
    overrides: Optional[Mapping[str, ParamValue]] = None,
) -> List[Tuple[str, float]]:
    """Total power of several alternative designs under the same
    overrides — the Figure 1 vs Figure 3 comparison as one call."""
    return [
        (design.name, evaluate_power(design, overrides=overrides).power)
        for design in designs
    ]
