"""Batch evaluation — many points, few recomputes.

:class:`BatchEvaluator` binds sweep targets onto the slots of one
compiled :class:`~repro.core.plan.Plan`: an override is a slot write
that marks the rows reading that slot dirty, and a point recomputes
only the dirty rows, the rows fed by them, fallback rows (models the
plan cannot compile, such as a macro) and their ancestors'
sums.  A ``VDD2`` step leaves every ``VDD1`` row untouched.

The contract, relied on by the engine and enforced by the equivalence
tests: for any design and override sequence, the objective values are
**bit-identical** to serial :func:`evaluate_power` /
:func:`evaluate_area` / :func:`evaluate_timing` calls under
:func:`~repro.core.estimator.scope_overrides`, and a point fails with
the same exception.  Reused rows hold the exact floats computed
earlier, which a recompute would reproduce.

Sweep targets may be dotted paths (``custom.luminance_chip.lut.bits``)
resolved by :func:`resolve_target` into the owning row scope, so sweeps
reach row-local parameters that top-page overrides cannot shadow.

:meth:`BatchEvaluator.columns` evaluates a whole chunk at once, with
override columns bound to the same slots (see
:meth:`repro.core.plan.Plan.columns`); where it returns, every point
equals :meth:`BatchEvaluator.evaluate`'s, bit for bit.  Given a
product space's axes it validates each axis's values once, and the
plan serves each sub-design or row that reads, of the swept targets,
only some of the axes from a table over those axes.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.design import Design, SubDesign
from ..core.expressions import COLUMN
from ..core.parameters import Parameter, ParameterScope
from ..core.plan import Plan
from ..errors import ExploreError, ParameterError, PowerPlayError

BUILTIN_OBJECTIVES = ("power", "area", "delay")


def check_objectives(objectives: Sequence[str], derived: Sequence = (),
                     axis_names: Sequence[str] = ()) -> None:
    """Refuse an empty objective list, a name that is not built in, and
    a derived objective (anything with a ``name``) named as a built-in
    objective, an axis or an earlier derived objective: its column
    would replace theirs in every row and export."""
    for objective in objectives:
        if objective not in BUILTIN_OBJECTIVES:
            raise ExploreError(
                f"unknown objective {objective!r}: choose from "
                f"{', '.join(BUILTIN_OBJECTIVES)} (or derive it)"
            )
    if not objectives:
        raise ExploreError("need at least one objective")
    taken = dict.fromkeys(BUILTIN_OBJECTIVES, "a built-in objective")
    taken.update(dict.fromkeys(axis_names, "an axis"))
    for objective in derived:
        if objective.name in taken:
            raise ExploreError(
                f"derived objective {objective.name!r} has the name of "
                f"{taken[objective.name]}; give it another name"
            )
        taken[objective.name] = "another derived objective"


def resolve_target(design: Design, target: str) -> Tuple[ParameterScope, str]:
    """Resolve a sweep target into ``(scope, parameter name)``.

    A plain name addresses the design's global scope (like a top-page
    edit; the name may be new there, matching ``grid_search``).  A
    dotted path descends through sub-design rows to an instance row's
    local scope — there the final name must already be visible in the
    scope chain, catching typos before a 10k-point job starts.
    """
    parts = [part for part in target.split(".") if part]
    if not parts:
        raise ExploreError(f"empty sweep target {target!r}")
    if len(parts) == 1:
        return design.scope, parts[0]
    node: Design = design
    for depth, segment in enumerate(parts[:-1]):
        try:
            row = node.row(segment)
        except PowerPlayError:
            raise ExploreError(
                f"sweep target {target!r}: {'.'.join(parts[: depth + 1])!r}"
                f" names no row of design {node.name!r}"
            ) from None
        if isinstance(row, SubDesign):
            node = row.design
            continue
        if depth != len(parts) - 2:
            raise ExploreError(
                f"sweep target {target!r}: row {segment!r} is an instance;"
                " only one parameter segment may follow it"
            )
        name = parts[-1]
        if name not in row.scope:
            raise ExploreError(
                f"sweep target {target!r}: row {segment!r} resolves no "
                f"parameter {name!r}"
            )
        return row.scope, name
    name = parts[-1]
    if name not in node.scope:
        raise ExploreError(
            f"sweep target {target!r}: design {node.name!r} resolves no "
            f"parameter {name!r}"
        )
    return node.scope, name


#: objective name -> plan pass
_PASSES = {"power": "power", "area": "area", "delay": "timing"}


def _validated(declaration: Parameter, column: np.ndarray) -> np.ndarray:
    """``declaration.validate`` at every point, called once for each
    distinct value (by bits, so ``0.0`` and ``-0.0`` stay apart)."""
    keys = column.view(np.int64).tolist()
    checked = {key: declaration.validate(value)
               for key, value in dict(zip(keys, column.tolist())).items()}
    return np.array(list(map(checked.__getitem__, keys)), dtype=np.float64)


class BatchEvaluator:
    """Evaluate many points of one design bit-identically to the
    estimator (see the module docstring).

    The design is evaluated **as compiled at construction**: edits made
    to it afterwards are not seen.  A target that names a parameter its
    scope stores as a float is a plain slot write; one that names a
    formula, or a name new to its scope, shadows what the rows resolved
    at compile time, so the first point with such a target compiles a
    plan with that target bound as a slot (reused for later points).
    """

    def __init__(self, design: Design, objectives: Tuple[str, ...] = ("power",)):
        check_objectives(objectives)
        self.design = design
        self.objectives = tuple(objectives)
        self._passes = tuple(_PASSES[objective] for objective in self.objectives)
        self._plan = Plan(design)
        for kind in self._passes:
            self._plan.root(kind)
        #: structural targets -> the plan binding them
        self._plans: Dict[FrozenSet[Tuple[int, str]], Plan] = {
            frozenset(): self._plan
        }
        #: target string -> (scope, name, declaration, structural)
        self._targets: Dict[
            str, Tuple[ParameterScope, str, Optional[Parameter], bool]
        ] = {}
        #: axis target -> (its values array, those values validated or None)
        self._axes: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        self.hits = 0
        self.misses = 0

    def _bind(self, target: str):
        bound = self._targets.get(target)
        if bound is None:
            scope, name = resolve_target(self.design, target)
            structural = not isinstance(scope._values.get(name), float)
            bound = (scope, name, scope.declaration_for(name), structural)
            self._targets[target] = bound
        return bound

    def _plan_for(self, pins: Sequence[Tuple[ParameterScope, str]]) -> Plan:
        """The plan binding these structural targets as slots."""
        if not pins:
            return self._plan
        key = frozenset((id(scope), name) for scope, name in pins)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = Plan(self.design, pins)
        return plan

    def evaluate(self, overrides: Mapping[str, float]) -> Dict[str, float]:
        """Objective values at one point; the design is left unchanged."""
        writes = []
        pins = []
        for target, value in overrides.items():
            scope, name, declaration, structural = self._bind(target)
            number = float(value)
            if declaration is not None:
                number = declaration.validate(number)
            writes.append((scope, name, number))
            if structural:
                pins.append((scope, name))
        plan = self._plan_for(pins)
        hits, misses = plan.hits, plan.misses
        try:
            totals = plan.point(writes, self._passes)
        finally:
            self.hits += plan.hits - hits
            self.misses += plan.misses - misses
        return dict(zip(self.objectives, totals))

    def _axis(self, target: str, declaration: Optional[Parameter],
              values: np.ndarray) -> Optional[np.ndarray]:
        """An axis's ``values`` validated, once per array; None where
        ``validate`` refuses one of them."""
        held = self._axes.get(target)
        if held is None or held[0] is not values:
            checked = values
            if declaration is not None:
                try:
                    checked = _validated(declaration, values)
                except ParameterError:
                    checked = None
            held = self._axes[target] = (values, checked)
        return held[1]

    def columns(self, overrides: Mapping[str, np.ndarray], count: int,
                axes: Optional[Mapping[str, Tuple[np.ndarray, np.ndarray]]] = None,
                ) -> Dict[str, np.ndarray]:
        """Objective columns at ``count`` points from override columns,
        in one walk of the power pass.

        ``axes`` maps the targets of every axis of a product space to
        ``(values, positions)`` (:meth:`ParameterSpace.axis_grid`): such
        a target's column is its validated ``values`` gathered at
        ``positions``, and the rows and sub-designs that read fewer of
        them than all may be served from the plan's tables
        (:meth:`repro.core.plan.Plan.columns`).  An axis with a value
        ``validate`` refuses is validated per chunk, as every other
        target is.  Raises where a point might not match
        :meth:`evaluate` — an ``area`` or ``delay`` objective, a value
        ``validate`` refuses, any failure in the pass — and then has
        changed nothing.
        """
        if self._passes != ("power",):
            raise ExploreError("area and delay evaluate point by point")
        writes = []
        grid = []
        pins = []
        for target, column in overrides.items():
            scope, name, declaration, structural = self._bind(target)
            axis = axes.get(target) if axes else None
            checked = None if axis is None else self._axis(target, declaration, axis[0])
            if checked is not None:
                grid.append((scope, name, checked, axis[1]))
            else:
                if declaration is not None:
                    column = _validated(declaration, column)
                writes.append((scope, name, column))
            if structural:
                pins.append((scope, name))
        plan = self._plan_for(pins)
        space = math.prod(len(values) for values, _ in axes.values()) if axes else 0
        hits, misses = plan.hits, plan.misses
        try:
            total = plan.columns(writes, count, grid, space)
        finally:  # a table built before a failure stays built
            self.hits += plan.hits - hits
            self.misses += plan.misses - misses
        if type(total) is float:
            total = np.full(count, total)
        elif type(total) is not COLUMN:
            raise ExploreError(f"a power total of type {type(total).__name__}")
        return {"power": total}

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}
