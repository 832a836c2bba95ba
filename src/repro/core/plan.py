"""The evaluation plan: a design compiled once into slot-bound closures.

Every power, area and timing number comes from here.  :class:`Plan`
mirrors the design hierarchy, each design's rows in feed (topological)
order, with model terms compiled by
:func:`~repro.core.expressions.compile_node` — closures over our own
AST, never ``eval``/``exec``/``compile()`` of text.

* **Slots.**  A parameter read that resolves to a float is bound to the
  ``(scope, name)`` storing it: one register in :attr:`Plan.values`.  A
  read that resolves to a formula is bound to the formula compiled for
  the *reading* scope (formulas resolve from the scope that reads them),
  so each reading row compiles its own copy.  Feeds (``P.<row>``,
  ``P_load``, ``A.<row>``, ``active_area``) are per-row registers.
* **Compiled vs fallback.**  Only the exact classes
  :class:`TemplatePowerModel`, :class:`ExpressionPowerModel`,
  :class:`FixedPowerModel`, :class:`DCDCConverterModel`,
  :class:`ExpressionAreaModel`, :class:`ExpressionTimingModel` and
  :class:`VoltageScaledTimingModel` compile.  Any other model (macro,
  callable, any subclass) is a fallback row: it runs through
  :class:`_RowEnv` as it always did, and is recomputed on every sweep
  point.
* **Bit identity.**  Terms run once, in model order, raising the same
  errors as a tree walk; builtin ``sum()`` is used where a walk summed
  (design totals, EQ 1 terms, area) and ``+=`` where it looped
  (``P_load``, ``active_area``) — from Python 3.12 ``sum()`` of floats
  is compensated, so the two differ.
* **Dirty rows.**  :meth:`Plan.point` writes sweep overrides into slots
  and recomputes only the rows reading a changed slot, rows fed by a
  changed row, fallback rows, and their ancestors' sums.
  :meth:`Plan.refresh` re-reads every slot from its scope after an edit
  and marks the same way, so the next :meth:`Plan.power_report`
  recomputes only what the edit dirtied (the eval cache's live plans).
* **Columns.**  :meth:`Plan.columns` evaluates a whole chunk of sweep
  points in one walk: the swept registers hold columns (float64
  arrays), every closure accepts a float or a column, and sums follow
  :func:`column_sum`.  It raises wherever a point might not match
  :meth:`Plan.point`, and changes nothing that method reads.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import DesignError, EvaluationError, ModelError, ParameterError
from ..models.converter import DCDCConverterModel
from ..obs import span
from .design import Design, SubDesign
from .estimator import AreaReport, PowerReport, TimingReport
from .expressions import (
    COLUMN,
    CONSTANTS,
    Compiled,
    Expression,
    Num,
    all_true,
    any_true,
    compile_node,
    elementwise,
)
from .model import (
    ExpressionAreaModel,
    ExpressionPowerModel,
    ExpressionTimingModel,
    FixedPowerModel,
    TemplatePowerModel,
    VoltageScaledTimingModel,
)
from .parameters import ParameterScope

#: builtin ``sum()`` of floats is Neumaier-compensated from Python 3.12
COMPENSATED_SUM = sys.version_info >= (3, 12)
_FLOAT_OR_COLUMN = {float, COLUMN}


def column_sum(items: Sequence, compensated: bool = COMPENSATED_SUM):
    """Builtin ``sum(items)`` at every point, where items are floats and
    columns.

    ``sum()`` itself would add a column with plain ``+`` and, from
    Python 3.12, silently drop the compensation; this replays the
    interpreter's float loop per point instead: ``0 + x0``, then plain
    left-to-right adds, or with ``compensated`` CPython's Neumaier
    correction and its final step (add the compensation only when it is
    non-zero and finite).  Raises on anything but floats and columns
    mixed with a column (``sum()`` takes ints another way).
    """
    kinds = set(map(type, items))
    if COLUMN not in kinds:
        return sum(items)
    if not kinds <= _FLOAT_OR_COLUMN:
        raise EvaluationError("column sum over a non-float")
    total = 0 + items[0]
    compensation = 0.0
    for item in items[1:]:
        step = total + item
        if compensated:
            compensation = compensation + np.where(
                np.abs(total) >= np.abs(item), (total - step) + item, (item - step) + total)
        total = step
    if compensated:
        total = np.where((compensation != 0) & np.isfinite(compensation),
                         total + compensation, total)
    return total


class _RowEnv(Mapping[str, float]):
    """Instance scope + inter-model extras as one mapping: what a
    fallback model sees."""

    def __init__(self, scope: ParameterScope, extras: Mapping[str, float]):
        self._scope = scope
        self._extras = dict(extras)

    def __getitem__(self, name: str) -> float:
        if name in self._extras:
            return self._extras[name]
        return self._scope[name]

    def __contains__(self, name: object) -> bool:
        return name in self._extras or name in self._scope

    def __iter__(self) -> Iterator[str]:
        yield from self._extras
        for name in self._scope:
            if name not in self._extras:
                yield name

    def __len__(self) -> int:
        return len(set(self._extras) | set(self._scope.names()))


def _differs(old, new) -> bool:
    """Not the same number (``0.0`` and ``-0.0`` differ, NaN always)."""
    if old != new:
        return True
    return old == 0 and math.copysign(1.0, old) != math.copysign(1.0, new)


def _register_value(value):
    """What :meth:`Plan._row` stores in a feed register: ``float(value)``,
    or the column itself."""
    return value if type(value) is COLUMN else float(value)


class _Untraced:
    """Stands in for :func:`~repro.obs.span` on sweep points: they open
    no spans (the engine traces whole chunks)."""

    def __call__(self, label: str, /, **attributes) -> "_Untraced":
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes) -> None:
        pass


_UNTRACED = _Untraced()


def _fail(error, message: str) -> Compiled:
    def fail(values):
        raise error(message)

    return fail


class _Reads:
    """Name binding for one reading scope; records the slots it reads."""

    def __init__(self, plan: "Plan", scope: ParameterScope,
                 extras: Optional[Mapping[str, int]] = None):
        self.plan, self.scope, self.extras = plan, scope, extras or {}
        self.slots: set = set()
        self.formulas: set = set()  # names that resolved to formulas
        self._cache: Dict[tuple, Optional[Compiled]] = {}

    def resolved(self, name: str, path: Tuple[str, ...] = ()) -> Optional[Compiled]:
        """``scope.resolve(name)`` (None where nothing defines ``name``);
        ``path`` holds the formulas being resolved, for cycles."""
        key = (name, path)
        if key in self._cache:
            return self._cache[key]
        found = self.plan._find(self.scope, name)
        if found is None:
            compiled = None
        elif type(found) is int:
            self.slots.add(found)
            compiled = self.plan._reader(found)
        elif name in path:
            chain = " -> ".join(sorted(path)) + f" -> {name}"
            compiled = _fail(ParameterError, f"circular parameter definition: {chain}")
        else:
            self.formulas.add(name)
            compiled = self._formula(name, found, path + (name,))
        self._cache[key] = compiled
        return compiled

    def _formula(self, name: str, formula: Expression, path) -> Compiled:
        body = compile_node(formula.ast, lambda ident: self._inner(ident, path))
        source = formula.source

        def read(values):
            try:
                return body(values)
            except EvaluationError as exc:
                raise ParameterError(
                    f"cannot evaluate parameter {name!r} = {source!r}: {exc}"
                ) from exc

        return read

    def _inner(self, name: str, path) -> Compiled:
        """A name inside a formula: the scope (no extras), the constants."""
        resolve = self.resolved(name, path)
        if resolve is None:
            return self._constant(name)
        if type(self.plan._find(self.scope, name)) is int:
            return resolve

        def read(values):
            try:
                return resolve(values)
            except ParameterError as exc:
                raise EvaluationError(str(exc)) from exc

        return read

    @staticmethod
    def _constant(name: str) -> Compiled:
        if name in CONSTANTS:
            value = float(CONSTANTS[name])
            return lambda values: value
        return _fail(EvaluationError, f"unknown name {name!r}")

    def _visible(self, name: str) -> Optional[Compiled]:
        """Extras first, then the scope; None where neither has ``name``."""
        register = self.extras.get(name)
        if register is not None:
            return self.plan._reader(register)
        return self.resolved(name)

    def name(self, identifier: str) -> Compiled:
        """A name in a model equation: extras, the scope, the constants."""
        return self._visible(identifier) or self._constant(identifier)

    def get(self, name: str, default: Optional[float] = None) -> Compiled:
        """A required model input (``VDD``, ``f``): extras, the scope,
        else ``default``, else a missing-parameter error."""
        found = self._visible(name)
        if found is not None:
            return found
        if default is not None:
            return lambda values: default
        return _fail(ModelError, f"environment is missing required parameter {name!r}")

    def expression(self, expression: Expression, what: str) -> Compiled:
        """An equation whose evaluation errors become model errors."""
        if type(expression.ast) is Num:
            value = expression.ast.value
            return lambda values: value
        body, source = compile_node(expression.ast, self.name), expression.source

        def run(values):
            try:
                return body(values)
            except EvaluationError as exc:
                raise ModelError(f"cannot evaluate {what} ({source!r}): {exc}") from exc

        return run


# ---------------------------------------------------------------------------
# Model compilers: the exact classes only (None means fallback)
# ---------------------------------------------------------------------------


def _capacitive(term, reads: _Reads) -> Compiled:
    label, name = f"term {term.name!r}", term.name
    if term.frequency is not None:
        frequency = reads.expression(term.frequency, f"{label} frequency")
    else:
        frequency = reads.get("f")
    supply = reads.get("VDD")
    capacitance = reads.expression(term.capacitance, f"{label} capacitance")
    swing = (None if term.v_swing is None
             else reads.expression(term.v_swing, f"{label} v_swing"))
    activity = reads.expression(term.activity, f"{label} activity")

    def power(values):
        f = frequency(values)
        vdd = supply(values)
        c = capacitance(values)
        # a float is tested inline: every per-point term runs this
        if (c < 0).any() if type(c) is COLUMN else c < 0:
            raise ModelError(f"term {name!r}: negative capacitance {c}")
        v_swing = vdd if swing is None else swing(values)
        return activity(values) * c * v_swing * vdd * f

    return power


def _static(term, reads: _Reads) -> Compiled:
    current = reads.expression(term.current, f"term {term.name!r} current")
    supply = (reads.get("VDD") if term.supply is None
              else reads.expression(term.supply, f"term {term.name!r} supply"))
    return lambda values: current(values) * supply(values)


def _converter(model: DCDCConverterModel, reads: _Reads):
    """EQ 18/19: ``power()``'s errors in its order, and a closure giving
    ``breakdown()``'s key."""
    load, curve = reads.get("P_load"), model.curve
    eta = reads.get("eta", 0.9) if curve is None else None

    def efficiency_at(values, p_load):
        if curve is None:
            return eta(values)
        if any_true(p_load < 0):
            raise ModelError(f"load power {p_load} cannot be negative")
        return elementwise(curve, p_load) if type(p_load) is COLUMN else curve(p_load)

    def power(values):
        p_load = load(values)
        efficiency = efficiency_at(values, p_load)
        if any_true(p_load < 0):
            raise ModelError(f"load power {p_load} cannot be negative")
        if not all_true((0.0 < efficiency) & (efficiency <= 1.0)):
            raise ModelError(f"efficiency {efficiency} outside (0, 1]")
        return p_load * (1.0 - efficiency) / efficiency

    def key(values):
        return f"loss_at_eta_{efficiency_at(values, load(values)):.2f}"

    return power, key


def _power_model(model, reads: _Reads):
    """(terms, term names, capacitive count) for an EQ 1 template;
    (power closure, details-key closure, -1) for the converter; else
    (power closure or None, None, -1)."""
    kind = type(model)
    if kind is TemplatePowerModel:
        terms = ([_capacitive(term, reads) for term in model.capacitive]
                 + [_static(term, reads) for term in model.static])
        names = [term.name for term in model.capacitive + model.static]
        return terms, names, len(model.capacitive)
    if kind is ExpressionPowerModel:
        return reads.expression(model.equation, f"model {model.name!r} power"), None, -1
    if kind is DCDCConverterModel:
        return (*_converter(model, reads), -1)
    if kind is not FixedPowerModel:
        return None, None, -1
    alpha_of, average, name = reads.get("alpha", 1.0), model.average_power, model.name

    def fixed(values):
        alpha = alpha_of(values)
        if not all_true((0.0 <= alpha) & (alpha <= 1.0)):
            raise ModelError(f"model {name!r}: alpha {alpha} not in [0, 1]")
        return alpha * average

    return fixed, None, -1


def _area_model(model, reads: _Reads) -> Optional[Compiled]:
    if type(model) is not ExpressionAreaModel:
        return None
    equation = reads.expression(model.equation, f"model {model.name!r} area")
    name = model.name

    def area(values):
        value = equation(values)
        if any_true(value < 0):
            raise ModelError(f"model {name!r}: negative area {value}")
        return value

    return area


def _timing_model(model, reads: _Reads) -> Optional[Compiled]:
    if type(model) is ExpressionTimingModel:
        return reads.expression(model.equation, f"model {model.name!r} delay")
    if type(model) is not VoltageScaledTimingModel:
        return None
    supply = reads.get("VDD", model.v_ref)
    name, v_ref, v_t, delay_ref = model.name, model.v_ref, model.v_threshold, model.delay_ref

    def delay(values):
        vdd = supply(values)
        if vdd <= v_t:
            raise ModelError(
                f"model {name!r}: VDD {vdd} V at or below "
                f"threshold {v_t} V — circuit will not switch"
            )
        headroom_ref = v_ref - v_t
        headroom = vdd - v_t
        scale = (vdd / v_ref) * (headroom_ref / headroom) ** 2
        return delay_ref * scale

    return delay


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


_NO_REGISTERS: Dict[str, int] = {}  # shared by rows without feeds


class _Step:
    """A row (leaf) or design (node) of one pass, with its sweep state.

    Steps hold no link to their parents: a plan is acyclic, so a
    one-shot plan, or a live one a recompile replaces, is freed as soon
    as it is dropped, not by the cyclic garbage collector.  The plan
    keeps root-to-step paths instead.
    """

    __slots__ = ("dirty", "changed", "value", "area_param", "details",
                 "parameters", "snapshot", "checks", "area_local")

    def __init__(self):
        self.dirty = self.changed = True
        self.value = self.area_param = None
        self.details = self.parameters = None


class _Node(_Step):
    __slots__ = ("design", "label", "doc", "children", "order", "order_error",
                 "rows", "count")

    def __init__(self, design: Design, label: str, doc: str):
        super().__init__()
        self.design, self.label, self.doc = design, label, doc
        self.children: List[_Step] = []  # display order
        self.order: List[int] = []  # feed order
        self.order_error: Optional[str] = None
        self.rows = 0  # rows below with a model in this pass
        self.count = 0  # the report's evaluated_rows


class _Leaf(_Step):
    """A row; ``names`` holds a template's term names, or the converter's
    details-key closure."""

    __slots__ = ("row", "run", "fallback", "area", "area_fallback", "measured",
                 "names", "split", "registers", "feeds", "area_feeds", "inputs")

    def __init__(self, row):
        super().__init__()
        self.row = row
        self.run = self.fallback = self.area = self.area_fallback = None
        self.measured: Optional[float] = None
        self.names: Optional[List[str]] = None
        self.split = -1
        self.registers: Dict[str, int] = _NO_REGISTERS
        self.feeds = self.area_feeds = self.inputs = ()


class Plan:
    """A design compiled into slot-bound closures (see module docstring).

    ``pins`` are ``(scope, name)`` pairs bound as slots even where the
    scope stores a formula or nothing under ``name``: sweep targets that
    replace or introduce a parameter.  A pass compiles on first use and
    reads the design as it is then.
    """

    def __init__(self, design: Design, pins: Sequence[Tuple[ParameterScope, str]] = ()):
        self.design = design
        #: registers: slot values and per-row feed values
        self.values: List[float] = []
        self._stored: List[float] = []  # what each slot's scope stores
        self._slots: Dict[Tuple[int, str], int] = {}
        self._sources: List[Tuple[int, ParameterScope, str]] = []
        self._read: Dict[int, Compiled] = {}
        self._pins = {(id(scope), name) for scope, name in pins}
        #: register -> root-to-step paths of the steps reading it
        self._readers: Dict[int, List[Tuple[_Step, ...]]] = {}
        self._roots: Dict[str, _Node] = {}
        self._volatile: List[Tuple[_Step, ...]] = []  # fallback power rows
        self._overridden: set = set()
        self._cold = True
        self._reported = False  # every power step holds a full pass's output
        self.hits = self.misses = 0

    # -- binding -------------------------------------------------------------

    def slot(self, scope: ParameterScope, name: str) -> int:
        """The register of ``(scope, name)``, created on first use."""
        key = (id(scope), name)
        if key not in self._slots:
            stored = scope._values.get(name)
            register = self._register(stored if type(stored) is float else math.nan)
            self._slots[key] = register
            self._sources.append((register, scope, name))
        return self._slots[key]

    def refresh(self) -> bool:
        """Re-read every slot from its scope and mark the steps reading a
        changed one dirty; whether any changed.

        For a plan whose design was edited in place since it compiled,
        provided every slotted name still holds what it held then (a
        float, or for a pin a formula or nothing).  Unchanged slots hold
        the very object their scope stores.
        """
        values, stored, changed = self.values, self._stored, False
        for register, scope, name in self._sources:
            value = scope._values.get(name)
            if type(value) is not float:
                value = math.nan  # as :meth:`slot` binds a pin
            old = stored[register]
            if value is old:
                continue
            stored[register] = values[register] = value
            if _differs(old, value):
                for path in self._readers.get(register, ()):
                    self._mark(path)
                changed = True
        return changed

    def _register(self, value: float) -> int:
        self.values.append(value)
        self._stored.append(value)
        return len(self.values) - 1

    def _reader(self, register: int) -> Compiled:
        """The closure reading ``register`` (one per register)."""
        reader = self._read.get(register)
        if reader is None:
            reader = self._read[register] = lambda values: values[register]
        return reader

    def _find(self, scope: ParameterScope, name: str):
        """A read of ``name`` from ``scope``: a register, a formula, or
        None where nothing defines it."""
        node: Optional[ParameterScope] = scope
        while node is not None:
            stored = node._values.get(name)
            if type(stored) is float or self._pinned(node, name):
                return self.slot(node, name)
            if stored is not None:
                return stored
            node = node.parent
        return None

    def _pinned(self, scope: ParameterScope, name: str) -> bool:
        return bool(self._pins) and (id(scope), name) in self._pins

    def _depends(self, path: Tuple[_Step, ...], reads: _Reads) -> None:
        for register in reads.slots:
            self._readers.setdefault(register, []).append(path)

    def _snapshot(self, path: Tuple[_Step, ...], reads: _Reads) -> None:
        """The Parameters column: every local of the scope, resolved."""
        step = path[-1]
        step.snapshot = [(name, reads.resolved(name)) for name in reads.scope.local_names()]
        #: the entries that can raise (formulas), in order
        step.checks = [read for name, read in step.snapshot if name in reads.formulas]
        scope = reads.scope
        local = "_area" in scope._values or self._pinned(scope, "_area")
        step.area_local = reads.resolved("_area") if local else None
        self._depends(path, reads)

    def _check(self, step: _Step, full: bool, values: List) -> float:
        """Run the snapshot (all of it, or only what may raise); the
        report's ``_area`` parameter (0.0 without one)."""
        if full:
            step.parameters = {name: read(values) for name, read in step.snapshot}
        else:
            for read in step.checks:
                read(values)
        return 0.0 if step.area_local is None else step.area_local(values)

    # -- compile ---------------------------------------------------------------

    def root(self, kind: str) -> _Node:
        """The compiled ``power``, ``area`` or ``timing`` pass."""
        if kind not in self._roots:
            design = self.design
            self._roots[kind] = self._compile(design, (), kind, design.name, design.doc)
        return self._roots[kind]

    def _compile(self, design: Design, path, kind: str, label: str, doc: str) -> _Node:
        node = _Node(design, label, doc)
        path = path + (node,)
        index: Dict[str, int] = {}
        for row in design:
            index[row.name] = len(node.children)
            if isinstance(row, SubDesign):
                child = self._compile(row.design, path, kind, row.name,
                                      row.design.doc or row.doc)
                node.rows += child.rows
                node.count += child.count
            else:
                child = self._leaf(row, path, kind)
            node.children.append(child)
        node.count += len(node.children)
        if kind == "power":
            try:
                node.order = [index[name] for name in design.evaluation_order()]
            except DesignError as exc:
                node.order_error = str(exc)
            for child in node.children:
                if isinstance(child, _Leaf):
                    if child.row.power_feeds or child.row.area_feeds:
                        child.feeds = tuple(index[name] for name in child.row.power_feeds)
                        child.area_feeds = tuple(index[name] for name in child.row.area_feeds)
                        child.inputs = child.feeds + child.area_feeds
            self._snapshot(path, _Reads(self, design.scope))
        return node

    def _leaf(self, row, path: Tuple[_Step, ...], kind: str) -> _Leaf:
        leaf, parent = _Leaf(row), path[-1]
        path = path + (leaf,)
        models = row.models
        if kind != "power":
            model = models.area if kind == "area" else models.timing
            if model is not None:
                reads = _Reads(self, row.scope)
                leaf.run = (_area_model if kind == "area" else _timing_model)(model, reads)
                leaf.fallback = model if leaf.run is None else None
                parent.rows += 1
            return leaf
        registers = leaf.registers = {} if row.power_feeds or row.area_feeds else _NO_REGISTERS
        for feed in row.power_feeds:
            registers[f"P.{feed}"] = self._register(0.0)
        if row.power_feeds:
            registers["P_load"] = self._register(0.0)
        for feed in row.area_feeds:
            registers[f"A.{feed}"] = self._register(0.0)
        if row.area_feeds:
            registers["active_area"] = self._register(0.0)
        reads = _Reads(self, row.scope, registers)
        leaf.measured = row.measured_power
        if leaf.measured is None:
            leaf.run, leaf.names, leaf.split = _power_model(models.power, reads)
            leaf.fallback = models.power if leaf.run is None else None
        if models.area is not None:
            leaf.area = _area_model(models.area, reads)
            leaf.area_fallback = models.area if leaf.area is None else None
        self._snapshot(path, reads)  # also records the model's reads
        parent.rows += 1
        if leaf.fallback is not None or leaf.area_fallback is not None:
            self._volatile.append(path)
        return leaf

    # -- the power pass ----------------------------------------------------------

    def _row(self, leaf: _Leaf, siblings: List[_Step], full: bool) -> None:
        """Evaluate one row as a tree walk would; ``full`` also keeps
        its details and parameters for the report."""
        values, row = self.values, leaf.row
        extras: Dict[str, float] = {}
        if leaf.feeds:
            load = 0.0
            for name, index in zip(row.power_feeds, leaf.feeds):
                extras[f"P.{name}"] = siblings[index].value
                load += siblings[index].value
            extras["P_load"] = load
        if leaf.area_feeds:
            total_area = 0.0
            for name, index in zip(row.area_feeds, leaf.area_feeds):
                extras[f"A.{name}"] = siblings[index].area_param
                total_area += siblings[index].area_param
            extras["active_area"] = total_area
        for name, value in extras.items():
            values[leaf.registers[name]] = float(value)
        env = details = None
        if leaf.measured is not None:
            unit_power, details = leaf.measured, {"measured": leaf.measured}
        else:
            try:
                if leaf.fallback is not None:
                    env = _RowEnv(row.scope, extras)
                    unit_power = leaf.fallback.power(env)
                    if full:
                        details = leaf.fallback.breakdown(env)
                elif leaf.split >= 0:
                    parts = [term(values) for term in leaf.run]
                    unit_power = sum(parts[:leaf.split]) + sum(parts[leaf.split:])
                    details = dict(zip(leaf.names, parts)) if full else None
                else:
                    unit_power = leaf.run(values)
                    key = "total" if leaf.names is None or not full else leaf.names(values)
                    details = {key: unit_power}
            except ModelError as exc:
                raise ModelError(f"row {row.name!r}: {exc}") from exc
        quantity = row.quantity
        if full and quantity != 1:
            details = {key: value * quantity for key, value in details.items()}
        leaf.value, leaf.details = unit_power * quantity, details
        leaf.area_param = self._check(leaf, full, values)
        if leaf.area is not None or leaf.area_fallback is not None:
            try:
                if leaf.area is not None:
                    leaf.area_param = leaf.area(values) * quantity
                else:
                    env = env or _RowEnv(row.scope, extras)
                    leaf.area_param = leaf.area_fallback.area(env) * quantity
                if full:
                    leaf.parameters["_area"] = leaf.area_param
            except ModelError:
                pass

    def _power(self, node: _Node, full: bool) -> None:
        """Recompute a design's dirty rows (all of them when cold)."""
        trace = span if full else _UNTRACED
        with trace("design", name=node.design.name) as sp:
            if node.order_error is not None:
                raise DesignError(node.order_error)
            children = node.children
            for index in node.order:
                child = children[index]
                if isinstance(child, _Node):
                    if child.dirty:
                        self._power(child, full)
                        continue
                    self.hits += child.rows
                elif child.dirty or (child.inputs and any(
                        children[feed].changed for feed in child.inputs)):
                    self.misses += 1
                    old = child.value, child.area_param
                    with trace("row", name=child.row.name,
                               model=child.row.models.name) as row_span:
                        self._row(child, children, full)
                        row_span.set(watts=child.value)
                    child.changed = (_differs(old[0], child.value)
                                     or _differs(old[1], child.area_param))
                    child.dirty = False
                    continue
                else:
                    self.hits += 1
                child.changed = False
            old = node.value, node.area_param
            node.value = sum(child.value for child in children)
            node.area_param = self._check(node, full, self.values)
            node.changed = _differs(old[0], node.value) or _differs(old[1], node.area_param)
            node.dirty = False
            sp.set(rows=node.count, watts=node.value)

    # -- reports ----------------------------------------------------------------

    def power_report(self) -> PowerReport:
        """The full hierarchical power report.

        After a full report, only the steps marked since (by
        :meth:`refresh`), the rows they feed and the fallback rows
        recompute; after anything else (a sweep point, a pass that
        raised) every row does.
        """
        root = self.root("power")
        self._cold = True
        if not self._reported:
            self._mark_all(root)
        for path in self._volatile:
            self._mark(path)
        self._reported = False
        self._power(root, True)
        self._reported = True
        return self._power_report(root)

    def _power_report(self, node: _Node) -> PowerReport:
        children = []
        for child in node.children:
            if isinstance(child, _Node):
                children.append(self._power_report(child))
                continue
            row = child.row
            # copies: a row the next report does not recompute keeps its dicts
            children.append(PowerReport(
                name=row.name, power=child.value, kind="instance", doc=row.doc,
                quantity=row.quantity, source=row.source,
                parameters=dict(child.parameters), details=dict(child.details),
            ))
        return PowerReport(
            name=node.label, power=node.value, kind="design", doc=node.doc,
            source="hierarchy", parameters=dict(node.parameters), children=children,
            evaluated_rows=node.count,
        )

    def _measure(self, leaf: _Leaf, kind: str) -> float:
        """An area row's area (quantity applied), or a timing row's delay."""
        if leaf.fallback is None:
            value = leaf.run(self.values)
        else:
            env = _RowEnv(leaf.row.scope, {})
            value = leaf.fallback.area(env) if kind == "area" else leaf.fallback.delay(env)
        return value * leaf.row.quantity if kind == "area" else value

    def area_report(self, node: Optional[_Node] = None) -> AreaReport:
        """Active area: rows with area models, summed hierarchically."""
        node = node or self.root("area")
        children: List[AreaReport] = []
        for child in node.children:
            if isinstance(child, _Node):
                children.append(self.area_report(child))
            elif child.run is None and child.fallback is None:
                children.append(AreaReport(child.row.name, 0.0, modeled=False))
            else:
                children.append(AreaReport(child.row.name, self._measure(child, "area")))
        total = sum(child.area for child in children)
        return AreaReport(node.label, total, modeled=True, children=children)

    def timing_report(self, node: Optional[_Node] = None) -> TimingReport:
        """Critical-path delay: the max over modeled rows."""
        node = node or self.root("timing")
        children: List[TimingReport] = []
        for child in node.children:
            if isinstance(child, _Node):
                children.append(self.timing_report(child))
            elif child.run is None and child.fallback is None:
                children.append(TimingReport(child.row.name, 0.0, modeled=False))
            else:
                children.append(TimingReport(child.row.name, self._measure(child, "timing")))
        modeled = [child.delay for child in children if child.modeled]
        critical = max(modeled) if modeled else 0.0
        return TimingReport(node.label, critical, modeled=bool(modeled), children=children)

    # -- sweeps -------------------------------------------------------------------

    @staticmethod
    def _mark(path: Tuple[_Step, ...]) -> None:
        for step in reversed(path):  # a dirty step has dirty ancestors
            if step.dirty:
                return
            step.dirty = True

    def _mark_all(self, node: _Node) -> None:
        node.dirty = True
        for child in node.children:
            if isinstance(child, _Node):
                self._mark_all(child)
            child.dirty = True

    def point(self, writes: Sequence[Tuple[ParameterScope, str, float]],
              kinds: Sequence[str]) -> List[float]:
        """Each pass's total at one what-if point.

        ``writes`` are validated ``(scope, name, value)`` overrides; slots
        written last time but not now return to their stored values.
        Only the power pass recomputes selectively; every area and timing
        row counts as recomputed.  The design is left as it was, though
        fallback rows see the writes in their scopes while they run, as
        they always have.
        """
        self._reported = False
        values = self.values
        wanted = {self.slot(scope, name): value for scope, name, value in writes}
        restore, self._overridden = self._overridden - wanted.keys(), set(wanted)
        for register in restore:
            wanted[register] = self._stored[register]
        for register, value in wanted.items():
            if _differs(values[register], value):
                values[register] = value
                for path in self._readers.get(register, ()):
                    self._mark(path)
        if self._cold and "power" in kinds:
            self._mark_all(self.root("power"))
        for path in self._volatile:
            self._mark(path)
        saved = []
        try:
            if self._volatile or tuple(kinds) != ("power",):
                for scope, name, value in writes:
                    saved.append((scope, name, name in scope._values, scope._values.get(name)))
                    scope._values[name] = value
            totals = []
            for kind in kinds:
                root = self.root(kind)
                if kind == "area":
                    self.misses += root.rows
                    totals.append(self.area_report().area)
                elif kind == "timing":
                    self.misses += root.rows
                    totals.append(self.timing_report().delay)
                elif root.dirty:
                    self._power(root, False)
                    totals.append(root.value)
                else:
                    self.hits += root.rows
                    totals.append(root.value)
            self._cold = False
            return totals
        except BaseException:
            self._cold = True
            raise
        finally:
            for scope, name, had, old in reversed(saved):
                if had:
                    scope._values[name] = old
                else:
                    del scope._values[name]

    def columns(self, writes: Sequence[Tuple[ParameterScope, str, object]],
                count: int):
        """The power total at ``count`` points in one walk of the power
        pass: a column, or one float where nothing read varies.

        ``writes`` are validated ``(scope, name, column)`` overrides;
        every other slot holds its stored value, as :meth:`point` would
        restore it.  Each row runs once with columns in its registers.
        A column that varies counts a miss at every point; a row that
        comes out one float counts one miss and ``count - 1`` hits.
        Raises, leaving registers, dirty flags and row values as they
        were, on a fallback row or wherever a closure raised for any
        point: :meth:`point` then gives each point its own outcome.
        """
        registers = [self.slot(scope, name) for scope, name, _ in writes]
        root = self.root("power")
        if self._volatile:
            raise EvaluationError("fallback rows run point by point")
        values = list(self._stored)
        for register, (_, _, column) in zip(registers, writes):
            values[register] = column
        varying = [0]
        total = self._column_power(root, values, varying)[0]
        constant = root.rows - varying[0]
        self.misses += varying[0] * count + constant
        self.hits += constant * (count - 1)
        return total

    def _column_power(self, node: _Node, values: List, varying: List[int]):
        """A design's ``(power, _area)`` over a chunk (see :meth:`columns`)."""
        if node.order_error is not None:
            raise DesignError(node.order_error)
        children = node.children
        power: List = [0.0] * len(children)
        area: List = [0.0] * len(children)
        for index in node.order:
            child = children[index]
            if isinstance(child, _Node):
                power[index], area[index] = self._column_power(child, values, varying)
                continue
            power[index], area[index] = self._column_row(child, power, area, values)
            varying[0] += type(power[index]) is COLUMN
        return column_sum(power), self._check(node, False, values)

    def _column_row(self, leaf: _Leaf, power: List, area: List, values: List):
        """One row's ``(power, area parameter)`` over a chunk, as
        :meth:`_row` computes them for one point."""
        row = leaf.row
        if leaf.fallback is not None or leaf.area_fallback is not None:
            raise EvaluationError(f"row {row.name!r} runs point by point")
        if leaf.inputs:
            for names, feeds, sums, prefix, total in (
                    (row.power_feeds, leaf.feeds, power, "P.", "P_load"),
                    (row.area_feeds, leaf.area_feeds, area, "A.", "active_area")):
                running = 0.0
                for name, index in zip(names, feeds):
                    values[leaf.registers[prefix + name]] = _register_value(sums[index])
                    running = running + sums[index]
                if feeds:
                    values[leaf.registers[total]] = _register_value(running)
        if leaf.measured is not None:
            unit_power = leaf.measured
        elif leaf.split >= 0:
            parts = [term(values) for term in leaf.run]
            unit_power = column_sum(parts[:leaf.split]) + column_sum(parts[leaf.split:])
        else:
            unit_power = leaf.run(values)
        quantity = row.quantity
        area_param = self._check(leaf, False, values)
        if leaf.area is not None:
            try:
                area_param = leaf.area(values) * quantity
            except ModelError:
                # :meth:`_row` keeps the parameter at the points that
                # raised; a sibling reading this None raises instead
                area_param = None
        return unit_power * quantity, area_param
