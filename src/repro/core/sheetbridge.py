"""A design as a live spreadsheet.

PowerPlay presents the design under exploration as "a spread-sheet-like
work sheet" in which "any parameter can be expressed as a function of
these parameters".  :class:`DesignSheet` is that sheet as named cells:

* ``g.<name>`` and ``<row>.<name>``: one writable cell per float-valued
  global and row-local parameter.  Formula-valued parameters stay owned
  by their scope, so their dependencies keep working;
* ``P.<row>`` and ``P.total``: each row's power and the design's total,
  read from one report of the design's live plan
  (:class:`~repro.core.evalcache.EvaluationCache`), so they are the very
  numbers the ``/design`` page shows.  An edit recomputes only the rows
  it dirtied;
* user-added derived cells (energy per frame, battery current): an
  ordered list of formulas, each over the cells defined before it, so
  no cycle can form.

Parameter cells read and write the design scopes themselves, so the
sheet and the design cannot disagree, whichever of the two is edited.

>>> from repro.core.design import Design
>>> from repro.core.model import ExpressionPowerModel
>>> design = Design("demo")
>>> design.scope.set("VDD", 1.5)
>>> bus = ExpressionPowerModel("bus", "C * VDD^2 * 1M")
>>> _ = design.add("bus", bus, params={"C": 2e-12})
>>> bridge = DesignSheet(design)
>>> bridge.add_derived("current", "P.total / g.VDD")
>>> round(bridge.total_power * 1e6, 6)
4.5
>>> bridge.set_parameter("g.VDD", 3.0)
>>> round(bridge["current"] * 1e6, 6)
6.0
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import EvaluationError, ParameterError, SheetError
from .design import Design, SubDesign
from .evalcache import EvaluationCache
from .expressions import Expression, compile_expression
from .parameters import ParameterScope, check_name


class DesignSheet:
    """A Design seen as spreadsheet cells (see module docstring)."""

    GLOBAL_PREFIX = "g."
    POWER_PREFIX = "P."
    TOTAL_CELL = "P.total"

    def __init__(self, design: Design):
        self.design = design
        #: the design's live plan: every read takes one power report here
        self.cache = EvaluationCache(maxsize=1)
        #: derived cell name -> formula, in the order they were added
        self._derived: Dict[str, Expression] = {}

    @property
    def evaluations(self) -> int:
        """Power reports computed rather than served unchanged."""
        return self.cache.misses

    def _parameters(self) -> Dict[str, Tuple[ParameterScope, str]]:
        """Writable cells, each mapped to its ``(scope, name)``."""
        scopes = [(self.GLOBAL_PREFIX, self.design.scope)]
        scopes += [(f"{row.name}.", row.scope) for row in self.design
                   if not isinstance(row, SubDesign)]
        return {
            prefix + name: (scope, name)
            for prefix, scope in scopes
            for name in scope.local_names()
            if isinstance(scope.raw(name), float)
        }

    def names(self) -> List[str]:
        """Parameter cells, row powers, the total, then derived cells."""
        powers = [self.POWER_PREFIX + row.name for row in self.design]
        return [*self._parameters(), *powers, self.TOTAL_CELL, *self._derived]

    def __contains__(self, name: object) -> bool:
        return name in self.names()

    # -- edits ------------------------------------------------------------

    def set_parameter(self, cell: str, value: float) -> None:
        """Write a parameter cell into its design scope."""
        parameters = self._parameters()
        if cell not in parameters:
            raise SheetError(
                f"{cell!r} is not a writable parameter cell "
                f"(writable: {sorted(parameters)})"
            )
        scope, name = parameters[cell]
        scope.set(name, value)

    def add_derived(self, name: str, formula: str) -> None:
        """Add a cell computed from the cells defined before it."""
        try:
            check_name(name)
        except ParameterError as exc:
            raise SheetError(f"invalid cell name {name!r}") from exc
        names = self.names()
        if name in names:
            raise SheetError(f"{name!r} is already a cell")
        expression = compile_expression(formula)
        unknown = sorted(expression.variables - set(names))
        if unknown:
            raise SheetError(
                f"cell {name!r} reads {', '.join(unknown)}, "
                "which no earlier cell defines"
            )
        self._derived[name] = expression

    # -- reads ------------------------------------------------------------

    def _evaluate(self) -> Tuple[Dict[str, float], Dict[str, EvaluationError]]:
        """Every cell's value, and each failed derived cell's error."""
        values = {cell: scope.raw(name)
                  for cell, (scope, name) in self._parameters().items()}
        report = self.cache.power(self.design)
        for row in report.children:
            values[self.POWER_PREFIX + row.name] = row.power
        values[self.TOTAL_CELL] = report.power
        errors: Dict[str, EvaluationError] = {}
        for name, formula in self._derived.items():
            try:
                values[name] = formula.evaluate(values)
            except EvaluationError as exc:
                errors[name] = exc
        return values, errors

    def values(self) -> Dict[str, float]:
        """Every cell's value, leaving out each derived cell that fails
        and so every derived cell that reads one."""
        return self._evaluate()[0]

    def __getitem__(self, name: str) -> float:
        values, errors = self._evaluate()
        if name in errors:
            raise EvaluationError(f"cell {name!r}: {errors[name]}")
        if name not in values:
            raise SheetError(f"no cell named {name!r}")
        return values[name]

    @property
    def total_power(self) -> float:
        return self[self.TOTAL_CELL]

    def row_power(self, row_name: str) -> float:
        return self[self.POWER_PREFIX + row_name]
