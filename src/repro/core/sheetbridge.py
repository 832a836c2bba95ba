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
Every cell name has one owner: a design in which two cells would share
a name (a row named ``g``, ``P`` or ``total``) is refused by every read
and write, with a :class:`~repro.errors.SheetError` that names the row.

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

    def _cells(self) -> Tuple[Dict[str, Tuple[ParameterScope, str]], List[str]]:
        """Writable cells, each mapped to its ``(scope, name)``, and the
        power cells.  Raises :class:`SheetError` when two cells would
        share a name, so no cell is ever shadowed."""
        owners = {self.TOTAL_CELL: "the design total"}
        prefixes = {self.GLOBAL_PREFIX: "the global parameters",
                    self.POWER_PREFIX: "the power cells"}

        def claim(table: Dict[str, str], key: str, owner: str) -> str:
            if key in table:
                raise SheetError(
                    f"{key!r} would name both {table[key]} and {owner}; "
                    "rename the row"
                )
            table[key] = owner
            return key

        scopes = [(self.GLOBAL_PREFIX, self.design.scope, "the global")]
        powers = []
        for row in self.design:
            owner = f"row {row.name!r}"
            powers.append(claim(owners, self.POWER_PREFIX + row.name,
                                f"the power of {owner}"))
            if not isinstance(row, SubDesign):
                prefix = claim(prefixes, f"{row.name}.", owner)
                scopes.append((prefix, row.scope, owner))
        parameters = {}
        for prefix, scope, owner in scopes:
            for name in scope.local_names():
                if isinstance(scope.raw(name), float):
                    cell = claim(owners, prefix + name,
                                 f"{owner} parameter {name!r}")
                    parameters[cell] = (scope, name)
        return parameters, powers

    def names(self) -> List[str]:
        """Parameter cells, row powers, the total, then derived cells."""
        parameters, powers = self._cells()
        return [*parameters, *powers, self.TOTAL_CELL, *self._derived]

    def __contains__(self, name: object) -> bool:
        return name in self.names()

    # -- edits ------------------------------------------------------------

    def set_parameter(self, cell: str, value: float) -> None:
        """Write a parameter cell into its design scope."""
        parameters = self._cells()[0]
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
                  for cell, (scope, name) in self._cells()[0].items()}
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
