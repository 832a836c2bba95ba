"""Parameters and hierarchical parameter scopes.

The paper: "Subcircuits may be defined to inherit global parameters" and
"allows for the introduction of variables at any level in the design
hierarchy and where any parameter can be expressed as a function of these
parameters."  This module provides that machinery:

* :class:`Parameter` — a named value with documentation, unit, bounds
  and an optional enumerated choice set (the web input forms render
  these as fields/selects, exactly like Figure 4's multiplier form).
* :class:`ParameterScope` — a chain-of-scopes mapping.  A lookup walks
  from the instance scope up through its ancestors to the design's
  global scope, so setting ``VDD`` at the top level reaches every
  subcircuit that has not overridden it.
* Parameters whose value is an :class:`~repro.core.expressions.Expression`
  (or a formula string) are evaluated lazily against the scope itself,
  giving the "any parameter as a function of these parameters" behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Union

from ..errors import EvaluationError, ParameterError
from .expressions import Expression, compile_expression

ParamValue = Union[float, int, str, Expression]


def check_name(name: object) -> None:
    """Raise unless ``name`` can be named by a formula: a letter or
    ``_`` first, then letters, digits, ``_`` or ``.``."""
    if not name or not isinstance(name, str):
        raise ParameterError(f"invalid parameter name: {name!r}")
    head = name[0]
    if not (head.isalpha() or head == "_"):
        raise ParameterError(f"parameter name must start with a letter: {name!r}")
    if any(not (c.isalnum() or c in "_.") for c in name):
        raise ParameterError(f"invalid parameter name: {name!r}")


@dataclass
class Parameter:
    """Declaration of a single model/design parameter.

    ``name``
        Identifier used in formulas (``bitwidth``, ``VDD``).
    ``default``
        Default value; a string that is not a pure number is treated as
        a formula over other parameters.
    ``unit``
        Display unit (informational; values are in coherent SI scale).
    ``doc``
        One-line documentation shown next to the form field.
    ``minimum`` / ``maximum``
        Optional inclusive bounds validated on assignment.
    ``choices``
        Optional enumerated values (the multiplier form's "multiplier
        type" select is one of these).
    ``integer``
        If true, values are coerced with ``int()`` after validation.
    """

    name: str
    default: ParamValue = 0.0
    unit: str = ""
    doc: str = ""
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[Sequence[float]] = None
    integer: bool = False

    def __post_init__(self) -> None:
        check_name(self.name)
        if (
            self.minimum is not None
            and self.maximum is not None
            and self.minimum > self.maximum
        ):
            raise ParameterError(
                f"{self.name}: minimum {self.minimum} > maximum {self.maximum}"
            )

    def validate(self, value: float) -> float:
        """Validate and coerce a numeric value against this declaration;
        raises only :class:`ParameterError`."""
        try:
            numeric = float(value)
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(
                f"{self.name}: not a number: {value!r}"
            ) from None
        if math.isnan(numeric):
            raise ParameterError(f"{self.name}: not a number: {value!r}")
        if self.minimum is not None and numeric < self.minimum:
            raise ParameterError(
                f"{self.name}: {numeric} below minimum {self.minimum}"
            )
        if self.maximum is not None and numeric > self.maximum:
            raise ParameterError(
                f"{self.name}: {numeric} above maximum {self.maximum}"
            )
        if self.choices is not None and numeric not in [
            float(c) for c in self.choices
        ]:
            raise ParameterError(
                f"{self.name}: {numeric} not one of {list(self.choices)}"
            )
        if self.integer:
            if not math.isfinite(numeric) or numeric != int(numeric):
                raise ParameterError(
                    f"{self.name}: expected an integer, got {numeric}"
                )
            return float(int(numeric))
        return numeric


def _coerce(value: ParamValue) -> Union[float, Expression]:
    """Turn a raw assignment into either a float or an Expression."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            return float(text)
        except ValueError:
            return compile_expression(text)
    raise ParameterError(f"cannot use {value!r} as a parameter value")


class ParameterScope(Mapping[str, float]):
    """A mapping of parameter values with single-parent inheritance.

    Lookups resolve in this scope first, then the parent chain.  Values
    may be formulas (Expressions) evaluated lazily against *this* scope,
    so a child that overrides ``VDD`` changes the result of a parent
    formula ``energy = C * VDD^2`` evaluated through the child.

    Iteration yields every visible parameter name (own + inherited).
    """

    def __init__(
        self,
        values: Optional[Mapping[str, ParamValue]] = None,
        parent: Optional["ParameterScope"] = None,
        declarations: Optional[Sequence[Parameter]] = None,
    ):
        self.parent = parent
        self.declarations: Dict[str, Parameter] = {}
        self._values: Dict[str, Union[float, Expression]] = {}
        for declaration in declarations or ():
            self.declare(declaration)
        for name, value in (values or {}).items():
            self.set(name, value)

    # -- declaration --------------------------------------------------

    def declare(self, declaration: Parameter) -> None:
        """Register a parameter declaration and install its default."""
        self.declarations[declaration.name] = declaration
        if declaration.name not in self._values:
            self._values[declaration.name] = _coerce(declaration.default)

    def declaration_for(self, name: str) -> Optional[Parameter]:
        """Find the nearest declaration for ``name`` up the chain."""
        scope: Optional[ParameterScope] = self
        while scope is not None:
            if name in scope.declarations:
                return scope.declarations[name]
            scope = scope.parent
        return None

    # -- assignment ----------------------------------------------------

    def set(self, name: str, value: ParamValue) -> None:
        """Assign ``name`` in *this* scope (shadowing any inherited value)."""
        coerced = _coerce(value)
        declaration = self.declaration_for(name)
        if declaration is not None and isinstance(coerced, float):
            coerced = declaration.validate(coerced)
        self._values[name] = coerced

    def update(self, values: Mapping[str, ParamValue]) -> None:
        for name, value in values.items():
            self.set(name, value)

    def unset(self, name: str) -> None:
        """Remove a local override, re-exposing any inherited value."""
        if name not in self._values:
            raise ParameterError(f"{name!r} is not set in this scope")
        del self._values[name]

    # -- lookup ---------------------------------------------------------

    def raw(self, name: str) -> Union[float, Expression]:
        """The stored value (float or formula) without evaluation."""
        scope: Optional[ParameterScope] = self
        while scope is not None:
            if name in scope._values:
                return scope._values[name]
            scope = scope.parent
        raise ParameterError(f"unknown parameter {name!r}")

    def __getitem__(self, name: str) -> float:
        return self.resolve(name)

    def resolve(self, name: str, _active: Optional[Set[str]] = None) -> float:
        """Evaluate ``name``, following formula references recursively.

        Self-referential formulas are detected and reported rather than
        recursing forever.
        """
        value = self.raw(name)
        if isinstance(value, float):
            return value
        active = _active if _active is not None else set()
        if name in active:
            chain = " -> ".join(sorted(active)) + f" -> {name}"
            raise ParameterError(f"circular parameter definition: {chain}")
        active.add(name)
        try:
            env = _ScopeEnv(self, active)
            return value.evaluate(env)
        except EvaluationError as exc:
            raise ParameterError(
                f"cannot evaluate parameter {name!r} = {value.source!r}: {exc}"
            ) from exc
        finally:
            active.discard(name)

    def get(self, name: str, default: Optional[float] = None):
        try:
            return self.resolve(name)
        except ParameterError:
            return default

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        scope: Optional[ParameterScope] = self
        while scope is not None:
            if name in scope._values:
                return True
            scope = scope.parent
        return False

    def names(self) -> List[str]:
        """All visible names, own scope first, parents after (deduped)."""
        seen: List[str] = []
        scope: Optional[ParameterScope] = self
        while scope is not None:
            for name in scope._values:
                if name not in seen:
                    seen.append(name)
            scope = scope.parent
        return seen

    def local_names(self) -> List[str]:
        """Names assigned directly in this scope."""
        return list(self._values)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())

    def child(
        self, values: Optional[Mapping[str, ParamValue]] = None
    ) -> "ParameterScope":
        """Create a child scope inheriting from this one."""
        return ParameterScope(values=values, parent=self)

    def flattened(self) -> Dict[str, float]:
        """Every visible parameter fully evaluated — what the spreadsheet
        shows in its Parameters column."""
        return {name: self.resolve(name) for name in self.names()}

    def __repr__(self) -> str:
        own = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        suffix = " +parent" if self.parent is not None else ""
        return f"ParameterScope({own}{suffix})"


class _ScopeEnv(Mapping[str, float]):
    """Adapter presenting a ParameterScope as an expression environment,
    threading the active-set through for cycle detection."""

    def __init__(self, scope: ParameterScope, active: Set[str]):
        self._scope = scope
        self._active = active

    def __getitem__(self, name: str) -> float:
        try:
            return self._scope.resolve(name, self._active)
        except ParameterError as exc:
            raise EvaluationError(str(exc)) from exc

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._scope

    def __iter__(self) -> Iterator[str]:
        return iter(self._scope.names())

    def __len__(self) -> int:
        return len(self._scope)
