"""The hierarchical tree walker, frozen as a differential oracle.

This is the evaluator the compiled plan (``repro.core.plan``) replaced,
kept verbatim: the estimator's ``_evaluate_design`` /
``_evaluate_instance`` / ``_feed_extras`` / ``_evaluate_area`` /
``_evaluate_timing`` walk, ``_RowEnv``, the AST-walking expression
evaluator (``evaluate`` / ``_eval*``) and the recursive-descent parser.

:func:`evaluate_power`, :func:`evaluate_area` and :func:`evaluate_timing`
run the walk with every expression evaluated by the frozen ``_eval``
(``Expression.evaluate`` and the estimator entry that macros call are
swapped in for the duration), so nothing of the code under test takes
part.  Test-only; never imported by ``src/``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Dict, Iterator, List, Mapping, Optional

from repro.core import estimator as _estimator
from repro.core.design import Design, Instance, SubDesign
from repro.core.estimator import AreaReport, PowerReport, TimingReport, scope_overrides
from repro.core.expressions import (
    CONSTANTS,
    FUNCTIONS,
    _ARITY,
    Binary,
    Call,
    Expression,
    Name,
    Node,
    Num,
    Ternary,
    Token,
    Unary,
    tokenize,
)
from repro.core.parameters import ParameterScope
from repro.errors import DesignError, EvaluationError, ModelError, ParseError
from repro.obs import span


# ---------------------------------------------------------------------------
# Expressions: the AST walk and the recursive-descent parser
# ---------------------------------------------------------------------------


def evaluate(node: Node, env: Optional[Mapping[str, float]] = None) -> float:
    """Evaluate an AST against a name environment.

    ``env`` maps names (possibly dotted) to floats or to zero-argument
    callables (lazy values — the design hierarchy uses these for
    inter-model references such as "power of the load of this DC-DC
    converter").  Unknown names raise :class:`EvaluationError`.
    """
    env = env or {}
    return _eval(node, env)


def _lookup(identifier: str, env: Mapping[str, float]) -> float:
    if identifier in env:
        value = env[identifier]
    elif identifier in CONSTANTS:
        value = CONSTANTS[identifier]
    else:
        raise EvaluationError(f"unknown name {identifier!r}")
    if callable(value):
        value = value()
    try:
        return float(value)
    except (TypeError, ValueError):
        raise EvaluationError(
            f"name {identifier!r} is not numeric: {value!r}"
        ) from None


def _eval(node: Node, env: Mapping[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        return _lookup(node.identifier, env)
    if isinstance(node, Unary):
        value = _eval(node.operand, env)
        if node.op == "-":
            return -value
        if node.op == "not":
            return 0.0 if value else 1.0
        raise EvaluationError(f"unknown unary operator {node.op!r}")
    if isinstance(node, Ternary):
        condition = _eval(node.condition, env)
        branch = node.if_true if condition else node.if_false
        return _eval(branch, env)
    if isinstance(node, Binary):
        return _eval_binary(node, env)
    if isinstance(node, Call):
        return _eval_call(node, env)
    raise EvaluationError(f"unknown node type {type(node).__name__}")


def _eval_binary(node: Binary, env: Mapping[str, float]) -> float:
    op = node.op
    if op == "and":
        left = _eval(node.left, env)
        if not left:
            return 0.0
        return 1.0 if _eval(node.right, env) else 0.0
    if op == "or":
        left = _eval(node.left, env)
        if left:
            return 1.0
        return 1.0 if _eval(node.right, env) else 0.0
    left = _eval(node.left, env)
    right = _eval(node.right, env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise EvaluationError("division by zero")
        return left / right
    if op == "%":
        if right == 0:
            raise EvaluationError("modulo by zero")
        return math.fmod(left, right)
    if op == "^":
        try:
            result = left**right
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise EvaluationError(f"power error: {left} ^ {right}") from exc
        if isinstance(result, complex):
            raise EvaluationError(f"complex result: {left} ^ {right}")
        return result
    if op == "<":
        return 1.0 if left < right else 0.0
    if op == "<=":
        return 1.0 if left <= right else 0.0
    if op == ">":
        return 1.0 if left > right else 0.0
    if op == ">=":
        return 1.0 if left >= right else 0.0
    if op == "==":
        return 1.0 if left == right else 0.0
    if op == "!=":
        return 1.0 if left != right else 0.0
    raise EvaluationError(f"unknown operator {op!r}")


def _eval_call(node: Call, env: Mapping[str, float]) -> float:
    func = FUNCTIONS.get(node.function)
    if func is None:
        raise EvaluationError(f"unknown function {node.function!r}")
    lo, hi = _ARITY[node.function]
    argc = len(node.args)
    if argc < lo or (hi is not None and argc > hi):
        expected = str(lo) if lo == hi else f"{lo}..{hi if hi is not None else 'many'}"
        raise EvaluationError(
            f"{node.function}() takes {expected} args, got {argc}"
        )
    args = [_eval(arg, env) for arg in node.args]
    try:
        return float(func(*args))
    except EvaluationError:
        raise
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise EvaluationError(f"{node.function}() failed: {exc}") from exc


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.current
        if token.kind != "op" or token.text != text:
            raise ParseError(
                f"expected {text!r}, found {token.text or 'end of input'!r}",
                self.source,
                token.position,
            )
        return self.advance()

    def match(self, *texts: str) -> Optional[Token]:
        token = self.current
        if token.kind == "op" and token.text in texts:
            return self.advance()
        return None

    def match_name(self, *names: str) -> Optional[Token]:
        token = self.current
        if token.kind == "name" and token.text in names:
            return self.advance()
        return None

    # grammar rules -------------------------------------------------------

    def parse(self) -> Node:
        node = self.expr()
        token = self.current
        if token.kind != "end":
            raise ParseError(
                f"trailing input {token.text!r}", self.source, token.position
            )
        return node

    def expr(self) -> Node:
        return self.ternary()

    def ternary(self) -> Node:
        condition = self.or_expr()
        if self.match("?"):
            if_true = self.expr()
            self.expect(":")
            if_false = self.expr()
            return Ternary(condition, if_true, if_false)
        return condition

    def or_expr(self) -> Node:
        node = self.and_expr()
        while self.match_name("or"):
            node = Binary("or", node, self.and_expr())
        return node

    def and_expr(self) -> Node:
        node = self.not_expr()
        while self.match_name("and"):
            node = Binary("and", node, self.not_expr())
        return node

    def not_expr(self) -> Node:
        if self.match_name("not"):
            return Unary("not", self.not_expr())
        return self.comparison()

    def comparison(self) -> Node:
        node = self.additive()
        token = self.match("<", "<=", ">", ">=", "==", "!=")
        if token:
            node = Binary(token.text, node, self.additive())
        return node

    def additive(self) -> Node:
        node = self.term()
        while True:
            token = self.match("+", "-")
            if not token:
                return node
            node = Binary(token.text, node, self.term())

    def term(self) -> Node:
        node = self.power()
        while True:
            token = self.match("*", "/", "%")
            if not token:
                return node
            node = Binary(token.text, node, self.power())

    def power(self) -> Node:
        node = self.unary()
        if self.match("^"):
            return Binary("^", node, self.power())  # right-assoc
        return node

    def unary(self) -> Node:
        token = self.match("-", "+")
        if token:
            operand = self.unary()
            if token.text == "+":
                return operand
            return Unary("-", operand)
        return self.atom()

    def atom(self) -> Node:
        token = self.current
        if token.kind == "num":
            self.advance()
            return Num(token.value)
        if token.kind == "name":
            self.advance()
            if self.match("("):
                args: List[Node] = []
                if not (self.current.kind == "op" and self.current.text == ")"):
                    args.append(self.expr())
                    while self.match(","):
                        args.append(self.expr())
                self.expect(")")
                return Call(token.text, tuple(args))
            return Name(token.text)
        if token.kind == "op" and token.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(
            f"unexpected {token.text or 'end of input'!r}",
            self.source,
            token.position,
        )


def parse(source: str) -> Node:
    """Parse ``source`` into an AST.  Raises :class:`ParseError`."""
    if not isinstance(source, str):
        raise ParseError(f"expected a string, got {type(source).__name__}")
    if not source.strip():
        raise ParseError("empty expression", source, 0)
    return _Parser(source).parse()




def parse(source: str) -> Node:
    """The recursive-descent parse (no length or depth limits)."""
    if not isinstance(source, str):
        raise ParseError(f"expected a string, got {type(source).__name__}")
    if not source.strip():
        raise ParseError("empty expression", source, 0)
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _frozen():
    """Route expression evaluation (and macros' nested estimates)
    through this module for the duration."""
    saved = (Expression.evaluate, _estimator.evaluate_power)
    Expression.evaluate = lambda self, env=None: evaluate(self.ast, env)
    _estimator.evaluate_power = evaluate_power
    try:
        yield
    finally:
        Expression.evaluate, _estimator.evaluate_power = saved


def evaluate_power(design: Design, overrides=None) -> PowerReport:
    with _frozen():
        if overrides:
            with scope_overrides(design.scope, overrides):
                return _evaluate_design(design)
        return _evaluate_design(design)


def evaluate_area(design: Design, overrides=None) -> AreaReport:
    with _frozen():
        if overrides:
            with scope_overrides(design.scope, overrides):
                return _evaluate_area(design)
        return _evaluate_area(design)


def evaluate_timing(design: Design, overrides=None) -> TimingReport:
    with _frozen():
        if overrides:
            with scope_overrides(design.scope, overrides):
                return _evaluate_timing(design)
        return _evaluate_timing(design)


class _RowEnv(Mapping[str, float]):
    """Instance scope + inter-model extras, presented as one mapping."""

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


def _evaluate_design(design: Design) -> PowerReport:
    with span("design", name=design.name) as sp:
        order = design.evaluation_order()
        computed: Dict[str, PowerReport] = {}
        for name in order:
            row = design.row(name)
            if isinstance(row, SubDesign):
                report = _evaluate_design(row.design)
                report.name = row.name
                report.doc = report.doc or row.doc
            else:
                report = _evaluate_instance(row, computed)
            computed[name] = report
        children = [computed[name] for name in design.row_names()]
        total = sum(node.power for node in children)
        rows = len(children) + sum(child.evaluated_rows for child in children)
        sp.set(rows=rows, watts=total)
        return PowerReport(
            name=design.name,
            power=total,
            kind="design",
            doc=design.doc,
            source="hierarchy",
            parameters={
                name: design.scope.resolve(name)
                for name in design.scope.local_names()
            },
            children=children,
            evaluated_rows=rows,
        )


def _feed_extras(
    row: Row, computed: Mapping[str, PowerReport], area: Optional[Mapping[str, float]] = None
) -> Dict[str, float]:
    extras: Dict[str, float] = {}
    if row.power_feeds:
        load = 0.0
        for feed in row.power_feeds:
            report = computed[feed]
            extras[f"P.{feed}"] = report.power
            load += report.power
        extras["P_load"] = load
    if row.area_feeds:
        total_area = 0.0
        for feed in row.area_feeds:
            feed_area = (area or {}).get(feed)
            if feed_area is None:
                feed_area = _row_area(row, feed, computed)
            extras[f"A.{feed}"] = feed_area
            total_area += feed_area
        extras["active_area"] = total_area
    return extras


def _row_area(consumer: Row, feed: str, computed: Mapping[str, PowerReport]) -> float:
    """Area of a feed row, needed by interconnect models during a power
    pass.  Resolved lazily from the feed row's own area model."""
    report = computed.get(feed)
    if report is None:
        raise DesignError(
            f"row {consumer.name!r} area-feeds on unevaluated row {feed!r}"
        )
    return report.parameters.get("_area", 0.0)


def _evaluate_instance(
    row: Instance, computed: Mapping[str, PowerReport]
) -> PowerReport:
    with span("row", name=row.name, model=row.models.name) as sp:
        report = _evaluate_instance_timed(row, computed)
        sp.set(watts=report.power)
        return report


def _evaluate_instance_timed(
    row: Instance, computed: Mapping[str, PowerReport]
) -> PowerReport:
    extras = _feed_extras(row, computed)
    env = _RowEnv(row.scope, extras)
    if row.measured_power is not None:
        # back-annotated rows use the measurement, not the model
        unit_power = row.measured_power
        details = {"measured": row.measured_power}
    else:
        try:
            unit_power = row.models.power.power(env)
            details = row.models.power.breakdown(env)
        except ModelError as exc:
            raise ModelError(f"row {row.name!r}: {exc}") from exc
    power = unit_power * row.quantity
    if row.quantity != 1:
        details = {key: value * row.quantity for key, value in details.items()}
    parameters = {
        name: row.scope.resolve(name) for name in row.scope.local_names()
    }
    if row.models.area is not None:
        try:
            parameters["_area"] = row.models.area.area(env) * row.quantity
        except ModelError:
            pass
    return PowerReport(
        name=row.name,
        power=power,
        kind="instance",
        doc=row.doc,
        quantity=row.quantity,
        source=row.source,
        parameters=parameters,
        details=details,
    )


def _evaluate_area(design: Design) -> AreaReport:
    children: List[AreaReport] = []
    for row in design:
        if isinstance(row, SubDesign):
            children.append(_evaluate_area(row.design))
            children[-1].name = row.name
            continue
        model = row.models.area
        if model is None:
            children.append(AreaReport(row.name, 0.0, modeled=False))
            continue
        env = _RowEnv(row.scope, {})
        children.append(
            AreaReport(row.name, model.area(env) * row.quantity, modeled=True)
        )
    total = sum(node.area for node in children)
    return AreaReport(design.name, total, modeled=True, children=children)


def _evaluate_timing(design: Design) -> TimingReport:
    children: List[TimingReport] = []
    for row in design:
        if isinstance(row, SubDesign):
            child = _evaluate_timing(row.design)
            child.name = row.name
            children.append(child)
            continue
        model = row.models.timing
        if model is None:
            children.append(TimingReport(row.name, 0.0, modeled=False))
            continue
        env = _RowEnv(row.scope, {})
        children.append(TimingReport(row.name, model.delay(env), modeled=True))
    modeled = [node.delay for node in children if node.modeled]
    critical = max(modeled) if modeled else 0.0
    return TimingReport(design.name, critical, modeled=bool(modeled), children=children)
