"""Safe arithmetic expression language for models and spreadsheet cells.

PowerPlay lets users type model equations and parameter formulas into web
forms ("The user is prompted for names, equations, and documentation
information").  Evaluating those with :func:`eval` would hand the server
to any browser, so this module implements a small, safe expression
language:

* tokenizer + operator-precedence parser producing an immutable AST
  (an explicit stack, no recursion, with length and depth limits);
* :func:`compile_node`, which turns a tree into nested closures — the
  one evaluator, shared by :meth:`Expression.evaluate` (names read
  from a mapping) and the evaluation plan (names bound to slots).  Any
  name may read a float or a *column* (a float64 array, one element a
  point): ``+ - *``, ``/``, unary minus and comparisons run as numpy
  ops, which are IEEE-identical to Python's, and ``^``, ``%`` and every
  function map the scalar Python code over the elements;
* :func:`variables` — static dependency extraction, which is what the
  spreadsheet engine uses to build its recalculation graph;
* a curated set of math functions and constants.

Grammar (standard precedence, ``^`` is right-associative power)::

    expr        := ternary
    ternary     := or_expr ("?" expr ":" expr)?
    or_expr     := and_expr ("or" and_expr)*
    and_expr    := not_expr ("and" not_expr)*
    not_expr    := "not" not_expr | comparison
    comparison  := additive (("<"|"<="|">"|">="|"=="|"!=") additive)?
    additive    := term (("+"|"-") term)*
    term        := power (("*"|"/"|"%") power)*
    power       := unary ("^" power)?
    unary       := ("-"|"+") unary | postfix
    postfix     := atom
    atom        := NUMBER | NAME ("(" args ")")? | "(" expr ")"

Names may be dotted (``lut.words``) — the spreadsheet resolves those
against hierarchical scopes.  Numbers accept engineering suffixes
(``253f`` = 253e-15) in addition to ``e`` notation, mirroring the input
forms.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..errors import EvaluationError, ParseError

# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TWO_CHAR_OPS = ("<=", ">=", "==", "!=")
_ONE_CHAR_OPS = "+-*/%^()<>?:,"

#: Engineering suffixes accepted on numeric literals (``253f`` -> 253e-15).
_ENG_SUFFIXES = {
    "a": 1e-18,
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
    "k": 1e3,
    "K": 1e3,
    "M": 1e6,
    "G": 1e9,
    "T": 1e12,
}


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "name", "op", "end"
    text: str
    value: float
    position: int


def tokenize(source: str) -> List[Token]:
    """Split ``source`` into tokens.  Raises :class:`ParseError`."""
    tokens: List[Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            i, token = _read_number(source, i)
            tokens.append(token)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] in "_."):
                i += 1
            text = source[start:i]
            if text.endswith("."):
                raise ParseError("name cannot end with '.'", source, start)
            tokens.append(Token("name", text, 0.0, start))
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, 0.0, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, 0.0, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", source, i)
    tokens.append(Token("end", "", 0.0, n))
    return tokens


def _read_number(source: str, i: int) -> Tuple[int, Token]:
    start = i
    n = len(source)
    while i < n and (source[i].isdigit() or source[i] == "."):
        i += 1
    # exponent part
    if i < n and source[i] in "eE":
        j = i + 1
        if j < n and source[j] in "+-":
            j += 1
        if j < n and source[j].isdigit():
            i = j
            while i < n and source[i].isdigit():
                i += 1
    text = source[start:i]
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", source, start) from None
    # engineering suffix: only when NOT followed by more letters (so the
    # name "freq" after "2 " stays a name, and "2f" is 2e-15 but "2fF"
    # is rejected — units belong in the surrounding form, not formulas).
    if i < n and source[i] in _ENG_SUFFIXES:
        after = source[i + 1] if i + 1 < n else ""
        if not (after.isalnum() or after == "_" or after == "."):
            value *= _ENG_SUFFIXES[source[i]]
            i += 1
            text = source[start:i]
    return i, Token("num", text, value, start)


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


class _Node:
    """Structural ``==`` and ``hash`` over an explicit stack: the
    generated dataclass methods recurse once per tree level."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _flat(self) == _flat(other)

    def __hash__(self):
        return hash(tuple(_flat(self)))


@dataclass(frozen=True, eq=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, eq=False)
class Name(_Node):
    identifier: str


@dataclass(frozen=True, eq=False)
class Unary(_Node):
    op: str
    operand: "Node"


@dataclass(frozen=True, eq=False)
class Binary(_Node):
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False)
class Call(_Node):
    function: str
    args: Tuple["Node", ...]


@dataclass(frozen=True, eq=False)
class Ternary(_Node):
    condition: "Node"
    if_true: "Node"
    if_false: "Node"


Node = Union[Num, Name, Unary, Binary, Call, Ternary]


def _children(node) -> tuple:
    kind = type(node)
    if kind is Binary:
        return (node.left, node.right)
    if kind is Unary:
        return (node.operand,)
    if kind is Call:
        return tuple(node.args)
    if kind is Ternary:
        return (node.condition, node.if_true, node.if_false)
    return ()


def _scalar(node):
    kind = type(node)
    if kind is Num:
        return node.value
    if kind is Name:
        return node.identifier
    if kind is Call:
        return node.function
    return getattr(node, "op", None)


def _flat(node) -> List[tuple]:
    """The tree as pre-order ``(type, field, arity)`` triples."""
    out, pending = [], [node]
    while pending:
        node = pending.pop()
        kids = _children(node)
        out.append((type(node), _scalar(node), len(kids)))
        pending.extend(reversed(kids))
    return out


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

#: Longest accepted source text, in characters.  The web server caps a
#: request body at 1 MiB, so no longer formula ever reached a PLAY; the
#: cap bounds what session files and library payloads can carry.
MAX_LENGTH = 1 << 20

#: Deepest accepted nesting, in evaluation levels (see :func:`depth`).
#: Chains at one precedence level (``a + b + c``, ``- - a``) count once,
#: parentheses count nothing, so every formula a PLAY evaluated when
#: the parser was recursive (88 nested parentheses, 486 nested
#: ternaries, a 493-long ``^`` chain) fits, and evaluation stays well
#: inside Python's default recursion limit of 1000.
MAX_DEPTH = 500

#: binding powers: a larger number binds tighter
_INFIX = {
    "+": 6, "-": 6, "*": 7, "/": 7, "%": 7, "^": 8,
    "<": 5, "<=": 5, ">": 5, ">=": 5, "==": 5, "!=": 5,
}
_WORDS = {"or": 2, "and": 3}
_COMPARISON = 5
_NEGATE = (9, "-", True)
_NOT = (4, "not", True)
_PAREN = ("(",)


def _reduce(entry, out: List[Node]) -> None:
    """Pop an operator entry's operands from ``out``, push its node."""
    _bp, op, unary = entry
    if unary:
        out.append(Unary(op, out.pop()))
    else:
        right = out.pop()
        out[-1] = Binary(op, out[-1], right)


class _Parser:
    """Operator-precedence parser over an explicit stack.

    Builds exactly the tree of the grammar in the module docstring,
    with the same error messages, but never recurses: nesting depth is
    limited by :data:`MAX_DEPTH`, not by the Python stack.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)

    def _expected(self, text: str, token: Token) -> ParseError:
        return ParseError(
            f"expected {text!r}, found {token.text or 'end of input'!r}",
            self.source,
            token.position,
        )

    def parse(self) -> Node:
        tokens = self.tokens
        out: List[Node] = []
        #: operator entries ``(bp, op, unary)`` and group entries:
        #: ``("(",)``, ``("call", name, args)``, ``("?", condition)`` and
        #: ``(":", condition, if_true)``
        ops: List[tuple] = []
        i = 0
        operand = True  # expecting an operand (else an operator)
        not_ok = True  # "not" here is the operator, not a name
        while True:
            token = tokens[i]
            kind, text = token.kind, token.text
            if operand:
                i += 1
                if kind == "op" and text in ("-", "+"):
                    if text == "-":
                        ops.append(_NEGATE)
                    not_ok = False
                elif kind == "name" and text == "not" and not_ok:
                    ops.append(_NOT)
                elif kind == "num":
                    out.append(Num(token.value))
                    operand = False
                elif kind == "name":
                    if tokens[i].kind == "op" and tokens[i].text == "(":
                        i += 1
                        if tokens[i].kind == "op" and tokens[i].text == ")":
                            i += 1
                            out.append(Call(text, ()))
                            operand = False
                        else:
                            ops.append(("call", text, []))
                            not_ok = True
                    else:
                        out.append(Name(text))
                        operand = False
                elif kind == "op" and text == "(":
                    ops.append(_PAREN)
                    not_ok = True
                else:
                    raise ParseError(
                        f"unexpected {text or 'end of input'!r}",
                        self.source,
                        token.position,
                    )
                continue
            chained = False
            if kind == "op" and text in _INFIX:
                bp = _INFIX[text]
                while ops and type(ops[-1][0]) is int and (
                    ops[-1][0] > bp or (ops[-1][0] == bp and text != "^"
                                         and bp != _COMPARISON)
                ):
                    _reduce(ops.pop(), out)
                chained = bp == _COMPARISON and bool(ops) and ops[-1][0] == bp
                if not chained:
                    ops.append((bp, text, False))
                    i += 1
                    operand, not_ok = True, False
                    continue
            elif kind == "name" and text in _WORDS:
                bp = _WORDS[text]
                while ops and type(ops[-1][0]) is int and ops[-1][0] >= bp:
                    _reduce(ops.pop(), out)
                ops.append((bp, text, False))
                i += 1
                operand, not_ok = True, True
                continue
            elif kind == "op" and text == "?":
                while ops and type(ops[-1][0]) is int:
                    _reduce(ops.pop(), out)
                ops.append(("?", out.pop()))
                i += 1
                operand, not_ok = True, True
                continue
            # the expression ends here: close it up to its enclosing group
            while ops and (type(ops[-1][0]) is int or ops[-1][0] == ":"):
                entry = ops.pop()
                if entry[0] == ":":
                    out.append(Ternary(entry[1], entry[2], out.pop()))
                else:
                    _reduce(entry, out)
            if not ops:
                if kind == "end":
                    return out.pop()
                raise ParseError(
                    f"trailing input {text!r}", self.source, token.position
                )
            group = ops[-1]
            if group[0] == "?":
                if kind == "op" and text == ":":
                    ops[-1] = (":", group[1], out.pop())
                    i += 1
                    operand, not_ok = True, True
                    continue
                raise self._expected(":", token)
            if kind == "op" and text == ")":
                ops.pop()
                i += 1
                operand = False
                if group[0] == "call":
                    group[2].append(out.pop())
                    out.append(Call(group[1], tuple(group[2])))
                continue
            if group[0] == "call" and kind == "op" and text == ",":
                group[2].append(out.pop())
                i += 1
                operand, not_ok = True, True
                continue
            raise self._expected(")", token)


def parse(source: str) -> Node:
    """Parse ``source`` into an AST.  Raises :class:`ParseError`, also
    for text longer than :data:`MAX_LENGTH` or nested deeper than
    :data:`MAX_DEPTH`."""
    if not isinstance(source, str):
        raise ParseError(f"expected a string, got {type(source).__name__}")
    if not source.strip():
        raise ParseError("empty expression", source, 0)
    if len(source) > MAX_LENGTH:
        raise ParseError(
            f"expression is {len(source)} characters long; the limit is "
            f"{MAX_LENGTH}"
        )
    parser = _Parser(source)
    tree = parser.parse()
    # a tree is never deeper than its token count
    levels = depth(tree) if len(parser.tokens) > MAX_DEPTH else 0
    if levels > MAX_DEPTH:
        raise ParseError(
            f"expression nests {levels} levels deep; the limit is {MAX_DEPTH}"
        )
    return tree


def _chain(node: Binary) -> Tuple[Node, List[Binary]]:
    """A left-associative chain: its first operand and its Binary nodes,
    innermost first (``a - b + c`` -> ``a``, ``[a - b, (a - b) + c]``)."""
    links: List[Binary] = []
    while type(node) is Binary:
        links.append(node)
        node = node.left
    links.reverse()
    return node, links


def depth(node: Node) -> int:
    """Evaluation levels of a tree: how deep its compiled closures nest
    (a unary chain, or a left-associative chain, is one level)."""
    deepest = 0
    pending: List[Tuple[Node, int]] = [(node, 1)]
    while pending:
        node, level = pending.pop()
        deepest = max(deepest, level)
        kind = type(node)
        if kind is Unary:
            while type(node) is Unary:
                node = node.operand
            pending.append((node, level + 1))
        elif kind is Binary:
            first, links = _chain(node)
            pending.append((first, level + 1))
            pending.extend((link.right, level + 1) for link in links)
        else:
            pending.extend((kid, level + 1) for kid in _children(node))
    return deepest


# --------------------------------------------------------------------------
# Evaluation: every tree compiles to nested closures
# --------------------------------------------------------------------------

#: Constants every expression environment sees.  ``k`` and ``q`` support
#: the paper's analog models (EQ 14-17); ``kT_over_q`` is the thermal
#: voltage at 300 K.
CONSTANTS: Dict[str, float] = {
    "pi": math.pi,
    "e": math.e,
    "k": 1.380649e-23,       # Boltzmann constant, J/K
    "q": 1.602176634e-19,    # elementary charge, C
    "T_room": 300.0,         # K
    "kT_over_q": 1.380649e-23 * 300.0 / 1.602176634e-19,
    "true": 1.0,
    "false": 0.0,
}


def _safe_sqrt(x: float) -> float:
    if x < 0:
        raise EvaluationError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _safe_log(x: float, base: Optional[float] = None) -> float:
    if x <= 0:
        raise EvaluationError(f"log of non-positive value {x}")
    if base is None:
        return math.log(x)
    return math.log(x, base)


FUNCTIONS: Dict[str, Callable[..., float]] = {
    "abs": abs,
    "sqrt": _safe_sqrt,
    "exp": math.exp,
    "ln": _safe_log,
    "log": _safe_log,
    "log2": lambda x: _safe_log(x, 2.0),
    "log10": lambda x: _safe_log(x, 10.0),
    "floor": math.floor,
    "ceil": math.ceil,
    "round": round,
    "min": min,
    "max": max,
    "pow": lambda x, y: x**y,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "sum": lambda *xs: sum(xs),
    "avg": lambda *xs: sum(xs) / len(xs) if xs else 0.0,
    "if": lambda c, a, b: a if c else b,
    "clamp": lambda x, lo, hi: max(lo, min(hi, x)),
}

_ARITY = {
    "abs": (1, 1), "sqrt": (1, 1), "exp": (1, 1), "ln": (1, 2),
    "log": (1, 2), "log2": (1, 1), "log10": (1, 1), "floor": (1, 1),
    "ceil": (1, 1), "round": (1, 2), "min": (1, None), "max": (1, None),
    "pow": (2, 2), "sin": (1, 1), "cos": (1, 1), "tan": (1, 1),
    "atan": (1, 1), "sum": (0, None), "avg": (1, None), "if": (3, 3),
    "clamp": (3, 3),
}

#: A compiled (sub)expression: called with whatever its name readers
#: expect — a mapping for :meth:`Expression.evaluate`, the plan's slot
#: values for :mod:`repro.core.plan`.  It returns a float, or a column
#: where a name it read held one.
Compiled = Callable[[object], float]

#: the type of a column: a 1-D float64 array holding one value a point
COLUMN = np.ndarray


def elementwise(function: Callable[..., float], *args) -> np.ndarray:
    """``function`` applied to each point of column arguments (floats
    stand for every point): the scalar code, so the scalar bits."""
    lists = [arg.tolist() if type(arg) is COLUMN else itertools.repeat(arg)
             for arg in args]
    return np.array(list(map(function, *lists)), dtype=np.float64)


def any_true(test) -> bool:
    """A guard: a float comparison's result, or whether any point of a
    column comparison holds."""
    return test if type(test) is bool else bool(test.any())


def all_true(test) -> bool:
    """A guard: a float comparison's result, or whether every point of
    a column comparison holds."""
    return test if type(test) is bool else bool(test.all())


def _truth(value):
    """``1.0``/``0.0`` for a value's truth (NaN is true), per point."""
    if type(value) is COLUMN:
        return (value != 0).astype(np.float64)
    return 1.0 if value else 0.0


def _divide(left: float, right: float) -> float:
    # a float is tested inline: every per-point division runs this
    if (right == 0).any() if type(right) is COLUMN else right == 0:
        raise EvaluationError("division by zero")
    return left / right


def _modulo(left: float, right: float) -> float:
    if type(left) is COLUMN or type(right) is COLUMN:
        return elementwise(_modulo, left, right)
    if right == 0:
        raise EvaluationError("modulo by zero")
    return math.fmod(left, right)


def _power(left: float, right: float) -> float:
    if type(left) is COLUMN or type(right) is COLUMN:
        return elementwise(_power, left, right)
    try:
        result = left**right
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise EvaluationError(f"power error: {left} ^ {right}") from exc
    if isinstance(result, complex):
        raise EvaluationError(f"complex result: {left} ^ {right}")
    return result


def _comparison(test: Callable[[float, float], bool]) -> Callable[[float, float], float]:
    return lambda left, right: _truth(test(left, right))


_ARITHMETIC: Dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
    "^": _power,
    "<": _comparison(operator.lt),
    "<=": _comparison(operator.le),
    ">": _comparison(operator.gt),
    ">=": _comparison(operator.ge),
    "==": _comparison(operator.eq),
    "!=": _comparison(operator.ne),
}


def _env_name(identifier: str) -> Compiled:
    """Read ``identifier`` from a mapping env, then the constants."""

    def read(env: Mapping[str, float]) -> float:
        if identifier in env:
            value = env[identifier]
        elif identifier in CONSTANTS:
            value = CONSTANTS[identifier]
        else:
            raise EvaluationError(f"unknown name {identifier!r}")
        if type(value) is COLUMN:
            return value
        if callable(value):
            value = value()
        try:
            return float(value)
        except (TypeError, ValueError):
            raise EvaluationError(
                f"name {identifier!r} is not numeric: {value!r}"
            ) from None

    return read


def _chain_of(first: Compiled, links: Sequence[Tuple[str, Compiled]]) -> Compiled:
    """A left-associative chain ``first op right op right ...``,
    evaluated left to right in one loop (one level however long)."""
    if len(links) == 1 and links[0][0] in ("+", "-", "*"):
        op, right = links[0]  # the commonest shapes, without the loop
        if op == "+":
            return lambda env: first(env) + right(env)
        if op == "-":
            return lambda env: first(env) - right(env)
        return lambda env: first(env) * right(env)
    steps = tuple((op, _ARITHMETIC.get(op), right) for op, right in links)

    def run(env):
        value = first(env)
        for op, apply, right in steps:
            if apply is not None:
                value = apply(value, right(env))
            elif type(value) is COLUMN and op in ("and", "or"):
                # the right side runs for every point once any point needs it
                value = _truth(value)
                if op == "and" and value.any():
                    value = value * _truth(right(env))
                elif op == "or" and not value.all():
                    value = np.maximum(value, _truth(right(env)))
            elif op == "and":
                value = _truth(right(env)) if value else 0.0
            elif op == "or":
                value = 1.0 if value else _truth(right(env))
            else:
                right(env)
                raise EvaluationError(f"unknown operator {op!r}")
        return value

    return run


def _unary(ops: Sequence[str], inner: Compiled) -> Compiled:
    if tuple(ops) == ("-",):
        return lambda env: -inner(env)
    steps = tuple(ops)

    def run(env):
        value = inner(env)
        for op in steps:
            if op == "-":
                value = -value
            elif op == "not":
                value = 1.0 - _truth(value)
            else:
                raise EvaluationError(f"unknown unary operator {op!r}")
        return value

    return run


def _call(function: str, args: Sequence[Compiled]) -> Compiled:
    func = FUNCTIONS.get(function)
    argc = len(args)
    problem = None
    if func is None:
        problem = f"unknown function {function!r}"
    else:
        lo, hi = _ARITY[function]
        if argc < lo or (hi is not None and argc > hi):
            expected = (
                str(lo) if lo == hi else f"{lo}..{hi if hi is not None else 'many'}"
            )
            problem = f"{function}() takes {expected} args, got {argc}"
    if problem is not None:
        def fail(env):
            raise EvaluationError(problem)

        return fail
    argfns = tuple(args)

    def run(env):
        values = []
        for arg in argfns:
            values.append(arg(env))
        if COLUMN in map(type, values):
            return elementwise(lambda *point: float(func(*point)), *values)
        try:
            return float(func(*values))
        except EvaluationError:
            raise
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise EvaluationError(f"{function}() failed: {exc}") from exc

    return run


def compile_node(node: Node, name: Callable[[str], Compiled]) -> Compiled:
    """Compile a tree into closures; ``name(identifier)`` supplies the
    closure that reads one name.

    The closures compute bit-for-bit what the grammar means, in the
    same order: operands left to right, ``and``/``or``/``?:`` lazily,
    the same :class:`EvaluationError` at the same point.  Closures nest
    :func:`depth` levels deep.
    """
    kind = type(node)
    if kind is Num:
        value = node.value
        return lambda env: value
    if kind is Name:
        return name(node.identifier)
    if kind is Unary:
        ops: List[str] = []
        while type(node) is Unary:
            ops.append(node.op)
            node = node.operand
        ops.reverse()  # innermost first
        return _unary(ops, compile_node(node, name))
    if kind is Binary:
        first, links = _chain(node)
        steps = []
        for link in links:  # a loop, not a comprehension: one frame a level
            steps.append((link.op, compile_node(link.right, name)))
        return _chain_of(compile_node(first, name), steps)
    if kind is Ternary:
        condition = compile_node(node.condition, name)
        if_true = compile_node(node.if_true, name)
        if_false = compile_node(node.if_false, name)

        def choose(env):
            test = condition(env)
            if type(test) is not COLUMN:
                return if_true(env) if test else if_false(env)
            taken = test != 0
            if taken.all():
                return if_true(env)
            if not taken.any():
                return if_false(env)
            return np.where(taken, if_true(env), if_false(env))

        return choose
    if kind is Call:
        args = []
        for arg in node.args:
            args.append(compile_node(arg, name))
        return _call(node.function, args)
    raise EvaluationError(f"unknown node type {kind.__name__}")


def evaluate(node: Node, env: Optional[Mapping[str, float]] = None) -> float:
    """Evaluate an AST against a name environment.

    ``env`` maps names (possibly dotted) to floats or to zero-argument
    callables (lazy values — the design hierarchy uses these for
    inter-model references such as "power of the load of this DC-DC
    converter").  Unknown names raise :class:`EvaluationError`.
    """
    if env is None:
        env = {}
    return compile_node(node, _env_name)(env)


# --------------------------------------------------------------------------
# Static analysis & compiled expressions
# --------------------------------------------------------------------------


def variables(node: Node) -> Set[str]:
    """Names referenced by an AST, excluding built-in constants.

    The spreadsheet uses this to build its dependency graph.
    """
    found: Set[str] = set()
    pending = [node]
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is Name:
            if node.identifier not in CONSTANTS:
                found.add(node.identifier)
        elif kind is Binary:
            pending.append(node.left)
            pending.append(node.right)
        elif kind is not Num:
            pending.extend(_children(node))
    return found


def unparse(node: Node) -> str:
    """Render an AST back to (fully parenthesized) source text.

    ``parse(unparse(t))`` evaluates identically to ``t`` — used by the
    web UI to echo stored model equations, and by the property tests.
    """
    parts: List[str] = []
    pending: List[object] = [node]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        kind = type(item)
        if kind is Num:
            parts.append(repr(item.value))
        elif kind is Name:
            parts.append(item.identifier)
        elif kind is Unary:
            opening = "(not " if item.op == "not" else f"({item.op}"
            pending.extend((")", item.operand, opening))
        elif kind is Binary:
            pending.extend((")", item.right, f" {item.op} ", item.left, "("))
        elif kind is Ternary:
            pending.extend((")", item.if_false, " : ", item.if_true, " ? ",
                            item.condition, "("))
        elif kind is Call:
            pending.append(")")
            for index in range(len(item.args) - 1, -1, -1):
                pending.append(item.args[index])
                if index:
                    pending.append(", ")
            pending.append(f"{item.function}(")
        else:
            raise EvaluationError(f"cannot unparse {kind.__name__}")
    return "".join(parts)


class Expression:
    """A parsed, reusable expression.

    >>> Expression("bitwidth * c0").evaluate({"bitwidth": 8, "c0": 2e-15})
    1.6e-14
    """

    __slots__ = ("source", "ast", "_variables", "_run")

    def __init__(self, source: str):
        self.source = source
        self.ast = parse(source)
        self._variables = frozenset(variables(self.ast))
        self._run: Optional[Compiled] = None

    @property
    def variables(self) -> frozenset:
        """Free variables (constants excluded)."""
        return self._variables

    def evaluate(self, env: Optional[Mapping[str, float]] = None) -> float:
        run = self._run
        if run is None:
            run = self._run = compile_node(self.ast, _env_name)
        return run({} if env is None else env)

    def __call__(self, **env: float) -> float:
        return self.evaluate(env)

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Expression) and other.ast == self.ast

    def __hash__(self) -> int:
        return hash(self.ast)


def compile_expression(source: Union[str, Expression]) -> Expression:
    """Coerce a string (or pass through an Expression) to Expression."""
    if isinstance(source, Expression):
        return source
    return Expression(source)
