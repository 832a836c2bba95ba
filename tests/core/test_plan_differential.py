"""The compiled plan against the frozen tree walker, bit for bit.

Random designs exercise every evaluation route the walker had: nested
sub-designs, mount-point inheritance, shadowed names, inherited
formulas re-evaluated from child scopes, power and area feeds, quantity
> 1, measured rows, rows that raise, negative-power rows (a ``sum`` vs
``+=`` swap shows there on Python 3.12), the compiled DC-DC converter
(constant and curve efficiency) and fallback rows (a macro, a callable
that iterates its environment).  Reports
are compared field by field on exact float bits; failures on exception
class and message.  The sweep half drives :class:`BatchEvaluator`
through row-major and shuffled override sequences against the walker
under :func:`scope_overrides`.
"""

import contextlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.design import Design, SubDesign
from repro.core.estimator import (
    evaluate_area,
    evaluate_power,
    evaluate_timing,
    scope_overrides,
)
from repro.core.evalcache import design_fingerprint
from repro.core.expressions import parse
from repro.core.model import (
    CallablePowerModel,
    CapacitiveTerm,
    ExpressionAreaModel,
    ExpressionPowerModel,
    ExpressionTimingModel,
    FixedPowerModel,
    ModelSet,
    StaticTerm,
    TemplatePowerModel,
    VoltageScaledTimingModel,
)
from repro.core.expressions import compile_expression as E
from repro.core.parameters import Parameter, ParameterScope
from repro.core.plan import Plan
from repro.errors import PowerPlayError
from repro.explore.batcheval import BatchEvaluator, resolve_target
from repro.models.converter import DCDCConverterModel, DEFAULT_BUCK_CURVE

import treewalk_oracle as oracle

SETTINGS = settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- comparison ---------------------------------------------------------------


def bits(value):
    """Exact identity of a number: type and shortest round-trip repr."""
    return (type(value).__name__, repr(value))


def _numbers(mapping):
    return [(key, bits(value)) for key, value in mapping.items()]


def power_fields(report):
    return (
        report.name, bits(report.power), report.kind, report.doc,
        report.quantity, report.source, _numbers(report.parameters),
        _numbers(report.details), report.evaluated_rows,
        [power_fields(child) for child in report.children],
    )


def area_fields(report):
    return (report.name, bits(report.area), report.modeled,
            [area_fields(child) for child in report.children])


def timing_fields(report):
    return (report.name, bits(report.delay), report.modeled,
            [timing_fields(child) for child in report.children])


def outcome(fn, *args, fields=lambda value: value, **kwargs):
    """What a call produced: its fields, or its failure."""
    try:
        return ("ok", fields(fn(*args, **kwargs)))
    except (PowerPlayError, ArithmeticError, ValueError, TypeError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def stored(design):
    """The structure key and every scope's stored values: equal before
    and after means the design was left as it was."""
    pins = []
    key = design_fingerprint(design, pins)
    return key, [repr(item._values) for item in pins if isinstance(item, ParameterScope)]


def assert_same_reports(design, overrides=None):
    for ours, frozen, fields in (
        (evaluate_power, oracle.evaluate_power, power_fields),
        (evaluate_area, oracle.evaluate_area, area_fields),
        (evaluate_timing, oracle.evaluate_timing, timing_fields),
    ):
        expected = outcome(frozen, design, overrides, fields=fields)
        assert outcome(ours, design, overrides, fields=fields) == expected


# -- random designs --------------------------------------------------------------

GLOBALS = ("VDD", "f", "bits", "scale", "x")
#: names that may be undefined where they are read (errors on purpose)
RARE = ("missing", "T_room")


def _number(rng):
    return rng.choice(["1.5", "2", "0.5", "253f", "3n", "1e-3", "0", "4"])


#: every function, with how many arguments to give it
FUNCTION_ARGS = {
    "abs": 1, "sqrt": 1, "exp": 1, "ln": 1, "log": 2, "log2": 1, "log10": 1,
    "floor": 1, "ceil": 1, "round": 1, "min": 2, "max": 3, "pow": 2, "sin": 1,
    "cos": 1, "tan": 1, "atan": 1, "sum": 3, "avg": 2, "if": 3, "clamp": 3,
}


def _expr(rng, names, depth=0):
    roll = rng.random()
    if depth > 2 or roll < 0.35:
        if rng.random() < 0.5:
            return _number(rng)
        pool = names + list(RARE) if rng.random() < 0.03 else names
        return rng.choice(pool)
    if roll < 0.7:
        op = rng.choice(["+", "-", "*", "*", "/", "^", "%", "<", ">=", "==", "!=",
                         "and", "or"])
        right = rng.choice(["2", "1.3", "0.5"]) if op == "^" else _expr(rng, names, depth + 1)
        return f"({_expr(rng, names, depth + 1)} {op} {right})"
    if roll < 0.78:
        func = rng.choice(["min", "max", "abs", "sqrt"] if rng.random() < 0.5
                          else sorted(FUNCTION_ARGS))
        args = [_expr(rng, names, depth + 1) for _ in range(FUNCTION_ARGS[func])]
        return f"{func}({', '.join(args)})"
    if roll < 0.83:
        return f"-{_expr(rng, names, depth + 1)}"
    if roll < 0.86:
        return f"(not {_expr(rng, names, depth + 1)})"
    return (f"({_expr(rng, names, depth + 1)} > 1 ? {_expr(rng, names, depth + 1)}"
            f" : {_expr(rng, names, depth + 1)})")


def _template(rng, names, tag):
    capacitive = []
    for index in range(rng.randint(1, 3)):
        capacitive.append(CapacitiveTerm(
            f"c{index}" if rng.random() < 0.8 else "dup",
            E(f"abs({_expr(rng, names)}) * 1p"),
            v_swing=E(_expr(rng, names)) if rng.random() < 0.3 else None,
            activity=E(rng.choice(["1.0", "0.5", "x"])),
            frequency=E("f / 2") if rng.random() < 0.2 else None,
        ))
    static = []
    if rng.random() < 0.4:
        static.append(StaticTerm("leak", E(f"{_expr(rng, names)} * 1u"),
                                 supply=E("VDD") if rng.random() < 0.5 else None))
    return TemplatePowerModel(
        f"tmpl_{tag}", capacitive, static,
        parameters=(Parameter("bits", 8, minimum=1, maximum=64),),
    )


def _model_set(rng, names, tag):
    roll = rng.random()
    if roll < 0.45:
        power = _template(rng, names, tag)
    elif roll < 0.7:
        # may be negative: sum() and += round differently on 3.12
        sign = "-" if rng.random() < 0.4 else ""
        power = ExpressionPowerModel(f"expr_{tag}", f"{sign}({_expr(rng, names)}) * 1m")
    elif roll < 0.8:
        power = FixedPowerModel(f"fixed_{tag}", rng.choice([0.1, 0.25, 1.0]))
    elif roll < 0.9:
        def snooping(env, tag=tag):
            # iterates its environment and reads a swept name
            return sum(1e-6 for _ in env) + float(env["x"]) * 1e-3 if "x" in env else len(env) * 1e-6

        power = CallablePowerModel(f"spy_{tag}", snooping)
    else:
        inner = Design(f"macro_{tag}")
        inner.scope.set("VDD", 1.2)
        inner.scope.set("f", 1e6)
        inner.add("core", ExpressionPowerModel("core", "VDD ^ 2 * f * 1p"))
        power = inner.as_macro(exported=("VDD",))
    area = ExpressionAreaModel(f"area_{tag}", f"abs({_expr(rng, names)}) * 1n") \
        if rng.random() < 0.4 else None
    if rng.random() < 0.3:
        timing = ExpressionTimingModel(f"delay_{tag}", f"abs({_expr(rng, names)}) * 1n + 1n")
    elif rng.random() < 0.3:
        timing = VoltageScaledTimingModel(f"vdelay_{tag}", 2e-9)
    else:
        timing = None
    return ModelSet(power=power, area=area, timing=timing)


def _params(rng, names):
    params = {}
    if rng.random() < 0.4:
        params["VDD"] = rng.choice([1.1, 3.3, "x + 0.5", "scale / 2"])  # shadow
    if rng.random() < 0.4:
        params["bits"] = rng.choice([4, 16, 32])
    if rng.random() < 0.2:
        params["alpha"] = rng.choice([0.5, "x / 4"])  # a formula may leave [0, 1]
    if rng.random() < 0.04:
        params["loop"] = "loop + 1"  # circular, read only by the snapshot
    return params


def build_design(seed, depth=0, name="top"):
    rng = random.Random(seed)
    design = Design(name, doc=f"doc {name}")
    names = list(GLOBALS)
    if depth == 0:
        design.scope.set("VDD", rng.choice([1.0, 1.5, 3.3]))
        design.scope.set("f", rng.choice([1e6, 2e6]))
        design.scope.set("bits", 8)
        design.scope.set("x", rng.choice([0.0, 1.0, 2.5]))
        # an inherited formula, re-evaluated from each reading scope
        design.scope.set("scale", rng.choice(["VDD * 2", "bits / 8", "1.5"]))
    elif rng.random() < 0.6:
        design.scope.set("VDD", rng.choice([0.9, 1.2, "x + 1"]))
    for index in range(rng.randint(1, 4)):
        row = f"r{index}"
        if depth < 2 and rng.random() < 0.25:
            design.add_subdesign(row, build_design(rng.random(), depth + 1, f"{name}_{row}"),
                                 doc=f"sub {row}")
            continue
        models = _model_set(rng, names, f"{name}_{index}")
        feeds = [n for n in design.row_names() if rng.random() < 0.3]
        area_feeds = [n for n in design.row_names() if rng.random() < 0.2]
        if models.area is None and area_feeds:
            models = ModelSet(
                ExpressionPowerModel(f"wires_{name}_{index}", "active_area * 1e3 + P_load * 0.1"
                                     if feeds else "active_area * 1e3"),
                models.area, models.timing)
        elif feeds and rng.random() < 0.6:
            curve = DEFAULT_BUCK_CURVE if rng.random() < 0.5 else None
            models = ModelSet(DCDCConverterModel(f"dcdc_{name}_{index}", 0.85, curve),
                              models.area, models.timing)
        instance = design.add(row, models, params=_params(rng, names),
                              power_feeds=feeds, area_feeds=area_feeds,
                              quantity=rng.choice([1, 1, 2, 3]), doc=f"row {index}")
        if rng.random() < 0.1:
            instance.record_measurement(rng.choice([0.0, 0.02]))
    return design


def _subdesigns(design):
    for row in design:
        if isinstance(row, SubDesign):
            yield row.design
            yield from _subdesigns(row.design)


# -- reports ----------------------------------------------------------------------


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_reports_match_the_tree_walker(seed):
    design = build_design(seed)
    assert_same_reports(design)
    # a mounted sub-design on its own inherits from its mount point
    for sub in _subdesigns(design):
        assert_same_reports(sub)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), vdd=st.sampled_from([0.5, 1.2, -1.0, 2.0]),
       x=st.sampled_from([0.0, 3.0, "VDD * 2"]))
def test_reports_match_under_overrides(seed, vdd, x):
    design = build_design(seed)
    before = stored(design)
    assert_same_reports(design, {"VDD": vdd, "x": x})
    assert stored(design) == before


def test_paper_designs_match_the_tree_walker():
    from repro.designs.infopad import build_infopad
    from repro.designs.luminance import build_figure1_design

    for build in (build_infopad, build_figure1_design):
        assert_same_reports(build())


@pytest.mark.parametrize("curve", [None, DEFAULT_BUCK_CURVE])
@pytest.mark.parametrize("load", ["0.5", "-0.25", "0", "missing"])
@pytest.mark.parametrize("eta", [0.85, "x / 2", "x * 2", "missing + 1", None])
def test_converter_compiles_and_matches_the_walker(curve, load, eta):
    """EQ 18/19 compiled, in both forms: the walker's numbers, errors in
    ``power()``'s order and ``breakdown()``'s details key."""
    design = Design("supply")
    design.scope.set("x", 0.9)
    design.add("load", ExpressionPowerModel("load", load))
    params = {} if eta is None else {"eta": eta}
    design.add("dcdc", DCDCConverterModel("dcdc", 0.85, curve), params=params,
               power_feeds=["load"])
    # standalone: P_load from the scope, or missing altogether
    design.add("bare", DCDCConverterModel("bare", 0.9, curve),
               params={"P_load": 0.3} if load != "missing" else {})
    plan = Plan(design)
    plan.root("power")
    assert plan._volatile == []  # no fallback rows
    assert_same_reports(design)


# -- sweeps -----------------------------------------------------------------------


def _targets(design, rng):
    targets = ["VDD", "x", "T_room", "fresh"]  # T_room shadows the constant
    rows = [row for row in design if not isinstance(row, SubDesign)]
    for row in rows[:2]:
        targets.append(f"{row.name}.{rng.choice(['bits', 'VDD', 'x'])}")
    for row in design:
        if isinstance(row, SubDesign):
            targets.append(f"{row.name}.VDD")
    return targets


def _walker_point(design, overrides, objectives):
    frozen = {"power": (oracle.evaluate_power, lambda r: r.power),
              "area": (oracle.evaluate_area, lambda r: r.area),
              "delay": (oracle.evaluate_timing, lambda r: r.delay)}
    with contextlib.ExitStack() as stack:
        for target, value in overrides.items():
            scope, name = resolve_target(design, target)
            stack.enter_context(scope_overrides(scope, {name: float(value)}))
        return {objective: frozen[objective][1](frozen[objective][0](design))
                for objective in objectives}


def _sweep_outcome(fn, *args):
    try:
        return ("ok", {key: bits(value) for key, value in fn(*args).items()})
    except (PowerPlayError, ArithmeticError, ValueError, TypeError) as exc:
        return ("raised", type(exc).__name__, str(exc))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), shuffle=st.booleans())
def test_batch_evaluator_matches_the_tree_walker(seed, shuffle):
    design = build_design(seed)
    rng = random.Random(seed)
    objectives = ("power", "area", "delay")
    evaluator = BatchEvaluator(design, objectives)
    targets = [t for t in _targets(design, rng)
               if outcome(resolve_target, design, t)[0] == "ok"]
    picked = rng.sample(targets, min(len(targets), rng.randint(1, 3)))
    # 70 is out of range for bits (maximum 64); values repeat on purpose
    grid = [0.0, 1.5, 1.5, 70.0, 3.0]
    points = [
        {target: grid[(index // (5 ** position)) % 5] for position, target in enumerate(picked)}
        for index in range(min(5 ** len(picked), 25))
    ]
    if shuffle:
        rng.shuffle(points)
    points += points[:3]  # revisit earlier points
    before = stored(design)
    for overrides in points:
        expected = _sweep_outcome(_walker_point, design, overrides, objectives)
        assert _sweep_outcome(evaluator.evaluate, overrides) == expected, overrides
        assert stored(design) == before
    # the next points may override fewer targets: the rest snap back
    for overrides in ({}, {picked[0]: 2.0}):
        expected = _sweep_outcome(_walker_point, design, overrides, objectives)
        assert _sweep_outcome(evaluator.evaluate, overrides) == expected


def test_infopad_sweep_matches_row_major_and_shuffled():
    from repro.designs.infopad import build_infopad

    design = build_infopad()
    evaluator = BatchEvaluator(design, ("power", "area", "delay"))
    target = "custom_hardware.luminance_chip.read_bank.bits"
    points = [{"VDD2": vdd2, "VDD1": vdd1, target: bits_}
              for vdd2 in (1.1, 1.5) for vdd1 in (3.3, 5.0) for bits_ in (8.0, 12.0, 16.0)]
    shuffled = list(points)
    random.Random(7).shuffle(shuffled)
    for overrides in points + shuffled:
        expected = _sweep_outcome(_walker_point, design, overrides, ("power", "area", "delay"))
        assert _sweep_outcome(evaluator.evaluate, overrides) == expected
    stats = evaluator.stats()
    assert stats["hits"] > stats["misses"] > 0


# -- the parser against the recursive-descent one -----------------------------------

_TOKENS = ["a", "b", "1", "2.5", "3f", "+", "-", "*", "/", "^", "%", "(", ")", "(",
           ")", ",", "?", ":", "<", "==", "and", "or", "not", "min", "f(", "abs("]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=14))
def test_parser_matches_recursive_descent(tokens):
    source = " ".join(tokens)
    assert outcome(parse, source) == outcome(oracle.parse, source)
    if outcome(parse, source)[0] == "ok":
        assert parse(source) == oracle.parse(source)
