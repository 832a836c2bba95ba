"""Tabled rows: a row that reads only axes runs once over its grid.

In a columnar chunk of a product space, a row that reads no feeds and,
of the swept parameters, only axes whose lengths multiply to at most
the chunk's points is evaluated once over that grid; every chunk then
takes its points from the table with one gather
(``repro.core.plan.Plan.columns``).  These tests hold every row of such
sweeps to the per-point loop (``chunk_size=1``), bit for bit and error
for error, and check that the tables are really used, bounded, guarded
and tied to the axis arrays they were built from.
"""

import random
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.design import Design
from repro.core.expressions import compile_expression
from repro.core.model import (
    CapacitiveTerm,
    ExpressionAreaModel,
    ExpressionPowerModel,
    ModelSet,
    TemplatePowerModel,
)
from repro.core.parameters import Parameter
from repro.designs.infopad import build_infopad
from repro.explore import (
    Axis,
    ParameterSpace,
    export_csv,
    export_json,
    run_sweep,
)
from repro.explore.batcheval import BatchEvaluator, resolve_target
from repro.explore.engine import COLUMNAR_MIN_POINTS, _evaluate_chunk
from repro.explore.space import CoupledParam

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
import test_plan_differential as differential  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def _bits(value):
    return struct.pack("<d", value) if type(value) is float else value


def row_bits(row):
    """A result row with every float as its exact bits."""
    return (row["index"], row["error"],
            *[[(name, _bits(value)) for name, value in row[part].items()]
              for part in ("values", "overrides", "objectives")])


def exports(outcome):
    names = (outcome.axis_names, outcome.objective_names)
    return export_csv(outcome.rows, *names), export_json(outcome.rows, *names)


def sweep_with(design, space, chunk_size, evaluator=None):
    """A serial sweep's rows and columnar points through one evaluator,
    which is returned too: its plan holds the tables."""
    evaluator = evaluator or BatchEvaluator(design, ("power",))
    rows, columnar = [], 0
    for start, stop in space.chunks(chunk_size):
        chunk, _, _, _, _, points = _evaluate_chunk(
            evaluator, space, (), (), start, stop)
        rows += chunk
        columnar += points
    return rows, columnar, evaluator


def tables(evaluator):
    """Each row the evaluator's plan serves from a table, with its power
    table (a column over the row's grid, or one float)."""
    return [(leaf.row, table[1]) for plan in evaluator._plans.values()
            if plan._tables is not None
            for leaf, table in plan._tables[2].items() if table is not None]


def tabled(evaluator):
    """The names of the rows the evaluator's plan serves from tables."""
    return sorted(row.name for row, _ in tables(evaluator))


# -- random designs against the per-point loop ------------------------------------

#: axis values, and the wild ones a quarter of the axes also take: a
#: zero of either sign meets divisions and ``validate``'s integer
#: coercion, 70 is out of range for a template's ``bits``
MILD = (0.5, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 3.3, 4.0, 5.0, 8.0, 16.0)
WILD = (0.0, -0.0, 70.0)


def _axis(rng, name, target, longest):
    values = rng.sample(MILD, rng.randint(2, longest))
    if rng.random() < 0.25:
        values[rng.randrange(len(values))] = rng.choice(WILD)
    return Axis(name, tuple(values), target=target)


def _space(seed):
    """A random design and a product space over 1-3 of its targets,
    global and row-local, perhaps with a coupled target."""
    design = differential.build_design(seed)
    rng = random.Random(seed)
    targets = [target for target in differential._targets(design, rng)
               if differential.outcome(resolve_target, design, target)[0] == "ok"]
    picked = rng.sample(targets, min(len(targets), rng.randint(1, 4)))
    coupled = []
    if len(picked) > 1 and rng.random() < 0.5:
        source = rng.choice(["a0 * 2 - 1", "a0 + 0.5", "a0 / 2"])
        coupled = [CoupledParam(picked.pop(), source)]
    picked = picked[:3]
    longest = (12, 7, 4)[len(picked) - 1]  # at most 12, 49 or 64 points
    axes = [_axis(rng, f"a{position}", target, longest)
            for position, target in enumerate(picked)]
    return design, ParameterSpace(axes, coupled)


def sweep_outcome(design, space, chunk_size):
    """A sweep's rows as exact bits and its exports; or, where an
    arithmetic error that is not a ``PowerPlayError`` stopped it at the
    first point raising it, that error."""
    try:
        outcome = run_sweep(design, space, chunk_size=chunk_size)
    except (ArithmeticError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", [row_bits(row) for row in outcome.rows], exports(outcome))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_tabled_sweeps_match_the_per_point_loop(seed):
    design, space = _space(seed)
    expected = sweep_outcome(design, space, 1)
    for chunk_size in (COLUMNAR_MIN_POINTS, 16, 64):
        assert sweep_outcome(design, space, chunk_size) == expected, chunk_size


def test_the_property_reaches_tables():
    """Not vacuous: the property's spaces table rows, in chunks that
    stay columnar."""
    tables = columnar = 0
    for seed in range(40):
        design, space = _space(seed)
        _, points, evaluator = sweep_with(design, space, 16)
        tables += len(tabled(evaluator))
        columnar += points
    assert tables >= 20 and columnar >= 150, (tables, columnar)


# -- the paper's sweep --------------------------------------------------------------


def _perfbench_space():
    sys.path.insert(0, str(ROOT))
    from perfbench import sweep as perfbench_sweep

    return perfbench_sweep.make_space(41), perfbench_sweep.CHUNK


def test_infopad_rows_are_tabled_where_they_read_one_rail():
    """perfbench's ``sweep_exact`` space (40 VDD2 x 11 VDD1 x 9 bits) at
    chunk 64: 15 of the 17 leaf rows are tabled."""
    space, chunk = _perfbench_space()
    points = len(space)
    outcome = run_sweep(build_infopad(), space, chunk_size=chunk)
    assert outcome.report.columnar == points == 3960
    # tabled: ten custom-chip rows on VDD2 (40 values), the microprocessor
    # on VDD1 (11), four rows on neither; each misses once per grid point
    # and hits at every point it serves
    built = 10 * 40 + 11 + 4 * 1
    # per chunk: the luminance read bank (VDD2 x bits, 360 > 64 points)
    # and the converter (it reads feeds) miss at every point
    assert outcome.report.misses == built + 2 * points
    assert outcome.report.hits == 15 * points
    _, _, evaluator = sweep_with(build_infopad(), space, chunk)
    assert len(tabled(evaluator)) == 15
    assert "voltage_converters" not in tabled(evaluator)


def test_a_grid_larger_than_the_chunk_is_not_tabled():
    """The luminance read bank's 360-point grid is tabled only from a
    chunk of 360 points; the rows are the same either way."""
    space, chunk = _perfbench_space()
    design = build_infopad()
    read_bank = design.row("custom_hardware").design.row("luminance_chip") \
        .design.row("read_bank")
    rows, _, evaluator = sweep_with(design, space, chunk)
    assert all(row is not read_bank for row, _ in tables(evaluator))
    assert max(getattr(power, "size", 1) for _, power in tables(evaluator)) == 40
    large, _, evaluator = sweep_with(design, space, 360)
    assert [power.size for row, power in tables(evaluator) if row is read_bank] == [360]
    assert [row_bits(row) for row in large] == [row_bits(row) for row in rows]


# -- guards -------------------------------------------------------------------------

#: the outer axis ``w`` holds one bad value; the inner axis ``v`` fills
#: each chunk, so every chunk sees one value of ``w``
V = tuple(1.0 + i for i in range(12))


def _guarded(guard):
    design = Design("guards")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 1e6)
    design.scope.set("w", 8.0)
    design.scope.set("v", 1.0)
    design.add("steady", ExpressionPowerModel("steady", "v * 1m"))
    if guard == "capacitance":
        design.add("alu", TemplatePowerModel(
            "alu", capacitive=[CapacitiveTerm("c", compile_expression("w * 68f"))]))
    elif guard == "divisor":
        design.add("bias", ExpressionPowerModel("bias", "1m / (w - 3)"))
    elif guard == "area":
        design.add("block", ModelSet(ExpressionPowerModel("block", "w * 1m"),
                                     ExpressionAreaModel("block_area", "1n / (w - 3)")))
        design.add("wires", ExpressionPowerModel("wires", "active_area * 1e3"),
                   area_feeds=["block"])
    else:
        design.add("alu", TemplatePowerModel(
            "alu", capacitive=[CapacitiveTerm("c", compile_expression("bits * 68f"))],
            parameters=(Parameter("bits", 8, minimum=1, maximum=64),)))
    return design


GUARDS = {
    # guard: (target of the outer axis, its values, the row it trips)
    "capacitance": ("w", (4.0, 5.0, -1.0, 7.0), "alu"),
    "divisor": ("w", (4.0, 5.0, 3.0, 7.0), "bias"),
    "area": ("w", (4.0, 5.0, 3.0, 7.0), "block"),
    "validate": ("alu.bits", (8.0, 16.0, 70.0, 32.0), "alu"),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_a_guard_at_one_axis_value_spares_the_other_chunks(guard):
    target, outer, row = GUARDS[guard]
    space = ParameterSpace([Axis("w", outer, target=target), Axis("v", V)])
    reference = run_sweep(_guarded(guard), space, chunk_size=1)
    rows, columnar, evaluator = sweep_with(_guarded(guard), space, len(V))
    assert [row_bits(r) for r in rows] == [row_bits(r) for r in reference.rows]
    bad = [r["index"] for r in reference.rows if r["error"]]
    if guard == "area":
        assert bad == []  # the per-point pass keeps the area parameter
    else:
        assert bad == list(range(2 * len(V), 3 * len(V)))
    # only the chunk holding the bad value runs point by point
    assert columnar == 3 * len(V)
    assert "steady" in tabled(evaluator) and row not in tabled(evaluator)


# -- tables and their axis arrays -----------------------------------------------------


def test_one_evaluator_two_spaces_over_the_same_targets():
    """Each space's rows are its own: no table outlives its arrays."""
    design = build_infopad()
    bits = "custom_hardware.luminance_chip.read_bank.bits"
    first = ParameterSpace([Axis("VDD2", (1.1, 1.5, 2.0, 2.5)),
                            Axis("VDD1", (3.3, 5.0)),
                            Axis("bits", (8.0, 12.0), target=bits)])
    second = ParameterSpace([Axis("VDD2", (1.2, 1.8, 2.2, 3.0)),
                             Axis("VDD1", (3.0, 4.5)),
                             Axis("bits", (10.0, 16.0), target=bits)])
    evaluator = BatchEvaluator(design, ("power",))
    for space in (first, second, first):
        expected = [row_bits(r) for r in run_sweep(design, space, chunk_size=1).rows]
        rows, columnar, _ = sweep_with(design, space, 16, evaluator)
        assert [row_bits(r) for r in rows] == expected
        assert columnar == len(space)
        assert len(tabled(evaluator)) == 16  # all but the converter
