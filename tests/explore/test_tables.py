"""Tables: a sub-design, row or derived objective that reads only some
of the axes runs once over their grid.

In a columnar chunk of a product space, a sub-design or a row (one
that reads no feeds) whose steps read, of the swept parameters, only
axes whose grid holds fewer points than the space is evaluated once
over that grid, one chunk's points at a time; every chunk then takes
its points from the table with one gather
(``repro.core.plan.Plan.columns``).  A derived objective that reads
only axis values is tabled the same way (``repro.explore.engine``).
These tests hold every row of such sweeps to the per-point loop
(``chunk_size=1``), bit for bit and error for error, and check that
the tables are really used, bounded, guarded and tied to the axis
arrays and stored values they were built from.
"""

import json
import random
import struct
import sys
from pathlib import Path

import numpy as np
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
from repro.core import plan as plan_module
from repro.core.parameters import Parameter
from repro.core.plan import Plan, _Node
from repro.designs.infopad import build_infopad
from repro.explore import (
    Axis,
    DerivedObjective,
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

BITS = "custom_hardware.luminance_chip.read_bank.bits"
WRITE_BITS = "custom_hardware.luminance_chip.write_bank.bits"


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


def sweep_with(design, space, chunk_size, evaluator=None, derived=()):
    """A serial sweep's rows and columnar points through one evaluator,
    which is returned too (its plan holds the tables), and the derived
    objectives' tables (name -> table or None)."""
    evaluator = evaluator or BatchEvaluator(design, ("power",))
    rows, columnar, derived_tables = [], 0, {}
    for start, stop in space.chunks(chunk_size):
        chunk, _, _, _, _, points = _evaluate_chunk(
            evaluator, space, derived, derived_tables, (), start, stop)
        rows += chunk
        columnar += points
    return rows, columnar, evaluator, derived_tables


def tables(evaluator):
    """Each step (a sub-design or a row) the evaluator's plan serves
    from a table, with its power table (a column over the step's grid,
    or one float)."""
    return [(step, table[2]) for plan in evaluator._plans.values()
            if plan._tables is not None
            for step, table in plan._tables[2].items() if table is not None]


def name_of(step):
    return step.label if isinstance(step, _Node) else step.row.name


def tabled(evaluator):
    """The names of the sub-designs and rows the evaluator's plan
    serves from tables."""
    return sorted(name_of(step) for step, _ in tables(evaluator))


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


def _derived(space):
    """A random space's derived objectives, drawn from the space itself:
    one over 1-2 of its axes, each read by axis name or by target, that
    sometimes divides by zero at one axis value; sometimes a second one
    that reads ``power`` or the first (neither is ever tabled)."""
    rng = random.Random(json.dumps(space.to_payload(), sort_keys=True))
    picked = rng.sample(space.axes, min(len(space.axes), rng.choice([1, 1, 2])))
    reads = [rng.choice([axis.name, axis.target]) for axis in picked]
    source = rng.choice([" * ", " + "]).join(reads) + " + 1"
    if rng.random() < 0.3:
        source = f"({source}) / ({reads[0]} - {rng.choice(picked[0].values)!r})"
    derived = [DerivedObjective("d0", source)]
    if rng.random() < 0.3:
        derived.append(DerivedObjective("d1", rng.choice(["power * 2", "d0 * 2"])))
    return tuple(derived)


def sweep_outcome(design, space, chunk_size):
    """A sweep's rows as exact bits and its exports, with the space's
    derived objectives; or, where an arithmetic error that is not a
    ``PowerPlayError`` stopped it at the first point raising it, that
    error."""
    try:
        outcome = run_sweep(design, space, chunk_size=chunk_size,
                            derived=_derived(space))
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
    """Not vacuous: the property's spaces table rows, sub-designs (some
    with feeds between their own rows) and derived objectives, in chunks
    that stay columnar."""
    rows = subtrees = fed = derived = columnar = 0
    for seed in range(80):
        design, space = _space(seed)
        _, points, evaluator, derived_tables = sweep_with(
            design, space, 16, derived=_derived(space))
        steps = [step for step, _ in tables(evaluator)]
        subtrees += sum(isinstance(step, _Node) for step in steps)
        fed += sum(isinstance(step, _Node) and _feeds_within(step) for step in steps)
        rows += sum(not isinstance(step, _Node) for step in steps)
        derived += sum(table is not None for table in derived_tables.values())
        columnar += points
    assert rows >= 15 and subtrees >= 5 and fed >= 2 and derived >= 6 \
        and columnar >= 250, (rows, subtrees, fed, derived, columnar)


def _feeds_within(node):
    return any(_feeds_within(child) if isinstance(child, _Node) else child.inputs
               for child in node.children)


# -- the paper's sweep --------------------------------------------------------------


def _perfbench_space():
    sys.path.insert(0, str(ROOT))
    from perfbench import sweep as perfbench_sweep

    return perfbench_sweep.make_space(41), perfbench_sweep.CHUNK


#: every InfoPad row but the converter, which reads feeds
ONE_RAIL = ["custom_hardware", "display_lcds", "microprocessor_subsystem",
            "other_io_devices", "radio_subsystem", "support_electronics"]


def test_infopad_rows_are_tabled_where_they_read_one_rail():
    """perfbench's ``sweep_exact`` space (40 VDD2 x 11 VDD1 x 9 bits) at
    chunk 64: the custom hardware (VDD2 x bits) is one table, and so is
    each other row but the converter."""
    space, chunk = _perfbench_space()
    points = len(space)
    outcome = run_sweep(build_infopad(), space, chunk_size=chunk)
    assert outcome.report.columnar == points == 3960
    # tabled: the custom hardware's 11 rows over VDD2 x bits (360
    # points), the microprocessor on VDD1 (11), four rows on neither;
    # each row misses once per grid point and hits at every point served
    built = 11 * 360 + 11 + 4 * 1
    # per chunk: the converter (it reads feeds) misses at every point
    assert outcome.report.misses == built + points
    assert outcome.report.hits == 16 * points
    _, _, evaluator, _ = sweep_with(build_infopad(), space, chunk)
    assert tabled(evaluator) == ONE_RAIL


def test_a_grid_larger_than_the_chunk_is_built_in_slices(monkeypatch):
    """The custom hardware's 360-point grid is tabled at chunk 64, built
    64 points at a time, and at chunk 360 in one go: the same table and
    the same rows."""
    space, chunk = _perfbench_space()
    seen, original = [], plan_module.tabulate

    def tabulate(arrays, count, evaluate):
        def watched(positions):  # the points one build step holds
            seen.append(max((at.size for at in positions), default=1))
            return evaluate(positions)

        return original(arrays, count, watched)

    monkeypatch.setattr(plan_module, "tabulate", tabulate)
    built = {}
    for size in (chunk, 360):
        seen.clear()
        rows, _, evaluator, _ = sweep_with(build_infopad(), space, size)
        [custom] = [power for step, power in tables(evaluator)
                    if name_of(step) == "custom_hardware"]
        built[size] = (rows, custom)
        assert max(seen) <= size and custom.size == 360
    assert [row_bits(row) for row in built[chunk][0]] \
        == [row_bits(row) for row in built[360][0]]
    assert built[chunk][1].tobytes() == built[360][1].tobytes()


def test_a_sub_design_reading_a_coupled_target_runs_per_chunk():
    """The write bank's bits follow the read bank's axis, so the custom
    hardware and the luminance chip run per chunk; the chroma chips and
    the controller, which read VDD2 alone, stay tabled."""
    coupled = ParameterSpace(
        [Axis("VDD2", (1.1, 1.5, 2.0, 2.5)), Axis("VDD1", (3.3, 5.0)),
         Axis("bw", (8.0, 12.0, 16.0), target=BITS)],
        [CoupledParam(WRITE_BITS, "bw")])
    reference = run_sweep(build_infopad(), coupled, chunk_size=1)
    rows, columnar, evaluator, _ = sweep_with(build_infopad(), coupled, 12)
    assert columnar == len(coupled)
    assert [row_bits(row) for row in rows] == [row_bits(row) for row in reference.rows]
    assert "custom_hardware" not in tabled(evaluator)
    assert "luminance_chip" not in tabled(evaluator)
    assert {"chroma_chips", "protocol_controller"} <= set(tabled(evaluator))


# -- derived objectives ---------------------------------------------------------------


def test_derived_objectives_that_read_only_axes_are_tabled():
    """An objective is tabled over the axes its names resolve to, by
    axis name or by target; one that reads an objective, a coupled
    value or every axis is evaluated per chunk.  Rows are the
    per-point loop's either way."""
    space = ParameterSpace(
        [Axis("v2", (1.1, 1.5, 2.0, 2.5), target="VDD2"), Axis("VDD1", (3.3, 5.0)),
         Axis("bw", (8.0, 12.0, 16.0), target=BITS)],
        [CoupledParam(WRITE_BITS, "bw / 2")])
    derived = (
        DerivedObjective("by_name", "2e-8 * (v2 / 1.5) / ((v2 - 0.7) ^ 1.3)"),
        DerivedObjective("by_target", "VDD2 * VDD1 + pi"),
        DerivedObjective("on_power", "power * v2"),
        DerivedObjective("on_coupled", f"{WRITE_BITS} * 2"),
        DerivedObjective("on_derived", "by_name * 2"),
        DerivedObjective("everywhere", "v2 * VDD1 * bw"),
    )
    reference = run_sweep(build_infopad(), space, derived=derived, chunk_size=1)
    rows, columnar, _, derived_tables = sweep_with(build_infopad(), space, 12,
                                                    derived=derived)
    assert columnar == len(space)
    assert [row_bits(row) for row in rows] == [row_bits(row) for row in reference.rows]
    assert {name: table and (table[0], table[1].size)
            for name, table in derived_tables.items()} == {
        "by_name": (["v2"], 4), "by_target": (["v2", "VDD1"], 8),
        "on_power": None, "on_coupled": None, "on_derived": None, "everywhere": None}


def test_a_derived_objective_reads_an_axis_named_as_a_constant():
    """``e`` is a constant, but an axis named ``e`` shadows it, in the
    table as at each point."""
    design = _guarded("divisor")
    space = ParameterSpace([Axis("e", (4.0, 5.0, 6.0, 7.0), target="w"), Axis("v", V)])
    derived = (DerivedObjective("scaled", "e * 2"),)
    reference = run_sweep(design, space, derived=derived, chunk_size=1)
    rows, _, _, derived_tables = sweep_with(design, space, len(V), derived=derived)
    assert derived_tables["scaled"][0] == ["e"]
    assert [row_bits(row) for row in rows] == [row_bits(row) for row in reference.rows]


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
    elif guard == "subdesign":
        unit = Design("unit")
        unit.scope.set("_area", "w * 1n")  # read by the wires
        unit.scope.set("span", "1 / (w - 3)")  # the unit's own formula
        unit.add("core", ExpressionPowerModel("core", "w * 2m"))
        design.add_subdesign("unit", unit)
        design.add("wires", ExpressionPowerModel("wires", "active_area * 1e3"),
                   area_feeds=["unit"])
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
    "subdesign": ("w", (4.0, 5.0, 3.0, 7.0), "unit"),
    "validate": ("alu.bits", (8.0, 16.0, 70.0, 32.0), "alu"),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_a_guard_at_one_axis_value_spares_the_other_chunks(guard):
    target, outer, row = GUARDS[guard]
    space = ParameterSpace([Axis("w", outer, target=target), Axis("v", V)])
    reference = run_sweep(_guarded(guard), space, chunk_size=1)
    rows, columnar, evaluator, _ = sweep_with(_guarded(guard), space, len(V))
    assert [row_bits(r) for r in rows] == [row_bits(r) for r in reference.rows]
    bad = [r["index"] for r in reference.rows if r["error"]]
    if guard == "area":
        assert bad == []  # the per-point pass keeps the area parameter
    else:
        assert bad == list(range(2 * len(V), 3 * len(V)))
    # only the chunk holding the bad value runs point by point
    assert columnar == 3 * len(V)
    # ``steady`` reads ``v`` alone; with ``validate`` it skips the axis
    # validated per chunk, which the space's size counts
    assert "steady" in tabled(evaluator) and row not in tabled(evaluator)


def test_a_tabled_sub_design_evaluates_its_own_scope():
    """Tabled, the unit still runs its own parameters: its ``_area``
    feeds the wires at every point."""
    space = ParameterSpace([Axis("w", (4.0, 5.0, 6.0, 7.0)), Axis("v", V)])
    reference = run_sweep(_guarded("subdesign"), space, chunk_size=1)
    rows, columnar, evaluator, _ = sweep_with(_guarded("subdesign"), space, len(V))
    assert tabled(evaluator) == ["steady", "unit"] and columnar == len(space)
    assert [row_bits(r) for r in rows] == [row_bits(r) for r in reference.rows]


# -- tables and their axis arrays -----------------------------------------------------


def test_one_evaluator_two_spaces_over_the_same_targets():
    """Each space's rows are its own: no table outlives its arrays."""
    design = build_infopad()
    first = ParameterSpace([Axis("VDD2", (1.1, 1.5, 2.0, 2.5)),
                            Axis("VDD1", (3.3, 5.0)),
                            Axis("bits", (8.0, 12.0), target=BITS)])
    second = ParameterSpace([Axis("VDD2", (1.2, 1.8, 2.2, 3.0)),
                             Axis("VDD1", (3.0, 4.5)),
                             Axis("bits", (10.0, 16.0), target=BITS)])
    evaluator = BatchEvaluator(design, ("power",))
    for space in (first, second, first):
        expected = [row_bits(r) for r in run_sweep(design, space, chunk_size=1).rows]
        rows, columnar, _, _ = sweep_with(design, space, 16, evaluator)
        assert [row_bits(r) for r in rows] == expected
        assert columnar == len(space)
        assert tabled(evaluator) == ONE_RAIL


def test_a_refresh_drops_the_tables():
    """A plan refreshed after an edit builds its tables again from the
    stored values."""
    design = Design("edited")
    for name, value in (("VDD", 1.5), ("w", 1.0), ("v", 1.0), ("gain", 2.0)):
        design.scope.set(name, value)
    design.add("steady", ExpressionPowerModel("steady", "v * gain * 1m"))
    design.add("bias", ExpressionPowerModel("bias", "w * v * 1m"))
    w, v = np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    axes = [(design.scope, "w", w, np.repeat([0, 1], 3)),
            (design.scope, "v", v, np.tile([0, 1, 2], 2))]
    plan = Plan(design)
    plan.columns([], 6, axes, 6)
    design.scope.set("gain", 3.0)
    assert plan.refresh()
    assert plan.columns([], 6, axes, 6).tobytes() \
        == Plan(design).columns([], 6, axes, 6).tobytes()
    assert [name_of(step) for step, table in plan._tables[2].items() if table] \
        == ["steady"]
