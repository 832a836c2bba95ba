"""The design spreadsheet: a Design seen as live cells."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.design import Design
from repro.core.estimator import evaluate_power
from repro.core.evalcache import cached_evaluate_power
from repro.core.expressions import compile_expression as E
from repro.core.model import CapacitiveTerm, TemplatePowerModel
from repro.core.parameters import Parameter
from repro.core.sheetbridge import DesignSheet
from repro.designs.infopad import build_infopad
from repro.designs.luminance import build_figure1_design, build_figure3_design
from repro.errors import EvaluationError, ParameterError, ParseError, SheetError
from repro.models.converter import DCDCConverterModel

ADDER = TemplatePowerModel(
    "adder",
    capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
    parameters=(Parameter("bitwidth", 16),),
)


def make_design():
    design = Design("demo")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 2e6)
    design.add("alu", ADDER, params={"bitwidth": 16})
    design.add("acc", ADDER, params={"bitwidth": 32})
    return design


def power_cells(values):
    return {name: value for name, value in values.items() if name.startswith("P.")}


class TestConstruction:
    def test_cells_created(self):
        bridge = DesignSheet(make_design())
        names = set(bridge.names())
        assert {"g.VDD", "g.f", "alu.bitwidth", "acc.bitwidth",
                "P.alu", "P.acc", "P.total"} <= names

    def test_total_matches_estimator(self):
        design = make_design()
        bridge = DesignSheet(design)
        assert bridge.total_power == pytest.approx(
            evaluate_power(design).power
        )

    def test_row_power_matches(self):
        design = make_design()
        bridge = DesignSheet(design)
        report = evaluate_power(design)
        assert bridge.row_power("alu") == pytest.approx(report["alu"].power)

    def test_formula_parameters_not_exposed_as_cells(self):
        design = make_design()
        design.row("alu").set("f", "g_rate / 4")
        design.scope.set("g_rate", 8e6)
        bridge = DesignSheet(design)
        assert "alu.f" not in bridge
        # but the formula still feeds the evaluation
        assert bridge.row_power("alu") > 0

    def test_names_and_membership(self):
        """Parameter cells, row powers, the total, then derived cells,
        each named once; ``in`` and ``values()`` agree with ``names()``."""
        bridge = DesignSheet(make_design())
        bridge.add_derived("share", "P.alu / P.total")
        names = bridge.names()
        assert names == ["g.VDD", "g.f", "alu.bitwidth", "acc.bitwidth",
                         "P.alu", "P.acc", "P.total", "share"]
        assert all(name in bridge for name in names)
        assert "ghost" not in bridge and 1 not in bridge
        assert list(bridge.values()) == names

    def test_subdesign_rows_have_no_parameter_cells(self):
        child = Design("child")
        child.add("x", ADDER, params={"bitwidth": 8})
        parent = make_design()
        parent.add_subdesign("child", child)
        bridge = DesignSheet(parent)
        assert "P.child" in bridge
        assert not [name for name in bridge.names() if name.startswith("child.")]
        with pytest.raises(SheetError, match="not a writable"):
            bridge.set_parameter("child.bitwidth", 4)


class TestEdits:
    def test_set_parameter_updates_both_sides(self):
        design = make_design()
        bridge = DesignSheet(design)
        base = bridge.total_power
        bridge.set_parameter("g.VDD", 3.0)
        assert design.scope["VDD"] == 3.0
        assert bridge.total_power == pytest.approx(4 * base)

    def test_row_parameter_edit(self):
        design = make_design()
        bridge = DesignSheet(design)
        alu_before = bridge.row_power("alu")
        bridge.set_parameter("alu.bitwidth", 32)
        assert bridge.row_power("alu") == pytest.approx(2 * alu_before)
        assert design.row("alu").scope["bitwidth"] == 32.0

    def test_incremental_recalculation(self):
        """Editing one row's parameter must not re-run the other row."""
        design = make_design()
        bridge = DesignSheet(design)
        _ = bridge.total_power
        (entry,) = bridge.cache._entries.values()
        misses = entry.plan.misses
        bridge.set_parameter("alu.bitwidth", 24)
        _ = bridge.total_power
        assert entry.plan.misses - misses == 1  # alu alone

    def test_unknown_cell_rejected(self):
        bridge = DesignSheet(make_design())
        with pytest.raises(SheetError, match="not a writable"):
            bridge.set_parameter("P.total", 1.0)
        with pytest.raises(SheetError):
            bridge.set_parameter("ghost", 1.0)
        with pytest.raises(SheetError, match="no cell"):
            _ = bridge["ghost"]

    @pytest.mark.parametrize("cell", ["g.VDD", "alu.bitwidth"])
    def test_bad_value_refused_and_the_design_kept(self, cell):
        design = make_design()
        bridge = DesignSheet(design)
        before = bridge.values()
        with pytest.raises(ParameterError):
            bridge.set_parameter(cell, object())
        assert bridge.values() == before
        assert design.scope["VDD"] == 1.5
        assert design.row("alu").scope["bitwidth"] == 16.0

    def test_read_without_an_edit_computes_nothing(self):
        design = make_design()
        bridge = DesignSheet(design)
        bridge.add_derived("share", "P.alu / P.total")
        _ = bridge.total_power
        settled = bridge.evaluations
        _ = bridge.values(), bridge["share"], bridge.row_power("acc")
        assert bridge.evaluations == settled == 1

    def test_direct_design_edit_is_seen(self):
        """The cells read the design itself, not a copy taken earlier."""
        design = build_figure3_design()
        bridge = DesignSheet(design)
        _ = bridge.total_power
        design.scope.set("VDD", 3.0)
        assert bridge.total_power == evaluate_power(design).power
        assert bridge["g.VDD"] == 3.0

    def test_direct_row_edit_is_seen(self):
        design = make_design()
        bridge = DesignSheet(design)
        _ = bridge.total_power
        design.row("alu").set("bitwidth", 32)
        assert bridge.row_power("alu") == evaluate_power(design)["alu"].power
        assert bridge["alu.bitwidth"] == 32.0

    def test_row_added_after_construction_gets_cells(self):
        design = make_design()
        bridge = DesignSheet(design)
        _ = bridge.total_power
        design.add("late", ADDER, params={"bitwidth": 4})
        assert "late.bitwidth" in bridge and "P.late" in bridge
        report = evaluate_power(design)
        assert bridge.row_power("late") == report["late"].power
        assert bridge.total_power == report.power


#: each paper design with two edits: a global and a row parameter
PAPER_DESIGNS = {
    "fig1": (build_figure1_design, [("g.VDD", 1.1), ("lut.words", 256)]),
    "fig3": (build_figure3_design, [("g.VDD", 1.1), ("lut.words", 256)]),
    "infopad": (build_infopad, [("g.VDD2", 1.1), ("radio_subsystem.tx_duty", 0.5)]),
}


class TestSameNumbersAsTheDesignPage:
    @pytest.mark.parametrize("label", sorted(PAPER_DESIGNS))
    def test_power_cells_bit_for_bit(self, label):
        """Every ``P.*`` cell is the estimator's number, before and after
        edits.  InfoPad's converter row is fed by the rows edited."""
        build, edits = PAPER_DESIGNS[label]
        design = build()
        bridge = DesignSheet(design)
        for cell, value in [(None, None)] + edits:
            if cell is not None:
                bridge.set_parameter(cell, value)
            cells = power_cells(bridge.values())
            for report in (evaluate_power(design), cached_evaluate_power(design)):
                expected = {f"P.{row.name}": row.power for row in report.children}
                expected["P.total"] = report.power
                assert cells == expected


class TestDerivedCells:
    def test_user_formula_over_power_cells(self):
        """'Any parameter can be expressed as a function of these
        parameters' — e.g. energy per frame from total power."""
        design = make_design()
        bridge = DesignSheet(design)
        bridge.add_derived("energy_per_frame", "P.total / 60")
        assert bridge["energy_per_frame"] == pytest.approx(
            bridge.total_power / 60
        )

    def test_derived_cell_tracks_edits(self):
        design = make_design()
        bridge = DesignSheet(design)
        bridge.add_derived("budget_share", "P.alu / P.total")
        before = bridge["budget_share"]
        bridge.set_parameter("acc.bitwidth", 64)
        after = bridge["budget_share"]
        assert after < before

    def test_battery_current_cell(self):
        design = make_design()
        bridge = DesignSheet(design)
        bridge.add_derived("battery_current", "P.total / 6.0")
        assert bridge["battery_current"] == pytest.approx(
            bridge.total_power / 6.0
        )

    def test_constant_cell(self):
        bridge = DesignSheet(make_design())
        bridge.add_derived("k", "3")
        assert bridge["k"] == 3.0
        bridge.set_parameter("g.VDD", 3.0)
        assert bridge["k"] == 3.0

    @pytest.mark.parametrize("text, value", [(" 42 ", 42.0), ("2M", 2e6)])
    def test_number_text_is_a_constant(self, text, value):
        bridge = DesignSheet(make_design())
        bridge.add_derived("k", text)
        assert bridge["k"] == value

    def test_formula_functions(self):
        bridge = DesignSheet(make_design())
        bridge.add_derived("largest", "max(P.alu, P.acc)")
        bridge.add_derived("root", "sqrt(g.VDD)")
        assert bridge["largest"] == max(bridge.row_power("alu"),
                                        bridge.row_power("acc"))
        assert bridge["root"] == pytest.approx(1.5 ** 0.5)

    def test_derived_cell_over_a_row_parameter(self):
        bridge = DesignSheet(make_design())
        bridge.add_derived("double_width", "alu.bitwidth * 2")
        assert bridge["double_width"] == 32.0
        bridge.set_parameter("alu.bitwidth", 24)
        assert bridge["double_width"] == 48.0

    def test_derived_cells_are_not_writable(self):
        bridge = DesignSheet(make_design())
        bridge.add_derived("share", "P.alu / P.total")
        with pytest.raises(SheetError, match="not a writable"):
            bridge.set_parameter("share", 1.0)
        assert bridge["share"] == bridge.row_power("alu") / bridge.total_power

    def test_syntax_error_refused_and_nothing_stored(self):
        bridge = DesignSheet(make_design())
        with pytest.raises(ParseError):
            bridge.add_derived("x", "1 +")
        assert "x" not in bridge
        bridge.add_derived("x", "1")
        assert bridge["x"] == 1.0

    def test_chain_over_earlier_derived_cells(self):
        bridge = DesignSheet(make_design())
        bridge.add_derived("C", "2e-12")
        bridge.add_derived("E", "C * g.VDD^2")
        bridge.add_derived("P", "E * g.f")
        assert bridge["P"] == pytest.approx(9e-6)
        bridge.set_parameter("g.VDD", 3.0)
        assert bridge["P"] == pytest.approx(36e-6)
        assert bridge.names()[-3:] == ["C", "E", "P"]

    @pytest.mark.parametrize("bad", ["", "1x", "a b", None])
    def test_bad_names_refused(self, bad):
        bridge = DesignSheet(make_design())
        with pytest.raises(SheetError):
            bridge.add_derived(bad, "1")
        assert bridge.names() == DesignSheet(make_design()).names()

    def test_reads_of_undefined_names_refused(self):
        """Only earlier cells can be read, so no cycle can form."""
        bridge = DesignSheet(make_design())
        with pytest.raises(SheetError, match="'y' reads x"):
            bridge.add_derived("y", "x * 2")
        bridge.add_derived("a", "P.total")
        with pytest.raises(SheetError, match="reads b"):
            bridge.add_derived("c", "a + b")
        assert "y" not in bridge and "c" not in bridge

    @pytest.mark.parametrize(
        "cell", ["P.total", "P.alu", "g.VDD", "alu.bitwidth", "share"])
    def test_existing_cells_cannot_be_overwritten(self, cell):
        design = make_design()
        bridge = DesignSheet(design)
        bridge.add_derived("share", "P.alu / P.total")
        before = bridge.values()
        with pytest.raises(SheetError, match="already a cell"):
            bridge.add_derived(cell, "5")
        assert bridge.values() == before
        assert design.scope["VDD"] == 1.5

    def test_self_reference_refused_and_the_sheet_stays_readable(self):
        design = make_design()
        bridge = DesignSheet(design)
        with pytest.raises(SheetError):
            bridge.add_derived("y", "y + 1")
        assert "y" not in bridge
        assert bridge.total_power == evaluate_power(design).power

    def test_mutual_reference_cannot_be_written(self):
        """Closing a loop means redefining an earlier cell, which is refused."""
        bridge = DesignSheet(make_design())
        bridge.add_derived("a", "1")
        bridge.add_derived("b", "a + 1")
        with pytest.raises(SheetError, match="already a cell"):
            bridge.add_derived("a", "b")
        assert (bridge["a"], bridge["b"]) == (1.0, 2.0)

    def test_failing_cell_and_its_readers_left_out(self):
        bridge = DesignSheet(make_design())
        bridge.add_derived("a", "1 / 0")
        bridge.add_derived("b", "a + 1")
        bridge.add_derived("good", "P.total * 2")
        values = bridge.values()
        assert "a" not in values and "b" not in values
        assert values["good"] == 2 * bridge.total_power
        with pytest.raises(EvaluationError, match="division by zero"):
            _ = bridge["a"]
        with pytest.raises(EvaluationError, match="'b'"):
            _ = bridge["b"]

    def test_failing_cell_recovers_after_an_edit(self):
        bridge = DesignSheet(make_design())
        bridge.add_derived("inverse", "1 / (g.VDD - 1.5)")
        assert "inverse" not in bridge.values()
        bridge.set_parameter("g.VDD", 2.0)
        assert bridge["inverse"] == 2.0


class TestSubDesigns:
    def test_subdesign_power_cell(self):
        child = Design("child")
        child.add("x", ADDER, params={"bitwidth": 8})
        parent = Design("parent")
        parent.scope.set("VDD", 1.5)
        parent.scope.set("f", 2e6)
        parent.add_subdesign("child", child)
        bridge = DesignSheet(parent)
        report = evaluate_power(parent)
        assert bridge.row_power("child") == pytest.approx(
            report["child"].power
        )


class TestSharedEvaluation:
    def test_one_evaluation_per_edit_regardless_of_rows(self):
        design = Design("wide")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        for index in range(40):
            design.add(f"row{index:02d}", ADDER, params={"bitwidth": 8})
        bridge = DesignSheet(design)
        _ = bridge.total_power
        settled = bridge.evaluations
        assert settled >= 1
        # a GLOBAL edit dirties all 40 power cells — still one evaluation
        bridge.set_parameter("g.VDD", 1.2)
        _ = bridge.total_power
        assert bridge.evaluations == settled + 1
        # a row edit: one more
        bridge.set_parameter("row07.bitwidth", 24)
        _ = bridge.total_power
        assert bridge.evaluations == settled + 2

    def test_values_still_correct_after_shared_eval(self):
        design = Design("d2")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        design.add("a", ADDER, params={"bitwidth": 8})
        design.add("b", ADDER, params={"bitwidth": 16})
        bridge = DesignSheet(design)
        bridge.set_parameter("a.bitwidth", 32)
        report = evaluate_power(design)
        assert bridge.row_power("a") == pytest.approx(report["a"].power)
        assert bridge.row_power("b") == pytest.approx(report["b"].power)
        assert bridge.total_power == pytest.approx(report.power)


#: derived cells over power, parameter and earlier derived cells
DERIVED = {
    "share": "P.alu / P.total",
    "energy": "P.total / g.f",
    "both": "share * energy + acc.bitwidth",
}


def sheet_with_derived(design):
    bridge = DesignSheet(design)
    for name, formula in DERIVED.items():
        bridge.add_derived(name, formula)
    return bridge


class TestIncrementalEqualsFresh:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["g.VDD", "g.f", "alu.bitwidth", "acc.bitwidth"]),
                st.floats(min_value=0.5, max_value=64, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_property_incremental_matches_fresh(self, edits):
        """After any edits, every cell equals a freshly built sheet's,
        including a converter row fed by the edited rows."""
        design = make_design()
        design.add("dcdc", DCDCConverterModel("dcdc", 0.85),
                   power_feeds=["alu", "acc"])
        bridge = sheet_with_derived(design)
        _ = bridge.values()
        for cell, value in edits:
            bridge.set_parameter(cell, value)
            assert bridge.values() == sheet_with_derived(design).values()
