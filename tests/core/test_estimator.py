"""Hierarchical estimation: the Play button and its analyses."""

import pytest
from hypothesis import given, strategies as st

from repro.core.design import Design
from repro.core.estimator import (
    consumers_for_fraction,
    compare,
    coverage,
    evaluate_area,
    evaluate_power,
    evaluate_timing,
    scope_overrides,
    sweep,
    top_consumers,
)
from repro.core.expressions import compile_expression as E
from repro.core.model import (
    CapacitiveTerm,
    ExpressionAreaModel,
    ExpressionPowerModel,
    ModelSet,
    TemplatePowerModel,
    VoltageScaledTimingModel,
)
from repro.core.parameters import Parameter, ParameterScope
from repro.errors import DesignError, ModelError

ADDER = TemplatePowerModel(
    "adder",
    capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
    parameters=(Parameter("bitwidth", 16),),
)

FULL_SET = ModelSet(
    power=ADDER,
    area=ExpressionAreaModel("area", "bitwidth * 2n", (Parameter("bitwidth", 16),)),
    timing=VoltageScaledTimingModel("delay", 10e-9),
)


def nested_design():
    leafs = Design("leafs")
    leafs.add("x", ADDER, params={"bitwidth": 8})
    leafs.add("y", ADDER, params={"bitwidth": 24})
    top = Design("top")
    top.scope.set("VDD", 1.5)
    top.scope.set("f", 2e6)
    top.add("z", ADDER, params={"bitwidth": 16})
    top.add_subdesign("sub", leafs)
    return top


class TestPowerEvaluation:
    def test_root_is_sum_of_children(self):
        report = evaluate_power(nested_design())
        assert report.power == pytest.approx(
            sum(child.power for child in report.children)
        )

    def test_inner_nodes_sum_of_leaves(self):
        report = evaluate_power(nested_design())
        sub = report["sub"]
        assert sub.power == pytest.approx(sum(c.power for c in sub.children))

    def test_flatten_paths(self):
        report = evaluate_power(nested_design())
        paths = [path for path, _ in report.flatten()]
        assert paths == ["top/z", "top/sub/x", "top/sub/y"]

    def test_leaves_iteration(self):
        report = evaluate_power(nested_design())
        assert len(list(report.leaves())) == 3

    def test_child_lookup_errors(self):
        report = evaluate_power(nested_design())
        with pytest.raises(DesignError):
            report.child("nope")

    def test_overrides_do_not_leak(self):
        design = nested_design()
        base = evaluate_power(design).power
        boosted = evaluate_power(design, overrides={"VDD": 3.0}).power
        assert boosted == pytest.approx(4 * base)
        assert evaluate_power(design).power == pytest.approx(base)

    def test_override_with_formula(self):
        design = nested_design()
        design.scope.set("V_nom", 1.5)
        report = evaluate_power(design, overrides={"VDD": "V_nom * 2"})
        assert report.power == pytest.approx(4 * evaluate_power(design).power)

    def test_model_error_names_row(self):
        design = Design("d")
        design.add("bad", ExpressionPowerModel("bad", "ghost * 2"))
        with pytest.raises(ModelError, match="'bad'"):
            evaluate_power(design)

    def test_untraced_evaluation_does_not_count_leaves(self, monkeypatch):
        from repro.core.estimator import PowerReport

        def walk(self):
            raise AssertionError("leaf_count read with tracing off")

        monkeypatch.setattr(PowerReport, "leaf_count", property(walk))
        assert evaluate_power(nested_design()).power > 0

    def test_traced_evaluation_records_rows_and_leaves(self):
        from repro import obs
        from repro.obs.propagate import TraceContext

        # under a caller's context, so no local trace id is minted
        context = TraceContext("ab" * 16, "1")
        with obs.overridden(enabled=True):
            with obs.traced("caller", context):
                report = evaluate_power(nested_design())
            root = obs.last_trace().children[0]
        assert root.name == "evaluate_power"
        assert root.attributes["leaves"] == 3
        assert root.attributes["rows"] == report.evaluated_rows
        assert root.attributes["watts"] == report.power

    def test_report_parameters_snapshot(self):
        report = evaluate_power(nested_design())
        assert report["z"].parameters["bitwidth"] == 16.0
        assert report.parameters["VDD"] == 1.5


class TestScopeOverrides:
    def test_restores_values_and_formulas(self):
        scope = ParameterScope({"a": 1.0, "b": "a * 2"})
        with scope_overrides(scope, {"a": 5.0, "b": 7.0}):
            assert scope["a"] == 5.0
            assert scope["b"] == 7.0
        assert scope["a"] == 1.0
        assert scope["b"] == 2.0  # formula restored, not frozen value

    def test_restores_on_exception(self):
        scope = ParameterScope({"a": 1.0})
        with pytest.raises(RuntimeError):
            with scope_overrides(scope, {"a": 9.0}):
                raise RuntimeError("boom")
        assert scope["a"] == 1.0

    def test_new_name_removed_after(self):
        scope = ParameterScope({"a": 1.0})
        with scope_overrides(scope, {"fresh": 2.0}):
            assert scope["fresh"] == 2.0
        assert "fresh" not in scope


class TestAreaTiming:
    def make(self):
        design = Design("d")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        design.add("a", FULL_SET, params={"bitwidth": 8})
        design.add("b", FULL_SET, params={"bitwidth": 16})
        design.add("no_area", ADDER, params={"bitwidth": 4})
        return design

    def test_area_sums_modeled_rows(self):
        report = evaluate_area(self.make())
        assert report.area == pytest.approx((8 + 16) * 2e-9)
        unmodeled = [c for c in report.children if not c.modeled]
        assert [c.name for c in unmodeled] == ["no_area"]

    def test_timing_is_max(self):
        design = self.make()
        report = evaluate_timing(design)
        modeled = [c.delay for c in report.children if c.modeled]
        assert report.delay == pytest.approx(max(modeled))

    def test_timing_voltage_tradeoff(self):
        design = self.make()
        slow = evaluate_timing(design, overrides={"VDD": 1.1}).delay
        fast = evaluate_timing(design, overrides={"VDD": 3.0}).delay
        assert slow > fast

    def test_area_feed_into_interconnect(self):
        from repro.models.interconnect import InterconnectModel

        design = self.make()
        design.add(
            "wiring",
            InterconnectModel(),
            params={"activity": 0.25},
            area_feeds=["a", "b"],
        )
        report = evaluate_power(design)
        assert report["wiring"].power > 0


class TestAnalyses:
    def test_top_consumers_sorted(self):
        report = evaluate_power(nested_design())
        ranked = top_consumers(report, 3)
        values = [watts for _path, watts in ranked]
        assert values == sorted(values, reverse=True)
        assert ranked[0][0] == "top/sub/y"  # widest adder

    def test_coverage_monotonic_and_complete(self):
        report = evaluate_power(nested_design())
        rows = coverage(report)
        cumulative = [fraction for _p, _w, fraction in rows]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == pytest.approx(1.0)

    def test_consumers_for_fraction(self):
        report = evaluate_power(nested_design())
        selected = consumers_for_fraction(report, 0.5)
        total = sum(watts for _path, watts in selected)
        assert total / report.power >= 0.5
        # minimality: dropping the last selection goes below the target
        if len(selected) > 1:
            assert (total - selected[-1][1]) / report.power < 0.5

    def test_fraction_bounds(self):
        report = evaluate_power(nested_design())
        with pytest.raises(ValueError):
            consumers_for_fraction(report, 0.0)
        with pytest.raises(ValueError):
            consumers_for_fraction(report, 1.5)

    def test_sweep_shape(self):
        design = nested_design()
        results = sweep(design, "VDD", [1.0, 2.0, 3.0])
        assert [value for value, _w in results] == [1.0, 2.0, 3.0]
        watts = [w for _v, w in results]
        assert watts[1] == pytest.approx(4 * watts[0])
        assert watts[2] == pytest.approx(9 * watts[0])

    def test_sweep_with_overrides(self):
        design = nested_design()
        plain = sweep(design, "VDD", [1.5])
        doubled = sweep(design, "VDD", [1.5], overrides={"f": 4e6})
        assert doubled[0][1] == pytest.approx(2 * plain[0][1])

    def test_compare(self):
        a = nested_design()
        b = nested_design()
        b.name = "other"
        results = compare([a, b])
        assert [name for name, _w in results] == ["top", "other"]
        assert results[0][1] == pytest.approx(results[1][1])


@given(
    st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=8),
    st.floats(min_value=0.8, max_value=5.0),
)
def test_property_hierarchy_sum_invariant(bitwidths, vdd):
    """Any design's total equals the sum over its leaves."""
    design = Design("p")
    design.scope.set("VDD", vdd)
    design.scope.set("f", 1e6)
    for index, bits in enumerate(bitwidths):
        design.add(f"row{index}", ADDER, params={"bitwidth": bits})
    report = evaluate_power(design)
    assert report.power == pytest.approx(
        sum(watts for _path, watts in report.flatten())
    )
