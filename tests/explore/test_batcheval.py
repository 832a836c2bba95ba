"""BatchEvaluator: bit-identical to the estimator, reuses rows, restorable."""

import pytest

from repro.core.design import Design
from repro.core.estimator import evaluate_power, scope_overrides
from repro.core.expressions import compile_expression as E
from repro.core.model import (
    CallablePowerModel,
    CapacitiveTerm,
    TemplatePowerModel,
)
from repro.core.parameters import Parameter
from repro.designs.infopad import build_infopad
from repro.errors import ExploreError
from repro.explore import BatchEvaluator, resolve_target

ADDER = TemplatePowerModel(
    "adder",
    capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
    parameters=(Parameter("bitwidth", 16),),
)

RAM = TemplatePowerModel(
    "ram",
    capacitive=[CapacitiveTerm("cells", E("words * bits * 1.2f"))],
    parameters=(Parameter("words", 256), Parameter("bits", 16)),
)


def make_design():
    design = Design("d")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 2e6)
    design.add("alu", ADDER, params={"bitwidth": 16})
    design.add("mem", RAM, params={"words": 512})
    return design


class TestEquivalence:
    def test_bit_identical_to_estimator(self):
        design = make_design()
        evaluator = BatchEvaluator(design)
        for vdd in (1.1, 1.5, 2.0, 3.3):
            for bits in (8.0, 16.0, 32.0):
                overrides = {"VDD": vdd, "bitwidth": bits}
                batch = evaluator.evaluate(overrides)["power"]
                with scope_overrides(design.scope, overrides):
                    serial = evaluate_power(design).power
                assert batch == serial  # exact: not approx

    def test_memo_hits_accumulate(self):
        design = make_design()
        evaluator = BatchEvaluator(design)
        # only the alu reads bitwidth: sweeping it must leave the mem
        # row untouched, so hits grow past the first point
        for bits in (8.0, 12.0, 16.0, 24.0):
            evaluator.evaluate({"bitwidth": bits})
        stats = evaluator.stats()
        assert stats["hits"] >= 3
        assert stats["hits"] + stats["misses"] >= 8

    def test_infopad_dotted_target(self):
        design = build_infopad()
        evaluator = BatchEvaluator(design)
        target = "custom_hardware.luminance_chip.read_bank.bits"
        low = evaluator.evaluate({target: 8.0})["power"]
        high = evaluator.evaluate({target: 16.0})["power"]
        assert low < high

    def test_multiple_objectives(self):
        design = build_infopad()
        evaluator = BatchEvaluator(design, ("power", "area", "delay"))
        result = evaluator.evaluate({"VDD2": 1.5})
        assert set(result) == {"power", "area", "delay"}
        assert result["power"] > 0


class TestStateDiscipline:
    def test_scope_restored_after_evaluate(self):
        design = make_design()
        evaluator = BatchEvaluator(design)
        evaluator.evaluate({"VDD": 9.9, "bitwidth": 64.0})
        assert design.scope["VDD"] == 1.5
        assert design.row("alu").scope["bitwidth"] == 16

    def test_new_global_name_removed_again(self):
        design = make_design()
        evaluator = BatchEvaluator(design)
        evaluator.evaluate({"brand_new": 1.0})
        assert "brand_new" not in design.scope.local_names()

    def test_unknown_objective_rejected(self):
        with pytest.raises(ExploreError, match="unknown objective"):
            BatchEvaluator(make_design(), ("power", "speed"))

    def test_unreplayable_model_still_correct(self):
        # a model that iterates its env is a fallback row; it must be
        # re-evaluated every point, never served a stale value
        def snooping(env):
            seen = dict(env)  # iterates its environment
            return seen["VDD"] * 1e-3

        design = Design("d")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        design.add("spy", CallablePowerModel("spy", snooping))
        evaluator = BatchEvaluator(design)
        for vdd in (1.0, 2.0, 3.0, 2.0):
            got = evaluator.evaluate({"VDD": vdd})["power"]
            assert got == vdd * 1e-3


class TestResolveTarget:
    def test_plain_name_is_global(self):
        design = make_design()
        scope, name = resolve_target(design, "VDD")
        assert scope is design.scope and name == "VDD"

    def test_dotted_path_reaches_row_scope(self):
        design = make_design()
        scope, name = resolve_target(design, "alu.bitwidth")
        assert scope is design.row("alu").scope and name == "bitwidth"

    def test_missing_row_rejected(self):
        with pytest.raises(ExploreError, match="names no row"):
            resolve_target(make_design(), "nope.bitwidth")

    def test_missing_parameter_rejected(self):
        with pytest.raises(ExploreError):
            resolve_target(make_design(), "alu.nope")
