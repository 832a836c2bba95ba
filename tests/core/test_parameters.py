"""Parameter declarations and hierarchical scopes."""

import pytest
from hypothesis import given, strategies as st

from repro.core.expressions import Expression
from repro.core.parameters import Parameter, ParameterScope, check_name
from repro.errors import ParameterError


class TestParameter:
    def test_basic_declaration(self):
        parameter = Parameter("bitwidth", 16, "bits", "datapath width", 1, 64)
        assert parameter.validate(32) == 32.0

    def test_bounds(self):
        parameter = Parameter("alpha", 0.5, minimum=0.0, maximum=1.0)
        with pytest.raises(ParameterError, match="below minimum"):
            parameter.validate(-0.1)
        with pytest.raises(ParameterError, match="above maximum"):
            parameter.validate(1.1)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ParameterError):
            Parameter("x", 0, minimum=2, maximum=1)

    def test_integer_coercion(self):
        parameter = Parameter("words", 256, integer=True)
        assert parameter.validate(128.0) == 128.0
        with pytest.raises(ParameterError, match="integer"):
            parameter.validate(128.5)

    def test_choices(self):
        parameter = Parameter("inputs", 2, choices=(2, 4, 8))
        assert parameter.validate(4) == 4.0
        with pytest.raises(ParameterError, match="not one of"):
            parameter.validate(3)

    @pytest.mark.parametrize("bad", ["", "1abc", "a b", "a-b", None])
    def test_bad_names(self, bad):
        with pytest.raises(ParameterError):
            Parameter(bad, 0)

    def test_dotted_name_allowed(self):
        Parameter("lut.words", 256)

    def test_non_numeric_validate(self):
        with pytest.raises(ParameterError, match="not a number"):
            Parameter("x", 0).validate("abc")

    @pytest.mark.parametrize("declaration", [
        Parameter("bits", 8, integer=True),
        Parameter("bits", 8, minimum=1, maximum=64),
        Parameter("x", 0),
    ])
    @pytest.mark.parametrize("value", [float("nan"), 10 ** 400, float("inf")])
    def test_non_finite_validate_raises_only_parameter_error(self, declaration, value):
        """``int(nan)`` and ``float(10**400)`` raise other errors, and NaN
        passes every bound comparison; an unbounded real takes inf."""
        if value == float("inf") and declaration.name == "x":
            assert declaration.validate(value) == value
            return
        with pytest.raises(ParameterError):
            declaration.validate(value)

    def test_check_name_is_the_declaration_rule(self):
        for good in ("VDD", "_x", "lut.words", "x1"):
            check_name(good)
        for bad in ("", " VDD", "a b", "1abc", "a-b", None):
            with pytest.raises(ParameterError):
                check_name(bad)


class TestScopeBasics:
    def test_set_get(self):
        scope = ParameterScope()
        scope.set("VDD", 1.5)
        assert scope["VDD"] == 1.5
        assert "VDD" in scope

    def test_string_numbers_coerce(self):
        scope = ParameterScope()
        scope.set("f", "2000000")
        assert scope["f"] == 2e6

    def test_string_formulas(self):
        scope = ParameterScope({"f_pixel": 2e6})
        scope.set("f", "f_pixel / 16")
        assert scope["f"] == pytest.approx(125000.0)
        assert isinstance(scope.raw("f"), Expression)

    def test_bool_coercion(self):
        scope = ParameterScope()
        scope.set("enabled", True)
        assert scope["enabled"] == 1.0

    def test_unknown_raises(self):
        with pytest.raises(ParameterError, match="unknown parameter"):
            ParameterScope()["nope"]

    def test_get_default(self):
        assert ParameterScope().get("nope", 7.0) == 7.0

    def test_unset(self):
        scope = ParameterScope({"x": 1.0})
        scope.unset("x")
        assert "x" not in scope
        with pytest.raises(ParameterError):
            scope.unset("x")

    def test_bad_value_type(self):
        with pytest.raises(ParameterError):
            ParameterScope().set("x", object())

    def test_mapping_protocol(self):
        scope = ParameterScope({"a": 1.0, "b": 2.0})
        assert set(scope) == {"a", "b"}
        assert len(scope) == 2
        assert scope.flattened() == {"a": 1.0, "b": 2.0}


class TestInheritance:
    def test_child_sees_parent(self):
        parent = ParameterScope({"VDD": 1.5})
        child = parent.child()
        assert child["VDD"] == 1.5

    def test_child_override_shadows(self):
        parent = ParameterScope({"VDD": 1.5})
        child = parent.child({"VDD": 3.3})
        assert child["VDD"] == 3.3
        assert parent["VDD"] == 1.5

    def test_unset_reexposes_inherited(self):
        parent = ParameterScope({"VDD": 1.5})
        child = parent.child({"VDD": 3.3})
        child.unset("VDD")
        assert child["VDD"] == 1.5

    def test_three_levels(self):
        top = ParameterScope({"VDD": 5.0})
        middle = top.child()
        leaf = middle.child()
        assert leaf["VDD"] == 5.0
        top.set("VDD", 3.3)
        assert leaf["VDD"] == 3.3

    def test_formula_resolves_through_child(self):
        """A parent formula evaluated via a child uses child overrides —
        the 'any parameter as a function of these parameters' behaviour."""
        parent = ParameterScope({"VDD": 1.5, "energy": "C * VDD^2", "C": 1e-12})
        child = parent.child({"VDD": 3.0})
        assert parent["energy"] == pytest.approx(2.25e-12)
        assert child["energy"] == pytest.approx(9e-12)

    def test_names_dedupe(self):
        parent = ParameterScope({"a": 1.0, "b": 2.0})
        child = parent.child({"a": 3.0, "c": 4.0})
        assert child.names() == ["a", "c", "b"]
        assert child.local_names() == ["a", "c"]


class TestFormulas:
    def test_chained_formulas(self):
        scope = ParameterScope({"a": 2.0, "b": "a * 3", "c": "b + a"})
        assert scope["c"] == 8.0

    def test_self_reference_detected(self):
        scope = ParameterScope({"x": "x + 1"})
        with pytest.raises(ParameterError, match="circular"):
            scope["x"]

    def test_mutual_cycle_detected(self):
        scope = ParameterScope({"a": "b + 1", "b": "a + 1"})
        with pytest.raises(ParameterError, match="circular"):
            scope["a"]

    def test_missing_dependency(self):
        scope = ParameterScope({"x": "y * 2"})
        with pytest.raises(ParameterError, match="cannot evaluate"):
            scope["x"]

    def test_formula_after_fix_is_reusable(self):
        scope = ParameterScope({"x": "y * 2"})
        with pytest.raises(ParameterError):
            scope["x"]
        scope.set("y", 4.0)
        assert scope["x"] == 8.0


class TestDeclarations:
    def test_declare_installs_default(self):
        scope = ParameterScope()
        scope.declare(Parameter("bitwidth", 16))
        assert scope["bitwidth"] == 16.0

    def test_declared_bounds_enforced_on_set(self):
        scope = ParameterScope()
        scope.declare(Parameter("alpha", 0.5, minimum=0.0, maximum=1.0))
        with pytest.raises(ParameterError):
            scope.set("alpha", 2.0)

    def test_declaration_found_up_the_chain(self):
        parent = ParameterScope(declarations=[Parameter("alpha", 0.5, maximum=1.0)])
        child = parent.child()
        with pytest.raises(ParameterError):
            child.set("alpha", 5.0)

    def test_declare_does_not_clobber_existing_value(self):
        scope = ParameterScope({"bitwidth": 8})
        scope.declare(Parameter("bitwidth", 16))
        assert scope["bitwidth"] == 8.0


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
    ),
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
)
def test_property_child_resolution(parent_values, child_values):
    """A child resolves to its own value when set, else the parent's."""
    parent = ParameterScope(parent_values)
    child = parent.child(child_values)
    for name in set(parent_values) | set(child_values):
        expected = child_values.get(name, parent_values.get(name))
        assert child[name] == expected
