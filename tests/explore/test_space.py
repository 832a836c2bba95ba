"""Parameter-space declaration: axes, coupling, enumeration, payloads."""

import pytest

from repro.errors import ExploreError
from repro.explore import (
    Axis,
    DerivedObjective,
    ParameterSpace,
    coupled_from_spec,
    parse_axis_spec,
)


class TestAxisSpecs:
    def test_linear_range_inclusive_stop(self):
        axis = parse_axis_spec("VDD=1.0:2.0:0.5")
        assert axis.name == "VDD"
        assert list(axis.values) == [1.0, 1.5, 2.0]

    def test_linear_tolerates_float_accumulation(self):
        # 1.1 + 22 * 0.1 lands within 1e-9 of 3.3: the stop is included
        axis = parse_axis_spec("VDD2=1.1:3.3:0.1")
        assert len(axis.values) == 23
        assert axis.values[-1] == pytest.approx(3.3)

    def test_explicit_values(self):
        axis = parse_axis_spec("bw=8,12,16")
        assert list(axis.values) == [8.0, 12.0, 16.0]

    def test_log_spacing(self):
        axis = parse_axis_spec("f=log:1e6:1e9:4")
        assert len(axis.values) == 4
        assert axis.values[0] == pytest.approx(1e6)
        assert axis.values[-1] == pytest.approx(1e9)
        ratios = [
            axis.values[i + 1] / axis.values[i]
            for i in range(len(axis.values) - 1)
        ]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    def test_dotted_target(self):
        axis = parse_axis_spec("bw@chip.bank.bits=8,16")
        assert axis.name == "bw"
        assert axis.target == "chip.bank.bits"

    @pytest.mark.parametrize(
        "spec",
        [
            "no_equals_sign",
            "VDD=",
            "VDD=1.0:zz:0.1",
            "VDD=1.0:2.0:0",
            "VDD=2.0:1.0:0.1",
            "bw=8,oops,16",
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ExploreError):
            parse_axis_spec(spec)


class TestSpaceEnumeration:
    def space(self):
        return ParameterSpace(
            [Axis("a", (1.0, 2.0)), Axis("b", (10.0, 20.0, 30.0))]
        )

    def test_row_major_last_axis_fastest(self):
        space = self.space()
        assert len(space) == 6
        values = [space.point(i)["values"] for i in range(len(space))]
        assert values[0] == {"a": 1.0, "b": 10.0}
        assert values[1] == {"a": 1.0, "b": 20.0}
        assert values[3] == {"a": 2.0, "b": 10.0}
        # deterministic: a second enumeration is identical
        assert values == [space.point(i)["values"] for i in range(6)]

    def test_chunks_tile_the_space_exactly(self):
        space = self.space()
        chunks = space.chunks(4)
        assert chunks == [(0, 4), (4, 6)]
        covered = [i for start, stop in chunks for i in range(start, stop)]
        assert covered == list(range(len(space)))
        with pytest.raises(ExploreError):
            space.chunks(0)

    def test_point_cap_enforced(self):
        with pytest.raises(ExploreError, match="over the cap"):
            ParameterSpace(
                [Axis("a", tuple(range(100))), Axis("b", tuple(range(100)))],
                point_cap=1000,
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ExploreError, match="duplicate"):
            ParameterSpace([Axis("a", (1.0,)), Axis("a", (2.0,))])

    def test_index_out_of_range(self):
        with pytest.raises(ExploreError):
            self.space().point(6)

    def test_payload_round_trip(self):
        space = ParameterSpace(
            [parse_axis_spec("VDD=1.0:2.0:0.5"),
             parse_axis_spec("bw@row.bits=8,16")],
            [coupled_from_spec("wb=bw / 2")],
            point_cap=500,
        )
        clone = ParameterSpace.from_payload(space.to_payload())
        assert len(clone) == len(space)
        assert clone.axis_names == space.axis_names
        assert [clone.point(i) for i in range(len(clone))] == [
            space.point(i) for i in range(len(space))
        ]


class TestCoupledAndDerived:
    def test_coupled_value_follows_axes(self):
        space = ParameterSpace(
            [Axis("bw", (8.0, 16.0))], [coupled_from_spec("wb=bw / 2")]
        )
        assert space.point(0)["overrides"] == {"bw": 8.0, "wb": 4.0}
        assert space.point(1)["overrides"] == {"bw": 16.0, "wb": 8.0}

    def test_coupled_target_collision_rejected(self):
        with pytest.raises(ExploreError, match="duplicate"):
            ParameterSpace(
                [Axis("bw", (8.0,))], [coupled_from_spec("bw=bw * 2")]
            )

    def test_bad_coupled_expression(self):
        with pytest.raises(ExploreError, match="bad expression"):
            coupled_from_spec("wb=bw +* 2")

    def test_coupled_name_not_an_axis_rejected_at_construction(self):
        with pytest.raises(ExploreError, match="reads 'bww'"):
            ParameterSpace(
                [Axis("bw", (8.0, 16.0))], [coupled_from_spec("wb=bww / 2")]
            )

    def test_coupled_may_read_constants(self):
        space = ParameterSpace(
            [Axis("bw", (8.0,))], [coupled_from_spec("wb=bw * pi")]
        )
        assert space.point(0)["overrides"]["wb"] == 8.0 * 3.141592653589793

    def test_axis_columns_equal_axis_values(self):
        space = ParameterSpace(
            [Axis("a", (1.0, -0.0, 2.5)), Axis("b", (0.1, 0.2)),
             Axis("c", (3.0, 5e-324, -7.0, 8.0))]
        )
        for indices in (range(len(space)), [23, 0, 7, 7, 12], range(5, 5)):
            columns = space.axis_columns(indices)
            assert list(columns) == space.axis_names
            for at, index in enumerate(indices):
                assert [repr(c.tolist()[at]) for c in columns.values()] == [
                    repr(v) for v in space.axis_values(index).values()]
        for bad in ([24], [-1], range(20, 25)):
            with pytest.raises(ExploreError, match="out of range"):
                space.axis_columns(bad)

    def test_columns_equal_points(self):
        space = ParameterSpace(
            [Axis("a", (1.0, -0.0, 2.5)), Axis("bw", (8.0, 16.0))],
            [coupled_from_spec("wb=bw / 2 + a")],
        )
        for indices in (range(6), [5, 0, 3], range(2, 4)):
            values, overrides = space.columns(indices)
            for at, index in enumerate(indices):
                point = space.point(index)
                assert {k: c.tolist()[at] for k, c in values.items()} == point["values"]
                assert [repr(c.tolist()[at]) for c in overrides.values()] == [
                    repr(v) for v in point["overrides"].values()]
                assert list(overrides) == list(point["overrides"])
        with pytest.raises(ExploreError):
            space.columns([6])

    def test_derived_objective_evaluates(self):
        objective = DerivedObjective("speed", "1.0 / delay")
        assert objective.value({"delay": 0.5}) == 2.0

    def test_derived_bad_name(self):
        with pytest.raises(ExploreError, match="bad objective name"):
            DerivedObjective("no spaces!", "1.0")
