"""Result post-processing: Pareto rows, sensitivity, exports."""

import json

from repro.explore import (
    export_csv,
    export_json,
    pareto_rows,
    sensitivity_ranking,
)


def row(index, values, objectives, error=""):
    return {
        "index": index,
        "values": values,
        "overrides": dict(values),
        "objectives": objectives,
        "error": error,
    }


class TestParetoRows:
    def test_dominated_rows_drop(self):
        rows = [
            row(0, {"a": 1.0}, {"power": 1.0, "delay": 9.0}),
            row(1, {"a": 2.0}, {"power": 2.0, "delay": 4.0}),
            row(2, {"a": 3.0}, {"power": 3.0, "delay": 5.0}),  # dominated
            row(3, {"a": 4.0}, {"power": 4.0, "delay": 2.0}),
        ]
        front = pareto_rows(rows, ("power", "delay"))
        assert [r["index"] for r in front] == [0, 1, 3]

    def test_ties_all_survive(self):
        rows = [
            row(0, {"a": 1.0}, {"power": 1.0, "delay": 1.0}),
            row(1, {"a": 2.0}, {"power": 1.0, "delay": 1.0}),
        ]
        assert len(pareto_rows(rows, ("power", "delay"))) == 2

    def test_failed_rows_excluded(self):
        rows = [
            row(0, {"a": 1.0}, {}, error="boom"),
            row(1, {"a": 2.0}, {"power": 5.0}),
        ]
        assert [r["index"] for r in pareto_rows(rows, ("power",))] == [1]

    def test_single_objective_is_the_minimum(self):
        rows = [
            row(0, {"a": 1.0}, {"power": 3.0}),
            row(1, {"a": 2.0}, {"power": 1.0}),
            row(2, {"a": 3.0}, {"power": 2.0}),
        ]
        assert [r["index"] for r in pareto_rows(rows, ("power",))] == [1]

    def test_output_preserves_point_order(self):
        rows = [
            row(0, {"a": 1.0}, {"power": 4.0, "delay": 1.0}),
            row(1, {"a": 2.0}, {"power": 1.0, "delay": 4.0}),
        ]
        assert [r["index"] for r in pareto_rows(rows, ("power", "delay"))] \
            == [0, 1]


class TestSensitivity:
    def rows(self):
        # power = 10*a + b: axis a moves the objective 10x harder
        out = []
        index = 0
        for a in (1.0, 2.0):
            for b in (1.0, 2.0):
                out.append(
                    row(index, {"a": a, "b": b}, {"power": 10 * a + b})
                )
                index += 1
        return out

    def test_ranking_orders_by_impact(self):
        ranking = sensitivity_ranking(self.rows(), ["a", "b"])
        assert [item["axis"] for item in ranking] == ["a", "b"]
        assert ranking[0]["spread"] == 10.0
        assert ranking[1]["spread"] == 1.0

    def test_no_usable_rows(self):
        failed = [row(0, {"a": 1.0}, {}, error="x")]
        assert sensitivity_ranking(failed, ["a"]) == []


class TestExports:
    def rows(self):
        return [
            row(0, {"a": 1.25}, {"power": 0.1 + 0.2}),
            row(1, {"a": 2.0}, {}, error='bad "corner"'),
        ]

    def test_csv_shape_and_float_fidelity(self):
        text = export_csv(self.rows(), ["a"], ["power"])
        lines = text.splitlines()
        assert lines[0] == "index,a,power,error"
        # repr floats round-trip exactly, including 0.30000000000000004
        assert lines[1].split(",")[2] == repr(0.1 + 0.2)
        assert "bad 'corner'" in lines[2]

    def test_json_is_canonical_and_stable(self):
        first = export_json(self.rows(), ["a"], ["power"])
        second = export_json(self.rows(), ["a"], ["power"])
        assert first == second
        payload = json.loads(first)
        assert payload["format"] == "powerplay-sweep-results/1"
        assert payload["axes"] == ["a"]
        assert len(payload["rows"]) == 2

    def test_csv_header_is_index_axes_objectives_error(self):
        plain = [row(0, {"a": 1.0}, {"power": 1.0})]
        lines = export_csv(plain, ["a"], ["power"]).splitlines()
        assert lines[0] == "index,a,power,error"

    def test_json_meta_included(self):
        text = export_json(self.rows(), ["a"], ["power"], meta={"job": "x"})
        assert json.loads(text)["meta"] == {"job": "x"}


class TestNonFiniteHardening:
    """A derived objective can be NaN or inf at a corner of the space;
    analysis must drop, not propagate."""

    def rows(self):
        return [
            row(0, {"a": 1.0}, {"power": 1.0, "delay": 2.0}),
            row(1, {"a": 2.0}, {"power": float("nan"), "delay": 1.0}),
            row(2, {"a": 3.0}, {"power": float("inf"), "delay": 0.5}),
            row(3, {"a": 4.0}, {"power": 2.0, "delay": 1.0}),
            row(4, {"a": 5.0}, {}, error="boom"),
        ]

    def test_pareto_drops_non_finite(self):
        front = pareto_rows(self.rows(), ("power", "delay"))
        assert [r["index"] for r in front] == [0, 3]

    def test_nan_never_wins_single_objective(self):
        front = pareto_rows(self.rows(), ("power",))
        assert [r["index"] for r in front] == [0]

    def test_sensitivity_skips_non_finite(self):
        import math

        ranking = sensitivity_ranking(self.rows(), ["a"], "power")
        for entry in ranking:
            assert math.isfinite(entry["spread"])
            assert math.isfinite(entry["relative"])
