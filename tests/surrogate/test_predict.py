"""Streaming prediction: lazy windows, Pareto mask, uncertainty band."""

import numpy as np
import pytest

from repro.errors import SurrogateError
from repro.explore import Axis, DerivedObjective, ParameterSpace, pareto_rows
from repro.surrogate import axis_matrix, fit_objective, pareto_mask, scan_space


def make_space(nx=9, ny=7):
    return ParameterSpace(
        [
            Axis("x", tuple(1.0 + 0.25 * i for i in range(nx))),
            Axis("y", tuple(0.5 + 0.25 * i for i in range(ny))),
        ]
    )


def exact_fn(matrix):
    x, y = matrix[:, 0], matrix[:, 1]
    return 1.0 + 2.0 * x + 0.5 * y + 0.25 * x * y


def fitted(space, name="power"):
    matrix = axis_matrix(space, 0, len(space))
    return fit_objective(matrix, exact_fn(matrix), name, basis="quadratic")


class TestAxisMatrix:
    def test_rows_match_point_enumeration(self):
        space = make_space(4, 3)
        matrix = axis_matrix(space, 0, len(space))
        for index in range(len(space)):
            values = space.point(index)["values"]
            assert matrix[index, 0] == values["x"]
            assert matrix[index, 1] == values["y"]

    def test_window_slice_matches_full(self):
        space = make_space()
        full = axis_matrix(space, 0, len(space))
        window = axis_matrix(space, 13, 29)
        np.testing.assert_array_equal(window, full[13:29])

    def test_out_of_range_window_rejected(self):
        space = make_space()
        with pytest.raises(SurrogateError, match="out of range"):
            axis_matrix(space, 0, len(space) + 1)


class TestParetoMask:
    def brute_force(self, vectors):
        n = len(vectors)
        keep = []
        for i in range(n):
            dominated = any(
                all(vectors[j][k] <= vectors[i][k]
                    for k in range(len(vectors[i])))
                and any(vectors[j][k] < vectors[i][k]
                        for k in range(len(vectors[i])))
                for j in range(n) if j != i
            )
            keep.append(not dominated)
        return np.array(keep)

    @pytest.mark.parametrize("columns", [2, 3, 4])
    def test_matches_brute_force(self, columns):
        rng = np.random.default_rng(columns)
        vectors = rng.integers(0, 6, size=(200, columns)).astype(float)
        np.testing.assert_array_equal(
            pareto_mask(vectors), self.brute_force(vectors)
        )

    def test_ties_on_full_vector_all_survive(self):
        vectors = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 3.0]])
        assert pareto_mask(vectors).tolist() == [True, True, True]

    def test_empty(self):
        assert pareto_mask(np.empty((0, 2))).size == 0

    def test_matches_pareto_rows_semantics(self):
        rng = np.random.default_rng(17)
        vectors = rng.integers(0, 5, size=(120, 2)).astype(float)
        rows = [
            {
                "index": i,
                "values": {"x": 0.0},
                "overrides": {},
                "objectives": {"a": float(v[0]), "b": float(v[1])},
                "error": "",
            }
            for i, v in enumerate(vectors)
        ]
        expected = {r["index"] for r in pareto_rows(rows, ("a", "b"))}
        assert set(np.flatnonzero(self.brute_force(vectors))) == expected


class TestScanSpace:
    def test_front_matches_exact_enumeration(self):
        space = ParameterSpace(
            [
                Axis("x", (1.0, 1.5, 2.0, 2.5, 3.0)),
                Axis("y", (0.5, 1.0, 1.5, 2.0)),
            ]
        )
        matrix = axis_matrix(space, 0, len(space))
        power = fit_objective(matrix, exact_fn(matrix), "power",
                              basis="quadratic")
        # second objective favors big x: a real trade-off, a real front
        area = fit_objective(matrix, 10.0 / matrix[:, 0], "area",
                             basis="log")
        scan = scan_space(
            space, {"power": power, "area": area}, ["power", "area"],
            chunk_size=7,
        )
        vectors = np.column_stack(
            [power.predict(matrix), area.predict(matrix)]
        )
        expected = sorted(np.flatnonzero(pareto_mask(vectors)).tolist())
        assert scan.front_indices == expected
        assert scan.scanned_points == len(space)

    def test_chunk_size_does_not_change_result(self):
        space = make_space()
        fits = {"power": fitted(space)}
        small = scan_space(space, fits, ["power"], chunk_size=5,
                           keep_uncertain=10)
        large = scan_space(space, fits, ["power"], chunk_size=1000,
                          keep_uncertain=10)
        assert small.front_indices == large.front_indices
        assert small.uncertain_indices == large.uncertain_indices
        assert small.predicted == large.predicted

    def test_derived_objective_computed_on_predictions(self):
        space = make_space(5, 5)
        fits = {"power": fitted(space)}
        derived = (DerivedObjective("doubled", "power * 2"),)
        scan = scan_space(space, fits, ["power"], derived, chunk_size=6)
        for index, values in scan.predicted.items():
            assert values["doubled"] == pytest.approx(2 * values["power"])

    def test_non_finite_predictions_dropped_and_counted(self):
        space = make_space(5, 5)
        fits = {"power": fitted(space)}
        # 1/(x - 2) explodes on the x == 2.0 column of the grid
        derived = (DerivedObjective("bad", "1 / (x - 2)"),)
        scan = scan_space(space, fits, ["power"], derived, chunk_size=6)
        assert scan.dropped_non_finite == 5
        assert all(
            np.isfinite(list(values.values())).all()
            for values in scan.predicted.values()
        )

    def test_band_excludes_front_and_orders_by_score(self):
        space = make_space()
        fits = {"power": fitted(space)}
        scan = scan_space(space, fits, ["power"], keep_uncertain=8)
        assert not set(scan.uncertain_indices) & set(scan.front_indices)
        scores = [scan.scores[i] for i in scan.uncertain_indices]
        assert scores == sorted(scores, reverse=True)

    def test_predictions_recorded_for_all_kept_rows(self):
        space = make_space()
        fits = {"power": fitted(space)}
        scan = scan_space(space, fits, ["power"], chunk_size=4,
                          keep_uncertain=12)
        wanted = set(scan.front_indices) | set(scan.uncertain_indices)
        assert wanted == set(scan.predicted)

    def test_missing_fit_rejected(self):
        space = make_space()
        with pytest.raises(SurrogateError, match="no surrogate fit"):
            scan_space(space, {}, ["power"])
