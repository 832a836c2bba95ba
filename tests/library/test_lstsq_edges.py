"""Edge cases of the shared least-squares solver.

``_lstsq`` is the rank-checked solve behind the Landman
characterization fits (EQ 3/4), so its failure modes are part of
characterization's contract.
"""

import numpy as np
import pytest

from repro.errors import CharacterizationError
from repro.library.characterize import _lstsq


def design(xs, columns=2):
    xs = np.asarray(xs, dtype=float)
    cols = [np.ones_like(xs)]
    for power in range(1, columns):
        cols.append(xs ** power)
    return np.column_stack(cols)


class TestLstsqEdges:
    def test_exact_fit_recovered(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        basis = design(xs)
        solution = _lstsq(basis, 3.0 + 0.5 * xs)
        np.testing.assert_allclose(solution, [3.0, 0.5])

    def test_underdetermined_rejected(self):
        basis = design([1.0], columns=2)  # 1 row, 2 columns
        with pytest.raises(CharacterizationError,
                           match="need at least 2 sweep points"):
            _lstsq(basis, np.array([1.0]))

    def test_rank_deficient_basis_rejected(self):
        # every sweep point identical: the slope column is a constant
        # multiple of the intercept column
        basis = design([2.0, 2.0, 2.0, 2.0])
        with pytest.raises(CharacterizationError,
                           match="rank-deficient"):
            _lstsq(basis, np.array([1.0, 1.0, 1.0, 1.0]))

    def test_duplicate_points_are_fine_if_rank_survives(self):
        # duplicates add weight, not degeneracy, when other values vary
        xs = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        solution = _lstsq(design(xs), 1.0 + 2.0 * xs)
        np.testing.assert_allclose(solution, [1.0, 2.0])

    def test_single_column_basis(self):
        xs = np.array([1.0, 2.0, 4.0])
        basis = design(xs, columns=1)  # intercept only
        solution = _lstsq(basis, np.array([3.0, 3.0, 3.0]))
        np.testing.assert_allclose(solution, [3.0])

    def test_single_column_of_zeros_is_rank_deficient(self):
        basis = np.zeros((3, 1))
        with pytest.raises(CharacterizationError, match="rank-deficient"):
            _lstsq(basis, np.array([1.0, 2.0, 3.0]))

    def test_overdetermined_least_squares_solution(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        measured = np.array([0.0, 1.1, 1.9, 3.1])
        solution = _lstsq(design(xs), measured)
        # normal-equations optimum, not an interpolation
        predicted = design(xs) @ solution
        gradient = design(xs).T @ (predicted - measured)
        np.testing.assert_allclose(gradient, 0.0, atol=1e-12)

    def test_non_finite_measurements_do_not_crash_the_rank_check(self):
        # lstsq happily returns NaN coefficients for NaN inputs; the
        # caller (characterize) is responsible for filtering.  This pins the division of labor: _lstsq checks
        # shape and rank, nothing else.
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        solution = _lstsq(design(xs), np.array([1.0, np.nan, 2.0, 3.0]))
        assert solution.shape == (2,)
