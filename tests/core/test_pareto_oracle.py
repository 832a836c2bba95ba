"""One brute-force oracle for every Pareto entry point.

``pareto_mask`` is the only dominance code in PowerPlay:
``pareto_rows``, the running ``ParetoFront`` of pruned sweeps and jobs,
``pareto_front`` and ``pareto_points`` all select their rows with it.  Each is checked here against a plain O(n^2) reading of
the definition, on seeded integer-valued grids (small integers give
many exact ties) with signed zeros, 1-4 objectives, failed rows and
NaN/+-inf rows.
"""

import math
import random

import numpy as np
import pytest

from repro.core import optimize
from repro.core.optimize import (
    GridPoint,
    pareto_front,
    pareto_mask,
    pareto_points,
)
from repro.errors import ModelError
from repro.explore.results import ParetoFront, pareto_rows

SEEDS = range(60)
NON_FINITE = (math.nan, math.inf, -math.inf)


def dominates(a, b):
    """``a`` is no worse on every objective and better on one."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def reference_front(vectors):
    """Indices of the vectors nothing dominates, in input order."""
    return [
        i for i, vector in enumerate(vectors)
        if not any(dominates(other, vector) for other in vectors)
    ]


def grid_vectors(rng, count, objectives):
    """Integer-valued vectors on a small grid; zeros get a random sign."""
    low, high = -rng.randint(0, 2), rng.randint(0, 3)
    vectors = []
    for _ in range(count):
        vector = []
        for _ in range(objectives):
            value = float(rng.randint(low, high))
            vector.append(-0.0 if value == 0 and rng.random() < 0.5
                          else value)
        vectors.append(tuple(vector))
    return vectors


def grid_rows(rng, count, names):
    """Sweep result rows over ``grid_vectors``; about one in ten failed
    and one in ten carrying a non-finite objective."""
    rows = []
    for index, vector in enumerate(grid_vectors(rng, count, len(names))):
        objectives = dict(zip(names, vector))
        error = ""
        roll = rng.random()
        if roll < 0.1:
            error = "boom"
            if rng.random() < 0.5:
                objectives = {}
        elif roll < 0.2:
            objectives[rng.choice(names)] = rng.choice(NON_FINITE)
        rows.append({
            "index": index,
            "values": {"x": float(index)},
            "overrides": {},
            "objectives": objectives,
            "error": error,
        })
    return rows


# a -0.0/0.0 tie on each of two front points, and one dominated point
SIGNED_ZEROS = [(0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (1.0, 0.0),
                (0.0, 2.0)]


def expected_front(rows, names):
    """The reference front of result rows: failed and non-finite rows
    dropped, the rest through ``reference_front``, in input order."""
    usable = [
        row for row in rows
        if not row["error"]
        and all(math.isfinite(v) for v in row["objectives"].values())
    ]
    vectors = [
        tuple(row["objectives"][name] for name in names) for row in usable
    ]
    return [usable[i] for i in reference_front(vectors)]


@pytest.mark.parametrize("objectives", [1, 2, 3, 4])
def test_pareto_rows_matches_reference(objectives):
    names = [f"o{k}" for k in range(objectives)]
    for seed in SEEDS:
        rng = random.Random(f"rows/{objectives}/{seed}")
        rows = grid_rows(rng, rng.randint(0, 60), names)
        expected = expected_front(rows, names)
        front = pareto_rows(rows, names)
        assert [row["index"] for row in front] == \
            [row["index"] for row in expected], f"seed {seed}"
        assert all(got is want for got, want in zip(front, expected))


@pytest.mark.parametrize("objectives", [1, 2, 3, 4])
def test_running_front_matches_reference(objectives):
    """The fold a pruned sweep or job applies chunk by chunk: the grid
    cut into random chunks that arrive in random order."""
    names = [f"o{k}" for k in range(objectives)]
    for seed in SEEDS:
        rng = random.Random(f"fold/{objectives}/{seed}")
        rows = grid_rows(rng, rng.randint(0, 60), names)
        cuts = sorted(rng.sample(range(1, max(1, len(rows))),
                                 min(max(0, len(rows) - 1), rng.randint(0, 9))))
        chunks = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]
        rng.shuffle(chunks)
        front = ParetoFront(names)
        for chunk in chunks:
            front.fold(chunk)
        expected = expected_front(rows, names)
        assert [row["index"] for row in front.rows] == \
            [row["index"] for row in expected], f"seed {seed}"
        assert all(got is want for got, want in zip(front.rows, expected))


@pytest.mark.parametrize("block", [2048, 5])
@pytest.mark.parametrize("objectives", [1, 2, 3, 4])
def test_pareto_mask_matches_reference(objectives, block, monkeypatch):
    # a tiny block makes the N-column helper merge across many blocks
    monkeypatch.setattr(optimize, "_DOMINANCE_BLOCK", block)
    for seed in SEEDS:
        rng = random.Random(f"mask/{objectives}/{seed}")
        vectors = grid_vectors(rng, rng.randint(0, 80), objectives)
        mask = pareto_mask(
            np.array(vectors, dtype=float).reshape(-1, objectives)
        )
        assert np.flatnonzero(mask).tolist() == reference_front(vectors), \
            f"seed {seed}"


def test_pareto_front_and_points_match_reference():
    for seed in SEEDS:
        rng = random.Random(f"front/{seed}")
        vectors = grid_vectors(rng, rng.randint(0, 60), 2)
        kept = reference_front(vectors)
        assert pareto_front(vectors) == \
            sorted(set(vectors[i] for i in kept)), f"seed {seed}"
        points = [
            GridPoint({"i": float(i)}, power, {"m": metric})
            for i, (power, metric) in enumerate(vectors)
        ]
        front = pareto_points(points, "m")
        assert [id(point) for point in front] == \
            [id(points[i]) for i in kept], f"seed {seed}"


def test_signed_zero_ties_survive_everywhere():
    kept = reference_front(SIGNED_ZEROS)
    assert kept == [0, 1, 2, 3]
    assert np.flatnonzero(pareto_mask(SIGNED_ZEROS)).tolist() == kept
    rows = [
        {"index": i, "objectives": {"a": a, "b": b}, "error": ""}
        for i, (a, b) in enumerate(SIGNED_ZEROS)
    ]
    assert [row["index"] for row in pareto_rows(rows, ("a", "b"))] == kept
    assert pareto_front(SIGNED_ZEROS) == [(0.0, 1.0), (1.0, 0.0)]
    points = [GridPoint({}, a, {"m": b}) for a, b in SIGNED_ZEROS]
    assert pareto_points(points, "m") == [points[i] for i in kept]


def test_non_finite_points_raise():
    for seed in SEEDS:
        rng = random.Random(f"raise/{seed}")
        vectors = grid_vectors(rng, rng.randint(1, 30), 2)
        at = rng.randrange(len(vectors))
        bad = list(vectors[at])
        bad[rng.randrange(2)] = rng.choice(NON_FINITE)
        vectors[at] = tuple(bad)
        with pytest.raises(ModelError, match="non-finite"):
            pareto_front(vectors)
        points = [GridPoint({}, power, {"m": m}) for power, m in vectors]
        with pytest.raises(ModelError, match="non-finite"):
            pareto_points(points, "m")
