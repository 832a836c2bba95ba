"""Pruned sweeps: each chunk keeps its front, a running front folds them.

The reference is :func:`pareto_rows` over every row of the unpruned
sweep: a pruned sweep must give exactly those rows, in the same order,
whichever route a chunk took (columnar or point by point), however the
space is cut into chunks, and in serial or process mode.  It must hold
no more than its running front plus one chunk, and it must count every
failed point it drops.
"""

import sys
from pathlib import Path

import pytest

from repro.designs.infopad import build_infopad
from repro.designs.luminance import build_figure1_design
from repro.errors import ExploreError
from repro.explore import (
    Axis,
    DerivedObjective,
    JobStore,
    ParameterSpace,
    ParetoFront,
    SweepJob,
    pareto_rows,
    parse_axis_spec,
    run_sweep,
)
from repro.explore import engine
from repro.explore.space import ABSOLUTE_POINT_CAP, CoupledParam

sys.path.insert(0, str(Path(__file__).resolve().parent))
import test_columnar as columnar  # noqa: E402

BITS = columnar.BITS
ACCESS_TIME = columnar.ACCESS_TIME
#: power against 1/w: every good point of a guarded sweep is on the front
INVERSE_W = DerivedObjective("inverse_w", "1 / w")
#: over an axis no row reads (power is one value), ``overflow`` goes to
#: -inf without failing at x > 15: those rows dominate every finite one,
#: so a chunk that kept them would lose the whole front
NON_FINITE = (DerivedObjective("slowness", "1 / x"),
              DerivedObjective("overflow", "x > 15 ? -1e308 * 10 : x"))


def _guarded(guard, bad):
    good = tuple(4.0 + i for i in range(columnar.COLUMNAR_MIN_POINTS + 2))
    space = ParameterSpace([Axis("w", good[:5] + (bad,) + good[6:])])
    return columnar._guarded_design(guard), space, (INVERSE_W,)


#: name -> (design, space, derived); the guarded spaces hold one point
#: that sends its chunk point by point (test_columnar.py)
SPACES = {
    "infopad": lambda: (build_infopad(), columnar.infopad_space(), (ACCESS_TIME,)),
    "non_finite": lambda: (
        build_figure1_design(),
        ParameterSpace([Axis("x", tuple(float(x) for x in range(1, 21)))]),
        NON_FINITE),
    "capacitance": lambda: _guarded("capacitance", -1.0),
    "divisor": lambda: _guarded("divisor", 3.0),
    "converter_load": lambda: _guarded("converter_load", 2.5),
}


@pytest.mark.parametrize("mode, workers", [("serial", 1), ("process", 2)])
@pytest.mark.parametrize("chunk_size", [1, 7, 64, 2048])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_pruned_rows_equal_pareto_rows_over_all_rows(name, chunk_size, mode,
                                                       workers):
    design, space, derived = SPACES[name]()
    full = run_sweep(design, space, derived=derived, chunk_size=chunk_size,
                     mode=mode, workers=workers)
    pruned = run_sweep(design, space, derived=derived, chunk_size=chunk_size,
                       mode=mode, workers=workers, prune=True)
    assert pruned.rows == pareto_rows(full.rows, full.objective_names)
    assert 0 < len(pruned.rows) < len(full.rows)
    assert pruned.report.points == full.report.points == len(space)
    assert pruned.report.errors == full.report.errors
    assert pruned.report.columnar == full.report.columnar


def vdd2_last_space():
    """The bench space at VDD2 step 0.02 with the trade-off axis
    varying fastest: every chunk holds a local front of its own."""
    return ParameterSpace(
        [
            Axis("bits", tuple(float(b) for b in range(8, 17)), target=BITS),
            parse_axis_spec("VDD1=0.9:1.8:0.009"),
            parse_axis_spec("VDD2=1.1:3.3:0.02"),
        ],
        point_cap=ABSOLUTE_POINT_CAP,
    )


@pytest.mark.parametrize("mode, workers", [("serial", 1), ("process", 2)])
def test_running_front_holds_the_front_plus_one_chunk(monkeypatch, mode,
                                                      workers):
    folds = []
    fold = ParetoFront.fold

    def spy(front, rows):
        fold(front, rows)
        folds.append((front.held, len(rows)))

    monkeypatch.setattr(ParetoFront, "fold", spy)
    space = vdd2_last_space()
    outcome = run_sweep(build_infopad(), space, derived=(ACCESS_TIME,),
                        chunk_size=2048, mode=mode, workers=workers,
                        prune=True)
    assert len(space) == 100_899 and len(folds) == 50
    assert sum(chunk for _held, chunk in folds) == 3_280
    assert len(outcome.rows) == 111
    # the front plus one chunk: holding every chunk's front would not do
    assert max(held for held, _chunk in folds) <= len(outcome.rows) + 2048
    assert [row["index"] for row in outcome.rows] == sorted(
        row["index"] for row in outcome.rows)


def failing_space(points):
    """InfoPad bw x VDD2 where the coupled write bank divides by zero
    at bw = 8: one failed point per VDD2 value."""
    return ParameterSpace(
        [Axis("bw", (8.0, 12.0), target=BITS),
         Axis("VDD2", tuple(1.5 + 0.01 * i for i in range(points)))],
        [CoupledParam(columnar.WRITE_BITS, "96 / (bw - 8)")],
    )


@pytest.mark.parametrize("chunk_size", [4, 64])
def test_pruned_sweep_counts_every_failed_point(chunk_size):
    metric = engine._metric_points()
    before = metric.value(status="error"), metric.value(status="ok")
    outcome = run_sweep(build_infopad(), failing_space(40),
                        derived=(ACCESS_TIME,), chunk_size=chunk_size,
                        prune=True)
    assert outcome.report.errors == 40
    assert outcome.report.points == 80
    assert all(not row["error"] for row in outcome.rows)
    assert metric.value(status="error") - before[0] == 40
    assert metric.value(status="ok") - before[1] == 40


class TestPointCap:
    """Only a pruned sweep may hold more than ABSOLUTE_POINT_CAP points."""

    def space(self):
        return ParameterSpace(
            [parse_axis_spec("VDD2=1.1:3.3:0.002"),
             parse_axis_spec("VDD1=0.9:1.8:0.009"),
             Axis("bits", tuple(float(b) for b in range(8, 17)),
                  target=BITS)],
            point_cap=2_000_000,
        )

    def test_run_sweep_refuses_unpruned(self):
        with pytest.raises(ExploreError, match="--prune"):
            run_sweep(build_infopad(), self.space())

    def test_run_sweep_accepts_pruned(self):
        outcome = run_sweep(build_infopad(), self.space(), prune=True,
                            should_stop=lambda: True)
        assert outcome.rows == [] and outcome.report.chunks == 0

    def test_job_refuses_unpruned(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(ExploreError, match="--prune"):
            store.create(build_infopad(), self.space())
        with pytest.raises(ExploreError, match="--prune"):
            SweepJob("job-0001", "", build_infopad(), self.space())
        assert store.job_ids() == []

    def test_job_accepts_pruned(self, tmp_path):
        job = JobStore(tmp_path).create(build_infopad(), self.space(),
                                        chunk_size=2048, prune=True)
        assert job.total_points == 1_000_809
        assert len(job.pending_chunks()) == 489

    def test_space_ceiling(self):
        with pytest.raises(ExploreError, match="over the cap"):
            ParameterSpace(
                [Axis("a", tuple(range(4097))), Axis("b", tuple(range(4096)))],
                point_cap=10 ** 9,
            )
