"""The columnar pass against the per-point loop, bit for bit.

A chunk evaluated as float64 columns (``ParameterSpace.columns`` ->
``BatchEvaluator.columns`` -> ``Plan.columns``) must give every point
exactly the row the per-point loop gives it: the same float bits and
the same error text.  Where the columnar pass raises, the engine runs
the per-point loop instead, so these tests check both that the pass is
right whenever it answers and that it answers on the paper's sweeps.
"""

import json
import math
import random
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.design import Design
from repro.core.expressions import compile_expression
from repro.core.model import (
    CapacitiveTerm,
    ExpressionAreaModel,
    ExpressionPowerModel,
    ModelSet,
    TemplatePowerModel,
)
from repro.core.plan import COMPENSATED_SUM, column_sum
from repro.designs.infopad import build_infopad
from repro.designs.luminance import build_figure1_design
from repro.errors import EvaluationError, PowerPlayError
from repro.explore import (
    Axis,
    DerivedObjective,
    JobStore,
    ParameterSpace,
    export_csv,
    export_json,
    pareto_rows,
    run_sweep,
)
from repro.explore.batcheval import BatchEvaluator, resolve_target
from repro.explore.engine import COLUMNAR_MIN_POINTS, run_chunks, run_job
from repro.explore.space import CoupledParam
from repro.library.designio import design_to_payload
from repro.models.converter import DCDCConverterModel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
import test_plan_differential as differential  # noqa: E402
import test_tables  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]

BITS = "custom_hardware.luminance_chip.read_bank.bits"
WRITE_BITS = "custom_hardware.luminance_chip.write_bank.bits"
ACCESS_TIME = DerivedObjective(
    "access_time", "2e-8 * (VDD2 / 1.5) / ((VDD2 - 0.7) ^ 1.3)"
)


def bits(value):
    return (type(value).__name__, struct.pack("<d", value) if type(value) is float else value)


def point_outcome(evaluator, overrides):
    try:
        return ("ok", {key: bits(value) for key, value in evaluator.evaluate(overrides).items()})
    except (PowerPlayError, ArithmeticError, ValueError, TypeError) as exc:
        return ("raised", type(exc).__name__, str(exc))


# -- random designs ----------------------------------------------------------------

#: the per-point differential grid (70 is out of range for ``bits``, values
#: repeat on purpose) plus a negative zero
GRID = [0.0, 1.5, 1.5, 70.0, 3.0, -0.0]


def _chunks(rng, points):
    cuts = sorted(rng.sample(range(1, len(points)), min(2, len(points) - 1)))
    return [points[a:b] for a, b in zip([0] + cuts, cuts + [len(points)])]


def _columnar_points(seed, shuffle):
    """Per chunk of a random design's sweep: the per-point outcomes and
    the columnar pass's (None where it raised)."""
    design = differential.build_design(seed)
    rng = random.Random(seed)
    targets = [t for t in differential._targets(design, rng)
               if differential.outcome(resolve_target, design, t)[0] == "ok"]
    picked = rng.sample(targets, min(len(targets), rng.randint(1, 3)))
    points = [
        {target: GRID[(index // (6 ** position)) % 6] for position, target in enumerate(picked)}
        for index in range(min(6 ** len(picked), 36))
    ]
    if shuffle:
        rng.shuffle(points)
    reference = BatchEvaluator(design, ("power",))
    evaluator = BatchEvaluator(design, ("power",))
    for overrides in points[-3:]:
        # leave overrides in the live registers, also of targets no chunk writes
        point_outcome(evaluator, {**dict.fromkeys(targets, 2.0), **overrides})
    results = []
    for chunk in _chunks(rng, points):
        expected = [point_outcome(reference, overrides) for overrides in chunk]
        columns = {target: np.array([p[target] for p in chunk]) for target in picked}
        try:
            with np.errstate(all="ignore"):
                got = evaluator.columns(columns, len(chunk))["power"].tolist()
        except Exception:
            got = None
        after = [point_outcome(evaluator, overrides) for overrides in chunk]
        results.append((expected, got, after))
    return results, bool(evaluator._plan._volatile)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), shuffle=st.booleans())
def test_columns_match_per_point_evaluate(seed, shuffle):
    for expected, got, after in _columnar_points(seed, shuffle)[0]:
        # the pass changed nothing the per-point path reads
        assert after == expected
        if got is not None:
            assert [("ok", {"power": bits(value)}) for value in got] == expected


def test_the_pass_answers_where_it_can():
    """Not vacuous: a chunk of a design without fallback rows whose
    points all succeed goes columnar.  The rare exception is an area
    model that fails at some point while a sibling reads the area."""
    answered = eligible = 0
    for seed in range(60):
        results, fallback_rows = _columnar_points(seed, seed % 2 == 0)
        for expected, got, _after in results:
            if got is not None:
                assert [("ok", {"power": bits(value)}) for value in got] == expected
            if not fallback_rows and all(entry[0] == "ok" for entry in expected):
                eligible += 1
                answered += got is not None
    assert eligible >= 40 and answered >= 0.95 * eligible, (answered, eligible)


# -- columnar rows over random designs ---------------------------------------------

#: a second objective, so that the sweeps have a front to prune
FIRST = DerivedObjective("first", "a0")


def _all_columnar_chunk(points):
    """A chunk size that gives every chunk of ``points`` at least
    ``COLUMNAR_MIN_POINTS`` points, in two chunks where it can."""
    return points if points < 2 * COLUMNAR_MIN_POINTS else -(-points // 2)


def _serializable(design):
    try:
        design_to_payload(design)
    except PowerPlayError:  # a callable or macro model has no payload
        return False
    return True


def _journal_lines(design, space, chunk_size):
    """The job journal of a sweep run chunk by chunk through
    ``SweepJob.record_chunk``, and each chunk's ``on_chunk`` arguments."""
    with tempfile.TemporaryDirectory() as root:
        store = JobStore(root)
        job = store.create(design, space, derived=(FIRST,), chunk_size=chunk_size)
        chunks = []
        run_chunks(job.design(), job.space, job.pending_chunks(), derived=job.derived,
                   on_chunk=lambda *chunk: (job.record_chunk(*chunk), chunks.append(chunk)))
        lines = store.backend.journal("jobs", job.job_id)
        store.backend.close()
    return lines, chunks


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_columnar_chunks_hand_over_the_per_point_rows(seed):
    """Chunked sweeps of random designs give the per-point loop's rows,
    Pareto front and exports, also in process mode, and journal the
    per-point rows."""
    design, space = test_tables._space(seed)
    try:
        reference = run_sweep(design, space, derived=(FIRST,), chunk_size=1)
    except (ArithmeticError, ValueError):  # the sweep stops at any chunk size
        return
    size = _all_columnar_chunk(len(space))
    outcome = run_sweep(design, space, derived=(FIRST,), chunk_size=size)

    def exact(sequence):  # key order, float types and bits, NaN as NaN
        return [test_tables.row_bits(row) for row in sequence]

    assert exact(outcome.rows) == exact(reference.rows)
    names = outcome.objective_names
    assert exact(pareto_rows(outcome.rows, names)) \
        == exact(pareto_rows(reference.rows, names))
    assert exports(outcome) == exports(reference)
    if _serializable(design):
        forked = run_sweep(design, space, derived=(FIRST,), chunk_size=size,
                           mode="process", workers=2)
        assert exact(forked.rows) == exact(reference.rows)
        lines, chunks = _journal_lines(design, space, size)
        assert lines == [
            json.dumps({"start": start, "stop": stop,
                        "rows": reference.rows[start:stop],
                        "seconds": seconds, "failed": failed}, sort_keys=True)
            for start, stop, _rows, seconds, failed in chunks]


def test_the_columnar_property_reaches_columnar_sweeps():
    """Not vacuous: a fair share of the property's sweeps run every
    chunk columnar, some of them in two chunks."""
    columnar = joined = 0
    for seed in range(40):
        design, space = test_tables._space(seed)
        outcome = run_sweep(design, space, chunk_size=_all_columnar_chunk(len(space)))
        if outcome.report.columnar == len(space):
            columnar += 1
            joined += outcome.report.chunks == 2
    assert columnar >= 8 and joined >= 3, (columnar, joined)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_rows_of_every_width_are_the_per_point_rows(width):
    """A point's dicts are dict displays up to four names and
    ``dict(zip())`` beyond; at every width the values, overrides and
    objectives are the per-point loop's, key order included."""
    names = [f"w{i}" for i in range(width)]
    design = Design("widths")
    design.scope.set("VDD", 1.5)
    for name in names:
        design.scope.set(name, 1.0)
    design.add("block", ExpressionPowerModel("block", f"({' + '.join(names)}) * 1m"))
    settings = tuple(1.0 + i for i in range({1: 12, 2: 4}.get(width, 3)))
    space = ParameterSpace([Axis(name, settings) for name in names])
    derived = tuple(DerivedObjective(f"d{i}", f"power * {i + 2}") for i in range(width - 1))
    reference = run_sweep(design, space, derived=derived, chunk_size=1)
    outcome = run_sweep(design, space, derived=derived, chunk_size=len(space))
    assert outcome.report.columnar == len(space)
    assert {len(outcome.rows[0][part]) for part in ("values", "overrides", "objectives")} \
        == {width}
    assert [test_tables.row_bits(row) for row in outcome.rows] \
        == [test_tables.row_bits(row) for row in reference.rows]


# -- whole sweeps --------------------------------------------------------------------


def infopad_space():
    """VDD2 x VDD1 x bit width, the write bank coupled to the read bank."""
    return ParameterSpace(
        [
            Axis("VDD2", tuple(1.1 + 0.15 * i for i in range(12))),
            Axis("VDD1", (3.3, 4.0, 5.0)),
            Axis("bw", (8.0, 12.0, 16.0), target=BITS),
        ],
        [CoupledParam(WRITE_BITS, "bw * 2 - 8")],
    )


def exports(outcome, rows=None):
    """CSV and JSON of an outcome's rows (or of ``rows``): exact bits."""
    rows = outcome.rows if rows is None else rows
    return (export_csv(rows, outcome.axis_names, outcome.objective_names),
            export_json(rows, outcome.axis_names, outcome.objective_names))


@pytest.fixture(scope="module")
def per_point():
    space = infopad_space()
    return space, run_sweep(build_infopad(), space, derived=(ACCESS_TIME,), chunk_size=1)


@pytest.mark.parametrize("chunk_size", [COLUMNAR_MIN_POINTS - 1, COLUMNAR_MIN_POINTS,
                                        64, 4096])
def test_exports_identical_across_chunk_sizes(per_point, chunk_size):
    space, reference = per_point
    assert reference.report.columnar == 0
    outcome = run_sweep(build_infopad(), space, derived=(ACCESS_TIME,),
                        chunk_size=chunk_size)
    assert exports(outcome) == exports(reference)
    assert outcome.rows == reference.rows
    expected = sum(stop - start for start, stop in space.chunks(chunk_size)
                   if stop - start >= COLUMNAR_MIN_POINTS)
    assert outcome.report.columnar == expected


def test_job_checkpoints_and_resume_match_per_point(per_point, tmp_path):
    space, reference = per_point
    job = JobStore(tmp_path).create(build_infopad(), space, derived=(ACCESS_TIME,),
                                    chunk_size=16)
    run_job(job, should_stop=lambda: len(job.chunks) >= 3)
    assert job.state == "cancelled"
    revived = JobStore(tmp_path).job(job.job_id)
    checkpointed = [row for start in sorted(revived.chunks)
                    for row in revived.chunks[start]["rows"]]
    assert checkpointed == reference.rows[:48]
    run_job(revived)
    assert revived.state == "done"
    assert revived.result_rows() == reference.rows
    assert exports(reference, revived.result_rows()) == exports(reference)


def test_a_falling_back_chunk_between_columnar_chunks():
    """One evaluator: columnar, then a chunk whose one failing point
    sends it point by point, then columnar again."""
    size = COLUMNAR_MIN_POINTS
    supplies = tuple((11 + i) / 10 for i in range(3 * size))
    design = build_figure1_design()
    space = ParameterSpace([Axis("VDD", supplies)])
    failing = size + 3
    slack = DerivedObjective("slack", f"1 / (VDD - {supplies[failing]!r})")
    reference = run_sweep(design, space, derived=(slack,), chunk_size=1)
    rows = []
    report = run_chunks(design, space, space.chunks(size), derived=(slack,),
                        on_chunk=lambda start, stop, chunk, seconds, failed:
                            rows.extend(chunk))
    assert rows == reference.rows
    assert exports(reference, rows) == exports(reference)
    assert [row["index"] for row in rows if row["error"]] == [failing]
    assert report.columnar == 2 * size


def _guarded_design(guard):
    """A design whose one row trips ``guard`` where the swept ``w`` is
    the bad value below."""
    design = Design("guards")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 1e6)
    design.scope.set("w", 8.0)
    if guard == "capacitance":
        design.add("alu", TemplatePowerModel(
            "alu", capacitive=[CapacitiveTerm("c", compile_expression("w * 68f"))]))
    elif guard == "divisor":
        design.add("bias", ExpressionPowerModel("bias", "1m / (w - 3)"))
    else:
        design.add("src", ExpressionPowerModel("src", "(w - 3) * 1m"))
        design.add("dcdc", DCDCConverterModel("dcdc"), power_feeds=["src"])
    return design


@pytest.mark.parametrize("guard, bad", [("capacitance", -1.0), ("divisor", 3.0),
                                        ("converter_load", 2.5)])
def test_a_guard_tripped_at_one_point_sends_the_chunk_point_by_point(guard, bad):
    """Guards test the whole column: one bad point in a chunk makes the
    pass raise, so that point fails exactly as it does point by point."""
    size = COLUMNAR_MIN_POINTS + 2
    good = tuple(4.0 + i for i in range(size))
    space = ParameterSpace([Axis("w", good[:5] + (bad,) + good[6:])])
    reference = run_sweep(_guarded_design(guard), space, chunk_size=1)
    outcome = run_sweep(_guarded_design(guard), space, chunk_size=size)
    assert [row["index"] for row in reference.rows if row["error"]] == [5]
    assert outcome.rows == reference.rows
    assert outcome.report.columnar == 0
    clean = run_sweep(_guarded_design(guard), ParameterSpace([Axis("w", good)]),
                      chunk_size=size)
    assert clean.report.columnar == size and clean.report.errors == 0


@pytest.mark.parametrize("equation, bad, error", [
    ("pow(w, 0.5) * 1m", -2.0, "complex result: -2.0 ^ 0.5"),
    ("exp(w) * 1m", 1000.0, "exp() failed: math range error")])
def test_a_function_failing_at_one_point_fails_only_that_point(equation, bad, error):
    """The function's error is an ``EvaluationError`` over a float and
    over a column alike: the sweep fails that point, per point and
    chunked, instead of stopping."""
    size = COLUMNAR_MIN_POINTS + 2
    good = tuple(4.0 + i for i in range(size))
    space = ParameterSpace([Axis("w", good[:5] + (bad,) + good[6:])])

    def design():
        built = Design("functions")
        built.scope.set("VDD", 1.5)
        built.scope.set("w", 8.0)
        built.add("block", ExpressionPowerModel("block", equation))
        return built

    reference = run_sweep(design(), space, chunk_size=1)
    assert [(row["index"], row["error"]) for row in reference.rows if row["error"]] \
        == [(5, f"row 'block': cannot evaluate model 'block' power ({equation!r}): {error}")]
    outcome = run_sweep(design(), space, chunk_size=size)
    assert outcome.rows == reference.rows
    assert outcome.report.columnar == 0 and outcome.report.errors == 1


def test_a_sibling_of_a_failed_area_fails_the_pass_as_an_evaluation_error():
    """An area model that raises at one point of the chunk leaves no
    area parameter; a row reading it makes the pass raise a
    ``PowerPlayError``, so the chunk goes point by point."""
    design = Design("areas")
    design.scope.set("VDD", 1.5)
    design.scope.set("w", 8.0)
    design.add("block", ModelSet(ExpressionPowerModel("block", "w * 1m"),
                                 ExpressionAreaModel("block_area", "1n / (w - 3)")))
    design.add("wires", ExpressionPowerModel("wires", "active_area * 1e3"),
               area_feeds=["block"])
    column = np.array([4.0, 3.0, 5.0])
    with pytest.raises(EvaluationError, match="area parameter"):
        BatchEvaluator(design, ("power",)).columns({"w": column}, len(column))
    space = ParameterSpace([Axis("w", tuple(2.0 + i for i in range(COLUMNAR_MIN_POINTS)))])
    reference = run_sweep(design, space, chunk_size=1)
    outcome = run_sweep(design, space, chunk_size=COLUMNAR_MIN_POINTS)
    assert outcome.rows == reference.rows and outcome.report.columnar == 0


def test_an_engine_bug_in_the_columnar_pass_propagates(monkeypatch):
    """Only a ``PowerPlayError`` sends a chunk point by point; any other
    exception is a bug and stops the sweep."""
    def broken(self, overrides, count, axes=None):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(BatchEvaluator, "columns", broken)
    space = ParameterSpace([Axis("VDD", tuple(1.1 + 0.1 * i for i in range(20)))])
    with pytest.raises(RuntimeError, match="engine bug"):
        run_sweep(build_figure1_design(), space)
    assert run_sweep(build_figure1_design(), space,
                     chunk_size=COLUMNAR_MIN_POINTS - 1).report.errors == 0


def test_paper_sweeps_run_entirely_columnar():
    """A missed float-or-column site would fall back silently; the
    report's count says it did not."""
    sys.path.insert(0, str(ROOT))
    from perfbench import sweep as perfbench_sweep

    space = perfbench_sweep.make_space(41)
    outcome = run_sweep(build_infopad(), space, derived=(perfbench_sweep.ACCESS_TIME,),
                        chunk_size=perfbench_sweep.CHUNK)
    assert outcome.report.columnar == len(space) == outcome.report.points
    assert outcome.report.errors == 0

    luminance = ParameterSpace([
        Axis("VDD", tuple(1.1 + 0.1 * i for i in range(20))),
        Axis("bits", (6.0, 8.0, 12.0), target="read_bank.bits"),
        Axis("f_pixel", (1966080.0, 3932160.0)),
    ])
    outcome = run_sweep(build_figure1_design(), luminance)
    assert outcome.report.columnar == len(luminance)


# -- the column sum -----------------------------------------------------------------


def neumaier_sum(items):
    """CPython 3.12's float loop of builtin ``sum()``, transcribed."""
    total = 0 + items[0]
    compensation = 0.0
    for x in items[1:]:
        step = total + x
        if abs(total) >= abs(x):
            compensation += (total - step) + x
        else:
            compensation += (x - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def _adversarial(seed, points=16):
    """Lists of floats and columns: cancellation, signed zeros,
    infinities, NaN and overflow to inf."""
    rng = random.Random(seed)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1e16,
               -1e16, 1.0, -1.0, 0.1, 5e-324, 3.0]

    def number():
        if rng.random() < 0.5:
            return rng.choice(special)
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)

    items = []
    for _ in range(rng.randint(1, 7)):
        items.append(number() if rng.random() < 0.3
                     else np.array([number() for _ in range(points)]))
    if not any(type(item) is np.ndarray for item in items):
        items.append(np.array([number() for _ in range(points)]))
    return items


def _at(items, point):
    return [item if type(item) is float else item.tolist()[point] for item in items]


def _same(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


CASES = [[np.array([1e308, 1.0, -0.0]), 1e308, np.array([-1e308, -1.0, -0.0])],
         [np.array([1e16, -0.0]), 1.0, np.array([-1e16, -0.0])],
         [np.array([math.inf, math.nan]), -math.inf]]


VECTORS = CASES + [_adversarial(seed) for seed in range(300)]


def test_column_sum_is_builtin_sum_at_every_point():
    for items in VECTORS:
        with np.errstate(all="ignore"):
            got = column_sum(items).tolist()
        for point, value in enumerate(got):
            assert _same(value, sum(_at(items, point))), (items, point)


def test_compensated_branch_is_cpythons_neumaier_loop():
    """The >= 3.12 branch on any interpreter, against a transcription;
    on 3.12 and later the transcription is also builtin ``sum()``."""
    for items in VECTORS:
        with np.errstate(all="ignore"):
            compensated = column_sum(items, compensated=True).tolist()
            plain = column_sum(items, compensated=False).tolist()
        for point in range(len(compensated)):
            values = _at(items, point)
            assert _same(compensated[point], neumaier_sum(values)), (items, point)
            total = 0
            for value in values:
                total = total + value
            assert _same(plain[point], total), (items, point)
            if COMPENSATED_SUM:
                assert _same(neumaier_sum(values), sum(values)), values


def test_column_sum_refuses_ints_beside_a_column():
    """``sum()`` adds an int item without compensation; such a chunk
    runs point by point instead."""
    with pytest.raises(PowerPlayError):
        column_sum([np.array([1.0, 2.0]), 0])
    assert column_sum([1.5, 0]) == 1.5


def test_neumaier_transcription_differs_from_plain_adds():
    """The transcription is not plain addition in disguise."""
    values = [1e16, 1.0, -1e16]
    assert neumaier_sum(values) == 1.0
    assert (values[0] + values[1]) + values[2] == 0.0
