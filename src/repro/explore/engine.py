"""The exploration engine: chunked, resumable sweeps on one runner.

Execution model
---------------
A sweep is a list of contiguous ``[start, stop)`` chunks of the space
(:meth:`ParameterSpace.chunks`) run by :func:`run_chunks`.  Chunks are
independent: each is a pure function of (design payload, space
payload, range), so the assembled result does not depend on where or in
which order they ran — rows are keyed by point index, not by
completion order, and every worker evaluates with its **own** design
replica (scope mutation during evaluation is not shareable).

Determinism is the load-bearing property: objective values are
bit-identical to serial :func:`repro.core.estimator.evaluate_power`
calls (see :mod:`repro.explore.batcheval`), so serial, multi-process,
and killed-then-resumed runs all export byte-identical results.

A chunk of at least :data:`COLUMNAR_MIN_POINTS` points is evaluated in
one columnar pass (every point's values as float64 columns through the
compiled plan) and falls back to the per-point loop, the reference,
wherever that pass raises; the rows are the same either way.

A **pruned** chunk keeps only its Pareto-optimal rows.  A columnar
chunk picks them straight from its objective columns and builds row
dicts for the survivors alone; a per-point chunk applies
:func:`~repro.explore.results.pareto_rows` to its rows.  Failed points
are counted before they are dropped.  :func:`run_sweep` then folds each
chunk's survivors into a running :class:`~repro.explore.results.ParetoFront`,
so a pruned sweep holds at most twice its front plus one chunk, whatever
the size of the space.

``mode``:

* ``serial`` — one evaluator, in-process.
* ``process`` — forked workers, each with its own evaluator: the only
  mode that uses more than one core.  The pool holds
  ``min(workers, os.cpu_count(), chunks)`` processes; when that is one
  the chunks run in-process without forking.

Cancellation (``should_stop``) is polled between chunks: finished
chunks are already checkpointed via ``on_chunk``, in-flight chunks
drain, unstarted chunks are never submitted — exactly the state a
resume picks up from.
"""

from __future__ import annotations

import collections
import concurrent.futures
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.design import Design
from ..errors import ExploreError, PowerPlayError
from ..library.designio import design_from_payload, design_to_payload
from ..obs import annotate, get_logger, get_registry, span
from .batcheval import BatchEvaluator
from .jobs import ENGINE_MODES, SweepJob
from .results import ParetoFront, front_mask, pareto_rows
from .space import DerivedObjective, ParameterSpace, check_held_points

_LOG = get_logger("explore")

#: per-chunk evaluation latency buckets — sweeps chunk at tens of
#: points, each point sub-millisecond to a few ms
_CHUNK_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)

#: ``on_chunk(start, stop, rows, seconds, failed)`` — the checkpoint
#: hook; ``failed`` counts the chunk's failed points, rows or not
ChunkHook = Callable[[int, int, List[dict], float, int], None]

#: the shortest chunk evaluated as columns: below it the columnar pass
#: costs more than the per-point loop (EXPERIMENTS.md C1)
COLUMNAR_MIN_POINTS = 10


def _metric_points():
    return get_registry().counter(
        "powerplay_explore_points_total",
        "Design points evaluated by the exploration engine.",
        ("status",),
    )


def _metric_memo():
    return get_registry().counter(
        "powerplay_explore_memo_total",
        "Batch-evaluator rows reused (hit) or recomputed (miss).",
        ("kind",),
    )


def _metric_chunk_seconds():
    return get_registry().histogram(
        "powerplay_explore_chunk_seconds",
        "Wall-clock seconds spent evaluating one sweep chunk.",
        buckets=_CHUNK_BUCKETS,
    )


@dataclass
class EngineReport:
    """What one engine run did (counts only, no rows)."""

    points: int = 0
    errors: int = 0
    chunks: int = 0
    hits: int = 0
    misses: int = 0
    seconds: float = 0.0
    mode: str = "serial"
    #: processes that evaluated chunks (after the pool cap)
    workers: int = 1
    #: points evaluated by a columnar pass (the rest ran point by point)
    columnar: int = 0

    def to_payload(self) -> dict:
        return {
            "points": self.points,
            "errors": self.errors,
            "chunks": self.chunks,
            "columnar": self.columnar,
            "hits": self.hits,
            "misses": self.misses,
            "seconds": self.seconds,
            "mode": self.mode,
            "workers": self.workers,
        }


@dataclass
class SweepOutcome:
    """A finished (or pruned) sweep: rows in point order + the report."""

    rows: List[dict]
    report: EngineReport
    axis_names: List[str] = field(default_factory=list)
    objective_names: List[str] = field(default_factory=list)

    def pareto(self, objectives: Optional[Sequence[str]] = None) -> List[dict]:
        return pareto_rows(self.rows, objectives or self.objective_names)


def _point_row(
    evaluator: BatchEvaluator,
    space: ParameterSpace,
    derived: Sequence[DerivedObjective],
    index: int,
) -> dict:
    """Evaluate one point into its serializable result row.

    A :class:`PowerPlayError` (bad model input at this corner of the
    space, say a zero divisor, or a coupled value that fails there)
    marks the row failed and the sweep goes on; anything else is an
    engine bug and propagates.
    """
    try:
        point = space.point(index)
    except ExploreError as exc:  # a coupled value failed at this point
        return {"index": index, "values": space.axis_values(index),
                "overrides": {}, "objectives": {}, "error": str(exc)}
    row = {
        "index": index,
        "values": point["values"],
        "overrides": point["overrides"],
    }
    try:
        objectives = evaluator.evaluate(point["overrides"])
        env: Dict[str, float] = dict(point["values"])
        env.update(point["overrides"])
        env.update(objectives)
        for obj in derived:
            value = obj.value(env)
            objectives[obj.name] = value
            env[obj.name] = value
        row["objectives"] = objectives
        row["error"] = ""
    except PowerPlayError as exc:
        row["objectives"] = {}
        row["error"] = str(exc)
    return row


def _column_rows(
    evaluator: BatchEvaluator,
    space: ParameterSpace,
    derived: Sequence[DerivedObjective],
    indices: range,
    front: Sequence[str],
) -> Optional[List[dict]]:
    """The chunk's rows from one columnar pass, equal to
    :func:`_point_row`'s; None where the pass raised.  With ``front``
    (objective names) only the chunk's Pareto-optimal rows are built."""
    count = len(indices)
    try:
        with np.errstate(all="ignore"):
            values, overrides = space.columns(indices)
            objectives = evaluator.columns(overrides, count)
            env = {**values, **overrides, **objectives}
            for obj in derived:
                objectives[obj.name] = env[obj.name] = obj.column(env, count)
    except Exception:
        return None
    if front:
        keep = np.flatnonzero(front_mask(
            np.column_stack([objectives[name] for name in front])))
        indices = [indices[at] for at in keep.tolist()]
    else:
        keep = slice(None)
    # an axis target's override is its axis value: one float, as point() gives
    listed = {id(column): column[keep].tolist()
              for columns in (values, overrides, objectives)
              for column in columns.values()}

    def points(columns):
        return zip(*[listed[id(column)] for column in columns.values()])

    names, targets, measured = list(values), list(overrides), list(objectives)
    return [
        {"index": index, "values": dict(zip(names, point_values)),
         "overrides": dict(zip(targets, point_overrides)),
         "objectives": dict(zip(measured, point_objectives)), "error": ""}
        for index, point_values, point_overrides, point_objectives in zip(
            indices, points(values), points(overrides), points(objectives))
    ]


def _evaluate_chunk(
    evaluator: BatchEvaluator,
    space: ParameterSpace,
    derived: Sequence[DerivedObjective],
    front: Sequence[str],
    start: int,
    stop: int,
) -> Tuple[List[dict], float, int, int, int, int]:
    """``(rows, seconds, failed points, row hits, row misses, columnar
    points)`` for the chunk ``[start, stop)``; with ``front`` (objective
    names) only its Pareto-optimal rows."""
    hits0, misses0 = evaluator.hits, evaluator.misses
    began = time.perf_counter()
    indices = range(start, stop)
    rows = None
    if len(indices) >= COLUMNAR_MIN_POINTS:
        rows = _column_rows(evaluator, space, derived, indices, front)
    columnar = failed = 0
    if rows is None:
        rows = [_point_row(evaluator, space, derived, index) for index in indices]
        failed = sum(1 for row in rows if row["error"])
        if front:
            rows = pareto_rows(rows, front)
    else:
        columnar = len(indices)
    return (rows, time.perf_counter() - began, failed,
            evaluator.hits - hits0, evaluator.misses - misses0, columnar)


# -- process-mode workers ---------------------------------------------------

# one evaluator per worker process, built once by the pool initializer
_PROC_STATE: Optional[Tuple[BatchEvaluator, ParameterSpace,
                            Tuple[DerivedObjective, ...], Tuple[str, ...]]] = None


def _proc_init(design_payload, space_payload, objectives, derived_payloads,
               front):
    global _PROC_STATE
    design = design_from_payload(design_payload)
    space = ParameterSpace.from_payload(space_payload)
    derived = tuple(
        DerivedObjective.from_payload(d) for d in derived_payloads
    )
    _PROC_STATE = (BatchEvaluator(design, tuple(objectives)), space, derived,
                   front)


def _proc_chunk(start: int, stop: int):
    return (start, stop) + _evaluate_chunk(*_PROC_STATE, start, stop)


# -- the engine -------------------------------------------------------------

def _observe_chunk(start: int, points: int, failed: int,
                   seconds: float) -> None:
    if points - failed:
        _metric_points().inc(points - failed, status="ok")
    if failed:
        _metric_points().inc(failed, status="error")
    _metric_chunk_seconds().observe(seconds)
    annotate(
        "chunk",
        chunk=start,
        points=points,
        errors=failed,
        seconds=round(seconds, 6),
    )


def run_chunks(
    design: Design,
    space: ParameterSpace,
    chunks: Sequence[Tuple[int, int]],
    objectives: Sequence[str] = ("power",),
    derived: Sequence[DerivedObjective] = (),
    workers: int = 1,
    mode: str = "serial",
    prune: bool = False,
    should_stop: Optional[Callable[[], bool]] = None,
    on_chunk: Optional[ChunkHook] = None,
) -> EngineReport:
    """Evaluate the ``[start, stop)`` chunks of ``space``, calling
    ``on_chunk(start, stop, rows, seconds, failed)`` as each finishes
    (that's the checkpoint hook); the runner keeps no rows.

    With ``prune`` each chunk hands over only its Pareto-optimal rows
    over the objectives, built-in then derived.  ``should_stop`` is
    polled between chunks; unstarted chunks stay unevaluated, which is
    exactly the state a resumed job picks up from.
    """
    if mode not in ENGINE_MODES:
        raise ExploreError(
            f"unknown engine mode {mode!r}; choose serial or process"
        )
    objectives = tuple(objectives)
    derived = tuple(derived)
    front = (objectives + tuple(d.name for d in derived)) if prune else ()
    chunks = list(chunks)
    if mode == "process":
        workers = max(1, min(int(workers), os.cpu_count() or 1, len(chunks)))
    else:
        workers = 1
    report = EngineReport(mode=mode, workers=workers)
    began = time.perf_counter()

    def _record(start, stop, rows, seconds, failed, hits, misses, columnar):
        report.points += stop - start
        report.errors += failed
        report.chunks += 1
        report.columnar += columnar
        report.hits += hits
        report.misses += misses
        _observe_chunk(start, stop - start, failed, seconds)
        if on_chunk is not None:
            on_chunk(start, stop, rows, seconds, failed)

    if workers == 1:
        evaluator = BatchEvaluator(design, objectives)
        for start, stop in chunks:
            if should_stop is not None and should_stop():
                break
            with span("explore.chunk"):
                _record(start, stop, *_evaluate_chunk(
                    evaluator, space, derived, front, start, stop))
    else:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            context = multiprocessing.get_context()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_proc_init,
            initargs=(
                design_to_payload(design),
                space.to_payload(),
                objectives,
                [d.to_payload() for d in derived],
                front,
            ),
        ) as pool:
            _pump(pool, chunks, workers, should_stop, _record)

    report.seconds = time.perf_counter() - began
    _metric_memo().inc(report.hits, kind="hit")
    _metric_memo().inc(report.misses, kind="miss")
    _LOG.info(
        "run", mode=mode, workers=workers, chunks=report.chunks,
        points=report.points, columnar=report.columnar, errors=report.errors,
        hits=report.hits, misses=report.misses,
        seconds=round(report.seconds, 4),
    )
    return report


def _pump(pool, chunks, workers, should_stop, record):
    """Feed chunks to a pool keeping at most ``workers`` in flight.

    Bounded submission keeps memory flat on huge sweeps and makes
    ``should_stop`` prompt: in-flight chunks drain (and checkpoint),
    nothing new starts.
    """
    queue = collections.deque(chunks)
    pending = set()
    while queue or pending:
        while queue and len(pending) < workers:
            if should_stop is not None and should_stop():
                queue.clear()
                break
            pending.add(pool.submit(_proc_chunk, *queue.popleft()))
        if not pending:
            break
        done, pending = concurrent.futures.wait(
            pending, return_when=concurrent.futures.FIRST_COMPLETED
        )
        for future in done:
            with span("explore.chunk"):
                record(*future.result())


def run_sweep(
    design: Design,
    space: ParameterSpace,
    objectives: Sequence[str] = ("power",),
    derived: Sequence[DerivedObjective] = (),
    workers: int = 1,
    mode: str = "serial",
    chunk_size: int = 64,
    prune: bool = False,
    should_stop: Optional[Callable[[], bool]] = None,
    on_chunk: Optional[Callable[[int, int, List[dict], float], None]] = None,
) -> SweepOutcome:
    """Evaluate the whole space and assemble rows in point order.

    ``on_chunk(start, stop, rows, seconds)`` fires once per
    contiguous chunk.  ``prune=True`` keeps only the Pareto-optimal
    rows (dominated region dropped): each chunk hands over, and
    ``on_chunk`` sees, only its own front, and the survivors fold into
    a running front, so any space up to the cap may be pruned, while a
    sweep that keeps every row may have at most ``ABSOLUTE_POINT_CAP``
    points.  The report still counts every evaluated point.
    """
    check_held_points(space, prune)
    objective_names = list(objectives) + [d.name for d in derived]
    front = ParetoFront(objective_names) if prune else None
    held: Dict[int, List[dict]] = {}

    def collect(start, stop, rows, seconds, failed):
        if front is None:
            held[start] = rows
        else:
            front.fold(rows)
        if on_chunk is not None:
            on_chunk(start, stop, rows, seconds)

    with span("explore.sweep"):
        annotate(
            "sweep", design=design.name, points=len(space), mode=mode
        )
        report = run_chunks(
            design, space, space.chunks(chunk_size),
            objectives=objectives, derived=derived,
            workers=workers, mode=mode, prune=prune,
            should_stop=should_stop, on_chunk=collect,
        )
    if front is None:
        rows = [row for start in sorted(held) for row in held[start]]
    else:
        rows = front.rows
    return SweepOutcome(
        rows=rows,
        report=report,
        axis_names=space.axis_names,
        objective_names=objective_names,
    )


def run_job(
    job: SweepJob,
    should_stop: Optional[Callable[[], bool]] = None,
) -> SweepJob:
    """Execute (or resume) a persisted sweep job to a terminal state.

    The job moves running -> done, failed or cancelled.  Only the
    chunks missing from the job's checkpoint run; each finished chunk
    is journaled immediately, so killing this process at any instant
    loses at most the in-flight chunks.  Honors both the job's own
    :meth:`~SweepJob.request_cancel` flag and an external
    ``should_stop``.
    """
    job.set_state("running")

    def _stop() -> bool:
        return job.cancel_requested or bool(
            should_stop is not None and should_stop()
        )

    try:
        run_chunks(
            job.design(), job.space, job.pending_chunks(),
            objectives=job.objectives, derived=job.derived,
            workers=job.workers, mode=job.mode, prune=job.prune,
            should_stop=_stop, on_chunk=job.record_chunk,
        )
        finished = not job.pending_chunks()
    except PowerPlayError as exc:
        job.set_state("failed", str(exc))
        raise
    except BaseException as exc:
        job.set_state("failed", f"engine failure: {exc}")
        raise
    job.set_state("done" if finished else "cancelled")
    return job
