"""The exploration engine: chunked, parallel, resumable sweeps.

Execution model
---------------
A sweep is the parameter space sharded into ``[start, stop)`` chunks
(:meth:`ParameterSpace.chunks`).  Chunks are independent: each is a
pure function of (design payload, space payload, chunk range), so they
can run serially, on a thread pool, or on forked worker processes and
the assembled result is identical — rows are keyed by point index, not
by completion order, and every worker evaluates with its **own** design
replica (scope mutation during evaluation is not shareable).

Determinism is the load-bearing property: objective values are
bit-identical to serial :func:`repro.core.estimator.evaluate_power`
calls (see :mod:`repro.explore.batcheval`), so serial, 8-worker, and
killed-then-resumed runs all export byte-identical results.

``mode``:

* ``serial`` — one evaluator, in-process; the reuse baseline.
* ``thread`` — a thread pool; each thread lazily builds its own
  design replica + evaluator.  Best on one core too: the evaluator's
  row reuse does the work, threads just overlap checkpoint I/O.
* ``process`` — forked workers for true multi-core scaling.

Cancellation (``should_stop``) is polled between chunks: finished
chunks are already checkpointed via ``on_chunk``, in-flight chunks
drain, unstarted chunks are never submitted — exactly the state a
resume picks up from.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.design import Design
from ..errors import ExploreError, PowerPlayError
from ..library.designio import design_from_payload, design_to_payload
from ..obs import annotate, get_logger, get_registry, span
from .batcheval import BatchEvaluator
from .jobs import SweepJob
from .results import pareto_rows
from .space import DerivedObjective, ParameterSpace

_LOG = get_logger("explore")

#: per-chunk evaluation latency buckets — sweeps chunk at tens of
#: points, each point sub-millisecond to a few ms
_CHUNK_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)


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
    workers: int = 1

    def to_payload(self) -> dict:
        return {
            "points": self.points,
            "errors": self.errors,
            "chunks": self.chunks,
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
    space, say a zero divisor) marks the row failed and the sweep goes
    on; anything else is an engine bug and propagates.
    """
    point = space.point(index)
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


def _evaluate_range(
    evaluator: BatchEvaluator,
    space: ParameterSpace,
    derived: Sequence[DerivedObjective],
    start: int,
    stop: int,
) -> List[dict]:
    return [
        _point_row(evaluator, space, derived, index)
        for index in range(start, stop)
    ]


def _evaluate_indices(
    evaluator: BatchEvaluator,
    space: ParameterSpace,
    derived: Sequence[DerivedObjective],
    indices: Sequence[int],
) -> List[dict]:
    return [
        _point_row(evaluator, space, derived, index) for index in indices
    ]


# -- process-mode workers ---------------------------------------------------

# one evaluator per worker process, built once by the pool initializer
_PROC_STATE: Optional[Tuple[BatchEvaluator, ParameterSpace,
                            Tuple[DerivedObjective, ...]]] = None


def _proc_init(design_payload, space_payload, objectives, derived_payloads):
    global _PROC_STATE
    design = design_from_payload(design_payload)
    space = ParameterSpace.from_payload(space_payload)
    derived = tuple(
        DerivedObjective.from_payload(d) for d in derived_payloads
    )
    _PROC_STATE = (BatchEvaluator(design, tuple(objectives)), space, derived)


def _proc_chunk(start: int, stop: int):
    evaluator, space, derived = _PROC_STATE
    hits0, misses0 = evaluator.hits, evaluator.misses
    began = time.perf_counter()
    rows = _evaluate_range(evaluator, space, derived, start, stop)
    seconds = time.perf_counter() - began
    return (start, stop, rows, seconds,
            evaluator.hits - hits0, evaluator.misses - misses0)


def _proc_index_chunk(ordinal: int, indices: Sequence[int]):
    evaluator, space, derived = _PROC_STATE
    hits0, misses0 = evaluator.hits, evaluator.misses
    began = time.perf_counter()
    rows = _evaluate_indices(evaluator, space, derived, indices)
    seconds = time.perf_counter() - began
    return (ordinal, indices, rows, seconds,
            evaluator.hits - hits0, evaluator.misses - misses0)


# -- the engine -------------------------------------------------------------

class _ThreadWorkers:
    """Lazily builds one design replica + evaluator per pool thread."""

    def __init__(self, design: Design, objectives: Tuple[str, ...]):
        self._payload = design_to_payload(design)
        self._objectives = objectives
        self._local = threading.local()
        self._all: List[BatchEvaluator] = []
        self._lock = threading.Lock()

    def evaluator(self) -> BatchEvaluator:
        evaluator = getattr(self._local, "evaluator", None)
        if evaluator is None:
            evaluator = BatchEvaluator(
                design_from_payload(self._payload), self._objectives
            )
            self._local.evaluator = evaluator
            with self._lock:
                self._all.append(evaluator)
        return evaluator

    def stats(self) -> Tuple[int, int]:
        with self._lock:
            return (
                sum(e.hits for e in self._all),
                sum(e.misses for e in self._all),
            )


def _observe_chunk(record: Mapping) -> None:
    rows = record["rows"]
    failed = sum(1 for row in rows if row["error"])
    if len(rows) - failed:
        _metric_points().inc(len(rows) - failed, status="ok")
    if failed:
        _metric_points().inc(failed, status="error")
    _metric_chunk_seconds().observe(record["seconds"])
    annotate(
        "chunk",
        range=f"{record['start']}:{record['stop']}",
        points=len(rows),
        errors=failed,
        seconds=round(record["seconds"], 6),
    )


def run_chunks(
    design: Design,
    space: ParameterSpace,
    chunks: Sequence[Tuple[int, int]],
    objectives: Sequence[str] = ("power",),
    derived: Sequence[DerivedObjective] = (),
    workers: int = 1,
    mode: str = "serial",
    should_stop: Optional[Callable[[], bool]] = None,
    on_chunk: Optional[Callable[[int, int, List[dict], float], None]] = None,
) -> Tuple[Dict[int, dict], EngineReport]:
    """Evaluate ``chunks`` of ``space``, calling ``on_chunk`` as each
    finishes (that's the checkpoint hook).

    Returns ``(records, report)`` where ``records`` maps chunk start ->
    ``{"start", "stop", "rows", "seconds"}``.  ``should_stop`` is polled
    between chunks; unstarted chunks stay unevaluated, which is exactly
    the state :meth:`SweepJob.pending_chunks` resumes from.
    """
    objectives = tuple(objectives)
    derived = tuple(derived)
    workers = max(1, int(workers))
    records: Dict[int, dict] = {}
    report = EngineReport(mode=mode, workers=workers)
    began = time.perf_counter()

    def _record(start, stop, rows, seconds, hits, misses):
        record = {
            "start": start, "stop": stop, "rows": rows, "seconds": seconds,
        }
        records[start] = record
        report.points += len(rows)
        report.errors += sum(1 for row in rows if row["error"])
        report.chunks += 1
        report.hits += hits
        report.misses += misses
        _observe_chunk(record)
        if on_chunk is not None:
            on_chunk(start, stop, rows, seconds)

    if mode == "serial" or (workers == 1 and mode == "thread"):
        evaluator = BatchEvaluator(design, objectives)
        for start, stop in chunks:
            if should_stop is not None and should_stop():
                break
            with span("explore.chunk"):
                hits0, misses0 = evaluator.hits, evaluator.misses
                chunk_began = time.perf_counter()
                rows = _evaluate_range(evaluator, space, derived, start, stop)
                _record(
                    start, stop, rows, time.perf_counter() - chunk_began,
                    evaluator.hits - hits0, evaluator.misses - misses0,
                )
    elif mode == "thread":
        pool_workers = _ThreadWorkers(design, objectives)

        def _thread_chunk(start: int, stop: int):
            evaluator = pool_workers.evaluator()
            hits0, misses0 = evaluator.hits, evaluator.misses
            chunk_began = time.perf_counter()
            rows = _evaluate_range(evaluator, space, derived, start, stop)
            return (start, stop, rows, time.perf_counter() - chunk_began,
                    evaluator.hits - hits0, evaluator.misses - misses0)

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="explore"
        ) as pool:
            _pump(pool, _thread_chunk, chunks, workers, should_stop,
                  _record, ())
    elif mode == "process":
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
            ),
        ) as pool:
            _pump(pool, _proc_chunk, chunks, workers, should_stop,
                  _record, ())
    else:
        raise ExploreError(
            f"unknown engine mode {mode!r}; choose serial, thread or process"
        )

    report.seconds = time.perf_counter() - began
    _metric_memo().inc(report.hits, kind="hit")
    _metric_memo().inc(report.misses, kind="miss")
    _LOG.info(
        "run", mode=mode, workers=workers, chunks=report.chunks,
        points=report.points, errors=report.errors,
        hits=report.hits, misses=report.misses,
        seconds=round(report.seconds, 4),
    )
    return records, report


def run_index_chunks(
    design: Design,
    space: ParameterSpace,
    index_chunks: Sequence[Tuple[int, Sequence[int]]],
    objectives: Sequence[str] = ("power",),
    derived: Sequence[DerivedObjective] = (),
    workers: int = 1,
    mode: str = "serial",
    should_stop: Optional[Callable[[], bool]] = None,
    on_chunk: Optional[Callable[[int, Sequence[int], List[dict], float],
                                None]] = None,
) -> Tuple[Dict[int, dict], EngineReport]:
    """Evaluate explicit point-index lists — the surrogate engine's
    exact phases (scattered training samples, the predicted front).

    ``index_chunks`` is ``[(ordinal, [indices...]), ...]``; each chunk
    checkpoints through ``on_chunk(ordinal, indices, rows, seconds)``
    exactly like :func:`run_chunks` does for contiguous ranges, with
    the same serial/thread/process modes and cancellation contract.
    """
    objectives = tuple(objectives)
    derived = tuple(derived)
    workers = max(1, int(workers))
    records: Dict[int, dict] = {}
    report = EngineReport(mode=mode, workers=workers)
    began = time.perf_counter()

    def _record(ordinal, indices, rows, seconds, hits, misses):
        record = {
            "ordinal": int(ordinal), "indices": list(indices),
            "rows": rows, "seconds": seconds,
        }
        records[int(ordinal)] = record
        report.points += len(rows)
        report.errors += sum(1 for row in rows if row["error"])
        report.chunks += 1
        report.hits += hits
        report.misses += misses
        failed = sum(1 for row in rows if row["error"])
        if len(rows) - failed:
            _metric_points().inc(len(rows) - failed, status="ok")
        if failed:
            _metric_points().inc(failed, status="error")
        _metric_chunk_seconds().observe(seconds)
        if on_chunk is not None:
            on_chunk(ordinal, indices, rows, seconds)

    if mode == "serial" or (workers == 1 and mode == "thread"):
        evaluator = BatchEvaluator(design, objectives)
        for ordinal, indices in index_chunks:
            if should_stop is not None and should_stop():
                break
            with span("explore.chunk"):
                hits0, misses0 = evaluator.hits, evaluator.misses
                chunk_began = time.perf_counter()
                rows = _evaluate_indices(evaluator, space, derived, indices)
                _record(
                    ordinal, indices, rows,
                    time.perf_counter() - chunk_began,
                    evaluator.hits - hits0, evaluator.misses - misses0,
                )
    elif mode == "thread":
        pool_workers = _ThreadWorkers(design, objectives)

        def _thread_chunk(ordinal, indices):
            evaluator = pool_workers.evaluator()
            hits0, misses0 = evaluator.hits, evaluator.misses
            chunk_began = time.perf_counter()
            rows = _evaluate_indices(evaluator, space, derived, indices)
            return (ordinal, indices, rows,
                    time.perf_counter() - chunk_began,
                    evaluator.hits - hits0, evaluator.misses - misses0)

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="explore"
        ) as pool:
            _pump(pool, _thread_chunk, index_chunks, workers, should_stop,
                  _record, ())
    elif mode == "process":
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
            ),
        ) as pool:
            _pump(pool, _proc_index_chunk, index_chunks, workers,
                  should_stop, _record, ())
    else:
        raise ExploreError(
            f"unknown engine mode {mode!r}; choose serial, thread or process"
        )

    report.seconds = time.perf_counter() - began
    _metric_memo().inc(report.hits, kind="hit")
    _metric_memo().inc(report.misses, kind="miss")
    return records, report


def _pump(pool, chunk_fn, chunks, workers, should_stop, record, extra_args):
    """Feed chunks to a pool keeping at most ``workers`` in flight.

    Bounded submission keeps memory flat on huge sweeps and makes
    ``should_stop`` prompt: in-flight chunks drain (and checkpoint),
    nothing new starts.
    """
    pending = {}
    queue = list(chunks)
    position = 0
    while position < len(queue) or pending:
        while (position < len(queue) and len(pending) < workers
               and not (should_stop is not None and should_stop())):
            start, stop = queue[position]
            position += 1
            pending[pool.submit(chunk_fn, start, stop, *extra_args)] = start
        if should_stop is not None and should_stop():
            position = len(queue)
        if not pending:
            break
        done, _ = concurrent.futures.wait(
            pending, return_when=concurrent.futures.FIRST_COMPLETED
        )
        for future in done:
            pending.pop(future)
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

    ``prune=True`` keeps only the Pareto-optimal rows (dominated
    region dropped) — the report still counts every evaluated point.
    """
    with span("explore.sweep"):
        annotate(
            "sweep", design=design.name, points=len(space), mode=mode
        )
        records, report = run_chunks(
            design, space, space.chunks(chunk_size),
            objectives=objectives, derived=derived,
            workers=workers, mode=mode,
            should_stop=should_stop, on_chunk=on_chunk,
        )
    rows: List[dict] = []
    for start in sorted(records):
        rows.extend(records[start]["rows"])
    objective_names = list(objectives) + [d.name for d in derived]
    if prune:
        rows = pareto_rows(rows, objective_names)
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

    Only the chunks missing from the job's checkpoint run; each
    finished chunk checkpoints immediately, so killing this process at
    any instant loses at most one in-flight chunk.  Honors both the
    job's own :meth:`~SweepJob.request_cancel` flag and an external
    ``should_stop``.

    Surrogate jobs (``job.surrogate`` set) run the fit-predict-verify
    phases instead of the exhaustive chunk walk.
    """
    if getattr(job, "surrogate", None) is not None:
        from ..surrogate.runner import run_surrogate_job

        return run_surrogate_job(job, should_stop)
    job.set_state("running")
    design = job.design()

    def _stop() -> bool:
        return job.cancel_requested or bool(
            should_stop is not None and should_stop()
        )

    try:
        run_chunks(
            design, job.space, job.pending_chunks(),
            objectives=job.objectives, derived=job.derived,
            workers=job.workers, mode=job.mode,
            should_stop=_stop, on_chunk=job.record_chunk,
        )
    except PowerPlayError as exc:
        job.set_state("failed", str(exc))
        raise
    except BaseException as exc:
        job.set_state("failed", f"engine failure: {exc}")
        raise
    if job.pending_chunks():
        job.set_state("cancelled")
    else:
        job.set_state("done")
    return job
