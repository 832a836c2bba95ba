"""Crash-safe sweep jobs: submit, checkpoint, kill, resume.

A :class:`SweepJob` is the durable record of one exploration run —
the design (as a library payload, so a process that never saw the
original request can rebuild it), the parameter space, the requested
objectives, the engine settings, and every finished chunk's result
rows.  :class:`JobStore` keeps each job as one document of a
:class:`~repro.state.backend.StateBackend`, the way user sessions are
kept:

* a finished chunk **appends** one compact record — its rows, its
  ``[start, stop)`` span, its seconds and its failed-point count — to
  the document's journal (:meth:`StateBackend.append`, durable before
  the next chunk starts);
* every other save (create, a state change, a cancel request) writes
  the whole job as the snapshot, which **folds** the journal into it;
* loading replays the journal's records after the snapshot.

A crash at any instant therefore leaves the last snapshot plus every
complete record; a record torn mid-append is dropped by the backend,
and its chunk simply runs again.  A pruned job keeps only the rows
still on its running Pareto front, so its memory and its snapshot
grow with the front, not with the points; its progress counts chunk
spans, not rows.

Resume is therefore trivial and *verifiable*: the engine replays only
the chunks missing from :attr:`SweepJob.chunks`, and because every
chunk's rows are a pure function of (design payload, space payload,
chunk range), the resumed job's exported results are byte-identical to
an uninterrupted run's.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.design import Design
from ..errors import JobError, PowerPlayError
from ..library.designio import design_from_payload, design_to_payload
from ..obs import get_logger, get_registry
from ..state import FileBackend, open_backend
from .results import ParetoFront
from .space import DerivedObjective, ParameterSpace, check_held_points

_LOG = get_logger("jobs")

#: the sweep-job lifecycle; ``pending`` -> ``running`` -> one of the
#: three terminal states (``cancelled`` jobs keep their finished chunks
#: and may be resumed, which puts them back to ``running``)
JOB_STATES = ("pending", "running", "done", "failed", "cancelled")

_TERMINAL = frozenset({"done", "failed"})

# job ids become file names and URL query values — strictly boring,
# and \Z (not $) so "job-0001\n" cannot smuggle a newline through
_JOB_ID_RE = re.compile(r"^job-[0-9]{4,12}\Z")

#: :mod:`repro.explore.engine` execution modes
ENGINE_MODES = ("serial", "process")


def _metric_jobs():
    return get_registry().counter(
        "powerplay_explore_jobs_total",
        "Sweep-job store operations (create, save, append, load, "
        "quarantine).",
        ("op",),
    )


#: the error a checkpoint of the retired surrogate engine loads with
SURROGATE_RETIRED = (
    "this job ran the surrogate engine, which PowerPlay no longer has; "
    "rerun the space as a pruned exact sweep (repro sweep --prune, or "
    "prune=yes on /sweep)"
)


#: the keys every result row carries (see :mod:`repro.explore.results`)
_ROW_KEYS = frozenset({"index", "values", "objectives", "error"})


def _chunk_record(chunk: Mapping) -> dict:
    """One checkpointed chunk, checked: each row a result row of the
    chunk's span.  A checkpoint written before chunks counted their
    failed points held every row, so the count is taken from the rows."""
    start, stop, rows = int(chunk["start"]), int(chunk["stop"]), list(chunk["rows"])
    for row in rows:
        if not (_ROW_KEYS <= row.keys() and start <= row["index"] < stop):
            raise JobError(f"chunk [{start}, {stop}) holds a foreign row")
    failed = chunk.get("failed")
    if failed is None:
        failed = sum(1 for row in rows if row["error"])
    return {
        "start": start,
        "stop": stop,
        "rows": rows,
        "seconds": float(chunk.get("seconds", 0.0)),
        "failed": int(failed),
    }


def validate_job_id(job_id: str) -> str:
    """Job ids become file names — reject anything surprising."""
    if not isinstance(job_id, str) or not _JOB_ID_RE.match(job_id):
        raise JobError(
            f"invalid job id {job_id!r}: expected job-NNNN"
        )
    return job_id


class SweepJob:
    """One exploration run and everything needed to (re)execute it."""

    def __init__(
        self,
        job_id: str,
        owner: str,
        design: Design,
        space: ParameterSpace,
        objectives: Sequence[str] = ("power",),
        derived: Sequence[DerivedObjective] = (),
        workers: int = 1,
        mode: str = "serial",
        chunk_size: int = 64,
        prune: bool = False,
    ):
        self.job_id = validate_job_id(job_id)
        self.owner = str(owner)
        self.design_name = design.name
        self.design_payload = design_to_payload(design)
        self.space = space
        self.objectives: Tuple[str, ...] = tuple(objectives)
        self.derived: Tuple[DerivedObjective, ...] = tuple(derived)
        self.workers = max(1, int(workers))
        if mode not in ENGINE_MODES:
            raise JobError(
                f"unknown engine mode {mode!r}; choose serial or process"
            )
        self.mode = mode
        self.chunk_size = max(1, int(chunk_size))
        self.prune = bool(prune)
        check_held_points(space, self.prune)
        self.state = "pending"
        self.error = ""
        self.cancel_requested = False
        self._init_chunks()
        self._store: Optional["JobStore"] = None

    def _init_chunks(self) -> None:
        #: chunk start -> {"start", "stop", "rows", "seconds", "failed"};
        #: a pruned job's chunks hold no rows, its front does
        self.chunks: Dict[int, dict] = {}
        #: a pruned job's running Pareto front over every held chunk
        self.front = ParetoFront(self.objective_names) if self.prune else None
        #: serializes state transitions and checkpoint writes for this
        #: job across the web runner thread and CLI resume
        self.lock = threading.RLock()

    # -- derived views -----------------------------------------------------

    def design(self) -> Design:
        """Rebuild the swept design from its stored payload.

        A fresh instance every call: evaluator workers mutate design
        scopes while running, so sharing one instance across workers
        (or with the owner's live session copy) would race.
        """
        return design_from_payload(self.design_payload)

    @property
    def total_points(self) -> int:
        return len(self.space)

    @property
    def done_points(self) -> int:
        """Points in checkpointed chunks."""
        return sum(
            chunk["stop"] - chunk["start"] for chunk in self.chunks.values()
        )

    @property
    def failed_points(self) -> int:
        """Points of checkpointed chunks that failed to evaluate."""
        return sum(chunk["failed"] for chunk in self.chunks.values())

    @property
    def objective_names(self) -> List[str]:
        """Built-in objectives then derived ones, in declaration order."""
        return list(self.objectives) + [d.name for d in self.derived]

    def pending_chunks(self) -> List[Tuple[int, int]]:
        """The ``[start, stop)`` ranges not yet checkpointed."""
        return [
            (start, stop)
            for start, stop in self.space.chunks(self.chunk_size)
            if start not in self.chunks
        ]

    def result_rows(self) -> List[dict]:
        """All checkpointed rows in point order (raises if incomplete),
        Pareto-pruned as :func:`~repro.explore.engine.run_sweep` does
        when the job was submitted with ``prune``."""
        if self.pending_chunks():
            raise JobError(
                f"job {self.job_id!r} is incomplete: "
                f"{self.done_points}/{self.total_points} points"
            )
        if self.front is not None:
            return list(self.front.rows)
        return [
            row for start in sorted(self.chunks)
            for row in self.chunks[start]["rows"]
        ]

    # -- state transitions -------------------------------------------------

    def _hold(self, record: dict) -> None:
        """Keep one chunk record; a pruned job folds its rows into the
        front.  A record that is no chunk of this job, or one already
        held, is damage."""
        start, stop = record["start"], record["stop"]
        if (start % self.chunk_size or start in self.chunks
                or not 0 <= start < stop
                or stop != min(start + self.chunk_size, self.total_points)):
            raise JobError(
                f"chunk [{start}, {stop}) is not a pending chunk of "
                f"job {self.job_id!r}"
            )
        if self.front is not None:
            self.front.fold(record["rows"])
            record = {**record, "rows": []}
        self.chunks[start] = record

    def record_chunk(self, start: int, stop: int, rows: List[dict],
                     seconds: float, failed: int) -> None:
        """Journal one finished chunk (the engine's ``on_chunk`` hook)."""
        record = {
            "start": int(start),
            "stop": int(stop),
            "rows": rows,
            "seconds": float(seconds),
            "failed": int(failed),
        }
        with self.lock:
            if self._store is not None:
                self._store.append_chunk(self.job_id, record)
            self._hold(record)

    def set_state(self, state: str, error: str = "") -> None:
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        with self.lock:
            if self.state in _TERMINAL and state == "running":
                reason = f" ({self.error})" if self.error else ""
                raise JobError(
                    f"job {self.job_id!r} is {self.state}{reason}; only a "
                    "cancelled or interrupted job can be resumed"
                )
            self.state = state
            self.error = str(error)
            if state == "running":
                self.cancel_requested = False
            self.save()

    def request_cancel(self) -> None:
        with self.lock:
            if self.state in _TERMINAL:
                raise JobError(
                    f"job {self.job_id!r} already finished ({self.state})"
                )
            self.cancel_requested = True
            self.save()

    def save(self) -> None:
        """Write the snapshot, folding the journal into it."""
        if self._store is not None:
            with self.lock:
                self._store.save_job(self)

    # -- persistence -------------------------------------------------------

    def _chunk_payloads(self) -> Dict[str, dict]:
        """The snapshot's chunks; a pruned job's front rows go back to
        the chunks they came from."""
        if self.front is None:
            return {
                str(start): chunk for start, chunk in sorted(self.chunks.items())
            }
        rows: Dict[int, List[dict]] = {}
        for row in self.front.rows:
            start = row["index"] - row["index"] % self.chunk_size
            rows.setdefault(start, []).append(row)
        return {
            str(start): {**chunk, "rows": rows.get(start, [])}
            for start, chunk in sorted(self.chunks.items())
        }

    def to_payload(self) -> dict:
        return {
            "format": "powerplay-job/1",
            "job_id": self.job_id,
            "owner": self.owner,
            "design_name": self.design_name,
            "design": self.design_payload,
            "space": self.space.to_payload(),
            "objectives": list(self.objectives),
            "derived": [d.to_payload() for d in self.derived],
            "workers": self.workers,
            "mode": self.mode,
            "chunk_size": self.chunk_size,
            "prune": self.prune,
            "state": self.state,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "chunks": self._chunk_payloads(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SweepJob":
        if payload.get("format") != "powerplay-job/1":
            raise JobError(
                f"corrupt job payload: format {payload.get('format')!r}"
            )
        try:
            job = cls.__new__(cls)
            job.job_id = validate_job_id(str(payload["job_id"]))
            job.owner = str(payload.get("owner", ""))
            job.design_name = str(payload["design_name"])
            job.design_payload = dict(payload["design"])
            job.space = ParameterSpace.from_payload(payload["space"])
            job.objectives = tuple(
                str(o) for o in payload.get("objectives", ("power",))
            )
            job.derived = tuple(
                DerivedObjective.from_payload(d)
                for d in payload.get("derived", [])
            )
            job.workers = max(1, int(payload.get("workers", 1)))
            mode = str(payload.get("mode", "serial"))
            if mode == "thread":
                # thread mode is retired; its checkpoints resume serially
                mode = "serial"
            if mode not in ENGINE_MODES:
                raise JobError(f"corrupt job payload: mode {mode!r}")
            job.mode = mode
            job.chunk_size = max(1, int(payload.get("chunk_size", 64)))
            job.prune = bool(payload.get("prune", False))
            state = str(payload.get("state", "pending"))
            if state not in JOB_STATES:
                raise JobError(f"corrupt job payload: state {state!r}")
            job.state = state
            job.error = str(payload.get("error", ""))
            job.cancel_requested = bool(payload.get("cancel_requested", False))
            job._init_chunks()
            job._store = None
            if "surrogate" in payload:
                # its rows live in phases no engine reads any more
                job.state, job.error = "failed", SURROGATE_RETIRED
                return job
            for chunk in payload.get("chunks", {}).values():
                job._hold(_chunk_record(chunk))
            return job
        except JobError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise JobError(f"corrupt job payload: {exc}") from exc

    def summary(self) -> dict:
        """One row for job listings (CLI ``repro jobs``, ``/status``)."""
        return {
            "job_id": self.job_id,
            "owner": self.owner,
            "design": self.design_name,
            "state": self.state,
            "points": self.total_points,
            "done": self.done_points,
            "objectives": ",".join(self.objective_names),
            "error": self.error,
        }


class JobStore:
    """Backend-backed job registry: one snapshot and journal per job.

    Mirrors :class:`repro.web.session.UserStore`'s durability story,
    delegated to a :class:`~repro.state.backend.StateBackend`
    (namespace ``"jobs"``): atomic fsynced snapshots, fsynced journal
    appends, and quarantine of the snapshot and its journal together
    (file: ``.json.corrupt[-N]``; SQLite: a quarantine table) when
    either is unreadable — the server keeps running and the damaged
    bytes stay preserved for inspection.

    ``worker_index``/``worker_count`` stride id allocation so the
    pre-fork front's workers, sharing one backend, can never both mint
    ``job-NNNN``: worker *i* of *W* only allocates ids with
    ``NNNN % W == i``.
    """

    NAMESPACE = "jobs"

    def __init__(
        self,
        root: Path,
        backend=None,
        worker_index: Optional[int] = None,
        worker_count: int = 1,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if backend is None:
            # standalone store: the historical layout rooted itself at
            # the jobs directory, not a parent state directory
            backend = FileBackend(self.root, layout={self.NAMESPACE: "."})
        self.backend = open_backend(backend, self.root)
        self.worker_index = worker_index
        self.worker_count = max(1, int(worker_count))
        self._jobs: Dict[str, SweepJob] = {}
        self._lock = threading.Lock()
        #: ``[(job_id, quarantine location, reason), ...]``
        self.quarantined: List[tuple] = []

    def job_ids(self) -> List[str]:
        """Every job id present on disk or in memory, sorted."""
        ids = {
            key
            for key in self.backend.keys(self.NAMESPACE)
            if _JOB_ID_RE.match(key)
        }
        ids.update(self._jobs)
        return sorted(ids)

    def _next_id(self) -> str:
        highest = 0
        for job_id in self.job_ids():
            highest = max(highest, int(job_id.split("-", 1)[1]))
        number = highest + 1
        if self.worker_index is not None and self.worker_count > 1:
            # stride onto this worker's residue class so concurrent
            # workers sharing the backend never mint the same id
            number += (self.worker_index - number) % self.worker_count
        return f"job-{number:04d}"

    def create(
        self,
        design: Design,
        space: ParameterSpace,
        objectives: Sequence[str] = ("power",),
        derived: Sequence[DerivedObjective] = (),
        owner: str = "",
        workers: int = 1,
        mode: str = "serial",
        chunk_size: int = 64,
        prune: bool = False,
    ) -> SweepJob:
        """Allocate an id, build the job, persist it as ``pending``."""
        with self._lock:
            job = SweepJob(
                self._next_id(),
                owner,
                design,
                space,
                objectives=objectives,
                derived=derived,
                workers=workers,
                mode=mode,
                chunk_size=chunk_size,
                prune=prune,
            )
            job._store = self
            self._jobs[job.job_id] = job
        job.save()
        _metric_jobs().inc(op="create")
        _LOG.info(
            "create", job=job.job_id, design=job.design_name,
            points=job.total_points, owner=job.owner,
        )
        return job

    def _quarantine(self, job_id: str, reason: str) -> Path:
        target = Path(self.backend.quarantine(self.NAMESPACE, job_id, reason))
        self.quarantined.append((job_id, target, reason))
        _metric_jobs().inc(op="quarantine")
        _LOG.warning(
            "quarantine", job=job_id, moved_to=str(target), reason=reason
        )
        return target

    def job(self, job_id: str) -> SweepJob:
        """Fetch a job, loading its snapshot and replaying its journal
        if needed."""
        job_id = validate_job_id(job_id)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            text = self.backend.load(self.NAMESPACE, job_id)
            if text is None:
                raise JobError(f"no job {job_id!r}")
            try:
                job = SweepJob.from_payload(json.loads(text))
                for line in self.backend.journal(self.NAMESPACE, job_id):
                    job._hold(_chunk_record(json.loads(line)))
            except (json.JSONDecodeError, PowerPlayError, ValueError,
                    TypeError, KeyError, AttributeError) as exc:
                target = self._quarantine(job_id, str(exc))
                raise JobError(
                    f"job {job_id!r} checkpoint is corrupt "
                    f"(quarantined to {target.name}): {exc}"
                ) from exc
            job._store = self
            self._jobs[job_id] = job
            _metric_jobs().inc(op="load")
            return job

    def list_jobs(self) -> List[SweepJob]:
        """All readable jobs, sorted by id (corrupt ones quarantined)."""
        jobs: List[SweepJob] = []
        for job_id in self.job_ids():
            try:
                jobs.append(self.job(job_id))
            except JobError:
                continue
        return jobs

    def save_job(self, job: SweepJob) -> None:
        """Atomically write one job's snapshot, folding its journal."""
        payload = json.dumps(job.to_payload(), sort_keys=True)
        with self.backend.lock(self.NAMESPACE, job.job_id):
            self.backend.save(self.NAMESPACE, job.job_id, payload)
        _metric_jobs().inc(op="save")

    def append_chunk(self, job_id: str, record: dict) -> None:
        """Durably journal one finished chunk's record."""
        line = json.dumps(record, sort_keys=True)
        with self.backend.lock(self.NAMESPACE, job_id):
            self.backend.append(self.NAMESPACE, job_id, line)
        _metric_jobs().inc(op="append")

    def forget(self, job_id: str) -> None:
        """Drop the in-memory copy (checkpoint file remains)."""
        with self._lock:
            self._jobs.pop(job_id, None)
