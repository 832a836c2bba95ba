"""Crash-safe sweep jobs: submit, checkpoint, kill, resume.

A :class:`SweepJob` is the durable record of one exploration run —
the design (as a library payload, so a process that never saw the
original request can rebuild it), the parameter space, the requested
objectives, the engine settings, and every finished chunk's result
rows.  :class:`JobStore` persists each job as one JSON file using the
same mkstemp + fsync + atomic-rename discipline as the web session
store, so a ``kill -9`` at any instant leaves either the previous
complete checkpoint or the new complete checkpoint — never a torn one.

Resume is therefore trivial and *verifiable*: the engine replays only
the chunks missing from :attr:`SweepJob.chunks`, and because every
chunk's rows are a pure function of (design payload, space payload,
chunk range), the resumed job's exported results are byte-identical to
an uninterrupted run's.
"""

from __future__ import annotations

import json
import math
import re
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.design import Design
from ..errors import JobError, PowerPlayError
from ..library.designio import design_from_payload, design_to_payload
from ..obs import get_logger, get_registry
from ..state import FileBackend, open_backend
from .results import pareto_rows
from .space import DerivedObjective, ParameterSpace

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
        "Sweep-job store operations (create, save, load, quarantine).",
        ("op",),
    )


#: defaults for the surrogate engine's config dict
SURROGATE_DEFAULTS = {
    "train_frac": 0.01,
    "train_seed": 1996,
    "verify_top": 64,
    "max_error": 0.0,
    "basis": "auto",
}


def coerce_surrogate(config: Mapping) -> dict:
    """Normalize a surrogate config dict (unknown keys rejected, known
    keys type-coerced) so checkpoints round-trip canonically."""
    out = dict(SURROGATE_DEFAULTS)
    for key, value in dict(config).items():
        if key not in SURROGATE_DEFAULTS:
            raise JobError(f"unknown surrogate config key {key!r}")
        out[key] = value
    try:
        out["train_frac"] = float(out["train_frac"])
        out["train_seed"] = int(out["train_seed"])
        out["verify_top"] = int(out["verify_top"])
        out["max_error"] = float(out["max_error"])
        out["basis"] = str(out["basis"])
    except (TypeError, ValueError) as exc:
        raise JobError(f"bad surrogate config: {exc}") from exc
    if not 0.0 < out["train_frac"] <= 1.0:
        raise JobError(
            f"surrogate train fraction must be in (0, 1], got "
            f"{out['train_frac']!r}"
        )
    if out["verify_top"] < 0:
        raise JobError(
            f"surrogate verify budget must be >= 0, got "
            f"{out['verify_top']}"
        )
    # NaN fails every comparison, so a NaN budget would silently turn
    # the check off; 0 is the only way to ask for no budget
    if not (math.isfinite(out["max_error"]) and out["max_error"] >= 0):
        raise JobError(
            f"surrogate max_error must be a finite number >= 0 "
            f"(0 = no budget), got {out['max_error']!r}"
        )
    return out


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
        surrogate: Optional[Mapping] = None,
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
        #: ``None`` = exhaustive exact sweep; a config dict switches the
        #: job to the fit-predict-verify surrogate engine
        self.surrogate = (
            None if surrogate is None else coerce_surrogate(surrogate)
        )
        #: surrogate phase checkpoints — ``train``/``verify`` hold
        #: ``{"chunks": {ordinal: {...}}}``, ``plan`` holds the fitted
        #: surrogates + predicted front (see repro.surrogate.runner)
        self.phases: Dict[str, dict] = {}
        self.state = "pending"
        self.error = ""
        self.cancel_requested = False
        #: chunk start index -> {"start", "stop", "rows", "seconds"}
        self.chunks: Dict[int, dict] = {}
        #: serializes state transitions and checkpoint writes for this
        #: job across the web runner thread and CLI resume
        self.lock = threading.RLock()
        self._store: Optional["JobStore"] = None

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
        """Exactly-evaluated points so far (phase rows included)."""
        done = sum(len(chunk["rows"]) for chunk in self.chunks.values())
        for phase in self.phases.values():
            for chunk in phase.get("chunks", {}).values():
                done += len(chunk["rows"])
        return done

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
        when the job was submitted with ``prune``.

        For surrogate jobs this assembles the exact + predicted row set
        from the phase checkpoints instead of the chunk walk.
        """
        if self.surrogate is not None:
            from ..surrogate.runner import surrogate_result_rows

            rows = surrogate_result_rows(self)
        elif self.pending_chunks():
            raise JobError(
                f"job {self.job_id!r} is incomplete: "
                f"{self.done_points}/{self.total_points} points"
            )
        else:
            rows = [
                row for start in sorted(self.chunks)
                for row in self.chunks[start]["rows"]
            ]
        return pareto_rows(rows, self.objective_names) if self.prune else rows

    # -- surrogate phases --------------------------------------------------

    def phase_chunks(self, phase: str) -> Dict[int, dict]:
        """Checkpointed chunks of one surrogate phase, by ordinal."""
        return {
            int(ordinal): chunk
            for ordinal, chunk in self.phases.get(phase, {}).get(
                "chunks", {}
            ).items()
        }

    def phase_rows(self, phase: str) -> Dict[int, dict]:
        """Point index -> exact result row for one surrogate phase."""
        rows: Dict[int, dict] = {}
        chunks = self.phase_chunks(phase)
        for ordinal in sorted(chunks):
            for row in chunks[ordinal]["rows"]:
                rows[int(row["index"])] = row
        return rows

    def record_phase_chunk(
        self, phase: str, ordinal: int, indices: Sequence[int],
        rows: List[dict], seconds: float,
    ) -> None:
        with self.lock:
            slot = self.phases.setdefault(phase, {})
            slot.setdefault("chunks", {})[int(ordinal)] = {
                "ordinal": int(ordinal),
                "indices": [int(i) for i in indices],
                "rows": rows,
                "seconds": float(seconds),
            }
            self.save()

    def phase_data(self, phase: str) -> Optional[dict]:
        """The non-chunk payload of one phase (the ``plan``)."""
        return self.phases.get(phase, {}).get("data")

    def set_phase_data(self, phase: str, data: Mapping) -> None:
        with self.lock:
            self.phases.setdefault(phase, {})["data"] = dict(data)
            self.save()

    # -- state transitions -------------------------------------------------

    def record_chunk(self, start: int, stop: int, rows: List[dict],
                     seconds: float) -> None:
        with self.lock:
            self.chunks[int(start)] = {
                "start": int(start),
                "stop": int(stop),
                "rows": rows,
                "seconds": float(seconds),
            }
            self.save()

    def set_state(self, state: str, error: str = "") -> None:
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        with self.lock:
            if self.state in _TERMINAL and state == "running":
                raise JobError(
                    f"job {self.job_id!r} is {self.state}; only a "
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
        if self._store is not None:
            with self.lock:
                self._store.save_job(self)

    # -- persistence -------------------------------------------------------

    def to_payload(self) -> dict:
        payload: Dict[str, object] = {
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
            "chunks": {
                str(start): chunk
                for start, chunk in sorted(self.chunks.items())
            },
        }
        if self.surrogate is not None:
            payload["surrogate"] = dict(self.surrogate)
            payload["phases"] = {
                phase: {
                    key: (
                        {str(o): c for o, c in sorted(value.items())}
                        if key == "chunks" else value
                    )
                    for key, value in slot.items()
                }
                for phase, slot in sorted(self.phases.items())
            }
        return payload

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
            surrogate = payload.get("surrogate")
            job.surrogate = (
                None if surrogate is None else coerce_surrogate(surrogate)
            )
            job.phases = {}
            for phase, slot in payload.get("phases", {}).items():
                restored: dict = {}
                for key, value in slot.items():
                    if key == "chunks":
                        restored["chunks"] = {
                            int(ordinal): {
                                "ordinal": int(chunk["ordinal"]),
                                "indices": [
                                    int(i) for i in chunk["indices"]
                                ],
                                "rows": list(chunk["rows"]),
                                "seconds": float(
                                    chunk.get("seconds", 0.0)
                                ),
                            }
                            for ordinal, chunk in value.items()
                        }
                    else:
                        restored[key] = value
                job.phases[str(phase)] = restored
            state = str(payload.get("state", "pending"))
            if state not in JOB_STATES:
                raise JobError(f"corrupt job payload: state {state!r}")
            job.state = state
            job.error = str(payload.get("error", ""))
            job.cancel_requested = bool(payload.get("cancel_requested", False))
            job.chunks = {}
            for key, chunk in payload.get("chunks", {}).items():
                start = int(key)
                job.chunks[start] = {
                    "start": int(chunk["start"]),
                    "stop": int(chunk["stop"]),
                    "rows": list(chunk["rows"]),
                    "seconds": float(chunk.get("seconds", 0.0)),
                }
            job.lock = threading.RLock()
            job._store = None
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
            "surrogate": self.surrogate is not None,
            "error": self.error,
        }


class JobStore:
    """Backend-backed job registry: one JSON checkpoint per job.

    Mirrors :class:`repro.web.session.UserStore`'s durability story,
    now delegated to a :class:`~repro.state.backend.StateBackend`
    (namespace ``"jobs"``): atomic fsynced saves, and quarantine
    (file: ``.json.corrupt[-N]``; SQLite: a quarantine table) for
    checkpoints that are unreadable anyway — the server keeps running
    and the damaged bytes stay preserved for inspection.

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
        surrogate: Optional[Mapping] = None,
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
                surrogate=surrogate,
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
        """Fetch a job, loading its checkpoint from disk if needed."""
        job_id = validate_job_id(job_id)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            text = self.backend.load(self.NAMESPACE, job_id)
            if text is None:
                raise JobError(f"no job {job_id!r}")
            try:
                payload = json.loads(text)
                job = SweepJob.from_payload(payload)
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
        """Atomically persist one job's checkpoint (crash-safe)."""
        payload = json.dumps(job.to_payload(), sort_keys=True)
        with self.backend.lock(self.NAMESPACE, job.job_id):
            self.backend.save(self.NAMESPACE, job.job_id, payload)
        _metric_jobs().inc(op="save")

    def forget(self, job_id: str) -> None:
        """Drop the in-memory copy (checkpoint file remains)."""
        with self._lock:
            self._jobs.pop(job_id, None)
