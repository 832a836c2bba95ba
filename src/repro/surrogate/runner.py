"""Orchestration: run a surrogate sweep job through its phases.

A surrogate job moves through three checkpointed phases, all riding the
same crash-safe :class:`~repro.explore.jobs.JobStore` discipline as
exhaustive sweeps — kill the process at any instant and a resume picks
up from the last complete checkpoint, producing a **byte-identical**
export:

1. **train** — exact evaluation of the seeded training sample, chunked
   through :func:`repro.explore.engine.run_chunks` (serial or process
   mode) and checkpointed chunk by chunk;
2. **plan** — fit the per-objective surrogates from the training rows,
   stream-predict the full space, select the predicted Pareto front and
   the uncertainty band, and checkpoint the whole plan (fit payloads,
   front/band indices, *and the predicted values for those rows*) in
   one atomic write — a resumed job never re-predicts, so numerical
   drift can't leak into the export;
3. **verify** — exact re-evaluation of the selected rows, chunked and
   checkpointed like the training phase.

The phases are pure functions of their checkpointed inputs: training
rows are deterministic (bit-identical to ``evaluate_power``), the plan
is a deterministic function of the training rows, and verification rows
are deterministic again — which is what makes kill → resume → export
byte-equality a *testable* contract rather than a hope.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from ..explore.engine import run_chunks
from ..explore.jobs import SweepJob
from ..obs import annotate, get_logger, get_registry, span
from .fit import SurrogateFit, error_bound, fit_surrogates
from .predict import DEFAULT_CHUNK, scan_space
from .sampling import chunk_indices, training_indices
from .verify import (
    SurrogateReport,
    assemble_rows,
    observed_errors,
    select_verification,
)

_LOG = get_logger("surrogate")

#: phase checkpoints batch at least this many points per chunk — a
#: 64-point chunk size tuned for interactive exhaustive sweeps would
#: mean hundreds of full-job checkpoint writes on a 10k training set
MIN_PHASE_CHUNK = 256


def _metric_train():
    return get_registry().counter(
        "powerplay_surrogate_train_total",
        "Exact training points evaluated for surrogate fits.",
    )


def _metric_predict():
    return get_registry().counter(
        "powerplay_surrogate_predict_total",
        "Points predicted by fitted surrogates (never exact-evaluated).",
    )


def _metric_verify():
    return get_registry().counter(
        "powerplay_surrogate_verify_total",
        "Predicted rows re-verified with the exact estimator.",
    )


def _metric_error_bound():
    return get_registry().gauge(
        "powerplay_surrogate_error_bound",
        "Holdout max relative error bound of the latest surrogate fit.",
    )


def _phase_chunk_size(job: SweepJob) -> int:
    return max(int(job.chunk_size), MIN_PHASE_CHUNK)


def train_plan(job: SweepJob) -> List[List[int]]:
    """The training phase's chunked index lists (pure function of the
    job's space + surrogate config, so resume re-derives it exactly)."""
    indices = training_indices(
        job.space,
        fraction=job.surrogate["train_frac"],
        seed=job.surrogate["train_seed"],
    )
    return chunk_indices(indices, _phase_chunk_size(job))


def verify_plan(job: SweepJob) -> List[List[int]]:
    """The verify phase's chunked index lists (from the checkpointed
    plan; empty until the plan phase lands)."""
    plan = job.phase_data("plan")
    if plan is None:
        return []
    return chunk_indices(
        [int(i) for i in plan["verify"]], _phase_chunk_size(job)
    )


def surrogate_pending(job: SweepJob) -> bool:
    """Is there phase work left?  Mirrors ``pending_chunks`` for the
    exhaustive engine: the resume loop runs while this is true."""
    done_train = set(job.phase_chunks("train"))
    if any(
        ordinal not in done_train
        for ordinal in range(len(train_plan(job)))
    ):
        return True
    if job.phase_data("plan") is None:
        return True
    done_verify = set(job.phase_chunks("verify"))
    return any(
        ordinal not in done_verify
        for ordinal in range(len(verify_plan(job)))
    )


def _run_phase_chunks(
    job: SweepJob,
    phase: str,
    chunks: List[List[int]],
    should_stop: Callable[[], bool],
) -> bool:
    """Run one phase's missing chunks; False when stopped early."""
    done = set(job.phase_chunks(phase))
    pending = [
        (ordinal, indices)
        for ordinal, indices in enumerate(chunks)
        if ordinal not in done
    ]
    if not pending:
        return True
    design = job.design()
    run_chunks(
        design, job.space, pending,
        objectives=job.objectives, derived=job.derived,
        workers=job.workers, mode=job.mode,
        should_stop=should_stop,
        on_chunk=lambda ordinal, indices, rows, seconds:
            job.record_phase_chunk(phase, ordinal, indices, rows, seconds),
    )
    return len(job.phase_chunks(phase)) == len(chunks)


def _build_plan(job: SweepJob) -> None:
    """Fit, predict, select — one atomic checkpoint."""
    config = job.surrogate
    train_rows = [
        row
        for index, row in sorted(job.phase_rows("train").items())
    ]
    fit_began = time.perf_counter()
    with span("surrogate.fit"):
        fits = fit_surrogates(
            train_rows,
            job.space.axis_names,
            job.objectives,
            basis=config["basis"],
            seed=config["train_seed"],
            max_error=config["max_error"],
        )
        bound = error_bound(fits)
        _metric_error_bound().set(bound)
        annotate(
            "fit",
            objectives=",".join(fits),
            bound=round(bound, 6),
            bases=",".join(fit.basis for fit in fits.values()),
        )
    fit_seconds = time.perf_counter() - fit_began
    predict_began = time.perf_counter()
    with span("surrogate.predict"):
        scan = scan_space(
            job.space, fits, job.objectives, job.derived,
            chunk_size=DEFAULT_CHUNK,
            keep_uncertain=config["verify_top"],
        )
        _metric_predict().inc(scan.scanned_points)
    predict_seconds = time.perf_counter() - predict_began
    train_indices = sorted(job.phase_rows("train"))
    verify = select_verification(
        scan.front_indices, scan.uncertain_indices, train_indices,
        config["verify_top"],
    )
    job.set_phase_data(
        "plan",
        {
            "fits": {
                name: fit.to_payload() for name, fit in fits.items()
            },
            "error_bound": bound,
            "front": scan.front_indices,
            "uncertain": scan.uncertain_indices,
            "scores": {
                str(index): score
                for index, score in sorted(scan.scores.items())
            },
            "predicted": {
                str(index): values
                for index, values in sorted(scan.predicted.items())
            },
            "verify": verify,
            "scanned_points": scan.scanned_points,
            "dropped_non_finite": scan.dropped_non_finite,
            "seconds": {
                "fit": fit_seconds,
                "predict": predict_seconds,
            },
        },
    )
    _LOG.info(
        "plan", job=job.job_id, bound=round(bound, 6),
        front=len(scan.front_indices), verify=len(verify),
        scanned=scan.scanned_points,
        dropped=scan.dropped_non_finite,
    )


def run_surrogate_job(
    job: SweepJob, should_stop: Callable[[], bool]
) -> bool:
    """Run a surrogate job's missing phase work; True when none is left.

    :func:`repro.explore.engine.run_job` owns the job's state
    transitions around this.
    """
    with span("surrogate.job"):
        annotate(
            "surrogate", job=job.job_id, points=job.total_points
        )
        with span("surrogate.train"):
            before = len(job.phase_rows("train"))
            trained = _run_phase_chunks(
                job, "train", train_plan(job), should_stop
            )
            _metric_train().inc(
                len(job.phase_rows("train")) - before
            )
        if trained and not should_stop():
            if job.phase_data("plan") is None:
                _build_plan(job)
            with span("surrogate.verify"):
                before = len(job.phase_rows("verify"))
                _run_phase_chunks(
                    job, "verify", verify_plan(job), should_stop
                )
                _metric_verify().inc(
                    len(job.phase_rows("verify")) - before
                )
    return not surrogate_pending(job)


def surrogate_result_rows(job: SweepJob) -> List[dict]:
    """Assemble the final exact + predicted row set (raises while any
    phase is incomplete)."""
    from ..errors import JobError

    if surrogate_pending(job):
        raise JobError(
            f"job {job.job_id!r} is incomplete: surrogate phases "
            f"pending ({job.done_points} exact points so far)"
        )
    plan = job.phase_data("plan")
    exact_rows: Dict[int, dict] = {}
    exact_rows.update(job.phase_rows("train"))
    exact_rows.update(job.phase_rows("verify"))
    predicted = {
        int(index): {str(k): float(v) for k, v in values.items()}
        for index, values in plan["predicted"].items()
    }
    return assemble_rows(
        job.space,
        exact_rows,
        predicted,
        [int(i) for i in plan["front"]],
        [int(i) for i in plan["uncertain"]],
    )


def surrogate_report(job: SweepJob) -> SurrogateReport:
    """Build the run's report from the checkpointed phases."""
    plan = job.phase_data("plan") or {}
    config = dict(job.surrogate or {})
    report = SurrogateReport(config=config)
    report.total_points = job.total_points
    train_rows = job.phase_rows("train")
    report.train_points = len(train_rows)
    report.usable_train_points = sum(
        1 for row in train_rows.values() if not row.get("error")
    )
    report.predicted_points = int(plan.get("scanned_points", 0))
    report.dropped_non_finite = int(plan.get("dropped_non_finite", 0))
    report.error_bound = float(plan.get("error_bound", 0.0))
    if plan.get("fits"):
        report.fit_summary(
            {
                name: SurrogateFit.from_payload(payload)
                for name, payload in plan["fits"].items()
            }
        )
    front = [int(i) for i in plan.get("front", [])]
    report.front_size = len(front)
    report.band_size = len(plan.get("uncertain", []))
    verify_rows = job.phase_rows("verify")
    report.verified_points = len(verify_rows)
    report.verify_failures = sum(
        1 for row in verify_rows.values() if row.get("error")
    )
    exact = set(train_rows) | set(verify_rows)
    report.unverified_front = sum(
        1 for index in front if index not in exact
    )
    objective_names = job.objective_names
    predicted = {
        int(index): values
        for index, values in plan.get("predicted", {}).items()
    }
    report.observed_rel = observed_errors(
        verify_rows, predicted, objective_names
    )
    report.observed_max_rel = max(
        report.observed_rel.values(), default=0.0
    )
    seconds = dict(plan.get("seconds", {}))
    seconds["train"] = sum(
        chunk["seconds"] for chunk in job.phase_chunks("train").values()
    )
    seconds["verify"] = sum(
        chunk["seconds"] for chunk in job.phase_chunks("verify").values()
    )
    report.seconds = {k: float(v) for k, v in sorted(seconds.items())}
    return report
