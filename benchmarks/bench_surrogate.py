"""Surrogate sweeps: a million-point exploration for the cost of 1%.

The exact engine pays one estimator pass per point, so a million-point
InfoPad sweep costs minutes; the fit-predict-verify surrogate
(``repro sweep --surrogate``) exact-evaluates a seeded 1% sample, fits
per-objective least-squares models, predicts the rest as vectorized
matrix products, and re-verifies the predicted Pareto frontier with the
real estimator.

Three deterministic gates over a 1,000,809-point space
(VDD2 x VDD1 x bit-width, with a derived access-time objective):

* the surrogate run is at least **10x** faster than the exact engine's
  extrapolated cost, with a fitted holdout error bound within the 10%
  ``--max-error`` budget;  that baseline times per-point
  ``BatchEvaluator.evaluate`` calls, and the record also holds what the
  engine itself (``run_chunks``, columnar chunks) costs on the same points;
* every verified frontier row is **bit-identical** to a fresh exact
  estimator evaluation;
* a job killed mid-training and resumed from its checkpoint exports
  the byte-identical JSON an uninterrupted run produces.

Results land in ``bench_surrogate.json`` (the CI artifact).
"""

import gc
import json
import time
from pathlib import Path

import pytest
from conftest import banner

from repro.designs.infopad import build_infopad
from repro.explore import (
    Axis,
    DerivedObjective,
    JobStore,
    ParameterSpace,
    export_json,
    parse_axis_spec,
)
from repro.explore.batcheval import BatchEvaluator
from repro.explore.engine import run_chunks, run_job
from repro.explore.jobs import SweepJob
from repro.surrogate import surrogate_report

ARTIFACT = Path(__file__).with_name("bench_surrogate.json")

BITS_TARGET = "custom_hardware.luminance_chip.read_bank.bits"
#: 1101 supplies x 101 memory rails x 9 widths = 1,000,809 points
AXIS_SPECS = ("VDD2=1.1:3.3:0.002", "VDD1=0.9:1.8:0.009")
BITS_VALUES = tuple(float(b) for b in range(8, 17))

#: the paper's access-time story as a derived objective: higher VDD2
#: closes the bit lines faster (InfoPad has no timing models, so the
#: trade-off axis comes from the classic alpha-power delay form)
ACCESS_TIME = DerivedObjective(
    "access_time", "2e-8 * (VDD2 / 1.5) / ((VDD2 - 0.7) ^ 1.3)"
)

SURROGATE = {
    "train_frac": 0.01,
    "train_seed": 1996,
    "verify_top": 64,
    "max_error": 0.10,  # the 10% bound is enforced, not just reported
}

EXACT_SAMPLE = 2000  # points timed to extrapolate the exact engine


def make_space() -> ParameterSpace:
    return ParameterSpace(
        [
            parse_axis_spec(AXIS_SPECS[0]),
            parse_axis_spec(AXIS_SPECS[1]),
            Axis("bits", BITS_VALUES, target=BITS_TARGET),
        ],
        point_cap=2_000_000,
        lazy=True,
    )


def make_job(job_id="job-0000", store=None) -> SweepJob:
    if store is not None:
        return store.create(
            build_infopad(), make_space(), objectives=("power",),
            derived=(ACCESS_TIME,), chunk_size=2048,
            surrogate=SURROGATE,
        )
    return SweepJob(
        job_id, "bench", build_infopad(), make_space(),
        objectives=("power",), derived=(ACCESS_TIME,),
        chunk_size=2048, surrogate=SURROGATE,
    )


def _record(update: dict) -> None:
    payload = {}
    if ARTIFACT.exists():
        payload = json.loads(ARTIFACT.read_text())
    payload.update(update)
    ARTIFACT.write_text(json.dumps(payload, indent=1, sort_keys=True))


@pytest.fixture(scope="module")
def full_run():
    """One uninterrupted surrogate run over the full space, timed."""
    job = make_job()
    started = time.perf_counter()
    run_job(job)
    seconds = time.perf_counter() - started
    assert job.state == "done"
    return job, seconds


def test_ten_x_speedup_within_error_budget(full_run):
    job, surrogate_s = full_run
    report = surrogate_report(job)

    # exact-engine baseline: time a spread of real evaluations and
    # extrapolate — actually running a million would take minutes,
    # which is the point
    space = job.space
    stride = len(space) // EXACT_SAMPLE
    evaluator = BatchEvaluator(build_infopad(), ("power",))
    started = time.perf_counter()
    for index in range(0, stride * EXACT_SAMPLE, stride):
        evaluator.evaluate(space.point(index)["overrides"])
    sample_s = time.perf_counter() - started
    per_point_s = sample_s / EXACT_SAMPLE
    exact_extrapolated_s = per_point_s * len(space)
    speedup = exact_extrapolated_s / surrogate_s

    # the same points through the engine, chunked as the job chunks;
    # collect the surrogate run's garbage first, or its full collection
    # lands in this timing and can outweigh the 2,000 points themselves
    indices = list(range(0, stride * EXACT_SAMPLE, stride))
    chunks = [(key, indices[start:start + job.chunk_size])
              for key, start in enumerate(range(0, EXACT_SAMPLE, job.chunk_size))]
    gc.collect()
    started = time.perf_counter()
    _records, engine = run_chunks(build_infopad(), space, chunks,
                                  objectives=("power",), derived=(ACCESS_TIME,))
    engine_per_point_s = (time.perf_counter() - started) / EXACT_SAMPLE
    engine_extrapolated_s = engine_per_point_s * len(space)

    banner(
        "Surrogate engine — 1M-point InfoPad sweep",
        "exact-train 1%, predict the rest, verify the frontier",
    )
    print(f"{len(space)} points: exact engine ~{exact_extrapolated_s:.1f} s "
          f"(extrapolated from {EXACT_SAMPLE} points at "
          f"{per_point_s * 1e6:.0f} us), surrogate {surrogate_s:.1f} s "
          f"-> {speedup:.1f}x")
    print(f"exact engine (run_chunks, chunk {job.chunk_size}, "
          f"{engine.columnar}/{engine.points} columnar): "
          f"{engine_per_point_s * 1e6:.1f} us/point -> "
          f"~{engine_extrapolated_s:.1f} s for the space")
    print(f"trained {report.train_points}, predicted "
          f"{report.predicted_points}, verified {report.verified_points} "
          f"(front {report.front_size})")
    print(f"error bound {report.error_bound:.3%} (holdout) vs budget "
          f"{SURROGATE['max_error']:.0%}; observed "
          f"{report.observed_max_rel:.3%} on verified rows")
    _record(
        {
            "points": len(space),
            "train_points": report.train_points,
            "verified_points": report.verified_points,
            "front_size": report.front_size,
            "surrogate_s": surrogate_s,
            "exact_per_point_s": per_point_s,
            "exact_extrapolated_s": exact_extrapolated_s,
            "exact_engine_per_point_s": engine_per_point_s,
            "exact_engine_extrapolated_s": engine_extrapolated_s,
            "speedup": speedup,
            "error_bound": report.error_bound,
            "observed_max_rel": report.observed_max_rel,
        }
    )
    assert report.error_bound <= SURROGATE["max_error"]
    assert speedup >= 10.0, f"only {speedup:.1f}x over the exact engine"


def test_verified_frontier_bit_identical_to_exact(full_run):
    job, _seconds = full_run
    rows = job.result_rows()
    front = {
        row["index"]: row for row in rows
        if row["source"] == "exact" and "predicted" in row
    }
    assert front, "no verified predicted rows to check"
    evaluator = BatchEvaluator(build_infopad(), ("power",))
    mismatches = 0
    for row in front.values():
        exact = evaluator.evaluate(row["overrides"])
        if row["objectives"]["power"] != exact["power"]:
            mismatches += 1
    banner(
        "Surrogate engine — verified rows vs the exact estimator",
        "a verified row is a measurement, not a prediction",
    )
    print(f"{len(front)} verified rows re-evaluated: "
          f"{mismatches} mismatches")
    _record(
        {
            "reverified_rows": len(front),
            "verified_bit_identical": mismatches == 0,
        }
    )
    assert mismatches == 0


def test_kill_and_resume_is_byte_identical(full_run, tmp_path):
    job, _seconds = full_run
    expected = export_json(
        job.result_rows(), job.space.axis_names, job.objective_names
    )

    store = JobStore(tmp_path)
    interrupted = make_job(store=store)
    checkpoints = {"n": 0}
    original = interrupted.record_phase_chunk

    def counting(phase, ordinal, indices, rows, seconds):
        original(phase, ordinal, indices, rows, seconds)
        checkpoints["n"] += 1

    interrupted.record_phase_chunk = counting
    run_job(interrupted, should_stop=lambda: checkpoints["n"] >= 2)
    interrupted.record_phase_chunk = original
    assert interrupted.state == "cancelled"
    assert 0 < interrupted.done_points < interrupted.total_points

    revived = JobStore(tmp_path).job(interrupted.job_id)  # fresh process
    run_job(revived)
    assert revived.state == "done"
    resumed = export_json(
        revived.result_rows(), revived.space.axis_names,
        revived.objective_names,
    )

    banner(
        "Surrogate engine — checkpoint / resume equivalence",
        "kill mid-training; the resumed export must not wobble",
    )
    identical = resumed == expected
    print(f"killed after {interrupted.done_points} exact points: resumed "
          f"export {'==' if identical else '!='} uninterrupted "
          f"({len(resumed)} bytes)")
    _record({"resume_byte_identical": identical})
    assert identical
