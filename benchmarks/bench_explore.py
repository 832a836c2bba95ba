"""The exploration engine vs the paper's one-PLAY-at-a-time loop.

The 1996 methodology varies "parameters such as bit-widths and supply
voltages" by hand, one spreadsheet edit per point.  ``grid_search``
automates the loop but still pays a full estimator pass per point;
:mod:`repro.explore` compiles the design once into a plan whose
overrides mark rows dirty, so an InfoPad voltage x bit-width sweep
re-computes only the rows each step actually disturbs.

Two deterministic gates:

* the serial engine sweep is at least 3x faster than the serial
  ``grid_search`` baseline, with bit-identical powers at every point;
* a job killed half-way and resumed from its checkpoint exports the
  byte-identical JSON an uninterrupted run produces.

Results land in ``bench_explore.json`` (the CI artifact).
"""

import json
import time
from pathlib import Path

from conftest import banner

from repro.core.optimize import grid_search
from repro.designs.infopad import build_infopad
from repro.explore import (
    Axis,
    JobStore,
    ParameterSpace,
    export_json,
    parse_axis_spec,
    run_sweep,
)
from repro.explore.engine import run_job

ARTIFACT = Path(__file__).with_name("bench_explore.json")

BITS_TARGET = "custom_hardware.luminance_chip.read_bank.bits"
BITS_VALUES = (8.0, 10.0, 12.0, 14.0, 16.0)
VDD2_SPEC = "VDD2=1.1:3.3:0.05"  # 45 supplies x 5 widths = 225 points


def make_space() -> ParameterSpace:
    return ParameterSpace(
        [
            parse_axis_spec(VDD2_SPEC),
            Axis("bw", BITS_VALUES, target=BITS_TARGET),
        ]
    )


def _record(update: dict) -> None:
    payload = {}
    if ARTIFACT.exists():
        payload = json.loads(ARTIFACT.read_text())
    payload.update(update)
    ARTIFACT.write_text(json.dumps(payload, indent=1, sort_keys=True))


def test_engine_beats_serial_grid_search():
    design = build_infopad()
    bank = (
        design.row("custom_hardware").design
        .row("luminance_chip").design
        .row("read_bank")
    )
    vdd2_axis = parse_axis_spec(VDD2_SPEC)

    # serial baseline: grid_search per bit-width, exactly the loop a
    # designer would script around the PLAY button
    started = time.perf_counter()
    baseline = {}
    nominal_bits = bank.scope.raw("bits")
    try:
        for bits in BITS_VALUES:
            bank.scope.set("bits", bits)
            for point in grid_search(
                design, {"VDD2": list(vdd2_axis.values)}
            ):
                baseline[(bits, point.parameters["VDD2"])] = point.power
    finally:
        bank.scope.set("bits", nominal_bits)
    serial_s = time.perf_counter() - started

    # the engine: compiled once, dirty rows only, serial
    started = time.perf_counter()
    outcome = run_sweep(build_infopad(), make_space(), chunk_size=64)
    engine_s = time.perf_counter() - started

    assert len(outcome.rows) == len(baseline) == 225
    for row in outcome.rows:
        key = (row["values"]["bw"], row["values"]["VDD2"])
        assert row["objectives"]["power"] == baseline[key]  # bit-identical

    speedup = serial_s / engine_s
    banner(
        "Exploration engine — InfoPad VDD2 x bit-width sweep",
        "'parameters such as bit-widths and supply voltages can be "
        "varied dynamically'",
    )
    print(f"{len(baseline)} points: serial grid_search {serial_s:.3f} s, "
          f"serial engine {engine_s:.3f} s -> {speedup:.2f}x")
    print(f"memo: {outcome.report.hits} hits / {outcome.report.misses} "
          f"misses")
    _record(
        {
            "points": len(baseline),
            "serial_seconds": serial_s,
            "engine_seconds": engine_s,
            "speedup": speedup,
            "memo_hits": outcome.report.hits,
            "memo_misses": outcome.report.misses,
        }
    )
    assert speedup >= 3.0, f"only {speedup:.2f}x over serial grid_search"


def test_kill_and_resume_is_byte_identical(tmp_path):
    space = ParameterSpace(
        [
            parse_axis_spec("VDD2=1.1:3.3:0.4"),
            Axis("bw", (8.0, 12.0, 16.0), target=BITS_TARGET),
        ]
    )
    uninterrupted = run_sweep(build_infopad(), space, chunk_size=4)
    expected = export_json(
        uninterrupted.rows,
        uninterrupted.axis_names,
        uninterrupted.objective_names,
    )

    store = JobStore(tmp_path)
    job = store.create(build_infopad(), space, chunk_size=4)
    run_job(job, should_stop=lambda: len(job.chunks) >= 2)  # the "kill"
    assert job.state == "cancelled"
    assert 0 < job.done_points < job.total_points

    revived = JobStore(tmp_path).job(job.job_id)  # a fresh process
    run_job(revived)
    assert revived.state == "done"
    resumed = export_json(
        revived.result_rows(),
        revived.space.axis_names,
        revived.objective_names,
    )

    banner(
        "Exploration engine — checkpoint / resume equivalence",
        "sweep results must not depend on whether the job survived",
    )
    identical = resumed == expected
    print(f"{job.total_points} points, killed after {job.done_points}: "
          f"resumed export {'==' if identical else '!='} uninterrupted")
    _record({"resume_byte_identical": identical})
    assert identical
