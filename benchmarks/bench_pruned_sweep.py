"""Million-point pruned sweeps: the exact engine streams its Pareto front.

A pruned sweep keeps each chunk's Pareto-optimal rows, picked from the
columns the columnar pass already holds, and folds them into a running
front; it never holds the dominated rows.  So the 1,000,809-point
InfoPad space (VDD2 x VDD1 x bit-width, with a derived access-time
objective) runs exactly, every front row a measurement, in the memory
of its front.

Four gates, each of which a regression can fail:

* **memory** — in a fresh child process, peak RSS after the pruned
  million-point ``run_sweep`` is at most 256 MB (holding every row
  takes over 1 GB);
* **time** — its time per point is at most 0.4x that of an unpruned
  ``run_sweep`` plus ``pareto_rows`` over the 100,899-point sub-space
  (VDD2 step 0.02), run afterwards in the same child (a pruned sweep
  that builds a row dict for every point read 0.71x);
* **exact** — on that sub-space the pruned run's rows equal
  ``pareto_rows`` over the unpruned run's rows, in rows and order;
* **resumable** — a pruned million-point job stopped after 2 chunks
  and resumed from its checkpoint in a fresh store exports the
  byte-identical JSON of the in-memory run, and the persisted run
  takes at most 2x the in-memory run (each chunk journals one record;
  rewriting the whole checkpoint after every chunk read 4.4x).

Results land in ``bench_pruned_sweep.json`` (the CI artifact).
"""

import json
import subprocess
import sys
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
    run_sweep,
)
from repro.explore.engine import run_job

ARTIFACT = Path(__file__).with_name("bench_pruned_sweep.json")
SRC = Path(__file__).resolve().parents[1] / "src"

BITS_TARGET = "custom_hardware.luminance_chip.read_bank.bits"
BITS_VALUES = tuple(float(b) for b in range(8, 17))
#: 1101 supplies x 101 memory rails x 9 widths = 1,000,809 points
VDD2_SPEC = "VDD2=1.1:3.3:0.002"
#: 111 x 101 x 9 = 100,899 points
SUB_VDD2_SPEC = "VDD2=1.1:3.3:0.02"
VDD1_SPEC = "VDD1=0.9:1.8:0.009"
CHUNK = 2048

#: the paper's access-time story as a derived objective: higher VDD2
#: closes the bit lines faster (InfoPad has no timing models, so the
#: trade-off axis comes from the classic alpha-power delay form)
ACCESS_TIME = DerivedObjective(
    "access_time", "2e-8 * (VDD2 / 1.5) / ((VDD2 - 0.7) ^ 1.3)"
)

MAX_RSS_MB = 256
MAX_TIME_RATIO = 0.4
MAX_PERSISTED_RATIO = 2.0


def make_space(vdd2_spec: str = VDD2_SPEC) -> ParameterSpace:
    return ParameterSpace(
        [
            parse_axis_spec(vdd2_spec),
            parse_axis_spec(VDD1_SPEC),
            Axis("bits", BITS_VALUES, target=BITS_TARGET),
        ],
        point_cap=2_000_000,
    )


def sweep(space, prune):
    return run_sweep(build_infopad(), space, derived=(ACCESS_TIME,),
                     chunk_size=CHUNK, prune=prune)


def _record(update: dict) -> None:
    payload = {}
    if ARTIFACT.exists():
        payload = json.loads(ARTIFACT.read_text())
    payload.update(update)
    ARTIFACT.write_text(json.dumps(payload, indent=1, sort_keys=True))


_CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import bench_pruned_sweep as bench
from repro.explore import pareto_rows

space = bench.make_space()
began = time.perf_counter()
outcome = bench.sweep(space, prune=True)
pruned_s = time.perf_counter() - began
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
front = len(outcome.rows)
del outcome

sub = bench.make_space(bench.SUB_VDD2_SPEC)
began = time.perf_counter()
full = bench.sweep(sub, prune=False)
reference = pareto_rows(full.rows, full.objective_names)
reference_s = time.perf_counter() - began
pruned_sub = bench.sweep(sub, prune=True)
print(json.dumps({
    "points": len(space), "front_size": front, "pruned_s": pruned_s,
    "peak_rss_mb": peak_rss_mb, "sub_points": len(sub),
    "sub_reference_s": reference_s, "sub_front_size": len(reference),
    "sub_front_equal": pruned_sub.rows == reference,
}))
"""


@pytest.fixture(scope="module")
def child():
    """The million-point pruned sweep and the sub-space reference, in a
    fresh process so its peak RSS is the sweep's own."""
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC), str(Path(__file__).parent)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout)


def test_memory_time_and_front(child):
    per_point_s = child["pruned_s"] / child["points"]
    reference_per_point_s = child["sub_reference_s"] / child["sub_points"]
    ratio = per_point_s / reference_per_point_s
    banner(
        "Pruned exact sweep — 1M-point InfoPad space",
        "every front row a measurement, in the memory of the front",
    )
    print(f"{child['points']} points: {child['pruned_s']:.2f} s "
          f"({per_point_s * 1e6:.2f} us/point), front {child['front_size']}, "
          f"peak RSS {child['peak_rss_mb']:.0f} MB (gate {MAX_RSS_MB})")
    print(f"unpruned sweep + pareto_rows on {child['sub_points']} points: "
          f"{reference_per_point_s * 1e6:.2f} us/point -> ratio "
          f"{ratio:.3f} (gate {MAX_TIME_RATIO})")
    print(f"sub-space front {child['sub_front_size']} rows, pruned == "
          f"pareto_rows(all rows): {child['sub_front_equal']}")
    _record({
        "points": child["points"],
        "front_size": child["front_size"],
        "pruned_s": child["pruned_s"],
        "pruned_per_point_s": per_point_s,
        "peak_rss_mb": child["peak_rss_mb"],
        "sub_reference_per_point_s": reference_per_point_s,
        "time_ratio": ratio,
        "sub_front_equal": child["sub_front_equal"],
    })
    assert child["peak_rss_mb"] <= MAX_RSS_MB
    assert ratio <= MAX_TIME_RATIO
    assert child["sub_front_equal"]


def test_persisted_job_resumes_byte_identical(tmp_path):
    space = make_space()
    began = time.perf_counter()
    in_memory = sweep(space, prune=True)
    in_memory_s = time.perf_counter() - began
    expected = export_json(in_memory.rows, in_memory.axis_names,
                           in_memory.objective_names)
    del in_memory

    began = time.perf_counter()
    store = JobStore(tmp_path)
    job = store.create(build_infopad(), space, derived=(ACCESS_TIME,),
                       chunk_size=CHUNK, prune=True)
    run_job(job, should_stop=lambda: len(job.chunks) >= 2)
    assert job.state == "cancelled" and job.done_points == 2 * CHUNK
    revived = JobStore(tmp_path).job(job.job_id)  # a fresh process's view
    run_job(revived)
    persisted_s = time.perf_counter() - began
    assert revived.state == "done"
    resumed = export_json(revived.result_rows(), revived.space.axis_names,
                          revived.objective_names)
    identical = resumed == expected
    ratio = persisted_s / in_memory_s

    banner(
        "Pruned exact sweep — persisted job, stopped and resumed",
        "each chunk journals one record; the resumed export must not wobble",
    )
    print(f"in memory {in_memory_s:.2f} s, persisted job (stop after 2 "
          f"chunks, resume) {persisted_s:.2f} s -> {ratio:.2f}x "
          f"(gate {MAX_PERSISTED_RATIO}x); export "
          f"{'==' if identical else '!='} in-memory ({len(resumed)} bytes)")
    _record({
        "in_memory_s": in_memory_s,
        "persisted_s": persisted_s,
        "persisted_ratio": ratio,
        "resume_byte_identical": identical,
    })
    assert identical
    assert ratio <= MAX_PERSISTED_RATIO
