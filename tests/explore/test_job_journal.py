"""Job chunks go to the journal: append, fold, replay, crash, quarantine.

A finished chunk appends one record to its job's journal; every other
save writes the snapshot, which folds the journal.  Loading replays the
records after the snapshot.  Checked on both backends, pruned and not:
a job killed with SIGKILL mid-run resumes to the bytes an uninterrupted
run exports, a damaged record quarantines the snapshot and its journal
together, and a record torn mid-append is dropped.  Checkpoints written
by the previous layout (every row in the snapshot, no journal, and the
retired surrogate engine's phases) keep loading.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.designs.infopad import build_infopad
from repro.errors import JobError
from repro.explore import (
    Axis,
    DerivedObjective,
    JobStore,
    ParameterSpace,
    export_json,
    pareto_rows,
    run_sweep,
)
from repro.explore.engine import run_chunks, run_job
from repro.explore.jobs import SURROGATE_RETIRED
from repro.explore.space import CoupledParam
from repro.state import BACKEND_KINDS, open_backend
from repro.web.app import Application

ROOT = Path(__file__).resolve().parents[2]
CHECKPOINTS = Path(__file__).with_name("checkpoints")
BITS = "custom_hardware.luminance_chip.read_bank.bits"
WRITE_BITS = "custom_hardware.luminance_chip.write_bank.bits"
ACCESS_TIME = DerivedObjective(
    "access_time", "2e-8 * (VDD2 / 1.5) / ((VDD2 - 0.7) ^ 1.3)"
)
USER = "lidsky"


def make_space(supplies=40):
    """InfoPad VDD2 x bw; the coupled write bank fails at bw = 8, one
    point in three."""
    return ParameterSpace(
        [Axis("VDD2", tuple(1.2 + 0.05 * i for i in range(supplies))),
         Axis("bw", (8.0, 12.0, 16.0), target=BITS)],
        [CoupledParam(WRITE_BITS, "96 / (bw - 8)")],
    )


def exported(rows, job):
    return export_json(rows, job.space.axis_names, job.objective_names)


def sweep_bytes(job):
    """The export of an uninterrupted in-memory run of the job's sweep."""
    outcome = run_sweep(job.design(), job.space, objectives=job.objectives,
                        derived=job.derived, chunk_size=job.chunk_size,
                        prune=job.prune)
    return exported(outcome.rows, job)


@pytest.fixture(params=BACKEND_KINDS)
def kind(request):
    return request.param


@pytest.mark.parametrize("prune", [False, True])
def test_chunks_append_and_state_changes_fold(kind, prune, tmp_path):
    store = JobStore(tmp_path, backend=kind)
    job = store.create(build_infopad(), make_space(), derived=(ACCESS_TIME,),
                       chunk_size=8, prune=prune)
    job.set_state("running")
    snapshot = store.backend.load("jobs", job.job_id)
    seen = []
    run_chunks(job.design(), job.space, job.pending_chunks()[:2],
               derived=job.derived, prune=prune,
               on_chunk=lambda *chunk: (job.record_chunk(*chunk),
                                        seen.append(chunk)))
    # the snapshot is untouched; each chunk is one compact record
    assert store.backend.load("jobs", job.job_id) == snapshot
    records = [json.loads(line)
               for line in store.backend.journal("jobs", job.job_id)]
    assert [(r["start"], r["stop"], r["rows"], r["failed"]) for r in records] \
        == [(start, stop, rows, failed)
            for start, stop, rows, _seconds, failed in seen]
    assert [r["failed"] for r in records] == [3, 3]

    revived = JobStore(tmp_path, backend=kind).job(job.job_id)
    assert revived.done_points == 16 and revived.failed_points == 6

    job.set_state("cancelled")
    assert store.backend.journal("jobs", job.job_id) == []
    folded = JobStore(tmp_path, backend=kind).job(job.job_id)
    assert folded.done_points == 16 and folded.failed_points == 6
    assert folded.to_payload() == revived.to_payload() | {"state": "cancelled"}


@pytest.mark.parametrize("mode, workers", [("serial", 1), ("process", 2)])
@pytest.mark.parametrize("chunk_size", [7, 16])
def test_pruned_job_rows_equal_pareto_rows_over_all_rows(kind, mode, workers,
                                                         chunk_size, tmp_path):
    job = JobStore(tmp_path, backend=kind).create(
        build_infopad(), make_space(), derived=(ACCESS_TIME,),
        chunk_size=chunk_size, mode=mode, workers=workers, prune=True)
    run_job(job)
    revived = JobStore(tmp_path, backend=kind).job(job.job_id)
    full = run_sweep(build_infopad(), make_space(), derived=(ACCESS_TIME,))
    expected = pareto_rows(full.rows, full.objective_names)
    assert job.result_rows() == revived.result_rows() == expected


def test_pruned_job_keeps_only_its_front(tmp_path):
    job = JobStore(tmp_path).create(build_infopad(), make_space(),
                                    derived=(ACCESS_TIME,), chunk_size=8,
                                    prune=True)
    run_job(job)
    assert job.state == "done"
    assert all(chunk["rows"] == [] for chunk in job.chunks.values())
    assert job.done_points == job.total_points == 120
    assert job.failed_points == 40
    # the snapshot holds the front, each row in the chunk it came from
    chunks = json.loads((tmp_path / f"{job.job_id}.json").read_text())["chunks"]
    held = [row for _start, chunk in sorted(
        (int(start), chunk) for start, chunk in chunks.items())
        for row in chunk["rows"]]
    assert held == job.result_rows()
    assert exported(job.result_rows(), job) == sweep_bytes(job)


_CRASH_RUNNER = """
import sys
from pathlib import Path
from repro.explore import JobStore
from repro.explore.engine import run_job

run_job(JobStore(Path(sys.argv[2]), backend=sys.argv[1]).job(sys.argv[3]))
"""


@pytest.mark.slow
@pytest.mark.parametrize("prune", [False, True])
def test_sigkill_mid_run_resumes_byte_identical(kind, prune, tmp_path):
    root = tmp_path / "state"
    job = JobStore(root, backend=kind).create(
        build_infopad(), make_space(supplies=600), derived=(ACCESS_TIME,),
        chunk_size=6, prune=prune)
    probe = open_backend(kind, root)
    process = subprocess.Popen(
        [sys.executable, "-c", _CRASH_RUNNER, kind, str(root), job.job_id],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    try:
        deadline = time.monotonic() + 60
        while (len(probe.journal("jobs", job.job_id)) < 2
               and process.poll() is None and time.monotonic() < deadline):
            time.sleep(0.002)
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        probe.close()

    revived = JobStore(root, backend=kind).job(job.job_id)
    assert revived.state == "running"  # killed, never marked
    assert 0 < revived.done_points < revived.total_points
    run_job(revived)
    assert revived.state == "done"
    resumed = exported(revived.result_rows(), revived)

    uninterrupted = JobStore(tmp_path / "clean", backend=kind).create(
        build_infopad(), make_space(supplies=600), derived=(ACCESS_TIME,),
        chunk_size=6, prune=prune)
    run_job(uninterrupted)
    assert resumed == exported(uninterrupted.result_rows(), uninterrupted)
    assert resumed == sweep_bytes(revived)


def load_checkpoint(kind, root, name, job_id="job-0001"):
    """A checkpoint the previous layout wrote (every row in the
    snapshot, no journal), stored as that backend's document."""
    backend = open_backend(kind, root)
    backend.save("jobs", job_id, (CHECKPOINTS / name).read_text())
    return JobStore(root, backend=backend)


def test_old_checkpoint_loads_and_exports_identically(kind, tmp_path):
    text = (CHECKPOINTS / "exact-done.json").read_text()
    job = load_checkpoint(kind, tmp_path, "exact-done.json").job("job-0001")
    assert job.state == "done" and not job.prune
    chunks = json.loads(text)["chunks"]
    saved = [row for _start, chunk in sorted(
        (int(start), chunk) for start, chunk in chunks.items())
        for row in chunk["rows"]]
    assert job.result_rows() == saved
    assert job.failed_points == sum(1 for row in saved if row["error"]) == 6
    assert exported(job.result_rows(), job) == sweep_bytes(job)


def test_old_pruned_checkpoint_resumes_identically(kind, tmp_path):
    store = load_checkpoint(kind, tmp_path, "pruned-cancelled.json")
    job = store.job("job-0001")
    assert job.state == "cancelled" and job.prune
    assert job.done_points == 4 and job.failed_points == 2
    run_job(job)
    assert job.state == "done"
    revived = JobStore(tmp_path, backend=kind).job("job-0001")
    assert exported(revived.result_rows(), revived) == sweep_bytes(revived)


@pytest.mark.parametrize("damage", [
    "{not json",
    '{"start": 3, "stop": 11, "rows": [], "seconds": 0.0, "failed": 0}',
    '{"start": 0, "stop": 8, "rows": [], "seconds": 0.0, "failed": 0}',
    '{"start": 1024, "stop": 120, "rows": [], "seconds": 0.0, "failed": 0}',
    '{"start": 8, "stop": 16, "rows": [{"index": 8}], "seconds": 0.0, '
    '"failed": 0}',
    '{"start": 8, "stop": 16, "rows": [{"index": 99, "values": {}, '
    '"objectives": {}, "error": ""}], "seconds": 0.0, "failed": 0}',
    '{"start": 8, "stop": 16, "seconds": 0.0}',
    '["start", 8]',
])
def test_damaged_record_quarantines_snapshot_and_journal(kind, damage,
                                                         tmp_path):
    store = JobStore(tmp_path, backend=kind)
    job = store.create(build_infopad(), make_space(), derived=(ACCESS_TIME,),
                       chunk_size=8)
    job.set_state("running")
    run_chunks(job.design(), job.space, job.pending_chunks()[:1],
               derived=job.derived, on_chunk=job.record_chunk)
    store.backend.append("jobs", job.job_id, damage)

    fresh = JobStore(tmp_path, backend=kind)
    with pytest.raises(JobError, match="corrupt"):
        fresh.job(job.job_id)
    assert fresh.backend.load("jobs", job.job_id) is None
    assert fresh.backend.journal("jobs", job.job_id) == []
    assert [entry[0] for entry in fresh.quarantined] == [job.job_id]
    assert fresh.list_jobs() == []


def test_torn_tail_is_dropped(tmp_path):
    store = JobStore(tmp_path)
    job = store.create(build_infopad(), make_space(), derived=(ACCESS_TIME,),
                       chunk_size=8)
    job.set_state("running")
    run_chunks(job.design(), job.space, job.pending_chunks()[:2],
               derived=job.derived, on_chunk=job.record_chunk)
    journal = tmp_path / f"{job.job_id}.journal"
    with journal.open("ab") as handle:
        handle.write(b'{"failed": 3, "rows": [{"index": 16, "er')

    fresh = JobStore(tmp_path)
    revived = fresh.job(job.job_id)
    assert sorted(revived.chunks) == [0, 8]
    assert fresh.quarantined == []
    run_job(revived)
    assert revived.state == "done"
    again = JobStore(tmp_path).job(job.job_id)
    assert exported(again.result_rows(), again) == sweep_bytes(again)


class TestSurrogateCheckpoint:
    """A checkpoint of the retired surrogate engine: its 1,000,809-point
    space (saved with ``lazy``) and its training phase, cut to two rows."""

    @pytest.fixture
    def state(self, tmp_path):
        jobs = tmp_path / "state" / "jobs"
        jobs.mkdir(parents=True)
        shutil.copy(CHECKPOINTS / "surrogate-1m.json", jobs / "job-0001.json")
        return tmp_path / "state"

    def test_loads_failed_with_the_rerun_message(self, kind, tmp_path):
        store = load_checkpoint(kind, tmp_path, "surrogate-1m.json")
        [job] = store.list_jobs()
        assert (job.state, job.error) == ("failed", SURROGATE_RETIRED)
        assert "pruned exact sweep" in job.error
        assert job.total_points == 1_000_809 and job.done_points == 0
        assert store.quarantined == []
        with pytest.raises(JobError, match="only a cancelled"):
            run_job(job)
        with pytest.raises(JobError, match="incomplete"):
            job.result_rows()
        # loading rewrote nothing
        assert store.backend.load("jobs", "job-0001") == \
            (CHECKPOINTS / "surrogate-1m.json").read_text()

    def test_cli_lists_it_and_refuses_to_resume(self, state, capsys):
        assert main(["jobs", "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "job-0001" in out and "failed" in out
        assert "pruned exact sweep" in out
        code = main(["sweep", "infopad", "--resume", "job-0001",
                     "--state", str(state)])
        err = capsys.readouterr().err
        assert code != 0 and "is failed" in err
        assert not list((state / "jobs").glob("*.corrupt*"))

    def test_web_lists_it_and_answers_4xx(self, state):
        app = Application(state)
        assert app.handle("POST", "/login", {"user": USER}).status == 303
        listing = app.handle("GET", f"/sweep?user={USER}")
        assert listing.status == 200 and "job-0001" in listing.body
        status = app.handle("GET", f"/sweep/job?user={USER}&job=job-0001")
        assert status.status == 200 and "pruned exact sweep" in status.body
        for fmt in ("", "&fmt=csv", "&fmt=json"):
            result = app.handle(
                "GET", f"/sweep/result?user={USER}&job=job-0001{fmt}")
            assert 400 <= result.status < 500
        assert app.jobs.quarantined == []
