"""Sweep jobs: atomic checkpoints, resume, quarantine, lifecycle."""

import json

import pytest

from repro.core.design import Design
from repro.core.expressions import compile_expression as E
from repro.core.model import CapacitiveTerm, TemplatePowerModel
from repro.core.parameters import Parameter
from repro.errors import JobError
from repro.explore import (
    Axis,
    DerivedObjective,
    JobStore,
    ParameterSpace,
    coupled_from_spec,
    export_csv,
    export_json,
    run_sweep,
    validate_job_id,
)
from repro.explore.engine import run_job

ADDER = TemplatePowerModel(
    "adder",
    capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
    parameters=(Parameter("bitwidth", 16),),
)


def make_design():
    design = Design("d")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 2e6)
    design.add("alu", ADDER)
    return design


def make_space(points=6):
    return ParameterSpace([Axis("VDD", tuple(1.0 + 0.1 * i
                                             for i in range(points)))])


class TestJobIds:
    def test_valid(self):
        assert validate_job_id("job-0001") == "job-0001"

    @pytest.mark.parametrize(
        "bad",
        ["job-1", "job-0001\n", "../etc", "job-abcd", "", "JOB-0001"],
    )
    def test_invalid(self, bad):
        with pytest.raises(JobError):
            validate_job_id(bad)


class TestStore:
    def test_create_persists_pending(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space(), chunk_size=2)
        assert job.state == "pending"
        assert (tmp_path / f"{job.job_id}.json").exists()
        assert store.job_ids() == [job.job_id]

    def test_ids_are_sequential(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create(make_design(), make_space())
        second = store.create(make_design(), make_space())
        assert [first.job_id, second.job_id] == ["job-0001", "job-0002"]

    def test_reload_from_disk_round_trips(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(
            make_design(), make_space(), owner="alice",
            workers=3, mode="process", chunk_size=2, prune=True,
        )
        job.record_chunk(0, 2, [{"index": 0, "values": {"VDD": 1.0},
                                 "objectives": {"power": 1.0}, "error": ""}],
                         0.5, 1)
        # a fresh store simulates a process that crashed and restarted
        revived = JobStore(tmp_path).job(job.job_id)
        assert revived.owner == "alice"
        assert revived.mode == "process"
        assert revived.done_points == 2
        assert revived.failed_points == 1
        assert revived.pending_chunks() == [(2, 4), (4, 6)]

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space())
        path = tmp_path / f"{job.job_id}.json"
        path.write_text('{"format": "powerplay-job/1", "truncated')
        fresh = JobStore(tmp_path)
        with pytest.raises(JobError, match="corrupt"):
            fresh.job(job.job_id)
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        assert fresh.quarantined

    def test_saved_coupling_reading_a_non_axis_name_still_loads(self, tmp_path):
        # a coupled expression may read a name that is no axis in a
        # branch no point takes; a checkpoint holding one loads and runs
        # as it was saved instead of being quarantined
        def space(source):
            return ParameterSpace(
                [Axis("VDD", (1.0, 1.2, 1.5))],
                [coupled_from_spec(f"alu.bitwidth={source}")],
            )

        job = JobStore(tmp_path).create(
            make_design(), space("VDD > 0 ? 8 : 16"), chunk_size=2
        )
        path = tmp_path / f"{job.job_id}.json"
        payload = json.loads(path.read_text())
        payload["space"]["coupled"][0]["source"] = "VDD > 0 ? 8 : typo"
        path.write_text(json.dumps(payload))
        assert [listed.job_id for listed in JobStore(tmp_path).list_jobs()] == [
            job.job_id]
        fresh = JobStore(tmp_path)
        revived = fresh.job(job.job_id)
        assert not fresh.quarantined
        assert revived.space.coupled[0].source == "VDD > 0 ? 8 : typo"
        run_job(revived)
        assert revived.state == "done"
        expected = run_sweep(make_design(), space("8"), chunk_size=2).rows
        assert [row["objectives"] for row in revived.result_rows()] == [
            row["objectives"] for row in expected]
        assert all(not row["error"] for row in revived.result_rows())

    def test_no_stray_temp_files_after_saves(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space(), chunk_size=2)
        for start, stop in job.pending_chunks():
            job.record_chunk(start, stop, [{"index": i}
                                           for i in range(start, stop)], 0.0, 0)
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".saving"]
        assert leftovers == []

    def test_checkpoint_is_valid_json_after_every_save(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space(), chunk_size=2)
        path = tmp_path / f"{job.job_id}.json"
        for start, stop in job.pending_chunks():
            job.record_chunk(start, stop, [{"index": i}
                                           for i in range(start, stop)], 0.0, 0)
            payload = json.loads(path.read_text())  # never torn
            assert payload["format"] == "powerplay-job/1"


class TestLifecycle:
    def test_terminal_states_cannot_rerun(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        job.set_state("running")
        job.set_state("done")
        with pytest.raises(JobError, match="only a"):
            job.set_state("running")

    def test_cancelled_jobs_can_resume(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        job.set_state("running")
        job.set_state("cancelled")
        job.set_state("running")  # allowed: resume
        assert job.cancel_requested is False

    def test_cancel_after_finish_rejected(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        job.set_state("done")
        with pytest.raises(JobError, match="already finished"):
            job.request_cancel()

    def test_result_rows_incomplete_raises(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        with pytest.raises(JobError, match="incomplete"):
            job.result_rows()

    def test_thread_mode_refused(self, tmp_path):
        from repro.explore import SweepJob

        with pytest.raises(JobError, match="serial or process"):
            SweepJob("job-0001", "", make_design(), make_space(),
                     mode="thread")
        store = JobStore(tmp_path)
        with pytest.raises(JobError, match="serial or process"):
            store.create(make_design(), make_space(), mode="thread")
        assert store.job_ids() == []

    def test_unknown_state_rejected(self, tmp_path):
        job = JobStore(tmp_path).create(make_design(), make_space())
        with pytest.raises(JobError, match="unknown job state"):
            job.set_state("paused")

    def test_run_job_reaches_done(self, tmp_path):
        job = JobStore(tmp_path).create(
            make_design(), make_space(), chunk_size=2
        )
        run_job(job)
        assert job.state == "done"
        assert job.done_points == job.total_points
        rows = job.result_rows()
        assert [row["index"] for row in rows] == list(range(6))
        assert all(row["objectives"]["power"] > 0 for row in rows)

    def test_run_job_honors_cancel_request(self, tmp_path):
        job = JobStore(tmp_path).create(
            make_design(), make_space(), chunk_size=1
        )
        calls = {"n": 0}

        def stop_after_two():
            calls["n"] += 1
            return calls["n"] > 2

        run_job(job, should_stop=stop_after_two)
        assert job.state == "cancelled"
        assert 0 < job.done_points < job.total_points


class TestPrune:
    """``prune`` on a persisted job means what it means in memory."""

    def test_pruned_job_exports_match_run_sweep(self, tmp_path):
        from repro.designs.infopad import build_infopad

        space = ParameterSpace([
            Axis("VDD2", (1.1, 1.5, 2.0, 2.5, 3.3)),
            Axis("bits", (8.0, 12.0, 16.0),
                 target="custom_hardware.luminance_chip.read_bank.bits"),
        ])
        derived = (DerivedObjective(
            "access_time", "2e-8 * (VDD2 / 1.5) / ((VDD2 - 0.7) ^ 1.3)"
        ),)
        outcome = run_sweep(
            build_infopad(), space, derived=derived, chunk_size=4,
            prune=True,
        )
        job = JobStore(tmp_path).create(
            build_infopad(), space, derived=derived, chunk_size=4,
            prune=True,
        )
        run_job(job)
        rows = job.result_rows()
        assert 0 < len(rows) < len(space)
        names = (space.axis_names, job.objective_names)
        assert export_csv(rows, *names) == export_csv(outcome.rows, *names)
        assert export_json(rows, *names) == export_json(
            outcome.rows, *names
        )
