"""The sweep engine: modes agree byte-for-byte, resume is exact."""

import json
import os

import pytest

from repro.core.design import Design
from repro.core.estimator import evaluate_power, scope_overrides
from repro.core.expressions import compile_expression as E
from repro.core.model import CapacitiveTerm, TemplatePowerModel
from repro.core.parameters import Parameter
from repro.explore import (
    Axis,
    DerivedObjective,
    JobStore,
    ParameterSpace,
    export_json,
    run_sweep,
)
from repro.errors import ExploreError
from repro.explore.engine import run_job
from repro.explore.space import CoupledParam

ADDER = TemplatePowerModel(
    "adder",
    capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
    parameters=(Parameter("bitwidth", 16),),
)

RAM = TemplatePowerModel(
    "ram",
    capacitive=[CapacitiveTerm("cells", E("words * bits * 1.2f"))],
    parameters=(Parameter("words", 256), Parameter("bits", 16)),
)


def make_design():
    design = Design("d")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 2e6)
    design.add("alu", ADDER)
    design.add("mem", RAM)
    return design


def make_space():
    return ParameterSpace(
        [
            Axis("VDD", (1.1, 1.5, 2.0, 3.3)),
            Axis("bitwidth", (8.0, 16.0, 32.0)),
        ]
    )


#: derived objectives whose names collide, and with what
COLLISIONS = [
    ((DerivedObjective("power", "VDD * 2"),), "a built-in objective"),
    ((DerivedObjective("delay", "VDD * 2"),), "a built-in objective"),
    ((DerivedObjective("t", "VDD * 2"), DerivedObjective("t", "VDD * 3")),
     "another derived objective"),
    ((DerivedObjective("VDD", "VDD * 2"),), "an axis"),
]


def outcome_bytes(outcome):
    return export_json(
        outcome.rows, outcome.axis_names, outcome.objective_names
    )


class TestSweepCorrectness:
    def test_rows_match_serial_estimator(self):
        design = make_design()
        outcome = run_sweep(design, make_space(), chunk_size=5)
        assert len(outcome.rows) == 12
        for row in outcome.rows:
            with scope_overrides(design.scope, row["overrides"]):
                assert row["objectives"]["power"] == \
                    evaluate_power(design).power

    def test_rows_in_point_order(self):
        outcome = run_sweep(make_design(), make_space(), chunk_size=5)
        assert [row["index"] for row in outcome.rows] == list(range(12))

    def test_derived_objectives_computed(self):
        outcome = run_sweep(
            make_design(),
            make_space(),
            derived=[DerivedObjective("pw_mw", "power * 1000")],
        )
        for row in outcome.rows:
            assert row["objectives"]["pw_mw"] == \
                row["objectives"]["power"] * 1000

    def test_failing_point_recorded_not_raised(self):
        outcome = run_sweep(
            make_design(),
            ParameterSpace([Axis("VDD", (1.0, 2.0, 3.0))]),
            derived=[DerivedObjective("bad", "1.0 / (VDD - 2.0)")],
        )
        errors = [row for row in outcome.rows if row["error"]]
        good = [row for row in outcome.rows if not row["error"]]
        assert len(errors) == 1 and errors[0]["values"]["VDD"] == 2.0
        assert len(good) == 2
        assert outcome.report.errors == 1

    @pytest.mark.parametrize("chunk_size", [1, 64])
    def test_failing_coupled_value_fails_only_its_row(self, chunk_size):
        space = ParameterSpace(
            [Axis("bitwidth", tuple(float(b) for b in range(8, 24)))],
            [CoupledParam("mem.words", "4096 / abs(bitwidth - 12)")],
        )
        outcome = run_sweep(make_design(), space, chunk_size=chunk_size)
        failed = outcome.rows[4]
        assert failed == {
            "index": 4, "values": {"bitwidth": 12.0}, "overrides": {},
            "objectives": {},
            "error": "coupled parameter 'mem.words' = '4096 / abs(bitwidth - 12)'"
                     " failed: division by zero",
        }
        assert all(row["objectives"] for row in outcome.rows if row is not failed)
        assert outcome.report.errors == 1

    def test_on_chunk_fires_per_contiguous_chunk_in_order(self):
        seen = []
        run_sweep(
            make_design(), make_space(), chunk_size=5,
            on_chunk=lambda start, stop, rows, seconds: seen.append(
                (start, stop, [row["index"] for row in rows], seconds)
            ),
        )
        assert [(start, stop) for start, stop, _, _ in seen] == \
            [(0, 5), (5, 10), (10, 12)]
        for start, stop, indices, seconds in seen:
            assert indices == list(range(start, stop))
            assert seconds >= 0.0

    @pytest.mark.parametrize("derived,clash", COLLISIONS)
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_a_derived_name_that_collides_is_refused(self, derived, clash, mode):
        """A derived objective named as a built-in objective, an axis or
        another derived objective would replace its column."""
        with pytest.raises(ExploreError, match=f"has the name of {clash}"):
            run_sweep(make_design(), make_space(), derived=derived, mode=mode,
                      workers=2)

    @pytest.mark.parametrize("derived,clash", COLLISIONS)
    def test_a_job_with_a_colliding_derived_name_is_never_stored(
            self, tmp_path, derived, clash):
        store = JobStore(tmp_path)
        with pytest.raises(ExploreError, match=f"has the name of {clash}"):
            store.create(make_design(), make_space(), derived=derived)
        assert store.job_ids() == []

    @pytest.mark.parametrize("mode", ["thread", "bogus"])
    def test_unknown_mode_refused(self, mode):
        with pytest.raises(ExploreError, match="serial or process"):
            run_sweep(make_design(), make_space(), mode=mode)

    def test_prune_keeps_only_the_front(self):
        full = run_sweep(
            make_design(), make_space(), objectives=("power", "delay")
        )
        pruned = run_sweep(
            make_design(), make_space(), objectives=("power", "delay"),
            prune=True,
        )
        assert 0 < len(pruned.rows) < len(full.rows)
        assert [r["index"] for r in pruned.rows] == \
            [r["index"] for r in full.pareto()]


class TestModeEquivalence:
    def test_process_mode_byte_identical(self):
        serial = run_sweep(make_design(), make_space(), chunk_size=4)
        forked = run_sweep(
            make_design(), make_space(), chunk_size=4,
            workers=2, mode="process",
        )
        assert outcome_bytes(serial) == outcome_bytes(forked)

    def test_process_pool_capped_at_cpu_count(self):
        cpus = os.cpu_count()
        serial = run_sweep(make_design(), make_space(), chunk_size=1)
        forked = run_sweep(
            make_design(), make_space(), chunk_size=1,
            workers=cpus + 3, mode="process",
        )
        assert 1 <= forked.report.workers <= cpus
        assert outcome_bytes(serial) == outcome_bytes(forked)

    def test_process_pool_capped_at_chunk_count(self):
        forked = run_sweep(
            make_design(), make_space(), chunk_size=12,
            workers=4, mode="process",
        )
        assert forked.report.workers == 1
        assert len(forked.rows) == 12


class TestResumeEquivalence:
    def test_interrupted_job_resumes_byte_identical(self, tmp_path):
        baseline = run_sweep(make_design(), make_space(), chunk_size=3)
        expected = outcome_bytes(baseline)

        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space(), chunk_size=3)
        calls = {"n": 0}

        def stop_after_two():
            calls["n"] += 1
            return calls["n"] > 2

        run_job(job, should_stop=stop_after_two)
        assert job.state == "cancelled"
        assert 0 < job.done_points < job.total_points

        # a different process picks the checkpoint up from disk
        revived = JobStore(tmp_path).job(job.job_id)
        run_job(revived)
        assert revived.state == "done"
        resumed = export_json(
            revived.result_rows(),
            revived.space.axis_names,
            revived.objective_names,
        )
        assert resumed == expected

    def test_thread_mode_checkpoint_resumes_serially(self, tmp_path):
        expected = outcome_bytes(
            run_sweep(make_design(), make_space(), chunk_size=3)
        )
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space(), chunk_size=3)
        run_job(job, should_stop=lambda: len(job.chunks) >= 2)
        assert job.state == "cancelled"
        # rewrite the checkpoint as a thread-mode job would have saved it
        path = tmp_path / f"{job.job_id}.json"
        payload = json.loads(path.read_text())
        payload["mode"] = "thread"
        payload["workers"] = 4
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))

        revived = JobStore(tmp_path).job(job.job_id)
        assert revived.mode == "serial"
        run_job(revived)
        assert revived.state == "done"
        resumed = export_json(
            revived.result_rows(),
            revived.space.axis_names,
            revived.objective_names,
        )
        assert resumed == expected

    def test_resume_skips_finished_chunks(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.create(make_design(), make_space(), chunk_size=3)
        run_job(job, should_stop=lambda: len(job.chunks) >= 2)
        done_before = dict(job.chunks)
        revived = JobStore(tmp_path).job(job.job_id)
        run_job(revived)
        # the chunks finished before the interruption were not re-run:
        # their recorded rows are the exact same payloads
        for start, chunk in done_before.items():
            assert revived.chunks[start]["rows"] == chunk["rows"]
