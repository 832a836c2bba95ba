"""The surrogate job lifecycle: phases, checkpoints, kill -> resume."""

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
    export_json,
    pareto_rows,
)
from repro.explore.engine import run_job
from repro.surrogate import surrogate_pending, surrogate_report
from repro.surrogate.runner import train_plan, verify_plan

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


def make_space():
    return ParameterSpace(
        [
            Axis("VDD", tuple(1.0 + 0.05 * i for i in range(20))),
            Axis("bits", tuple(float(b) for b in range(8, 18, 1)),
                 target="alu.bitwidth"),
        ]
    )


SURROGATE = {"train_frac": 0.25, "train_seed": 7, "verify_top": 12}


def make_job(tmp_path, name="a", prune=False, **overrides):
    store = JobStore(tmp_path / name)
    config = dict(SURROGATE)
    config.update(overrides)
    job = store.create(
        make_design(), make_space(), objectives=("power",),
        # a second, opposing objective gives the front real extent, so
        # the verification budget cannot cover it and some rows stay
        # ``predicted`` — the interesting half of the contract
        derived=(DerivedObjective("slowness", "1 / VDD"),),
        chunk_size=16, surrogate=config, prune=prune,
    )
    return store, job


class TestLifecycle:
    def test_runs_to_done(self, tmp_path):
        _, job = make_job(tmp_path)
        run_job(job)
        assert job.state == "done"
        assert not surrogate_pending(job)
        rows = job.result_rows()
        assert {row["source"] for row in rows} == {"exact", "predicted"}
        assert rows == sorted(rows, key=lambda r: r["index"])

    def test_train_rows_bit_identical_to_exact(self, tmp_path):
        _, job = make_job(tmp_path)
        run_job(job)
        from repro.explore.batcheval import BatchEvaluator

        evaluator = BatchEvaluator(make_design(), ("power",))
        for row in job.result_rows():
            if row["source"] != "exact":
                continue
            exact = evaluator.evaluate(row["overrides"])
            assert row["objectives"]["power"] == exact["power"]

    def test_verified_front_is_exact(self, tmp_path):
        _, job = make_job(tmp_path)
        run_job(job)
        report = surrogate_report(job)
        assert report.verified_points > 0
        assert report.error_bound < 1e-9  # polynomial model, exact fit
        assert report.observed_max_rel < 1e-9

    def test_prune_keeps_only_the_front(self, tmp_path):
        _, full = make_job(tmp_path, "full")
        _, pruned = make_job(tmp_path, "pruned", prune=True)
        run_job(full)
        run_job(pruned)
        rows = pruned.result_rows()
        assert 0 < len(rows) < len(full.result_rows())
        assert rows == pareto_rows(full.result_rows(), full.objective_names)

    def test_result_rows_raise_while_pending(self, tmp_path):
        _, job = make_job(tmp_path)
        with pytest.raises(JobError, match="incomplete"):
            job.result_rows()

    def test_phase_plans_are_deterministic(self, tmp_path):
        _, job = make_job(tmp_path)
        first = train_plan(job)
        second = train_plan(job)
        assert first == second
        assert verify_plan(job) == []  # no plan checkpoint yet


class TestKillResume:
    def run_with_budget(self, job, budget):
        """Run the job but stop after ``budget`` chunk checkpoints."""
        seen = {"n": 0}

        def stop():
            return seen["n"] >= budget

        original = job.record_phase_chunk

        def counting(phase, ordinal, indices, rows, seconds):
            original(phase, ordinal, indices, rows, seconds)
            seen["n"] += 1

        job.record_phase_chunk = counting
        try:
            run_job(job, should_stop=stop)
        finally:
            job.record_phase_chunk = original

    def test_interrupt_then_resume_is_byte_identical(self, tmp_path):
        _, baseline = make_job(tmp_path, "base")
        run_job(baseline)
        expected = export_json(
            baseline.result_rows(), ["VDD", "bits"], ["power", "slowness"]
        )

        store, job = make_job(tmp_path, "resumed")
        self.run_with_budget(job, 1)
        assert job.state == "cancelled"
        assert surrogate_pending(job)

        # a fresh process: reload the checkpoint from disk and resume
        store.forget(job.job_id)
        revived = store.job(job.job_id)
        run_job(revived)
        assert revived.state == "done"
        actual = export_json(
            revived.result_rows(), ["VDD", "bits"], ["power", "slowness"]
        )
        assert actual == expected

    def test_resume_after_plan_skips_refit(self, tmp_path):
        store, job = make_job(tmp_path, "late")
        run_job(job)
        plan_before = json.dumps(job.phase_data("plan"), sort_keys=True)
        store.forget(job.job_id)
        revived = store.job(job.job_id)
        assert not surrogate_pending(revived)
        plan_after = json.dumps(
            revived.phase_data("plan"), sort_keys=True
        )
        assert plan_after == plan_before


class TestReport:
    def test_report_shape(self, tmp_path):
        _, job = make_job(tmp_path)
        run_job(job)
        report = surrogate_report(job)
        payload = report.to_payload()
        assert payload["total_points"] == len(job.space)
        assert payload["train_points"] >= 32
        assert payload["predicted_points"] == len(job.space)
        assert set(payload["fits"]) == {"power"}
        assert payload["verified_points"] <= SURROGATE["verify_top"]
        # every front row is either exact (train/verified) or counted
        assert payload["unverified_front"] >= 0

    def test_seconds_excluded_from_rows(self, tmp_path):
        """Timing is informational; the export never contains it."""
        _, job = make_job(tmp_path)
        run_job(job)
        text = export_json(
            job.result_rows(), ["VDD", "bits"], ["power", "slowness"]
        )
        assert "seconds" not in text

    def test_summary_flags_surrogate(self, tmp_path):
        _, job = make_job(tmp_path)
        assert job.summary()["surrogate"] is True
