"""Sweep jobs over HTTP: submit, poll, results, cancel — and the
regression gate that malformed axis specs are 4xx, never 500."""

import json
import time

import pytest

from repro.web.app import Application

USER = "lidsky"

GOOD_FORM = {
    "user": USER,
    "design": "example:luminance_fig1",
    "axes": "VDD=1.1:3.3:0.4",
    "objectives": "power",
    "workers": "1",
    "mode": "serial",
    "chunk_size": "4",
}


@pytest.fixture
def app(tmp_path):
    application = Application(tmp_path / "state")
    response = application.handle("POST", "/login", {"user": USER})
    assert response.status == 303
    return application


def get(app, path):
    return app.handle("GET", path)


def post(app, path, **form):
    return app.handle("POST", path, form)


def submit_and_finish(app, deadline=30.0, **overrides):
    form = dict(GOOD_FORM)
    form.update(overrides)
    response = app.handle("POST", "/sweep", form)
    assert response.status == 303, response.body
    job_id = response.headers["Location"].rsplit("job=", 1)[1]
    started = time.monotonic()
    while app.jobs.job(job_id).state not in ("done", "failed"):
        assert time.monotonic() - started < deadline, "job never finished"
        time.sleep(0.05)
    assert app.jobs.job(job_id).state == "done"
    return job_id


class TestSweepForm:
    def test_form_renders(self, app):
        response = get(app, f"/sweep?user={USER}")
        assert response.status == 200
        assert "Launch sweep" in response.body

    def test_requires_user(self, app):
        assert get(app, "/sweep").status == 400


class TestValidationNever500:
    """Satellite gate: server-side axis validation over HTTP."""

    @pytest.mark.parametrize(
        "field,value,expect",
        [
            ("axes", "VDD=1.1:zz:0.1", "not a number"),
            ("axes", "VDD=1.1:3.3:0", "step"),
            ("axes", "VDD=3.3:1.1:0.1", ""),
            ("axes", "no_equals", "must look like"),
            ("axes", "", "at least one axis"),
            ("workers", "many", "whole number"),
            ("chunk_size", "1.5", "whole number"),
            ("objectives", "power,speed", "unknown objective"),
            ("derive", "broken spec", "name=expression"),
            ("couple", "wb=bw +* 2", "bad expression"),
            ("couple", "wb=bww / 2", "reads &#x27;bww&#x27;"),
            ("mode", "thread", "choose serial or process"),
        ],
    )
    def test_bad_field_rerenders_form_as_400(self, app, field, value, expect):
        form = dict(GOOD_FORM)
        form[field] = value
        response = app.handle("POST", "/sweep", form)
        assert response.status == 400
        # the form comes back, refilled, with the error called out
        assert "Launch sweep" in response.body
        if expect:
            assert expect in response.body

    def test_point_cap_breach_is_400(self, app):
        response = post(
            app, "/sweep", **{
                **GOOD_FORM,
                "axes": "VDD=0:1:0.001\nf=log:1e6:1e9:200",
                "point_cap": "1000",
            }
        )
        assert response.status == 400
        assert "over the cap" in response.body

    def test_no_design_is_400(self, app):
        response = post(app, "/sweep", **{**GOOD_FORM, "design": ""})
        assert response.status == 400

    def test_bad_job_id_is_4xx(self, app):
        for probe in ("../../etc/passwd", "job-1;rm", "job-99999999"):
            response = get(app, f"/sweep/job?user={USER}&job={probe}")
            assert 400 <= response.status < 500


class TestSweepLifecycle:
    def test_submit_poll_results(self, app):
        job_id = submit_and_finish(app)
        status = get(app, f"/sweep/job?user={USER}&job={job_id}")
        assert status.status == 200 and "done" in status.body

        html = get(app, f"/sweep/result?user={USER}&job={job_id}")
        assert html.status == 200 and "Pareto frontier" in html.body

        csv = get(app, f"/sweep/result?user={USER}&job={job_id}&fmt=csv")
        assert csv.status == 200
        assert csv.content_type.startswith("text/csv")
        assert csv.body.splitlines()[0] == "index,VDD,power,error"
        assert len(csv.body.splitlines()) == 1 + 6  # header + points

        exported = get(
            app, f"/sweep/result?user={USER}&job={job_id}&fmt=json"
        )
        payload = json.loads(exported.body)
        assert payload["format"] == "powerplay-sweep-results/1"
        assert payload["meta"]["job"] == job_id
        assert len(payload["rows"]) == 6

    def test_results_before_done_is_400(self, app):
        # a pending job created directly in the shared store
        from repro.explore import Axis, ParameterSpace
        from repro.designs.luminance import build_figure1_design

        job = app.jobs.create(
            build_figure1_design(),
            ParameterSpace([Axis("VDD", (1.0, 2.0))]),
            owner=USER,
        )
        response = get(app, f"/sweep/result?user={USER}&job={job.job_id}")
        assert response.status == 400
        assert "once it is done" in response.body

    def test_cancel_route(self, app):
        from repro.explore import Axis, ParameterSpace
        from repro.designs.luminance import build_figure1_design

        job = app.jobs.create(
            build_figure1_design(),
            ParameterSpace([Axis("VDD", (1.0, 2.0))]),
            owner=USER,
        )
        response = post(app, "/sweep/cancel", user=USER, job=job.job_id)
        assert response.status == 303
        assert app.jobs.job(job.job_id).cancel_requested

    def test_jobs_visible_on_sweep_page_and_status(self, app):
        job_id = submit_and_finish(app)
        sweeps = get(app, f"/sweep?user={USER}")
        assert job_id in sweeps.body
        status = get(app, "/status")
        assert "Sweep jobs" in status.body and job_id in status.body

    def test_other_users_jobs_hidden_and_denied(self, app):
        job_id = submit_and_finish(app)
        post(app, "/login", user="rival")
        listing = get(app, "/sweep?user=rival")
        assert job_id not in listing.body
        for route in ("/sweep/job", "/sweep/result"):
            response = get(app, f"{route}?user=rival&job={job_id}")
            assert response.status == 400
            assert "belongs to" in response.body

    def test_dotted_target_sweep_on_example(self, app):
        job_id = submit_and_finish(
            app,
            design="example:infopad",
            axes=(
                "VDD2=1.1:3.3:1.0\n"
                "bw@custom_hardware.luminance_chip.read_bank.bits=8,16"
            ),
            mode="process",
            workers="2",
        )
        exported = get(
            app, f"/sweep/result?user={USER}&job={job_id}&fmt=json"
        )
        payload = json.loads(exported.body)
        assert payload["axes"] == ["VDD2", "bw"]
        assert len(payload["rows"]) == 6


class TestPrunedJob:
    def test_pruned_job_serves_only_the_front(self, app):
        # one objective: the front is the cheapest of the 6 VDD points
        job_id = submit_and_finish(app, prune="yes")
        csv = get(app, f"/sweep/result?user={USER}&job={job_id}&fmt=csv")
        assert len(csv.body.splitlines()) == 2
        html = get(app, f"/sweep/result?user={USER}&job={job_id}")
        assert "1 Pareto-optimal of 6 evaluated points" in html.body


SURROGATE_FORM = {
    "design": "example:luminance_fig1",
    "axes": "VDD=1.0:3.0:0.1\nf=1e6:3e6:1e5",
    "objectives": "power",
    "surrogate": "yes",
    "train_frac": "0.3",
    "train_seed": "7",
    "verify_top": "10",
    "mode": "serial",
    "workers": "1",
    "chunk_size": "64",
}


class TestSurrogateSweep:
    def test_submit_poll_results(self, app):
        job_id = submit_and_finish(app, **SURROGATE_FORM)
        job = app.jobs.job(job_id)
        assert job.surrogate is not None
        # exact evaluations stay well under the full enumeration
        assert job.done_points < job.total_points

        status = get(app, f"/sweep/job?user={USER}&job={job_id}")
        assert "fit-predict-verify" in status.body

        result = get(app, f"/sweep/result?user={USER}&job={job_id}")
        assert result.status == 200
        assert "Surrogate fit-predict-verify" in result.body
        assert "Error bound" in result.body

    def test_exports_mark_sources(self, app):
        job_id = submit_and_finish(app, **SURROGATE_FORM)
        csv = get(app, f"/sweep/result?user={USER}&job={job_id}&fmt=csv")
        assert "source" in csv.body.splitlines()[0]
        exported = get(
            app, f"/sweep/result?user={USER}&job={job_id}&fmt=json"
        )
        payload = json.loads(exported.body)
        assert {r["source"] for r in payload["rows"]} <= {
            "exact", "predicted"
        }
        assert any(r["source"] == "exact" for r in payload["rows"])

    def test_bad_train_frac_is_400(self, app):
        form = dict(GOOD_FORM)
        form.update(SURROGATE_FORM, train_frac="1.5")
        response = post(app, "/sweep", **form)
        assert response.status == 400
        assert "train fraction" in response.body

    def test_non_numeric_surrogate_field_is_400(self, app):
        form = dict(GOOD_FORM)
        form.update(SURROGATE_FORM, verify_top="lots")
        response = post(app, "/sweep", **form)
        assert response.status == 400
        assert "verify_top" in response.body

    def test_nan_max_error_is_400(self, app):
        form = dict(GOOD_FORM)
        form.update(SURROGATE_FORM, max_error="nan")
        response = post(app, "/sweep", **form)
        assert response.status == 400
        assert "max_error" in response.body

    def test_exhaustive_form_unaffected(self, app):
        """surrogate=no (the default) keeps the legacy exact pipeline."""
        job_id = submit_and_finish(app)
        job = app.jobs.job(job_id)
        assert job.surrogate is None
        csv = get(app, f"/sweep/result?user={USER}&job={job_id}&fmt=csv")
        assert "source" not in csv.body.splitlines()[0]
