"""The design spreadsheet page, byte for byte against its frozen oracle.

``pages.design_sheet_page`` writes its markup directly; the
helper-built version it replaced lives in ``sheet_page_oracle.py``.
Every page here must be the oracle's bytes, except for the one
deliberate change: a plain row's name is escaped once, not twice.
"""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.design import Design, SubDesign
from repro.core.estimator import PowerReport, evaluate_power
from repro.core.model import ExpressionPowerModel
from repro.errors import DesignError, PowerPlayError
from repro.web import pages
from repro.web.app import Application

import sheet_page_oracle as oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "core"))
from test_plan_differential import GLOBALS, build_design  # noqa: E402

USER = "lidsky"


@pytest.fixture
def app(tmp_path):
    application = Application(tmp_path / "state")
    assert application.handle("POST", "/login", {"user": USER}).status == 303
    return application


def load(app, example, user=USER):
    form = {"user": user, "example": example}
    auth = app._auth_token(user)
    if auth:
        form["auth"] = auth
    response = app.handle("POST", "/design/load_example", form)
    assert response.status == 303
    return app.users.session(user).design(example)


def same_page(user, design, name=None, path="", error="", auth=""):
    """Render with both versions, require equal bytes, return the page."""
    report = evaluate_power(design)
    page = pages.design_sheet_page(user, design, report, name, path, error,
                                   auth=auth)
    assert page == oracle.design_sheet_page(user, design, report, name, path,
                                            error, auth=auth)
    return page


class TestSameBytes:
    @pytest.mark.parametrize("example", ["luminance_fig1", "infopad"])
    def test_paper_designs_at_nominal(self, app, example):
        page = same_page(USER, load(app, example), example)
        # and the page the application serves is that page
        served = app.handle("GET", f"/design?user={USER}&name={example}")
        assert served.body == page

    def test_infopad_sub_design_opened_through_path(self, app):
        load(app, "infopad")
        session = app.users.session(USER)
        sub = session.resolve("infopad", "custom_hardware")
        page = same_page(USER, sub, "infopad", "custom_hardware")
        assert "&amp;path=custom_hardware" in page
        served = app.handle(
            "GET", f"/design?user={USER}&name=infopad&path=custom_hardware")
        assert served.body == page

    def test_sub_design_rows_link_to_their_sheets(self, app):
        page = same_page(USER, load(app, "infopad"), "infopad")
        assert (f'<a href="/design?user={USER}&amp;name=infopad&amp;'
                'path=custom_hardware">custom_hardware</a>') in page

    def test_error_line(self, app):
        design = load(app, "luminance_fig1")
        page = same_page(USER, design, "luminance_fig1",
                         error="g:VDD: 'x<y' & \"z\" is not a number")
        assert ('<p class="error">g:VDD: &#x27;x&lt;y&#x27; &amp; '
                "&quot;z&quot; is not a number</p>") in page

    def test_password_protected_user(self, app):
        app.handle("POST", "/login", {"user": "alice"})
        response = app.handle(
            "POST", "/password", {"user": "alice", "password": "s3cret"})
        token = re.search(r"auth=([0-9a-f]+)",
                          response.headers["Location"]).group(1)
        design = load(app, "infopad", user="alice")
        page = same_page("alice", design, "infopad", auth=token)
        assert f'<input type="hidden" name="auth" value="{token}">' in page
        assert page.count(f"&amp;auth={token}") >= 3  # sheet links and nav
        served = app.handle(
            "GET", f"/design?user=alice&auth={token}&name=infopad")
        assert served.body == page

    def test_expressions_and_non_modeled_sources(self):
        design = Design("mixed <&> \"design\"", doc="doc")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        design.scope.set("scale", "VDD * 2")
        model = ExpressionPowerModel("cap", "C * scale * VDD^2 * f")
        design.add("formula_row", model, params={"C": "1p * (1 + 1)"},
                   doc="a <formula> & 'quotes'")
        design.add("sheet_row", model, params={"C": 3e-12},
                   source="datasheet")
        design.add("bench_row", model, params={"C": 1e-12}).record_measurement(
            0.02)
        page = same_page(USER, design, error="", auth="")
        assert 'value="VDD * 2"' in page
        assert 'value="1p * (1 + 1)"' in page
        assert "<td>datasheet</td>" in page
        assert "<td>measured</td>" in page

    def test_special_characters_outside_row_names(self):
        design = Design("d", doc="doc")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        model = ExpressionPowerModel("cap", "C * VDD^2 * f")
        design.add("r", model, params={"C": 1e-12}, doc="<b>&amp;</b>")
        same_page("u", design, name="a&b<c>", path="p&q", error="<x>",
                  auth="t&k")


class TestManyRows:
    def test_a_500_row_sheet_scans_no_children(self, monkeypatch):
        """Each row's report comes from one index of the children, not
        a scan of them per row; the bytes stay the oracle's."""
        design = Design("wide", doc="doc")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        model = ExpressionPowerModel("cap", "C * VDD^2 * f")
        for index in range(500):
            design.add(f"r{index}", model, params={"C": (index + 1) * 1e-15},
                       doc=f"row {index}")
        report = evaluate_power(design)
        expected = oracle.design_sheet_page(USER, design, report)
        scans = []
        child = PowerReport.child
        monkeypatch.setattr(PowerReport, "child", lambda self, name: (
            scans.append(name), child(self, name))[1])
        assert pages.design_sheet_page(USER, design, report) == expected
        assert scans == []

    def test_a_row_with_no_report_raises(self):
        design = Design("d", doc="doc")
        design.scope.set("VDD", 1.5)
        design.scope.set("f", 2e6)
        model = ExpressionPowerModel("cap", "C * VDD^2 * f")
        design.add("r", model, params={"C": 1e-12})
        report = evaluate_power(design)
        design.add("late", model, params={"C": 1e-12})
        with pytest.raises(DesignError, match="has no child 'late'"):
            pages.design_sheet_page(USER, design, report)


class TestRowNamesEscapedOnce:
    """The deliberate difference from the oracle."""

    def test_row_saved_as_a_lt_b_amp_c(self, app):
        assert app.handle("POST", "/design/new",
                          {"user": USER, "name": "demo"}).status == 303
        response = app.handle("POST", "/cell/save", {
            "user": USER, "name": "multiplier", "design": "demo",
            "row": "a<b&c", "p:bitwidthA": "16", "p:bitwidthB": "16",
            "p:VDD": "1.5", "p:f": "2M",
        })
        assert response.status == 303
        page = app.handle("GET", f"/design?user={USER}&name=demo").body
        assert "<td>a&lt;b&amp;c</td>" in page
        assert 'name="p:a&lt;b&amp;c:bitwidthA"' in page
        design = app.users.session(USER).design("demo")
        old = oracle.design_sheet_page(USER, design, evaluate_power(design),
                                       "demo")
        assert "<td>a&amp;lt;b&amp;amp;c</td>" in old
        assert page == old.replace("<td>a&amp;lt;b&amp;amp;c</td>",
                                   "<td>a&lt;b&amp;c</td>")


# -- random PLAY edits --------------------------------------------------------

VALUES = (0.0, 1.5, 2.5e-12, 16.0, -1.0, 3.3, 1e9)
FORMULAS = ("x + 0.5", "scale / 2", "VDD * 2", "bits / 8")


def _designs(design):
    yield "", design
    for row in design:
        if isinstance(row, SubDesign):
            for path, sub in _designs(row.design):
                yield f"{row.name}/{path}".rstrip("/"), sub


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.tuples(st.integers(0, 1 << 16),
                                st.sampled_from(GLOBALS),
                                st.sampled_from(VALUES + FORMULAS)),
                      max_size=6),
       user=st.sampled_from(["alice", "o'neil", "a&b"]),
       auth=st.sampled_from(["", "0f3a", "<t>"]),
       error=st.sampled_from(["", "edit refused: 'g:VDD' < 0 & \"x\""]))
def test_random_play_edits_render_the_same_bytes(seed, edits, user, auth,
                                                 error):
    top = build_design(seed)

    def every_sheet():
        for path, design in _designs(top):
            try:
                evaluate_power(design)
            except PowerPlayError:
                continue  # a design that fails to evaluate shows no sheet
            same_page(user, design, top.name, path, error, auth)

    every_sheet()
    for pick, name, value in edits:
        # a PLAY sets one name in the design's or one row's scope
        scopes = [top.scope] + [row.scope for row in top]
        try:
            scopes[pick % len(scopes)].set(name, value)
        except PowerPlayError:
            continue  # a refused edit leaves the sheet as it was
        every_sheet()
