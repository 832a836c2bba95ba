"""Robustness: the application must degrade with 4xx pages, never crash.

Property-style fuzzing of routes, form fields and expressions: whatever
a browser (or a hostile client) sends, the server answers with a status
code and an HTML/JSON body — no unhandled exceptions, no 5xx-equivalent
tracebacks, no markup injection.
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.expressions import parse
from repro.errors import ParseError, PowerPlayError
from repro.web.app import Application


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    application = Application(tmp_path_factory.mktemp("fuzz_state"))
    application.handle("POST", "/login", {"user": "fuzz"})
    application.handle("POST", "/design/new", {"user": "fuzz", "name": "d"})
    return application


_path_chars = st.text(
    alphabet=string.ascii_letters + string.digits + "/?&=._-%:",
    min_size=0, max_size=40,
)


class TestRouteFuzz:
    @given(path=_path_chars)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_get_path_returns_a_response(self, app, path):
        response = app.handle("GET", "/" + path)
        assert response.status in (200, 303, 400, 404, 422)
        assert isinstance(response.body, str)

    @given(
        fields=st.dictionaries(
            st.text(alphabet=string.printable, min_size=1, max_size=20),
            st.text(alphabet=string.printable, max_size=20),
            max_size=5,
        )
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_form_to_cell_returns_a_response(self, app, fields):
        form = {"user": "fuzz", "name": "multiplier"}
        form.update(fields)
        response = app.handle("POST", "/cell", form)
        assert response.status in (200, 400, 422)

    @given(
        value=st.text(alphabet=string.printable, min_size=1, max_size=30)
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_play_value_is_handled(self, app, value):
        response = app.handle(
            "POST", "/design",
            {"user": "fuzz", "name": "d", "g:VDD": value},
        )
        assert response.status in (200, 400, 422)

    @given(
        equation=st.text(alphabet=string.printable, min_size=1, max_size=50),
        name=st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10),
    )
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_model_definition_is_handled(self, app, equation, name):
        response = app.handle(
            "POST", "/define",
            {"user": "fuzz", "name": "zz_" + name, "equation": equation,
             "parameters": "", "doc": "", "category": "other",
             "proprietary": "no"},
        )
        assert response.status in (200, 400, 422)


class TestInjection:
    def test_script_in_design_name_escaped(self, app):
        hostile = "<script>alert(1)</script>"
        response = app.handle(
            "POST", "/design/new", {"user": "fuzz", "name": hostile}
        )
        # either rejected outright or escaped in the follow-up page
        if response.status == 303:
            page = app.handle(
                "GET", f"/design?user=fuzz&name={hostile}"
            )
            assert "<script>" not in page.body

    def test_script_in_model_doc_escaped(self, app):
        app.handle(
            "POST", "/define",
            {"user": "fuzz", "name": "xssmodel",
             "equation": "1u * VDD", "parameters": "",
             "doc": "<script>alert(1)</script>", "category": "other",
             "proprietary": "no"},
        )
        page = app.handle("GET", "/cell?user=fuzz&name=xssmodel")
        assert "<script>alert" not in page.body

    def test_path_traversal_username_rejected(self, app):
        response = app.handle("POST", "/login", {"user": "../../etc/passwd"})
        assert response.status == 400


class TestExpressionFuzz:
    @given(st.text(max_size=60))
    @settings(max_examples=150)
    def test_parser_never_raises_foreign_exceptions(self, source):
        """Arbitrary input either parses or raises ParseError — nothing
        else (no RecursionError, no ValueError escaping)."""
        try:
            parse(source)
        except ParseError:
            pass

    @given(st.text(alphabet="()+-*/^?:.,0123456789abc ", max_size=80))
    @settings(max_examples=150)
    def test_operator_soup(self, source):
        try:
            tree = parse(source)
        except ParseError:
            return
        # if it parsed, evaluation fails only with EvaluationError
        from repro.core.expressions import evaluate
        from repro.errors import EvaluationError

        try:
            evaluate(tree, {"a": 1.0, "b": 2.0, "c": 3.0})
        except EvaluationError:
            pass


class TestFormulaSize:
    """Formulas that used to exhaust the parser's or the evaluator's
    recursion (a 500 page, and a design that kept failing) are now
    parsed iteratively and either evaluate or fail with a page."""

    @pytest.fixture()
    def fresh(self, tmp_path):
        application = Application(tmp_path / "state")
        application.handle("POST", "/login", {"user": "deep"})
        application.handle("POST", "/design/new", {"user": "deep", "name": "d"})
        return application

    def _define(self, app, name, equation):
        return app.handle(
            "POST", "/define",
            {"user": "deep", "name": name, "equation": equation,
             "parameters": "", "doc": "", "category": "other",
             "proprietary": "no"},
        )

    def test_define_with_100_nested_parentheses(self, fresh):
        response = self._define(fresh, "deep", "(" * 100 + "VDD * 1n" + ")" * 100)
        assert response.status < 500

    @pytest.mark.parametrize("terms", [500, 1000])
    def test_define_with_a_long_sum(self, fresh, terms):
        response = self._define(fresh, f"sum{terms}", " + ".join(["VDD * 1n"] * terms))
        assert response.status < 500
        assert "you already defined" not in response.body

    def test_play_with_a_600_term_sum_then_view(self, fresh):
        play = fresh.handle(
            "POST", "/design",
            {"user": "deep", "name": "d", "g:f": " + ".join(["1e3"] * 600)},
        )
        assert play.status < 500
        for route in ("/design", "/design/analysis"):
            view = fresh.handle("GET", route, {"user": "deep", "name": "d"})
            assert view.status == 200
        design = fresh.users.session("deep").design("d")
        assert design.scope.resolve("f") == 600 * 1e3

    def test_play_beyond_the_depth_limit_is_a_form_error(self, fresh):
        play = fresh.handle(
            "POST", "/design",
            {"user": "deep", "name": "d", "g:f": "^".join(["1"] * 600)},
        )
        assert play.status == 200
        assert "limit is" in play.body
        view = fresh.handle("GET", "/design", {"user": "deep", "name": "d"})
        assert view.status == 200
