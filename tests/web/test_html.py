"""HTML builder: escaping and structure."""

import pytest

from repro.web import html as H


class TestEscaping:
    def test_text_escaped(self):
        assert H.escape("<script>") == "&lt;script&gt;"
        assert H.escape('a"b') == "a&quot;b"

    def test_raw_passes_through(self):
        assert H.escape(H.Raw("<b>bold</b>")) == "<b>bold</b>"

    def test_attribute_values_escaped(self):
        markup = H.tag("td", "x", title='say "hi"')
        assert '&quot;hi&quot;' in markup

    def test_user_content_in_table_escaped(self):
        markup = H.table([["<img onerror=x>"]], header=["col"])
        assert "<img" not in markup
        assert "&lt;img" in markup

    def test_form_field_value_escaped(self):
        markup = H.text_input("name", '"><script>')
        assert "<script>" not in markup


class TestTags:
    def test_basic_tag(self):
        assert H.tag("td", "x", class_="num") == '<td class="num">x</td>'

    def test_void_elements(self):
        assert H.tag("input", type="text") == '<input type="text">'
        assert H.tag("br") == "<br>"

    def test_none_attribute_skipped(self):
        assert H.tag("td", "x", title=None) == "<td>x</td>"

    def test_true_attribute_bare(self):
        assert H.tag("option", "x", selected=True) == "<option selected>x</option>"

    def test_underscore_to_hyphen(self):
        assert 'data-id="3"' in H.tag("td", "x", data_id=3)

    def test_link(self):
        assert H.link("/menu?user=a", "Menu") == '<a href="/menu?user=a">Menu</a>'


class TestStructures:
    def test_table_with_header_and_caption(self):
        markup = H.table([["1", "2"]], header=["a", "b"], caption="cap")
        assert "<caption>cap</caption>" in markup
        assert "<th>a</th>" in markup
        assert "<td>1</td>" in markup

    def test_unordered_list(self):
        markup = H.unordered_list(["x", "y"])
        assert markup == "<ul><li>x</li><li>y</li></ul>"

    def test_select_with_selection(self):
        markup = H.select("kind", ["a", "b"], selected="b")
        assert '<option value="b" selected>b</option>' in markup

    def test_form(self):
        markup = H.form("/go", H.submit("Run"))
        assert markup.startswith('<form action="/go" method="post">')
        assert 'value="Run"' in markup

    def test_page_contains_nav_title_style(self):
        document = H.page("Title", H.paragraph("body"), nav=[("/x", "X")])
        assert "<!DOCTYPE html>" in document
        assert "<title>Title</title>" in document
        assert '<a href="/x">X</a>' in document
        assert "<p>body</p>" in document

    def test_page_nav_is_the_link_helpers_markup(self):
        nav = [("/menu?user=a&auth=<t>", "Main Menu"), ("/help", "R&D \"x\"")]
        document = H.page("T", nav=nav)
        links = " | ".join(H.link(href, text) for href, text in nav)
        assert f'<div class="nav">{links}</div>' in document

    def test_error_page(self):
        document = H.error_page("Oops", "went wrong")
        assert 'class="error"' in document
