"""Minimal HTML generation — the 1996 web, dependency-free.

"A WWW page is written in HyperText Markup Language (HTML).  HTML pages
enable hyperlinks to other pages and calls to programs located on the
WWW."  Everything PowerPlay renders is tables, forms and links; this
module covers exactly that, with systematic escaping.
"""

from __future__ import annotations

import html as _html
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Content = Union[str, "Raw"]


class Raw(str):
    """A string already containing markup — not escaped again."""


def escape(text: object) -> str:
    """Escape text for safe inclusion in HTML."""
    if isinstance(text, Raw):
        return str(text)
    return _html.escape(str(text), quote=True)


def tag(element: str, content: Content = "", **attributes: object) -> Raw:
    """``tag('td', 'x', class_='num')`` -> ``<td class="num">x</td>``.

    Attribute names ending in ``_`` have it stripped (``class_``);
    underscores become hyphens.  ``None`` attribute values are skipped;
    ``True`` renders as a bare attribute.
    """
    parts = [element]
    for key, value in attributes.items():
        if value is None:
            continue
        attr = key.rstrip("_").replace("_", "-")
        if value is True:
            parts.append(attr)
        else:
            parts.append(f'{attr}="{escape(value)}"')
    open_tag = "<" + " ".join(parts) + ">"
    if element in ("br", "hr", "input", "meta"):
        return Raw(open_tag)
    return Raw(f"{open_tag}{escape(content)}</{element}>")


def join(*chunks: Content) -> Raw:
    return Raw("".join(escape(chunk) for chunk in chunks))


def link(href: str, text: str) -> Raw:
    """A hyperlink — "textual pointers to scripts or files"."""
    return tag("a", text, href=href)


def heading(text: str, level: int = 1) -> Raw:
    return tag(f"h{max(1, min(6, level))}", text)


def paragraph(content: Content) -> Raw:
    return tag("p", content)


def unordered_list(items: Iterable[Content]) -> Raw:
    body = "".join(tag("li", item) for item in items)
    return Raw(f"<ul>{body}</ul>")


def table(
    rows: Sequence[Sequence[Content]],
    header: Optional[Sequence[Content]] = None,
    caption: str = "",
) -> Raw:
    """An HTML table in the Figure 2 / Figure 5 spreadsheet style."""
    parts: List[str] = ['<table border="1" cellpadding="3">']
    if caption:
        parts.append(tag("caption", caption))
    if header is not None:
        cells = "".join(tag("th", cell) for cell in header)
        parts.append(f"<tr>{cells}</tr>")
    for row in rows:
        cells = "".join(tag("td", cell) for cell in row)
        parts.append(f"<tr>{cells}</tr>")
    parts.append("</table>")
    return Raw("".join(parts))


# -- forms -----------------------------------------------------------------


def text_input(name: str, value: object = "", size: int = 12) -> Raw:
    return tag("input", type="text", name=name, value=value, size=size)


def hidden_input(name: str, value: object) -> Raw:
    return tag("input", type="hidden", name=name, value=value)


def select(name: str, options: Sequence[str], selected: Optional[str] = None) -> Raw:
    body = "".join(
        tag("option", option, value=option, selected=(option == selected) or None)
        for option in options
    )
    return Raw(f'<select name="{escape(name)}">{body}</select>')


def submit(label: str = "Submit") -> Raw:
    return tag("input", type="submit", value=label)


def form(
    action: str,
    body: Content,
    method: str = "post",
) -> Raw:
    return Raw(
        f'<form action="{escape(action)}" method="{escape(method)}">'
        f"{escape(body)}</form>"
    )


def labelled_field(label: str, field: Content, note: str = "") -> Raw:
    suffix = tag("small", f" {note}") if note else Raw("")
    return Raw(f"<tr><td>{escape(label)}</td><td>{escape(field)}{suffix}</td></tr>")


def field_table(rows: Iterable[Content]) -> Raw:
    return Raw("<table>" + "".join(escape(row) for row in rows) + "</table>")


# -- pages -----------------------------------------------------------------

_STYLE = """
body { font-family: sans-serif; margin: 1.5em; }
table { border-collapse: collapse; }
th { background: #ddd; text-align: left; }
td.num { text-align: right; font-family: monospace; }
.nav { margin-bottom: 1em; }
.error { color: #a00; font-weight: bold; }
small { color: #555; }
"""


def page(title: str, *body: Content, nav: Sequence[Tuple[str, str]] = ()) -> str:
    """A complete HTML document with the PowerPlay navigation bar."""
    nav_html = ""
    if nav:
        # link()'s markup, written directly: every page pays for it
        links = " | ".join(
            f'<a href="{escape(href)}">{escape(text)}</a>' for href, text in nav
        )
        nav_html = f'<div class="nav">{links}</div>'
    content = "".join(escape(chunk) for chunk in body)
    return (
        "<!DOCTYPE html>"
        f"<html><head><title>{escape(title)}</title>"
        f"<style>{_STYLE}</style></head>"
        f"<body>{nav_html}<h1>{escape(title)}</h1>{content}</body></html>"
    )


def error_page(title: str, message: str, nav: Sequence[Tuple[str, str]] = ()) -> str:
    return page(title, tag("p", message, class_="error"), nav=nav)
