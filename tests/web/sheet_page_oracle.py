"""The design spreadsheet page as the ``html.py`` helpers built it.

``pages.design_sheet_page`` now writes its markup from f-string
fragments.  The helper-built version it replaced is kept here verbatim
(with its ``_row_link``) so that ``test_sheet_page.py`` can hold the
direct render to byte equality with it.  One difference is deliberate
and pinned there: a plain row's name was escaped twice here (once by
``_row_link``, again by its table cell).  Test-only; never imported by
``src/``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.design import Design, SubDesign
from repro.core.estimator import PowerReport
from repro.core.expressions import Expression
from repro.core.units import format_eng, format_quantity
from repro.web import html as H
from repro.web.pages import auth_fields, cred, nav_for


def _row_link(
    user: str, design_name: str, row, report: PowerReport, auth: str = ""
) -> H.Content:
    if isinstance(row, SubDesign):
        return H.link(
            f"/design?{cred(user, auth)}&name={design_name}&path={row.name}",
            row.name,
        )
    return H.escape(row.name)


def design_sheet_page(
    user: str,
    design: Design,
    report: PowerReport,
    design_name: Optional[str] = None,
    path: str = "",
    error: str = "",
    auth: str = "",
) -> str:
    """The Figure 2 / Figure 5 spreadsheet."""
    design_name = design_name or design.name
    total = report.power
    rows: List[List[H.Content]] = []
    for row in design:
        child = report.child(row.name)
        parameter_fields: List[H.Content] = []
        for name in row.scope.local_names():
            raw = row.scope.raw(name)
            shown = raw.source if isinstance(raw, Expression) else raw
            parameter_fields.append(
                H.join(
                    f"{name}=",
                    H.text_input(f"p:{row.name}:{name}", shown, size=8),
                    " ",
                )
            )
        share = f"{100.0 * child.fraction_of(total):.1f}%"
        source = (
            "" if child.source in ("modeled", "hierarchy") else child.source
        )
        rows.append(
            [
                _row_link(user, design_name, row, child, auth),
                H.join(*parameter_fields),
                H.tag("span", format_eng(child.power, "W"), class_="num"),
                share,
                source,
                row.doc,
            ]
        )
    global_fields: List[H.Content] = []
    for name in design.scope.local_names():
        raw = design.scope.raw(name)
        shown = raw.source if isinstance(raw, Expression) else raw
        global_fields.append(
            H.join(f"{name}=", H.text_input(f"g:{name}", shown, size=10), " ")
        )
    body: List[H.Content] = []
    if error:
        body.append(H.tag("p", error, class_="error"))
    body.append(
        H.form(
            "/design",
            H.join(
                auth_fields(user, auth),
                H.hidden_input("name", design_name),
                H.hidden_input("path", path),
                H.heading("Global parameters", 2),
                H.paragraph(H.join(*global_fields)),
                H.table(
                    rows,
                    header=["Name", "Parameters", "Power", "Share",
                            "Source", "Notes"],
                    caption=f"{design.name} summary",
                ),
                H.paragraph(
                    H.join(
                        H.submit("PLAY"),
                        H.Raw("&nbsp;"),
                        H.tag(
                            "b",
                            f"Total: {format_eng(total, 'W')}"
                            f"  ({format_quantity(total, 'W')})",
                        ),
                    )
                ),
            ),
        )
    )
    body.append(
        H.paragraph(
            H.join(
                H.link(
                    f"/export/design?{cred(user, auth)}&name={design_name}",
                    "Export design as JSON",
                ),
                H.Raw(" | "),
                H.link(
                    f"/design/analysis?{cred(user, auth)}&name={design_name}"
                    + (f"&path={path}" if path else ""),
                    "Area / timing analysis",
                ),
            )
        )
    )
    title = design.name if not path else f"{design_name} / {design.name}"
    return H.page(f"{title} — {user}", *body, nav=nav_for(user, auth))
